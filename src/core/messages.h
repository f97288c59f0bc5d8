// Wire messages of the Walter protocols.
//
// Client <-> server: a single unified ClientOpRequest carries one operation of
// the Figure 14 API plus piggyback flags — start_tx piggybacks the snapshot
// assignment onto the first access, commit_after piggybacks commit onto the
// last access, so single-access transactions need exactly one RPC (the
// optimization of Section 8.2).
//
// Server <-> server: slow-commit two-phase-commit (PREPARE / ABORT-2PC,
// Figure 12) and the asynchronous propagation protocol (PROPAGATE /
// PROPAGATE-ACK / DS-DURABLE / VISIBLE, Figure 13), plus remote reads for
// objects not replicated locally (Section 4.3).
#ifndef SRC_CORE_MESSAGES_H_
#define SRC_CORE_MESSAGES_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/update.h"

namespace walter {

enum MessageType : uint32_t {
  kClientOp = 1,
  kDurableNotify = 2,   // server -> client: transaction is disaster-safe durable
  kVisibleNotify = 3,   // server -> client: transaction is globally visible
  kPrepare = 10,        // 2PC phase 1 (slow commit)
  kAbort2pc = 11,       // 2PC abort / lock release
  kPropagate = 12,      // batch of committed transactions (one-way)
  kPropagateAck = 13,   // cumulative ack of received transactions (one-way)
  kDsDurable = 14,      // origin announces a transaction is disaster-safe durable
  kVisibleAck = 15,     // remote site has committed the transaction (one-way)
  kRemoteRead = 16,     // read at the preferred site for non-replicated objects
  kTxStatus = 17,       // lock-holder asks a 2PC coordinator for an outcome
  kResync = 18,         // restored/truncated server resets a peer's cumulative acks
  kFetchRecords = 19,   // RPC: fetch an origin's records from a peer's WAL (backfill)
  kCommitDecision = 20, // coordinator -> participant: 2PC decided commit (one-way);
                        // the participant releases its prepare locks early and
                        // guards readers with a visibility watermark instead
};

// Why a commit attempt died, carried on no-vote prepare responses and recorded
// on abort traces (kTxAbort aux) so the bench abort breakdown is exact.
enum class AbortReason : uint8_t {
  kNone = 0,
  kConflict = 1,  // lock held / write-write conflict against the snapshot
  kWound = 2,     // wound-wait: an older transaction took the locks
  kTimeout = 3,   // lock-wait deadline expired before the holder resolved
};

// 2PC termination protocol: a site holding a prepare lock whose coordinator
// went quiet asks for the transaction's outcome. `kTxAborted` covers both
// "aborted" and "never heard of it" — an unknown tid at the coordinator means
// it never committed there (or is already globally visible, in which case the
// asking site released the lock when the transaction propagated to it).
enum class TxStatusOutcome : uint8_t {
  kTxAborted = 0,
  kTxPending = 1,
  kTxCommitted = 2,
};

struct TxStatusRequest {
  TxId tid = 0;

  std::string Serialize() const;
  static TxStatusRequest Deserialize(std::string_view bytes);
};

struct TxStatusResponse {
  TxStatusOutcome outcome = TxStatusOutcome::kTxAborted;

  std::string Serialize() const;
  static TxStatusResponse Deserialize(std::string_view bytes);
};

enum class ClientOpKind : uint8_t {
  kNone = 0,  // pure start / commit / abort carrier
  kRead,
  kWrite,
  kSetAdd,
  kSetDel,
  kSetRead,
  kSetReadId,
  kMultiRead,
};

struct ClientOpRequest {
  TxId tid = 0;
  bool start_tx = false;      // assign a snapshot if the transaction is new
  // Snapshot held by the client (returned by an earlier op of this
  // transaction); empty means "assign one now" when start_tx is set.
  VectorTimestamp vts;
  ClientOpKind op = ClientOpKind::kNone;
  ObjectId oid;               // target object (read/write/cset ops)
  ObjectId elem;              // cset element (setAdd/setDel/setReadId)
  std::string data;           // write payload
  std::vector<ObjectId> oids;  // multiRead targets
  bool commit_after = false;  // commit once the op is applied
  bool abort = false;         // abort the transaction
  bool want_durable = false;  // notify client at disaster-safe durability
  bool want_visible = false;  // notify client at global visibility
  uint32_t reply_port = 0;    // client's endpoint port for notifications
  // Client-assigned sequence number of this operation within the connection
  // (monotonic per client, stable across RPC retries). Lets the server drop a
  // retransmitted buffering op instead of double-applying the update.
  uint64_t op_seq = 0;
  // Node the client's endpoint lives on, when it differs from the server
  // handling the op — under intra-site sharding a client pinned to shard 0
  // may commit at a sibling shard, and durable/visible notifications must
  // come back to the client's own node. kNoSite = same node as the server.
  SiteId reply_site = kNoSite;
  // Per-transaction consistency level (docs/CONSISTENCY.md). Trailing
  // optional field group: a PSI transaction with no read set serializes the
  // exact pre-modes byte stream.
  ConsistencyMode mode = ConsistencyMode::kPsi;
  // Serializable mode only: the objects the transaction read, carried on the
  // commit-bearing request so the commit path can validate them against the
  // start snapshot (and lock them through 2PC).
  std::vector<ObjectId> read_oids;

  std::string Serialize() const;
  static ClientOpRequest Deserialize(std::string_view bytes);
};

struct ClientOpResponse {
  StatusCode status = StatusCode::kOk;
  // Snapshot assigned to the transaction (echoed so the client can pass it on
  // subsequent operations; makes read-only transactions stateless server-side).
  VectorTimestamp assigned_vts;
  bool found = false;           // regular read: object has a value
  std::string data;             // regular read result
  std::string cset_bytes;       // serialized CountingSet (setRead)
  int64_t count = 0;            // setReadId result
  std::vector<std::optional<std::string>> values;  // multiRead results
  Version commit_version;       // set when commit_after succeeded
  // Admission-control retry hint (microseconds). Trailing optional field: 0
  // (admission off) keeps the wire bytes identical to the pre-overload format.
  uint64_t retry_after_us = 0;

  std::string Serialize() const;
  static ClientOpResponse Deserialize(std::string_view bytes);
};

struct PrepareRequest {
  TxId tid = 0;
  std::vector<ObjectId> oids;  // written objects whose preferred site is the callee
  VectorTimestamp start_vts;
  // Wound-wait age (coordinator's sim time at slow-commit entry + 1; smaller
  // = older = wins). Trailing optional field, omitted on the wire when 0.
  uint64_t priority = 0;
  // Clock-ordered commit (docs/CONSISTENCY.md): the coordinator-assigned
  // future commit timestamp. The participant holds its vote until its local
  // clock passes this instant and releases held votes in (commit_ts,
  // coordinator site, tid) order. 0 = classic 2PC prepare. Trailing optional
  // group with mode/read_oids: all-default serializes the pre-clock bytes.
  int64_t commit_ts = 0;
  // The transaction's consistency level, so the participant's conflict check
  // matches the coordinator's (serializable validates read_oids too).
  ConsistencyMode mode = ConsistencyMode::kPsi;
  // Serializable mode: objects read by the transaction whose preferred site
  // is the callee. Validated against start_vts and locked through 2PC, but
  // never written.
  std::vector<ObjectId> read_oids;

  std::string Serialize() const;
  static PrepareRequest Deserialize(std::string_view bytes);
};

struct PrepareResponse {
  bool vote_yes = false;
  // Why a no vote (AbortReason); trailing optional like PrepareRequest's
  // priority — kNone (yes votes) is omitted.
  AbortReason reason = AbortReason::kNone;
  // Clock-ordered commit: the participant's local clock had already passed
  // the assigned commit_ts when the prepare arrived (skew bound violated or
  // the message ran slower than the one-way-delay budget), so the vote was
  // cast immediately, classic-2PC style. Metric-bearing only — the vote
  // itself is still valid. Trailing optional; false is omitted.
  bool clock_fallback = false;

  std::string Serialize() const;
  static PrepareResponse Deserialize(std::string_view bytes);
};

// One-way coordinator -> yes-voting participant: the 2PC decided commit and
// the decision record (the coordinator's local commit) is logged. On receipt
// the participant releases the transaction's prepare locks; if the version is
// not yet committed there, each previously locked object gets a visibility
// watermark so readers keep waiting exactly as long as the lock would have
// made them. Loss is tolerated: the locks then release when the record
// propagates and commits there (Figure 13's lock lifetime is the backstop).
struct CommitDecision {
  TxId tid = 0;
  Version version;  // the decided commit's version (origin site + seqno)

  std::string Serialize() const;
  static CommitDecision Deserialize(std::string_view bytes);
};

struct AbortMessage {
  TxId tid = 0;

  std::string Serialize() const;
  static AbortMessage Deserialize(std::string_view bytes);
};

struct PropagateBatch {
  SiteId origin = kNoSite;
  std::vector<TxRecord> records;  // contiguous seqnos from origin

  std::string Serialize() const;
  static PropagateBatch Deserialize(std::string_view bytes);
  size_t ByteSize() const;
};

struct PropagateAck {
  SiteId from = kNoSite;       // the acking site
  SiteId origin = kNoSite;     // whose transactions are acked
  uint64_t received_through = 0;  // cumulative: GotVTS[origin] at the acker

  std::string Serialize() const;
  static PropagateAck Deserialize(std::string_view bytes);
};

struct DsDurableMessage {
  SiteId origin = kNoSite;
  uint64_t durable_through = 0;  // all origin seqnos <= this are disaster-safe

  std::string Serialize() const;
  static DsDurableMessage Deserialize(std::string_view bytes);
};

struct VisibleAck {
  SiteId from = kNoSite;
  SiteId origin = kNoSite;
  uint64_t committed_through = 0;  // CommittedVTS[origin] at the acking site

  std::string Serialize() const;
  static VisibleAck Deserialize(std::string_view bytes);
};

struct RemoteReadRequest {
  ObjectId oid;
  VectorTimestamp vts;
  bool is_cset = false;
  // For merging with the caller's local history (Figure 10): the caller holds
  // its own unreplicated updates from seqno >= local_min_seqno, so the callee
  // excludes its copies of those to avoid double counting.
  SiteId caller = kNoSite;
  uint64_t local_min_seqno = 0;  // 0 = caller holds nothing local
  // Consistency level of the reading transaction (trailing optional: omitted
  // at the default, so PSI serializes the pre-mode byte stream). NMSI remote
  // reads serve through live watermarks at the preferred site.
  ConsistencyMode mode = ConsistencyMode::kPsi;

  std::string Serialize() const;
  static RemoteReadRequest Deserialize(std::string_view bytes);
};

struct RemoteReadResponse {
  bool found = false;
  std::string data;
  Version version;           // version of the returned regular value
  std::string cset_bytes;    // folded cset (with exclusions applied)

  std::string Serialize() const;
  static RemoteReadResponse Deserialize(std::string_view bytes);
};

struct TxNotify {
  TxId tid = 0;

  std::string Serialize() const;
  static TxNotify Deserialize(std::string_view bytes);
};

// Sent by a restored (or log-truncated) server to every peer: "this is what I
// actually hold of yours". Cumulative PROPAGATE/VISIBLE acks are monotonic, so
// after a crash rolls a site's GotVTS back, the origins must be told to lower
// their watermarks or they would never resend the lost suffix. The receiver
// answers with its own kResync so both directions reset.
struct ResyncState {
  SiteId from = kNoSite;
  uint64_t got_through = 0;        // sender's GotVTS entry for the receiver
  uint64_t committed_through = 0;  // sender's CommittedVTS entry for the receiver
  // Sender's own disaster-safe watermark. kDsDurable announcements only fire
  // when the watermark advances, so a server restored after everything already
  // settled would otherwise wait forever for evidence that re-sent remote
  // records are durable at their origin — the resync carries it explicitly.
  uint64_t durable_through = 0;
  bool is_reply = false;           // set on the answering leg (stops the echo)

  std::string Serialize() const;
  static ResyncState Deserialize(std::string_view bytes);
};

// Own-record backfill (corruption-tolerant recovery): a restored server whose
// durable log lost records past the fsync contract (bit rot) asks a peer for
// its copies of the server's own transactions — the resync exchange is the
// evidence (the peer's got_through exceeds what the log restored). The peer
// answers from its WAL via CollectRecords.
struct FetchRecordsRequest {
  SiteId from = kNoSite;     // the asking site
  SiteId origin = kNoSite;   // whose records (the asker's own site on backfill)
  uint64_t from_seqno = 0;   // inclusive range
  uint64_t to_seqno = 0;

  std::string Serialize() const;
  static FetchRecordsRequest Deserialize(std::string_view bytes);
};

struct FetchRecordsResponse {
  std::vector<TxRecord> records;  // ascending seqno; may be partial (WAL truncated)

  std::string Serialize() const;
  static FetchRecordsResponse Deserialize(std::string_view bytes);
};

}  // namespace walter

#endif  // SRC_CORE_MESSAGES_H_
