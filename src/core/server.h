// WalterServer: the per-site Walter server (Sections 5-6).
//
// Implements, over the simulated network:
//  - the per-site state of Figure 9 (CurrSeqNo, CommittedVTS, History, GotVTS),
//  - transaction execution (Figure 10) with server-side update buffers and
//    snapshot reads, including remote reads for objects not replicated locally,
//  - fast commit (Figure 11) for transactions whose write-set is local-preferred
//    (and for cset-only transactions, which never conflict),
//  - slow commit (Figure 12): two-phase commit among the preferred sites of
//    written objects, with object locks,
//  - asynchronous propagation (Figure 13): per-destination batches with
//    cumulative acks, disaster-safe durability announcements, and visibility
//    acks; batching makes disaster-safe durability land in [RTTmax, 2*RTTmax]
//    as in Figure 19,
//  - write-ahead logging with group commit, checkpointing, and server
//    replacement recovery (Sections 5.7 and 6).
//
// Single-threaded per server: every handler runs on the server's own event
// loop — the cluster simulator's, or in threaded mode the owning executor's —
// so "atomic regions" of the paper's pseudocode are single events here. The
// participant's locks, lock waits and visibility watermarks live in a
// LockTable (src/core/lock_table.h); the server keeps the RPCs and timers.
#ifndef SRC_CORE_SERVER_H_
#define SRC_CORE_SERVER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/common/update.h"
#include "src/core/container.h"
#include "src/core/lock_table.h"
#include "src/core/messages.h"
#include "src/core/perf_model.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/storage/store.h"

namespace walter {

class WalterServer {
 public:
  struct Options {
    SiteId site = 0;
    size_t num_sites = 1;
    // Intra-site sharding (virtual-server model): when the cluster shards a
    // site across co-located servers, `site` is really a global server id and
    // `num_sites` the total server count — every vector clock, propagation
    // destination and 2PC participant is per-server. This flag marks that
    // mode for the few places whose behavior must differ (snapshot reads may
    // arrive at a shard before the snapshot's commits do — see DoRead).
    bool sharded = false;
    PerfModel perf = PerfModel::Ec2();
    DiskConfig disk = DiskConfig::Ec2();
    // Disaster-safe durability parameter: a transaction is disaster-safe once
    // f+1 sites replicating each written object (including its preferred site)
    // have received it. -1 = all sites (the measurement convention of §8.1).
    int f = -1;
    // Floor between consecutive propagation batches to one destination (a new
    // batch otherwise departs as soon as the previous one is acked).
    SimDuration min_batch_interval = Millis(2);
    // Resend window for unacked propagation batches and 2PC prepares.
    SimDuration resend_timeout = Seconds(2);
    // Exponential backoff for consecutive unacked propagation-batch resends to
    // one destination: the window doubles per attempt (with jitter) up to this
    // cap, instead of hammering a partitioned peer at a fixed period forever.
    SimDuration resend_backoff_cap = Seconds(30);
    // 2PC prepare RPC attempts per participant site (1 = a single RPC; a
    // timeout counts as a no vote, as before).
    size_t prepare_attempts = 1;
    // Periodic re-announcement of durability/visibility state (heals losses).
    SimDuration gossip_interval = Seconds(1);
    // Server-side buffers of transactions whose client went silent (crashed,
    // or gave up its retry budget mid-transaction) are dropped after this
    // idle period. 0 disables the sweep.
    SimDuration idle_tx_timeout = 0;
    // Cap on transactions per propagation batch.
    size_t max_batch_records = 20000;
    // Commit/abort outcomes (the retransmission dedup state) are dropped this
    // long after the outcome settled, once globally visible. Must stay far
    // above any client retry horizon: dropping an outcome a client is still
    // retransmitting against would double-apply the commit. Aged by time, never
    // by the GC frontier (the frontier can advance within a client's retry
    // window). 0 retains outcomes forever.
    SimDuration tx_outcome_retention = Seconds(30);
    // Real-file WAL backing: when non-empty, the WAL mirrors every append into
    // segmented log files under this directory (see FileWalDevice) and fsyncs
    // on group-commit flush. Empty (default) keeps the in-memory image only —
    // the simulated benchmarks' behavior is unchanged.
    std::string wal_dir;
    // How long a prepare or fast commit blocked on a held lock waits for the
    // holder to resolve before voting no / aborting. Must stay below
    // resend_timeout or the coordinator counts a still-parked participant as a
    // transport-dead no vote.
    SimDuration lock_wait_timeout = Millis(500);
    // Bounded re-park for reads blocked by a visibility watermark (or, in
    // sharded mode, by a sibling-shard snapshot gap). The first
    // read_park_soft_retries attempts re-park at 1ms — legitimate propagation
    // gaps resolve well inside this phase, so healthy runs are unchanged —
    // then the delay doubles from 2ms up to read_park_backoff_cap. A read
    // still blocked once the accumulated wait reaches read_park_budget gives
    // up with kUnavailable (Stats::reads_starved, TraceKind::kReadStarved),
    // so a watermark that will never clear surfaces as a starved read and a
    // liveness-watchdog verdict instead of a silent 1ms re-park loop forever.
    uint32_t read_park_soft_retries = 256;
    SimDuration read_park_backoff_cap = Millis(50);
    SimDuration read_park_budget = Seconds(10);
    // Admission control (overload defense; both 0 = off, the default — every
    // figure bench is byte-identical). When on, a client op arriving while
    // this server's CPU queue is at least admission_max_queue deep, or while
    // admission_max_inflight admitted ops are still unanswered, is rejected
    // before any CPU is charged: kOverloaded plus a retry-after hint sized to
    // the queue's drain time. Aborts are always admitted — they release
    // server-side state and shrink the overload.
    size_t admission_max_queue = 0;
    size_t admission_max_inflight = 0;
    // Geographic site of each global server id (filled by the cluster from its
    // shard map). Empty = every server is its own geo site, which disables the
    // co-sited fast-visibility path.
    std::vector<SiteId> geo_site_of;
    // Clock-ordered WAN commits. On: the slow-commit coordinator stamps each
    // WAN prepare with a future commit timestamp (its local clock + the
    // topology's worst one-way delay + 2*skew bound + a 1ms slack);
    // participants hold the vote until their own clock passes it and evaluate
    // held votes in (commit_ts, coordinator, tid) order, so concurrent
    // conflicting slow commits resolve identically at every participant. The
    // conflict check also becomes snapshot-aware: a visibility watermark whose
    // decided version the writer's snapshot already Sees is not a conflict
    // (the writer builds on that version; remote apply is causality-gated), so
    // dependent back-to-back slow commits stop false-aborting for the
    // propagation round trip. Off: nothing is stamped or held.
    bool clock_commit = false;
    ClockModel::Options clock;          // per-site skew/drift model
  };

  // Storage-layer milestones, exposed for crash-point enumeration: the crash
  // fuzzer hooks these to kill the server exactly at a WAL append, checkpoint
  // write, or WAL truncation boundary. `offset` is the logical WAL position
  // after the event. The hook may call Crash(); the server stops the current
  // storage operation cleanly when it does.
  enum class StorageEvent : uint8_t {
    kWalAppend = 0,
    kCheckpoint = 1,
    kWalTruncate = 2,
  };
  using StorageEventHook = std::function<void(StorageEvent event, size_t offset)>;

  // Called whenever a transaction commits at this site (local commits and
  // remote propagated commits alike), in this site's commit order.
  using CommitObserver = std::function<void(SiteId site, const TxRecord& record)>;

  WalterServer(Simulator* sim, Network* net, Options options, ContainerDirectory* directory);

  ~WalterServer();

  SiteId site() const { return options_.site; }
  const VectorTimestamp& committed_vts() const { return committed_vts_; }
  const VectorTimestamp& got_vts() const { return got_vts_; }
  uint64_t curr_seqno() const { return curr_seqno_; }
  Store& store() { return store_; }
  Disk& disk() { return disk_; }
  const Options& options() const { return options_; }
  // Currently held slow-commit locks / server-side transaction buffers (leak
  // detectors in chaos tests assert both drain after heal).
  size_t lock_count() const { return locks_.lock_count(); }
  size_t active_tx_count() const { return active_.size(); }
  // Live visibility watermarks / parked lock waiters (same leak-canary role as
  // lock_count(): both must drain to zero once traffic stops and heals settle).
  size_t watermark_count() const { return locks_.watermark_count(); }
  size_t lock_waiter_count() const { return locks_.waiter_count(); }
  // The participant's lock table (tests plant watermarks through it).
  LockTable& lock_table() { return locks_; }
  // Parked reads / gap-parked commits / admitted-unanswered ops (same leak-
  // canary role: all must drain to zero once traffic stops and heals settle).
  size_t parked_read_count() const { return parked_reads_.size(); }
  size_t gap_commit_waiter_count() const { return gap_commit_waiters_.size(); }
  size_t admitted_inflight() const { return admitted_inflight_; }
  // Clock-held prepare votes (drains by timer; same leak-canary role) and the
  // server's clock model (tests use InjectStep to step the clock backwards).
  size_t held_prepare_count() const { return held_prepares_.size(); }
  ClockModel& clock() { return clock_; }
  // Retained (not yet globally visible) own commit by sequence number, or
  // nullptr. After a restore this covers every own record the replacement
  // committed silently, letting a harness recover records no observer saw.
  const TxRecord* RetainedLocalCommit(uint64_t seqno) const {
    auto it = local_commits_.find(seqno);
    return it == local_commits_.end() ? nullptr : &it->second.record;
  }

  void SetCommitObserver(CommitObserver observer) { observer_ = std::move(observer); }
  void SetStorageEventHook(StorageEventHook hook) { storage_hook_ = std::move(hook); }
  // Preferred-site lease check (Section 5.1): writes to containers whose
  // preferred site is here are rejected when the lease is not held.
  void SetLeaseChecker(std::function<bool(ContainerId)> checker) {
    lease_checker_ = std::move(checker);
  }

  // Durability/visibility watermarks for this site's own transactions.
  uint64_t ds_durable_through() const { return ds_durable_through_; }
  uint64_t globally_visible_through() const { return visible_through_; }
  // Logical WAL offset of the flush-confirmed prefix. The gap up to
  // wal().base() + wal().size() is in flight: lost on a crash, except what a
  // torn write exposes. The crash fuzzer reads this at each storage event to
  // size its torn-tail sweep.
  size_t durable_wal_bytes() const { return durable_wal_bytes_; }

  // Failure handling ---------------------------------------------------------
  // What survives a crash: the checkpoint plus the durably flushed WAL prefix.
  struct DurableImage {
    std::string checkpoint;
    std::string wal_bytes;
    size_t wal_base = 0;
  };

  // Simulates a server crash: endpoint down, volatile state untouched but
  // unreachable. The durable image can seed a replacement server.
  void Crash();
  bool crashed() const { return crashed_; }
  DurableImage TakeDurableImage() const;

  // The durable image as a faulty device would present it: consumes faults
  // armed on this server's Disk (see DiskFaults). A torn tail appends a prefix
  // of the unflushed WAL bytes — fsynced bytes are never torn — while bit rot
  // and checkpoint rot damage the durable contents themselves. Identical to
  // TakeDurableImage() when no faults are armed.
  DurableImage TakeFaultyImage();

  // Rebuilds state from a durable image (replacement server, Section 5.7).
  // Must be called before the server processes any request.
  void Restore(const DurableImage& image);

  // Aggressive site-failure recovery (Section 5.7): discard replicated data of
  // failed site `s` beyond `survive_through` (its last surviving seqno).
  void DiscardNonSurviving(SiteId s, uint64_t survive_through);

  // The self-facing counterpart: this site learns (after a restart, or after
  // being isolated) that the survivors removed it with the given surviving
  // prefix. Own commits beyond it are dropped, the sequence number rewinds,
  // and the watermarks roll back so reused seqnos replicate normally.
  void TruncateOwnLog(uint64_t survive_through);

  // Recovery-coordination support (Section 5.7): extract this site's copies of
  // `origin`'s transactions in [from, to] from the WAL, so survivors can fill
  // each other's gaps when the origin site is gone.
  std::vector<TxRecord> CollectRecords(SiteId origin, uint64_t from, uint64_t to) const;
  // Feeds records into the normal remote-apply path (guards still apply).
  void InjectRemoteRecords(SiteId origin, std::vector<TxRecord> records);
  // Declares `origin`'s prefix durable by configuration fiat (the surviving
  // prefix of a removed site), unblocking remote commit of those transactions.
  void SetDurableKnown(SiteId origin, uint64_t through);

  // Membership gating (Section 5.7): while `s` is removed from the
  // configuration, its stale propagation batches, 2PC prepares and durability
  // announcements are rejected here, so a removed-but-alive site that has not
  // yet learned its removal cannot resurrect discarded transactions. The
  // configuration service drives this from RemoveSite / ReintegrateSite.
  void SetSiteActive(SiteId s, bool active);
  bool IsSiteActive(SiteId s) const { return site_active_[s]; }

  // GC / checkpoint driving (the stability-frontier subsystem) ---------------
  // Per-origin seqnos durably logged AND applied here. Rollback-proof: a crash
  // followed by Restore replays the durable WAL, so the restored watermarks
  // never fall below what was announced. The frontier is derived from this,
  // not from the volatile GotVTS.
  const VectorTimestamp& durable_applied() const { return durable_applied_; }

  // This site's contribution to the stability frontier: the entry-wise min of
  // its committed and durably-applied state, optionally lowered to the oldest
  // local snapshot pin. The pointwise min of these floors across in-config
  // sites is causally closed, hence safe to fold histories at.
  VectorTimestamp StabilityFloor(bool include_pins = true) const;

  // Oldest live local snapshot (nullopt when none) — wired by the cluster to
  // this site's SnapshotPinRegistry.
  void SetPinFloorProvider(std::function<std::optional<VectorTimestamp>()> provider) {
    pin_floor_provider_ = std::move(provider);
  }

  // Folds histories at `frontier` (a coordinator-established stability
  // frontier). Returns entries folded; traces kGcRun.
  size_t DriveGc(const VectorTimestamp& frontier);

  // Takes a checkpoint (Section 6): object state + GotVTS + still-replicating
  // local transactions. Then truncates the WAL only up to what every in-config
  // site has durably applied (per-origin `wal_floors`), so resyncs and §5.7
  // gap-filling can still be served from the log; all-maximum floors truncate
  // everything the checkpoint covers.
  void CheckpointRetaining(const VectorTimestamp& wal_floors);

  // Drops commit/abort dedup outcomes older than tx_outcome_retention whose
  // records are globally visible. Driven on the GC cadence.
  void AgeTxOutcomes();

  size_t retained_local_commits() const { return local_commits_.size(); }
  size_t retained_tx_outcomes() const {
    return committed_versions_.size() + aborted_tids_.size();
  }

  // Stats ----------------------------------------------------------------------
  struct Stats {
    uint64_t fast_commits = 0;
    uint64_t slow_commits = 0;
    uint64_t aborts = 0;
    uint64_t reads = 0;
    uint64_t remote_reads = 0;
    uint64_t remote_txns_applied = 0;
    uint64_t batches_sent = 0;
    uint64_t prepares_handled = 0;
    uint64_t batch_resends = 0;    // propagation batches retransmitted on timeout
    uint64_t prepare_retries = 0;  // 2PC prepare RPC retransmissions
    uint64_t commit_dedups = 0;    // retransmitted commits answered from history
    uint64_t op_dedups = 0;        // retransmitted buffering ops dropped by op_seq
    uint64_t gc_runs = 0;          // DriveGc invocations that reached the store
    uint64_t gc_folded_entries = 0;   // history entries folded by GC
    uint64_t gc_stale_reads = 0;      // snapshot reads refused below the frontier
    uint64_t wal_truncated_bytes = 0; // WAL bytes released by retention-aware checkpoints
    uint64_t recoveries = 0;              // Restore() invocations
    uint64_t recovery_replayed = 0;       // WAL tail records replayed by Restore
    uint64_t recovery_torn_tails = 0;     // restores that truncated a torn WAL tail
    uint64_t recovery_bad_checkpoints = 0;  // checkpoint images rejected by CRC
    uint64_t recovery_backfilled = 0;     // own records re-installed from peers
    // Early lock release / visibility watermarks.
    uint64_t decisions_sent = 0;          // commit decisions sent to participants
    uint64_t decisions_received = 0;      // commit decisions received
    uint64_t early_releases = 0;          // participant lock sets released at decision
    uint64_t watermarks_set = 0;          // per-object visibility watermarks installed
    uint64_t watermarks_cleared = 0;      // watermarks cleared by remote commit
    uint64_t watermark_read_waits = 0;    // reads parked on a watermark
    uint64_t reads_starved = 0;           // parked reads that exhausted read_park_budget
    uint64_t remote_reads_starved = 0;    // server-to-server reads that starved out
    uint64_t read_park_dedups = 0;        // retransmitted reads chained onto a live park
    uint64_t commit_gap_parks = 0;        // commits parked on a sibling-shard snapshot gap
    uint64_t commits_starved = 0;         // parked commits that exhausted read_park_budget
    // Admission control / backpressure (all stay 0 with admission off).
    uint64_t admit_rejects = 0;           // client ops shed with kOverloaded
    uint64_t admitted_inflight_peak = 0;  // high-water mark of admitted-unanswered ops
    uint64_t cpu_queue_peak = 0;          // high-water mark of the CPU queue at admission
    uint64_t lock_waits = 0;              // prepares/fast commits parked on a held lock
    uint64_t lock_wounds = 0;             // wound-wait victims aborted here
    uint64_t lock_wait_timeouts = 0;      // parked waiters that hit lock_wait_timeout
    uint64_t aborts_conflict = 0;         // abort breakdown: write-write conflict
    uint64_t aborts_wound = 0;            //   wound-wait victim
    uint64_t aborts_timeout = 0;          //   lock-wait timeout
    uint64_t stale_lock_queries = 0;      // kTxStatus probes for stale prepare locks
    uint64_t stale_watermark_queries = 0; // kTxStatus probes for stale watermarks
    // Clock-ordered commits / consistency modes (all stay 0 at defaults).
    uint64_t clock_commits = 0;           // slow commits stamped with a commit_ts
    uint64_t clock_holds = 0;             // prepare votes held until commit_ts
    uint64_t clock_fallbacks = 0;         // prepares answered classically (clock already past)
    uint64_t clock_rearms = 0;            // hold timers re-armed (clock stepped backwards)
    uint64_t clock_conflict_bypasses = 0; // snapshot-covered watermark conflicts allowed
    uint64_t ser_validations = 0;         // serializable commits with a validated read set
    uint64_t aborts_ser_validation = 0;   //   of which aborted on a stale read (write skew)
    uint64_t nmsi_reads_unparked = 0;     // NMSI reads served where PSI would have parked
  };
  const Stats& stats() const { return stats_; }

  // Dumps this site's counters into the shared registry ("server.*" names).
  void ExportMetrics(MetricsRegistry& metrics) const;

 private:
  // Server-side state of an executing transaction (its update buffer).
  struct ActiveTx {
    VectorTimestamp start_vts;
    std::vector<ObjectUpdate> updates;
    uint64_t max_op_seq = 0;  // highest client op_seq buffered (retry dedup)
    SimTime last_touch = 0;   // for idle expiry (abandoned clients)
    // Per-transaction consistency level (docs/CONSISTENCY.md); kPsi from a
    // mode-unaware client.
    ConsistencyMode mode = ConsistencyMode::kPsi;
    // Serializable mode: the read set, validated and locked through commit
    // like the write set (filtered of written oids in DoCommit, kept sorted).
    std::vector<ObjectId> read_oids;
  };

  using RespondFn = std::function<void(ClientOpResponse)>;

  // Where a commit's outcome goes: the client's reply, sent once the commit
  // settles, and the durability/visibility notifications it asked for. One
  // value follows the commit through every state it can wait in.
  struct CommitReply {
    bool want_durable = false;
    bool want_visible = false;
    uint32_t reply_port = 0;      // client endpoint for notifications
    SiteId reply_site = kNoSite;  // client's node when not this server's own
    RespondFn respond;
  };

  // A locally committed transaction, retained until globally visible.
  struct LocalCommit {
    TxRecord record;
    bool flushed = false;     // group-commit flush completed
    bool committed = false;   // CommittedVTS advanced past it
    CommitReply reply;
  };

  // Outbound replication state per destination site.
  struct DestState {
    uint64_t acked_through = 0;    // cumulative PROPAGATE-ACK
    uint64_t sent_through = 0;     // highest seqno included in a sent batch
    uint64_t visible_through = 0;  // cumulative VISIBLE ack (CommittedVTS[us] there)
    bool in_flight = false;
    SimTime last_batch_sent = 0;
    EventId resend_timer = 0;
    EventId batch_timer = 0;  // pending min-interval delayed batch
    uint32_t resend_attempts = 0;  // consecutive unacked resends (backoff)
  };

  // In-flight slow commit at the coordinator.
  struct SlowCommitState {
    TxId tid = 0;
    ActiveTx tx;
    std::vector<SiteId> yes_votes;  // remote sites holding locks for us
    size_t votes_pending = 0;
    bool any_no = false;
    bool finished = false;
    CommitReply reply;
    AbortReason abort_reason = AbortReason::kConflict;  // first no-vote's reason
    uint64_t priority = 0;            // wound-wait age (commit entry time + 1)
    bool sequential = false;          // all-co-sited: acquire sites one at a time
    std::vector<SiteId> site_order;   // sequential mode: sites by smallest oid
    size_t next_site = 0;             // sequential mode: cursor into site_order
    // Lock-set partition by preferred site: the write set, plus (serializable
    // mode) the read set — read oids are validated and locked like writes but
    // never applied or watermarked.
    std::map<SiteId, std::vector<ObjectId>> by_site;
    // Clock-ordered path: the future timestamp stamped on WAN prepares
    // (coordinator's local clock units). 0 = classic immediate votes.
    int64_t commit_ts = 0;
  };

  // --- request plumbing ---
  void HandleClientOp(const Message& msg, RpcEndpoint::ReplyFn reply);
  void ProcessClientOp(const ClientOpRequest& req, RespondFn respond);
  // Handles a retransmitted commit: answers (or chains onto) the recorded /
  // in-flight outcome instead of double-applying. Returns true if handled.
  bool DedupRetransmittedCommit(const ClientOpRequest& req, RespondFn& respond);
  void DoRead(const ClientOpRequest& req, const VectorTimestamp& vts, const ActiveTx* tx,
              RespondFn respond, uint32_t park_attempt = 0);
  // Next re-park delay for the park_attempt'th blocked retry of a read, or
  // nullopt once the accumulated wait exhausts read_park_budget (give up).
  std::optional<SimDuration> ReadParkDelay(uint32_t park_attempt) const;
  // Parks a blocked read: the reply closure is stored in parked_reads_ keyed
  // by (tid, op_seq) — so a retransmitted read (the park outlived the client's
  // RPC timeout) chains onto the live park instead of starting a second park
  // chain with a fresh starvation budget — and the retry timer re-enters
  // DoRead with the registry's current closure.
  void ParkRead(const ClientOpRequest& req, const VectorTimestamp& vts, RespondFn respond,
                uint32_t park_attempt, SimDuration delay);
  // Admission-control gate (HandleClientOp, before the CPU charge). Returns
  // false after rejecting with kOverloaded; on admit, wraps `respond` with the
  // inflight-accounting token when limits are on.
  bool AdmitClientOp(const ClientOpRequest& req, RespondFn& respond);
  // True when `req` retransmits an op this server already holds state for (a
  // still-parked read, or a commit with an in-flight/parked/settled outcome):
  // the dedup machinery services it from that state, so the admission gate
  // must not bounce it — rejecting would fail a client whose original op
  // still occupies its admission slot.
  bool IsAdmittedRetransmission(const ClientOpRequest& req) const;
  void DoCommit(TxId tid, ActiveTx tx, CommitReply reply, uint32_t park_attempt = 0);

  // --- commit protocols ---
  void FastCommit(TxId tid, ActiveTx tx, CommitReply reply, SimTime deadline = 0);
  void SlowCommit(TxId tid, ActiveTx tx, CommitReply reply);
  void FinishSlowCommit(std::shared_ptr<SlowCommitState> state);
  // Shared local-commit tail: assign seqno, apply, group-commit flush.
  void CommitLocally(TxId tid, const ActiveTx& tx, CommitReply reply);
  // The one kAborted exit of a commit: abort counters, the recorded outcome,
  // the kTxAbort trace and the client reply, in that order.
  void AbortCommit(TxId tid, AbortReason reason, const RespondFn& respond);
  // The durable-append path shared by own commits, remote applies and own-
  // record backfill. AppendRecord logs and applies one record, then fires the
  // storage hook; false means the hook crashed the server at this append
  // boundary (the record is framed but will never be flushed). FlushWal
  // group-commits everything appended so far and runs `on_durable` once the
  // bytes are synced, unless the server crashed with the flush in flight.
  bool AppendRecord(const TxRecord& record);
  void FlushWal(std::function<void()> on_durable);
  void OnLocalFlushed(uint64_t seqno);
  void AdvanceLocalCommits();

  void HandlePrepare(const Message& msg, RpcEndpoint::ReplyFn reply);
  void HandleAbort2pc(const Message& msg);
  void HandleTxStatus(const Message& msg, RpcEndpoint::ReplyFn reply);
  // Takes tid's locks unless it already holds them (a re-affirmed duplicate).
  void LockAll(TxId tid, const std::vector<ObjectId>& oids, SiteId coordinator,
               const std::vector<ObjectId>& read_oids);
  void ReleaseLocks(TxId tid);
  // 2PC termination: queries coordinators of stale prepare locks so an orphaned
  // lock (coordinator crashed mid-2PC) is eventually released. Also probes
  // stale watermarks (decision origin crashed before the record became
  // durable) and drops the ones the origin reports aborted.
  void SweepStaleLocks();

  // --- early lock release (the Figure-13 lock-lifetime split) ---
  // Participants release 2PC prepare locks at the commit decision and cover
  // the gap with visibility watermarks (see LockTable). Prepares and fast
  // commits blocked on a held lock wait with wound-wait ordering instead of
  // aborting; all-co-sited 2PCs acquire sites in global object order; and
  // remote records from a co-sited origin commit without waiting for
  // disaster-safe durability (co-located shards fail together — the same
  // §5.7 single-shard caveat sharding already documents).
  // LockTable::Classify with this server's lease checker and clock_commit
  // flag; counts the clock-commit bypasses.
  LockTable::Check CheckLocks(TxId tid, const std::vector<ObjectId>& oids,
                              const VectorTimestamp& vts);
  // The prepare-side check: CheckLocks, then the wound-wait pass before a
  // kWait answer — strictly younger holders whose 2PC this server coordinates
  // are wounded, and *blocker names the first holder left. Takes no locks.
  LockTable::Verdict CheckPrepare(TxId tid, const std::vector<ObjectId>& oids,
                                  const VectorTimestamp& vts, uint64_t priority,
                                  TxId* blocker);
  // Marks a coordinator-local slow commit as wound-aborted and frees its locks;
  // its outstanding vote drives the normal abort path.
  void WoundLocal(const std::shared_ptr<SlowCommitState>& victim, TxId winner);
  // Coordinator-side vote arrival, shared by the parallel (WAN) path and the
  // sequential (ordered, co-sited) path.
  void OnPrepareVote(const std::shared_ptr<SlowCommitState>& state, SiteId voter, bool yes,
                     AbortReason reason);
  // Sequential mode: issues the next site's prepare (or finishes).
  void AdvancePrepares(const std::shared_ptr<SlowCommitState>& state);
  // Coordinator's own vote (local lock acquisition), possibly parked.
  void StartLocalVote(const std::shared_ptr<SlowCommitState>& state,
                      const std::vector<ObjectId>& oids, SimTime deadline = 0);
  // Participant-side prepare answer with parking support; deadline 0 = fresh.
  // clock_fallback marks a clock-stamped prepare answered classically (the
  // local clock had already passed its commit_ts on arrival).
  void AnswerPrepare(PrepareRequest req, SiteId coordinator, RpcEndpoint::ReplyFn reply,
                     SimTime deadline, bool clock_fallback = false);
  void ReplyPrepareVote(TxId tid, SiteId coordinator, const RpcEndpoint::ReplyFn& reply,
                        bool yes, AbortReason reason, bool clock_fallback = false);
  // Clock-ordered path (all unreachable when clock_commit is off): queue a
  // clock-stamped prepare until the local clock passes its commit_ts, then
  // evaluate held prepares in (commit_ts, coordinator, tid) order.
  void HoldPrepare(PrepareRequest req, SiteId coordinator, RpcEndpoint::ReplyFn reply);
  void ArmClockRelease();
  void ReleaseDueHeldPrepares();
  void HandleCommitDecision(const Message& msg);
  // The one lock-wait entry (fast commits, local votes, prepares): counts
  // lock_waits, traces kLockWait (blocker, peer) and parks tid behind the
  // holders of `oids`. When they release, `retry(deadline)` re-runs the
  // caller's check; once the deadline passes, lock_wait_timeouts is counted
  // and `timed_out` runs. deadline 0 starts a fresh lock_wait_timeout.
  void WaitForLocks(TxId tid, uint64_t priority, std::vector<ObjectId> oids, SimTime deadline,
                    TxId blocker, uint32_t peer, std::function<void()> timed_out,
                    std::function<void(SimTime deadline)> retry);
  void ResumeLockWaiter(TxId tid, bool timed_out);
  void WakeLockWaiters();

  // --- propagation ---
  void MaybeSendBatch(SiteId dest);
  void MaybeSendAllBatches();
  void SendPrepare(SiteId dest, PrepareRequest prep, std::shared_ptr<SlowCommitState> state,
                   size_t attempt);
  void HandleResync(const Message& msg);
  void SendResync(SiteId peer, bool is_reply);
  // Own-record backfill (corruption-tolerant recovery): when a resync shows a
  // peer holding own records the durable log lost (bit rot violated the fsync
  // contract), the seqnos are reserved immediately — so new commits never
  // reuse them — and the records are fetched back and re-installed in order.
  void HandleFetchRecords(const Message& msg, RpcEndpoint::ReplyFn reply);
  void RequestOwnRecordBackfill(SiteId peer, uint64_t through);
  void InstallOwnRecords(std::vector<TxRecord> records, SiteId peer);
  void HandlePropagate(const Message& msg);
  void ApplyRemoteReady(SiteId origin);
  void DrainAllPending();
  // Cumulative PROPAGATE-ACK of everything received from `origin` so far.
  void SendPropagateAck(SiteId origin);
  void HandlePropagateAck(const Message& msg);
  void HandleDsDurable(const Message& msg);
  void HandleVisibleAck(const Message& msg);
  void UpdateDsDurable();
  void TryCommitRemotes();
  void UpdateGloballyVisible();
  void NotifyClient(SiteId site, uint32_t port, uint32_t type, TxId tid);
  void StartGossip();
  void SweepIdleTxs();
  // Stamps a settled commit/abort outcome for time-based aging.
  void RecordOutcome(TxId tid);

  // --- remote reads ---
  void HandleRemoteRead(const Message& msg, RpcEndpoint::ReplyFn reply);
  // Body of HandleRemoteRead past the CPU charge, re-entered by the watermark
  // read-park (the answer waits until the decided version commits here).
  void AnswerRemoteRead(RemoteReadRequest req, RpcEndpoint::ReplyFn reply,
                        uint32_t park_attempt = 0);

  bool IsDsDurableQuorum(const TxRecord& record) const;
  SimDuration Jittered(SimDuration base);
  SimDuration CostFor(const ClientOpRequest& req) const;
  VectorTimestamp SnapshotNow() const { return committed_vts_; }

  // Wraps a callback scheduled on the simulator so it becomes a no-op once
  // this server has been destroyed (replacement after a crash).
  template <typename F>
  auto Guard(F fn) {
    return [alive = alive_, fn = std::move(fn)]() mutable {
      if (*alive) {
        fn();
      }
    };
  }

  Simulator* sim_;
  Network* net_;
  Options options_;
  ContainerDirectory* directory_;
  RpcEndpoint endpoint_;
  Resource cpu_;
  Disk disk_;
  Store store_;
  // Bounded-skew local clock (ClockModel seam): pure function of simulated
  // time, so it exists — inert — even with clock_commit off.
  ClockModel clock_;
  // Worst one-way delay to any 2PC participant (max RTT / 2 over the
  // topology). Sizes the clock-ordered commit's future timestamp.
  const SimDuration clock_max_owd_;

  // Figure 9 state.
  uint64_t curr_seqno_ = 0;
  VectorTimestamp committed_vts_;
  VectorTimestamp got_vts_;
  // Per-origin durably-logged-and-applied watermark (see durable_applied()).
  VectorTimestamp durable_applied_;

  std::unordered_map<TxId, ActiveTx> active_;
  std::map<uint64_t, LocalCommit> local_commits_;         // own seqno -> commit
  std::unordered_map<TxId, std::shared_ptr<SlowCommitState>> slow_commits_;

  // The participant's concurrency control: locks, lock waiters, watermarks.
  LockTable locks_;
  // Clock-ordered path: prepares held until the local clock passes their
  // commit_ts, evaluated in key order. Empty whenever clock_commit is off.
  struct HeldPrepare {
    PrepareRequest req;
    SiteId coordinator = kNoSite;
    RpcEndpoint::ReplyFn reply;
  };
  std::map<std::tuple<int64_t, SiteId, TxId>, HeldPrepare> held_prepares_;
  // Release-timer bookkeeping: at most one live timer matters (the newest,
  // earliest one); stale generations fire as no-ops.
  uint64_t clock_timer_gen_ = 0;
  SimTime clock_timer_at_ = -1;  // -1 = no timer armed
  bool wake_scheduled_ = false;  // a deferred WakeLockWaiters is pending
  // A commit parked before it reached the store: its buffered transaction and
  // reply, keyed by tid so a retransmitted commit can chain onto it.
  struct ParkedCommit {
    ActiveTx tx;
    CommitReply reply;
  };
  // Fast commits parked on a held lock.
  std::unordered_map<TxId, ParkedCommit> parked_commits_;
  // Reply closures of reads parked on a watermark or sibling-shard snapshot
  // gap, keyed by (tid, op_seq). An entry exists exactly while the read is
  // parked; retransmissions chain onto it (see ParkRead).
  std::map<std::pair<TxId, uint64_t>, RespondFn> parked_reads_;
  // Commits parked on a sibling-shard snapshot gap. The retry timer carries
  // only the tid; the registry lets DedupRetransmittedCommit chain a
  // retransmitted commit onto the parked one instead of refusing it as lost
  // state (or, worse, re-buffering and double-committing a piggybacked
  // update).
  std::unordered_map<TxId, ParkedCommit> gap_commit_waiters_;
  // Admitted-but-unanswered client ops (admission control's inflight gauge;
  // stays 0 with admission off).
  size_t admitted_inflight_ = 0;
  // Commit outcomes by tid, kept past global visibility so a late commit
  // retransmission is answered instead of double-applied; aged out by
  // AgeTxOutcomes. While the record is retained, local_commits_ holds it at
  // the version's seqno.
  std::unordered_map<TxId, Version> committed_versions_;
  std::unordered_set<TxId> aborted_tids_;
  // Outcomes in settle order with their settle time; AgeTxOutcomes() drains the
  // front once entries pass tx_outcome_retention and are globally visible.
  std::deque<std::pair<SimTime, TxId>> outcome_log_;

  // Inbound replication.
  std::vector<std::map<uint64_t, TxRecord>> pending_in_;      // per origin: buffered
  std::vector<std::map<uint64_t, TxRecord>> uncommitted_remote_;  // applied, not committed
  std::vector<uint64_t> durable_known_;  // per origin: ds-durable-through
  std::vector<bool> site_active_;        // per site: in the current configuration

  // Outbound replication.
  std::vector<DestState> dests_;
  // The serialized PROPAGATE payload for seqno range [from, to], shared across
  // destinations and resends (the records of a committed seqno never change;
  // only TruncateOwnLog invalidates by reusing seqnos).
  struct BatchPayloadCache {
    uint64_t from = 0;
    uint64_t to = 0;
    Payload payload;
  };
  BatchPayloadCache batch_cache_;
  uint64_t ds_durable_through_ = 0;
  uint64_t visible_through_ = 0;

  size_t durable_wal_bytes_ = 0;  // flushed WAL prefix (survives crashes)
  std::string checkpoint_image_;
  size_t checkpoint_wal_base_ = 0;

  // Highest own seqno known to exist cluster-wide; > committed_vts_[site] only
  // while a backfill is in flight (the gap blocks AdvanceLocalCommits until
  // the lost records are re-installed).
  uint64_t backfill_target_ = 0;

  CommitObserver observer_;
  StorageEventHook storage_hook_;
  std::function<bool(ContainerId)> lease_checker_;
  std::function<std::optional<VectorTimestamp>()> pin_floor_provider_;
  bool crashed_ = false;
  Stats stats_;
  std::shared_ptr<bool> alive_;
};

}  // namespace walter

#endif  // SRC_CORE_SERVER_H_
