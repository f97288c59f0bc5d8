// Walter client library: the application-facing API of Figure 14.
//
// A WalterClient represents one application server at a site; it talks to the
// local Walter server over RPC. Tx is the transaction handle with the paper's
// operations: read, write, setAdd, setDel, setRead, setReadId, commit, abort,
// plus newid and the disaster-safe-durable / globally-visible commit callbacks
// (Section 4.2).
//
// The harness is event-driven, so operations take completion callbacks where
// the paper's API blocks. Operations of one transaction must be issued
// serially (start the next after the previous completes), matching how the
// paper's applications use the API ("each operation issues read/write requests
// to Walter in series", Section 8.6).
//
// RPC piggybacking (Section 8.2): the snapshot is assigned on the first access
// rather than by a separate start RPC, and a transaction whose only access is
// a single update commits in exactly one RPC (the update and the commit travel
// together).
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/messages.h"
#include "src/core/snapshot_pins.h"
#include "src/crdt/cset.h"
#include "src/net/network.h"

namespace walter {

class WalterClient {
 public:
  // RPC robustness knobs: every operation is retried on transport failure with
  // exponential backoff and jitter, and surfaces kUnavailable once the retry
  // budget is spent — an application never hangs on a crashed local server.
  // Retransmitted commits are safe: the server deduplicates them by TxId, and
  // retransmitted buffering ops by op_seq.
  struct Options {
    SimDuration rpc_timeout = Seconds(1);
    size_t max_attempts = 4;                 // 1 = no retries
    SimDuration backoff_base = Millis(250);  // doubles per attempt
    SimDuration backoff_cap = Seconds(4);
    double backoff_jitter = 0.3;             // backoff *= U[1, 1+jitter]
    // Load shedding (admission control's client half; 0 = off, the default —
    // a kOverloaded response surfaces to the caller unchanged). When positive,
    // the client absorbs kOverloaded by retransmitting after the server's
    // retry-after hint, spending one token per retransmission from a bucket
    // of this size that refills at overload_token_refill_per_s. An empty
    // bucket sheds the operation: kUnavailable immediately (with a
    // kRetryBudgetExhausted trace the watchdog sees), never a hang — under a
    // sustained surge the budget bounds retry amplification to the refill
    // rate instead of letting every client double the offered load.
    double overload_retry_tokens = 0;
    double overload_token_refill_per_s = 10.0;
  };

  // port must be unique per client within the site (use kClientPortBase + n).
  // `timer_sim` is where RPC timeout/backoff events are scheduled — the owning
  // executor's simulator under the threaded runtime, the shared simulator
  // (default) in sim mode.
  WalterClient(Network* net, SiteId site, uint32_t port);
  WalterClient(Network* net, SiteId site, uint32_t port, Options options,
               Simulator* timer_sim = nullptr);

  SiteId site() const { return site_; }
  uint32_t port() const { return endpoint_.address().port; }
  Simulator* sim() { return endpoint_.sim(); }

  // Fresh transaction id, unique across all clients.
  TxId NextTid();

  // Fresh object id in a container (Section 6's newid): ids are minted
  // client-locally, so they are unique without coordination.
  ObjectId NewId(ContainerId container);

  // Low-level unified operation RPC (used by Tx). Handles timeouts, retries
  // and the retry budget per Options. The no-target form addresses the local
  // server (this client's own node); the targeted form addresses a sibling
  // shard of the same site under intra-site sharding.
  void Op(ClientOpRequest req, std::function<void(Status, const ClientOpResponse&)> cb);
  void Op(SiteId target, ClientOpRequest req,
          std::function<void(Status, const ClientOpResponse&)> cb);

  // Per-container routing under intra-site sharding: maps a container to the
  // server node owning it at this client's site. Unset (the default) = every
  // container is served by the client's own node, the unsharded behavior.
  using Router = std::function<SiteId(ContainerId)>;
  void SetRouter(Router router) { router_ = std::move(router); }
  SiteId RouteFor(ContainerId c) const { return router_ ? router_(c) : site_; }

  const Options& options() const { return options_; }
  // Total RPC retransmissions performed (excluding first attempts).
  uint64_t retries_sent() const { return retries_sent_; }
  // Overload-shedding counters (stay 0 with overload_retry_tokens = 0).
  uint64_t overload_retries_sent() const { return overload_retries_sent_; }
  uint64_t overload_sheds() const { return overload_sheds_; }

  // Commit-event notification registry (Section 4.2 callbacks).
  void WatchDurable(TxId tid, std::function<void()> cb) { durable_watch_[tid] = std::move(cb); }
  void WatchVisible(TxId tid, std::function<void()> cb) { visible_watch_[tid] = std::move(cb); }

  // Snapshot pinning (the GC frontier's live-transaction input). The cluster
  // attaches the site's registry plus a floor provider that reads the local
  // server's CommittedVTS; without a registry pinning is a no-op (pin id 0).
  void AttachPins(SnapshotPinRegistry* pins, std::function<VectorTimestamp()> floor) {
    pins_ = pins;
    pin_floor_ = std::move(floor);
  }
  uint64_t PinSnapshot() { return pins_ != nullptr ? pins_->Pin(pin_floor_()) : 0; }
  void RaisePin(uint64_t pin, const VectorTimestamp& vts) {
    if (pins_ != nullptr && pin != 0) {
      pins_->Raise(pin, vts);
    }
  }
  void UnpinSnapshot(uint64_t pin) {
    if (pins_ != nullptr && pin != 0) {
      pins_->Unpin(pin);
    }
  }

 private:
  // `tid` is carried alongside the request purely for trace attribution.
  void Attempt(SiteId target, ClientOpRequest req,
               std::function<void(Status, const ClientOpResponse&)> cb, size_t attempt,
               TxId tid);
  // Retransmission path: the serialized request buffer is shared across attempts.
  void Attempt(SiteId target, Payload request,
               std::function<void(Status, const ClientOpResponse&)> cb, size_t attempt,
               TxId tid);
  SimDuration BackoffFor(size_t attempt);
  // Lazily refills the token bucket from elapsed sim time and takes one token
  // if available. Only called with overload_retry_tokens > 0.
  bool TakeOverloadToken();

  RpcEndpoint endpoint_;
  SiteId site_;
  Options options_;
  uint64_t uid_;
  uint64_t next_tx_ = 1;
  uint64_t next_local_id_ = 1;
  uint64_t next_op_seq_ = 1;
  uint64_t retries_sent_ = 0;
  uint64_t overload_retries_sent_ = 0;
  uint64_t overload_sheds_ = 0;
  // Token bucket for overload retries (initialized full on first use so a
  // client constructed before its simulator starts does not read the clock).
  double overload_tokens_ = -1.0;
  SimTime overload_refill_at_ = 0;
  std::unordered_map<TxId, std::function<void()>> durable_watch_;
  std::unordered_map<TxId, std::function<void()>> visible_watch_;
  SnapshotPinRegistry* pins_ = nullptr;
  std::function<VectorTimestamp()> pin_floor_;
  Router router_;
};

// A transaction handle. Create, issue operations (serially), then Commit or
// Abort. The handle must outlive its outstanding callbacks.
class Tx {
 public:
  explicit Tx(WalterClient* client);
  // A handle dropped without Commit/Abort traces the transaction as done so
  // liveness tracking (the watchdog) retires it instead of reporting it stuck.
  ~Tx();

  TxId tid() const { return tid_; }

  // Selects this transaction's consistency level (docs/CONSISTENCY.md). Must
  // be called before the first operation: the mode rides on every RPC so the
  // server applies one policy to the whole transaction. Default is PSI, which
  // keeps the wire format byte-identical to a mode-unaware client.
  void SetMode(ConsistencyMode mode);
  ConsistencyMode mode() const { return mode_; }

  using ReadCallback = std::function<void(Status, std::optional<std::string>)>;
  using SetReadCallback = std::function<void(Status, CountingSet)>;
  using CountCallback = std::function<void(Status, int64_t)>;
  using MultiReadCallback =
      std::function<void(Status, std::vector<std::optional<std::string>>)>;
  using CommitCallback = std::function<void(Status)>;

  void Read(const ObjectId& oid, ReadCallback cb);
  void SetRead(const ObjectId& setid, SetReadCallback cb);
  void SetReadId(const ObjectId& setid, const ObjectId& id, CountCallback cb);
  void MultiRead(std::vector<ObjectId> oids, MultiReadCallback cb);

  // Updates are buffered and flushed lazily (enables the 1-RPC fast path).
  void Write(const ObjectId& oid, std::string data);
  void SetAdd(const ObjectId& setid, const ObjectId& id);
  void SetDel(const ObjectId& setid, const ObjectId& id);
  // Destroying a regular object is writing nil to it (Section 6).
  void Destroy(const ObjectId& oid) { Write(oid, ""); }

  struct CommitOptions {
    std::function<void()> on_durable;  // disaster-safe durable at f+1 sites
    std::function<void()> on_visible;  // committed at all sites
  };
  void Commit(CommitCallback cb, CommitOptions options = {});
  void Abort(std::function<void()> done = nullptr);

  // Number of update RPCs + read RPCs + commit RPCs this transaction issued.
  size_t rpcs_issued() const { return rpcs_issued_; }

 private:
  ClientOpRequest BaseRequest();
  // Serializable mode tracks every object the transaction read; the read set
  // rides the commit request and joins the write set in the 2PC conflict
  // check (backward OCC). A no-op in the other modes.
  void TrackRead(const ObjectId& oid);
  void BufferUpdate(ClientOpKind kind, const ObjectId& oid, const ObjectId& elem,
                    std::string data);
  // Sends the buffered update (if any), then runs `then`.
  void FlushBuffered(std::function<void(Status)> then);
  void AbsorbResponse(const ClientOpResponse& resp);
  // Expires when this Tx is destroyed. Response callbacks of in-flight RPCs
  // (which may outlive an abandoned transaction through the retry/backoff
  // chain) hold a weak copy and drop the late response instead of touching a
  // dead Tx.
  std::weak_ptr<char> AliveToken() const { return alive_; }

  SiteId ReadTarget(ContainerId c) const {
    return commit_server_ != kNoSite ? commit_server_ : client_->RouteFor(c);
  }

  WalterClient* client_;
  TxId tid_;
  VectorTimestamp vts_;  // snapshot, once known
  ConsistencyMode mode_ = ConsistencyMode::kPsi;
  std::vector<ObjectId> read_set_;  // serializable mode only
  // The server node this transaction's ops are pinned to once it has written:
  // the shard owning the first written container at the client's site. The
  // server-side update buffer lives there, so later updates, reads (which must
  // see the buffer) and the commit all go there too. kNoSite until the first
  // write; read-only transactions route each read by its container instead.
  SiteId commit_server_ = kNoSite;
  std::optional<ClientOpRequest> buffered_;
  size_t update_rpcs_sent_ = 0;
  size_t rpcs_issued_ = 0;
  bool finished_ = false;
  // Snapshot pin held for the lifetime of the transaction (0 = no registry).
  // Released exactly once: by the Commit/Abort chains (which own it by value,
  // independent of the handle) or by the destructor for abandoned handles.
  uint64_t pin_ = 0;
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace walter

#endif  // SRC_CORE_CLIENT_H_
