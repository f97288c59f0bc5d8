// Deterministic structured event tracing for the simulated cluster.
//
// Every commit-protocol edge (client issue -> RPC enqueue -> server dequeue ->
// lock acquire -> fast/slow decision -> propagation -> ack) records one
// fixed-size TraceEvent. The hot path never allocates: events go into a
// preallocated ring buffer, and recording is a couple of stores plus an index
// increment. Because the simulator is deterministic, the trace of a run is a
// reproducible artifact — the same seed always yields the same event sequence.
//
// Sink selection is compile-time via WALTER_TRACE_MODE:
//   0 (off)   WTRACE() compiles to nothing; zero events, zero cost.
//   1 (ring)  events go to the per-thread ring buffer (the default).
//   2 (jsonl) ring, plus every event is streamed as one JSON line to the file
//             named by $WALTER_TRACE_FILE (stderr when unset).
//
// The tracer is thread-local (like Payload::bytes_wrapped): each
// ParallelRunner cell sees a private tracer, so concurrent simulations never
// contend or interleave their traces.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/time.h"

#ifndef WALTER_TRACE_MODE
#define WALTER_TRACE_MODE 1
#endif

namespace walter {

// One event per commit-protocol edge. Values are stable across runs of the
// same seed; names are returned by TraceKindName().
enum class TraceKind : uint8_t {
  kNone = 0,
  // Client side (src/core/client.cc).
  kClientOpRpc,        // operation RPC issued; aux = ClientOpKind
  kClientCommitRpc,    // commit(-carrying) RPC issued
  kClientAbortRpc,     // abort RPC issued
  kClientRetry,        // RPC retransmission after a transport timeout; arg = attempt
  kClientGiveUp,       // retry budget exhausted, surfacing kUnavailable
  kClientDone,         // commit/abort callback delivered; arg = StatusCode
  kClientDropLate,     // late response dropped: the Tx handle was abandoned
  // Network (src/net/network.cc); tid is unknown here, so tid = 0.
  kNetEnqueue,         // message accepted for delivery; arg = rpc_id, aux = type
  kNetDrop,            // message dropped (filter/partition/loss/down); arg = rpc_id
  kNetRpcTimeout,      // an endpoint's pending call timed out; arg = rpc_id
  // Server side (src/core/server.cc).
  kServerRecv,         // client op entered the server (pre-CPU); aux = ClientOpKind
  kCommitStart,        // DoCommit entered
  kFastPath,           // fast-commit path chosen
  kSlowPath,           // slow-commit (2PC) path chosen; aux = remote participant count
  kLockAcquire,        // 2PC locks taken; arg = lock count
  kLockRelease,        // locks released
  kPrepareSend,        // 2PC prepare sent; aux = destination site
  kPrepareRecv,        // 2PC prepare handled at a participant
  kPrepareVote,        // participant vote; arg = 1 yes / 0 no
  kTxAbort,            // commit aborted (conflict or no-vote); arg = StatusCode, aux = AbortReason
  kCommitApply,        // commit applied to the store; arg = seqno
  kCommitLocal,        // group-commit flush done, CommittedVTS advanced; arg = seqno
  kCommitAck,          // commit response sent to the client; arg = seqno
  // Asynchronous propagation (tid = 0 for batches, real tid for per-tx edges).
  kPropagateSend,      // batch sent; arg = through-seqno, aux = destination
  kPropagateRecv,      // batch received; arg = got-through, aux = origin
  kRemoteCommit,       // remote transaction committed here; arg = seqno, aux = origin
  kDsDurable,          // transaction disaster-safe durable; arg = seqno
  kVisible,            // transaction globally visible; arg = seqno
  // Garbage collection / checkpointing (tid = 0; driven by the GC coordinator).
  kGcRun,              // histories folded at a frontier; arg = entries folded
  kGcStall,            // frontier could not advance; arg = StallReason
  kGcStaleRead,        // snapshot read below the GC frontier rejected
  kGcCheckpoint,       // retention-aware checkpoint; arg = WAL bytes truncated
  // Crash recovery (tid = 0; driven by Restore and the backfill protocol).
  kRecoveryStart,      // Restore entered; arg = durable WAL bytes
  kRecoveryReplay,     // WAL tail replayed; arg = records replayed
  kRecoveryCorrupt,    // corruption detected; arg = CorruptKind (aux = offset)
  kRecoveryBackfill,   // own record re-installed from a peer; arg = seqno, aux = peer
  kRecoveryDone,       // Restore finished; arg = restored own seqno
  kDiskStall,          // injected disk stall burst; arg = slowdown factor
  // Early lock release / visibility watermarks (2PC participant locks).
  kLockWait,           // prepare/fast-commit parked on a held lock; arg = holder tid
  kLockWound,          // wound-wait victim aborted; tid = victim, arg = winner tid
  kWaitWatermark,      // read parked on a visibility watermark; arg = seqno, aux = origin
  kWatermarkSet,       // watermark installed at early release; arg = seqno, aux = origin
  kWatermarkClear,     // watermarks cleared by visibility; arg = through-seqno, aux = origin
  kDecisionSend,       // coordinator sent commit decisions; arg = seqno, aux = dest count
  kDecisionRecv,       // participant received a commit decision; arg = seqno, aux = origin
  kReadStarved,        // parked read exhausted read_park_budget; arg = attempts
  kCommitGapWait,      // commit parked on a sibling-shard snapshot gap; arg = attempt
  // Overload defenses (admission control + client retry budgets).
  kCommitStarved,        // gap-parked commit exhausted read_park_budget; arg = attempts
  kAdmitReject,          // server shed the request at admission; arg = retry_after_us
  kRetryBudgetExhausted,  // client token bucket empty, surfacing kUnavailable
  kQueueDepth,           // per-shard queue depth high-water mark; arg = depth
  // Clock-ordered commit + per-transaction consistency modes.
  kClockHold,      // participant held a clocked prepare; arg = hold µs, aux = coordinator
  kClockVote,      // held prepare released by the local clock; arg = commit_ts, aux = coordinator
  kClockFallback,  // commit_ts already in the past: classic vote; arg = lateness µs
  kSerValidate,    // serializable read-set validation started; arg = read-set size
  kNmsiRead,       // NMSI read served instead of parking; arg = park attempt
};

// arg of kRecoveryCorrupt.
enum class CorruptKind : uint8_t {
  kTornWalTail = 0,       // replay stopped before the end of the durable image
  kCheckpointBad = 1,     // checkpoint wrapper CRC/magic mismatch
  kOwnRecordsLost = 2,    // a peer holds own records the durable log lost
  kLogGap = 3,            // tail records past a recovery gap dropped (aux = count)
};

const char* TraceKindName(TraceKind kind);

// Fixed-size record; 32 bytes. `arg`/`aux` meaning depends on kind (above).
struct TraceEvent {
  SimTime time = 0;
  TxId tid = 0;
  uint64_t arg = 0;
  uint32_t aux = 0;
  TraceKind kind = TraceKind::kNone;
  uint8_t site = 0xff;  // SiteId truncated; 0xff = no site

  // One JSON object per event, schema documented in DESIGN.md §7.
  std::string ToJson() const;
};

// Receives every recorded event (the liveness watchdog implements this).
class TraceListener {
 public:
  virtual ~TraceListener() = default;
  virtual void OnTrace(const TraceEvent& event) = 0;
};

class Tracer {
 public:
  // 8192 events × 32 B = 256 KB: big enough to hold the recent causal history
  // of any stuck transaction, small enough that cycling through the ring stays
  // cache-resident instead of streaming misses on the hot path.
  static constexpr size_t kDefaultCapacity = 1 << 13;

  // The per-thread tracer instance every WTRACE call records into. Inline so
  // the hot path (TLS load + enabled check + ring store) never leaves the
  // calling translation unit.
  static Tracer& Get() {
    static thread_local Tracer tracer;
    return tracer;
  }

#if WALTER_TRACE_MODE == 0
  void Record(SimTime, TraceKind, TxId, SiteId, uint64_t = 0, uint32_t = 0) {}
#else
  void Record(SimTime time, TraceKind kind, TxId tid, SiteId site, uint64_t arg = 0,
              uint32_t aux = 0) {
    if (!enabled_) {
      return;
    }
    TraceEvent& e = ring_[head_];
    e.time = time;
    e.tid = tid;
    e.arg = arg;
    e.aux = aux;
    e.kind = kind;
    e.site = site <= 0xfe ? static_cast<uint8_t>(site) : 0xff;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ++recorded_;
#if WALTER_TRACE_MODE == 2
    StreamJsonl(e);
#endif
    if (listener_ != nullptr) {
      listener_->OnTrace(e);
    }
  }
#endif

  // Runtime switch (the compile-time off mode removes the call entirely; this
  // lets a single binary measure tracing overhead and lets tests silence it).
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Events recorded since Clear(); events beyond capacity overwrote the oldest.
  uint64_t recorded() const { return recorded_; }
  size_t size() const { return recorded_ < ring_.size() ? static_cast<size_t>(recorded_) : ring_.size(); }
  size_t capacity() const { return ring_.size(); }

  void Clear();
  // Reallocates the ring (not for use mid-hot-path).
  void SetCapacity(size_t capacity);

  // Retained events, oldest first.
  std::vector<TraceEvent> Events() const;
  // The causal slice of one transaction: its retained events, oldest first.
  std::vector<TraceEvent> Slice(TxId tid) const;

  // At most one listener (the watchdog); nullptr detaches.
  void SetListener(TraceListener* listener) { listener_ = listener; }
  TraceListener* listener() const { return listener_; }

  // Renders events as JSONL (one JSON object per line).
  static std::string ToJsonl(const std::vector<TraceEvent>& events);

 private:
  Tracer() : ring_(WALTER_TRACE_MODE == 0 ? 1 : kDefaultCapacity) {}

#if WALTER_TRACE_MODE == 2
  static void StreamJsonl(const TraceEvent& event);
#endif

  std::vector<TraceEvent> ring_;
  size_t head_ = 0;
  uint64_t recorded_ = 0;
  bool enabled_ = true;
  TraceListener* listener_ = nullptr;
};

}  // namespace walter

#if WALTER_TRACE_MODE == 0
#define WTRACE(...) \
  do {              \
  } while (0)
#else
// WTRACE(sim_time, kind, tid, site[, arg[, aux]])
#define WTRACE(...) ::walter::Tracer::Get().Record(__VA_ARGS__)
#endif

#endif  // SRC_OBS_TRACE_H_
