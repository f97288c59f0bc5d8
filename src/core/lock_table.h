// LockTable: the 2PC participant's concurrency-control state.
//
// Fast commit (Figure 11) and the slow-commit prepare (Figure 12) ask one
// question: is every object unmodified since the snapshot and unlocked? Early
// lock release adds a third state to the lock, the visibility watermark: a
// released lock whose decided version has not committed here yet. This class
// owns the locks, the lock-wait queue and the watermarks, and answers that
// question once (Classify).
//
// A plain state machine: no simulator, network or tracer. Callers pass time in
// and keep the timers (a waiter only records its caller's timer id). Volatile:
// a restored server starts with a fresh table, and the propagation backstop
// re-protects decided versions.
#ifndef SRC_CORE_LOCK_TABLE_H_
#define SRC_CORE_LOCK_TABLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/sim/time.h"
#include "src/storage/store.h"

namespace walter {

class LockTable {
 public:
  // --- locks ------------------------------------------------------------------
  bool Holds(TxId tid) const { return owners_.contains(tid); }
  void Lock(TxId tid, const std::vector<ObjectId>& oids, SiteId coordinator,
            const std::vector<ObjectId>& read_oids, SimTime now);
  // Frees tid's locks and queues every waiter on them for the next wake.
  // Returns the number of objects freed, or nullopt when tid held none.
  std::optional<size_t> Release(TxId tid);
  size_t lock_count() const { return locks_.size(); }

  // --- the conflict check (Figures 11-12) -------------------------------------
  enum class Verdict : uint8_t {
    kYes,          // grant: no conflict and no other holder
    kUnavailable,  // a preferred-site lease is not held here
    kConflict,     // a committed or decided version the snapshot lacks
    kWait,         // blocked only by live locks of other transactions
  };
  struct Check {
    Verdict verdict = Verdict::kYes;
    ObjectId conflict;            // kConflict: the first object that failed
    std::vector<TxId> blockers;   // kWait: the holder of each locked object, in order
    uint64_t clock_bypasses = 0;  // snapshot-covered watermarks let through
  };
  // Checks each of `oids` in order: the lease, Unmodified(oid, vts) against
  // `store`, the watermark (with clock_commit, a watermark whose decided
  // versions `vts` already covers is history, not a conflict), then the lock.
  // A transaction that already holds its locks is re-affirmed (a duplicate
  // prepare). Takes no locks.
  Check Classify(TxId tid, const std::vector<ObjectId>& oids, const VectorTimestamp& vts,
                 bool clock_commit, const Store& store,
                 const std::function<bool(ContainerId)>& lease) const;
  // Wound-wait: the distinct blockers strictly younger than the requester in
  // (priority, tid) order, in blocker order. `priority_of` gives a holder's
  // age, or nullopt when its coordinator is elsewhere (its yes vote cannot be
  // taken back, so the requester waits for it).
  static std::vector<TxId> WoundCandidates(
      TxId tid, uint64_t priority, const std::vector<TxId>& blockers,
      const std::function<std::optional<uint64_t>(TxId)>& priority_of);

  // --- lock waits -------------------------------------------------------------
  struct Waiter {
    uint64_t priority = 0;
    std::vector<ObjectId> oids;  // the full set it needs (re-checked on resume)
    uint64_t timer = 0;          // the caller's timeout event, 0 once fired
    std::function<void(bool timed_out)> resume;
  };
  // Queues tid behind the current holders of `oids`. tid must not be waiting.
  Waiter& Park(TxId tid, uint64_t priority, std::vector<ObjectId> oids,
               std::function<void(bool timed_out)> resume);
  Waiter* waiter(TxId tid);
  // Removes tid from the queue and returns its entry (nullopt when absent).
  std::optional<Waiter> Unpark(TxId tid);
  // The still-waiting tids released locks have woken since the last call,
  // oldest first (priority, tid), each once.
  std::vector<TxId> TakeWakes();
  bool has_wakes() const { return !wakes_.empty(); }
  size_t waiter_count() const { return waiters_.size(); }
  const std::unordered_map<TxId, Waiter>& waiters() const { return waiters_; }

  // --- visibility watermarks (early lock release) -----------------------------
  // Any live watermark blocks a writer (the decided version is committed, so
  // the writer's snapshot can never cover it); a reader whose snapshot covers
  // the decided version must wait until it commits here.
  void AddWatermark(const ObjectId& oid, Version version, TxId tid, SimTime now);
  // Watermarks every object tid holds a write lock on (not its serializable
  // read-set locks: the decided record does not write those, so such a
  // watermark would never clear) with `version`. Returns watermarks set.
  size_t WatermarkLocked(TxId tid, Version version, SimTime now);
  // Drops every watermark of `origin` with seqno <= through (those versions
  // are committed here now). Returns watermarks dropped.
  size_t ClearWatermarks(SiteId origin, uint64_t through);
  // Drops all watermarks of one transaction. Returns true if any.
  bool DropWatermarksOfTx(TxId tid);
  // Drops watermarks of `origin` with seqno > after_seqno (§5.7 discard: the
  // decided versions no longer exist). Returns watermarks dropped.
  size_t DropWatermarksFrom(SiteId origin, uint64_t after_seqno);
  bool WatermarkBlocksWrite(const ObjectId& oid) const { return watermarks_.contains(oid); }
  bool WatermarkBlocksRead(const ObjectId& oid, const VectorTimestamp& vts) const;
  // Smallest watermarked seqno of `origin` (GC belt: the frontier must not
  // fold past a version a parked reader is still waiting to see).
  std::optional<uint64_t> MinWatermarkSeqno(SiteId origin) const;
  bool has_watermarks() const { return !watermark_txs_.empty(); }
  // Total live per-object watermarks (leak canary, like lock_count()).
  size_t watermark_count() const;

  // --- the stale sweep (2PC termination) --------------------------------------
  // A transaction whose fate to ask `ask` about: a lock set's coordinator, or
  // a watermark set's decision origin.
  struct StaleQuery {
    TxId tid = 0;
    SiteId ask = kNoSite;
    bool watermark = false;
  };
  // Lock sets held at least `stale_after` with a remote coordinator, then
  // watermark sets installed at least that long ago. Entries with a query in
  // flight are skipped; returned ones are marked in flight.
  std::vector<StaleQuery> TakeStale(SimTime now, SimDuration stale_after, SiteId self);
  // The answer to `q` arrived: clears its in-flight mark. False when the lock
  // set / watermark set is gone meanwhile.
  bool EndQuery(const StaleQuery& q);

 private:
  struct Owner {
    std::vector<ObjectId> oids;
    SiteId coordinator = kNoSite;
    SimTime acquired = 0;
    bool query_in_flight = false;
    std::vector<ObjectId> read_oids;  // serializable read set (sorted): never watermarked
  };
  struct WatermarkTx {
    Version version;
    std::vector<ObjectId> oids;
    SimTime installed = 0;
    bool query_in_flight = false;
  };
  // Removes one transaction's watermarks from both indexes.
  void EraseWatermarkTx(std::unordered_map<TxId, WatermarkTx>::iterator it);
  // Drops every watermark set whose version matches; returns watermarks dropped.
  size_t DropWatermarksIf(const std::function<bool(const Version&)>& match);
  // True if some decided version watermarked on oid satisfies `pred`.
  bool AnyWatermark(const ObjectId& oid, const std::function<bool(const Version&)>& pred) const;

  std::unordered_map<ObjectId, TxId> locks_;
  std::unordered_map<TxId, Owner> owners_;
  std::unordered_map<TxId, Waiter> waiters_;
  std::unordered_map<ObjectId, std::vector<TxId>> waitlist_;
  std::vector<TxId> wakes_;  // woken by releases, not yet taken
  std::unordered_map<ObjectId, std::vector<std::pair<Version, TxId>>> watermarks_;
  std::unordered_map<TxId, WatermarkTx> watermark_txs_;
};

}  // namespace walter

#endif  // SRC_CORE_LOCK_TABLE_H_
