// Store: the per-site storage engine tying together object histories, the
// write-ahead log and checkpointing (Section 6). Storage only: locks, lock
// waits and visibility watermarks are the commit participant's volatile state
// and live in LockTable (src/core/lock_table.h). Every object stays in memory;
// the paper's object cache with cset-preferring eviction is not modelled.
//
// The Walter server drives it with committed TxRecords (its own commits and
// remote propagations); reads are snapshot reads against a vector timestamp.
// Recovery follows Section 6: restore the latest checkpoint, then replay the
// WAL tail after the checkpoint frontier.
#ifndef SRC_STORAGE_STORE_H_
#define SRC_STORAGE_STORE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/common/update.h"
#include "src/crdt/cset.h"
#include "src/storage/object_history.h"
#include "src/storage/wal.h"

namespace walter {

class Store {
 public:
  // `wal_device` puts the WAL on a persistence device (real segment files).
  // The simulated default (nullptr) keeps the in-memory image only.
  explicit Store(std::unique_ptr<WalDevice> wal_device = nullptr);
  // The dirty list points into this store's own history nodes: a copy would
  // alias them. A move carries the nodes over, so the pointers stay valid.
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  Store(Store&&) = default;
  Store& operator=(Store&&) = default;

  // Applies a committed transaction: logs it to the WAL and appends each of
  // its updates to the touched objects' histories. Caller guarantees each
  // transaction is applied at most once (the server's GotVTS gating).
  void Apply(const TxRecord& record);

  // Applies without logging — used when replaying the WAL itself. Every
  // touched history joins the dirty list.
  void ApplyToHistories(const TxRecord& record);

  // Snapshot reads --------------------------------------------------------
  std::optional<std::string> ReadRegular(const ObjectId& oid, const VectorTimestamp& vts) const;
  CountingSet ReadCset(const ObjectId& oid, const VectorTimestamp& vts) const;

  // Remote-read support (see ObjectHistory for semantics).
  std::optional<std::pair<std::string, Version>> ReadRegularVersioned(
      const ObjectId& oid, const VectorTimestamp& vts) const;
  std::optional<std::pair<std::string, Version>> LatestLocalVisible(
      const ObjectId& oid, const VectorTimestamp& vts, SiteId self) const;
  CountingSet ReadCsetExcluding(const ObjectId& oid, const VectorTimestamp& vts, SiteId site,
                                uint64_t min_seqno) const;
  CountingSet FoldLocalCsetOps(const ObjectId& oid, const VectorTimestamp& vts,
                               SiteId self) const;
  uint64_t MinLocalSeqno(const ObjectId& oid, SiteId self) const;

  // unmodified(oid, VTS) of Figures 11-12: no version of oid beyond vts.
  bool Unmodified(const ObjectId& oid, const VectorTimestamp& vts) const;

  std::optional<Version> LatestVersion(const ObjectId& oid) const;
  bool Has(const ObjectId& oid) const { return histories_.contains(oid); }
  size_t object_count() const { return histories_.size(); }

  // Maintenance --------------------------------------------------------------
  // Folds history entries below `stable` (see ObjectHistory::GarbageCollect)
  // and advances the recorded GC frontier. Callers (the GC coordinator)
  // guarantee `stable` is a stability frontier: every site has durably
  // committed everything it covers and no live snapshot starts below it.
  // Visits only the dirty list, so a round costs what changed since the last
  // one, not the key space; a history whose fold empties it leaves the list.
  size_t GarbageCollect(const VectorTimestamp& stable);

  // Highest frontier GC has folded at (entry-wise; persisted in checkpoints).
  // Snapshot reads below it are unanswerable and fail-stop.
  const VectorTimestamp& gc_frontier() const { return gc_frontier_; }

  // Memory gauges ------------------------------------------------------------
  // Unfolded history entries across all objects (the memory GC bounds).
  // Like the two scans below, walks only the dirty list.
  size_t TotalEntryCount() const;
  // Entries `vts` covers that GC has not folded yet: zero once histories have
  // drained to the frontier (the chaos suite's post-heal assert).
  size_t CountEntriesCoveredBy(const VectorTimestamp& vts) const;

  // Discards updates of site `site` with seqno > after_seqno from every
  // history (aggressive site-failure recovery, Section 5.7).
  size_t RemoveVersionsFrom(SiteId site, uint64_t after_seqno);

  // Dirty list: every history holding at least one unfolded entry is on it
  // exactly once, and a history is on it iff its dirty() flag is set. It may
  // also hold histories emptied by RemoveVersionsFrom until the next fold.
  size_t dirty_count() const { return dirty_.size(); }
  // Full-scan check of that invariant (tests and diagnostics only).
  bool DirtyListConsistent() const;

  // Serializes all object state (the "index" of Section 6) plus the WAL
  // frontier it covers.
  std::string SerializeCheckpoint() const;
  void RestoreCheckpoint(std::string_view bytes);
  // WAL offset covered by the last checkpoint taken/restored.
  size_t checkpoint_frontier() const { return checkpoint_frontier_; }

  struct RecoveryResult {
    size_t records_replayed = 0;
    bool torn_tail = false;
  };
  // Rebuilds state from a checkpoint image (may be empty) plus a raw WAL
  // image: restores the checkpoint, then replays frames past its frontier.
  RecoveryResult Recover(std::string_view checkpoint_bytes, std::string_view wal_bytes,
                         size_t wal_base_offset = 0);

  Wal& wal() { return wal_; }
  const Wal& wal() const { return wal_; }

 private:
  // Puts `history` on the dirty list unless it is already there.
  void MarkDirty(ObjectHistory* history);

  std::unordered_map<ObjectId, ObjectHistory> histories_;
  // Pointers into histories_' nodes, which never move while the map lives
  // (rehashing relinks nodes, it does not relocate them).
  std::vector<ObjectHistory*> dirty_;
  Wal wal_;
  size_t checkpoint_frontier_ = 0;
  VectorTimestamp gc_frontier_;
};

}  // namespace walter

#endif  // SRC_STORAGE_STORE_H_
