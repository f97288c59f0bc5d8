// Per-object multi-version update history (the History_i[oid] of Figure 9).
//
// Entries are appended in the order transactions commit at this site (local
// fast/slow commits and remote propagations interleave). A read at snapshot
// startVTS returns, for a regular object, the most recently applied update
// whose version is visible to startVTS; for a cset object, the fold of all
// visible ADD/DEL operations. Because PSI orders write-write-conflicting
// transactions identically at every site (Property 3), "latest visible in
// apply order" is well-defined.
//
// Garbage collection folds entries below a stability frontier (a vector
// timestamp no active or future snapshot can be below) into a compact base:
// the latest data value for regular objects, a base CountingSet for csets.
#ifndef SRC_STORAGE_OBJECT_HISTORY_H_
#define SRC_STORAGE_OBJECT_HISTORY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/common/update.h"
#include "src/crdt/cset.h"

namespace walter {

struct VersionedUpdate {
  Version version;
  UpdateKind kind = UpdateKind::kData;
  std::string data;  // kData
  ObjectId elem;     // kAdd / kDel
};

class ObjectHistory {
 public:
  // Appends an update committed with `version`.
  void Append(const Version& version, const ObjectUpdate& update);

  // Regular object read: latest applied update visible to vts, or nullopt if
  // the object has no visible version (reads as nil).
  std::optional<std::string> ReadRegular(const VectorTimestamp& vts) const;

  // Like ReadRegular but also returns the version of the value, for merging a
  // remote read with the caller's local history (Section 4.3 / Figure 10).
  std::optional<std::pair<std::string, Version>> ReadRegularVersioned(
      const VectorTimestamp& vts) const;

  // Cset read: fold of the base plus all visible ops. Callers must ensure
  // vts covers the GC stability frontier this history was collected to.
  CountingSet ReadCset(const VectorTimestamp& vts) const;

  // Remote-read merge support for objects not replicated at the caller. The
  // caller (site `self`) holds its own recent unreplicated updates; the callee
  // excludes its copies of those; the caller folds only its own.
  //
  // Latest visible update among entries originated by `self` (entries only —
  // the compacted base never holds unreplicated local writes).
  std::optional<std::pair<std::string, Version>> LatestLocalVisible(const VectorTimestamp& vts,
                                                                    SiteId self) const;
  // Visible cset ops folded, excluding ops with version <site, seqno>=min..>.
  CountingSet ReadCsetExcluding(const VectorTimestamp& vts, SiteId site,
                                uint64_t min_seqno) const;
  // Visible cset ops originated by `self`, entries only.
  CountingSet FoldLocalCsetOps(const VectorTimestamp& vts, SiteId self) const;
  // Smallest seqno among entries originated by `self`; 0 if none.
  uint64_t MinLocalSeqno(SiteId self) const;

  // True if every version of this object in the history is visible to vts —
  // the unmodified(oid, VTS) conflict check of Figures 11-12.
  bool UnmodifiedSince(const VectorTimestamp& vts) const;

  // Folds entries visible to `stable` into the base, compacting the rest in
  // place (apply order kept). Returns entries freed.
  size_t GarbageCollect(const VectorTimestamp& stable);

  // Removes entries with version <site, seqno> where seqno > after_seqno —
  // aggressive site-failure recovery discards non-surviving transactions of a
  // failed site (Section 5.7). Returns entries removed.
  size_t RemoveVersionsFrom(SiteId site, uint64_t after_seqno);

  // Latest version applied, regardless of snapshot (for diagnostics/recovery).
  std::optional<Version> LatestVersion() const;

  size_t entry_count() const { return entries_.size(); }
  const std::vector<VersionedUpdate>& entries() const { return entries_; }

  // Entries visible to `vts` that GC has not folded yet (drain diagnostics).
  size_t CountCoveredBy(const VectorTimestamp& vts) const {
    size_t n = 0;
    for (const auto& e : entries_) {
      if (vts.Sees(e.version)) {
        ++n;
      }
    }
    return n;
  }

  // Checkpoint support.
  void Serialize(ByteWriter* w) const;
  static ObjectHistory Deserialize(ByteReader* r);

  // Owner bookkeeping, not history state (never serialized): set while the
  // history is on its Store's dirty list of histories GC still has to visit.
  bool dirty() const { return dirty_; }
  void set_dirty(bool dirty) { dirty_ = dirty; }

 private:
  // Compacted prefix.
  bool has_base_ = false;
  Version base_version_;          // version of the latest folded update
  std::string base_data_;         // regular objects
  CountingSet base_cset_;         // cset objects
  bool base_is_cset_ = false;

  std::vector<VersionedUpdate> entries_;  // live suffix, in apply order
  bool dirty_ = false;
};

}  // namespace walter

#endif  // SRC_STORAGE_OBJECT_HISTORY_H_
