#include "src/storage/store.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "src/common/bytes.h"

namespace walter {

Store::Store(std::unique_ptr<WalDevice> wal_device) : wal_(std::move(wal_device)) {}

void Store::Apply(const TxRecord& record) {
  wal_.Append(record);
  ApplyToHistories(record);
}

void Store::ApplyToHistories(const TxRecord& record) {
  for (const auto& u : record.updates) {
    ObjectHistory& history = histories_[u.oid];
    history.Append(record.version, u);
    MarkDirty(&history);
  }
}

void Store::MarkDirty(ObjectHistory* history) {
  if (!history->dirty()) {
    history->set_dirty(true);
    dirty_.push_back(history);
  }
}

std::optional<std::string> Store::ReadRegular(const ObjectId& oid,
                                              const VectorTimestamp& vts) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return std::nullopt;
  }
  return it->second.ReadRegular(vts);
}

CountingSet Store::ReadCset(const ObjectId& oid, const VectorTimestamp& vts) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return CountingSet{};
  }
  return it->second.ReadCset(vts);
}

std::optional<std::pair<std::string, Version>> Store::ReadRegularVersioned(
    const ObjectId& oid, const VectorTimestamp& vts) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return std::nullopt;
  }
  return it->second.ReadRegularVersioned(vts);
}

std::optional<std::pair<std::string, Version>> Store::LatestLocalVisible(
    const ObjectId& oid, const VectorTimestamp& vts, SiteId self) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return std::nullopt;
  }
  return it->second.LatestLocalVisible(vts, self);
}

CountingSet Store::ReadCsetExcluding(const ObjectId& oid, const VectorTimestamp& vts,
                                     SiteId site, uint64_t min_seqno) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return CountingSet{};
  }
  return it->second.ReadCsetExcluding(vts, site, min_seqno);
}

CountingSet Store::FoldLocalCsetOps(const ObjectId& oid, const VectorTimestamp& vts,
                                    SiteId self) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return CountingSet{};
  }
  return it->second.FoldLocalCsetOps(vts, self);
}

uint64_t Store::MinLocalSeqno(const ObjectId& oid, SiteId self) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return 0;
  }
  return it->second.MinLocalSeqno(self);
}

bool Store::Unmodified(const ObjectId& oid, const VectorTimestamp& vts) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return true;
  }
  return it->second.UnmodifiedSince(vts);
}

std::optional<Version> Store::LatestVersion(const ObjectId& oid) const {
  auto it = histories_.find(oid);
  if (it == histories_.end()) {
    return std::nullopt;
  }
  return it->second.LatestVersion();
}

size_t Store::GarbageCollect(const VectorTimestamp& stable) {
  size_t folded = 0;
  std::erase_if(dirty_, [&](ObjectHistory* history) {
    folded += history->GarbageCollect(stable);
    if (history->entry_count() > 0) {
      return false;
    }
    history->set_dirty(false);
    return true;
  });
  gc_frontier_.MergeMax(stable);
  return folded;
}

size_t Store::TotalEntryCount() const {
  size_t n = 0;
  for (const ObjectHistory* history : dirty_) {
    n += history->entry_count();
  }
  return n;
}

size_t Store::CountEntriesCoveredBy(const VectorTimestamp& vts) const {
  size_t n = 0;
  for (const ObjectHistory* history : dirty_) {
    n += history->CountCoveredBy(vts);
  }
  return n;
}

size_t Store::RemoveVersionsFrom(SiteId site, uint64_t after_seqno) {
  size_t removed = 0;
  for (ObjectHistory* history : dirty_) {
    removed += history->RemoveVersionsFrom(site, after_seqno);
  }
  return removed;
}

bool Store::DirtyListConsistent() const {
  std::unordered_set<const ObjectHistory*> flagged;
  for (const auto& [oid, history] : histories_) {
    if (history.entry_count() > 0 && !history.dirty()) {
      return false;
    }
    if (history.dirty()) {
      flagged.insert(&history);
    }
  }
  // Each list member must be a flagged node of this store, listed once.
  for (const ObjectHistory* history : dirty_) {
    if (flagged.erase(history) == 0) {
      return false;
    }
  }
  return flagged.empty();
}

std::string Store::SerializeCheckpoint() const {
  ByteWriter w;
  w.PutU64(wal_.base() + wal_.size());  // WAL frontier covered by this checkpoint
  w.PutVts(gc_frontier_);  // histories below this are folded; restores need it
  // Sort oids for deterministic checkpoint bytes.
  std::vector<const std::pair<const ObjectId, ObjectHistory>*> items;
  items.reserve(histories_.size());
  for (const auto& kv : histories_) {
    items.push_back(&kv);
  }
  std::sort(items.begin(), items.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w.PutU64(items.size());
  for (const auto* kv : items) {
    w.PutObjectId(kv->first);
    kv->second.Serialize(&w);
  }
  return w.Take();
}

void Store::RestoreCheckpoint(std::string_view bytes) {
  histories_.clear();
  dirty_.clear();
  if (bytes.empty()) {
    checkpoint_frontier_ = 0;
    gc_frontier_ = VectorTimestamp();
    return;
  }
  ByteReader r(bytes);
  checkpoint_frontier_ = r.GetU64();
  gc_frontier_ = r.GetVts();
  uint64_t n = r.GetU64();
  for (uint64_t i = 0; i < n && !r.failed(); ++i) {
    ObjectId oid = r.GetObjectId();
    ObjectHistory& history = histories_[oid];
    history = ObjectHistory::Deserialize(&r);
    if (history.entry_count() > 0) {
      MarkDirty(&history);
    }
  }
}

Store::RecoveryResult Store::Recover(std::string_view checkpoint_bytes,
                                     std::string_view wal_bytes, size_t wal_base_offset) {
  RecoveryResult result;
  RestoreCheckpoint(checkpoint_bytes);
  // Replay only the WAL suffix past the checkpoint frontier.
  size_t skip = 0;
  if (checkpoint_frontier_ > wal_base_offset) {
    skip = checkpoint_frontier_ - wal_base_offset;
  }
  if (skip >= wal_bytes.size()) {
    return result;
  }
  Wal::ReplayResult replay = Wal::Replay(wal_bytes.substr(skip));
  result.torn_tail = replay.torn_tail;
  for (const auto& rec : replay.records) {
    ApplyToHistories(rec);
    ++result.records_replayed;
  }
  return result;
}

}  // namespace walter
