#include "src/core/lock_table.h"

#include <algorithm>

namespace walter {

void LockTable::Lock(TxId tid, const std::vector<ObjectId>& oids, SiteId coordinator,
                     const std::vector<ObjectId>& read_oids, SimTime now) {
  Owner& owner = owners_[tid];
  owner.coordinator = coordinator;
  owner.acquired = now;
  owner.read_oids = read_oids;  // sorted; only consulted at decision time
  for (const auto& oid : oids) {
    locks_[oid] = tid;
    owner.oids.push_back(oid);
  }
}

std::optional<size_t> LockTable::Release(TxId tid) {
  auto it = owners_.find(tid);
  if (it == owners_.end()) {
    return std::nullopt;
  }
  for (const auto& oid : it->second.oids) {
    auto lock = locks_.find(oid);
    if (lock != locks_.end() && lock->second == tid) {
      locks_.erase(lock);
    }
    if (!waitlist_.empty()) {
      auto wl = waitlist_.find(oid);
      if (wl != waitlist_.end()) {
        wakes_.insert(wakes_.end(), wl->second.begin(), wl->second.end());
      }
    }
  }
  size_t freed = it->second.oids.size();
  owners_.erase(it);
  return freed;
}

LockTable::Check LockTable::Classify(TxId tid, const std::vector<ObjectId>& oids,
                                     const VectorTimestamp& vts, bool clock_commit,
                                     const Store& store,
                                     const std::function<bool(ContainerId)>& lease) const {
  Check check;
  if (Holds(tid)) {
    return check;  // duplicate prepare: re-affirm the held vote
  }
  for (const auto& oid : oids) {
    if (lease && !lease(oid.container)) {
      check.verdict = Verdict::kUnavailable;
      return check;
    }
    // A modified history or a watermark is a committed/decided version this
    // snapshot does not cover: a permanent conflict, waiting cannot help.
    bool conflict = !store.Unmodified(oid, vts);
    if (!conflict && WatermarkBlocksWrite(oid)) {
      auto unseen = [&](const Version& v) {
        return v.site >= vts.num_sites() || vts.at(v.site) < v.seqno;
      };
      if (clock_commit && !AnyWatermark(oid, unseen)) {
        // Clock-commit relaxation: every decided-but-unapplied version on oid
        // is already Seen by this snapshot (a dependent back-to-back commit).
        // Safe, because remote apply is gated on got_vts.Covers(start_vts):
        // the writer's record applies only after its watermarked dependency.
        ++check.clock_bypasses;
      } else {
        conflict = true;
      }
    }
    if (conflict) {
      check.verdict = Verdict::kConflict;
      check.conflict = oid;
      return check;
    }
    auto lock = locks_.find(oid);
    if (lock != locks_.end()) {
      check.blockers.push_back(lock->second);
    }
  }
  if (!check.blockers.empty()) {
    check.verdict = Verdict::kWait;
  }
  return check;
}

std::vector<TxId> LockTable::WoundCandidates(
    TxId tid, uint64_t priority, const std::vector<TxId>& blockers,
    const std::function<std::optional<uint64_t>(TxId)>& priority_of) {
  std::vector<TxId> victims;
  for (TxId holder : blockers) {
    if (std::find(victims.begin(), victims.end(), holder) != victims.end()) {
      continue;
    }
    std::optional<uint64_t> holder_priority = priority_of(holder);
    if (holder_priority &&
        std::make_pair(priority, tid) < std::make_pair(*holder_priority, holder)) {
      victims.push_back(holder);
    }
  }
  return victims;
}

LockTable::Waiter& LockTable::Park(TxId tid, uint64_t priority, std::vector<ObjectId> oids,
                                   std::function<void(bool)> resume) {
  Waiter& w = waiters_[tid];
  w.priority = priority;
  w.oids = std::move(oids);
  w.resume = std::move(resume);
  for (const auto& oid : w.oids) {
    auto lock = locks_.find(oid);
    if (lock != locks_.end() && lock->second != tid) {
      waitlist_[oid].push_back(tid);
    }
  }
  return w;
}

LockTable::Waiter* LockTable::waiter(TxId tid) {
  auto it = waiters_.find(tid);
  return it == waiters_.end() ? nullptr : &it->second;
}

std::optional<LockTable::Waiter> LockTable::Unpark(TxId tid) {
  auto it = waiters_.find(tid);
  if (it == waiters_.end()) {
    return std::nullopt;
  }
  for (const auto& oid : it->second.oids) {
    auto wl = waitlist_.find(oid);
    if (wl != waitlist_.end()) {
      std::erase(wl->second, tid);
      if (wl->second.empty()) {
        waitlist_.erase(wl);
      }
    }
  }
  Waiter w = std::move(it->second);
  waiters_.erase(it);
  return w;
}

std::vector<TxId> LockTable::TakeWakes() {
  // Oldest first, each once: the deterministic grant order that matches
  // wound-wait's age ordering.
  std::vector<std::pair<uint64_t, TxId>> order;
  for (TxId tid : wakes_) {
    if (auto it = waiters_.find(tid); it != waiters_.end()) {
      order.emplace_back(it->second.priority, tid);
    }
  }
  wakes_.clear();
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  std::vector<TxId> tids;
  for (const auto& [priority, tid] : order) {
    tids.push_back(tid);
  }
  return tids;
}

void LockTable::AddWatermark(const ObjectId& oid, Version version, TxId tid, SimTime now) {
  watermarks_[oid].emplace_back(version, tid);
  auto [it, fresh] = watermark_txs_.try_emplace(tid);
  if (fresh) {
    it->second.installed = now;
  }
  it->second.version = version;
  it->second.oids.push_back(oid);
}

size_t LockTable::WatermarkLocked(TxId tid, Version version, SimTime now) {
  auto it = owners_.find(tid);
  if (it == owners_.end()) {
    return 0;
  }
  const Owner& owner = it->second;
  size_t set = 0;
  for (const auto& oid : owner.oids) {
    if (!std::binary_search(owner.read_oids.begin(), owner.read_oids.end(), oid)) {
      AddWatermark(oid, version, tid, now);
      ++set;
    }
  }
  return set;
}

void LockTable::EraseWatermarkTx(std::unordered_map<TxId, WatermarkTx>::iterator it) {
  for (const ObjectId& oid : it->second.oids) {
    auto per_oid = watermarks_.find(oid);
    if (per_oid == watermarks_.end()) {
      continue;
    }
    std::erase_if(per_oid->second,
                  [tid = it->first](const auto& wm) { return wm.second == tid; });
    if (per_oid->second.empty()) {
      watermarks_.erase(per_oid);
    }
  }
  watermark_txs_.erase(it);
}

size_t LockTable::DropWatermarksIf(const std::function<bool(const Version&)>& match) {
  size_t dropped = 0;
  for (auto it = watermark_txs_.begin(); it != watermark_txs_.end();) {
    auto cur = it++;
    if (match(cur->second.version)) {
      dropped += cur->second.oids.size();
      EraseWatermarkTx(cur);
    }
  }
  return dropped;
}

size_t LockTable::ClearWatermarks(SiteId origin, uint64_t through) {
  return DropWatermarksIf(
      [&](const Version& v) { return v.site == origin && v.seqno <= through; });
}

size_t LockTable::DropWatermarksFrom(SiteId origin, uint64_t after_seqno) {
  return DropWatermarksIf(
      [&](const Version& v) { return v.site == origin && v.seqno > after_seqno; });
}

bool LockTable::DropWatermarksOfTx(TxId tid) {
  auto it = watermark_txs_.find(tid);
  if (it == watermark_txs_.end()) {
    return false;
  }
  EraseWatermarkTx(it);
  return true;
}

bool LockTable::AnyWatermark(const ObjectId& oid,
                             const std::function<bool(const Version&)>& pred) const {
  auto it = watermarks_.find(oid);
  return it != watermarks_.end() &&
         std::any_of(it->second.begin(), it->second.end(),
                     [&](const auto& wm) { return pred(wm.first); });
}

bool LockTable::WatermarkBlocksRead(const ObjectId& oid, const VectorTimestamp& vts) const {
  // The snapshot includes the decided version, but it has not committed here yet.
  return !watermarks_.empty() && AnyWatermark(oid, [&](const Version& v) {
    return v.site < vts.num_sites() && vts.at(v.site) >= v.seqno;
  });
}

std::optional<uint64_t> LockTable::MinWatermarkSeqno(SiteId origin) const {
  std::optional<uint64_t> min;
  for (const auto& [tid, wtx] : watermark_txs_) {
    if (wtx.version.site == origin && (!min || wtx.version.seqno < *min)) {
      min = wtx.version.seqno;
    }
  }
  return min;
}

size_t LockTable::watermark_count() const {
  size_t n = 0;
  for (const auto& [oid, wms] : watermarks_) {
    n += wms.size();
  }
  return n;
}

std::vector<LockTable::StaleQuery> LockTable::TakeStale(SimTime now, SimDuration stale_after,
                                                        SiteId self) {
  std::vector<StaleQuery> stale;
  for (auto& [tid, owner] : owners_) {
    if (owner.coordinator != self && !owner.query_in_flight &&
        now - owner.acquired >= stale_after) {
      owner.query_in_flight = true;
      stale.push_back({tid, owner.coordinator, false});
    }
  }
  for (auto& [tid, wtx] : watermark_txs_) {
    if (!wtx.query_in_flight && now - wtx.installed >= stale_after) {
      wtx.query_in_flight = true;
      stale.push_back({tid, wtx.version.site, true});
    }
  }
  return stale;
}

bool LockTable::EndQuery(const StaleQuery& q) {
  bool* in_flight = nullptr;
  if (auto wm = watermark_txs_.find(q.tid); q.watermark && wm != watermark_txs_.end()) {
    in_flight = &wm->second.query_in_flight;
  } else if (auto lock = owners_.find(q.tid); !q.watermark && lock != owners_.end()) {
    in_flight = &lock->second.query_in_flight;
  }
  if (in_flight != nullptr) {
    *in_flight = false;
  }
  return in_flight != nullptr;
}

}  // namespace walter
