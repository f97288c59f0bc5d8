#include "src/storage/object_history.h"

#include "src/common/logging.h"

namespace walter {

void ObjectHistory::Append(const Version& version, const ObjectUpdate& update) {
  VersionedUpdate vu;
  vu.version = version;
  vu.kind = update.kind;
  vu.data = update.data;
  vu.elem = update.elem;
  entries_.push_back(std::move(vu));
}

std::optional<std::string> ObjectHistory::ReadRegular(const VectorTimestamp& vts) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (vts.Sees(it->version)) {
      WCHECK(it->kind == UpdateKind::kData, "cset op in regular read");
      return it->data;
    }
  }
  if (has_base_ && !base_is_cset_) {
    return base_data_;
  }
  return std::nullopt;
}

std::optional<std::pair<std::string, Version>> ObjectHistory::ReadRegularVersioned(
    const VectorTimestamp& vts) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (vts.Sees(it->version)) {
      WCHECK(it->kind == UpdateKind::kData, "cset op in regular read");
      return std::make_pair(it->data, it->version);
    }
  }
  if (has_base_ && !base_is_cset_) {
    return std::make_pair(base_data_, base_version_);
  }
  return std::nullopt;
}

std::optional<std::pair<std::string, Version>> ObjectHistory::LatestLocalVisible(
    const VectorTimestamp& vts, SiteId self) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->version.site == self && vts.Sees(it->version)) {
      return std::make_pair(it->data, it->version);
    }
  }
  return std::nullopt;
}

CountingSet ObjectHistory::ReadCsetExcluding(const VectorTimestamp& vts, SiteId site,
                                             uint64_t min_seqno) const {
  CountingSet s;
  if (has_base_ && base_is_cset_) {
    WCHECK(vts.Sees(base_version_), "cset remote read below GC-folded base");
    s.MergeAdd(base_cset_);
  }
  for (const auto& e : entries_) {
    if (!vts.Sees(e.version) || e.kind == UpdateKind::kData) {
      continue;
    }
    if (min_seqno != 0 && e.version.site == site && e.version.seqno >= min_seqno) {
      continue;  // the caller holds this op locally
    }
    s.Add(e.elem, e.kind == UpdateKind::kAdd ? 1 : -1);
  }
  return s;
}

CountingSet ObjectHistory::FoldLocalCsetOps(const VectorTimestamp& vts, SiteId self) const {
  CountingSet s;
  for (const auto& e : entries_) {
    if (e.version.site != self || !vts.Sees(e.version) || e.kind == UpdateKind::kData) {
      continue;
    }
    s.Add(e.elem, e.kind == UpdateKind::kAdd ? 1 : -1);
  }
  return s;
}

uint64_t ObjectHistory::MinLocalSeqno(SiteId self) const {
  uint64_t min_seqno = 0;
  for (const auto& e : entries_) {
    if (e.version.site == self && (min_seqno == 0 || e.version.seqno < min_seqno)) {
      min_seqno = e.version.seqno;
    }
  }
  return min_seqno;
}

CountingSet ObjectHistory::ReadCset(const VectorTimestamp& vts) const {
  CountingSet s;
  if (has_base_ && base_is_cset_) {
    // Fail-stop on a snapshot below the folded base: the base already merged
    // ops the snapshot cannot see, so any answer here would be wrong. The
    // snapshot-pin registry keeps live transactions above the GC frontier, and
    // the server rejects sub-frontier reads with kUnavailable before reaching
    // this point, so tripping this check means a pin was lost.
    WCHECK(vts.Sees(base_version_), "cset read below GC-folded base");
    s.MergeAdd(base_cset_);
  }
  for (const auto& e : entries_) {
    if (!vts.Sees(e.version)) {
      continue;
    }
    if (e.kind == UpdateKind::kAdd) {
      s.Add(e.elem, 1);
    } else if (e.kind == UpdateKind::kDel) {
      s.Remove(e.elem, 1);
    }
  }
  return s;
}

bool ObjectHistory::UnmodifiedSince(const VectorTimestamp& vts) const {
  // The folded base is a real write: a snapshot that predates it has been
  // modified since, even when GC left entries_ empty.
  if (has_base_ && !vts.Sees(base_version_)) {
    return false;
  }
  for (const auto& e : entries_) {
    if (!vts.Sees(e.version)) {
      return false;
    }
  }
  return true;
}

size_t ObjectHistory::GarbageCollect(const VectorTimestamp& stable) {
  auto keep = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    VersionedUpdate& e = *it;
    if (!stable.Sees(e.version)) {
      if (keep != it) {
        *keep = std::move(e);
      }
      ++keep;
      continue;
    }
    has_base_ = true;
    base_version_ = e.version;
    if (e.kind == UpdateKind::kData) {
      base_is_cset_ = false;
      base_data_ = std::move(e.data);
    } else {
      base_is_cset_ = true;
      if (e.kind == UpdateKind::kAdd) {
        base_cset_.Add(e.elem, 1);
      } else {
        base_cset_.Remove(e.elem, 1);
      }
    }
  }
  size_t folded = static_cast<size_t>(entries_.end() - keep);
  entries_.erase(keep, entries_.end());
  return folded;
}

size_t ObjectHistory::RemoveVersionsFrom(SiteId site, uint64_t after_seqno) {
  size_t before = entries_.size();
  std::erase_if(entries_, [&](const VersionedUpdate& e) {
    return e.version.site == site && e.version.seqno > after_seqno;
  });
  return before - entries_.size();
}

std::optional<Version> ObjectHistory::LatestVersion() const {
  if (!entries_.empty()) {
    return entries_.back().version;
  }
  if (has_base_) {
    return base_version_;
  }
  return std::nullopt;
}

void ObjectHistory::Serialize(ByteWriter* w) const {
  w->PutU8(has_base_ ? 1 : 0);
  if (has_base_) {
    w->PutVersion(base_version_);
    w->PutU8(base_is_cset_ ? 1 : 0);
    if (base_is_cset_) {
      base_cset_.Serialize(w);
    } else {
      w->PutString(base_data_);
    }
  }
  w->PutU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    w->PutVersion(e.version);
    w->PutU8(static_cast<uint8_t>(e.kind));
    if (e.kind == UpdateKind::kData) {
      w->PutString(e.data);
    } else {
      w->PutObjectId(e.elem);
    }
  }
}

ObjectHistory ObjectHistory::Deserialize(ByteReader* r) {
  ObjectHistory h;
  h.has_base_ = r->GetU8() != 0;
  if (h.has_base_) {
    h.base_version_ = r->GetVersion();
    h.base_is_cset_ = r->GetU8() != 0;
    if (h.base_is_cset_) {
      h.base_cset_ = CountingSet::Deserialize(r);
    } else {
      h.base_data_ = r->GetString();
    }
  }
  uint32_t n = r->GetU32();
  for (uint32_t i = 0; i < n && !r->failed(); ++i) {
    VersionedUpdate e;
    e.version = r->GetVersion();
    e.kind = static_cast<UpdateKind>(r->GetU8());
    if (e.kind == UpdateKind::kData) {
      e.data = r->GetString();
    } else {
      e.elem = r->GetObjectId();
    }
    h.entries_.push_back(std::move(e));
  }
  return h;
}

}  // namespace walter
