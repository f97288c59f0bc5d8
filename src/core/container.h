// Containers (Section 4.1): logical groups of objects sharing a preferred site
// and a replica set. The preferred site is where writes to the container's
// objects fast-commit; the replica set says which sites store the data.
//
// ContainerDirectory is the per-server cache of container metadata (Section
// 5.1); it is populated from the configuration service and consulted on every
// access. An unknown container defaults to "replicated everywhere, preferred
// site = its container id modulo the site count", which is the layout the
// microbenchmarks use.
#ifndef SRC_CORE_CONTAINER_H_
#define SRC_CORE_CONTAINER_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/types.h"
#include "src/config/shard_map.h"

namespace walter {

struct ContainerInfo {
  ContainerId id = 0;
  SiteId preferred_site = 0;
  // Sites replicating the container's objects. Empty = replicated at all sites.
  std::vector<SiteId> replicas;

  bool ReplicatedAt(SiteId s) const {
    if (replicas.empty()) {
      return true;
    }
    for (SiteId r : replicas) {
      if (r == s) {
        return true;
      }
    }
    return false;
  }
};

class ContainerDirectory {
 public:
  explicit ContainerDirectory(size_t num_sites) : num_sites_(num_sites) {}

  void Upsert(ContainerInfo info) {
    WCHECK(!frozen_, "container directory mutated while the threaded runtime is running");
    containers_[info.id] = std::move(info);
  }
  void Erase(ContainerId id) {
    WCHECK(!frozen_, "container directory mutated while the threaded runtime is running");
    containers_.erase(id);
  }

  // Threaded runtime contract: the directory is shared by co-located shards
  // and read lock-free from their executors, so it must not change while
  // worker threads run. Cluster freezes it at StartThreads.
  void Freeze() { frozen_ = true; }

  // Shard-aware mode: container metadata (and the config service protocol)
  // stays in logical site ids; Get() translates the resolved info into server
  // ids through the map — the preferred site becomes the owning shard there,
  // and the replica set becomes the one owning shard per replica site. With a
  // trivial map (one server per site) translation is the identity.
  void AttachShardMap(const ShardMap* map) { shard_map_ = map; }

  // Metadata for a container; falls back to the default layout when unknown.
  // A site remap (failed-site recovery) rewrites the preferred site.
  ContainerInfo Get(ContainerId id) const {
    const ContainerInfo* known = Find(id);
    ContainerInfo info;
    if (known != nullptr) {
      info = *known;
    } else {
      info.id = id;
    }
    info.preferred_site = LogicalPreferredSite(id, known);
    if (sharded()) {
      Translate(&info);
    }
    return info;
  }

  // Redirects every container preferred at `from` to `to` — the aggressive
  // site-recovery reassignment of Section 5.7. Cleared on re-integration.
  void RemapSite(SiteId from, SiteId to) {
    WCHECK(!frozen_, "container directory mutated while the threaded runtime is running");
    remap_[from] = to;
  }
  void ClearRemap(SiteId from) {
    WCHECK(!frozen_, "container directory mutated while the threaded runtime is running");
    remap_.erase(from);
  }

  // The preferred site of an object: site(oid) in Figures 11-12. Equals
  // Get(oid.container).preferred_site, answered without building the info
  // (this and ReplicatedAt sit on the remote-apply and commit paths).
  SiteId PreferredSite(const ObjectId& oid) const {
    ContainerId id = oid.container;
    SiteId preferred = LogicalPreferredSite(id, Find(id));
    return sharded() ? shard_map_->OwnerAt(id, preferred) : preferred;
  }

  // Equals Get(oid.container).ReplicatedAt(s), without building the info.
  // Sharded, server `s` replicates the container iff its site is in the
  // logical replica set and it is the container's owning shard there.
  bool ReplicatedAt(const ObjectId& oid, SiteId s) const {
    ContainerId id = oid.container;
    const ContainerInfo* known = Find(id);
    if (!sharded()) {
      return known == nullptr || known->ReplicatedAt(s);
    }
    if (s >= shard_map_->num_servers()) {
      return false;
    }
    SiteId site = shard_map_->SiteOf(s);
    if (known != nullptr && !known->ReplicatedAt(site)) {
      return false;
    }
    return shard_map_->OwnerAt(id, site) == s;
  }

  size_t num_sites() const { return num_sites_; }

 private:
  bool sharded() const { return shard_map_ != nullptr && !shard_map_->trivial(); }

  const ContainerInfo* Find(ContainerId id) const {
    auto it = containers_.find(id);
    return it == containers_.end() ? nullptr : &it->second;
  }

  // Preferred site in logical site ids, with any site remap applied; an
  // unknown container (`known` null) defaults to its id modulo the site count.
  SiteId LogicalPreferredSite(ContainerId id, const ContainerInfo* known) const {
    SiteId preferred =
        known != nullptr ? known->preferred_site : static_cast<SiteId>(id % num_sites_);
    auto remap = remap_.find(preferred);
    return remap != remap_.end() ? remap->second : preferred;
  }

  void Translate(ContainerInfo* info) const {
    info->preferred_site = shard_map_->OwnerAt(info->id, info->preferred_site);
    if (info->replicas.empty()) {
      // "All sites" must become an explicit server list: only the owning
      // shard at each site stores the container, not every co-located server.
      info->replicas.reserve(shard_map_->num_sites());
      for (SiteId s = 0; s < static_cast<SiteId>(shard_map_->num_sites()); ++s) {
        info->replicas.push_back(shard_map_->OwnerAt(info->id, s));
      }
    } else {
      for (SiteId& r : info->replicas) {
        r = shard_map_->OwnerAt(info->id, r);
      }
    }
  }

  size_t num_sites_;
  std::unordered_map<ContainerId, ContainerInfo> containers_;
  std::unordered_map<SiteId, SiteId> remap_;
  const ShardMap* shard_map_ = nullptr;
  bool frozen_ = false;
};

}  // namespace walter

#endif  // SRC_CORE_CONTAINER_H_
