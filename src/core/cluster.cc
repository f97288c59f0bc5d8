#include "src/core/cluster.h"

#include <algorithm>
#include <utility>

namespace walter {

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      shard_map_(options_.servers_per_site.empty() ? ShardMap(options_.num_sites)
                                                   : ShardMap(options_.servers_per_site)),
      sim_(options_.seed) {
  Topology topo = options_.topology ? *options_.topology
                                    : (options_.num_sites <= 4
                                           ? Topology::Ec2Subset(options_.num_sites)
                                           : Topology::Uniform(options_.num_sites, Millis(100),
                                                               Millis(0.5)));
  if (!shard_map_.trivial()) {
    // One network node per server; co-located shards talk at the site's
    // intra-site RTT and bandwidth.
    topo = Topology::ShardExpand(topo, shard_map_.shards());
  }
  net_ = std::make_unique<Network>(&sim_, std::move(topo));
  if (options_.runtime.workers > 0) {
    ThreadedRuntime::Options ro;
    ro.workers = options_.runtime.workers;
    ro.time_scale = options_.runtime.time_scale;
    ro.seed = options_.seed;
    runtime_ = std::make_unique<ThreadedRuntime>(ro, &sim_);
    // Deliveries route by the executor that owns the destination: servers by
    // the round-robin assignment below, clients by their AddClient-time
    // executor. Both tables are frozen before StartThreads, so the resolver
    // reads them lock-free from any sender.
    net_->EnableThreadedDispatch([this](const Address& to) -> Executor* {
      if (to.port == kWalterPort) {
        return to.site < server_execs_.size() ? server_execs_[to.site] : nullptr;
      }
      auto it = client_execs_by_addr_.find((static_cast<uint64_t>(to.site) << 32) | to.port);
      return it != client_execs_by_addr_.end() ? it->second : nullptr;
    });
  }
  for (SiteId s = 0; s < options_.num_sites; ++s) {
    directories_.push_back(std::make_unique<ContainerDirectory>(options_.num_sites));
    directories_.back()->AttachShardMap(&shard_map_);
    pin_registries_.push_back(std::make_unique<SnapshotPinRegistry>());
  }
  // One WalterServer per shard (the "virtual server" model): each is a full
  // Walter server whose `site` is its global server id and whose vector-clock
  // dimension is the total server count. The directory translation above makes
  // every container's replica set exactly one shard per site, so commit,
  // propagation, durability-quorum and recovery machinery are unchanged —
  // cross-shard transactions inside one site simply become slow commits whose
  // participants happen to be a LAN hop apart.
  for (SiteId v = 0; v < static_cast<SiteId>(shard_map_.num_servers()); ++v) {
    WalterServer::Options so = options_.server;
    so.site = v;
    so.num_sites = shard_map_.num_servers();
    so.sharded = !shard_map_.trivial();
    // Which geographic site each virtual server lives in: the co-sited test
    // behind sequential lock ordering and fast remote-commit visibility.
    so.geo_site_of.resize(shard_map_.num_servers());
    for (SiteId u = 0; u < static_cast<SiteId>(shard_map_.num_servers()); ++u) {
      so.geo_site_of[u] = shard_map_.SiteOf(u);
    }
    if (!so.wal_dir.empty()) {
      // Each server gets its own segment directory under the configured root.
      so.wal_dir += "/site-" + std::to_string(v);
    }
    // Threaded mode: each server's timers live on its owner executor's
    // simulator, so every handler it runs stays on one thread. Worker
    // threads are not running yet — construction-time scheduling (gossip
    // kickoff) lands in the owner's queue and fires after StartThreads.
    Executor* owner = runtime_ != nullptr
                          ? &runtime_->worker(v % runtime_->workers())
                          : nullptr;
    server_execs_.push_back(owner);
    Simulator* ssim = owner != nullptr ? &owner->sim() : &sim_;
    servers_.push_back(std::make_unique<WalterServer>(
        ssim, net_.get(), so, directories_[shard_map_.SiteOf(v)].get()));
    WirePinFloor(v);
  }
  // The GC coordinator follows the gossip gating (RunUntilIdle-based tests
  // disable periodic work by setting gossip_interval = 0), and stands down in
  // threaded mode, where its frontier probes would read server state across
  // executors.
  if (runtime_ == nullptr && shard_map_.num_servers() > 1 &&
      options_.server.gossip_interval > 0 && options_.gc.enabled) {
    gc_ = std::make_unique<GcCoordinator>(this, options_.gc, options_.seed);
    gc_->Start();
  }
}

void Cluster::WirePinFloor(SiteId s) {
  servers_[s]->SetPinFloorProvider(
      [reg = pin_registries_[shard_map_.SiteOf(s)].get()]() { return reg->MinPin(); });
}

void Cluster::UpsertContainerEverywhere(const ContainerInfo& info) {
  for (auto& dir : directories_) {
    dir->Upsert(info);
  }
}

WalterClient* Cluster::AddClient(SiteId site) { return AddClient(site, options_.client); }

WalterClient* Cluster::AddClient(SiteId site, WalterClient::Options options) {
  WCHECK(runtime_ == nullptr || !runtime_->started(),
         "threaded mode: add clients before StartThreads");
  // Clients live on their site's first shard node; under sharding they route
  // each container to its owning shard instead of the node they sit on.
  SiteId node = shard_map_.ServerAt(site, 0);
  uint32_t port = next_client_port_++;
  // Threaded mode: clients round-robin across the worker executors, so client
  // work (serialization, retries, callbacks) parallelizes like server work.
  Executor* owner = runtime_ != nullptr
                        ? &runtime_->worker(clients_.size() % runtime_->workers())
                        : nullptr;
  clients_.push_back(std::make_unique<WalterClient>(
      net_.get(), node, port, options, owner != nullptr ? &owner->sim() : nullptr));
  if (owner != nullptr) {
    client_execs_[clients_.back().get()] = owner;
    client_execs_by_addr_[(static_cast<uint64_t>(node) << 32) | port] = owner;
  }
  if (!shard_map_.trivial()) {
    clients_.back()->SetRouter(
        [map = &shard_map_, site](ContainerId c) { return map->OwnerAt(c, site); });
  }
  // Every transaction the client opens pins its snapshot in the site registry,
  // at a floor read from the (current) local server's CommittedVTS — under
  // sharding the entrywise min across the site's shards, a lower bound on any
  // snapshot a shard could assign the transaction. Threaded mode pins at the
  // zero floor instead: reading other executors' CommittedVTS would race, and
  // with the GC coordinator stood down the floor's only job is to exist.
  if (runtime_ != nullptr) {
    clients_.back()->AttachPins(
        pin_registries_[site].get(),
        [n = shard_map_.num_servers()]() { return VectorTimestamp(n); });
  } else {
    clients_.back()->AttachPins(pin_registries_[site].get(), [this, site]() {
      VectorTimestamp floor = servers_[shard_map_.ServerAt(site, 0)]->committed_vts();
      for (size_t k = 1; k < shard_map_.shards_at(site); ++k) {
        const VectorTimestamp& v = servers_[shard_map_.ServerAt(site, k)]->committed_vts();
        for (SiteId i = 0; i < static_cast<SiteId>(floor.num_sites()); ++i) {
          floor.set(i, std::min(floor.at(i), v.at(i)));
        }
      }
      return floor;
    });
  }
  return clients_.back().get();
}

WalterServer& Cluster::ReplaceServer(SiteId s) {
  // Threaded mode: the whole replacement runs on the owner executor — the old
  // server's timers are canceled and the new one's scheduled on that
  // executor's simulator, and the caller blocks until the swap is done, so it
  // never observes a half-replaced server.
  RunOnServer(s, [this, s]() {
    // TakeFaultyImage == TakeDurableImage unless the test armed DiskFaults on
    // this server's disk; armed faults are consumed here, at the moment the
    // old medium is read back, which is where real torn writes and bit rot
    // surface.
    WalterServer::DurableImage image = servers_[s]->TakeFaultyImage();
    WalterServer::Options so = servers_[s]->options();
    Simulator* ssim = server_execs_.empty() || server_execs_[s] == nullptr
                          ? &sim_
                          : &server_execs_[s]->sim();
    servers_[s].reset();  // frees the endpoint address
    servers_[s] = std::make_unique<WalterServer>(ssim, net_.get(), so,
                                                 directories_[shard_map_.SiteOf(s)].get());
    servers_[s]->Restore(image);
    WirePinFloor(s);  // the registry outlives the server it was wired to
    if (observer_) {
      servers_[s]->SetCommitObserver(observer_);
    }
  });
  return *servers_[s];
}

Cluster::~Cluster() {
  if (runtime_ != nullptr) {
    runtime_->Stop();
  }
}

void Cluster::StartThreads() {
  WCHECK(runtime_ != nullptr, "StartThreads on a sim-mode cluster");
  for (auto& dir : directories_) {
    dir->Freeze();
  }
  runtime_->Start();
}

void Cluster::StopThreads() {
  WCHECK(runtime_ != nullptr, "StopThreads on a sim-mode cluster");
  runtime_->Stop();
}

void Cluster::RunOnServer(SiteId s, const std::function<void()>& fn) {
  if (runtime_ != nullptr) {
    server_execs_[s]->PostSync(fn);
  } else {
    fn();
  }
}

VectorTimestamp Cluster::SnapshotCommittedVts(SiteId s) {
  VectorTimestamp vts;
  RunOnServer(s, [this, s, &vts]() { vts = servers_[s]->committed_vts(); });
  return vts;
}

void Cluster::ObserveCommits(WalterServer::CommitObserver observer) {
  observer_ = std::move(observer);
  for (auto& server : servers_) {
    server->SetCommitObserver(observer_);
  }
}

void Cluster::ExportMetrics(MetricsRegistry& metrics) const {
  for (const auto& server : servers_) {
    server->ExportMetrics(metrics);
  }
  for (SiteId s = 0; s < pin_registries_.size(); ++s) {
    metrics.Set("gc.active_pins", s, static_cast<double>(pin_registries_[s]->active()));
  }
  if (gc_) {
    gc_->ExportMetrics(metrics);
  }
  net_->ExportMetrics(metrics);
  uint64_t retries = 0;
  uint64_t overload_retries = 0;
  uint64_t overload_sheds = 0;
  for (const auto& client : clients_) {
    retries += client->retries_sent();
    overload_retries += client->overload_retries_sent();
    overload_sheds += client->overload_sheds();
  }
  metrics.Set("client.retries_sent", kNoSite, static_cast<double>(retries));
  metrics.Set("client.overload_retries", kNoSite, static_cast<double>(overload_retries));
  metrics.Set("client.overload_sheds", kNoSite, static_cast<double>(overload_sheds));
}

}  // namespace walter
