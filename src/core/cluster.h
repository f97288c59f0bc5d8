// Cluster: assembles a complete simulated Walter deployment — simulator,
// network with a topology, one WalterServer per site, a container directory,
// and clients. This is the entry point examples, tests and benchmarks use.
#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/config/shard_map.h"
#include "src/core/client.h"
#include "src/core/container.h"
#include "src/core/gc_coordinator.h"
#include "src/core/server.h"
#include "src/core/snapshot_pins.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/runtime/executor.h"
#include "src/sim/simulator.h"

namespace walter {

struct ClusterOptions {
  size_t num_sites = 4;
  // Intra-site sharding: co-located servers per site (empty = 1 everywhere,
  // the paper's one-server-per-site model). When any entry exceeds 1 the
  // cluster runs in sharded mode: one WalterServer, one network node and one
  // CPU/disk Resource per shard, containers hashed to shards by the shard
  // map, and clients routing per-container. Must be empty or num_sites long.
  std::vector<size_t> servers_per_site;
  uint64_t seed = 1;
  // Per-server options; site/num_sites are filled in per server.
  WalterServer::Options server;
  // Default RPC robustness options for clients created via AddClient.
  WalterClient::Options client;
  // Network topology; by default the paper's EC2 sites (truncated to num_sites).
  std::optional<Topology> topology;
  // Stability-frontier GC/checkpointing. Active (like gossip) only for
  // multi-site clusters with a nonzero gossip_interval — tests that rely on
  // RunUntilIdle quiescence disable both together.
  GcOptions gc;
  // Threaded runtime (the wall-clock side of the runtime seam). workers = 0
  // (default) keeps everything on the shared deterministic simulator —
  // byte-identical to the pre-seam behavior. workers > 0 gives each server a
  // worker executor (round-robin), puts clients on worker executors too, and
  // switches the network to mailbox dispatch; drive it with StartThreads /
  // PumpControl* / StopThreads. Threaded mode runs the GC coordinator stood
  // down (its frontier probes assume simulator atomicity) and pins snapshots
  // at the zero floor, which is safe (GC never folds) just conservative.
  struct RuntimeOptions {
    size_t workers = 0;
    double time_scale = 1.0;  // virtual microseconds per real microsecond
  };
  RuntimeOptions runtime;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  // Stops worker threads (threaded mode) before members are torn down.
  ~Cluster();

  // Logical (geographic) sites. Equal to num_servers() unless sharded.
  size_t num_sites() const { return directories_.size(); }
  // Total servers across all sites; server ids index them densely, site 0's
  // shards first. With one server per site, server ids coincide with site ids.
  size_t num_servers() const { return servers_.size(); }
  const ShardMap& shard_map() const { return shard_map_; }
  SiteId site_of(SiteId server) const { return shard_map_.SiteOf(server); }
  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  // Each site caches container metadata independently (Section 5.1); the
  // site's co-located shards share its directory.
  ContainerDirectory& directory(SiteId s) { return *directories_[s]; }
  // By global server id (== site id when unsharded).
  WalterServer& server(SiteId s) { return *servers_[s]; }
  // Shard `shard` of site `site`.
  WalterServer& server_at(SiteId site, size_t shard) {
    return *servers_[shard_map_.ServerAt(site, shard)];
  }

  // Administrator convenience: installs container metadata at every site at
  // once (tests that need divergence write per-site directories directly).
  void UpsertContainerEverywhere(const ContainerInfo& info);

  // Creates a client at a site (each gets a unique port).
  WalterClient* AddClient(SiteId site);
  // Same, with per-client retry/timeout options overriding ClusterOptions.
  WalterClient* AddClient(SiteId site, WalterClient::Options options);

  // Replaces a crashed server with a fresh one restored from its durable image
  // (the replacement-server path of Section 5.7). The old server object is
  // destroyed; references to it become invalid. `s` is a global server id, so
  // under sharding each shard of a site is replaced (re-homed) independently.
  WalterServer& ReplaceServer(SiteId s);

  // Installs a commit observer on every server (e.g. a PsiChecker hook).
  void ObserveCommits(WalterServer::CommitObserver observer);

  // The stability-frontier GC/checkpoint driver; nullptr when disabled (single
  // site, gossip off, gc.enabled false, or threaded mode).
  GcCoordinator* gc() { return gc_.get(); }
  // Per-site snapshot-pin registry (owned here: it must survive ReplaceServer).
  SnapshotPinRegistry& pin_registry(SiteId s) { return *pin_registries_[s]; }

  // Dumps every server's counters plus the transport counters into the shared
  // registry (benches render the registry into their --json output).
  void ExportMetrics(MetricsRegistry& metrics) const;

  // Runs virtual time forward by `d`. Sim mode only.
  void RunFor(SimDuration d) { sim_.RunUntil(sim_.Now() + d); }
  // Runs until no events remain (all protocols quiesce; gossip must be off).
  void RunUntilIdle() { sim_.Run(); }

  // Threaded runtime -------------------------------------------------------
  bool threaded() const { return runtime_ != nullptr; }
  ThreadedRuntime* runtime() { return runtime_.get(); }
  // The executor owning server s (nullptr in sim mode).
  Executor* server_executor(SiteId s) {
    return runtime_ != nullptr ? server_execs_[s] : nullptr;
  }
  // The executor a client was assigned to at AddClient time.
  Executor* client_executor(const WalterClient* c) {
    auto it = client_execs_.find(c);
    return it != client_execs_.end() ? it->second : nullptr;
  }
  // Freezes shared directories and spawns the worker threads. Build the whole
  // deployment (containers, clients, observers) before calling this.
  void StartThreads();
  // Joins worker threads; the cluster is single-threaded again afterwards
  // (safe to read server state, export metrics, run checkers).
  void StopThreads();
  // Pumps the control executor (timers + mailbox of control-hosted state) on
  // the calling thread. Virtual durations, scaled by runtime.time_scale.
  void PumpControlFor(SimDuration d) { runtime_->control().PumpFor(d); }
  bool PumpControlUntil(const std::function<bool()>& pred, SimDuration max_wait) {
    return runtime_->control().PumpUntil(pred, max_wait);
  }
  // Runs fn on the executor owning server s and waits for it — the safe way
  // for a control thread to poke per-server state (crash, probes) mid-run.
  void RunOnServer(SiteId s, const std::function<void()>& fn);
  // Control-thread-safe snapshot of a server's CommittedVTS (probes cross the
  // owning executor via RunOnServer).
  VectorTimestamp SnapshotCommittedVts(SiteId s);

 private:
  // Attaches a server to its site's pin registry (ctor and ReplaceServer).
  void WirePinFloor(SiteId s);

  ClusterOptions options_;
  ShardMap shard_map_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  // Declared before servers/clients so worker simulators outlive the state
  // scheduled on them; ~Cluster stops the threads before any of this unwinds.
  std::unique_ptr<ThreadedRuntime> runtime_;
  std::vector<Executor*> server_execs_;  // per global server id; threaded only
  std::unordered_map<const WalterClient*, Executor*> client_execs_;
  // (site << 32 | port) -> owner, for the network resolver. Built by
  // AddClient before StartThreads; read-only (lock-free) once threads run.
  std::unordered_map<uint64_t, Executor*> client_execs_by_addr_;
  std::vector<std::unique_ptr<ContainerDirectory>> directories_;
  std::vector<std::unique_ptr<SnapshotPinRegistry>> pin_registries_;
  std::vector<std::unique_ptr<WalterServer>> servers_;
  std::vector<std::unique_ptr<WalterClient>> clients_;
  std::unique_ptr<GcCoordinator> gc_;
  uint32_t next_client_port_ = kClientPortBase;
  WalterServer::CommitObserver observer_;  // reapplied to replacement servers
};

}  // namespace walter

#endif  // SRC_CORE_CLUSTER_H_
