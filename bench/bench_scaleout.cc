// Intra-site scale-out: throughput vs co-located servers (shards) per site.
//
// The paper's Walter is one server per site, so Figure 17 can only add
// capacity by adding sites. This bench shards each site's key-space across
// N in {1, 2, 4, 8} co-located servers and measures:
//
//   1. Read-mostly scaling: 2 sites, a fixed closed-loop client population,
//      95% single-read / 5% single-write transactions over containers spread
//      evenly across each site's shards. Reads route per-container to the
//      owning shard, so aggregate throughput should grow near-linearly until
//      the client population stops saturating the shards. The N=4 vs N=1
//      ratio is the headline (CI asserts >= 3x).
//
//   2. Cross-shard commit tax: at N=4, two-write transactions whose writes
//      land in one shard (fast commit, unchanged) or two shards of the same
//      site (intra-site 2PC over the LAN). Sweeping the cross-shard fraction
//      prices the tax in throughput, latency and abort rate; the slow-commit
//      counter confirms which path ran. With early lock release a
//      participant frees its prepare locks at the commit decision and
//      installs visibility watermarks instead of holding the locks until the
//      record propagates back, so lock holds stay at 2PC-round scale and the
//      tax is nearly flat across the sweep.
//
//      Each tax cell also records per-lock hold durations (kLockAcquire ->
//      kLockRelease trace matching) and the abort-reason breakdown (kTxAbort
//      aux: conflict / wound / timeout), and asserts at the end of the run
//      that no lock or visibility watermark leaked.
//
// Containers are picked shard-balanced (equal count per shard, via the public
// shard map), the way an operator provisioning a sharded site would lay out
// capacity; hash-random placement would only add imbalance noise to the
// scaling curve.
// `--wall` switches to the wall-clock threaded runtime instead: the same
// deployment (2 sites x 2 shards) driven by real worker threads and a real
// clock, sweeping the worker count at fixed load. Reported throughput is
// transactions per real second, CPU time comes from getrusage, and
// cores_utilized = cpu/wall shows whether the runtime actually spread the
// work across cores (the CI perf-smoke asserts W=4 beats W=1 on multi-core
// runners). Wall cells are nondeterministic by nature and never run in the
// default mode, whose output stays byte-identical.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/obs/trace.h"

namespace walter {
namespace {

constexpr size_t kSites = 2;
constexpr uint64_t kKeysPerContainer = 400;
constexpr size_t kContainersPerShard = 4;
constexpr int kReadClientsPerSite = 192;  // enough to saturate 4 shards/site
constexpr int kTaxClientsPerSite = 64;
constexpr size_t kTaxShards = 4;

// Containers preferred at `site`, kContainersPerShard per shard, grouped by
// shard: result[shard] lists that shard's containers. Candidate ids step by
// kSites so id % num_sites keeps the intended preferred site.
std::vector<std::vector<ContainerId>> BalancedContainers(const ShardMap& map, SiteId site) {
  std::vector<std::vector<ContainerId>> by_shard(map.shards_at(site));
  size_t filled = 0;
  for (ContainerId c = site; filled < by_shard.size(); c += kSites) {
    std::vector<ContainerId>& bucket = by_shard[map.ShardOf(c, site)];
    if (bucket.size() < kContainersPerShard) {
      bucket.push_back(c);
      if (bucket.size() == kContainersPerShard) {
        ++filled;
      }
    }
  }
  return by_shard;
}

std::vector<ContainerId> Flatten(const std::vector<std::vector<ContainerId>>& by_shard) {
  std::vector<ContainerId> all;
  for (const auto& bucket : by_shard) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  return all;
}

struct CellResult {
  double ktps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double abort_rate = 0;  // failed / attempted in the measure window
  uint64_t fast_commits = 0;
  uint64_t slow_commits = 0;
  double lock_hold_p50_ms = 0;  // kLockAcquire -> kLockRelease, per lock set
  double lock_hold_p99_ms = 0;
  uint64_t aborts_conflict = 0;  // kTxAbort aux breakdown
  uint64_t aborts_wound = 0;
  uint64_t aborts_timeout = 0;
  MetricsRegistry metrics;
};

// Matches kLockAcquire -> kLockRelease per (server, tid) to measure how long
// 2PC lock sets are actually held, and tallies kTxAbort by reason. Installed
// on this cell's thread-local tracer for the duration of the run.
class LockHoldListener : public TraceListener {
 public:
  void OnTrace(const TraceEvent& e) override {
    switch (e.kind) {
      case TraceKind::kLockAcquire:
        acquired_[{e.site, e.tid}] = e.time;
        break;
      case TraceKind::kLockRelease: {
        auto it = acquired_.find({e.site, e.tid});
        if (it != acquired_.end()) {
          holds.Add(static_cast<double>(e.time - it->second));
          acquired_.erase(it);
        }
        break;
      }
      case TraceKind::kTxAbort:
        switch (static_cast<AbortReason>(e.aux)) {
          case AbortReason::kWound:
            ++aborts_wound;
            break;
          case AbortReason::kTimeout:
            ++aborts_timeout;
            break;
          default:
            ++aborts_conflict;  // kConflict, and legacy aborts with aux 0
            break;
        }
        break;
      default:
        break;
    }
  }

  LatencyRecorder holds;  // microseconds
  uint64_t aborts_conflict = 0;
  uint64_t aborts_wound = 0;
  uint64_t aborts_timeout = 0;

 private:
  std::map<std::pair<uint8_t, TxId>, SimTime> acquired_;
};

Cluster MakeCluster(size_t shards_per_site, uint64_t seed) {
  ClusterOptions options;
  options.num_sites = kSites;
  options.servers_per_site.assign(kSites, shards_per_site);
  options.seed = seed;
  options.server.perf = PerfModel::Ec2();
  options.server.disk = DiskConfig::Ec2();
  return Cluster(options);
}

void FinishCell(Cluster& cluster, LoadResult& result, CellResult* cell) {
  cell->ktps = result.ThroughputKops();
  if (result.completed + result.failed > 0) {
    cell->abort_rate =
        static_cast<double>(result.failed) / static_cast<double>(result.completed + result.failed);
  }
  if (!result.latency.empty()) {
    LatencyRecorder::SummaryStats stats = result.latency.Stats();
    cell->p50_ms = stats.p50 / 1000.0;
    cell->p99_ms = stats.p99 / 1000.0;
  }
  for (SiteId v = 0; v < static_cast<SiteId>(cluster.num_servers()); ++v) {
    cell->fast_commits += cluster.server(v).stats().fast_commits;
    cell->slow_commits += cluster.server(v).stats().slow_commits;
  }
  result.ExportMetrics(cell->metrics);
  cluster.ExportMetrics(cell->metrics);
}

// --- read-mostly scaling sweep ---------------------------------------------

CellResult RunReadMostly(size_t shards_per_site, uint64_t seed, bool quick) {
  SimDuration warmup = quick ? Millis(100) : Millis(300);
  SimDuration measure = quick ? Millis(400) : Seconds(1.2);

  Cluster cluster = MakeCluster(shards_per_site, seed);
  std::vector<std::vector<ContainerId>> local(kSites);
  for (SiteId s = 0; s < kSites; ++s) {
    local[s] = Flatten(BalancedContainers(cluster.shard_map(), s));
    WalterClient* setup = cluster.AddClient(s);
    for (ContainerId c : local[s]) {
      Populate(cluster, setup, c, kKeysPerContainer, 100, 20);
    }
  }
  // Reads draw from every container cluster-wide (all replicated everywhere,
  // so every read is served locally by the owning shard); writes stay in
  // locally-preferred containers so they fast-commit.
  std::vector<ContainerId> all = local[0];
  for (SiteId s = 1; s < kSites; ++s) {
    all.insert(all.end(), local[s].begin(), local[s].end());
  }

  ClosedLoopLoad load(&cluster.sim());
  auto rng = std::make_shared<Rng>(seed * 31 + 7);
  for (SiteId s = 0; s < kSites; ++s) {
    for (int c = 0; c < kReadClientsPerSite; ++c) {
      WalterClient* client = cluster.AddClient(s);
      load.AddClient([client, rng, all, own = local[s]](std::function<void(bool)> done) {
        if (rng->NextDouble() < 0.95) {
          auto tx = std::make_shared<Tx>(client);
          ObjectId oid{all[rng->Uniform(all.size())], rng->Uniform(kKeysPerContainer)};
          tx->Read(oid, [tx, done = std::move(done)](Status s, std::optional<std::string>) {
            if (!s.ok()) {
              done(false);
              return;
            }
            tx->Commit([tx, done = std::move(done)](Status s2) { done(s2.ok()); });
          });
        } else {
          auto tx = std::make_shared<Tx>(client);
          tx->Write(ObjectId{own[rng->Uniform(own.size())], rng->Uniform(kKeysPerContainer)},
                    std::string(100, 'w'));
          tx->Commit([tx, done = std::move(done)](Status s) { done(s.ok()); });
        }
      });
    }
  }
  LoadResult result = load.Run(warmup, measure);
  CellResult cell;
  FinishCell(cluster, result, &cell);
  return cell;
}

// --- cross-shard commit tax -------------------------------------------------

CellResult RunCrossShardTax(double cross_fraction, uint64_t seed, bool quick) {
  SimDuration warmup = quick ? Millis(100) : Millis(300);
  SimDuration measure = quick ? Millis(400) : Seconds(1.2);

  Cluster cluster = MakeCluster(kTaxShards, seed);
  // Keep the per-shard container lists: a cross-shard pair is drawn from two
  // distinct shards' buckets, a same-shard pair from one container.
  std::vector<std::vector<std::vector<ContainerId>>> by_shard(kSites);
  for (SiteId s = 0; s < kSites; ++s) {
    by_shard[s] = BalancedContainers(cluster.shard_map(), s);
    WalterClient* setup = cluster.AddClient(s);
    for (ContainerId c : Flatten(by_shard[s])) {
      Populate(cluster, setup, c, kKeysPerContainer, 100, 20);
    }
  }

  ClosedLoopLoad load(&cluster.sim());
  auto rng = std::make_shared<Rng>(seed * 31 + 7);
  for (SiteId s = 0; s < kSites; ++s) {
    for (int c = 0; c < kTaxClientsPerSite; ++c) {
      WalterClient* client = cluster.AddClient(s);
      load.AddClient([client, rng, cross_fraction,
                      shards = by_shard[s]](std::function<void(bool)> done) {
        std::string value(100, 'w');
        auto tx = std::make_shared<Tx>(client);
        size_t a = rng->Uniform(shards.size());
        ContainerId c1 = shards[a][rng->Uniform(shards[a].size())];
        uint64_t k1 = rng->Uniform(kKeysPerContainer);
        tx->Write(ObjectId{c1, k1}, value);
        if (rng->NextDouble() < cross_fraction) {
          // Second write in a different shard of the same site: the commit
          // runs the intra-site 2PC slow path, coordinated by c1's shard.
          size_t b = (a + 1 + rng->Uniform(shards.size() - 1)) % shards.size();
          ContainerId c2 = shards[b][rng->Uniform(shards[b].size())];
          tx->Write(ObjectId{c2, rng->Uniform(kKeysPerContainer)}, value);
        } else {
          tx->Write(ObjectId{c1, (k1 + 7919) % kKeysPerContainer}, value);
        }
        tx->Commit([tx, done = std::move(done)](Status s) { done(s.ok()); });
      });
    }
  }
  LockHoldListener listener;
  Tracer::Get().SetListener(&listener);
  LoadResult result = load.Run(warmup, measure);
  // Let in-flight commits, decisions and propagation settle, then check that
  // nothing leaked: every prepare lock released, every watermark cleared.
  cluster.RunFor(Seconds(5));
  Tracer::Get().SetListener(nullptr);
  for (SiteId v = 0; v < static_cast<SiteId>(cluster.num_servers()); ++v) {
    if (cluster.server(v).lock_count() != 0 || cluster.server(v).watermark_count() != 0) {
      std::fprintf(stderr,
                   "bench_scaleout: leak at server %u after drain: %zu locks, %zu watermarks\n",
                   v, cluster.server(v).lock_count(), cluster.server(v).watermark_count());
      std::abort();
    }
  }
  CellResult cell;
  FinishCell(cluster, result, &cell);
  if (!listener.holds.empty()) {
    cell.lock_hold_p50_ms = listener.holds.Percentile(50) / 1000.0;
    cell.lock_hold_p99_ms = listener.holds.Percentile(99) / 1000.0;
  }
  cell.aborts_conflict = listener.aborts_conflict;
  cell.aborts_wound = listener.aborts_wound;
  cell.aborts_timeout = listener.aborts_timeout;
  return cell;
}

// --- wall-clock threaded runtime sweep --------------------------------------

struct WallCell {
  size_t workers = 0;
  uint64_t completed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double ktps = 0;   // completed transactions per real second, in thousands
  double cores = 0;  // cpu_s / wall_s
};

double CpuSeconds() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// One wall cell: the 2-site x 2-shard deployment on the threaded runtime with
// `workers` worker threads per site, driven by closed-loop client chains on
// their owner executors. Throughput is transactions per real second; CPU time
// (getrusage, whole process) over wall time says how many cores the runtime
// actually kept busy. Instant perf + Memory disk: the cell measures the
// runtime's dispatch capacity, not a simulated network.
WallCell RunWall(size_t workers, uint64_t seed, bool quick) {
  constexpr size_t kWallShardsPerSite = 2;
  constexpr int kWallClientsPerSite = 16;
  const int warmup_ms = quick ? 150 : 400;
  const int measure_ms = quick ? 600 : 2000;

  ClusterOptions options;
  options.num_sites = kSites;
  options.servers_per_site.assign(kSites, kWallShardsPerSite);
  options.seed = seed;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.runtime.workers = workers;
  options.runtime.time_scale = 50.0;
  Cluster cluster(options);

  std::vector<std::vector<ContainerId>> local(kSites);
  for (SiteId s = 0; s < kSites; ++s) {
    local[s] = Flatten(BalancedContainers(cluster.shard_map(), s));
  }

  struct Chain {
    WalterClient* client = nullptr;
    Rng rng{1};
    std::vector<ContainerId> own;
  };
  std::vector<std::unique_ptr<Chain>> chains;
  for (SiteId s = 0; s < kSites; ++s) {
    for (int c = 0; c < kWallClientsPerSite; ++c) {
      auto chain = std::make_unique<Chain>();
      chain->client = cluster.AddClient(s);
      chain->rng = Rng(seed * 977 + s * 131 + static_cast<uint64_t>(c));
      chain->own = local[s];
      chains.push_back(std::move(chain));
    }
  }

  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<int> active{0};
  std::atomic<uint64_t> completed{0};

  // 95% single-read / 5% single-write, same mix as the sim sweep. Unpopulated
  // reads return nil, which exercises the identical read path; the cell cares
  // about dispatch throughput, not values.
  std::function<void(Chain*)> next = [&](Chain* chain) {
    if (stop.load(std::memory_order_relaxed)) {
      active.fetch_sub(1);
      return;
    }
    auto done = [&, chain](bool ok) {
      if (ok && measuring.load(std::memory_order_relaxed)) {
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      next(chain);
    };
    auto tx = std::make_shared<Tx>(chain->client);
    if (chain->rng.NextDouble() < 0.95) {
      ObjectId oid{chain->own[chain->rng.Uniform(chain->own.size())],
                   chain->rng.Uniform(kKeysPerContainer)};
      tx->Read(oid, [tx, done](Status s, std::optional<std::string>) {
        if (!s.ok()) {
          done(false);
          return;
        }
        tx->Commit([tx, done](Status s2) { done(s2.ok()); });
      });
    } else {
      tx->Write(ObjectId{chain->own[chain->rng.Uniform(chain->own.size())],
                         chain->rng.Uniform(kKeysPerContainer)},
                std::string(100, 'w'));
      tx->Commit([tx, done](Status s) { done(s.ok()); });
    }
  };

  cluster.StartThreads();
  active.store(static_cast<int>(chains.size()));
  for (auto& chain : chains) {
    cluster.client_executor(chain->client)->Post([&, c = chain.get()]() { next(c); });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(warmup_ms));
  double cpu0 = CpuSeconds();
  auto t0 = std::chrono::steady_clock::now();
  measuring.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
  measuring.store(false);
  auto t1 = std::chrono::steady_clock::now();
  double cpu1 = CpuSeconds();

  stop.store(true);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (active.load() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  cluster.StopThreads();
  if (active.load() != 0) {
    std::fprintf(stderr, "bench_scaleout --wall: %d chains stuck at shutdown\n",
                 active.load());
    std::abort();
  }

  WallCell cell;
  cell.workers = workers;
  cell.completed = completed.load();
  cell.wall_s = std::chrono::duration<double>(t1 - t0).count();
  cell.cpu_s = cpu1 - cpu0;
  cell.ktps = cell.wall_s > 0 ? static_cast<double>(cell.completed) / cell.wall_s / 1000.0 : 0;
  cell.cores = cell.wall_s > 0 ? cell.cpu_s / cell.wall_s : 0;
  return cell;
}

int RunWallSweep(const BenchOptions& opt) {
  const std::vector<size_t> worker_counts = {1, 2, 4};
  std::vector<WallCell> cells;
  // Sequential on purpose: each cell owns the machine's cores for its window.
  for (size_t w : worker_counts) {
    cells.push_back(RunWall(w, 9200 + w, opt.quick));
  }

  unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== Wall-clock threaded runtime: %zu sites x 2 shards, %u hardware cores ===\n\n",
              kSites, hw);
  TablePrinter table({"workers", "Ktps (real)", "wall (s)", "cpu (s)", "cores utilized"});
  for (const WallCell& c : cells) {
    table.AddRow({std::to_string(c.workers), TablePrinter::Fmt(c.ktps),
                  TablePrinter::Fmt(c.wall_s, 2), TablePrinter::Fmt(c.cpu_s, 2),
                  TablePrinter::Fmt(c.cores, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  double speedup = cells[0].ktps > 0 ? cells.back().ktps / cells[0].ktps : 0;
  std::printf(
      "Headline: W=%zu real-time throughput is %.2fx W=1 on %u hardware cores.\n"
      "Wall cells are nondeterministic; the CI perf-smoke asserts the speedup\n"
      "only on multi-core runners. cores_utilized > 1 shows the runtime\n"
      "actually spread server executors across threads.\n",
      worker_counts.back(), speedup, hw);

  BenchJson json;
  json.Set("bench", std::string("scaleout_wall"));
  json.Set("quick", opt.quick ? 1.0 : 0.0);
  json.Set("hardware_cores", static_cast<double>(hw));
  for (const WallCell& c : cells) {
    std::string key = "wall_w" + std::to_string(c.workers);
    json.Set(key + "_ktps", c.ktps);
    json.Set(key + "_cores_utilized", c.cores);
    json.Set(key + "_completed", static_cast<double>(c.completed));
  }
  json.Set("wall_speedup_w4_vs_w1", speedup);
  return json.WriteIfRequested(opt.json_path) ? 0 : 1;
}

}  // namespace
}  // namespace walter

int main(int argc, char** argv) {
  using walter::CellResult;
  using walter::TablePrinter;
  walter::BenchOptions opt = walter::ParseBenchArgs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wall") == 0) {
      return walter::RunWallSweep(opt);
    }
  }

  const std::vector<size_t> shard_counts = {1, 2, 4, 8};
  const std::vector<double> cross_fractions = {0.0, 0.1, 0.5, 1.0};

  // One independent simulation per cell; shard sweep first, then tax sweep.
  walter::ParallelRunner runner(opt.jobs);
  size_t total = shard_counts.size() + cross_fractions.size();
  std::vector<CellResult> results = runner.Map<CellResult>(total, [&](size_t i) {
    if (i < shard_counts.size()) {
      return walter::RunReadMostly(shard_counts[i], 9000 + shard_counts[i], opt.quick);
    }
    double f = cross_fractions[i - shard_counts.size()];
    return walter::RunCrossShardTax(f, 9100 + static_cast<uint64_t>(f * 100), opt.quick);
  });

  std::printf("=== Intra-site scale-out: %zu sites, N shards per site ===\n\n",
              walter::kSites);

  std::printf("-- Read-mostly (95%% read) throughput vs shards per site --\n");
  {
    TablePrinter table({"shards/site", "Ktps", "speedup vs N=1", "p50 (ms)", "p99 (ms)"});
    for (size_t i = 0; i < shard_counts.size(); ++i) {
      table.AddRow({std::to_string(shard_counts[i]), TablePrinter::Fmt(results[i].ktps),
                    TablePrinter::Fmt(results[i].ktps / results[0].ktps, 2),
                    TablePrinter::Fmt(results[i].p50_ms, 2),
                    TablePrinter::Fmt(results[i].p99_ms, 2)});
    }
    std::printf("%s\n", table.Render().c_str());
  }

  std::printf("-- Cross-shard commit tax at N=%zu (two-write transactions) --\n",
              walter::kTaxShards);
  {
    TablePrinter table({"cross-shard frac", "Ktps", "p50 (ms)", "p99 (ms)", "abort %",
                        "slow commits", "hold p50 (ms)", "hold p99 (ms)"});
    for (size_t i = 0; i < cross_fractions.size(); ++i) {
      const CellResult& r = results[shard_counts.size() + i];
      table.AddRow({TablePrinter::Fmt(cross_fractions[i], 2), TablePrinter::Fmt(r.ktps),
                    TablePrinter::Fmt(r.p50_ms, 2), TablePrinter::Fmt(r.p99_ms, 2),
                    TablePrinter::Fmt(r.abort_rate * 100.0),
                    std::to_string(r.slow_commits),
                    TablePrinter::Fmt(r.lock_hold_p50_ms, 2),
                    TablePrinter::Fmt(r.lock_hold_p99_ms, 2)});
    }
    std::printf("%s\n", table.Render().c_str());
  }

  {
    TablePrinter table({"cross-shard frac", "aborts: conflict", "wound", "timeout"});
    for (size_t i = 0; i < cross_fractions.size(); ++i) {
      const CellResult& r = results[shard_counts.size() + i];
      table.AddRow({TablePrinter::Fmt(cross_fractions[i], 2),
                    std::to_string(r.aborts_conflict), std::to_string(r.aborts_wound),
                    std::to_string(r.aborts_timeout)});
    }
    std::printf("%s\n", table.Render().c_str());
  }

  double speedup_n4 = results[2].ktps / results[0].ktps;
  std::printf(
      "Headline: N=4 read-mostly throughput is %.2fx N=1 (acceptance: >= 3x).\n"
      "With early lock release a participant's prepare locks last only from\n"
      "the prepare to the commit decision (Figure 13's remote-commit guard now\n"
      "gates visibility through per-object watermarks, not through the locks),\n"
      "so cross-shard throughput stays near the f=0 baseline and aborts stay\n"
      "low.\n",
      speedup_n4);

  walter::BenchJson json;
  json.Set("bench", std::string("scaleout"));
  json.Set("quick", opt.quick ? 1.0 : 0.0);
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    std::string key = "read_mostly_n" + std::to_string(shard_counts[i]);
    json.Set(key + "_ktps", results[i].ktps);
    json.Set(key + "_p50_ms", results[i].p50_ms);
  }
  json.Set("speedup_n4_vs_n1", speedup_n4);
  for (size_t i = 0; i < cross_fractions.size(); ++i) {
    const CellResult& r = results[shard_counts.size() + i];
    std::string key = "cross" + std::to_string(static_cast<int>(cross_fractions[i] * 100));
    json.Set(key + "_ktps", r.ktps);
    json.Set(key + "_p50_ms", r.p50_ms);
    json.Set(key + "_p99_ms", r.p99_ms);
    json.Set(key + "_abort_rate", r.abort_rate);
    json.Set(key + "_slow_commits", static_cast<double>(r.slow_commits));
    json.Set(key + "_lock_hold_p50_ms", r.lock_hold_p50_ms);
    json.Set(key + "_lock_hold_p99_ms", r.lock_hold_p99_ms);
    json.Set(key + "_aborts_conflict", static_cast<double>(r.aborts_conflict));
    json.Set(key + "_aborts_wound", static_cast<double>(r.aborts_wound));
    json.Set(key + "_aborts_timeout", static_cast<double>(r.aborts_timeout));
  }
  return json.WriteIfRequested(opt.json_path) ? 0 : 1;
}
