// Wall-clock workloads on the threaded runtime: read_mostly (closed loop) and
// write_replicate (open loop). Both run 2 sites x 2 shards on 2 worker
// threads at time_scale 1 with PerfModel::Instant and DiskConfig::Memory, so
// every microsecond measured is the real cost of our own code. The calling
// thread is the load generator: it sleeps through read_mostly and generates the
// Poisson arrivals of write_replicate.
#include "perfbench/src/workloads.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "perfbench/src/layers.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/spans.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/cluster.h"

namespace perfbench {

using walter::Cluster;
using walter::ContainerId;
using walter::Executor;
using walter::ObjectId;
using walter::Rng;
using walter::SimTime;
using walter::SiteId;
using walter::Status;
using walter::Tx;
using walter::WalterClient;

namespace {

constexpr size_t kSites = 2;
constexpr size_t kShardsPerSite = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kContainersPerShard = 4;  // 8 per site, 16 in all
constexpr uint64_t kPopulatedKeys = 1000;
constexpr uint64_t kPopulateBatch = 50;    // keys per populate transaction
constexpr size_t kReadValueBytes = 100;
constexpr int kChainsPerSite = 16;         // read_mostly: 32 closed-loop chains
constexpr double kReadFraction = 0.95;
constexpr double kArrivalRate = 4000;      // write_replicate: offered tx/s
constexpr int kOpenClientsPerSite = 8;
constexpr double kCrossShardFraction = 0.1;
constexpr size_t kWritesPerTx = 4;
constexpr size_t kWriteValueBytes = 256;
// write_replicate rewrites a container's keys round-robin over this cycle, so
// a key is rewritten only after several seconds: no two in-flight writers
// ever share a key, even through the sharded visibility stall.
constexpr uint64_t kWriteKeyCycle = 8192;
constexpr int kSetups = 7;
constexpr double kWarmupS = 1.0;
// The untraced window is cut into slices; throughput and CPU per transaction
// are the medians over slices, which keeps short interference out of them.
constexpr double kSliceS = 1.0;
constexpr int64_t kProbeEveryUs = 1000;
constexpr size_t kReplicaSample = 8;  // written keys kept per client for the replica check

enum Phase : int { kWarmup = 0, kUntraced = 1, kTraced = 2, kDrain = 3, kPhases = 4 };

struct PhaseStats {
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t rpcs = 0;
  uint64_t user_bytes = 0;
  Samples commit_us;
  Samples visible_us;
  Samples late_us;
  Samples read_call_us;
  Samples commit_call_us;
};

// One load-generating client. All fields are touched only on the client's
// owning executor while threads run, and by the calling thread after they stop.
struct ClientCtx {
  WalterClient* client = nullptr;
  Executor* exec = nullptr;
  SiteId site = 0;
  int slot = 0;  // index among its site's clients
  Rng rng{1};
  PhaseStats stats[kPhases];
  std::vector<Span> spans;
  std::vector<ObjectId> written;
  uint64_t bad_reads = 0;
  // Commits so far, written by the owning executor and read by the load generator.
  alignas(64) std::atomic<uint64_t> commits{0};

  void CountCommit() {
    commits.store(commits.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
};

// One write_replicate arrival, generated from the seed by the load generator.
struct Arrival {
  int64_t due_us = 0;
  ClientCtx* ctx = nullptr;
  ObjectId oids[kWritesPerTx];
};

Span ClientSpan(walter::TxId tid, double start_us, double end_us, SiteId site, Stage stage) {
  return Span{tid, static_cast<SimTime>(start_us), static_cast<SimTime>(end_us),
              static_cast<uint8_t>(site), stage};
}

// Containers preferred at `site`, kContainersPerShard per shard, grouped by
// shard. Candidate ids step by kSites so id % num_sites keeps the site.
std::vector<std::vector<ContainerId>> BalancedContainers(const walter::ShardMap& map,
                                                         SiteId site) {
  std::vector<std::vector<ContainerId>> by_shard(map.shards_at(site));
  size_t filled = 0;
  for (ContainerId c = site; filled < by_shard.size(); c += kSites) {
    std::vector<ContainerId>& bucket = by_shard[map.ShardOf(c, site)];
    if (bucket.size() < kContainersPerShard) {
      bucket.push_back(c);
      filled += bucket.size() == kContainersPerShard ? 1 : 0;
    }
  }
  return by_shard;
}

class WallRun {
 public:
  WallRun(const Args& args, bool write_replicate)
      : args_(args), write_replicate_(write_replicate) {}

  void Run(Report& report);

 private:
  void Setup(Report& report);
  void Populate(Report& report);
  void Chain(ClientCtx* c);
  void StartArrival(const Arrival& a);
  Arrival NextArrival();
  // Drives the load (arrivals, probes) until `end_us`.
  void DriveUntil(int64_t end_us);
  void Drain(Report& report);
  // Sum of a per-phase statistic over all clients.
  PhaseStats Merge(int phase) const;
  double WorkersCpu();
  uint64_t WrappedBytes();
  void SetListeners(bool on);
  void ReportEndToEnd(Report& report);
  uint64_t Commits() const;

  const Args& args_;
  const bool write_replicate_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::vector<std::vector<ContainerId>>> by_shard_;  // [site][shard]
  std::vector<std::vector<ContainerId>> local_;                  // [site]
  std::vector<std::unique_ptr<ClientCtx>> clients_;
  std::vector<WalterClient*> setup_clients_;
  std::unique_ptr<CommitCapture> capture_;
  std::vector<double> setup_s_;
  std::vector<double> slice_tps_;     // per slice of the untraced window
  std::vector<double> slice_cpu_us_;  // process CPU per commit, per slice

  std::atomic<int> phase_{kWarmup};
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};          // closed-loop chains still running
  std::atomic<int64_t> outstanding_{0}; // open-loop transactions not yet resolved
  std::atomic<int64_t> visible_pending_{0};
  // Populate chains in flight and their failed commits; members, not locals,
  // because a timed-out chain may still run after Populate returns.
  std::atomic<int> populate_chains_{0};
  std::atomic<int> populate_failures_{0};

  // Load-generator side (calling thread only).
  Rng arrivals_rng_{1};
  int64_t next_due_us_ = 0;
  std::vector<uint64_t> cursor_;        // per container id: next key slot
  size_t next_client_[kSites] = {0, 0};
  bool probing_ = false;
  int64_t next_probe_us_ = 0;
  std::vector<Samples> post_lag_;  // per worker, written on that worker
  std::vector<std::unique_ptr<SpanListener>> listeners_;  // per worker + calling thread
};

void WallRun::Setup(Report& report) {
  clients_.clear();
  setup_clients_.clear();
  cluster_.reset();
  int64_t t0 = NowUs();
  walter::ClusterOptions options;
  options.num_sites = kSites;
  options.servers_per_site.assign(kSites, kShardsPerSite);
  options.seed = args_.seed;
  options.server.perf = walter::PerfModel::Instant();
  options.server.disk = walter::DiskConfig::Memory();
  options.runtime.workers = kWorkers;
  options.runtime.time_scale = 1.0;
  cluster_ = std::make_unique<Cluster>(options);

  by_shard_.assign(kSites, {});
  local_.assign(kSites, {});
  for (SiteId s = 0; s < kSites; ++s) {
    by_shard_[s] = BalancedContainers(cluster_->shard_map(), s);
    for (const auto& bucket : by_shard_[s]) {
      local_[s].insert(local_[s].end(), bucket.begin(), bucket.end());
    }
    setup_clients_.push_back(cluster_->AddClient(s));
  }
  int per_site = write_replicate_ ? kOpenClientsPerSite : kChainsPerSite;
  for (SiteId s = 0; s < kSites; ++s) {
    for (int i = 0; i < per_site; ++i) {
      auto c = std::make_unique<ClientCtx>();
      c->client = cluster_->AddClient(s);
      c->exec = cluster_->client_executor(c->client);
      c->site = s;
      c->slot = i;
      c->rng = Rng(args_.seed * 1000003 + s * 7919 + static_cast<uint64_t>(i));
      clients_.push_back(std::move(c));
    }
  }
  if (args_.trace) {
    capture_ = std::make_unique<CommitCapture>(cluster_->num_servers());
    capture_->Install(*cluster_);
    capture_->capturing = true;
  }
  cluster_->StartThreads();
  Populate(report);
  setup_s_.push_back(static_cast<double>(NowUs() - t0) / 1e6);
  // Untimed: the sharded deployment's visibility stall would otherwise make
  // set-up time bimodal.
  if (!WaitReplicated(*cluster_, 30)) {
    report.Fail("populate did not replicate within 30 s");
  }
  if (capture_ != nullptr) {
    capture_->capturing = false;
  }
}

// Writes kPopulatedKeys keys into every container at its preferred site,
// kPopulateBatch keys per transaction, one chain of transactions per site.
void WallRun::Populate(Report& report) {
  std::atomic<int>& chains = populate_chains_;
  std::atomic<int>& failures = populate_failures_;
  chains = static_cast<int>(kSites);
  failures = 0;
  for (SiteId s = 0; s < kSites; ++s) {
    WalterClient* client = setup_clients_[s];
    auto todo = std::make_shared<std::vector<ObjectId>>();
    for (ContainerId c : local_[s]) {
      for (uint64_t k = 0; k < kPopulatedKeys; ++k) {
        todo->push_back(ObjectId{c, k});
      }
    }
    auto step = std::make_shared<std::function<void(size_t)>>();
    *step = [client, todo, &chains, &failures,
             weak = std::weak_ptr<std::function<void(size_t)>>(step)](size_t next) {
      if (next >= todo->size()) {
        chains.fetch_sub(1);
        return;
      }
      auto tx = std::make_shared<Tx>(client);
      size_t end = std::min(next + kPopulateBatch, todo->size());
      for (size_t i = next; i < end; ++i) {
        const ObjectId& oid = (*todo)[i];
        tx->Write(oid, ValueFor(oid.container * 1000003 + oid.local, kReadValueBytes));
      }
      auto self = weak.lock();
      tx->Commit([tx, self, end, &failures](Status st) {
        if (!st.ok()) {
          failures.fetch_add(1);
        }
        (*self)(end);
      });
    };
    // The step function lives as long as its commit callbacks hold it.
    cluster_->client_executor(client)->Post([step]() { (*step)(0); });
  }
  int64_t deadline = NowUs() + 60'000'000;
  while (chains.load() > 0 && NowUs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (chains.load() > 0 || failures.load() > 0) {
    report.Fail("populate did not complete (" + std::to_string(failures.load()) + " failed)");
  }
}

void WallRun::Chain(ClientCtx* c) {
  if (stop_.load(std::memory_order_relaxed)) {
    active_.fetch_sub(1);
    return;
  }
  int phase = phase_.load(std::memory_order_relaxed);
  PhaseStats& st = c->stats[phase];
  ++st.started;
  double t0 = WallUs();
  auto tx = std::make_shared<Tx>(c->client);
  auto finish = [this, c, tx, t0, phase](Status s, double call_us) {
    double t1 = WallUs();
    PhaseStats& st = c->stats[phase];
    st.commit_call_us.Add(t1 - call_us);
    st.rpcs += tx->rpcs_issued();
    if (phase == kTraced) {
      c->spans.push_back(ClientSpan(tx->tid(), call_us, t1, c->site, Stage::kClientCommit));
    }
    if (s.ok()) {
      ++st.committed;
      c->CountCommit();
      st.commit_us.Add(t1 - t0);
    } else {
      ++st.failed;
    }
    Chain(c);
  };
  const std::vector<ContainerId>& own = local_[c->site];
  if (c->rng.NextDouble() < kReadFraction) {
    ObjectId oid{own[c->rng.Uniform(own.size())], c->rng.Uniform(kPopulatedKeys)};
    tx->Read(oid, [this, c, tx, t0, phase, finish](Status s, std::optional<std::string> v) {
      double t1 = WallUs();
      c->stats[phase].read_call_us.Add(t1 - t0);
      if (phase == kTraced) {
        c->spans.push_back(ClientSpan(tx->tid(), t0, t1, c->site, Stage::kClientRead));
      }
      if (!s.ok()) {
        ++c->stats[phase].failed;
        Chain(c);
        return;
      }
      if (!v.has_value() || v->size() != kReadValueBytes) {
        ++c->bad_reads;
      }
      tx->Commit([finish, call = WallUs()](Status s2) { finish(s2, call); });
    });
    return;
  }
  // Chains write disjoint key residues, so concurrent writers never collide.
  uint64_t key = static_cast<uint64_t>(c->slot) +
                 kChainsPerSite * c->rng.Uniform(kPopulatedKeys / kChainsPerSite);
  ObjectId oid{own[c->rng.Uniform(own.size())], key};
  tx->Write(oid, ValueFor(tx->tid(), kReadValueBytes));
  tx->Commit([c, oid, phase, finish, call = WallUs()](Status s) {
    if (s.ok()) {
      c->stats[phase].user_bytes += kReadValueBytes;
      if (c->written.size() < kReplicaSample) {
        c->written.push_back(oid);
      }
    }
    finish(s, call);
  });
}

Arrival WallRun::NextArrival() {
  Rng& rng = arrivals_rng_;
  Arrival a;
  a.due_us = next_due_us_;
  next_due_us_ += static_cast<int64_t>(-std::log(1.0 - rng.NextDouble()) / kArrivalRate * 1e6);
  SiteId site = static_cast<SiteId>(rng.Uniform(kSites));
  a.ctx = clients_[site * kOpenClientsPerSite + next_client_[site]++ % kOpenClientsPerSite].get();
  ContainerId first;
  ContainerId second;
  if (rng.NextDouble() < kCrossShardFraction) {
    // Two writes in each of two shards of the site: intra-site 2PC.
    size_t shard = rng.Uniform(kShardsPerSite);
    const auto& a_bucket = by_shard_[site][shard];
    const auto& b_bucket = by_shard_[site][(shard + 1) % kShardsPerSite];
    first = a_bucket[rng.Uniform(a_bucket.size())];
    second = b_bucket[rng.Uniform(b_bucket.size())];
  } else {
    first = second = local_[site][rng.Uniform(local_[site].size())];
  }
  for (size_t i = 0; i < kWritesPerTx; ++i) {
    ContainerId c = i < kWritesPerTx / 2 ? first : second;
    a.oids[i] = ObjectId{c, cursor_[c]++ % kWriteKeyCycle};
  }
  return a;
}

void WallRun::StartArrival(const Arrival& a) {
  ClientCtx* c = a.ctx;
  int phase = phase_.load(std::memory_order_relaxed);
  PhaseStats& st = c->stats[phase];
  double start = WallUs();
  ++st.started;
  st.late_us.Add(start - static_cast<double>(a.due_us));
  auto tx = std::make_shared<Tx>(c->client);
  for (const ObjectId& oid : a.oids) {
    tx->Write(oid, ValueFor(tx->tid() + oid.local, kWriteValueBytes));
  }
  // Commit and visibility callbacks both run on this client's executor.
  struct Times {
    double commit = 0;
    double visible = 0;
  };
  auto times = std::make_shared<Times>();
  auto record_visible = [c, phase, times]() {
    c->stats[phase].visible_us.Add(times->visible - times->commit);
  };
  walter::Tx::CommitOptions options;
  options.on_visible = [this, times, record_visible]() {
    times->visible = WallUs();
    if (times->commit != 0) {
      record_visible();
    }
    visible_pending_.fetch_sub(1);
  };
  visible_pending_.fetch_add(1);
  ObjectId sample = a.oids[0];
  double call = WallUs();
  tx->Commit(
      [this, c, tx, phase, due = a.due_us, call, times, record_visible, sample](Status s) {
        double t1 = WallUs();
        PhaseStats& st = c->stats[phase];
        st.commit_call_us.Add(t1 - call);
        st.rpcs += tx->rpcs_issued();
        if (phase == kTraced) {
          c->spans.push_back(ClientSpan(tx->tid(), call, t1, c->site, Stage::kClientCommit));
        }
        if (s.ok()) {
          ++st.committed;
          c->CountCommit();
          st.user_bytes += kWritesPerTx * kWriteValueBytes;
          st.commit_us.Add(t1 - due);
          times->commit = t1;
          if (times->visible != 0) {
            record_visible();
          }
          if (c->written.size() < kReplicaSample) {
            c->written.push_back(sample);
          }
        } else {
          ++st.failed;
          visible_pending_.fetch_sub(1);  // a failed commit never becomes visible
        }
        outstanding_.fetch_sub(1);
      },
      std::move(options));
}

void WallRun::DriveUntil(int64_t end_us) {
  while (true) {
    int64_t now = NowUs();
    if (now >= end_us) {
      return;
    }
    int64_t wake = end_us;
    if (write_replicate_) {
      while (next_due_us_ <= now) {
        Arrival a = NextArrival();
        outstanding_.fetch_add(1);
        a.ctx->exec->Post([this, a]() { StartArrival(a); });
      }
      wake = std::min(wake, next_due_us_);
    }
    if (probing_) {
      if (next_probe_us_ <= now) {
        for (size_t w = 0; w < kWorkers; ++w) {
          cluster_->runtime()->worker(w).Post(
              [this, w, posted = WallUs()]() { post_lag_[w].Add(WallUs() - posted); });
        }
        next_probe_us_ = now + kProbeEveryUs;
      }
      wake = std::min(wake, next_probe_us_);
    }
    int64_t sleep = wake - NowUs();
    if (sleep > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep));
    }
  }
}

double WallRun::WorkersCpu() {
  double total = 0;
  for (size_t w = 0; w < kWorkers; ++w) {
    cluster_->runtime()->worker(w).PostSync([&total]() { total += ThreadCpuSeconds(); });
  }
  return total;
}

uint64_t WallRun::WrappedBytes() {
  uint64_t total = walter::Payload::bytes_wrapped();
  for (size_t w = 0; w < kWorkers; ++w) {
    cluster_->runtime()->worker(w).PostSync(
        [&total]() { total += walter::Payload::bytes_wrapped(); });
  }
  return total;
}

void WallRun::SetListeners(bool on) {
  for (size_t w = 0; w < kWorkers; ++w) {
    SpanListener* l = on ? listeners_[w].get() : nullptr;
    cluster_->runtime()->worker(w).PostSync([l]() { walter::Tracer::Get().SetListener(l); });
  }
  walter::Tracer::Get().SetListener(on ? listeners_[kWorkers].get() : nullptr);
}

PhaseStats WallRun::Merge(int phase) const {
  PhaseStats m;
  for (const auto& c : clients_) {
    const PhaseStats& s = c->stats[phase];
    m.started += s.started;
    m.committed += s.committed;
    m.failed += s.failed;
    m.rpcs += s.rpcs;
    m.user_bytes += s.user_bytes;
    m.commit_us.Merge(s.commit_us);
    m.visible_us.Merge(s.visible_us);
    m.late_us.Merge(s.late_us);
    m.read_call_us.Merge(s.read_call_us);
    m.commit_call_us.Merge(s.commit_call_us);
  }
  return m;
}

void WallRun::Drain(Report& report) {
  phase_.store(kDrain);
  stop_.store(true);
  int64_t deadline = NowUs() + 30'000'000;
  auto busy = [this]() {
    return active_.load() > 0 || outstanding_.load() > 0 || visible_pending_.load() > 0;
  };
  while (busy() && NowUs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (busy()) {
    report.Fail("client chains stuck after the drain: " + std::to_string(active_.load()) +
                " closed-loop chains, " + std::to_string(outstanding_.load()) +
                " open-loop transactions, " + std::to_string(visible_pending_.load()) +
                " visibility callbacks pending");
  }
  if (!WaitReplicated(*cluster_, 30)) {
    report.Fail("servers did not converge on one CommittedVTS within 30 s");
  }
  if (!WaitNoLocks(*cluster_, 30)) {
    report.Fail("locks or watermarks still held 30 s after the drain");
  }
  cluster_->StopThreads();
  std::vector<ObjectId> sample;
  uint64_t bad_reads = 0;
  for (const auto& c : clients_) {
    sample.insert(sample.end(), c->written.begin(), c->written.end());
    bad_reads += c->bad_reads;
  }
  CheckQuiescent(*cluster_, sample, report);
  if (bad_reads != 0) {
    report.Fail(std::to_string(bad_reads) + " reads of populated keys returned a wrong value");
  }
  if (capture_ != nullptr) {
    Status psi = capture_->Check();
    if (!psi.ok()) {
      report.Fail("PSI checker: " + psi.ToString());
    }
    std::printf("PSI checker: %zu sampled transactions checked\n", capture_->checked());
  }
}

uint64_t WallRun::Commits() const {
  uint64_t total = 0;
  for (const auto& c : clients_) {
    total += c->commits.load(std::memory_order_relaxed);
  }
  return total;
}

void WallRun::ReportEndToEnd(Report& report) {
  PhaseStats m = Merge(kUntraced);
  double committed = static_cast<double>(m.committed);
  report.Add("setup_s", Median(setup_s_), "s", "wall", setup_s_.size());
  report.Add("tx_per_s", Median(slice_tps_), "1/s", "wall", slice_tps_.size());
  report.Add("cpu_us_per_tx", Median(slice_cpu_us_), "us", "wall", slice_cpu_us_.size());
  report.AddPercentiles("commit", m.commit_us, "us", "wall");
  if (write_replicate_) {
    report.AddPercentiles("visible", m.visible_us, "us", "wall");
  } else {
    report.NotApplicable("visible_p50_us", "us");
    report.NotApplicable("visible_p99_us", "us");
  }
  report.Add("failed_frac", m.failed / std::max(1.0, committed + static_cast<double>(m.failed)),
             "frac", "both");
  if (write_replicate_) {
    report.Add("peak_rss_mb", PeakRssMb(), "MiB", "wall");
  } else {
    report.NotApplicable("peak_rss_mb", "MiB");  // memory grows with work without GC
  }
  for (const char* name : {"model_fast_commit_p50_ms", "model_fast_commit_p99_ms",
                           "model_slow_commit_p50_ms", "model_slow_commit_p99_ms",
                           "model_visible_p50_ms", "model_visible_p99_ms"}) {
    report.NotApplicable(name, "ms");
  }
}

void WallRun::Run(Report& report) {
  for (int i = 0; i < kSetups && report.ok(); ++i) {
    Setup(report);
  }
  if (!report.ok()) {
    return;
  }
  ContainerId max_container = 0;
  for (const auto& own : local_) {
    for (ContainerId c : own) {
      max_container = std::max(max_container, c);
    }
  }
  cursor_.assign(max_container + 1, 0);
  arrivals_rng_ = Rng(args_.seed * 2654435761ULL + 17);
  post_lag_.assign(kWorkers, {});
  for (size_t i = 0; i <= kWorkers; ++i) {
    listeners_.push_back(std::make_unique<SpanListener>());
  }

  int64_t start = NowUs();
  if (write_replicate_) {
    next_due_us_ = start;
  } else {
    active_.store(static_cast<int>(clients_.size()));
    for (auto& c : clients_) {
      c->exec->Post([this, ctx = c.get()]() { Chain(ctx); });
    }
  }
  DriveUntil(start + static_cast<int64_t>(kWarmupS * 1e6));

  double window_s = args_.trace ? args_.seconds / 2 : args_.seconds;
  auto window_us = static_cast<int64_t>(window_s * 1e6);
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowUs();
  phase_.store(kUntraced);
  {
    uint64_t commits = Commits();
    double cpu = cpu0;
    int64_t t = t0;
    for (int64_t end = t0; end < t0 + window_us;) {
      end = std::min(t0 + window_us, end + static_cast<int64_t>(kSliceS * 1e6));
      DriveUntil(end);
      uint64_t commits1 = Commits();
      double cpu1 = ProcessCpuSeconds();
      int64_t t1 = NowUs();
      if (commits1 > commits) {
        slice_tps_.push_back(static_cast<double>(commits1 - commits) * 1e6 /
                             static_cast<double>(t1 - t));
        slice_cpu_us_.push_back((cpu1 - cpu) * 1e6 / static_cast<double>(commits1 - commits));
      }
      commits = commits1;
      cpu = cpu1;
      t = t1;
    }
  }
  double untraced_cpu = ProcessCpuSeconds() - cpu0;

  Counters k0;
  Counters k1;
  double workers0 = 0;
  double workers1 = 0;
  double loadgen0 = 0;
  double loadgen1 = 0;
  uint64_t wrapped0 = 0;
  uint64_t wrapped1 = 0;
  double traced_cpu = 0;
  double traced_s = 0;
  if (args_.trace) {
    SetListeners(true);
    capture_->capturing = true;
    k0 = CaptureCounters(*cluster_);
    workers0 = WorkersCpu();
    wrapped0 = WrappedBytes();
    loadgen0 = ThreadCpuSeconds();
    double pcpu0 = ProcessCpuSeconds();
    probing_ = true;
    next_probe_us_ = NowUs();
    int64_t t2 = NowUs();
    phase_.store(kTraced);
    DriveUntil(t2 + window_us);
    phase_.store(kDrain);
    traced_s = static_cast<double>(NowUs() - t2) / 1e6;
    traced_cpu = ProcessCpuSeconds() - pcpu0;
    loadgen1 = ThreadCpuSeconds();
    probing_ = false;
    k1 = CaptureCounters(*cluster_);
    workers1 = WorkersCpu();
    wrapped1 = WrappedBytes();
    SetListeners(false);
    capture_->capturing = false;
  }
  Drain(report);
  if (!report.ok()) {
    return;
  }
  PhaseStats all = Merge(kUntraced);
  PhaseStats traced = Merge(kTraced);
  report.attempted = all.started + traced.started;
  report.failed = all.failed + traced.failed;
  ReportEndToEnd(report);
  if (!args_.trace) {
    return;
  }

  // --- per-layer metrics from the traced window ---
  double committed = static_cast<double>(std::max<uint64_t>(traced.committed, 1));
  if (write_replicate_) {
    report.NotApplicable("client.read_call_p50_us", "us");
    report.NotApplicable("client.read_call_p99_us", "us");
  } else {
    report.AddPercentiles("client.read_call", traced.read_call_us, "us", "wall");
  }
  report.AddPercentiles("client.commit_call", traced.commit_call_us, "us", "wall");
  report.Add("client.rpcs_per_tx",
             static_cast<double>(traced.rpcs) /
                 std::max<double>(1, static_cast<double>(traced.committed + traced.failed)),
             "ratio", "count");
  uint64_t retries = 0;
  uint64_t committed_all = 0;
  for (const auto& c : clients_) {
    retries += c->client->retries_sent();
    for (const PhaseStats& s : c->stats) {
      committed_all += s.committed;
    }
  }
  report.Add("client.retries_per_ktx",
             static_cast<double>(retries) * 1000.0 /
                 std::max<double>(1, static_cast<double>(committed_all)),
             "1/ktx", "count");
  Samples lag;
  for (Samples& s : post_lag_) {
    lag.Merge(s);
  }
  report.AddPercentiles("runtime.post_lag", lag, "us", "wall");
  report.Add("runtime.worker_busy_frac", (workers1 - workers0) / (traced_s * kWorkers), "frac",
             "wall");
  report.Add("runtime.driver_cpu_frac", (loadgen1 - loadgen0) / traced_s, "frac", "wall");

  Counters d = k1 - k0;
  AddServerMetrics(d, committed, report);
  report.Add("net.bytes_wrapped_per_tx", static_cast<double>(wrapped1 - wrapped0) / committed, "B",
             "count");
  report.Add("net.msgs_dropped", static_cast<double>(cluster_->net().messages_dropped()), "count",
             "count");
  report.Add("storage.wal_bytes_per_user_byte",
             static_cast<double>(d.wal_bytes) /
                 std::max<double>(1, static_cast<double>(traced.user_bytes)),
             "ratio", "count");
  uint64_t entries = 0;
  for (SiteId s = 0; s < cluster_->num_servers(); ++s) {
    entries += cluster_->server(s).store().TotalEntryCount();
  }
  report.Add("storage.history_entries", static_cast<double>(entries), "count", "count");

  std::vector<SpanListener*> listeners;
  for (auto& l : listeners_) {
    listeners.push_back(l.get());
  }
  std::vector<Span> client_spans;
  for (const auto& c : clients_) {
    client_spans.insert(client_spans.end(), c->spans.begin(), c->spans.end());
  }
  SpanSet spans = MergeSpans(listeners, std::move(client_spans));
  AddStageMetrics(spans, traced.commit_us, "wall", report);
  PrintStageTable(spans, traced.commit_us, "wall");
  if (!args_.spans_path.empty() && !WriteSpans(spans, args_.spans_path)) {
    report.Fail("could not write spans to " + args_.spans_path);
  }

  ReplayInputs replay;
  replay.records = capture_->TakeRecords();
  Rng key_rng(args_.seed ^ 0x5eed);
  for (int i = 0; i < 20000; ++i) {
    const std::vector<ContainerId>& own = local_[key_rng.Uniform(kSites)];
    replay.read_keys.push_back(
        ObjectId{own[key_rng.Uniform(own.size())], key_rng.Uniform(kPopulatedKeys)});
  }
  replay.frontier = cluster_->server(0).committed_vts();
  replay.mean_batch_records =
      d.batches_sent > 0 ? static_cast<double>(d.remote_applied) / d.batches_sent : 1;
  ReplayStorageAndCodec(replay, report);

  // Threaded mode runs no GC coordinator and no shared simulator.
  report.NotApplicable("gc.runs", "count");
  report.NotApplicable("gc.folded_entries_per_run", "ratio");
  report.NotApplicable("gc.wal_truncated_bytes", "B");
  report.NotApplicable("sim.events_per_tx", "ratio");
  report.NotApplicable("sim.events_per_s", "1/s");
  if (write_replicate_) {
    report.Add("load.late_p99_us", all.late_us.Percentile(99), "us", "wall", all.late_us.count());
    report.Add("load.late_max_us", all.late_us.Max(), "us", "wall", all.late_us.count());
  } else {
    report.NotApplicable("load.late_p99_us", "us");
    report.NotApplicable("load.late_max_us", "us");
  }
  double untraced_per_tx = untraced_cpu / std::max<double>(1, static_cast<double>(all.committed));
  double traced_per_tx = traced_cpu / committed;
  report.Add("trace.overhead_frac", traced_per_tx / untraced_per_tx - 1.0, "frac", "wall");
}

}  // namespace

void RunReadMostly(const Args& args, Report& report) { WallRun(args, false).Run(report); }

void RunWriteReplicate(const Args& args, Report& report) { WallRun(args, true).Run(report); }

}  // namespace perfbench
