// geo_sim: the deterministic simulator with 4 EC2 sites, PerfModel::Ec2 and
// DiskConfig::Ec2, GC and checkpointing at their defaults. Each site receives
// an open loop of Poisson arrivals; the mix is 70% single-read, 25% two-write
// fast commit and 5% two-write slow commit (one write preferred at a remote
// site, so the commit runs WAN 2PC).
//
// The simulation is fixed work, so the run repeats it with the same seed until
// --seconds have passed. Every repetition must reproduce the same modelled
// latencies, commit counts and event count (the determinism check); the wall
// metrics are medians over the repetitions. A traced run spends half of
// --seconds on untraced repetitions, then makes one traced repetition, which
// must also agree.
#include <cmath>
#include <memory>

#include "perfbench/src/layers.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/cluster.h"

namespace perfbench {

using walter::Cluster;
using walter::ContainerId;
using walter::ObjectId;
using walter::Rng;
using walter::SimTime;
using walter::SiteId;
using walter::Status;
using walter::Tx;
using walter::WalterClient;

namespace {

constexpr size_t kSites = 4;
constexpr size_t kContainersPerSite = 4;
constexpr uint64_t kPopulatedKeys = 1000;
constexpr uint64_t kPopulateBatch = 50;
constexpr size_t kValueBytes = 100;
constexpr double kRatePerSite = 3000;
constexpr int kClientsPerSite = 16;
constexpr double kReadFraction = 0.70;
constexpr double kSlowFraction = 0.05;  // the rest (25%) are fast two-write commits
// Writers of different sites use disjoint key residues and cycle through
// this many slots per container, so a key is rewritten only seconds later.
constexpr uint64_t kKeySlots = 2048;
constexpr SimTime kWarmup = walter::Seconds(1);
constexpr SimTime kMeasure = walter::Seconds(10);
constexpr SimTime kSlice = walter::Seconds(1);
constexpr SimTime kDrainLimit = walter::Seconds(60);
constexpr size_t kReplicaSample = 64;

enum class TxKind : uint8_t { kRead, kFast, kSlow };

// Everything one repetition produces. The first group is deterministic.
struct Rep {
  uint64_t attempted = 0;  // in the measured window
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t committed_all = 0;  // whole load run, warmup and drain included
  uint64_t events = 0;         // simulator events over the load run
  Samples fast_us;
  Samples slow_us;
  Samples visible_us;
  // Wall-clock measurements. The measured window runs in slices of virtual
  // time; throughput and CPU per transaction are taken per slice.
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  std::vector<double> slice_tps;
  std::vector<double> slice_cpu_us;
};

ContainerId LocalContainer(SiteId site, uint64_t i) {
  return static_cast<ContainerId>(site + kSites * i);  // id % num_sites == site
}

class GeoRun {
 public:
  GeoRun(const Args& args, bool traced) : args_(args), traced_(traced) {}

  // Runs one repetition; failures go to `report`.
  Rep Run(Report& report);

  // Traced repetitions fill these for the per-layer report.
  Samples read_call_us;
  Samples commit_call_us;
  Samples commit_us;  // update transactions, first op -> commit callback
  std::vector<Span> client_spans;
  SpanListener listener;
  Counters delta;
  uint64_t rpcs = 0;
  uint64_t retries = 0;
  uint64_t user_bytes = 0;
  uint64_t wrapped = 0;
  uint64_t history_entries = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_folded = 0;
  uint64_t wal_truncated = 0;
  uint64_t dropped = 0;
  ReplayInputs replay;

 private:
  void Populate(Report& report);
  void Arrive(SiteId site);
  void Start(SiteId site, TxKind kind);

  const Args& args_;
  const bool traced_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CommitCapture> capture_;
  std::vector<std::vector<WalterClient*>> clients_;
  std::vector<size_t> next_client_;
  Rng rng_{1};
  std::vector<uint64_t> cursor_;  // [writer site * containers + container]
  SimTime load_start_ = 0;
  SimTime load_end_ = 0;
  int64_t outstanding_ = 0;
  int64_t visible_pending_ = 0;
  std::vector<ObjectId> written_;
  uint64_t bad_reads_ = 0;
  Rep rep_;
};

void GeoRun::Populate(Report& report) {
  int in_flight = 0;
  int failures = 0;
  for (SiteId s = 0; s < kSites; ++s) {
    WalterClient* client = cluster_->AddClient(s);
    for (uint64_t i = 0; i < kContainersPerSite; ++i) {
      ContainerId c = LocalContainer(s, i);
      for (uint64_t k = 0; k < kPopulatedKeys; k += kPopulateBatch) {
        auto tx = std::make_shared<Tx>(client);
        for (uint64_t j = k; j < k + kPopulateBatch; ++j) {
          tx->Write(ObjectId{c, j}, ValueFor(c * 1000003 + j, kValueBytes));
        }
        ++in_flight;
        tx->Commit([tx, &in_flight, &failures](Status st) {
          --in_flight;
          failures += st.ok() ? 0 : 1;
        });
      }
    }
  }
  while (in_flight > 0 && cluster_->sim().Step()) {
  }
  if (in_flight > 0 || failures > 0) {
    report.Fail("populate did not complete (" + std::to_string(failures) + " failed)");
  }
}

void GeoRun::Start(SiteId site, TxKind kind) {
  SimTime t0 = cluster_->sim().Now();
  bool measured = t0 >= load_start_ + kWarmup;
  bool record = measured && traced_;
  rep_.attempted += measured ? 1 : 0;
  WalterClient* client = clients_[site][next_client_[site]++ % clients_[site].size()];
  auto tx = std::make_shared<Tx>(client);
  ++outstanding_;
  auto done = [this, tx, t0, site, measured, record, kind](Status s, SimTime call) {
    SimTime t1 = cluster_->sim().Now();
    --outstanding_;
    if (record) {
      commit_call_us.Add(static_cast<double>(t1 - call));
      rpcs += tx->rpcs_issued();
      client_spans.push_back(
          Span{tx->tid(), call, t1, static_cast<uint8_t>(site), Stage::kClientCommit});
    }
    if (!s.ok()) {
      rep_.failed += measured ? 1 : 0;
      return false;
    }
    ++rep_.committed_all;
    if (measured) {
      ++rep_.committed;
      double latency = static_cast<double>(t1 - t0);
      if (kind == TxKind::kFast) {
        rep_.fast_us.Add(latency);
      } else if (kind == TxKind::kSlow) {
        rep_.slow_us.Add(latency);
      }
      if (record && kind != TxKind::kRead) {
        commit_us.Add(latency);
      }
    }
    return true;
  };

  if (kind == TxKind::kRead) {
    ObjectId oid{LocalContainer(site, rng_.Uniform(kContainersPerSite)),
                 rng_.Uniform(kPopulatedKeys)};
    tx->Read(oid, [this, tx, t0, record, done](Status s, std::optional<std::string> v) {
      SimTime t1 = cluster_->sim().Now();
      if (record) {
        read_call_us.Add(static_cast<double>(t1 - t0));
      }
      if (s.ok() && (!v.has_value() || v->size() != kValueBytes)) {
        ++bad_reads_;
      }
      if (!s.ok()) {
        done(s, t1);
        return;
      }
      tx->Commit([done, t1](Status s2) { done(s2, t1); });
    });
    return;
  }

  // Two writes: both in one local container (fast), or one local and one in a
  // container preferred at another site (slow, WAN 2PC).
  ContainerId first = LocalContainer(site, rng_.Uniform(kContainersPerSite));
  ContainerId second = first;
  if (kind == TxKind::kSlow) {
    SiteId remote = static_cast<SiteId>((site + 1 + rng_.Uniform(kSites - 1)) % kSites);
    second = LocalContainer(remote, rng_.Uniform(kContainersPerSite));
  }
  ObjectId oids[2];
  for (int i = 0; i < 2; ++i) {
    ContainerId c = i == 0 ? first : second;
    uint64_t& cur = cursor_[site * (kSites * kContainersPerSite) + c];
    oids[i] = ObjectId{c, site + kSites * (kPopulatedKeys + cur++ % kKeySlots)};
    tx->Write(oids[i], ValueFor(tx->tid() + static_cast<uint64_t>(i), kValueBytes));
  }
  if (record) {
    user_bytes += 2 * kValueBytes;
  }
  ++visible_pending_;
  auto times = std::make_shared<std::pair<SimTime, SimTime>>(0, 0);  // commit, visible
  auto record_visible = [this, measured, times]() {
    if (measured) {
      rep_.visible_us.Add(static_cast<double>(times->second - times->first));
    }
  };
  Tx::CommitOptions options;
  options.on_visible = [this, times, record_visible]() {
    times->second = cluster_->sim().Now();
    if (times->first != 0) {
      record_visible();
    }
    --visible_pending_;
  };
  SimTime call = cluster_->sim().Now();
  ObjectId sample = oids[kind == TxKind::kSlow ? 1 : 0];
  tx->Commit(
      [this, done, call, times, record_visible, sample](Status s) {
        if (!done(s, call)) {
          --visible_pending_;  // a failed commit never becomes visible
          return;
        }
        times->first = cluster_->sim().Now();
        if (times->second != 0) {
          record_visible();
        }
        if (written_.size() < kReplicaSample) {
          written_.push_back(sample);
        }
      },
      std::move(options));
}

void GeoRun::Arrive(SiteId site) {
  SimTime now = cluster_->sim().Now();
  if (now >= load_end_) {
    return;
  }
  double u = rng_.NextDouble();
  TxKind kind = u < kReadFraction                   ? TxKind::kRead
                : u < kReadFraction + kSlowFraction ? TxKind::kSlow
                                                    : TxKind::kFast;
  Start(site, kind);
  auto gap = static_cast<SimTime>(-std::log(1.0 - rng_.NextDouble()) / kRatePerSite * 1e6);
  cluster_->sim().After(gap, [this, site]() { Arrive(site); });
}

Rep GeoRun::Run(Report& report) {
  int64_t t0 = NowUs();
  walter::ClusterOptions options;
  options.num_sites = kSites;
  options.seed = args_.seed;
  options.server.perf = walter::PerfModel::Ec2();
  options.server.disk = walter::DiskConfig::Ec2();
  cluster_ = std::make_unique<Cluster>(options);
  if (traced_) {
    capture_ = std::make_unique<CommitCapture>(cluster_->num_servers());
    capture_->Install(*cluster_);
    capture_->capturing = true;
  }
  Populate(report);
  clients_.assign(kSites, {});
  next_client_.assign(kSites, 0);
  for (SiteId s = 0; s < kSites; ++s) {
    for (int i = 0; i < kClientsPerSite; ++i) {
      clients_[s].push_back(cluster_->AddClient(s));
    }
  }
  rep_.setup_s = static_cast<double>(NowUs() - t0) / 1e6;
  if (!WaitReplicated(*cluster_, 30)) {
    report.Fail("populate did not replicate within 30 virtual s");
  }
  if (!report.ok()) {
    return rep_;
  }

  rng_ = Rng(args_.seed * 0x9e3779b97f4a7c15ULL + 3);
  cursor_.assign(kSites * kSites * kContainersPerSite, 0);
  Counters before = CaptureCounters(*cluster_);
  uint64_t wrapped0 = walter::Payload::bytes_wrapped();
  if (traced_) {
    walter::Tracer::Get().SetListener(&listener);
  }
  size_t events0 = cluster_->sim().events_processed();
  double cpu0 = ProcessCpuSeconds();
  int64_t run0 = NowUs();

  load_start_ = cluster_->sim().Now();
  load_end_ = load_start_ + kWarmup + kMeasure;
  for (SiteId s = 0; s < kSites; ++s) {
    cluster_->sim().After(0, [this, s]() { Arrive(s); });
  }
  cluster_->RunFor(kWarmup);
  for (SimTime t = 0; t < kMeasure; t += kSlice) {
    uint64_t committed = rep_.committed_all;
    double cpu = ProcessCpuSeconds();
    int64_t start = NowUs();
    cluster_->RunFor(kSlice);
    rep_.slice_tps.push_back(static_cast<double>(rep_.committed_all - committed) * 1e6 /
                             static_cast<double>(NowUs() - start));
    rep_.slice_cpu_us.push_back((ProcessCpuSeconds() - cpu) * 1e6 /
                                static_cast<double>(rep_.committed_all - committed));
  }
  SimTime drain_deadline = cluster_->sim().Now() + kDrainLimit;
  while ((outstanding_ > 0 || visible_pending_ > 0) && cluster_->sim().Now() < drain_deadline) {
    cluster_->RunFor(walter::Millis(10));
  }

  rep_.run_s = static_cast<double>(NowUs() - run0) / 1e6;
  rep_.cpu_s = ProcessCpuSeconds() - cpu0;
  rep_.events = cluster_->sim().events_processed() - events0;
  if (traced_) {
    walter::Tracer::Get().SetListener(nullptr);
    capture_->capturing = false;
  }
  wrapped = walter::Payload::bytes_wrapped() - wrapped0;
  delta = CaptureCounters(*cluster_) - before;

  if (outstanding_ > 0 || visible_pending_ > 0) {
    report.Fail("client transactions stuck after the drain: " + std::to_string(outstanding_) +
                " unresolved, " + std::to_string(visible_pending_) + " visibility callbacks");
  }
  if (!WaitReplicated(*cluster_, 30)) {
    report.Fail("sites did not converge on one CommittedVTS within 30 virtual s");
  }
  if (!WaitNoLocks(*cluster_, 30)) {
    report.Fail("locks or watermarks still held 30 virtual s after the drain");
  }
  CheckQuiescent(*cluster_, written_, report);
  if (bad_reads_ != 0) {
    report.Fail(std::to_string(bad_reads_) + " reads of populated keys returned a wrong value");
  }

  for (auto& site : clients_) {
    for (WalterClient* c : site) {
      retries += c->retries_sent();
    }
  }
  dropped = cluster_->net().messages_dropped();
  for (SiteId s = 0; s < cluster_->num_servers(); ++s) {
    history_entries += cluster_->server(s).store().TotalEntryCount();
    gc_folded += cluster_->server(s).stats().gc_folded_entries;
    wal_truncated += cluster_->server(s).stats().wal_truncated_bytes;
  }
  if (cluster_->gc() != nullptr) {
    gc_runs = cluster_->gc()->runs();
  }
  if (traced_) {
    Status psi = capture_->Check();
    if (!psi.ok()) {
      report.Fail("PSI checker: " + psi.ToString());
    }
    std::printf("PSI checker: %zu sampled transactions checked\n", capture_->checked());
    replay.records = capture_->TakeRecords();
    Rng key_rng(args_.seed ^ 0x5eed);
    for (int i = 0; i < 20000; ++i) {
      replay.read_keys.push_back(ObjectId{
          LocalContainer(static_cast<SiteId>(key_rng.Uniform(kSites)),
                         key_rng.Uniform(kContainersPerSite)),
          key_rng.Uniform(kPopulatedKeys)});
    }
    replay.frontier = cluster_->gc() != nullptr ? cluster_->gc()->last_frontier()
                                                : cluster_->server(0).committed_vts();
    replay.mean_batch_records = delta.batches_sent > 0 ? static_cast<double>(delta.remote_applied) /
                                                             static_cast<double>(delta.batches_sent)
                                                       : 1;
  }
  return rep_;
}

bool SameModel(Rep& a, Rep& b) {
  auto same = [](Samples& x, Samples& y) {
    return x.count() == y.count() && x.Percentile(50) == y.Percentile(50) &&
           x.Percentile(99) == y.Percentile(99);
  };
  return a.attempted == b.attempted && a.committed == b.committed && a.failed == b.failed &&
         a.events == b.events && same(a.fast_us, b.fast_us) && same(a.slow_us, b.slow_us) &&
         same(a.visible_us, b.visible_us);
}

}  // namespace

void RunGeoSim(const Args& args, Report& report) {
  std::vector<Rep> reps;
  std::unique_ptr<GeoRun> traced;
  int64_t start = NowUs();
  auto budget = static_cast<int64_t>(args.seconds * 1e6);
  // Untraced repetitions fill the budget (half of it in a traced run, whose
  // last repetition is the traced one); at least two, for the determinism check.
  int64_t untraced_budget = args.trace ? budget / 2 : budget;
  do {
    reps.push_back(GeoRun(args, false).Run(report));
  } while (report.ok() && (reps.size() < 2 || NowUs() - start < untraced_budget));
  if (args.trace && report.ok()) {
    traced = std::make_unique<GeoRun>(args, true);
    reps.push_back(traced->Run(report));
  }
  if (!report.ok()) {
    return;
  }
  for (size_t i = 1; i < reps.size(); ++i) {
    if (!SameModel(reps[0], reps[i])) {
      report.Fail("repetition " + std::to_string(i) +
                  " with the same seed diverged from the first (determinism)");
      return;
    }
  }
  Rep& r = reps[0];
  std::vector<double> setup;
  std::vector<double> tps;
  std::vector<double> cpu;
  for (const Rep& x : reps) {
    setup.push_back(x.setup_s);
    if (!(args.trace && &x == &reps.back())) {
      tps.insert(tps.end(), x.slice_tps.begin(), x.slice_tps.end());
      cpu.insert(cpu.end(), x.slice_cpu_us.begin(), x.slice_cpu_us.end());
    }
  }
  for (const Rep& x : reps) {
    report.attempted += x.attempted;
    report.failed += x.failed;
  }
  std::printf("geo_sim: %zu repetitions, %llu committed per repetition, identical model output\n",
              reps.size(), static_cast<unsigned long long>(r.committed_all));
  report.Add("setup_s", Median(setup), "s", "wall", setup.size());
  report.Add("tx_per_s", Median(tps), "1/s", "wall", tps.size());
  report.Add("cpu_us_per_tx", Median(cpu), "us", "wall", cpu.size());
  for (const char* name : {"commit_p50_us", "commit_p99_us", "visible_p50_us", "visible_p99_us"}) {
    report.NotApplicable(name, "us");
  }
  report.Add("failed_frac",
             static_cast<double>(r.failed) / std::max<double>(1, static_cast<double>(r.attempted)),
             "frac", "both");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB", "wall");
  report.AddPercentiles("model_fast_commit", r.fast_us, "ms", "model", 1e-3);
  report.AddPercentiles("model_slow_commit", r.slow_us, "ms", "model", 1e-3);
  report.AddPercentiles("model_visible", r.visible_us, "ms", "model", 1e-3);
  if (!args.trace) {
    return;
  }

  // --- per-layer metrics from the traced repetition ---
  GeoRun& t = *traced;
  Rep& tr = reps.back();
  double committed = static_cast<double>(std::max<uint64_t>(tr.committed_all, 1));
  report.AddPercentiles("client.read_call", t.read_call_us, "us", "model");
  report.AddPercentiles("client.commit_call", t.commit_call_us, "us", "model");
  report.Add("client.rpcs_per_tx",
             static_cast<double>(t.rpcs) /
                 std::max<double>(1, static_cast<double>(tr.committed + tr.failed)),
             "ratio", "count");
  report.Add("client.retries_per_ktx", static_cast<double>(t.retries) * 1000.0 / committed,
             "1/ktx", "count");
  report.NotApplicable("runtime.post_lag_p50_us", "us");
  report.NotApplicable("runtime.post_lag_p99_us", "us");
  report.NotApplicable("runtime.worker_busy_frac", "frac");
  report.NotApplicable("runtime.driver_cpu_frac", "frac");
  AddServerMetrics(t.delta, committed, report);
  report.Add("net.bytes_wrapped_per_tx", static_cast<double>(t.wrapped) / committed, "B", "count");
  report.Add("net.msgs_dropped", static_cast<double>(t.dropped), "count", "count");
  report.Add("storage.wal_bytes_per_user_byte",
             static_cast<double>(t.delta.wal_bytes) /
                 std::max<double>(1, static_cast<double>(t.user_bytes)),
             "ratio", "count");
  report.Add("storage.history_entries", static_cast<double>(t.history_entries), "count", "count");

  SpanSet spans = MergeSpans({&t.listener}, std::move(t.client_spans));
  AddStageMetrics(spans, t.commit_us, "model", report);
  PrintStageTable(spans, t.commit_us, "model");
  if (!args.spans_path.empty() && !WriteSpans(spans, args.spans_path)) {
    report.Fail("could not write spans to " + args.spans_path);
  }
  ReplayStorageAndCodec(t.replay, report);

  report.Add("gc.runs", static_cast<double>(t.gc_runs), "count", "count");
  report.Add("gc.folded_entries_per_run",
             static_cast<double>(t.gc_folded) / std::max<double>(1, static_cast<double>(t.gc_runs)),
             "ratio", "count");
  report.Add("gc.wal_truncated_bytes", static_cast<double>(t.wal_truncated), "B", "count");
  report.Add("sim.events_per_tx", static_cast<double>(tr.events) / committed, "ratio", "count");
  report.Add("sim.events_per_s", static_cast<double>(r.events) / r.run_s, "1/s", "wall");
  // Arrivals are simulator events at their exact due time: lateness is zero
  // by construction in modelled time.
  report.Add("load.late_p99_us", 0, "us", "model");
  report.Add("load.late_max_us", 0, "us", "model");
  double untraced = r.cpu_s / static_cast<double>(std::max<uint64_t>(r.committed_all, 1));
  double traced_cpu = tr.cpu_s / committed;
  report.Add("trace.overhead_frac", traced_cpu / untraced - 1.0, "frac", "wall");
}

}  // namespace perfbench
