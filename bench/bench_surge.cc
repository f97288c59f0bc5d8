// Overload and shedding: skewed/surging load against the admission-control +
// retry-budget defenses, plus the knee-finding sweep that calibrates them.
//
// Cells (each an independent simulation; merged output is byte-identical for
// any --jobs):
//
//   1. Knee sweep: constant offered rates, defenses on, 80% read / 20% write
//      over Zipf(1.1) keys. The knee is the offered rate with the highest
//      goodput; its goodput is the peak the degradation cells compare against.
//
//   2. Overload pair at 2x the knee: defenses on (admission rejects + client
//      retry budgets shed the excess; goodput must stay >= 50% of peak with
//      bounded p99 — the CI perf-smoke gate) and defenses off (every arrival
//      queues, RPC timeouts double the offered load, goodput collapses and
//      p99 runs away — recorded as the collapse_ratio).
//
//   3. Hot-key cells: Zipf s in {0.9, 1.1, 1.3} near the knee. Rising skew
//      concentrates writes on a few hot keys (lock conflicts, aborts) and
//      reads on one server's queue; the cells record how the defenses price
//      that in goodput/p99/sheds.
//
//   4. Flash crowd: base load steps 4x over a 200ms ramp, holds, steps back.
//      Asserts the surge drains: no parked read, gap-parked commit, admitted
//      token or lock survives the run.
//
//   5. Diurnal imbalance: two anti-phase sinusoidal schedules, one per site —
//      the geographic day/night skew — driven concurrently.
//
//   6. PSI under shedding: Zipf(1.3) read+write transactions above the knee
//      with defenses on; per-site commit logs and confirmed reads feed the
//      PSI checker, which must report zero violations — shedding may abort
//      transactions, never corrupt the ones that commit.
//
// Defenses are per-cell options here (ClusterOptions::server's admission
// knobs and ClusterOptions::client's overload retry budget); both default to
// off, so the figure benches never run them.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "src/psi/checker.h"
#include "src/workload/workload.h"

namespace walter {
namespace {

constexpr size_t kSites = 2;
constexpr uint64_t kKeys = 2048;  // per container
constexpr int kClientsPerSite = 32;
constexpr double kBaseRate = 60000.0;  // total ops/sec across both sites

struct SurgeCell {
  double offered_rate = 0;
  double goodput = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t admit_rejects = 0;
  uint64_t overload_retries = 0;
  uint64_t overload_sheds = 0;
  uint64_t cpu_queue_peak = 0;  // max over servers
  // Diurnal cell only: per-site goodput split.
  double site_goodput[kSites] = {0, 0};
};

struct CellSetup {
  ClusterOptions options;
  std::unique_ptr<Cluster> cluster;
  std::vector<WalterClient*> clients;         // all sites, grouped by site
  std::vector<WalterClient*> by_site[kSites];
};

// `observer` (optional) is attached before Populate so an attached checker
// sees every commit, including the populate transactions' values.
CellSetup MakeSetup(bool defenses, uint64_t seed,
                    WalterServer::CommitObserver observer = nullptr) {
  CellSetup setup;
  setup.options.num_sites = kSites;
  setup.options.seed = seed;
  setup.options.server.perf = PerfModel::Ec2();
  setup.options.server.disk = DiskConfig::Memory();
  // Impatient clients, the ingredient real overload collapse needs: once the
  // undefended queue delay crosses the RPC timeout, every waiting client
  // retransmits (the server does the work again), the queue compounds, and
  // responses land after the caller gave up. The defended cells keep the
  // queue an order of magnitude below this timeout.
  setup.options.client.rpc_timeout = Millis(100);
  if (defenses) {
    // Queue cap ~ 10ms of CPU backlog (Poisson bursts must not trip it below
    // the knee); inflight cap bounds concurrent admitted work; a small
    // refilling token bucket bounds each client's retry amplification under
    // a sustained surge.
    setup.options.server.admission_max_queue = 512;
    setup.options.server.admission_max_inflight = 2048;
    setup.options.client.overload_retry_tokens = 8;
    setup.options.client.overload_token_refill_per_s = 20.0;
  }
  setup.cluster = std::make_unique<Cluster>(setup.options);
  if (observer) {
    setup.cluster->ObserveCommits(std::move(observer));
  }
  for (SiteId s = 0; s < kSites; ++s) {
    WalterClient* populate = setup.cluster->AddClient(s);
    Populate(*setup.cluster, populate, /*container=*/s, kKeys, 100, 20);
    for (int c = 0; c < kClientsPerSite; ++c) {
      WalterClient* client = setup.cluster->AddClient(s);
      setup.clients.push_back(client);
      setup.by_site[s].push_back(client);
    }
  }
  return setup;
}

// 80% single-read / 20% single-write over Zipf keys; reads split across both
// containers (all replicated everywhere), writes stay in the client's local
// container so they fast-commit. Arrivals round-robin over `clients`.
WorkloadOpFactory MixFactory(std::vector<WalterClient*> clients, double zipf_s,
                             std::shared_ptr<Rng> rng, uint64_t seed) {
  auto picker = std::make_shared<ZipfKeyPicker>(kKeys, zipf_s, seed);
  auto next = std::make_shared<size_t>(0);
  return [clients = std::move(clients), picker, rng, next](std::function<void(bool)> done) {
    WalterClient* client = clients[(*next)++ % clients.size()];
    ContainerId local = client->site();
    auto tx = std::make_shared<Tx>(client);
    if (rng->NextDouble() < 0.8) {
      ContainerId c = rng->Bernoulli(0.5) ? local : (local + 1) % kSites;
      tx->Read(ObjectId{c, picker->Pick(*rng)},
               [tx, done = std::move(done)](Status s, std::optional<std::string>) {
                 if (!s.ok()) {
                   done(false);
                   return;
                 }
                 tx->Commit([tx, done = std::move(done)](Status s2) { done(s2.ok()); });
               });
    } else {
      tx->Write(ObjectId{local, picker->Pick(*rng)}, std::string(100, 'w'));
      tx->Commit([tx, done = std::move(done)](Status s) { done(s.ok()); });
    }
  };
}

// Nothing parked, admitted or locked may survive a drained cell: a leak here
// is exactly the class of bug the overload paths historically hid (re-parked
// reads counted twice, gap-parked commits unfindable by retransmissions).
void CheckNoLeaks(Cluster& cluster, const char* cell) {
  for (SiteId v = 0; v < static_cast<SiteId>(cluster.num_servers()); ++v) {
    const WalterServer& server = cluster.server(v);
    if (server.lock_count() != 0 || server.watermark_count() != 0 ||
        server.parked_read_count() != 0 || server.gap_commit_waiter_count() != 0 ||
        server.admitted_inflight() != 0) {
      std::fprintf(stderr,
                   "bench_surge: leak in cell %s at server %u after drain: %zu locks, "
                   "%zu watermarks, %zu parked reads, %zu gap waiters, %zu admitted\n",
                   cell, v, server.lock_count(), server.watermark_count(),
                   server.parked_read_count(), server.gap_commit_waiter_count(),
                   server.admitted_inflight());
      std::abort();
    }
  }
}

void FillCounters(CellSetup& setup, SurgeCell* cell) {
  for (SiteId v = 0; v < static_cast<SiteId>(setup.cluster->num_servers()); ++v) {
    const WalterServer::Stats& stats = setup.cluster->server(v).stats();
    cell->admit_rejects += stats.admit_rejects;
    cell->cpu_queue_peak = std::max(cell->cpu_queue_peak, stats.cpu_queue_peak);
  }
  for (WalterClient* client : setup.clients) {
    cell->overload_retries += client->overload_retries_sent();
    cell->overload_sheds += client->overload_sheds();
  }
}

void FillResult(const ScheduledLoadResult& result, SurgeCell* cell) {
  cell->offered_rate = result.OfferedRate();
  cell->goodput = result.Goodput();
  cell->completed = result.completed;
  cell->failed = result.failed;
  if (!result.latency.empty()) {
    LatencyRecorder latency = result.latency;  // Stats() sorts; keep result const
    LatencyRecorder::SummaryStats stats = latency.Stats();
    cell->p50_ms = stats.p50 / 1000.0;
    cell->p99_ms = stats.p99 / 1000.0;
  }
}

SurgeCell RunConstant(double rate, double zipf_s, bool defenses, uint64_t seed, bool quick,
                      const char* name) {
  SimDuration warmup = quick ? Millis(100) : Millis(300);
  SimDuration measure = quick ? Millis(300) : Seconds(1);

  CellSetup setup = MakeSetup(defenses, seed);
  auto rng = std::make_shared<Rng>(seed * 31 + 7);
  ScheduledLoad load(&setup.cluster->sim(), RateSchedule::Constant(rate),
                     MixFactory(setup.clients, zipf_s, rng, seed), seed);
  ScheduledLoadResult result = load.Run(warmup, measure, /*drain=*/Seconds(6));
  setup.cluster->RunFor(Seconds(5));

  SurgeCell cell;
  FillResult(result, &cell);
  FillCounters(setup, &cell);
  CheckNoLeaks(*setup.cluster, name);
  return cell;
}

SurgeCell RunFlashCrowd(double knee_rate, uint64_t seed, bool quick) {
  SimDuration warmup = quick ? Millis(100) : Millis(300);
  SimDuration measure = quick ? Millis(600) : Seconds(1.5);

  CellSetup setup = MakeSetup(/*defenses=*/true, seed);
  auto rng = std::make_shared<Rng>(seed * 31 + 7);
  // Half-knee base stepping 4x (to 2x the knee) shortly into the window.
  RateSchedule schedule = RateSchedule::FlashCrowd(
      knee_rate / 2, /*peak_mult=*/4.0, /*start=*/Millis(100), /*ramp=*/Millis(200),
      /*hold=*/quick ? Millis(200) : Millis(600));
  ScheduledLoad load(&setup.cluster->sim(), schedule, MixFactory(setup.clients, 1.1, rng, seed),
                     seed);
  ScheduledLoadResult result = load.Run(warmup, measure, /*drain=*/Seconds(6));
  setup.cluster->RunFor(Seconds(5));

  SurgeCell cell;
  FillResult(result, &cell);
  FillCounters(setup, &cell);
  CheckNoLeaks(*setup.cluster, "flash_crowd");
  return cell;
}

SurgeCell RunDiurnal(double knee_rate, uint64_t seed, bool quick) {
  SimDuration warmup = quick ? Millis(100) : Millis(300);
  SimDuration measure = quick ? Millis(600) : Seconds(2);

  CellSetup setup = MakeSetup(/*defenses=*/true, seed);
  // One "day" fits the measure window; the sites' peaks are anti-phase, so
  // while site 0 is at 1.8x its base, site 1 idles at 0.2x — the geographic
  // imbalance the preferred-site design leans on.
  std::vector<std::unique_ptr<ScheduledLoad>> drivers;
  for (SiteId s = 0; s < kSites; ++s) {
    auto rng = std::make_shared<Rng>(seed * 31 + 7 + s);
    RateSchedule schedule = RateSchedule::Diurnal(knee_rate / 4, /*amplitude=*/0.8, measure,
                                                  /*phase=*/s * 0.5);
    drivers.push_back(std::make_unique<ScheduledLoad>(
        &setup.cluster->sim(), schedule,
        MixFactory(setup.by_site[s], 1.1, rng, seed + s), seed + 100 * s));
  }
  SimTime start = setup.cluster->sim().Now() + warmup;
  for (auto& driver : drivers) {
    driver->Start(start, start + measure);
  }
  setup.cluster->sim().RunUntil(start + measure + Seconds(6));
  setup.cluster->RunFor(Seconds(5));

  SurgeCell cell;
  ScheduledLoadResult combined;
  combined.seconds = ToSeconds(measure);
  for (SiteId s = 0; s < kSites; ++s) {
    ScheduledLoadResult r = drivers[s]->result();
    cell.site_goodput[s] = r.Goodput();
    combined.offered += r.offered;
    combined.completed += r.completed;
    combined.failed += r.failed;
    // No cross-driver latency merge; report the worse site's percentiles.
    if (!r.latency.empty()) {
      LatencyRecorder::SummaryStats stats = r.latency.Stats();
      cell.p50_ms = std::max(cell.p50_ms, stats.p50 / 1000.0);
      cell.p99_ms = std::max(cell.p99_ms, stats.p99 / 1000.0);
    }
  }
  combined.latency.Clear();  // percentiles set above
  double p50 = cell.p50_ms;
  double p99 = cell.p99_ms;
  FillResult(combined, &cell);
  cell.p50_ms = p50;
  cell.p99_ms = p99;
  FillCounters(setup, &cell);
  CheckNoLeaks(*setup.cluster, "diurnal");
  return cell;
}

// PSI under shedding: like the chaos harness, per-site apply logs from the
// commit observer plus reads recorded only for confirmed transactions.
SurgeCell RunPsiCell(double knee_rate, uint64_t seed, bool quick, bool* psi_ok) {
  SimDuration warmup = quick ? Millis(100) : Millis(300);
  SimDuration measure = quick ? Millis(300) : Seconds(1);

  auto logs = std::make_shared<std::vector<std::vector<TxRecord>>>(kSites);
  CellSetup setup = MakeSetup(
      /*defenses=*/true, seed,
      [logs](SiteId site, const TxRecord& rec) { (*logs)[site].push_back(rec); });

  auto rng = std::make_shared<Rng>(seed * 31 + 7);
  auto picker = std::make_shared<ZipfKeyPicker>(kKeys, 1.3, seed);
  auto next = std::make_shared<size_t>(0);
  auto reads_by_tid =
      std::make_shared<std::unordered_map<TxId, std::vector<RecordedRead>>>();
  WorkloadOpFactory factory = [&setup, picker, rng, next,
                               reads_by_tid](std::function<void(bool)> done) {
    WalterClient* client = setup.clients[(*next)++ % setup.clients.size()];
    ContainerId local = client->site();
    auto tx = std::make_shared<Tx>(client);
    ObjectId read_oid{local, picker->Pick(*rng)};
    tx->Read(read_oid, [tx, client, local, read_oid, picker, rng, reads_by_tid,
                        done = std::move(done)](Status s, std::optional<std::string> v) {
      if (!s.ok()) {
        done(false);
        return;
      }
      std::vector<RecordedRead> reads;
      reads.push_back(RecordedRead{read_oid, false, std::move(v), {}});
      tx->Write(ObjectId{local, picker->Pick(*rng)}, "s" + std::to_string(tx->tid()));
      TxId tid = tx->tid();
      (*reads_by_tid)[tid] = std::move(reads);
      tx->Commit([tx, tid, reads_by_tid, done = std::move(done)](Status s2) {
        if (!s2.ok()) {
          // May or may not have committed server-side; unconfirmed reads are
          // not checkable.
          reads_by_tid->erase(tid);
        }
        done(s2.ok());
      });
    });
  };

  // Above the knee on purpose: the checker must hold while admission and the
  // retry budgets are actively shedding.
  ScheduledLoad load(&setup.cluster->sim(), RateSchedule::Constant(knee_rate * 1.5), factory,
                     seed);
  ScheduledLoadResult result = load.Run(warmup, measure, /*drain=*/Seconds(6));
  setup.cluster->RunFor(Seconds(5));

  PsiChecker checker(kSites);
  for (SiteId s = 0; s < kSites; ++s) {
    for (const TxRecord& rec : (*logs)[s]) {
      checker.OnApply(s, rec.tid);
    }
  }
  for (SiteId s = 0; s < kSites; ++s) {
    for (const TxRecord& rec : (*logs)[s]) {
      if (rec.origin != s) {
        continue;
      }
      RecordedTx recorded;
      recorded.record = rec;
      auto it = reads_by_tid->find(rec.tid);
      if (it != reads_by_tid->end()) {
        recorded.reads = it->second;
      }
      checker.OnCommit(std::move(recorded));
    }
  }
  Status psi = checker.Check();
  *psi_ok = psi.ok();
  if (!psi.ok()) {
    std::fprintf(stderr, "bench_surge: PSI violation under shedding: %s\n",
                 psi.ToString().c_str());
    std::abort();
  }

  SurgeCell cell;
  FillResult(result, &cell);
  FillCounters(setup, &cell);
  CheckNoLeaks(*setup.cluster, "psi_shedding");
  return cell;
}

std::vector<std::string> CellRow(const std::string& label, const SurgeCell& c) {
  return {label,
          TablePrinter::Fmt(c.offered_rate / 1000.0),
          TablePrinter::Fmt(c.goodput / 1000.0),
          TablePrinter::Fmt(c.p50_ms, 2),
          TablePrinter::Fmt(c.p99_ms, 2),
          std::to_string(c.admit_rejects),
          std::to_string(c.overload_sheds),
          std::to_string(c.cpu_queue_peak)};
}

}  // namespace
}  // namespace walter

int main(int argc, char** argv) {
  using walter::SurgeCell;
  using walter::TablePrinter;
  walter::BenchOptions opt = walter::ParseBenchArgs(argc, argv);

  const std::vector<double> rate_mults = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5};
  walter::ParallelRunner runner(opt.jobs);

  // Pass 1: knee sweep (defenses on).
  std::vector<SurgeCell> sweep = runner.Map<SurgeCell>(rate_mults.size(), [&](size_t i) {
    return walter::RunConstant(walter::kBaseRate * rate_mults[i], 1.1, /*defenses=*/true,
                               7000 + i, opt.quick, "sweep");
  });
  size_t knee = 0;
  for (size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].goodput > sweep[knee].goodput) {
      knee = i;
    }
  }
  double knee_rate = walter::kBaseRate * rate_mults[knee];
  double peak_goodput = sweep[knee].goodput;

  // Pass 2: the degradation/skew/surge cells, all calibrated to the knee.
  const std::vector<double> zipf_sweep = {0.9, 1.1, 1.3};
  bool psi_ok = false;
  std::vector<SurgeCell> cells = runner.Map<SurgeCell>(7, [&](size_t i) {
    switch (i) {
      case 0:
        return walter::RunConstant(2 * knee_rate, 1.1, /*defenses=*/true, 7100, opt.quick,
                                   "overload_on");
      case 1:
        return walter::RunConstant(2 * knee_rate, 1.1, /*defenses=*/false, 7100, opt.quick,
                                   "overload_off");
      case 2:
      case 3:
      case 4:
        return walter::RunConstant(knee_rate, zipf_sweep[i - 2], /*defenses=*/true,
                                   7200 + (i - 2), opt.quick, "hot_key");
      case 5:
        return walter::RunFlashCrowd(knee_rate, 7300, opt.quick);
      default:
        return walter::RunDiurnal(knee_rate, 7400, opt.quick);
    }
  });
  const SurgeCell& on = cells[0];
  const SurgeCell& off = cells[1];
  SurgeCell psi_cell = walter::RunPsiCell(knee_rate, 7500, opt.quick, &psi_ok);

  std::printf("=== Overload and shedding: %zu sites, admission control + retry budgets ===\n\n",
              walter::kSites);

  std::vector<std::string> headers = {"cell",        "offered Ktps", "goodput Ktps",
                                      "p50 (ms)",    "p99 (ms)",     "admit rejects",
                                      "client sheds", "queue peak"};
  std::printf("-- Knee sweep (defenses on, Zipf s=1.1) --\n");
  {
    TablePrinter table(headers);
    for (size_t i = 0; i < sweep.size(); ++i) {
      table.AddRow(walter::CellRow(TablePrinter::Fmt(rate_mults[i], 2) + "x base", sweep[i]));
    }
    std::printf("%s\n", table.Render().c_str());
  }

  std::printf("-- Surge cells (calibrated to knee = %.1f Ktps offered) --\n",
              knee_rate / 1000.0);
  {
    TablePrinter table(headers);
    table.AddRow(walter::CellRow("2x knee, defenses on", on));
    table.AddRow(walter::CellRow("2x knee, defenses off", off));
    table.AddRow(walter::CellRow("knee, zipf 0.9", cells[2]));
    table.AddRow(walter::CellRow("knee, zipf 1.1", cells[3]));
    table.AddRow(walter::CellRow("knee, zipf 1.3", cells[4]));
    table.AddRow(walter::CellRow("flash crowd 4x", cells[5]));
    table.AddRow(walter::CellRow("diurnal anti-phase", cells[6]));
    table.AddRow(walter::CellRow("1.5x knee, PSI-checked", psi_cell));
    std::printf("%s\n", table.Render().c_str());
  }

  double retained = peak_goodput > 0 ? on.goodput / peak_goodput : 0;
  double collapse = on.goodput > 0 ? off.goodput / on.goodput : 0;
  // A fully collapsed cell has zero in-window completions, hence no latency
  // samples — report that instead of a meaningless "p99 0ms".
  std::string off_p99 = off.completed > 0
                            ? "p99 " + TablePrinter::Fmt(off.p99_ms, 0) + "ms"
                            : std::string("zero in-window completions");
  std::printf(
      "Headline: at 2x the knee the defenses retain %.0f%% of peak goodput\n"
      "(acceptance: >= 50%%, p99 bounded) by rejecting at admission (%llu) and\n"
      "shedding at the client retry budget (%llu); with defenses off the same\n"
      "load keeps %.2fx of the defended goodput with %s (vs p99 %.0fms).\n"
      "PSI held under shedding: %s. Diurnal split: site0 %.1f / site1 %.1f Ktps.\n",
      retained * 100.0, static_cast<unsigned long long>(on.admit_rejects),
      static_cast<unsigned long long>(on.overload_sheds), collapse, off_p99.c_str(), on.p99_ms,
      psi_ok ? "yes" : "NO", cells[6].site_goodput[0] / 1000.0,
      cells[6].site_goodput[1] / 1000.0);

  walter::BenchJson json;
  json.Set("bench", std::string("surge"));
  json.Set("quick", opt.quick ? 1.0 : 0.0);
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::string key = "sweep_x" + std::to_string(static_cast<int>(rate_mults[i] * 100));
    json.Set(key + "_goodput", sweep[i].goodput);
    json.Set(key + "_p99_ms", sweep[i].p99_ms);
  }
  json.Set("knee_rate", knee_rate);
  json.Set("peak_goodput", peak_goodput);
  json.Set("overload_on_goodput", on.goodput);
  json.Set("overload_on_p99_ms", on.p99_ms);
  json.Set("overload_on_admit_rejects", static_cast<double>(on.admit_rejects));
  json.Set("overload_on_sheds", static_cast<double>(on.overload_sheds));
  json.Set("overload_on_retained_frac", retained);
  json.Set("overload_off_goodput", off.goodput);
  json.Set("overload_off_p99_ms", off.p99_ms);
  json.Set("overload_off_queue_peak", static_cast<double>(off.cpu_queue_peak));
  json.Set("collapse_ratio", collapse);
  const char* zkeys[3] = {"zipf_s09", "zipf_s11", "zipf_s13"};
  for (size_t i = 0; i < 3; ++i) {
    json.Set(std::string(zkeys[i]) + "_goodput", cells[2 + i].goodput);
    json.Set(std::string(zkeys[i]) + "_p99_ms", cells[2 + i].p99_ms);
    json.Set(std::string(zkeys[i]) + "_failed", static_cast<double>(cells[2 + i].failed));
  }
  json.Set("flash_goodput", cells[5].goodput);
  json.Set("flash_p99_ms", cells[5].p99_ms);
  json.Set("flash_admit_rejects", static_cast<double>(cells[5].admit_rejects));
  json.Set("diurnal_site0_goodput", cells[6].site_goodput[0]);
  json.Set("diurnal_site1_goodput", cells[6].site_goodput[1]);
  json.Set("psi_goodput", psi_cell.goodput);
  json.Set("psi_sheds", static_cast<double>(psi_cell.overload_sheds));
  json.Set("psi_ok", psi_ok ? 1.0 : 0.0);
  return json.WriteIfRequested(opt.json_path) ? 0 : 1;
}
