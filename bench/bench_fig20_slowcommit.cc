// Figure 20 — Latency of slow commit and of reaching disaster-safe durability.
//
// Setup per Section 8.5: 4 sites; write-only transactions issued at VA with 2,
// 3 or 4 objects, each object preferred at a different site (VA, CA, IE, SG in
// that order), so commit runs two-phase commit among those preferred sites.
//
// Paper's result: commit latency = RTT from VA to the farthest written
// object's preferred site (82 ms for size 2 -> CA, 87 ms for size 3 -> IE,
// 261 ms for size 4 -> SG); DS-durable latency adds the usual replication
// delay of U[RTTmax, 2*RTTmax] on top.
//
// Beyond the paper's figure, two opt-in sweeps (see docs/CONSISTENCY.md):
//
//   --clock-commit  Dependent-chain comparison of classic vs clock-ordered
//                   slow commit. Each chain issues back-to-back slow commits
//                   to one SG-preferred object from VA; each commit's
//                   snapshot sees the previous one, so under classic early
//                   release the participant falsely votes no on the previous
//                   commit's still-live watermark and the client pays
//                   abort/retry round trips. The clock-ordered path holds the
//                   prepare until the participant clock passes commit_ts and
//                   admits snapshot-covered watermarks, so the chain step
//                   costs one prepare round trip. Reports retry-inclusive
//                   time-to-successful-commit.
//
//   --mode psi|nmsi|ser (repeatable)  Consistency-mode tradeoff: readers at
//                   SG read a hot object that VA writers keep decided-but-
//                   unapplied (live watermark) and commit a private write.
//                   PSI parks the read until the watermark clears; NMSI
//                   serves the latest applied version instead; serializable
//                   additionally validates the read through commit, aborting
//                   when the hot object moved. Reports commit p50 + abort
//                   rate per mode.
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench/harness.h"

namespace walter {
namespace {

constexpr uint64_t kKeys = 10'000;

struct SizeResult {
  LatencyRecorder commit;
  LatencyRecorder durable;
};

SizeResult RunSize(size_t tx_size) {
  ClusterOptions options;
  options.num_sites = 4;
  options.server.perf = PerfModel::Ec2();
  options.server.disk = DiskConfig::Ec2();
  Cluster cluster(options);
  for (SiteId s = 0; s < 4; ++s) {
    Populate(cluster, cluster.AddClient(s), s, kKeys, 100, 20);
  }

  auto rng = std::make_shared<Rng>(tx_size * 1000 + 5);
  auto result = std::make_shared<SizeResult>();
  WalterClient* client = cluster.AddClient(0);  // all transactions issued at VA

  auto factory = [&, client](std::function<void(bool)> done) {
    auto tx = std::make_shared<Tx>(client);
    // Object i has preferred site i (containers are laid out per site). Use
    // disjoint key ranges per client to avoid self-inflicted aborts.
    for (size_t i = 0; i < tx_size; ++i) {
      tx->Write(ObjectId{static_cast<ContainerId>(i), rng->Uniform(kKeys)},
                std::string(100, 's'));
    }
    SimTime begin = cluster.sim().Now();
    Tx::CommitOptions opts;
    opts.on_durable = [tx, begin, result, &cluster]() {
      result->durable.Add(static_cast<double>(cluster.sim().Now() - begin));
    };
    tx->Commit(
        [tx, begin, result, &cluster, done = std::move(done)](Status s) {
          if (s.ok()) {
            result->commit.Add(static_cast<double>(cluster.sim().Now() - begin));
          }
          done(s.ok());
        },
        opts);
  };

  OpenLoopLoad load(&cluster.sim(), 50, factory);
  load.Run(Seconds(1), Seconds(20));
  return std::move(*result);
}

// --- Dependent-chain sweep (--clock-commit) ----------------------------------

// A cluster whose WAN propagation is coarsely batched: the window in which a
// decided version is watermarked but not yet applied at the participant — the
// window classic early release falsely aborts dependent commits in — is the
// batch interval, not the 2ms default.
ClusterOptions ChainOptions(bool clock_commit) {
  ClusterOptions options;
  options.num_sites = 4;
  options.server.perf = PerfModel::Ec2();
  options.server.disk = DiskConfig::Ec2();
  options.server.min_batch_interval = Millis(250);
  options.server.clock_commit = clock_commit;
  return options;
}

struct ChainResult {
  LatencyRecorder step;  // retry-inclusive time-to-successful-commit
  uint64_t steps = 0;
  uint64_t aborts = 0;
};

ChainResult RunChains(bool clock_commit, bool quick) {
  Cluster cluster(ChainOptions(clock_commit));
  Populate(cluster, cluster.AddClient(3), 3, 256, 100, 20);

  constexpr size_t kChains = 8;
  constexpr SimDuration kThink = Millis(5);
  auto result = std::make_shared<ChainResult>();
  SimTime warmup = Seconds(2);
  SimTime horizon = warmup + (quick ? Seconds(8) : Seconds(30));

  // Each chain: one VA client committing back-to-back writes to its own
  // SG-preferred object, retrying (fresh Tx, fresh snapshot) until the step
  // commits; a short think time separates steps so the next prepare trails
  // the previous decision instead of racing it.
  struct Chain {
    WalterClient* client;
    ObjectId oid;
  };
  auto chains = std::make_shared<std::vector<Chain>>();
  for (size_t c = 0; c < kChains; ++c) {
    chains->push_back({cluster.AddClient(0), ObjectId{3, 1000 + c}});
  }

  std::function<void(size_t, SimTime)> attempt = [&, result, chains](size_t c, SimTime begin) {
    auto tx = std::make_shared<Tx>((*chains)[c].client);
    tx->Write((*chains)[c].oid, std::string(100, 'c'));
    tx->Commit([&, result, chains, c, begin, tx](Status s) {
      SimTime now = cluster.sim().Now();
      if (now >= horizon) {
        return;  // measurement over; let the simulation drain
      }
      if (!s.ok()) {
        if (now >= warmup) {
          ++result->aborts;
        }
        cluster.sim().After(kThink, [&, c, begin]() { attempt(c, begin); });
        return;
      }
      if (begin >= warmup) {
        result->step.Add(static_cast<double>(now - begin));
        ++result->steps;
      }
      cluster.sim().After(kThink, [&, c]() { attempt(c, cluster.sim().Now()); });
    });
  };
  for (size_t c = 0; c < kChains; ++c) {
    cluster.sim().After(kThink * (c + 1), [&, c]() { attempt(c, cluster.sim().Now()); });
  }
  cluster.RunFor(horizon + Seconds(5));
  return std::move(*result);
}

// --- Consistency-mode sweep (--mode) -----------------------------------------

struct ModeResult {
  LatencyRecorder commit;  // reader transaction commit latency (successes)
  uint64_t committed = 0;
  uint64_t aborted = 0;

  double AbortRate() const {
    uint64_t total = committed + aborted;
    return total > 0 ? static_cast<double>(aborted) / static_cast<double>(total) : 0;
  }
};

ModeResult RunMode(ConsistencyMode mode, bool quick) {
  Cluster cluster(ChainOptions(/*clock_commit=*/false));
  // The hot container is preferred at SG and replicated ONLY there, so VA
  // readers take the remote-read path: their VA-pinned snapshot covers the
  // writers' just-decided commits, and the read lands on SG's live watermark.
  cluster.UpsertContainerEverywhere(ContainerInfo{3, 3, {3}});
  Populate(cluster, cluster.AddClient(3), 3, 256, 100, 20);

  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 8;
  constexpr SimDuration kThink = Millis(5);
  SimTime warmup = Seconds(2);
  SimTime horizon = warmup + (quick ? Seconds(8) : Seconds(30));
  auto result = std::make_shared<ModeResult>();

  // Writers at VA keep their SG-preferred objects perpetually freshly
  // decided: at SG each object cycles through live-watermark windows the
  // readers then hit.
  auto writer_clients = std::make_shared<std::vector<WalterClient*>>();
  for (size_t w = 0; w < kWriters; ++w) {
    writer_clients->push_back(cluster.AddClient(0));
  }
  std::function<void(size_t)> write_step = [&, writer_clients](size_t w) {
    auto tx = std::make_shared<Tx>((*writer_clients)[w]);
    tx->Write(ObjectId{3, 2000 + w}, std::string(100, 'w'));
    tx->Commit([&, w, tx](Status) {
      if (cluster.sim().Now() >= horizon) {
        return;
      }
      cluster.sim().After(kThink, [&, w]() { write_step(w); });
    });
  };

  // Readers at VA: pin a snapshot with a local read (it covers the writers'
  // commits the moment VA decides them), then remote-read one hot SG-only
  // object — the read reaches SG carrying a snapshot that covers the decided
  // version. That is exactly what PSI parks on (until the propagation batch
  // applies it), NMSI reads through, and serializable additionally validates
  // at commit (widening the 2PC to SG). The private write stays VA-preferred.
  auto reader_clients = std::make_shared<std::vector<WalterClient*>>();
  for (size_t r = 0; r < kReaders; ++r) {
    reader_clients->push_back(cluster.AddClient(0));
  }
  auto rng = std::make_shared<Rng>(99);
  std::function<void(size_t)> read_step = [&, reader_clients, rng, result, mode](size_t r) {
    auto tx = std::make_shared<Tx>((*reader_clients)[r]);
    tx->SetMode(mode);
    SimTime begin = cluster.sim().Now();
    ObjectId pin{0, 4000 + r};
    // Half the reads hit a writer-contended object (PSI parks, NMSI reads
    // through, serializable validation races the writers), half hit a quiet
    // one (every mode commits) — so serializable shows an abort *rate*, not
    // a wall of aborts.
    ObjectId hot{3, 2000 + rng->Uniform(2 * kWriters)};
    tx->Read(pin, [&, r, tx, hot, begin, result](Status, std::optional<std::string>) {
      tx->Read(hot, [&, r, tx, begin, result](Status, std::optional<std::string>) {
        tx->Write(ObjectId{0, 3000 + r}, std::string(100, 'r'));
        tx->Commit([&, r, tx, begin, result](Status s) {
          SimTime now = cluster.sim().Now();
          if (now >= horizon) {
            return;
          }
          if (begin >= warmup) {
            if (s.ok()) {
              result->commit.Add(static_cast<double>(now - begin));
              ++result->committed;
            } else {
              ++result->aborted;
            }
          }
          cluster.sim().After(kThink, [&, r]() { read_step(r); });
        });
      });
    });
  };

  for (size_t w = 0; w < kWriters; ++w) {
    cluster.sim().After(kThink * (w + 1), [&, w]() { write_step(w); });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    cluster.sim().After(Millis(50) + kThink * r, [&, r]() { read_step(r); });
  }
  cluster.RunFor(horizon + Seconds(5));
  return std::move(*result);
}

}  // namespace
}  // namespace walter

int main(int argc, char** argv) {
  using namespace walter;
  BenchOptions bench = ParseBenchArgs(argc, argv);
  bool clock_sweep = false;
  std::vector<ConsistencyMode> modes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clock-commit") == 0) {
      clock_sweep = true;
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      const char* m = argv[++i];
      if (std::strcmp(m, "psi") == 0) {
        modes.push_back(ConsistencyMode::kPsi);
      } else if (std::strcmp(m, "nmsi") == 0) {
        modes.push_back(ConsistencyMode::kNmsi);
      } else if (std::strcmp(m, "ser") == 0) {
        modes.push_back(ConsistencyMode::kSerializable);
      } else {
        std::fprintf(stderr, "unknown --mode %s (psi|nmsi|ser)\n", m);
        return 2;
      }
    }
  }
  BenchJson json;

  std::printf("=== Figure 20: slow commit and disaster-safe durability latency ===\n");
  std::printf("(write-only txns at VA; objects preferred at VA, CA, IE, SG in order)\n\n");

  const char* expected_commit[] = {"~82 (VA-CA RTT)", "~87 (VA-IE RTT)", "~261 (VA-SG RTT)"};
  std::vector<SizeResult> results;
  for (size_t size = 2; size <= 4; ++size) {
    results.push_back(RunSize(size));
    SizeResult& r = results.back();
    std::printf("tx size=%zu: commit p50=%.0fms (paper %s)   ds-durable p50=%.0fms\n", size,
                r.commit.Percentile(50) / 1000.0, expected_commit[size - 2],
                r.durable.Percentile(50) / 1000.0);
    json.Set("size" + std::to_string(size) + ".commit_p50_ms", r.commit.Percentile(50) / 1000.0);
    json.Set("size" + std::to_string(size) + ".durable_p50_ms",
             r.durable.Percentile(50) / 1000.0);
  }
  std::printf("\n");
  for (size_t size = 2; size <= 4; ++size) {
    PrintCdf("commit(size=" + std::to_string(size) + ")", results[size - 2].commit, 10);
  }
  for (size_t size = 2; size <= 4; ++size) {
    PrintCdf("ds-durable(size=" + std::to_string(size) + ")", results[size - 2].durable, 10);
  }
  std::printf("Expected shape: commit latency tracks the farthest preferred site's RTT;\n"
              "durability adds U[RTTmax, 2*RTTmax] replication delay on top.\n");

  if (clock_sweep) {
    std::printf("\n=== Clock-ordered slow commit: dependent chains VA -> SG ===\n");
    std::printf("(time-to-successful-commit per chain step, retries included)\n\n");
    ChainResult classic = RunChains(/*clock_commit=*/false, bench.quick);
    ChainResult clocked = RunChains(/*clock_commit=*/true, bench.quick);
    double classic_p50 = classic.step.Percentile(50) / 1000.0;
    double clocked_p50 = clocked.step.Percentile(50) / 1000.0;
    double ratio = clocked_p50 > 0 ? classic_p50 / clocked_p50 : 0;
    std::printf("classic:       p50=%.0fms  steps=%llu  aborts=%llu\n", classic_p50,
                static_cast<unsigned long long>(classic.steps),
                static_cast<unsigned long long>(classic.aborts));
    std::printf("clock-ordered: p50=%.0fms  steps=%llu  aborts=%llu\n", clocked_p50,
                static_cast<unsigned long long>(clocked.steps),
                static_cast<unsigned long long>(clocked.aborts));
    std::printf("speedup (classic/clock p50): %.2fx\n", ratio);
    json.Set("chain.classic_p50_ms", classic_p50);
    json.Set("chain.classic_aborts", static_cast<double>(classic.aborts));
    json.Set("chain.clock_p50_ms", clocked_p50);
    json.Set("chain.clock_aborts", static_cast<double>(clocked.aborts));
    json.Set("chain.speedup", ratio);
  }

  for (ConsistencyMode mode : modes) {
    ModeResult r = RunMode(mode, bench.quick);
    double p50 = r.commit.Percentile(50) / 1000.0;
    std::printf("\nmode=%s: reader commit p50=%.1fms  committed=%llu  abort-rate=%.3f\n",
                ConsistencyModeName(mode), p50,
                static_cast<unsigned long long>(r.committed), r.AbortRate());
    std::string prefix = std::string("mode.") + ConsistencyModeName(mode);
    json.Set(prefix + ".commit_p50_ms", p50);
    json.Set(prefix + ".abort_rate", r.AbortRate());
    json.Set(prefix + ".committed", static_cast<double>(r.committed));
  }

  json.WriteIfRequested(bench.json_path);
  return 0;
}
