// Runtime seam tests: WallClock scaling, Executor mailbox + timer semantics,
// PostSync from foreign threads, cross-thread Payload aliasing (the TSan
// regression for the ref-counted buffer contract), a threaded-cluster commit
// smoke with a PSI check, and sim-mode determinism (two identical sim-mode
// runs produce identical commit streams — the property the figure benches'
// byte-identity rests on, asserted here at test scale).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/cluster.h"
#include "src/psi/checker.h"
#include "src/runtime/executor.h"

namespace walter {
namespace {

ObjectId Oid(uint64_t container, uint64_t local) { return ObjectId{container, local}; }

// --- WallClock ---------------------------------------------------------------

TEST(WallClockTest, VirtualTimeTracksScaledRealTime) {
  WallClock clock(/*time_scale=*/8.0);
  SimTime a = clock.VirtualNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SimTime b = clock.VirtualNow();
  // 20ms real at 8x is 160ms virtual; allow generous scheduling slack below,
  // but the scale factor must clearly show through.
  EXPECT_GE(b - a, 8 * 10 * 1000);
}

TEST(WallClockTest, RealForInvertsVirtualNow) {
  WallClock clock(/*time_scale=*/4.0);
  // A virtual instant one (virtual) second out lies 250ms of real time out.
  auto real = clock.RealFor(clock.VirtualNow() + Seconds(1));
  auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
                   real - std::chrono::steady_clock::now())
                   .count();
  EXPECT_GT(delta, 150);
  EXPECT_LT(delta, 350);
}

// --- Executor ----------------------------------------------------------------

TEST(ExecutorTest, PostedClosuresRunOnTheExecutorThread) {
  WallClock clock;
  Simulator sim(1);
  Executor exec(&sim, &clock);
  exec.Start();

  std::atomic<int> ran{0};
  std::thread::id loop_thread;
  std::atomic<bool> captured{false};
  exec.Post([&]() {
    loop_thread = std::this_thread::get_id();
    EXPECT_EQ(Executor::Current(), &exec);
    captured.store(true);
    ran.fetch_add(1);
  });
  for (int i = 0; i < 100; ++i) {
    exec.Post([&]() { ran.fetch_add(1); });
  }
  while (ran.load() < 101) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(captured.load());
  EXPECT_NE(loop_thread, std::this_thread::get_id());
  EXPECT_EQ(Executor::Current(), nullptr);  // main thread runs no loop
  exec.Stop();
}

TEST(ExecutorTest, TimersFireAtScaledWallTime) {
  WallClock clock(/*time_scale=*/10.0);
  Simulator sim(1);
  Executor exec(&sim, &clock);

  std::atomic<bool> fired{false};
  // 100ms virtual at 10x = 10ms real. Schedule before Start so the timer is
  // in the queue when the loop begins (construction-time scheduling, the same
  // shape Cluster uses for gossip kickoff).
  sim.After(Millis(100), [&]() { fired.store(true); });
  exec.Start();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  exec.Stop();
  EXPECT_TRUE(fired.load());
  EXPECT_GE(sim.Now(), Millis(100));
}

TEST(ExecutorTest, PostSyncRunsInlineWithoutThreadAndBlocksWithOne) {
  WallClock clock;
  Simulator sim(1);
  Executor exec(&sim, &clock);

  // No thread running: PostSync runs inline on the caller.
  bool inline_ran = false;
  exec.PostSync([&]() { inline_ran = true; });
  EXPECT_TRUE(inline_ran);

  exec.Start();
  std::atomic<int> value{0};
  exec.PostSync([&]() { value.store(7); });
  EXPECT_EQ(value.load(), 7);  // PostSync returned only after fn finished
  exec.Stop();
}

TEST(ExecutorTest, PumpForAdvancesVirtualTimeOnCallerThread) {
  WallClock clock(/*time_scale=*/50.0);
  Simulator sim(1);
  Executor exec(&sim, &clock);

  bool fired = false;
  sim.After(Millis(20), [&]() {
    fired = true;
    EXPECT_EQ(Executor::Current(), &exec);
  });
  exec.PumpFor(Millis(40));  // 40ms virtual at 50x is <1ms real
  EXPECT_TRUE(fired);
  EXPECT_GE(sim.Now(), Millis(20));
}

// A closure that pumps its own executor (a nested loop) drains mail posted
// meanwhile into its own batch; the outer pass then finishes its batch. Every
// closure runs exactly once, in post order within each batch.
TEST(ExecutorTest, NestedPumpDrainsMailboxIntoItsOwnBatch) {
  WallClock clock(/*time_scale=*/50.0);
  Simulator sim(1);
  Executor exec(&sim, &clock);

  std::vector<std::string> order;
  bool inner_done = false;
  exec.Post([&]() {
    order.push_back("outer-1");
    exec.Post([&]() { order.push_back("inner-1"); });
    exec.Post([&]() {
      order.push_back("inner-2");
      inner_done = true;
    });
    EXPECT_TRUE(exec.PumpUntil([&]() { return inner_done; }, Seconds(1)));
  });
  exec.Post([&]() { order.push_back("outer-2"); });
  exec.PumpUntil([&]() { return order.size() == 4; }, Seconds(1));
  EXPECT_EQ(order, (std::vector<std::string>{"outer-1", "inner-1", "inner-2", "outer-2"}));

  // Later passes reuse the drained batch without losing or repeating work.
  int later = 0;
  for (int i = 0; i < 50; ++i) {
    exec.Post([&]() { ++later; });
    exec.PumpUntil([&]() { return later == i + 1; }, Seconds(1));
  }
  EXPECT_EQ(later, 50);
  EXPECT_EQ(order.size(), 4u);
}

// --- Payload cross-thread aliasing (TSan regression) -------------------------

// The threaded dispatch path copies a Payload into a closure handed to the
// destination executor while the sender keeps its own reference for resends:
// refcount traffic on one control block from many threads at once. With
// anything but an atomic refcount this test is a reliable TSan report (and a
// plausible double-free); it must stay clean under -fsanitize=thread.
TEST(PayloadTest, CrossThreadAliasingIsRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  Payload shared(std::string(1024, 'p'));

  std::vector<std::thread> threads;
  std::atomic<uint64_t> checksum{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &checksum]() {
      for (int i = 0; i < kRounds; ++i) {
        Payload alias = shared;           // refcount increment
        Payload moved = std::move(alias); // ownership transfer, no refcount op
        checksum.fetch_add(static_cast<uint64_t>(moved.size()),
                           std::memory_order_relaxed);
        // `moved` dies here: refcount decrement racing all other threads.
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(checksum.load(), uint64_t{kThreads} * kRounds * 1024);
  EXPECT_EQ(shared.size(), 1024u);  // original untouched throughout
}

// --- Threaded cluster smoke ---------------------------------------------------

// Commits through the full stack on real threads: 2 sites x some clients on
// worker executors, local and cross-site writes, then a convergence wait and
// a PSI check over the recorded history. Guarantee-based (no event-order
// asserts): this is the runtime-equivalence contract of the threaded mode.
TEST(ThreadedRuntimeTest, CommitsSatisfyPsiAndConverge) {
  constexpr size_t kSites = 2;
  ClusterOptions options;
  options.num_sites = kSites;
  options.seed = 7;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = Seconds(1);
  options.runtime.workers = 2;
  options.runtime.time_scale = 5.0;
  Cluster cluster(options);

  std::mutex mu;
  std::vector<std::vector<TxRecord>> logs(kSites);
  cluster.ObserveCommits([&](SiteId site, const TxRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    logs[site].push_back(rec);
  });

  constexpr int kPerClient = 20;
  struct ClientState {
    WalterClient* client = nullptr;
    int committed = 0;
    int attempted = 0;
  };
  std::vector<std::unique_ptr<ClientState>> states;
  for (SiteId s = 0; s < kSites; ++s) {
    for (int c = 0; c < 2; ++c) {
      auto st = std::make_unique<ClientState>();
      st->client = cluster.AddClient(s);
      states.push_back(std::move(st));
    }
  }

  std::atomic<int> active{static_cast<int>(states.size())};
  // Each client's chain runs entirely on its owner executor: the kickoff is
  // posted, and every continuation (RPC completion, commit callback) is
  // delivered there by the network.
  std::function<void(ClientState*)> next = [&](ClientState* st) {
    if (st->attempted == kPerClient) {
      active.fetch_sub(1);
      return;
    }
    int i = st->attempted++;
    auto tx = std::make_shared<Tx>(st->client);
    SiteId home = st->client->site();
    tx->Write(Oid(home, static_cast<uint64_t>(i % 8)), "v" + std::to_string(i));
    if (i % 5 == 0) {
      tx->Write(Oid((home + 1) % kSites, static_cast<uint64_t>(i % 8)),
                "w" + std::to_string(i));  // cross-site slow commit
    }
    tx->Commit([&, st, tx](Status s) {
      if (s.ok()) {
        ++st->committed;
      }
      next(st);
    });
  };

  cluster.StartThreads();
  for (auto& st : states) {
    cluster.client_executor(st->client)->Post([&, sp = st.get()]() { next(sp); });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (active.load() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(active.load(), 0) << "client chains did not finish";

  // Propagation convergence, observed through the owner executors.
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    VectorTimestamp v0 = cluster.SnapshotCommittedVts(0);
    converged = true;
    for (SiteId s = 1; s < kSites; ++s) {
      if (!(cluster.SnapshotCommittedVts(s) == v0)) {
        converged = false;
        break;
      }
    }
  }
  cluster.StopThreads();
  ASSERT_TRUE(converged) << "sites did not converge before the deadline";

  int committed = 0;
  for (auto& st : states) {
    committed += st->committed;
  }
  EXPECT_GT(committed, 0);
  EXPECT_EQ(cluster.server(0).committed_vts(), cluster.server(1).committed_vts());

  PsiChecker checker(kSites);
  for (SiteId s = 0; s < kSites; ++s) {
    for (const TxRecord& rec : logs[s]) {
      checker.OnApply(s, rec.tid);
    }
  }
  for (SiteId s = 0; s < kSites; ++s) {
    for (const TxRecord& rec : logs[s]) {
      if (rec.origin == s) {
        RecordedTx recorded;
        recorded.record = rec;
        checker.OnCommit(std::move(recorded));
      }
    }
  }
  Status result = checker.Check();
  EXPECT_TRUE(result.ok()) << result.ToString();
}

// --- Sim-mode determinism ----------------------------------------------------

// Two sim-mode runs of the same seeded workload must produce identical commit
// streams (site, origin, seqno, tid, startVTS) — the invariant behind the
// figure benches' byte-identity. The runtime seam must never disturb it.
TEST(SimDeterminismTest, IdenticalSeedsProduceIdenticalCommitStreams) {
  auto run = [](uint64_t seed) {
    ClusterOptions options;
    options.num_sites = 3;
    options.seed = seed;
    options.server.gossip_interval = 0;
    Cluster cluster(options);
    std::vector<std::string> stream;
    cluster.ObserveCommits([&](SiteId site, const TxRecord& rec) {
      stream.push_back(std::to_string(site) + ":" + std::to_string(rec.origin) + ":" +
                       std::to_string(rec.version.seqno) + ":" + std::to_string(rec.tid) +
                       ":" + rec.start_vts.ToString());
    });
    Rng rng(seed);
    std::vector<WalterClient*> clients;
    for (SiteId s = 0; s < 3; ++s) {
      clients.push_back(cluster.AddClient(s));
    }
    std::function<void(WalterClient*, int)> go = [&](WalterClient* client, int left) {
      if (left == 0) {
        return;
      }
      auto tx = std::make_shared<Tx>(client);
      ContainerId c = rng.Uniform(3);
      tx->Write(Oid(c, rng.Uniform(10)), "v" + std::to_string(left));
      tx->Commit([&, client, left, tx](Status) { go(client, left - 1); });
    };
    for (WalterClient* client : clients) {
      go(client, 15);
    }
    cluster.RunUntilIdle();
    return stream;
  };
  std::vector<std::string> a = run(11);
  std::vector<std::string> b = run(11);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 0u);
}

}  // namespace
}  // namespace walter
