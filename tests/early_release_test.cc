// Early lock release (visibility watermarks, wound-wait, ordered prepares):
// PSI over seeded cross-shard workloads at high cross-shard fractions, the
// stale-lock-sweep interplay, coordinator crash after the commit decision,
// the GC stability-floor belt for watermarked versions, lock waits behind a
// holder that cannot be wounded, the clock-commit watermark bypass at a
// participant, and the LockTable itself stepped without a simulator.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/config/shard_map.h"
#include "src/core/cluster.h"
#include "src/core/lock_table.h"
#include "src/obs/watchdog.h"
#include "src/psi/checker.h"

namespace walter {
namespace {

ObjectId Oid(uint64_t container, uint64_t local) { return ObjectId{container, local}; }

// Logic-test options (shard_test.cc's ShardedOptions): no modeled CPU/disk
// cost, no gossip, deterministic network.
ClusterOptions ShardedOptions(size_t num_sites, size_t shards_per_site) {
  ClusterOptions o;
  o.num_sites = num_sites;
  o.servers_per_site.assign(num_sites, shards_per_site);
  o.server.perf = PerfModel::Instant();
  o.server.disk = DiskConfig::Memory();
  o.server.gossip_interval = 0;
  return o;
}

// Finds the smallest container at least `min` that is preferred at `site` and
// that its shard map hashes to `shard`.
ContainerId ContainerOnShard(const ShardMap& map, SiteId site, size_t shard,
                             ContainerId min = 0) {
  for (ContainerId c = site;; c += map.num_sites()) {
    if (c >= min && map.ShardOf(c, site) == shard) {
      return c;
    }
  }
}

std::optional<std::string> ReadOnce(Cluster& cluster, WalterClient* client,
                                    const ObjectId& oid) {
  Tx tx(client);
  std::optional<std::string> value;
  bool done = false;
  tx.Read(oid, [&](Status s, std::optional<std::string> v) {
    EXPECT_TRUE(s.ok());
    value = std::move(v);
    done = true;
  });
  while (!done && cluster.sim().Step()) {
  }
  EXPECT_TRUE(done);
  return value;
}

// Commits `tx` and runs the cluster until nothing is left to do (gossip off).
Status CommitAndSettle(Cluster& cluster, Tx& tx) {
  std::optional<Status> status;
  tx.Commit([&](Status s) { status = s; });
  cluster.RunUntilIdle();
  return status.value_or(Status::Internal("commit never resolved"));
}

// Seeded read-then-write workload where `cross_fraction` of the transactions
// add a second write on the sibling shard (intra-site 2PC with early release).
// The PSI checker replays every commit at every server.
void RunSeededCrossShardPsi(double cross_fraction, uint64_t seed) {
  ClusterOptions options = ShardedOptions(2, 2);
  options.seed = seed;
  Cluster cluster(options);
  const ShardMap& map = cluster.shard_map();

  PsiChecker checker(cluster.num_servers());
  std::unordered_map<TxId, std::vector<RecordedRead>> reads_by_tid;
  cluster.ObserveCommits([&](SiteId server, const TxRecord& rec) {
    checker.OnApply(server, rec.tid);
    if (server == rec.origin) {
      RecordedTx recorded;
      recorded.record = rec;
      auto it = reads_by_tid.find(rec.tid);
      if (it != reads_by_tid.end()) {
        recorded.reads = it->second;
      }
      checker.OnCommit(std::move(recorded));
    }
  });

  Rng rng(seed * 13 + 5);
  int committed = 0;
  int active = 0;
  uint64_t next_value = 1;
  std::vector<std::vector<ContainerId>> containers(2);
  for (SiteId s = 0; s < 2; ++s) {
    for (size_t shard = 0; shard < 2; ++shard) {
      containers[s].push_back(ContainerOnShard(map, s, shard));
    }
  }

  std::function<void(WalterClient*, SiteId, int)> start = [&](WalterClient* client,
                                                              SiteId site, int remaining) {
    if (remaining == 0) {
      --active;
      return;
    }
    auto tx = std::make_shared<Tx>(client);
    // The read and the first write pick shards independently: the snapshot
    // assigner and the commit origin routinely differ, which the checker's
    // visibility-gated Property-1 replay handles directly.
    size_t read_shard = rng.Uniform(2);
    size_t first_shard = rng.Uniform(2);
    bool cross = rng.NextDouble() < cross_fraction;
    ContainerId read_c = containers[site][read_shard];
    ContainerId first_c = containers[site][first_shard];
    ObjectId read_oid = Oid(read_c, rng.Uniform(12));
    tx->Read(read_oid, [&, client, site, remaining, tx, read_oid, cross, first_shard,
              first_c](Status s, std::optional<std::string> v) {
      ASSERT_TRUE(s.ok());
      std::vector<RecordedRead> reads;
      reads.push_back(RecordedRead{read_oid, false, std::move(v), {}});
      tx->Write(Oid(first_c, rng.Uniform(12)), "w" + std::to_string(next_value++));
      if (cross) {
        tx->Write(Oid(containers[site][1 - first_shard], rng.Uniform(12)),
                  "x" + std::to_string(next_value++));
      }
      TxId tid = tx->tid();
      reads_by_tid[tid] = std::move(reads);
      tx->Commit([&, client, site, remaining, tx, tid](Status s) {
        if (s.ok()) {
          ++committed;
        } else {
          reads_by_tid.erase(tid);
        }
        start(client, site, remaining - 1);
      });
    });
  };

  for (SiteId s = 0; s < 2; ++s) {
    for (int c = 0; c < 3; ++c) {
      ++active;
      start(cluster.AddClient(s), s, 30);
    }
  }
  while (active > 0 && cluster.sim().Step()) {
  }
  ASSERT_EQ(active, 0);
  cluster.RunFor(Seconds(10));  // full propagation

  EXPECT_GT(committed, 50);
  Status result = checker.Check();
  EXPECT_TRUE(result.ok()) << result.ToString();

  uint64_t slow_commits = 0;
  for (SiteId v = 0; v < static_cast<SiteId>(cluster.num_servers()); ++v) {
    slow_commits += cluster.server(v).stats().slow_commits;
    // Nothing leaked: early release freed every prepare lock and propagation
    // cleared every watermark.
    EXPECT_EQ(cluster.server(v).lock_count(), 0u) << "server " << v;
    EXPECT_EQ(cluster.server(v).watermark_count(), 0u) << "server " << v;
    EXPECT_EQ(cluster.server(v).lock_waiter_count(), 0u) << "server " << v;
    // An early-released lock must never be re-queried as orphaned.
    EXPECT_EQ(cluster.server(v).stats().stale_lock_queries, 0u) << "server " << v;
    // Every committed transaction propagated to every shard of every site.
    for (SiteId origin = 0; origin < static_cast<SiteId>(cluster.num_servers()); ++origin) {
      EXPECT_EQ(cluster.server(v).committed_vts().at(origin),
                cluster.server(origin).committed_vts().at(origin))
          << "server " << v << " missing transactions from " << origin;
    }
  }
  EXPECT_GT(slow_commits, 0u);  // the cross-shard fraction actually ran 2PC
}

TEST(EarlyReleasePsiTest, SeededCrossShardFraction50HasNoAnomalies) {
  RunSeededCrossShardPsi(0.5, 51);
}

TEST(EarlyReleasePsiTest, SeededCrossShardFraction100HasNoAnomalies) {
  RunSeededCrossShardPsi(1.0, 52);
}

// Coordinator crash after the commit decision: the participant released its
// locks and holds visibility watermarks. The replacement coordinator recovers
// the record from its durable log and propagation clears the watermarks (or,
// if the record did not survive, the stale-watermark sweep learns the tid is
// dead and drops them). Either way nothing wedges and nothing leaks.
TEST(EarlyReleaseCrashTest, CoordinatorCrashAfterDecisionHeals) {
  ClusterOptions options = ShardedOptions(2, 2);
  options.seed = 77;
  Cluster cluster(options);
  const ShardMap& map = cluster.shard_map();
  ContainerId c0 = ContainerOnShard(map, 0, 0);
  ContainerId c1 = ContainerOnShard(map, 0, 1);
  SiteId coordinator = map.ServerAt(0, 0);  // c0's owner coordinates the 2PC
  SiteId participant = map.ServerAt(0, 1);

  WalterClient* client = cluster.AddClient(0);
  bool committed = false;
  auto tx = std::make_shared<Tx>(client);
  tx->Write(Oid(c0, 1), "a");
  tx->Write(Oid(c1, 2), "b");
  tx->Commit([&](Status s) { committed = s.ok(); });

  // Step until the participant installs the watermark (decision received,
  // record not propagated yet), then crash the coordinator in that window.
  bool saw_watermark = false;
  for (int i = 0; i < 200000 && !saw_watermark; ++i) {
    if (!cluster.sim().Step()) {
      break;
    }
    saw_watermark = cluster.server(participant).watermark_count() > 0;
  }
  ASSERT_TRUE(saw_watermark) << "decision never produced a watermark";
  EXPECT_EQ(cluster.server(participant).lock_count(), 0u)
      << "participant still holds prepare locks after the decision";

  cluster.server(coordinator).Crash();
  cluster.ReplaceServer(coordinator);
  // Long enough for resync + propagation and for the stale sweeps (2x the 2s
  // resend timeout) to fire if the record had been lost.
  cluster.RunFor(Seconds(12));

  for (SiteId v = 0; v < static_cast<SiteId>(cluster.num_servers()); ++v) {
    EXPECT_EQ(cluster.server(v).lock_count(), 0u) << "server " << v;
    EXPECT_EQ(cluster.server(v).watermark_count(), 0u) << "server " << v;
  }
  ASSERT_TRUE(committed);  // the decision was reached before the crash
  // The commit was durable at the coordinator before the decision went out,
  // so the replacement recovered it and both writes are visible everywhere.
  WalterClient* reader = cluster.AddClient(1);
  EXPECT_EQ(ReadOnce(cluster, reader, Oid(c0, 1)).value_or(""), "a");
  EXPECT_EQ(ReadOnce(cluster, reader, Oid(c1, 2)).value_or(""), "b");
}

// The GC stability floor must not fold a version some parked reader is still
// waiting to see: a live watermark at seqno k caps the floor at k-1 for the
// decided version's origin.
TEST(EarlyReleaseGcTest, StabilityFloorStopsBelowWatermarkedVersion) {
  ClusterOptions options = ShardedOptions(2, 2);
  options.seed = 9;
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);
  for (int i = 0; i < 5; ++i) {
    Tx tx(client);
    tx.Write(Oid(ContainerOnShard(cluster.shard_map(), 0, 0), i), "v");
    bool done = false;
    tx.Commit([&](Status s) {
      EXPECT_TRUE(s.ok());
      done = true;
    });
    while (!done && cluster.sim().Step()) {
    }
  }
  cluster.RunFor(Seconds(5));

  WalterServer& server = cluster.server(cluster.shard_map().ServerAt(0, 1));
  SiteId origin = cluster.shard_map().ServerAt(0, 0);
  uint64_t committed_at_origin = server.committed_vts().at(origin);
  ASSERT_GE(committed_at_origin, 5u);
  VectorTimestamp before = server.StabilityFloor();
  EXPECT_GE(before.at(origin), committed_at_origin);

  // Normal case: the decided version is ahead of this server's committed
  // frontier, so the floor already sits below it and stays put.
  Version ahead{origin, committed_at_origin + 3};
  server.lock_table().AddWatermark(Oid(1, 98), ahead, /*tid=*/111111, cluster.sim().Now());
  EXPECT_EQ(server.StabilityFloor().at(origin), before.at(origin));
  EXPECT_LT(server.StabilityFloor().at(origin), ahead.seqno);
  server.lock_table().DropWatermarksOfTx(111111);

  // Defensive case: a watermark at (or below) the floor caps the floor at
  // seqno - 1, so GC can never fold the version a parked reader waits on.
  Version at_floor{origin, before.at(origin)};
  server.lock_table().AddWatermark(Oid(1, 99), at_floor, /*tid=*/123456, cluster.sim().Now());
  VectorTimestamp with_watermark = server.StabilityFloor();
  EXPECT_EQ(with_watermark.at(origin), at_floor.seqno - 1)
      << "floor must stop below the watermarked version";

  // Clearing the watermark (as remote commit would) releases the belt.
  server.lock_table().DropWatermarksOfTx(123456);
  EXPECT_EQ(server.StabilityFloor().at(origin), before.at(origin));
}

// --- the lock table, stepped directly (no simulator) ------------------------

VectorTimestamp Vts(std::vector<uint64_t> counts) { return VectorTimestamp(std::move(counts)); }

// Watermark write/read blocking semantics: any live watermark blocks writers;
// readers are blocked only when their snapshot covers the decided version.
TEST(LockTableTest, WatermarkBlockingSemantics) {
  LockTable table;
  ObjectId oid = Oid(7, 1);
  EXPECT_FALSE(table.WatermarkBlocksWrite(oid));

  table.AddWatermark(oid, Version{2, 10}, /*tid=*/42, /*now=*/0);
  EXPECT_TRUE(table.WatermarkBlocksWrite(oid));
  EXPECT_FALSE(table.WatermarkBlocksWrite(Oid(7, 2)));

  VectorTimestamp covers(4);
  covers.set(2, 10);
  VectorTimestamp below(4);
  below.set(2, 9);
  EXPECT_TRUE(table.WatermarkBlocksRead(oid, covers));
  EXPECT_FALSE(table.WatermarkBlocksRead(oid, below));

  EXPECT_EQ(table.MinWatermarkSeqno(2).value_or(0), 10u);
  EXPECT_FALSE(table.MinWatermarkSeqno(1).has_value());

  // Clearing through seqno 9 keeps it; through 10 drops it.
  EXPECT_EQ(table.ClearWatermarks(2, 9), 0u);
  EXPECT_TRUE(table.WatermarkBlocksWrite(oid));
  EXPECT_EQ(table.ClearWatermarks(2, 10), 1u);
  EXPECT_FALSE(table.WatermarkBlocksWrite(oid));
  EXPECT_EQ(table.watermark_count(), 0u);
}

// A requester blocked by several holders wounds exactly the distinct ones
// this server coordinates that are strictly younger in (priority, tid) order:
// an equal priority falls to the tid.
TEST(LockTableTest, WoundCandidatesBreakTiesByTid) {
  Store store;
  LockTable table;
  table.Lock(/*tid=*/5, {Oid(1, 1)}, /*coordinator=*/0, {}, /*now=*/0);
  table.Lock(/*tid=*/7, {Oid(1, 2), Oid(1, 3)}, 0, {}, 0);
  table.Lock(/*tid=*/9, {Oid(1, 4)}, /*coordinator=*/2, {}, 0);
  std::vector<ObjectId> oids = {Oid(1, 1), Oid(1, 2), Oid(1, 3), Oid(1, 4), Oid(1, 5)};
  LockTable::Check check = table.Classify(/*tid=*/6, oids, Vts({0, 0, 0}), false, store, {});
  ASSERT_EQ(check.verdict, LockTable::Verdict::kWait);
  EXPECT_EQ(check.blockers, (std::vector<TxId>{5, 7, 7, 9}));

  // 5 and 7 are coordinated here at priority 10; 9's coordinator is elsewhere.
  auto priority_of = [](TxId holder) -> std::optional<uint64_t> {
    return holder == 9 ? std::nullopt : std::optional<uint64_t>(10);
  };
  EXPECT_EQ(LockTable::WoundCandidates(6, 10, check.blockers, priority_of),
            (std::vector<TxId>{7}));  // (10, 6) beats (10, 7), not (10, 5)
  EXPECT_EQ(LockTable::WoundCandidates(6, 9, check.blockers, priority_of),
            (std::vector<TxId>{5, 7}));  // strictly older than both, each once
  EXPECT_TRUE(LockTable::WoundCandidates(6, 11, check.blockers, priority_of).empty());

  // A wounded holder frees all its locks at once.
  EXPECT_EQ(table.Release(7), std::optional<size_t>(2));
  EXPECT_FALSE(table.Holds(7));
  EXPECT_TRUE(table.Holds(5));
}

// Released locks wake their waiters oldest first — (priority, tid), each once —
// and a waiter that left the queue meanwhile is not woken.
TEST(LockTableTest, WakesOldestFirst) {
  LockTable table;
  table.Lock(/*tid=*/1, {Oid(1, 1), Oid(1, 2)}, 0, {}, 0);
  auto noop = [](bool) {};
  table.Park(/*tid=*/30, /*priority=*/5, {Oid(1, 1)}, noop);
  table.Park(/*tid=*/20, /*priority=*/5, {Oid(1, 1), Oid(1, 2)}, noop);
  table.Park(/*tid=*/10, /*priority=*/7, {Oid(1, 2)}, noop);
  table.Park(/*tid=*/40, /*priority=*/1, {Oid(1, 1)}, noop);
  table.Park(/*tid=*/50, /*priority=*/0, {Oid(1, 9)}, noop);  // nothing held: never woken
  EXPECT_FALSE(table.has_wakes());

  EXPECT_EQ(table.Release(1), std::optional<size_t>(2));
  EXPECT_TRUE(table.has_wakes());
  ASSERT_TRUE(table.Unpark(40).has_value());  // resolved before the wake ran
  EXPECT_EQ(table.TakeWakes(), (std::vector<TxId>{20, 30, 10}));
  EXPECT_FALSE(table.has_wakes());
  EXPECT_EQ(table.waiter_count(), 4u);  // waking is the caller's Unpark
  EXPECT_FALSE(table.Release(1).has_value());
}

// A duplicate prepare of a transaction that already holds its locks is
// re-affirmed without re-checking, while any other writer of those objects
// waits behind it — or fails outright on a version its snapshot lacks.
TEST(LockTableTest, DuplicatePrepareIsReaffirmed) {
  Store store;
  LockTable table;
  std::vector<ObjectId> oids = {Oid(1, 1)};
  VectorTimestamp snapshot = Vts({0, 0});
  ASSERT_EQ(table.Classify(5, oids, snapshot, false, store, {}).verdict,
            LockTable::Verdict::kYes);
  table.Lock(5, oids, /*coordinator=*/1, {}, 0);

  TxRecord rec;
  rec.tid = 99;
  rec.origin = 0;
  rec.version = Version{0, 1};
  rec.updates = {ObjectUpdate::Data(Oid(1, 1), "newer")};
  store.ApplyToHistories(rec);  // a version `snapshot` does not cover

  EXPECT_EQ(table.Classify(5, oids, snapshot, false, store, {}).verdict,
            LockTable::Verdict::kYes);
  LockTable::Check other = table.Classify(6, oids, Vts({1, 0}), false, store, {});
  EXPECT_EQ(other.verdict, LockTable::Verdict::kWait);
  EXPECT_EQ(other.blockers, (std::vector<TxId>{5}));
  LockTable::Check stale = table.Classify(6, oids, snapshot, false, store, {});
  EXPECT_EQ(stale.verdict, LockTable::Verdict::kConflict);
  EXPECT_EQ(stale.conflict, Oid(1, 1));
}

// The clock-commit write bypass: a watermark whose decided version the
// writer's snapshot already covers is history, not a conflict — counted as a
// bypass. The history check comes first, so a modified object is a conflict
// without a bypass.
TEST(LockTableTest, ClockCommitBypassesSnapshotCoveredWatermark) {
  Store store;
  LockTable table;
  std::vector<ObjectId> oids = {Oid(1, 1)};
  table.AddWatermark(Oid(1, 1), Version{2, 10}, /*tid=*/42, 0);
  VectorTimestamp covers = Vts({0, 0, 10});
  VectorTimestamp below = Vts({0, 0, 9});

  LockTable::Check plain = table.Classify(6, oids, covers, /*clock_commit=*/false, store, {});
  EXPECT_EQ(plain.verdict, LockTable::Verdict::kConflict);
  EXPECT_EQ(plain.clock_bypasses, 0u);
  LockTable::Check clock = table.Classify(6, oids, covers, /*clock_commit=*/true, store, {});
  EXPECT_EQ(clock.verdict, LockTable::Verdict::kYes);
  EXPECT_EQ(clock.clock_bypasses, 1u);
  LockTable::Check unseen = table.Classify(6, oids, below, /*clock_commit=*/true, store, {});
  EXPECT_EQ(unseen.verdict, LockTable::Verdict::kConflict);
  EXPECT_EQ(unseen.clock_bypasses, 0u);

  TxRecord rec;
  rec.tid = 99;
  rec.origin = 0;
  rec.version = Version{0, 1};
  rec.updates = {ObjectUpdate::Data(Oid(1, 1), "newer")};
  store.ApplyToHistories(rec);
  LockTable::Check modified = table.Classify(6, oids, covers, /*clock_commit=*/true, store, {});
  EXPECT_EQ(modified.verdict, LockTable::Verdict::kConflict);
  EXPECT_EQ(modified.clock_bypasses, 0u);

  // A lease this site does not hold fails first.
  auto no_lease = [](ContainerId) { return false; };
  EXPECT_EQ(table.Classify(6, oids, covers, true, store, no_lease).verdict,
            LockTable::Verdict::kUnavailable);
}

// The 2PC termination sweep: lock sets with a remote coordinator and watermark
// sets turn stale at 2 x resend_timeout, and an entry whose status query is
// still in flight is skipped until the answer arrives.
TEST(LockTableTest, StaleSweepSkipsYoungAndQueried) {
  const SimDuration stale_after = 2 * Seconds(2);
  const SiteId self = 0;
  LockTable table;
  table.Lock(/*tid=*/1, {Oid(1, 1)}, /*coordinator=*/3, {}, /*now=*/0);
  table.Lock(/*tid=*/2, {Oid(1, 2)}, /*coordinator=*/self, {}, 0);  // ours: never asked
  table.Lock(/*tid=*/3, {Oid(1, 3)}, /*coordinator=*/3, {}, Seconds(1));
  table.AddWatermark(Oid(1, 4), Version{2, 5}, /*tid=*/4, /*now=*/0);

  EXPECT_TRUE(table.TakeStale(stale_after - 1, stale_after, self).empty());

  // Lock sets first (ask the coordinator), then watermark sets (ask the origin).
  std::vector<LockTable::StaleQuery> stale = table.TakeStale(stale_after, stale_after, self);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0].tid, 1u);
  EXPECT_EQ(stale[0].ask, 3u);
  EXPECT_FALSE(stale[0].watermark);
  EXPECT_EQ(stale[1].tid, 4u);
  EXPECT_EQ(stale[1].ask, 2u);
  EXPECT_TRUE(stale[1].watermark);
  EXPECT_TRUE(table.TakeStale(stale_after, stale_after, self).empty());  // in flight

  EXPECT_TRUE(table.EndQuery(stale[0]));
  std::vector<LockTable::StaleQuery> again = table.TakeStale(stale_after, stale_after, self);
  ASSERT_EQ(again.size(), 1u);  // asked again once answered
  EXPECT_EQ(again[0].tid, 1u);
  EXPECT_TRUE(table.DropWatermarksOfTx(4));
  EXPECT_FALSE(table.EndQuery(stale[1]));  // answered after the set was dropped
  // Lock 3, taken a second later, turns stale a second later.
  std::vector<LockTable::StaleQuery> later =
      table.TakeStale(stale_after + Seconds(1), stale_after, self);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].tid, 3u);

  table.Release(1);
  EXPECT_FALSE(table.EndQuery(again[0]));
}

// --- bounded re-park / starvation ------------------------------------------

// A watermark that never clears must starve the parked read out with
// kUnavailable once read_park_budget is spent (1ms soft phase, then doubling
// backoff), instead of re-parking at 1ms forever. The give-up is counted in
// Stats::reads_starved and the simulation quiesces.
TEST(EarlyReleaseStarvationTest, StuckWatermarkStarvesReadOut) {
  ClusterOptions options;
  options.num_sites = 1;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = 0;
  options.server.read_park_soft_retries = 16;
  options.server.read_park_backoff_cap = Millis(8);
  options.server.read_park_budget = Millis(60);
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);

  {
    Tx tx(client);
    tx.Write(Oid(0, 1), "v");
    bool done = false;
    tx.Commit([&](Status s) {
      ASSERT_TRUE(s.ok());
      done = true;
    });
    while (!done && cluster.sim().Step()) {
    }
  }

  // Plant a watermark on an already-committed version: every fresh snapshot
  // covers it, and nothing in this quiesced cluster will ever clear it.
  WalterServer& server = cluster.server(0);
  uint64_t seqno = server.committed_vts().at(0);
  ASSERT_GE(seqno, 1u);
  server.lock_table().AddWatermark(
      Oid(0, 1), Version{0, seqno}, /*tid=*/999999, cluster.sim().Now());

  Tx tx(client);
  std::optional<Status> read_status;
  tx.Read(Oid(0, 1), [&](Status s, std::optional<std::string>) { read_status = s; });
  while (!read_status.has_value() && cluster.sim().Step()) {
  }
  ASSERT_TRUE(read_status.has_value()) << "parked read never resolved";
  EXPECT_EQ(read_status->code(), StatusCode::kUnavailable) << read_status->ToString();
  EXPECT_EQ(server.stats().reads_starved, 1u);
  // The soft phase re-parked (and counted) before backoff took over.
  EXPECT_GE(server.stats().watermark_read_waits,
            uint64_t{options.server.read_park_soft_retries});

  server.lock_table().DropWatermarksOfTx(999999);
  cluster.RunUntilIdle();
}

// With wait_watermark no longer counting as watchdog progress, a read stuck
// behind a watermark longer than the liveness budget produces a stuck verdict
// while still parked — the silent-re-park-forever shape is now observable.
TEST(EarlyReleaseStarvationTest, StuckWatermarkSurfacesWatchdogVerdict) {
  ClusterOptions options;
  options.num_sites = 1;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = 0;
  options.server.read_park_budget = Seconds(3);  // parked well past the budget
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);

  {
    Tx tx(client);
    tx.Write(Oid(0, 1), "v");
    bool done = false;
    tx.Commit([&](Status s) {
      ASSERT_TRUE(s.ok());
      done = true;
    });
    while (!done && cluster.sim().Step()) {
    }
  }
  WalterServer& server = cluster.server(0);
  server.lock_table().AddWatermark(Oid(0, 1), Version{0, server.committed_vts().at(0)},
                                   /*tid=*/888888, cluster.sim().Now());

  {
    WatchdogOptions wo;
    wo.budget = Seconds(1);
    wo.check_interval = Millis(200);
    wo.abort_on_stuck = false;
    LivenessWatchdog watchdog(&cluster.sim(), wo);

    Tx tx(client);
    std::optional<Status> read_status;
    tx.Read(Oid(0, 1), [&](Status s, std::optional<std::string>) { read_status = s; });
    cluster.RunFor(Seconds(2));

    ASSERT_TRUE(watchdog.fired()) << "parked read never tripped the watchdog";
    EXPECT_EQ(watchdog.reports()[0].tid, tx.tid());
    EXPECT_FALSE(read_status.has_value()) << "verdict must precede the starve-out";
  }

  server.lock_table().DropWatermarksOfTx(888888);
  cluster.RunUntilIdle();
}

// --- lock waits behind a holder this server cannot wound --------------------

// One site, three shards, and prepares retried once. The holder transaction
// is coordinated by shard 2 and locks an object on shard 0; wound-wait cannot
// preempt it there, because shard 0 does not coordinate it. The first
// `votes_lost` kPrepare responses from shard 0 to shard 2 are dropped. With
// one lost, shard 2 retransmits after the 2s resend timeout, shard 0
// re-affirms the vote it already holds, and the holder commits. With both
// lost, shard 2 counts shard 0 as transport-dead and aborts without telling
// it; gossip is off, so no stale-lock sweep runs and shard 0 keeps the lock.
class EarlyReleaseLockWaitTest : public ::testing::Test {
 protected:
  void Start(ClusterOptions options, int votes_lost) {
    options.server.prepare_attempts = 2;
    cluster_ = std::make_unique<Cluster>(options);
    const ShardMap& map = cluster_->shard_map();
    for (size_t shard = 0; shard < 3; ++shard) {
      c_[shard] = ContainerOnShard(map, 0, shard);
      s_[shard] = map.ServerAt(0, shard);
    }
    cluster_->net().SetDropFilter(
        [this, votes_lost](const Message& m, const Address& from, const Address& to) {
          if (m.is_response && m.type == kPrepare && from.site == s_[0] &&
              to.site == s_[2] && votes_dropped_ < votes_lost) {
            ++votes_dropped_;
            return true;
          }
          return false;
        });
    holder_ = std::make_unique<Tx>(cluster_->AddClient(0));
    holder_->Write(Oid(c_[2], 1), "h");  // first write: shard 2 coordinates
    holder_->Write(Oid(c_[0], 1), "h");
    holder_->Commit([this](Status s) { holder_status_ = s; });
    for (int i = 0; i < 100000 && server(0).lock_count() == 0; ++i) {
      if (!cluster_->sim().Step()) {
        break;
      }
    }
    ASSERT_EQ(server(0).lock_count(), 1u) << "holder never locked shard 0";
  }

  WalterServer& server(size_t shard) { return cluster_->server(s_[shard]); }

  std::unique_ptr<Cluster> cluster_;
  ContainerId c_[3] = {};
  SiteId s_[3] = {};
  std::unique_ptr<Tx> holder_;
  std::optional<Status> holder_status_;
  int votes_dropped_ = 0;
};

// The coordinator's own vote parks behind the holder and gives up after
// lock_wait_timeout (0.5s, before the holder's retransmission at 2s): the
// transaction aborts with reason kTimeout, and the holder then commits.
TEST_F(EarlyReleaseLockWaitTest, LocalVoteTimesOut) {
  Start(ShardedOptions(1, 3), /*votes_lost=*/1);
  Tx tx(cluster_->AddClient(0));
  tx.Write(Oid(c_[0], 1), "t");  // first write: shard 0 coordinates
  tx.Write(Oid(c_[1], 1), "t");
  EXPECT_EQ(CommitAndSettle(*cluster_, tx).code(), StatusCode::kAborted);

  EXPECT_EQ(server(0).stats().lock_waits, 1u);
  EXPECT_EQ(server(0).stats().lock_wait_timeouts, 1u);
  EXPECT_EQ(server(0).stats().aborts_timeout, 1u);
  EXPECT_EQ(server(0).lock_waiter_count(), 0u);
  // Shard 0 re-affirmed the holder's retransmitted prepare.
  EXPECT_EQ(server(2).stats().prepare_retries, 1u);
  EXPECT_EQ(server(0).stats().prepares_handled, 2u);
  ASSERT_TRUE(holder_status_.has_value());
  EXPECT_TRUE(holder_status_->ok()) << holder_status_->ToString();
  for (size_t shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(server(shard).lock_count(), 0u) << "shard " << shard;
  }
  EXPECT_EQ(ReadOnce(*cluster_, cluster_->AddClient(0), Oid(c_[0], 1)).value_or(""), "h");
}

// A coordinator's retransmitted prepare finds its first copy still parked
// (lock_wait_timeout outlives the 2s resend timeout here, as it can when the
// first copy sat long in a CPU queue). Shard 0 refuses the duplicate rather
// than park a second waiter, so the transaction aborts; the parked copy later
// times out and answers the call the coordinator already gave up on.
TEST_F(EarlyReleaseLockWaitTest, RetransmittedPrepareRefusedWhileFirstCopyParked) {
  ClusterOptions options = ShardedOptions(1, 3);
  options.server.lock_wait_timeout = Seconds(3);
  Start(options, /*votes_lost=*/2);
  Tx tx(cluster_->AddClient(0));
  tx.Write(Oid(c_[1], 1), "t");  // first write: shard 1 coordinates
  tx.Write(Oid(c_[0], 1), "t");
  EXPECT_EQ(CommitAndSettle(*cluster_, tx).code(), StatusCode::kAborted);

  EXPECT_EQ(server(1).stats().prepare_retries, 1u);
  EXPECT_EQ(server(1).stats().aborts_conflict, 1u);
  EXPECT_EQ(server(1).lock_count(), 0u);
  EXPECT_EQ(server(0).stats().lock_waits, 1u);
  EXPECT_EQ(server(0).stats().lock_wait_timeouts, 1u);
  EXPECT_EQ(server(0).lock_waiter_count(), 0u);
  EXPECT_EQ(server(0).lock_count(), 1u);  // only the holder's
}

// Wound-wait at the coordinator's own vote. Both transactions are coordinated
// by shard 0 and also write on shard 2; the first prepare each sends to shard 2
// is lost, so each retransmits 2s after it started. The older one (`older`)
// prepares shard 2 first and votes locally last; the younger one (`younger`)
// votes locally first, so it holds `contended` on shard 0 while it waits for
// shard 2. When the older one's local vote finds that lock, the holder is
// younger and still collecting votes here: it is wounded, and its pending
// shard-2 vote then drives its abort with reason kWound.
TEST(EarlyReleaseWoundTest, OlderLocalVoteWoundsYoungerHolder) {
  ClusterOptions options = ShardedOptions(1, 3);
  options.server.prepare_attempts = 2;
  Cluster cluster(options);
  const ShardMap& map = cluster.shard_map();
  // Site order is by each shard's smallest written oid: low0 < c2 < high0.
  ContainerId low0 = ContainerOnShard(map, 0, 0);
  ContainerId c2 = ContainerOnShard(map, 0, 2, low0 + 1);
  ContainerId high0 = ContainerOnShard(map, 0, 0, c2 + 1);
  SiteId s0 = map.ServerAt(0, 0);
  SiteId s2 = map.ServerAt(0, 2);
  int dropped = 0;
  cluster.net().SetDropFilter([&](const Message& m, const Address& from, const Address& to) {
    if (!m.is_response && m.type == kPrepare && from.site == s0 && to.site == s2 &&
        dropped < 2) {
      ++dropped;
      return true;
    }
    return false;
  });
  ObjectId contended = Oid(high0, 1);

  Tx older(cluster.AddClient(0));
  older.Write(contended, "older");  // first write: shard 0 coordinates
  older.Write(Oid(c2, 1), "older");
  std::optional<Status> older_status;
  older.Commit([&](Status s) { older_status = s; });
  while (dropped < 1 && cluster.sim().Step()) {
  }
  cluster.RunFor(Millis(1));  // the younger one enters its slow commit later

  Tx younger(cluster.AddClient(0));
  younger.Write(Oid(low0, 1), "younger");
  younger.Write(contended, "younger");
  younger.Write(Oid(c2, 2), "younger");
  std::optional<Status> younger_status;
  younger.Commit([&](Status s) { younger_status = s; });
  cluster.RunUntilIdle();

  EXPECT_EQ(dropped, 2);
  ASSERT_TRUE(older_status.has_value());
  EXPECT_TRUE(older_status->ok()) << older_status->ToString();
  ASSERT_TRUE(younger_status.has_value());
  EXPECT_EQ(younger_status->code(), StatusCode::kAborted);
  WalterServer& coordinator = cluster.server(s0);
  EXPECT_EQ(coordinator.stats().lock_wounds, 1u);
  EXPECT_EQ(coordinator.stats().aborts_wound, 1u);
  for (SiteId v = 0; v < static_cast<SiteId>(cluster.num_servers()); ++v) {
    EXPECT_EQ(cluster.server(v).lock_count(), 0u) << "server " << v;
  }
  WalterClient* reader = cluster.AddClient(0);
  EXPECT_EQ(ReadOnce(cluster, reader, contended).value_or(""), "older");
}

// Clock-ordered commit at a 2PC participant: a watermark whose decided
// version the prepare's snapshot already Sees is history, not a conflict, so
// the participant votes yes and counts the bypass. The fast-commit side of
// this relaxation is ClockCommitTest.SnapshotCoveredWatermarkBypass.
TEST(EarlyReleaseClockTest, ParticipantBypassesSnapshotCoveredWatermark) {
  ClusterOptions options = ShardedOptions(1, 2);
  options.server.clock_commit = true;
  Cluster cluster(options);
  const ShardMap& map = cluster.shard_map();
  ContainerId c0 = ContainerOnShard(map, 0, 0);
  ContainerId c1 = ContainerOnShard(map, 0, 1);
  SiteId s0 = map.ServerAt(0, 0);
  WalterServer& participant = cluster.server(s0);
  WalterClient* client = cluster.AddClient(0);

  Tx first(client);
  first.Write(Oid(c0, 1), "v1");
  ASSERT_TRUE(CommitAndSettle(cluster, first).ok());

  // Plant a watermark on the committed version: every fresh snapshot Sees it.
  participant.lock_table().AddWatermark(
      Oid(c0, 1), Version{s0, participant.committed_vts().at(s0)}, /*tid=*/777777,
      cluster.sim().Now());
  Tx second(client);
  second.Write(Oid(c1, 1), "v2");  // first write: shard 1 coordinates
  second.Write(Oid(c0, 1), "v2");
  Status s = CommitAndSettle(cluster, second);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.server(map.ServerAt(0, 1)).stats().slow_commits, 1u);
  EXPECT_GE(participant.stats().clock_conflict_bypasses, 1u);

  participant.lock_table().DropWatermarksOfTx(777777);
  cluster.RunUntilIdle();
  EXPECT_EQ(participant.watermark_count(), 0u);
  EXPECT_EQ(participant.lock_count(), 0u);
}

}  // namespace
}  // namespace walter
