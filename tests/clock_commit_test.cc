// Clock-ordered slow commit (docs/CONSISTENCY.md, docs/PROTOCOL.md) and the
// per-transaction consistency modes:
//  - ClockModel skew bounds and inversion, including a skew of exactly the
//    configured bound (must hold, not fall back) and beyond it (must fall
//    back to a classic immediate vote);
//  - a clock stepped backwards between prepare-hold and release (the release
//    timer re-arms instead of releasing early or dropping the vote);
//  - deterministic (commit_ts, coordinator, tid) release ordering;
//  - the snapshot-covered watermark bypass (flag-gated conflict relaxation);
//  - flag-off runs perform no clock activity at all;
//  - NMSI reads serve through a live watermark instead of parking;
//  - serializable mode detects write skew end-to-end where PSI commits it.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/sim/clock.h"

namespace walter {
namespace {

ObjectId Oid(uint64_t container, uint64_t local) { return ObjectId{container, local}; }

// Two WAN sites (default EC2 topology: real RTTs), logic-test perf/disk, no
// gossip. drift 0 keeps injected-skew tests exact.
ClusterOptions ClockOptions(bool clock_commit) {
  ClusterOptions o;
  o.num_sites = 2;
  o.server.perf = PerfModel::Instant();
  o.server.disk = DiskConfig::Memory();
  o.server.gossip_interval = 0;
  o.server.clock.drift_ppm = 0;
  o.server.clock_commit = clock_commit;
  return o;
}

Status CommitWrite(Cluster& cluster, WalterClient* client, const ObjectId& oid,
                   const std::string& value) {
  Tx tx(client);
  tx.Write(oid, value);
  std::optional<Status> result;
  tx.Commit([&](Status s) { result = s; });
  while (!result.has_value() && cluster.sim().Step()) {
  }
  EXPECT_TRUE(result.has_value()) << "commit never resolved";
  return result.value_or(Status::Internal("commit never resolved"));
}

std::optional<std::string> ReadOnce(Cluster& cluster, WalterClient* client,
                                    const ObjectId& oid, ConsistencyMode mode) {
  Tx tx(client);
  tx.SetMode(mode);
  std::optional<std::string> value;
  bool done = false;
  tx.Read(oid, [&](Status s, std::optional<std::string> v) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    value = std::move(v);
    done = true;
  });
  while (!done && cluster.sim().Step()) {
  }
  EXPECT_TRUE(done);
  return value;
}

// --- ClockModel unit tests ---------------------------------------------------

TEST(ClockModelTest, SkewBoundedAndInvertible) {
  ClockModel::Options options;
  options.skew_bound = Millis(5);
  options.drift_ppm = 50.0;
  options.seed = 7;
  for (SiteId s = 0; s < 4; ++s) {
    ClockModel clock(s, options);
    for (SimTime base : {SimTime{0}, Millis(1), Seconds(1), Seconds(100), Seconds(10000)}) {
      SimTime local = clock.LocalNow(base);
      EXPECT_LE(local - base, options.skew_bound) << "site " << s << " base " << base;
      EXPECT_GE(local - base, -options.skew_bound) << "site " << s << " base " << base;
      // BaseTimeFor is the inverse: the clock reads >= local at the returned
      // base instant, and < local one microsecond earlier.
      SimTime inv = clock.BaseTimeFor(local);
      EXPECT_GE(clock.LocalNow(inv), local);
      if (inv > 0) {
        EXPECT_LT(clock.LocalNow(inv - 1), local);
      }
    }
  }
  // Distinct sites disagree (the whole point of the model).
  ClockModel a(0, options);
  ClockModel b(1, options);
  EXPECT_NE(a.LocalNow(Seconds(10)), b.LocalNow(Seconds(10)));
}

TEST(ClockModelTest, InjectStepMovesClockBothWays) {
  ClockModel::Options options;
  options.skew_bound = Millis(5);
  options.drift_ppm = 0;
  ClockModel clock(2, options);
  SimTime base = Seconds(3);
  SimTime before = clock.LocalNow(base);
  clock.InjectStep(Millis(40));
  EXPECT_EQ(clock.LocalNow(base), before + Millis(40));
  clock.InjectStep(-Millis(100));
  EXPECT_EQ(clock.LocalNow(base), before - Millis(60));
  // Inversion still holds with a step applied.
  SimTime local = clock.LocalNow(base);
  EXPECT_GE(clock.LocalNow(clock.BaseTimeFor(local)), local);
}

// --- Clocked slow-commit cluster tests ---------------------------------------

// A participant whose clock sits at exactly +skew_bound is still inside the
// budget: the prepare is held (not fallen back) and the commit succeeds.
TEST(ClockCommitTest, SkewExactlyAtBoundHolds) {
  Cluster cluster(ClockOptions(true));
  WalterServer& participant = cluster.server(1);
  SimTime now = cluster.sim().Now();
  SimDuration skew = participant.clock().LocalNow(now) - now;
  participant.clock().InjectStep(participant.clock().skew_bound() - skew);
  ASSERT_EQ(participant.clock().LocalNow(now) - now, participant.clock().skew_bound());

  WalterClient* client = cluster.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(1, 5), "v").ok());
  EXPECT_EQ(cluster.server(0).stats().clock_commits, 1u);
  EXPECT_EQ(participant.stats().clock_holds, 1u);
  EXPECT_EQ(participant.stats().clock_fallbacks, 0u);
  EXPECT_EQ(participant.held_prepare_count(), 0u);
  cluster.RunUntilIdle();
}

// A clock far past the bound blows the hold budget: the participant votes
// immediately (classic 2PC) and counts the fallback; the commit still works.
TEST(ClockCommitTest, SkewBeyondBoundFallsBack) {
  Cluster cluster(ClockOptions(true));
  cluster.server(1).clock().InjectStep(Seconds(2));

  WalterClient* client = cluster.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(1, 5), "v").ok());
  EXPECT_EQ(cluster.server(1).stats().clock_fallbacks, 1u);
  EXPECT_EQ(cluster.server(1).stats().clock_holds, 0u);
  cluster.RunUntilIdle();
}

// The clock steps BACKWARDS while a prepare is held: the release timer fires,
// finds nothing due, re-arms (clock_rearms), and the vote is cast once the
// clock passes commit_ts again. Nothing is lost, nothing released early.
TEST(ClockCommitTest, BackwardsClockBetweenPrepareAndReleaseReArms) {
  Cluster cluster(ClockOptions(true));
  WalterServer& participant = cluster.server(1);
  WalterClient* client = cluster.AddClient(0);

  bool injected = false;
  std::function<void()> poll = [&]() {
    if (!injected && participant.held_prepare_count() > 0) {
      participant.clock().InjectStep(-Millis(50));
      injected = true;
      return;
    }
    if (!injected) {
      cluster.sim().After(Millis(1), poll);
    }
  };
  cluster.sim().After(Millis(1), poll);

  ASSERT_TRUE(CommitWrite(cluster, client, Oid(1, 5), "v").ok());
  ASSERT_TRUE(injected) << "prepare was never observed held";
  EXPECT_GE(participant.stats().clock_holds, 1u);
  EXPECT_GE(participant.stats().clock_rearms, 1u);
  EXPECT_EQ(participant.held_prepare_count(), 0u);
  cluster.RunUntilIdle();
}

// The snapshot-covered watermark bypass: a watermark whose decided version the
// writer's snapshot already Sees is history, not a conflict. With the flag on
// the write commits (and counts the bypass); with it off the same write hits
// the coverage-independent check and aborts.
TEST(ClockCommitTest, SnapshotCoveredWatermarkBypass) {
  for (bool clock_on : {true, false}) {
    Cluster cluster(ClockOptions(clock_on));
    WalterClient* client = cluster.AddClient(0);
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "v1").ok());

    // Plant a watermark on the already-committed version: every fresh
    // snapshot Sees it, so the clock path must treat it as covered history.
    WalterServer& server = cluster.server(0);
    uint64_t seqno = server.committed_vts().at(0);
    ASSERT_GE(seqno, 1u);
    server.lock_table().AddWatermark(
        Oid(0, 1), Version{0, seqno}, /*tid=*/777777, cluster.sim().Now());

    Status s = CommitWrite(cluster, client, Oid(0, 1), "v2");
    if (clock_on) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_GE(server.stats().clock_conflict_bypasses, 1u);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kAborted);
      EXPECT_EQ(server.stats().clock_conflict_bypasses, 0u);
    }
    server.lock_table().DropWatermarksOfTx(777777);
    cluster.RunUntilIdle();
  }
}

// Two identically seeded runs of concurrent clocked slow commits produce
// identical outcomes: held prepares release in strict (commit_ts, coordinator,
// tid) order, so there is no tie-break nondeterminism to leak.
TEST(ClockCommitTest, DeterministicReleaseOrdering) {
  auto run = [](std::vector<bool>* outcomes, std::string* final_value) {
    ClusterOptions options = ClockOptions(true);
    options.seed = 42;
    Cluster cluster(options);
    std::vector<WalterClient*> clients;
    for (int i = 0; i < 4; ++i) {
      clients.push_back(cluster.AddClient(0));
    }
    int pending = 4;
    std::vector<std::shared_ptr<Tx>> txs;
    for (int i = 0; i < 4; ++i) {
      auto tx = std::make_shared<Tx>(clients[i]);
      txs.push_back(tx);
      tx->Write(Oid(1, 9), "w" + std::to_string(i));  // all contend on one oid
      tx->Write(Oid(1, 100 + i), "p");
      tx->Commit([&, i](Status s) {
        (*outcomes)[i] = s.ok();
        --pending;
      });
    }
    while (pending > 0 && cluster.sim().Step()) {
    }
    EXPECT_EQ(pending, 0);
    cluster.RunUntilIdle();
    *final_value = ReadOnce(cluster, clients[0], Oid(1, 9), ConsistencyMode::kPsi)
                       .value_or("(nil)");
  };
  std::vector<bool> outcomes_a(4), outcomes_b(4);
  std::string final_a, final_b;
  run(&outcomes_a, &final_a);
  run(&outcomes_b, &final_b);
  EXPECT_EQ(outcomes_a, outcomes_b);
  EXPECT_EQ(final_a, final_b);
  // At least one contender wins.
  EXPECT_NE(final_a, "(nil)");
}

// Flag off: WAN slow commits run the classic path with zero clock activity —
// the byte-identity precondition.
TEST(ClockCommitTest, FlagOffHasNoClockActivity) {
  Cluster cluster(ClockOptions(false));
  WalterClient* client = cluster.AddClient(0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(1, 10 + i), "v").ok());
  }
  for (SiteId s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.server(s).stats().clock_commits, 0u);
    EXPECT_EQ(cluster.server(s).stats().clock_holds, 0u);
    EXPECT_EQ(cluster.server(s).stats().clock_fallbacks, 0u);
    EXPECT_EQ(cluster.server(s).stats().clock_rearms, 0u);
    EXPECT_EQ(cluster.server(s).stats().clock_conflict_bypasses, 0u);
    EXPECT_EQ(cluster.server(s).held_prepare_count(), 0u);
  }
  cluster.RunUntilIdle();
}

// --- Consistency-mode tests --------------------------------------------------

// NMSI reads through a live watermark: where PSI parks (and here, with
// nothing to clear the watermark, would starve), NMSI serves the latest
// applied version immediately and counts the permitted anomaly.
TEST(ConsistencyModeTest, NmsiReadServesThroughWatermark) {
  ClusterOptions options = ClockOptions(false);
  options.num_sites = 1;
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "old").ok());

  WalterServer& server = cluster.server(0);
  server.lock_table().AddWatermark(Oid(0, 1), Version{0, server.committed_vts().at(0)},
                                   /*tid=*/555555, cluster.sim().Now());

  std::optional<std::string> value =
      ReadOnce(cluster, client, Oid(0, 1), ConsistencyMode::kNmsi);
  EXPECT_EQ(value.value_or("(nil)"), "old");
  EXPECT_GE(server.stats().nmsi_reads_unparked, 1u);
  EXPECT_EQ(server.stats().watermark_read_waits, 0u);

  server.lock_table().DropWatermarksOfTx(555555);
  cluster.RunUntilIdle();
}

// End-to-end write skew: T1 reads x writes y, T2 reads y writes x,
// concurrently. PSI commits both (disjoint write sets — the classic permitted
// anomaly); serializable validates read sets through commit and aborts one.
TEST(ConsistencyModeTest, SerializableRejectsWriteSkewPsiPermitsIt) {
  for (ConsistencyMode mode : {ConsistencyMode::kPsi, ConsistencyMode::kSerializable}) {
    ClusterOptions options = ClockOptions(false);
    options.num_sites = 1;
    Cluster cluster(options);
    WalterClient* client = cluster.AddClient(0);
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "x0").ok());
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 2), "y0").ok());

    auto t1 = std::make_shared<Tx>(cluster.AddClient(0));
    auto t2 = std::make_shared<Tx>(cluster.AddClient(0));
    t1->SetMode(mode);
    t2->SetMode(mode);
    int pending = 2;
    std::vector<Status> results(2, Status::Ok());
    // Interleave: both read first (concurrent snapshots), then both commit.
    int reads_done = 0;
    auto commit_both = [&]() {
      t1->Write(Oid(0, 2), "y1");
      t2->Write(Oid(0, 1), "x2");
      t1->Commit([&](Status s) {
        results[0] = s;
        --pending;
      });
      t2->Commit([&](Status s) {
        results[1] = s;
        --pending;
      });
    };
    t1->Read(Oid(0, 1), [&](Status s, std::optional<std::string>) {
      ASSERT_TRUE(s.ok());
      if (++reads_done == 2) {
        commit_both();
      }
    });
    t2->Read(Oid(0, 2), [&](Status s, std::optional<std::string>) {
      ASSERT_TRUE(s.ok());
      if (++reads_done == 2) {
        commit_both();
      }
    });
    while (pending > 0 && cluster.sim().Step()) {
    }
    ASSERT_EQ(pending, 0);

    int committed = (results[0].ok() ? 1 : 0) + (results[1].ok() ? 1 : 0);
    if (mode == ConsistencyMode::kPsi) {
      EXPECT_EQ(committed, 2) << "PSI permits write skew";
      EXPECT_EQ(cluster.server(0).stats().ser_validations, 0u);
    } else {
      EXPECT_EQ(committed, 1) << "serializable must abort one side of the skew";
      EXPECT_GE(cluster.server(0).stats().ser_validations, 1u);
      EXPECT_GE(cluster.server(0).stats().aborts_ser_validation, 1u);
    }
    cluster.RunUntilIdle();
  }
}

// Serializable reads preferred at a remote site widen the 2PC participant set:
// the read is validated (and locked through the decision) at its preferred
// site, and the commit still succeeds when nothing conflicts.
TEST(ConsistencyModeTest, SerializableRemoteReadJoins2pc) {
  Cluster cluster(ClockOptions(false));
  WalterClient* client0 = cluster.AddClient(0);
  WalterClient* client1 = cluster.AddClient(1);
  ASSERT_TRUE(CommitWrite(cluster, client1, Oid(1, 3), "remote").ok());
  cluster.RunUntilIdle();  // propagate so site 0 can read it locally

  Tx tx(client0);
  tx.SetMode(ConsistencyMode::kSerializable);
  std::optional<Status> result;
  tx.Read(Oid(1, 3), [&](Status s, std::optional<std::string> v) {
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(v.value_or("(nil)"), "remote");
    tx.Write(Oid(0, 4), "local");
    tx.Commit([&](Status cs) { result = cs; });
  });
  while (!result.has_value() && cluster.sim().Step()) {
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  // The read's preferred site (1) saw a prepare: slow commit, not fast.
  EXPECT_GE(cluster.server(0).stats().slow_commits, 1u);
  EXPECT_GE(cluster.server(1).stats().prepares_handled, 1u);
  cluster.RunUntilIdle();
}

}  // namespace
}  // namespace walter
