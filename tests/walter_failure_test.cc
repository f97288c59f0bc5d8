// Failure injection: server crash and replacement (WAL/checkpoint recovery,
// propagation resumption, Section 5.7/6), message loss and partitions healed
// by retransmission and gossip, and aggressive site-failure recovery.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "src/core/cluster.h"
#include "src/psi/checker.h"

namespace walter {
namespace {

ObjectId Oid(uint64_t c, uint64_t l) { return ObjectId{c, l}; }

ClusterOptions LogicOptions(size_t num_sites) {
  ClusterOptions o;
  o.num_sites = num_sites;
  o.server.perf = PerfModel::Instant();
  o.server.disk = DiskConfig::Memory();
  o.server.gossip_interval = 0;
  return o;
}

Status CommitWrite(Cluster& cluster, WalterClient* client, const ObjectId& oid,
                   std::string value) {
  Tx tx(client);
  tx.Write(oid, std::move(value));
  Status result = Status::Internal("unfinished");
  bool done = false;
  tx.Commit([&](Status s) {
    result = s;
    done = true;
  });
  while (!done && cluster.sim().Step()) {
  }
  return result;
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
  return value;
}

TEST(FailureTest, ReplacementServerRecoversFromWal) {
  Cluster cluster(LogicOptions(1));
  WalterClient* client = cluster.AddClient(0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(1, i), "v" + std::to_string(i)).ok());
  }
  cluster.server(0).Crash();
  cluster.ReplaceServer(0);

  WalterClient* client2 = cluster.AddClient(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ReadOnce(cluster, client2, Oid(1, i)), "v" + std::to_string(i));
  }
  // The replacement continues assigning fresh sequence numbers.
  ASSERT_TRUE(CommitWrite(cluster, client2, Oid(1, 100), "after").ok());
  EXPECT_EQ(cluster.server(0).committed_vts().at(0), 6u);
}

TEST(FailureTest, ReplacementServerRecoversFromCheckpointPlusTail) {
  Cluster cluster(LogicOptions(1));
  WalterClient* client = cluster.AddClient(0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(1, i), "cp" + std::to_string(i)).ok());
  }
  // All-maximum floors: truncates the whole WAL prefix the checkpoint covers.
  cluster.server(0).CheckpointRetaining(
      VectorTimestamp(std::vector<uint64_t>(1, std::numeric_limits<uint64_t>::max())));
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(1, i), "cp" + std::to_string(i)).ok());
  }
  cluster.server(0).Crash();
  cluster.ReplaceServer(0);

  WalterClient* client2 = cluster.AddClient(0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ReadOnce(cluster, client2, Oid(1, i)), "cp" + std::to_string(i));
  }
}

TEST(FailureTest, ReplacementResumesPropagation) {
  // Commit at site 0, crash it before any propagation batch departs, replace
  // it — the replacement must finish replicating (Section 5.7).
  ClusterOptions options = LogicOptions(2);
  Cluster cluster(options);
  cluster.net().SetPartitioned(0, 1, true);  // hold propagation back

  WalterClient* client = cluster.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "survivor").ok());
  cluster.RunFor(Seconds(1));
  EXPECT_EQ(cluster.server(1).committed_vts().at(0), 0u);

  cluster.server(0).Crash();
  cluster.net().SetPartitioned(0, 1, false);
  cluster.ReplaceServer(0);
  cluster.RunFor(Seconds(5));

  EXPECT_EQ(cluster.server(1).committed_vts().at(0), 1u);
  WalterClient* remote = cluster.AddClient(1);
  EXPECT_EQ(ReadOnce(cluster, remote, Oid(0, 1)), "survivor");
}

TEST(FailureTest, UnflushedCommitsDoNotSurviveCrash) {
  // With a real (slow) disk, a commit whose flush has not completed is not in
  // the durable image: write-ahead logging semantics.
  ClusterOptions options = LogicOptions(1);
  options.server.disk = DiskConfig::WriteCacheOff();  // ~8ms flush
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);

  Tx tx(client);
  tx.Write(Oid(1, 1), "maybe-lost");
  bool committed = false;
  tx.Commit([&](Status s) { committed = s.ok(); });
  // Let the request reach the server but crash before the flush completes.
  cluster.RunFor(Millis(2));
  EXPECT_FALSE(committed);  // client never got the commit ack
  cluster.server(0).Crash();
  cluster.ReplaceServer(0);

  WalterClient* client2 = cluster.AddClient(0);
  EXPECT_EQ(ReadOnce(cluster, client2, Oid(1, 1)), std::nullopt);
}

TEST(FailureTest, PartitionDelaysVisibilityThenHeals) {
  ClusterOptions options = LogicOptions(3);
  options.server.gossip_interval = Millis(500);  // gossip heals loss
  options.server.f = 1;  // paper default: disaster-safe at f+1 = 2 sites (§4.4)
  Cluster cluster(options);
  WalterClient* writer = cluster.AddClient(0);

  cluster.net().SetPartitioned(0, 1, true);
  ASSERT_TRUE(CommitWrite(cluster, writer, Oid(0, 1), "x").ok());
  cluster.RunFor(Seconds(3));
  EXPECT_EQ(cluster.server(1).committed_vts().at(0), 0u);  // cut off
  EXPECT_EQ(cluster.server(2).committed_vts().at(0), 1u);  // still reachable
  // Not globally visible while a site is unreachable.
  EXPECT_EQ(cluster.server(0).globally_visible_through(), 0u);

  cluster.net().SetPartitioned(0, 1, false);
  cluster.RunFor(Seconds(5));
  EXPECT_EQ(cluster.server(1).committed_vts().at(0), 1u);
  EXPECT_EQ(cluster.server(0).globally_visible_through(), 1u);
}

TEST(FailureTest, MessageLossConvergesViaRetransmission) {
  ClusterOptions options = LogicOptions(3);
  options.server.gossip_interval = Millis(500);
  options.server.resend_timeout = Millis(800);
  Cluster cluster(options);
  cluster.net().SetLossProbability(0.3);

  WalterClient* c0 = cluster.AddClient(0);
  WalterClient* c1 = cluster.AddClient(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, c0, Oid(0, i), "a" + std::to_string(i)).ok());
    ASSERT_TRUE(CommitWrite(cluster, c1, Oid(1, i), "b" + std::to_string(i)).ok());
  }
  cluster.RunFor(Seconds(30));
  cluster.net().SetLossProbability(0);
  cluster.RunFor(Seconds(10));

  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.server(s).committed_vts().at(0), 10u) << "site " << s;
    EXPECT_EQ(cluster.server(s).committed_vts().at(1), 10u) << "site " << s;
  }
  EXPECT_EQ(cluster.server(0).globally_visible_through(), 10u);
}

TEST(FailureTest, SlowCommitAbortsWhenPreferredSiteUnreachable) {
  ClusterOptions options = LogicOptions(2);
  options.server.resend_timeout = Millis(500);
  Cluster cluster(options);
  cluster.net().SetPartitioned(0, 1, true);

  WalterClient* client = cluster.AddClient(0);
  // Container 1 prefers site 1, which is unreachable: prepare times out.
  Status s = CommitWrite(cluster, client, Oid(1, 1), "doomed");
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  // Availability for local-preferred writes is unaffected (Section 4.4).
  EXPECT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "fine").ok());
}

TEST(FailureTest, AggressiveSiteRecoveryDiscardsNonSurvivingTxns) {
  // Site 0 commits two transactions; only the first reaches site 1 before
  // site 0 dies. Aggressive recovery (Section 5.7) keeps the survivor and
  // discards the unpropagated transaction at every remaining site.
  ClusterOptions options = LogicOptions(3);
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);

  ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "survives").ok());
  cluster.RunFor(Seconds(2));  // first txn fully propagated
  cluster.net().IsolateSite(0, true);
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 2), "lost").ok());
  cluster.RunFor(Seconds(1));

  // Site 0 is declared failed. Survivors: everything sites 1/2 received.
  uint64_t survive_through = std::max(cluster.server(1).got_vts().at(0),
                                      cluster.server(2).got_vts().at(0));
  EXPECT_EQ(survive_through, 1u);
  cluster.server(1).DiscardNonSurviving(0, survive_through);
  cluster.server(2).DiscardNonSurviving(0, survive_through);
  // Reassign the failed site's containers to site 1 (the config service's job;
  // done directly here).
  cluster.UpsertContainerEverywhere(ContainerInfo{0, 1, {}});

  WalterClient* c1 = cluster.AddClient(1);
  EXPECT_EQ(ReadOnce(cluster, c1, Oid(0, 1)), "survives");
  EXPECT_EQ(ReadOnce(cluster, c1, Oid(0, 2)), std::nullopt);
  // Writes to the re-homed container fast-commit at the new preferred site.
  ASSERT_TRUE(CommitWrite(cluster, c1, Oid(0, 3), "new-home").ok());
  EXPECT_GE(cluster.server(1).stats().fast_commits, 1u);
}

TEST(FailureTest, OrphanedPrepareLocksReleasedByTerminationProtocol) {
  // A coordinator crashes after its prepare locked objects at the preferred
  // site but before deciding. The lock holder's termination protocol queries
  // the (replacement) coordinator, learns the transaction is unknown, and
  // releases the lock — restoring write availability at the preferred site.
  ClusterOptions options = LogicOptions(2);
  options.server.gossip_interval = Millis(400);  // drives the stale-lock sweep
  options.server.resend_timeout = Millis(300);
  Cluster cluster(options);

  // Site 0 coordinates a slow commit on an object preferred at site 1, but its
  // votes never come back (we cut the return path by crashing site 0 as soon
  // as the prepare is sent).
  WalterClient* c0 = cluster.AddClient(0);
  Tx doomed(c0);
  doomed.Write(Oid(1, 1), "never-decided");
  doomed.Commit([](Status) {});
  // Run just long enough for the prepare to lock the object at site 1.
  cluster.RunFor(Millis(60));
  cluster.server(0).Crash();
  cluster.RunFor(Millis(100));

  // The object is locked at site 1: local writes there abort.
  WalterClient* c1 = cluster.AddClient(1);
  EXPECT_EQ(CommitWrite(cluster, c1, Oid(1, 1), "blocked").code(), StatusCode::kAborted);

  // A replacement server comes up; the sweep queries it, learns the tid is
  // unknown, and releases the orphaned lock.
  cluster.ReplaceServer(0);
  cluster.RunFor(Seconds(3));
  EXPECT_TRUE(CommitWrite(cluster, c1, Oid(1, 1), "unblocked").ok());
  EXPECT_EQ(ReadOnce(cluster, c1, Oid(1, 1)), "unblocked");
}

TEST(FailureTest, CommittedSlowCommitLockSurvivesTerminationQuery) {
  // If the coordinator DID commit, the termination protocol must keep the lock
  // until the transaction propagates — releasing early would let a conflicting
  // fast commit slip in under a committed transaction.
  ClusterOptions options = LogicOptions(2);
  options.server.gossip_interval = Millis(400);
  options.server.resend_timeout = Millis(300);
  Cluster cluster(options);

  WalterClient* c0 = cluster.AddClient(0);
  // Let the 2PC prepare complete (one VA-CA round trip), then hold propagation
  // back for two seconds so the committed transaction's lock lingers at site 1
  // long enough for the stale-lock sweep to query the coordinator.
  cluster.sim().After(Millis(95), [&] { cluster.net().SetPartitioned(0, 1, true); });
  cluster.sim().After(Seconds(2), [&] { cluster.net().SetPartitioned(0, 1, false); });
  Status s = CommitWrite(cluster, c0, Oid(1, 1), "cross");
  ASSERT_TRUE(s.ok());

  // During the partition, the lock at site 1 must survive the termination
  // query (the coordinator answers "committed"): a conflicting local write
  // keeps aborting rather than overwriting a committed transaction.
  cluster.RunFor(Millis(1500));
  WalterClient* c1 = cluster.AddClient(1);
  EXPECT_EQ(CommitWrite(cluster, c1, Oid(1, 1), "usurper").code(), StatusCode::kAborted);

  cluster.RunFor(Seconds(5));  // heal + propagate: lock released the right way
  EXPECT_EQ(ReadOnce(cluster, c1, Oid(1, 1)), "cross");
}

TEST(FailureTest, PsiHoldsUnderMessageLoss) {
  ClusterOptions options = LogicOptions(3);
  options.server.gossip_interval = Millis(500);
  options.server.resend_timeout = Millis(800);
  options.seed = 99;
  Cluster cluster(options);
  cluster.net().SetLossProbability(0.2);

  PsiChecker checker(3);
  cluster.ObserveCommits([&](SiteId site, const TxRecord& rec) {
    checker.OnApply(site, rec.tid);
    if (site == rec.origin) {
      RecordedTx recorded;
      recorded.record = rec;
      checker.OnCommit(std::move(recorded));
    }
  });

  std::vector<WalterClient*> clients;
  for (SiteId s = 0; s < 3; ++s) {
    clients.push_back(cluster.AddClient(s));
  }
  Rng rng(7);
  for (int round = 0; round < 15; ++round) {
    for (SiteId s = 0; s < 3; ++s) {
      // Local-preferred write (fast commit).
      ASSERT_TRUE(CommitWrite(cluster, clients[s], Oid(s, rng.Uniform(10)),
                              "r" + std::to_string(round))
                      .ok());
    }
    cluster.RunFor(Millis(200));
  }
  cluster.RunFor(Seconds(30));
  cluster.net().SetLossProbability(0);
  cluster.RunFor(Seconds(10));

  Status result = checker.Check();
  EXPECT_TRUE(result.ok()) << result.ToString();
  for (SiteId s = 0; s < 3; ++s) {
    for (SiteId o = 0; o < 3; ++o) {
      EXPECT_EQ(cluster.server(s).committed_vts().at(o), 15u)
          << "site " << s << " origin " << o;
    }
  }
}

}  // namespace
}  // namespace walter
