// Propagation-protocol edge cases (Figure 13): causal buffering of
// out-of-order cross-origin arrivals, the durability gate on remote commits,
// batch segmentation, and the Section 5.8 "local sites" scalability scheme.
#include <gtest/gtest.h>

#include <optional>

#include "src/core/cluster.h"

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

// A transaction that causally depends on a remote transaction cannot commit at
// a third site before its dependency, even when the dependency's delivery is
// delayed by a partition (the receive/commit guards of Figure 13).
TEST(PropagationTest, CausalDependencyBuffersUntilSatisfied) {
  ClusterOptions options = LogicOptions(3);
  options.server.gossip_interval = Millis(300);
  options.server.resend_timeout = Millis(500);
  options.server.f = 1;  // disaster safety at 2 sites, reachable despite the cut
  Cluster cluster(options);

  WalterClient* c0 = cluster.AddClient(0);
  WalterClient* c1 = cluster.AddClient(1);

  // Cut site 0 off from site 2 so T1 (site 0) reaches site 1 but not site 2.
  cluster.net().SetPartitioned(0, 2, true);
  ASSERT_TRUE(CommitWrite(cluster, c0, Oid(0, 1), "t1").ok());
  cluster.RunFor(Seconds(2));
  ASSERT_EQ(cluster.server(1).committed_vts().at(0), 1u);
  ASSERT_EQ(cluster.server(2).committed_vts().at(0), 0u);

  // T2 at site 1 reads T1 (causal dependency), then writes.
  ASSERT_EQ(ReadOnce(cluster, c1, Oid(0, 1)), "t1");
  ASSERT_TRUE(CommitWrite(cluster, c1, Oid(1, 1), "t2").ok());
  cluster.RunFor(Seconds(3));

  // Site 2 has received T2 from site 1 but must NOT commit it: T1 is missing.
  EXPECT_EQ(cluster.server(2).committed_vts().at(1), 0u);
  WalterClient* c2 = cluster.AddClient(2);
  EXPECT_EQ(ReadOnce(cluster, c2, Oid(1, 1)), std::nullopt);

  // Heal: T1 arrives, then T2 commits — in causal order.
  cluster.net().SetPartitioned(0, 2, false);
  cluster.RunFor(Seconds(5));
  EXPECT_EQ(cluster.server(2).committed_vts().at(0), 1u);
  EXPECT_EQ(cluster.server(2).committed_vts().at(1), 1u);
  EXPECT_EQ(ReadOnce(cluster, c2, Oid(1, 1)), "t2");
  EXPECT_EQ(ReadOnce(cluster, c2, Oid(0, 1)), "t1");
}

// A drain can also apply another origin's records that were parked behind a
// causal dependency the arriving batch satisfied. That origin must be acked
// too: its one-batch window to this site stays shut until it is, so without
// the ack it would stall until the resend timeout.
TEST(PropagationTest, DrainAcksEveryOriginItAdvanced) {
  ClusterOptions options = LogicOptions(3);
  options.server.f = 1;  // B's commit is disaster-safe once A has it
  // A (0) is near both B (1) and C (2); B and C are far apart, so A's record
  // that depends on B's reaches C long before B's own record does.
  Topology topology(3);
  topology.SetRtt(0, 1, Millis(10));
  topology.SetRtt(0, 2, Millis(10));
  topology.SetRtt(1, 2, Millis(400));
  options.topology = topology;
  Cluster cluster(options);
  WalterClient* a = cluster.AddClient(0);
  WalterClient* b = cluster.AddClient(1);

  ASSERT_TRUE(CommitWrite(cluster, b, Oid(1, 1), "tb").ok());
  cluster.RunFor(Millis(30));
  ASSERT_EQ(cluster.server(0).committed_vts().at(1), 1u);
  // A's transaction starts from a snapshot holding B's: a causal dependency.
  ASSERT_TRUE(CommitWrite(cluster, a, Oid(0, 1), "ta1").ok());
  cluster.RunFor(Millis(50));
  ASSERT_EQ(cluster.server(2).got_vts().at(0), 0u);  // parked behind B's record

  // B's record lands at C (~200 ms one way) and the drain applies both.
  cluster.RunFor(Millis(250));
  ASSERT_EQ(cluster.server(2).got_vts().at(1), 1u);
  ASSERT_EQ(cluster.server(2).got_vts().at(0), 1u);

  // A's window to C reopened on C's ack, so its next commit flows at once —
  // far inside the 2 s resend timeout, and without any resend.
  ASSERT_TRUE(CommitWrite(cluster, a, Oid(0, 2), "ta2").ok());
  cluster.RunFor(Millis(50));
  EXPECT_EQ(cluster.server(2).got_vts().at(0), 2u);
  EXPECT_EQ(cluster.server(0).stats().batch_resends, 0u);
}

// Remote commits gate on the origin's disaster-safe announcement: a site that
// received a transaction but no DS-DURABLE for it keeps it invisible.
TEST(PropagationTest, RemoteCommitWaitsForDurabilityAnnouncement) {
  ClusterOptions options = LogicOptions(3);
  options.server.f = 2;  // needs all three sites for disaster safety
  Cluster cluster(options);
  WalterClient* c0 = cluster.AddClient(0);

  // Site 2 can receive data but site 1 is cut off: the quorum (3 sites) is
  // unreachable, so nothing becomes disaster-safe and site 2 must not commit.
  cluster.net().SetPartitioned(0, 1, true);
  ASSERT_TRUE(CommitWrite(cluster, c0, Oid(0, 1), "gated").ok());
  cluster.RunFor(Seconds(3));
  EXPECT_GE(cluster.server(2).got_vts().at(0), 1u);       // received...
  EXPECT_EQ(cluster.server(2).committed_vts().at(0), 0u);  // ...but not committed
  EXPECT_EQ(cluster.server(0).ds_durable_through(), 0u);

  cluster.net().SetPartitioned(0, 1, false);
  cluster.RunFor(Seconds(5));
  EXPECT_EQ(cluster.server(2).committed_vts().at(0), 1u);
  EXPECT_EQ(cluster.server(0).ds_durable_through(), 1u);
}

// Many commits while a destination is unreachable must be delivered in several
// capped batches after healing, in order.
TEST(PropagationTest, BacklogDrainsInCappedBatches) {
  ClusterOptions options = LogicOptions(2);
  options.server.max_batch_records = 10;
  options.server.gossip_interval = Millis(300);
  options.server.resend_timeout = Millis(500);
  Cluster cluster(options);
  WalterClient* c0 = cluster.AddClient(0);

  cluster.net().SetPartitioned(0, 1, true);
  for (int i = 0; i < 45; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, c0, Oid(0, i), "v" + std::to_string(i)).ok());
  }
  cluster.net().SetPartitioned(0, 1, false);
  cluster.RunFor(Seconds(10));

  EXPECT_EQ(cluster.server(1).committed_vts().at(0), 45u);
  EXPECT_GE(cluster.server(0).stats().batches_sent, 5u);  // 45 records / cap 10
  WalterClient* c1 = cluster.AddClient(1);
  EXPECT_EQ(ReadOnce(cluster, c1, Oid(0, 44)), "v44");
}

// Cross-site bandwidth (22 Mbps, Section 8.1) throttles propagation of large
// values: a megabyte-scale backlog takes visibly longer than the RTT.
TEST(PropagationTest, BandwidthLimitsLargeValuePropagation) {
  ClusterOptions options = LogicOptions(2);
  Cluster cluster(options);
  WalterClient* c0 = cluster.AddClient(0);

  // ~4 MB of committed data: at 22 Mbps the transfer alone needs ~1.5 s.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, c0, Oid(0, i), std::string(256 * 1024, 'x')).ok());
  }
  SimTime start = cluster.sim().Now();
  cluster.RunFor(Seconds(1));
  EXPECT_LT(cluster.server(1).committed_vts().at(0), 16u);  // still transferring
  cluster.RunFor(Seconds(6));
  EXPECT_EQ(cluster.server(1).committed_vts().at(0), 16u);
  (void)start;
}

// Section 5.8: scale one data center by running several "local sites" with a
// low-latency interconnect and partitioning objects across them; transactions
// read non-replicated objects from the co-located site cheaply.
TEST(PropagationTest, LocalSitesScalingScheme) {
  ClusterOptions options = LogicOptions(2);
  options.topology = Topology::Uniform(2, /*cross=*/Millis(1), /*intra=*/Millis(0.3));
  Cluster cluster(options);
  // Partition the data: container 0 lives only at local-site 0, container 1
  // only at local-site 1.
  cluster.UpsertContainerEverywhere(ContainerInfo{0, 0, {0}});
  cluster.UpsertContainerEverywhere(ContainerInfo{1, 1, {1}});

  WalterClient* c0 = cluster.AddClient(0);
  WalterClient* c1 = cluster.AddClient(1);
  ASSERT_TRUE(CommitWrite(cluster, c0, Oid(0, 1), "on-site-0").ok());
  ASSERT_TRUE(CommitWrite(cluster, c1, Oid(1, 1), "on-site-1").ok());
  cluster.RunFor(Seconds(1));

  // Each local site reads the other partition through a cheap (1 ms) fetch.
  EXPECT_EQ(ReadOnce(cluster, c0, Oid(1, 1)), "on-site-1");
  EXPECT_EQ(ReadOnce(cluster, c1, Oid(0, 1)), "on-site-0");
  EXPECT_GE(cluster.server(0).stats().remote_reads, 1u);
  // The partitions really are disjoint on disk.
  EXPECT_FALSE(cluster.server(0).store().Has(Oid(1, 1)));
  EXPECT_FALSE(cluster.server(1).store().Has(Oid(0, 1)));
}

// Transactions of one site commit in sequence-number order at every remote
// site, even when issued concurrently (Figure 13's per-origin ordering).
TEST(PropagationTest, PerOriginOrderPreservedRemotely) {
  ClusterOptions options = LogicOptions(2);
  Cluster cluster(options);
  std::vector<std::pair<SiteId, uint64_t>> commit_order;
  cluster.ObserveCommits([&](SiteId site, const TxRecord& rec) {
    if (site == 1 && rec.origin == 0) {
      commit_order.emplace_back(site, rec.version.seqno);
    }
  });

  WalterClient* c0 = cluster.AddClient(0);
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    auto tx = std::make_shared<Tx>(c0);
    tx->Write(Oid(0, i), "v");
    tx->Commit([tx, &committed](Status s) {
      ASSERT_TRUE(s.ok());
      ++committed;
    });
  }
  while (committed < 20 && cluster.sim().Step()) {
  }
  cluster.RunFor(Seconds(3));

  ASSERT_EQ(commit_order.size(), 20u);
  for (size_t i = 0; i < commit_order.size(); ++i) {
    EXPECT_EQ(commit_order[i].second, i + 1) << "out-of-order remote commit";
  }
}

}  // namespace
}  // namespace walter
