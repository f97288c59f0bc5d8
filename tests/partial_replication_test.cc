// Partial replication (Sections 4.3 and 5.8): containers replicated at a
// subset of sites; reads from a non-replica site fetch from the preferred site
// and merge with local unreplicated updates; garbage collection.
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

template <typename Pred>
void Drive(Cluster& cluster, Pred done) {
  while (!done() && cluster.sim().Step()) {
  }
  ASSERT_TRUE(done());
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

class PartialReplicationTest : public ::testing::Test {
 protected:
  PartialReplicationTest() : cluster_(LogicOptions(3)) {
    // Container 7: preferred at site 0, replicated ONLY at sites 0 and 1.
    cluster_.UpsertContainerEverywhere(ContainerInfo{7, 0, {0, 1}});
  }
  Cluster cluster_;
};

TEST_F(PartialReplicationTest, NonReplicaSiteReadsViaPreferredSite) {
  WalterClient* writer = cluster_.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster_, writer, Oid(7, 1), "stored-at-0-and-1").ok());
  cluster_.RunFor(Seconds(2));

  // Site 2 does not replicate container 7: the read is served remotely.
  WalterClient* reader = cluster_.AddClient(2);
  EXPECT_EQ(ReadOnce(cluster_, reader, Oid(7, 1)), "stored-at-0-and-1");
  EXPECT_GE(cluster_.server(2).stats().remote_reads, 1u);
  // And the object's updates were never stored at site 2.
  EXPECT_FALSE(cluster_.server(2).store().Has(Oid(7, 1)));
}

TEST_F(PartialReplicationTest, ReplicaSiteReadsLocally) {
  WalterClient* writer = cluster_.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster_, writer, Oid(7, 2), "v").ok());
  cluster_.RunFor(Seconds(2));
  WalterClient* reader = cluster_.AddClient(1);
  uint64_t remote_before = cluster_.server(1).stats().remote_reads;
  EXPECT_EQ(ReadOnce(cluster_, reader, Oid(7, 2)), "v");
  EXPECT_EQ(cluster_.server(1).stats().remote_reads, remote_before);
}

TEST_F(PartialReplicationTest, NonReplicaWriteSlowCommitsAndMergesOnRead) {
  // A write from non-replica site 2 slow-commits through the preferred site;
  // before the update propagates back, a read AT SITE 2 must still see the
  // transaction's own committed write (merge of local history + remote fetch,
  // Figure 10).
  WalterClient* client = cluster_.AddClient(2);
  ASSERT_TRUE(CommitWrite(cluster_, client, Oid(7, 3), "written-from-2").ok());
  EXPECT_EQ(cluster_.server(2).stats().slow_commits, 1u);
  // Immediately (no propagation time): local history holds the fresh write.
  EXPECT_EQ(ReadOnce(cluster_, client, Oid(7, 3)), "written-from-2");
  // After full propagation it is still correct (served by merge or remotely).
  cluster_.RunFor(Seconds(3));
  EXPECT_EQ(ReadOnce(cluster_, client, Oid(7, 3)), "written-from-2");
}

TEST_F(PartialReplicationTest, CsetRemoteReadMergesWithoutDoubleCounting) {
  // Site 2 adds to a cset it does not replicate; reading it back from site 2
  // must count the local unreplicated op exactly once, before and after it
  // propagates to the preferred site (the exclusion logic of Section 4.3).
  WalterClient* client = cluster_.AddClient(2);
  ObjectId cset = Oid(7, 100);
  Tx tx(client);
  tx.SetAdd(cset, Oid(9, 1));
  bool committed = false;
  tx.Commit([&](Status s) {
    ASSERT_TRUE(s.ok());
    committed = true;
  });
  Drive(cluster_, [&] { return committed; });

  auto count_at_2 = [&]() {
    Tx read_tx(client);
    int64_t count = -1;
    bool done = false;
    read_tx.SetReadId(cset, Oid(9, 1), [&](Status s, int64_t c) {
      EXPECT_TRUE(s.ok());
      count = c;
      done = true;
    });
    while (!done && cluster_.sim().Step()) {
    }
    return count;
  };

  EXPECT_EQ(count_at_2(), 1);  // before propagation: local op only
  cluster_.RunFor(Seconds(3));
  EXPECT_EQ(count_at_2(), 1);  // after propagation: not double counted
}

TEST_F(PartialReplicationTest, PropagationSkipsNonReplicaSites) {
  WalterClient* writer = cluster_.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster_, writer, Oid(7, 4), "data").ok());
  cluster_.RunFor(Seconds(3));
  // The transaction committed at all sites (PSI semantics, Section 4.3)...
  EXPECT_EQ(cluster_.server(2).committed_vts().at(0), 1u);
  // ...but site 2 stored nothing for it.
  EXPECT_FALSE(cluster_.server(2).store().Has(Oid(7, 4)));
  EXPECT_TRUE(cluster_.server(1).store().Has(Oid(7, 4)));
}

TEST(GarbageCollectionTest, FoldedHistoriesStillServeNewSnapshots) {
  Cluster cluster(LogicOptions(2));
  WalterClient* client = cluster.AddClient(0);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 5), "v" + std::to_string(i)).ok());
  }
  cluster.RunFor(Seconds(2));

  // GC both sites to the globally stable frontier.
  VectorTimestamp stable = cluster.server(0).committed_vts();
  for (SiteId s = 0; s < 2; ++s) {
    VectorTimestamp site_vts = cluster.server(s).committed_vts();
    // The stable frontier is what everyone has committed.
    for (SiteId o = 0; o < 2; ++o) {
      stable.set(o, std::min(stable.at(o), site_vts.at(o)));
    }
  }
  size_t folded0 = cluster.server(0).DriveGc(stable);
  size_t folded1 = cluster.server(1).DriveGc(stable);
  EXPECT_GT(folded0, 0u);
  EXPECT_GT(folded1, 0u);

  // Reads at fresh snapshots still see the latest value at both sites.
  EXPECT_EQ(ReadOnce(cluster, client, Oid(0, 5)), "v29");
  WalterClient* remote = cluster.AddClient(1);
  EXPECT_EQ(ReadOnce(cluster, remote, Oid(0, 5)), "v29");
  // And new writes continue fine after GC.
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 5), "after-gc").ok());
  EXPECT_EQ(ReadOnce(cluster, client, Oid(0, 5)), "after-gc");
}

}  // namespace
}  // namespace walter
