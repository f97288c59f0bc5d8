// Intra-site sharding: shard-map hashing, directory translation, client
// routing, cross-shard 2PC, per-shard recovery, GC over shards, and a PSI
// check over a seeded sharded workload.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/config/shard_map.h"
#include "src/core/cluster.h"
#include "src/psi/checker.h"

namespace walter {
namespace {

ObjectId Oid(uint64_t container, uint64_t local) { return ObjectId{container, local}; }

// Logic-test options: no modeled CPU/disk cost, no gossip (so the simulator
// quiesces), deterministic network.
ClusterOptions ShardedOptions(size_t num_sites, size_t shards_per_site) {
  ClusterOptions o;
  o.num_sites = num_sites;
  o.servers_per_site.assign(num_sites, shards_per_site);
  o.server.perf = PerfModel::Instant();
  o.server.disk = DiskConfig::Memory();
  o.server.gossip_interval = 0;
  return o;
}

Status CommitTx(Cluster& cluster, Tx& tx) {
  Status result = Status::Internal("not finished");
  bool done = false;
  tx.Commit([&](Status s) {
    result = s;
    done = true;
  });
  while (!done && cluster.sim().Step()) {
  }
  EXPECT_TRUE(done) << "simulation drained before commit finished";
  return result;
}

Status CommitWrite(Cluster& cluster, WalterClient* client, const ObjectId& oid,
                   std::string value) {
  Tx tx(client);
  tx.Write(oid, std::move(value));
  return CommitTx(cluster, tx);
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

// Finds a container preferred at `site` that its shard map hashes to `shard`.
ContainerId ContainerOnShard(const ShardMap& map, SiteId site, size_t shard) {
  for (ContainerId c = site;; c += map.num_sites()) {
    if (map.ShardOf(c, site) == shard) {
      return c;
    }
  }
}

// --- ShardMap ----------------------------------------------------------------

TEST(ShardMapTest, TrivialMapIsIdentity) {
  ShardMap map(3);
  EXPECT_TRUE(map.trivial());
  EXPECT_EQ(map.num_sites(), 3u);
  EXPECT_EQ(map.num_servers(), 3u);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(map.SiteOf(s), s);
    EXPECT_EQ(map.ServerAt(s, 0), s);
    for (ContainerId c = 0; c < 50; ++c) {
      EXPECT_EQ(map.ShardOf(c, s), 0u);
      EXPECT_EQ(map.OwnerAt(c, s), s);
    }
  }
}

TEST(ShardMapTest, ServerIdsAreDenseSiteMajor) {
  ShardMap map({2, 1, 3});
  EXPECT_FALSE(map.trivial());
  EXPECT_EQ(map.num_sites(), 3u);
  EXPECT_EQ(map.num_servers(), 6u);
  EXPECT_EQ(map.ServerAt(0, 0), 0u);
  EXPECT_EQ(map.ServerAt(0, 1), 1u);
  EXPECT_EQ(map.ServerAt(1, 0), 2u);
  EXPECT_EQ(map.ServerAt(2, 0), 3u);
  EXPECT_EQ(map.ServerAt(2, 2), 5u);
  for (SiteId v = 0; v < 6; ++v) {
    SiteId site = map.SiteOf(v);
    EXPECT_EQ(map.ServerAt(site, map.ShardIndexOf(v)), v);
  }
  EXPECT_EQ(map.SiteOf(1), 0u);
  EXPECT_EQ(map.SiteOf(2), 1u);
  EXPECT_EQ(map.SiteOf(5), 2u);
}

TEST(ShardMapTest, HashingIsStableAndInRange) {
  ShardMap map = ShardMap::Uniform(2, 4);
  std::vector<size_t> hits(4, 0);
  for (ContainerId c = 0; c < 4000; ++c) {
    size_t shard = map.ShardOf(c, 0);
    ASSERT_LT(shard, 4u);
    ++hits[shard];
    // Deterministic: the same container always lands on the same shard.
    EXPECT_EQ(map.ShardOf(c, 0), shard);
  }
  // splitmix64 spreads 4000 sequential ids roughly evenly (exact counts are
  // pinned by the hash; the bound just catches gross skew or a hash change).
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(hits[shard], 800u);
    EXPECT_LT(hits[shard], 1200u);
  }
}

TEST(ShardMapTest, ShardIndexIsSiteIndependentForEqualShardCounts) {
  // The hash depends only on the container id and the site's shard count, so
  // a container maps to the same shard INDEX at every site with that count —
  // and keeps it when a site is removed from the configuration.
  ShardMap three = ShardMap::Uniform(3, 4);
  ShardMap two = ShardMap::Uniform(2, 4);
  for (ContainerId c = 0; c < 500; ++c) {
    size_t at0 = three.ShardOf(c, 0);
    EXPECT_EQ(three.ShardOf(c, 1), at0);
    EXPECT_EQ(three.ShardOf(c, 2), at0);
    // Site removal (3 -> 2 sites): surviving sites re-home nothing.
    EXPECT_EQ(two.ShardOf(c, 0), at0);
    EXPECT_EQ(two.OwnerAt(c, 0), three.OwnerAt(c, 0));
  }
}

// --- Directory translation ---------------------------------------------------

TEST(ShardedDirectoryTest, TranslatesPreferredAndReplicasToOwningShards) {
  Cluster cluster(ShardedOptions(2, 2));
  const ShardMap& map = cluster.shard_map();

  // Default container c is preferred at logical site c % num_sites and
  // replicated everywhere; the translated info names one owning shard per
  // site, with the preferred site's owner as the preferred server.
  for (ContainerId c = 0; c < 20; ++c) {
    ContainerInfo info = cluster.directory(0).Get(c);
    SiteId logical = c % 2;
    EXPECT_EQ(info.preferred_site, map.OwnerAt(c, logical));
    ASSERT_EQ(info.replicas.size(), 2u);
    EXPECT_EQ(info.replicas[0], map.OwnerAt(c, 0));
    EXPECT_EQ(info.replicas[1], map.OwnerAt(c, 1));
    // Exactly one owning shard per site, so quorum arithmetic is unchanged.
    std::set<SiteId> sites;
    for (SiteId r : info.replicas) {
      sites.insert(map.SiteOf(r));
    }
    EXPECT_EQ(sites.size(), 2u);
  }
}

// PreferredSite/ReplicatedAt answer without building a ContainerInfo; they
// must agree with Get() for every container and server, whatever the map,
// explicit replica lists and site remaps say.
TEST(ShardedDirectoryTest, DirectLookupsMatchGet) {
  std::vector<std::optional<ShardMap>> maps = {
      std::nullopt, ShardMap(3), ShardMap::Uniform(3, 2), ShardMap(std::vector<size_t>{1, 3, 2})};
  for (size_t m = 0; m < maps.size(); ++m) {
    for (bool remapped : {false, true}) {
      ContainerDirectory dir(3);
      if (maps[m]) {
        dir.AttachShardMap(&*maps[m]);
      }
      dir.Upsert(ContainerInfo{4, 1, {1, 2}});
      dir.Upsert(ContainerInfo{5, 0, {0}});
      dir.Upsert(ContainerInfo{7, 2, {}});
      dir.Upsert(ContainerInfo{9, 2, {2, 0}});
      if (remapped) {
        dir.RemapSite(0, 2);
      }
      size_t servers = maps[m] ? maps[m]->num_servers() : 3;
      for (ContainerId c = 0; c < 24; ++c) {
        ContainerInfo info = dir.Get(c);
        ObjectId oid{c, 3};
        SCOPED_TRACE("map " + std::to_string(m) + " remap " + std::to_string(remapped) +
                     " container " + std::to_string(c));
        EXPECT_EQ(dir.PreferredSite(oid), info.preferred_site);
        // One past the last server id too: nobody replicates there.
        for (SiteId s = 0; s <= servers; ++s) {
          EXPECT_EQ(dir.ReplicatedAt(oid, s), info.ReplicatedAt(s)) << "server " << s;
        }
      }
    }
  }
}

// --- End-to-end behavior -----------------------------------------------------

TEST(ShardedClusterTest, RoutedWritesAreReadableEverywhere) {
  Cluster cluster(ShardedOptions(2, 2));
  WalterClient* c0 = cluster.AddClient(0);
  WalterClient* c1 = cluster.AddClient(1);

  // One container per shard of site 0; each write fast-commits at its owner.
  for (size_t shard = 0; shard < 2; ++shard) {
    ContainerId c = ContainerOnShard(cluster.shard_map(), 0, shard);
    ASSERT_TRUE(CommitWrite(cluster, c0, Oid(c, 7), "v" + std::to_string(shard)).ok());
  }
  cluster.RunUntilIdle();  // propagate everywhere

  for (size_t shard = 0; shard < 2; ++shard) {
    ContainerId c = ContainerOnShard(cluster.shard_map(), 0, shard);
    std::string want = "v" + std::to_string(shard);
    EXPECT_EQ(ReadOnce(cluster, c0, Oid(c, 7)), want);
    EXPECT_EQ(ReadOnce(cluster, c1, Oid(c, 7)), want);
    // The write committed at the shard owning the container, as fast path.
    SiteId owner = cluster.shard_map().OwnerAt(c, 0);
    EXPECT_GE(cluster.server(owner).stats().fast_commits, 1u);
  }
}

TEST(ShardedClusterTest, CrossShardTransactionUsesIntraSite2pc) {
  Cluster cluster(ShardedOptions(2, 2));
  WalterClient* client = cluster.AddClient(0);
  ContainerId on0 = ContainerOnShard(cluster.shard_map(), 0, 0);
  ContainerId on1 = ContainerOnShard(cluster.shard_map(), 0, 1);

  Tx tx(client);
  tx.Write(Oid(on0, 1), "a");
  tx.Write(Oid(on1, 2), "b");
  ASSERT_TRUE(CommitTx(cluster, tx).ok());
  cluster.RunUntilIdle();

  // The coordinator is the shard owning the first written container; the
  // commit took the slow (2PC) path there, and the sibling voted.
  SiteId coord = cluster.shard_map().OwnerAt(on0, 0);
  SiteId other = cluster.shard_map().OwnerAt(on1, 0);
  ASSERT_NE(coord, other);
  EXPECT_GE(cluster.server(coord).stats().slow_commits, 1u);
  EXPECT_GE(cluster.server(other).stats().prepares_handled, 1u);

  // Both writes are atomically visible, from every site.
  for (SiteId s = 0; s < 2; ++s) {
    WalterClient* reader = cluster.AddClient(s);
    EXPECT_EQ(ReadOnce(cluster, reader, Oid(on0, 1)), "a");
    EXPECT_EQ(ReadOnce(cluster, reader, Oid(on1, 2)), "b");
  }
}

TEST(ShardedClusterTest, PerShardReplaceServerKeepsData) {
  Cluster cluster(ShardedOptions(2, 2));
  WalterClient* client = cluster.AddClient(0);
  ContainerId on0 = ContainerOnShard(cluster.shard_map(), 0, 0);
  ContainerId on1 = ContainerOnShard(cluster.shard_map(), 0, 1);
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(on0, 3), "keep0").ok());
  ASSERT_TRUE(CommitWrite(cluster, client, Oid(on1, 4), "keep1").ok());
  cluster.RunUntilIdle();

  // Re-home only shard 1 of site 0; shard 0 and the other site are untouched.
  cluster.ReplaceServer(cluster.shard_map().ServerAt(0, 1));
  cluster.RunUntilIdle();

  EXPECT_EQ(ReadOnce(cluster, client, Oid(on0, 3)), "keep0");
  EXPECT_EQ(ReadOnce(cluster, client, Oid(on1, 4)), "keep1");
}

TEST(ShardedClusterTest, GcFrontierAdvancesAcrossShards) {
  ClusterOptions o = ShardedOptions(2, 2);
  o.server.gossip_interval = Millis(50);
  o.gc.enabled = true;
  Cluster cluster(o);
  ASSERT_NE(cluster.gc(), nullptr);

  WalterClient* client = cluster.AddClient(0);
  for (int i = 0; i < 8; ++i) {
    ContainerId c = ContainerOnShard(cluster.shard_map(), 0, i % 2);
    ASSERT_TRUE(CommitWrite(cluster, client, Oid(c, i), "g" + std::to_string(i)).ok());
  }
  cluster.RunFor(Seconds(30));

  // The stability frontier folds per server; with commits on both shards of
  // site 0 it must have advanced for both of their origin components.
  MetricsRegistry metrics;
  cluster.gc()->ExportMetrics(metrics);
  EXPECT_GT(metrics.Get("gc.frontier", cluster.shard_map().ServerAt(0, 0)), 0.0);
  EXPECT_GT(metrics.Get("gc.frontier", cluster.shard_map().ServerAt(0, 1)), 0.0);
}

// --- PSI over a sharded workload ---------------------------------------------

// Seeded mixed workload over 2 sites x 2 shards: local writes, cross-shard
// writes (intra-site 2PC), cross-site writes (geo 2PC) and recorded reads.
// The checker treats every shard as a site of the "virtual" deployment and
// must find no snapshot, write-conflict or causality anomalies.
TEST(ShardedPsiTest, SeededCrossShardWorkloadHasNoAnomalies) {
  ClusterOptions options = ShardedOptions(2, 2);
  options.seed = 42;
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

  Rng rng(7);
  int committed = 0;
  int active = 0;
  uint64_t next_value = 1;
  // Two containers per site, one on each shard.
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
    // The read and the first write pick containers independently, so the
    // shard that assigned the snapshot is routinely NOT the commit origin —
    // the sharded case PsiChecker's visibility-gated replay exists for.
    // Cross-shard and cross-site writes ride along as the second write.
    double dice = rng.NextDouble();
    bool remote_preferred = dice >= 0.4 && dice < 0.6;
    size_t read_shard = rng.Uniform(2);
    ContainerId read_c = containers[remote_preferred ? 1 - site : site][read_shard];
    size_t first_shard = rng.Uniform(2);
    ContainerId first_c = containers[remote_preferred ? 1 - site : site][first_shard];
    ObjectId read_oid = Oid(read_c, rng.Uniform(12));
    tx->Read(read_oid, [&, client, site, remaining, tx, read_oid, dice, first_shard,
              first_c](Status s, std::optional<std::string> v) {
      ASSERT_TRUE(s.ok());
      std::vector<RecordedRead> reads;
      reads.push_back(RecordedRead{read_oid, false, std::move(v), {}});
      tx->Write(Oid(first_c, rng.Uniform(12)), "w" + std::to_string(next_value++));
      if (dice < 0.4) {
        // Cross-shard, same site: second write on the sibling shard, so the
        // commit runs the intra-site 2PC slow path.
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

  // Every committed transaction propagated to every shard of every site.
  for (SiteId v = 0; v < static_cast<SiteId>(cluster.num_servers()); ++v) {
    for (SiteId origin = 0; origin < static_cast<SiteId>(cluster.num_servers()); ++origin) {
      EXPECT_EQ(cluster.server(v).committed_vts().at(origin),
                cluster.server(origin).committed_vts().at(origin))
          << "server " << v << " missing transactions from " << origin;
    }
  }
}

}  // namespace
}  // namespace walter
