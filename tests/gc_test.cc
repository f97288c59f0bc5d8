// Stability-frontier garbage collection (GcCoordinator + server GC hooks).
//
// The central property is invisibility: a cluster running aggressive GC must
// produce exactly the same client-visible history as one running none, because
// the frontier only ever covers state every site has durably committed and no
// live snapshot can still read. The remaining tests pin down the failure
// modes: stale snapshots fail stop instead of reading folded state, snapshot
// pins and dead sites stall the frontier (visibly, with a reason), §5.7
// removal un-stalls it, and a replacement server skips resending records a
// retention-aware checkpoint already truncated. At the storage level, the
// Store's dirty-list fold must match the full-scan fold it replaced.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/cluster.h"
#include "src/core/gc_coordinator.h"
#include "src/psi/checker.h"
#include "src/storage/store.h"

namespace walter {
namespace {

// ---------------------------------------------------------------------------
// GC equivalence: identical seeded workloads, with and without aggressive GC,
// must observe byte-identical reads and identical final state.
// ---------------------------------------------------------------------------

struct WorkloadResult {
  std::vector<std::string> observed_reads;  // every committed read, in order
  std::vector<std::string> final_values;    // per-site store contents at the end
  uint64_t folded_entries = 0;
  size_t total_entries = 0;
  Status psi = Status::Ok();
  uint64_t committed = 0;
};

WorkloadResult RunMixedWorkload(ClusterOptions options) {
  constexpr int kSitesN = 3;
  constexpr int kTxPerLoop = 50;
  Cluster cluster(options);

  PsiChecker checker(kSitesN);
  std::unordered_map<TxId, std::vector<RecordedRead>> reads_by_tid;
  cluster.ObserveCommits([&](SiteId site, const TxRecord& rec) {
    checker.OnApply(site, rec.tid);
    if (site == rec.origin) {
      RecordedTx recorded;
      recorded.record = rec;
      auto it = reads_by_tid.find(rec.tid);
      if (it != reads_by_tid.end()) {
        recorded.reads = it->second;
      }
      checker.OnCommit(std::move(recorded));
    }
  });

  WorkloadResult result;
  auto rng = std::make_shared<Rng>(options.seed * 31 + 7);
  int in_flight = 0;
  uint64_t counter = 0;

  // Read-modify-write loops over a small keyspace, so objects accumulate deep
  // histories (the state GC must fold) and transactions conflict regularly.
  std::function<void(WalterClient*, SiteId, int)> run_one = [&](WalterClient* client,
                                                                SiteId site, int remaining) {
    if (remaining == 0) {
      --in_flight;
      return;
    }
    auto tx = std::make_shared<Tx>(client);
    ObjectId oid{rng->Uniform(kSitesN), rng->Uniform(6)};
    tx->Read(oid, [&, tx, client, site, remaining, oid](Status s,
                                                        std::optional<std::string> v) {
      if (!s.ok()) {
        run_one(client, site, remaining - 1);
        return;
      }
      TxId tid = tx->tid();
      reads_by_tid[tid] = {RecordedRead{oid, false, v, {}}};
      tx->Write(oid, "v" + std::to_string(++counter));
      tx->Commit([&, tx, client, site, remaining, tid, v](Status s) {
        if (s.ok()) {
          result.observed_reads.push_back(v.value_or("<nil>"));
        } else {
          reads_by_tid.erase(tid);
        }
        run_one(client, site, remaining - 1);
      });
    });
  };

  for (SiteId s = 0; s < kSitesN; ++s) {
    for (int c = 0; c < 2; ++c) {
      ++in_flight;
      run_one(cluster.AddClient(s), s, kTxPerLoop);
    }
  }
  while (in_flight > 0 && cluster.sim().Step()) {
  }
  EXPECT_EQ(in_flight, 0);
  cluster.RunFor(Seconds(30));  // converge (and give GC time to drain)

  for (SiteId s = 0; s < kSitesN; ++s) {
    WalterServer& server = cluster.server(s);
    result.folded_entries += server.stats().gc_folded_entries;
    result.total_entries += server.store().TotalEntryCount();
    for (SiteId owner = 0; owner < kSitesN; ++owner) {
      for (uint64_t k = 0; k < 6; ++k) {
        auto v = server.store().ReadRegularVersioned(ObjectId{owner, k},
                                                     server.committed_vts());
        result.final_values.push_back(v ? v->first : "<nil>");
      }
    }
  }
  result.psi = checker.Check();
  result.committed = checker.committed_count();
  return result;
}

ClusterOptions MixedWorkloadOptions(uint64_t seed) {
  ClusterOptions options;
  options.num_sites = 3;
  options.seed = seed;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = Millis(200);
  return options;
}

TEST(GcEquivalenceTest, AggressiveGcIsInvisibleToClients) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    ClusterOptions off = MixedWorkloadOptions(seed);
    off.gc.enabled = false;

    ClusterOptions on = MixedWorkloadOptions(seed);
    on.gc.interval = Millis(20);  // adversarial cadence: folds mid-transaction
    on.gc.checkpoint_every = Millis(100);

    WorkloadResult base = RunMixedWorkload(off);
    WorkloadResult gc = RunMixedWorkload(on);
    SCOPED_TRACE("seed " + std::to_string(seed));

    EXPECT_TRUE(base.psi.ok()) << base.psi.ToString();
    EXPECT_TRUE(gc.psi.ok()) << gc.psi.ToString();
    EXPECT_GT(gc.committed, 100u);
    EXPECT_EQ(gc.committed, base.committed);
    // Every read every committed transaction observed, in commit order, is
    // identical — GC never changed what any client saw.
    EXPECT_EQ(gc.observed_reads, base.observed_reads);
    // And the final readable state matches at every site.
    EXPECT_EQ(gc.final_values, base.final_values);
    // The run was not vacuous: GC folded real history, and the retained
    // entry count ended strictly below the GC-free run's.
    EXPECT_GT(gc.folded_entries, 0u);
    EXPECT_LT(gc.total_entries, base.total_entries);
  }
}

// ---------------------------------------------------------------------------
// Fail-stop below the frontier: a snapshot older than the GC frontier is
// refused (kUnavailable + counted), never served from folded state.
// ---------------------------------------------------------------------------

TEST(GcTest, StaleSnapshotReadFailsStop) {
  ClusterOptions options;
  options.num_sites = 2;
  options.server.gossip_interval = 0;  // manual control; no coordinator
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);

  // Establish some committed state.
  auto tx0 = std::make_shared<Tx>(client);
  tx0->Write(ObjectId{0, 1}, "one");
  tx0->Commit([](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunUntilIdle();

  // Fix a snapshot at the current committed state.
  auto stale = std::make_shared<Tx>(client);
  std::optional<std::string> first;
  stale->Read(ObjectId{0, 1}, [&](Status s, std::optional<std::string> v) {
    ASSERT_TRUE(s.ok());
    first = v;
  });
  cluster.RunUntilIdle();
  ASSERT_EQ(first, std::make_optional<std::string>("one"));

  // Advance the world past the snapshot, then GC beyond it (bypassing the
  // coordinator — this is exactly the misuse the read path must survive).
  auto tx1 = std::make_shared<Tx>(client);
  tx1->Write(ObjectId{0, 1}, "two");
  tx1->Commit([](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunUntilIdle();
  cluster.server(0).DriveGc(cluster.server(0).committed_vts());

  Status read_status = Status::Ok();
  stale->Read(ObjectId{0, 2}, [&](Status s, std::optional<std::string>) {
    read_status = s;
  });
  cluster.RunUntilIdle();
  EXPECT_EQ(read_status.code(), StatusCode::kUnavailable) << read_status.ToString();
  EXPECT_GE(cluster.server(0).stats().gc_stale_reads, 1u);
  stale->Abort();
  cluster.RunUntilIdle();
}

// ---------------------------------------------------------------------------
// Stall semantics: pins and dead sites hold the frontier, visibly.
// ---------------------------------------------------------------------------

TEST(GcTest, SnapshotPinStallsFrontierUntilReleased) {
  ClusterOptions options;
  options.num_sites = 2;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = Millis(100);
  options.gc.interval = Millis(50);
  Cluster cluster(options);
  ASSERT_NE(cluster.gc(), nullptr);
  WalterClient* writer = cluster.AddClient(0);

  auto commit_one = [&](const std::string& value) {
    auto tx = std::make_shared<Tx>(writer);
    tx->Write(ObjectId{0, 1}, value);
    tx->Commit([](Status s) { ASSERT_TRUE(s.ok()); });
  };
  commit_one("a");
  cluster.RunFor(Seconds(1));
  uint64_t fenced = cluster.gc()->last_frontier().at(0);

  // A long-running snapshot pins the frontier where it started.
  WalterClient* reader = cluster.AddClient(0);
  auto held = std::make_shared<Tx>(reader);
  held->Read(ObjectId{0, 1}, [](Status s, std::optional<std::string>) {
    ASSERT_TRUE(s.ok());
  });
  cluster.RunFor(Millis(200));
  ASSERT_EQ(cluster.pin_registry(0).active(), 1u);

  commit_one("b");
  commit_one("c");
  cluster.RunFor(Seconds(2));
  EXPECT_LT(cluster.gc()->last_frontier().at(0),
            cluster.server(0).committed_vts().at(0));
  EXPECT_GT(cluster.gc()->stalls(), 0u);
  EXPECT_EQ(cluster.gc()->last_stall_reason(), GcStallReason::kSnapshotPin);
  EXPECT_EQ(cluster.gc()->last_stall_site(), 0u);

  // Releasing the snapshot lets the frontier catch up to committed state.
  held->Abort();
  cluster.RunFor(Seconds(2));
  EXPECT_EQ(cluster.pin_registry(0).active(), 0u);
  EXPECT_GT(cluster.gc()->last_frontier().at(0), fenced);
  EXPECT_EQ(cluster.gc()->last_frontier().at(0),
            cluster.server(0).committed_vts().at(0));
  EXPECT_EQ(cluster.gc()->last_stall_reason(), GcStallReason::kNone);
}

TEST(GcTest, DeadSiteFreezesFrontierAndRemovalResumes) {
  ClusterOptions options;
  options.num_sites = 3;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = Millis(100);
  // f = 0: one durable replica suffices, so commits keep flowing at the
  // survivors while site 2 is down — isolating the dead-site frontier freeze
  // from the (orthogonal) ds-durability quorum loss.
  options.server.f = 0;
  options.gc.interval = Millis(50);
  Cluster cluster(options);
  ASSERT_NE(cluster.gc(), nullptr);
  WalterClient* writer = cluster.AddClient(0);

  auto commit_one = [&](uint64_t k) {
    auto tx = std::make_shared<Tx>(writer);
    tx->Write(ObjectId{0, k % 4}, "w" + std::to_string(k));
    tx->Commit([](Status s) { ASSERT_TRUE(s.ok()); });
  };
  for (uint64_t k = 0; k < 5; ++k) {
    commit_one(k);
    cluster.RunFor(Millis(100));
  }
  cluster.RunFor(Seconds(1));
  uint64_t frozen_at = cluster.gc()->last_frontier().at(0);
  EXPECT_GT(frozen_at, 0u);

  // A crashed (but still in-config) site freezes the frontier at its last
  // known floor: GC must not collect past what the site might need on wakeup.
  cluster.server(2).Crash();
  for (uint64_t k = 5; k < 10; ++k) {
    commit_one(k);
    cluster.RunFor(Millis(100));
  }
  cluster.RunFor(Seconds(2));
  EXPECT_EQ(cluster.gc()->last_frontier().at(0), frozen_at);
  EXPECT_GT(cluster.gc()->stalls(), 0u);
  EXPECT_EQ(cluster.gc()->last_stall_reason(), GcStallReason::kDeadSite);
  EXPECT_EQ(cluster.gc()->last_stall_site(), 2u);

  // §5.7 removal (here: the membership probe excluding the site) drops it
  // from the frontier; GC resumes over the survivors.
  cluster.gc()->SetMembershipProbe([](SiteId s) { return s != 2; });
  cluster.RunFor(Seconds(2));
  EXPECT_GT(cluster.gc()->last_frontier().at(0), frozen_at);
  EXPECT_EQ(cluster.gc()->last_frontier().at(0),
            cluster.server(0).committed_vts().at(0));
}

// ---------------------------------------------------------------------------
// Replacement servers vs retention-aware checkpoints.
// ---------------------------------------------------------------------------

TEST(GcTest, ReplacementSkipsRecordsTruncatedByCheckpoint) {
  ClusterOptions options;
  options.num_sites = 2;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = Millis(100);
  options.gc.interval = Millis(50);
  options.gc.checkpoint_every = Millis(200);
  Cluster cluster(options);
  WalterClient* writer = cluster.AddClient(0);

  int committed = 0;
  std::function<void(int)> commit_chain = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    auto tx = std::make_shared<Tx>(writer);
    tx->Write(ObjectId{0, static_cast<uint64_t>(remaining % 8)},
              "x" + std::to_string(remaining));
    tx->Commit([&, remaining](Status s) {
      ASSERT_TRUE(s.ok());
      ++committed;
      commit_chain(remaining - 1);
    });
  };
  commit_chain(40);
  cluster.RunFor(Seconds(5));
  ASSERT_EQ(committed, 40);

  // Sustained GC released the globally-visible local commits (the satellite
  // fix for unbounded retention) and truncated their WAL records.
  EXPECT_EQ(cluster.server(0).retained_local_commits(), 0u);
  EXPECT_GT(cluster.server(0).stats().wal_truncated_bytes, 0u);

  // A replacement server starts with fresh cumulative-ack state. Seqnos whose
  // records were released *and* truncated are provably durable at every site,
  // so propagation must skip them instead of failing to re-serve them.
  cluster.server(0).Crash();
  cluster.ReplaceServer(0);
  cluster.RunFor(Seconds(3));

  auto fresh = std::make_shared<Tx>(cluster.AddClient(0));
  bool done = false;
  fresh->Write(ObjectId{0, 1}, "after-replacement");
  fresh->Commit([&](Status s) {
    ASSERT_TRUE(s.ok());
    done = true;
  });
  cluster.RunFor(Seconds(3));
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster.server(0).committed_vts(), cluster.server(1).committed_vts());
}

// ---------------------------------------------------------------------------
// Bounded memory: sustained single-key churn stays flat with GC on.
// ---------------------------------------------------------------------------

TEST(GcTest, SustainedChurnKeepsHistoriesBounded) {
  ClusterOptions options;
  options.num_sites = 2;
  options.server.perf = PerfModel::Instant();
  options.server.disk = DiskConfig::Memory();
  options.server.gossip_interval = Millis(100);
  options.gc.interval = Millis(50);
  options.gc.checkpoint_every = Millis(250);
  Cluster cluster(options);
  WalterClient* writer = cluster.AddClient(0);

  int committed = 0;
  std::function<void(int)> commit_chain = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    auto tx = std::make_shared<Tx>(writer);
    tx->Write(ObjectId{0, static_cast<uint64_t>(remaining % 5)},
              "c" + std::to_string(remaining));
    tx->Commit([&, remaining](Status s) {
      ASSERT_TRUE(s.ok());
      ++committed;
      commit_chain(remaining - 1);
    });
  };
  commit_chain(300);
  cluster.RunFor(Seconds(30));
  ASSERT_EQ(committed, 300);

  for (SiteId s = 0; s < 2; ++s) {
    // 300 updates over 5 objects: without GC each site retains ~300 entries;
    // with it, only the post-frontier tail (one folded base per object).
    EXPECT_LT(cluster.server(s).store().TotalEntryCount(), 30u) << "site " << s;
    EXPECT_EQ(cluster.server(s).retained_local_commits(), 0u) << "site " << s;
    EXPECT_GT(cluster.server(s).stats().gc_runs, 0u) << "site " << s;
  }
  // WAL prefixes were truncated, and dedup outcomes age out by time.
  EXPECT_GT(cluster.server(0).stats().wal_truncated_bytes, 0u);
  cluster.RunFor(Seconds(40));  // > tx_outcome_retention
  EXPECT_EQ(cluster.server(0).retained_tx_outcomes(), 0u);
}

// ---------------------------------------------------------------------------
// Dirty-list fold: the Store folds only histories on its dirty list. Over a
// randomized stream of applies, folds, discards and checkpoint restores it
// must match the full-scan fold it replaced, kept here as the reference.
// ---------------------------------------------------------------------------

// One object's history under the reference fold: survivors are copied into a
// fresh vector. Serializes in ObjectHistory's checkpoint format.
struct RefHistory {
  bool has_base = false;
  Version base_version;
  std::string base_data;
  CountingSet base_cset;
  bool base_is_cset = false;
  std::vector<VersionedUpdate> entries;

  size_t GarbageCollect(const VectorTimestamp& stable) {
    size_t folded = 0;
    std::vector<VersionedUpdate> keep;
    for (auto& e : entries) {
      if (!stable.Sees(e.version)) {
        keep.push_back(std::move(e));
        continue;
      }
      ++folded;
      has_base = true;
      base_version = e.version;
      if (e.kind == UpdateKind::kData) {
        base_is_cset = false;
        base_data = std::move(e.data);
      } else {
        base_is_cset = true;
        base_cset.Add(e.elem, e.kind == UpdateKind::kAdd ? 1 : -1);
      }
    }
    entries = std::move(keep);
    return folded;
  }

  std::optional<std::string> ReadRegular(const VectorTimestamp& vts) const {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (vts.Sees(it->version)) {
        return it->data;
      }
    }
    if (has_base && !base_is_cset) {
      return base_data;
    }
    return std::nullopt;
  }

  CountingSet ReadCset(const VectorTimestamp& vts) const {
    CountingSet s;
    if (has_base && base_is_cset) {
      s.MergeAdd(base_cset);
    }
    for (const auto& e : entries) {
      if (vts.Sees(e.version)) {
        s.Add(e.elem, e.kind == UpdateKind::kAdd ? 1 : -1);
      }
    }
    return s;
  }

  void Serialize(ByteWriter* w) const {
    w->PutU8(has_base ? 1 : 0);
    if (has_base) {
      w->PutVersion(base_version);
      w->PutU8(base_is_cset ? 1 : 0);
      if (base_is_cset) {
        base_cset.Serialize(w);
      } else {
        w->PutString(base_data);
      }
    }
    w->PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) {
      w->PutVersion(e.version);
      w->PutU8(static_cast<uint8_t>(e.kind));
      if (e.kind == UpdateKind::kData) {
        w->PutString(e.data);
      } else {
        w->PutObjectId(e.elem);
      }
    }
  }
};

// The reference store: every round visits every history.
struct RefStore {
  std::map<ObjectId, RefHistory> histories;  // ordered like checkpoint images
  VectorTimestamp gc_frontier;

  void Apply(const TxRecord& record) {
    for (const auto& u : record.updates) {
      histories[u.oid].entries.push_back({record.version, u.kind, u.data, u.elem});
    }
  }
  size_t GarbageCollect(const VectorTimestamp& stable) {
    size_t folded = 0;
    for (auto& [oid, h] : histories) {
      folded += h.GarbageCollect(stable);
    }
    gc_frontier.MergeMax(stable);
    return folded;
  }
  size_t RemoveVersionsFrom(SiteId site, uint64_t after_seqno) {
    size_t removed = 0;
    for (auto& [oid, h] : histories) {
      removed += std::erase_if(h.entries, [&](const VersionedUpdate& e) {
        return e.version.site == site && e.version.seqno > after_seqno;
      });
    }
    return removed;
  }
  size_t TotalEntryCount() const {
    size_t n = 0;
    for (const auto& [oid, h] : histories) {
      n += h.entries.size();
    }
    return n;
  }
  size_t CountEntriesCoveredBy(const VectorTimestamp& vts) const {
    size_t n = 0;
    for (const auto& [oid, h] : histories) {
      for (const auto& e : h.entries) {
        n += vts.Sees(e.version) ? 1 : 0;
      }
    }
    return n;
  }
  size_t NonEmptyHistories() const {
    size_t n = 0;
    for (const auto& [oid, h] : histories) {
      n += h.entries.empty() ? 0 : 1;
    }
    return n;
  }
  std::string Checkpoint(uint64_t wal_frontier) const {
    ByteWriter w;
    w.PutU64(wal_frontier);
    w.PutVts(gc_frontier);
    w.PutU64(histories.size());
    for (const auto& [oid, h] : histories) {
      w.PutObjectId(oid);
      h.Serialize(&w);
    }
    return w.Take();
  }
};

void RunDirtyListEquivalence(uint64_t seed) {
  constexpr SiteId kOrigins = 3;
  constexpr int kSteps = 3000;
  Rng rng(seed);
  Store store;
  RefStore ref;
  VectorTimestamp applied(kOrigins);   // highest seqno issued per origin
  VectorTimestamp frontier(kOrigins);  // monotone fold frontier
  TxId next_tid = 1;

  // A checkpoint awaiting WAL-tail recovery; only applies run meanwhile, so
  // checkpoint + tail must rebuild exactly the current state.
  std::optional<std::string> pending_checkpoint;
  size_t applies_since_checkpoint = 0;

  // Containers 0-1 hold regular objects, 2-3 csets.
  auto random_oid = [&]() { return ObjectId{rng.Uniform(4), rng.Uniform(12)}; };
  auto is_cset = [](const ObjectId& oid) { return oid.container >= 2; };
  auto wal_frontier = [&]() { return store.wal().base() + store.wal().size(); };
  // A snapshot at or above the fold frontier (the only kind GC allows).
  auto random_snapshot = [&]() {
    VectorTimestamp vts = frontier;
    for (SiteId s = 0; s < kOrigins; ++s) {
      vts.set(s, rng.UniformRange(frontier.at(s), applied.at(s)));
    }
    return vts;
  };

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    uint64_t op = rng.Uniform(100);
    if (op < 60 || pending_checkpoint) {
      if (pending_checkpoint && op >= 90) {
        Store recovered;
        Store::RecoveryResult result =
            recovered.Recover(*pending_checkpoint, store.wal().bytes(), store.wal().base());
        ASSERT_FALSE(result.torn_tail);
        ASSERT_EQ(result.records_replayed, applies_since_checkpoint);
        store = std::move(recovered);
        pending_checkpoint.reset();
      } else {
        SiteId origin = static_cast<SiteId>(rng.Uniform(kOrigins));
        TxRecord rec;
        rec.tid = next_tid++;
        rec.origin = origin;
        rec.version = Version{origin, applied.Advance(origin)};
        rec.start_vts = frontier;
        size_t n = 1 + rng.Uniform(3);
        for (size_t i = 0; i < n; ++i) {
          ObjectId oid = random_oid();
          if (!is_cset(oid)) {
            rec.updates.push_back(ObjectUpdate::Data(oid, "v" + std::to_string(rec.tid)));
          } else if (rng.Bernoulli(0.7)) {
            rec.updates.push_back(ObjectUpdate::Add(oid, ObjectId{9, rng.Uniform(5)}));
          } else {
            rec.updates.push_back(ObjectUpdate::Del(oid, ObjectId{9, rng.Uniform(5)}));
          }
        }
        store.Apply(rec);
        ref.Apply(rec);
        ++applies_since_checkpoint;
      }
    } else if (op < 80) {
      // Fold at a monotone frontier; sometimes all the way to what exists.
      bool full = rng.Bernoulli(0.2);
      for (SiteId s = 0; s < kOrigins; ++s) {
        frontier.set(s, full ? applied.at(s) : rng.UniformRange(frontier.at(s), applied.at(s)));
      }
      ASSERT_EQ(store.GarbageCollect(frontier), ref.GarbageCollect(frontier));
      // A history whose fold emptied it has left the list.
      ASSERT_EQ(store.dirty_count(), ref.NonEmptyHistories());
    } else if (op < 86) {
      // Discard an origin's unfolded tail (§5.7); its seqnos get reused.
      SiteId site = static_cast<SiteId>(rng.Uniform(kOrigins));
      uint64_t after = rng.UniformRange(frontier.at(site), applied.at(site));
      ASSERT_EQ(store.RemoveVersionsFrom(site, after), ref.RemoveVersionsFrom(site, after));
      applied.set(site, after);
    } else if (op < 94) {
      // Checkpoint image must match the reference byte for byte; restoring it
      // into a fresh store rebuilds the list.
      std::string bytes = store.SerializeCheckpoint();
      ASSERT_EQ(bytes, ref.Checkpoint(wal_frontier()));
      Store restored;
      restored.RestoreCheckpoint(bytes);
      store = std::move(restored);
    } else {
      pending_checkpoint = store.SerializeCheckpoint();
      applies_since_checkpoint = 0;
    }

    ASSERT_TRUE(store.DirtyListConsistent());
    ASSERT_EQ(store.TotalEntryCount(), ref.TotalEntryCount());
    VectorTimestamp snapshot = random_snapshot();
    ASSERT_EQ(store.CountEntriesCoveredBy(snapshot), ref.CountEntriesCoveredBy(snapshot));
    for (int i = 0; i < 3; ++i) {
      ObjectId oid = random_oid();
      auto it = ref.histories.find(oid);
      if (is_cset(oid)) {
        CountingSet expected = it == ref.histories.end() ? CountingSet{}
                                                         : it->second.ReadCset(snapshot);
        ASSERT_TRUE(store.ReadCset(oid, snapshot) == expected) << oid.ToString();
      } else {
        std::optional<std::string> expected =
            it == ref.histories.end() ? std::nullopt : it->second.ReadRegular(snapshot);
        ASSERT_EQ(store.ReadRegular(oid, snapshot), expected) << oid.ToString();
      }
    }
  }
  // Everything folds away at the end and the list drains.
  ASSERT_EQ(store.GarbageCollect(applied), ref.GarbageCollect(applied));
  EXPECT_EQ(store.TotalEntryCount(), 0u);
  EXPECT_EQ(store.dirty_count(), 0u);
  EXPECT_EQ(store.SerializeCheckpoint(), ref.Checkpoint(wal_frontier()));
}

TEST(GcDirtyListTest, MatchesFullScanFoldOverRandomOps) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunDirtyListEquivalence(seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace walter
