// Overload defenses: admission control (per-shard inflight/queue limits,
// kOverloaded + retry-after hints), client retry budgets (token bucket,
// kRetryBudgetExhausted), and the two park registries under retransmission —
// a parked read must not double-count starvation across retransmissions, and
// a gap-parked commit must chain a retransmitted commit instead of refusing
// it (or committing twice). Commit starvation fires a verdict distinct from
// read starvation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/config/shard_map.h"
#include "src/core/cluster.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"

namespace walter {
namespace {

ObjectId Oid(uint64_t container, uint64_t local) { return ObjectId{container, local}; }

// Counts trace events by kind for the duration of a scope (the tracer holds at
// most one listener, so tests that also want a watchdog must pick one).
class KindCounter : public TraceListener {
 public:
  KindCounter() { Tracer::Get().SetListener(this); }
  ~KindCounter() override { Tracer::Get().SetListener(nullptr); }

  void OnTrace(const TraceEvent& event) override {
    ++counts_[event.kind];
    events_.push_back(event);
  }

  uint64_t count(TraceKind kind) const {
    auto it = counts_.find(kind);
    return it == counts_.end() ? 0 : it->second;
  }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::map<TraceKind, uint64_t> counts_;
  std::vector<TraceEvent> events_;
};

// Logic-test options: no modeled CPU/disk cost, no gossip (so the simulator
// quiesces), early lock release at its default (on).
ClusterOptions BaseOptions(size_t num_sites) {
  ClusterOptions o;
  o.num_sites = num_sites;
  o.server.perf = PerfModel::Instant();
  o.server.disk = DiskConfig::Memory();
  o.server.gossip_interval = 0;
  return o;
}

ClusterOptions ShardedOptions(size_t num_sites, size_t shards_per_site) {
  ClusterOptions o = BaseOptions(num_sites);
  o.servers_per_site.assign(num_sites, shards_per_site);
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

// Finds a container preferred at `site` that its shard map hashes to `shard`.
ContainerId ContainerOnShard(const ShardMap& map, SiteId site, size_t shard) {
  for (ContainerId c = site;; c += map.num_sites()) {
    if (map.ShardOf(c, site) == shard) {
      return c;
    }
  }
}

// --- bounded read re-park under retransmission (the hot-key regression) -----

// A park that outlives the client's RPC timeout draws retransmissions of the
// same logical read. Each must chain onto the live park (read_park_dedups),
// not open a second DoRead chain: a second chain gets a fresh starvation
// budget and its own starve-out, so one hot-key read blocked behind a stuck
// watermark would be counted starved once per retransmission — the regression
// this test pins down. Exactly one park, one starve, one kUnavailable.
TEST(OverloadParkTest, ParkedReadDedupsRetransmissionsAndStarvesOnce) {
  ClusterOptions options = BaseOptions(1);
  options.server.read_park_soft_retries = 16;
  options.server.read_park_backoff_cap = Millis(8);
  options.server.read_park_budget = Millis(60);
  // Impatient client: retransmits at ~26ms and ~52ms, both while the original
  // read is still parked (the starve lands at ~62ms).
  options.client.rpc_timeout = Millis(25);
  options.client.max_attempts = 8;
  options.client.backoff_base = Millis(1);
  options.client.backoff_cap = Millis(1);
  options.client.backoff_jitter = 0;
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);

  ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "v").ok());
  WalterServer& server = cluster.server(0);
  server.lock_table().AddWatermark(
      Oid(0, 1), Version{0, server.curr_seqno()}, /*tid=*/999999, cluster.sim().Now());

  KindCounter traces;
  std::optional<Status> read_status;
  {
    Tx tx(client);
    tx.Read(Oid(0, 1), [&](Status s, std::optional<std::string>) { read_status = s; });
    cluster.RunFor(Millis(45));
    // Mid-park: the retransmissions chained onto the single live park.
    EXPECT_FALSE(read_status.has_value());
    EXPECT_EQ(server.parked_read_count(), 1u) << "retransmission opened a second park";
    EXPECT_GE(server.stats().read_park_dedups, 1u);
    cluster.RunFor(Millis(100));
  }

  ASSERT_TRUE(read_status.has_value()) << "starved read must surface, not hang";
  EXPECT_EQ(read_status->code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().reads_starved, 1u)
      << "one logical read starved once, not once per retransmission";
  EXPECT_EQ(traces.count(TraceKind::kReadStarved), 1u);
  EXPECT_EQ(server.parked_read_count(), 0u);

  server.lock_table().DropWatermarksOfTx(999999);
  cluster.RunUntilIdle();
}

// The dedup must also deliver: when the blocker clears while retransmissions
// are chained, every reply copy fires and the newest in-flight attempt carries
// the value home — no starve, no lost read.
TEST(OverloadParkTest, ParkedReadResolvesThroughRetransmissionChain) {
  ClusterOptions options = BaseOptions(1);
  options.server.read_park_soft_retries = 16;
  options.server.read_park_backoff_cap = Millis(8);
  options.server.read_park_budget = Seconds(2);
  options.client.rpc_timeout = Millis(25);
  options.client.max_attempts = 16;
  options.client.backoff_base = Millis(1);
  options.client.backoff_cap = Millis(1);
  options.client.backoff_jitter = 0;
  Cluster cluster(options);
  WalterClient* client = cluster.AddClient(0);

  ASSERT_TRUE(CommitWrite(cluster, client, Oid(0, 1), "hot").ok());
  WalterServer& server = cluster.server(0);
  server.lock_table().AddWatermark(
      Oid(0, 1), Version{0, server.curr_seqno()}, /*tid=*/777777, cluster.sim().Now());

  std::optional<Status> read_status;
  std::optional<std::string> read_value;
  Tx tx(client);
  tx.Read(Oid(0, 1), [&](Status s, std::optional<std::string> v) {
    read_status = s;
    read_value = std::move(v);
  });
  cluster.RunFor(Millis(60));
  EXPECT_FALSE(read_status.has_value());
  EXPECT_GE(server.stats().read_park_dedups, 2u);

  server.lock_table().DropWatermarksOfTx(777777);
  while (!read_status.has_value() && cluster.sim().Step()) {
  }
  ASSERT_TRUE(read_status.has_value());
  EXPECT_TRUE(read_status->ok()) << read_status->ToString();
  EXPECT_EQ(read_value, "hot");
  EXPECT_EQ(server.stats().reads_starved, 0u);
  EXPECT_EQ(server.parked_read_count(), 0u);
  cluster.RunUntilIdle();
}

// --- commit-gap parking under retransmission --------------------------------

// Sharded fixture with shard 0 -> shard 1 propagation suppressed: a snapshot
// assigned by shard 0 after a local commit is ahead of shard 1, so a commit
// routed to shard 1 parks on the gap.
struct GapRig {
  explicit GapRig(ClusterOptions options)
      : cluster(std::move(options)),
        client(cluster.AddClient(0)),
        c0(ContainerOnShard(cluster.shard_map(), 0, 0)),
        c1(ContainerOnShard(cluster.shard_map(), 0, 1)) {}

  // Drops server-to-server traffic from shard 0 to shard 1 (client RPCs use
  // client ports and keep flowing).
  void BlockPropagation() {
    cluster.net().SetDropFilter([](const Message&, const Address& from, const Address& to) {
      return from == Address{0, kWalterPort} && to == Address{1, kWalterPort};
    });
  }
  void Heal() { cluster.net().SetDropFilter(nullptr); }

  Cluster cluster;
  WalterClient* client;
  ContainerId c0;
  ContainerId c1;
};

ClusterOptions GapOptions() {
  ClusterOptions options = ShardedOptions(1, 2);
  // Fast propagation resend: batches dropped while the filter is up must be
  // retried within the impatient client's attempt horizon (~400ms) once the
  // filter clears. lock_wait_timeout must stay below resend_timeout (see
  // server.h).
  options.server.resend_timeout = Millis(50);
  options.server.lock_wait_timeout = Millis(20);
  options.server.read_park_soft_retries = 16;
  options.server.read_park_backoff_cap = Millis(8);
  options.client.rpc_timeout = Millis(25);
  options.client.max_attempts = 16;
  options.client.backoff_base = Millis(1);
  options.client.backoff_cap = Millis(1);
  options.client.backoff_jitter = 0;
  return options;
}

// A commit parked on a sibling-shard snapshot gap outliving the client's RPC
// timeout: the retransmitted commit (which piggybacks the same buffered
// update) must chain onto the live park via the waiter registry — before the
// registry existed it fell through to the lost-state guard and was refused
// while the original could still commit, or worse re-buffered and committed
// the transaction a second time. When the gap heals, the commit lands exactly
// once.
TEST(OverloadParkTest, GapParkedCommitDedupsRetransmissionsThenCommitsOnce) {
  ClusterOptions options = GapOptions();
  options.server.read_park_budget = Seconds(2);
  GapRig rig(options);
  rig.BlockPropagation();

  // Advance shard 0 past shard 1: a fast commit at shard 0 that cannot
  // propagate.
  ASSERT_TRUE(CommitWrite(rig.cluster, rig.client, Oid(rig.c0, 1), "a").ok());

  WalterServer& shard1 = rig.cluster.server(rig.cluster.shard_map().ServerAt(0, 1));
  KindCounter traces;
  Tx tx(rig.client);
  std::optional<Status> commit_status;
  std::optional<std::string> snapshot_read;
  tx.Read(Oid(rig.c0, 1), [&](Status s, std::optional<std::string> v) {
    ASSERT_TRUE(s.ok());
    snapshot_read = std::move(v);
    // Snapshot now covers shard 0's commit; the write routes the commit to
    // shard 1, which has not applied it.
    tx.Write(Oid(rig.c1, 2), "b");
    tx.Commit([&](Status cs) { commit_status = cs; });
  });
  rig.cluster.RunFor(Millis(80));

  EXPECT_EQ(snapshot_read, "a");
  EXPECT_FALSE(commit_status.has_value()) << "gap cannot close while propagation is blocked";
  EXPECT_GE(shard1.stats().commit_gap_parks, 1u);
  EXPECT_GE(shard1.stats().commit_dedups, 1u)
      << "retransmitted commit must chain onto the live gap park";
  EXPECT_EQ(shard1.gap_commit_waiter_count(), 1u);
  EXPECT_GE(traces.count(TraceKind::kCommitGapWait), 1u);

  rig.Heal();
  // A fresh commit at shard 0 ships the backlog to shard 1 and closes the gap.
  ASSERT_TRUE(CommitWrite(rig.cluster, rig.client, Oid(rig.c0, 3), "nudge").ok());
  while (!commit_status.has_value() && rig.cluster.sim().Step()) {
  }
  ASSERT_TRUE(commit_status.has_value());
  EXPECT_TRUE(commit_status->ok()) << commit_status->ToString();

  // Committed exactly once, despite the retransmissions.
  EXPECT_EQ(shard1.stats().fast_commits, 1u);
  EXPECT_EQ(shard1.stats().commits_starved, 0u);
  EXPECT_EQ(shard1.gap_commit_waiter_count(), 0u);
  EXPECT_EQ(traces.count(TraceKind::kCommitStarved), 0u);

  Tx check(rig.client);
  std::optional<std::string> value;
  bool done = false;
  check.Read(Oid(rig.c1, 2), [&](Status s, std::optional<std::string> v) {
    ASSERT_TRUE(s.ok());
    value = std::move(v);
    done = true;
  });
  while (!done && rig.cluster.sim().Step()) {
  }
  EXPECT_EQ(value, "b");
  rig.cluster.RunUntilIdle();
}

// A gap that never closes starves the parked commit out with kUnavailable
// once read_park_budget is spent — bounded, surfaced, and attributed to the
// right blocker: commits_starved and kCommitStarved, distinct from the read
// starvation counters (a starved commit points at sibling-shard propagation,
// a starved read at a dead decision edge), never a silent hang or a false
// "stuck" verdict.
TEST(OverloadParkTest, StarvedGapCommitFiresDistinctVerdict) {
  ClusterOptions options = GapOptions();
  options.server.read_park_budget = Millis(60);
  GapRig rig(options);
  rig.BlockPropagation();

  ASSERT_TRUE(CommitWrite(rig.cluster, rig.client, Oid(rig.c0, 1), "a").ok());

  WalterServer& shard1 = rig.cluster.server(rig.cluster.shard_map().ServerAt(0, 1));
  KindCounter traces;
  Tx tx(rig.client);
  std::optional<Status> commit_status;
  tx.Read(Oid(rig.c0, 1), [&](Status s, std::optional<std::string>) {
    ASSERT_TRUE(s.ok());
    tx.Write(Oid(rig.c1, 2), "b");
    tx.Commit([&](Status cs) { commit_status = cs; });
  });
  rig.cluster.RunFor(Millis(200));

  ASSERT_TRUE(commit_status.has_value()) << "starved commit must surface, not hang";
  EXPECT_EQ(commit_status->code(), StatusCode::kUnavailable);
  EXPECT_EQ(shard1.stats().commits_starved, 1u);
  EXPECT_EQ(shard1.stats().reads_starved, 0u) << "commit starvation is not read starvation";
  EXPECT_EQ(traces.count(TraceKind::kCommitStarved), 1u);
  EXPECT_EQ(traces.count(TraceKind::kReadStarved), 0u);
  EXPECT_EQ(shard1.gap_commit_waiter_count(), 0u);

  // The distinct verdict stamps the transaction's terminal stage: kTxAbort
  // first (the watchdog retires the transaction), then kCommitStarved names
  // the blocker.
  SimTime abort_at = 0;
  SimTime starved_at = 0;
  for (const TraceEvent& e : traces.events()) {
    if (e.tid == tx.tid() && e.kind == TraceKind::kTxAbort) {
      abort_at = e.time;
    }
    if (e.tid == tx.tid() && e.kind == TraceKind::kCommitStarved) {
      starved_at = e.time;
    }
  }
  EXPECT_GT(starved_at, 0u);
  EXPECT_GE(starved_at, abort_at);

  rig.Heal();
  rig.cluster.RunUntilIdle();
}

// --- server-side admission control -------------------------------------------

// The inflight limit counts admitted-but-unanswered ops — a parked read holds
// its slot for as long as it holds server state. While the slot is taken,
// further ops bounce with kOverloaded plus a retry-after hint; aborts are
// always admitted (they shrink the overload); and the slot frees when the
// park resolves.
TEST(OverloadAdmissionTest, InflightLimitRejectsWithHintAndRecovers) {
  ClusterOptions options = BaseOptions(1);
  options.server.admission_max_inflight = 1;
  options.server.read_park_budget = Seconds(10);
  Cluster cluster(options);
  WalterClient* writer = cluster.AddClient(0);

  ASSERT_TRUE(CommitWrite(cluster, writer, Oid(0, 1), "v").ok());
  WalterServer& server = cluster.server(0);
  server.lock_table().AddWatermark(
      Oid(0, 1), Version{0, server.curr_seqno()}, /*tid=*/555555, cluster.sim().Now());

  KindCounter traces;
  // Occupy the only slot with a parked read.
  WalterClient* parked_client = cluster.AddClient(0);
  std::optional<Status> parked_status;
  Tx parked(parked_client);
  parked.Read(Oid(0, 1), [&](Status s, std::optional<std::string>) { parked_status = s; });
  cluster.RunFor(Millis(5));
  ASSERT_FALSE(parked_status.has_value());
  EXPECT_EQ(server.admitted_inflight(), 1u);

  // Next op bounces at admission: kOverloaded surfaces raw (no retry budget
  // configured on this client), with a millisecond-floor retry-after hint.
  WalterClient::Options raw;
  raw.max_attempts = 1;
  WalterClient* shed_client = cluster.AddClient(0, raw);
  std::optional<Status> shed_status;
  {
    Tx tx(shed_client);
    tx.Read(Oid(0, 2), [&](Status s, std::optional<std::string>) { shed_status = s; });
    while (!shed_status.has_value() && cluster.sim().Step()) {
    }
  }
  ASSERT_TRUE(shed_status.has_value());
  EXPECT_EQ(shed_status->code(), StatusCode::kOverloaded);
  EXPECT_EQ(server.stats().admit_rejects, 1u);
  ASSERT_EQ(traces.count(TraceKind::kAdmitReject), 1u);
  for (const TraceEvent& e : traces.events()) {
    if (e.kind == TraceKind::kAdmitReject) {
      EXPECT_GE(e.arg, static_cast<uint64_t>(Millis(1))) << "hint below the 1ms floor";
    }
  }

  // Aborts are always admitted, even at the limit.
  bool abort_done = false;
  {
    Tx tx(shed_client);
    tx.Abort([&] { abort_done = true; });
    while (!abort_done && cluster.sim().Step()) {
    }
  }
  EXPECT_TRUE(abort_done);
  EXPECT_EQ(server.stats().admit_rejects, 1u) << "the abort must not be rejected";

  // Clearing the park frees the slot; admission recovers.
  server.lock_table().DropWatermarksOfTx(555555);
  while (!parked_status.has_value() && cluster.sim().Step()) {
  }
  EXPECT_TRUE(parked_status->ok());
  EXPECT_EQ(server.admitted_inflight(), 0u);
  EXPECT_EQ(server.stats().admitted_inflight_peak, 1u);

  std::optional<Status> after;
  {
    Tx tx(shed_client);
    tx.Read(Oid(0, 2), [&](Status s, std::optional<std::string>) { after = s; });
    while (!after.has_value() && cluster.sim().Step()) {
    }
  }
  EXPECT_TRUE(after->ok());
  cluster.RunUntilIdle();
}

// The queue limit sheds before any CPU is charged: a burst of simultaneous
// reads against a modeled CPU and a 1-deep queue admits some, rejects the
// rest, and records the high-water mark (kQueueDepth).
TEST(OverloadAdmissionTest, QueueLimitShedsBurst) {
  ClusterOptions options = BaseOptions(1);
  options.server.perf = PerfModel::Ec2();
  options.server.admission_max_queue = 1;
  options.client.max_attempts = 1;
  Cluster cluster(options);
  // Listener first: kQueueDepth marks high-water peaks, and the very first
  // admitted op (the warm-up write) sets the initial peak.
  KindCounter traces;
  WalterClient* writer = cluster.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster, writer, Oid(0, 1), "v").ok());

  constexpr int kBurst = 20;
  std::vector<std::unique_ptr<Tx>> txs;
  int ok = 0;
  int overloaded = 0;
  int done = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto tx = std::make_unique<Tx>(cluster.AddClient(0));
    tx->Read(Oid(0, 1), [&](Status s, std::optional<std::string>) {
      ++done;
      if (s.ok()) {
        ++ok;
      } else if (s.code() == StatusCode::kOverloaded) {
        ++overloaded;
      }
    });
    txs.push_back(std::move(tx));
  }
  while (done < kBurst && cluster.sim().Step()) {
  }
  WalterServer& server = cluster.server(0);
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(ok, 0);
  EXPECT_GT(overloaded, 0) << "a 20-deep burst must trip a 1-deep queue limit";
  EXPECT_EQ(server.stats().admit_rejects, static_cast<uint64_t>(overloaded));
  EXPECT_GE(server.stats().cpu_queue_peak, 1u);
  EXPECT_GE(traces.count(TraceKind::kQueueDepth), 1u);
  txs.clear();
  cluster.RunUntilIdle();
}

// --- client-side retry budget --------------------------------------------------

// kOverloaded responses are absorbed by retransmitting after the server's
// hint, one token each; an empty bucket sheds the op with kUnavailable and a
// kRetryBudgetExhausted trace (watchdog-visible), never a hang. The bucket
// refills over time, so a later surge gets its retries back.
TEST(OverloadBudgetTest, TokenBucketBoundsRetriesThenRefills) {
  ClusterOptions options = BaseOptions(1);
  options.server.admission_max_inflight = 1;
  options.server.read_park_budget = Seconds(30);
  options.client.overload_retry_tokens = 2;
  options.client.overload_token_refill_per_s = 10.0;
  Cluster cluster(options);
  WalterClient* writer = cluster.AddClient(0);

  ASSERT_TRUE(CommitWrite(cluster, writer, Oid(0, 1), "v").ok());
  WalterServer& server = cluster.server(0);
  server.lock_table().AddWatermark(
      Oid(0, 1), Version{0, server.curr_seqno()}, /*tid=*/444444, cluster.sim().Now());

  // Park a read to hold the only admission slot for the whole test.
  WalterClient* parked_client = cluster.AddClient(0);
  std::optional<Status> parked_status;
  Tx parked(parked_client);
  parked.Read(Oid(0, 1), [&](Status s, std::optional<std::string>) { parked_status = s; });
  cluster.RunFor(Millis(5));
  ASSERT_FALSE(parked_status.has_value());

  KindCounter traces;
  WalterClient* budget_client = cluster.AddClient(0);
  auto shed_read = [&]() {
    std::optional<Status> status;
    Tx tx(budget_client);
    tx.Read(Oid(0, 2), [&](Status s, std::optional<std::string>) { status = s; });
    while (!status.has_value() && cluster.sim().Step()) {
    }
    return *status;
  };

  // Bucket starts full (2): two hint-paced retransmissions, then the shed.
  Status first = shed_read();
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_EQ(budget_client->overload_retries_sent(), 2u);
  EXPECT_EQ(budget_client->overload_sheds(), 1u);
  EXPECT_EQ(traces.count(TraceKind::kRetryBudgetExhausted), 1u);
  EXPECT_EQ(server.stats().admit_rejects, 3u);

  // 300ms at 10 tokens/s refills past the 2-token cap; the next op gets its
  // retries back before shedding again.
  cluster.RunFor(Millis(300));
  Status second = shed_read();
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  EXPECT_EQ(budget_client->overload_retries_sent(), 4u);
  EXPECT_EQ(budget_client->overload_sheds(), 2u);
  EXPECT_EQ(traces.count(TraceKind::kRetryBudgetExhausted), 2u);

  server.lock_table().DropWatermarksOfTx(444444);
  while (!parked_status.has_value() && cluster.sim().Step()) {
  }
  EXPECT_TRUE(parked_status->ok());
  EXPECT_EQ(server.admitted_inflight(), 0u);
  cluster.RunUntilIdle();
}

// A shed inside a transaction must terminate it crisply: the commit path
// surfaces kUnavailable to the application (which can retry on a fresh
// snapshot) instead of leaving the watchdog to report a stuck transaction.
TEST(OverloadBudgetTest, ShedCommitSurfacesBeforeWatchdogBudget) {
  ClusterOptions options = BaseOptions(1);
  options.server.admission_max_inflight = 1;
  options.server.read_park_budget = Seconds(30);
  options.client.overload_retry_tokens = 1;
  options.client.overload_token_refill_per_s = 0.001;  // effectively no refill
  Cluster cluster(options);
  WalterClient* writer = cluster.AddClient(0);
  ASSERT_TRUE(CommitWrite(cluster, writer, Oid(0, 1), "v").ok());
  WalterServer& server = cluster.server(0);
  server.lock_table().AddWatermark(
      Oid(0, 1), Version{0, server.curr_seqno()}, /*tid=*/333333, cluster.sim().Now());

  WalterClient* parked_client = cluster.AddClient(0);
  std::optional<Status> parked_status;
  Tx parked(parked_client);
  parked.Read(Oid(0, 1), [&](Status s, std::optional<std::string>) { parked_status = s; });
  cluster.RunFor(Millis(5));
  ASSERT_FALSE(parked_status.has_value());

  {
    // Scoped: the watchdog's periodic check keeps the simulator non-idle, so
    // it must die before the drain below.
    WatchdogOptions wo;
    wo.budget = Seconds(1);
    wo.check_interval = Millis(100);
    wo.abort_on_stuck = false;
    LivenessWatchdog watchdog(&cluster.sim(), wo);

    WalterClient* app = cluster.AddClient(0);
    std::optional<Status> commit_status;
    Tx tx(app);
    tx.Write(Oid(0, 9), "w");
    tx.Commit([&](Status s) { commit_status = s; });
    cluster.RunFor(Seconds(2));

    ASSERT_TRUE(commit_status.has_value()) << "shed commit must surface, not hang";
    EXPECT_EQ(commit_status->code(), StatusCode::kUnavailable);
    EXPECT_FALSE(watchdog.fired())
        << "a shed transaction terminates; it must not read as stuck: "
        << (watchdog.fired() ? watchdog.reports()[0].verdict : "");
  }

  server.lock_table().DropWatermarksOfTx(333333);
  while (!parked_status.has_value() && cluster.sim().Step()) {
  }
  EXPECT_TRUE(parked_status->ok());
  cluster.RunUntilIdle();
}

}  // namespace
}  // namespace walter
