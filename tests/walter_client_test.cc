// Client-library behaviour: the RPC-count contract of Section 8.2 across
// transaction shapes (parameterized), id minting, notification plumbing for
// many concurrent transactions, snapshot reuse across operations, and the
// server's dedup of a commit retransmitted while the original still waits
// (parameterized over where it waits).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

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

// A transaction shape: number of reads, then writes, then cset adds; the
// expected RPC count = reads + (updates issued as RPCs) + commit, with the
// single-access piggyback collapsing 1-update transactions to one RPC and
// read-only transactions needing no commit RPC.
struct Shape {
  int reads;
  int writes;
  int cset_adds;
  size_t expected_rpcs;
};

class RpcCountTest : public ::testing::TestWithParam<Shape> {};

TEST_P(RpcCountTest, MatchesPiggybackContract) {
  const Shape& shape = GetParam();
  Cluster cluster(LogicOptions(1));
  WalterClient* client = cluster.AddClient(0);

  Tx tx(client);
  int reads_done = 0;
  for (int i = 0; i < shape.reads; ++i) {
    tx.Read(Oid(0, 100 + i), [&](Status s, std::optional<std::string>) {
      ASSERT_TRUE(s.ok());
      ++reads_done;
    });
    while (reads_done <= i && cluster.sim().Step()) {
    }
  }
  for (int i = 0; i < shape.writes; ++i) {
    tx.Write(Oid(0, i), "v");
  }
  for (int i = 0; i < shape.cset_adds; ++i) {
    tx.SetAdd(Oid(0, 1000), Oid(9, i));
  }
  bool done = false;
  tx.Commit([&](Status s) {
    ASSERT_TRUE(s.ok());
    done = true;
  });
  while (!done && cluster.sim().Step()) {
  }
  EXPECT_EQ(tx.rpcs_issued(), shape.expected_rpcs)
      << shape.reads << "r/" << shape.writes << "w/" << shape.cset_adds << "a";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RpcCountTest,
    ::testing::Values(Shape{1, 0, 0, 1},   // single read: 1 RPC, no commit RPC
                      Shape{0, 1, 0, 1},   // single write: combined with commit
                      Shape{0, 0, 1, 1},   // single cset add: combined
                      Shape{0, 2, 0, 3},   // 2 writes + commit
                      Shape{0, 5, 0, 6},   // 5 writes + commit (Figure 17 size 5)
                      Shape{0, 2, 1, 4},   // the Section 8.4 cset transaction
                      Shape{2, 0, 0, 2},   // read-only of size 2
                      Shape{1, 1, 0, 2},   // read, then single update combined with commit
                      Shape{3, 2, 2, 8}),  // mixed
    [](const ::testing::TestParamInfo<Shape>& info) {
      const Shape& s = info.param;
      return std::to_string(s.reads) + "r_" + std::to_string(s.writes) + "w_" +
             std::to_string(s.cset_adds) + "a";
    });

TEST(ClientTest, NewIdsAreUniqueWithinAndAcrossClients) {
  Cluster cluster(LogicOptions(2));
  WalterClient* c1 = cluster.AddClient(0);
  WalterClient* c2 = cluster.AddClient(0);
  WalterClient* c3 = cluster.AddClient(1);
  std::set<ObjectId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.insert(c1->NewId(5));
    ids.insert(c2->NewId(5));
    ids.insert(c3->NewId(5));
  }
  EXPECT_EQ(ids.size(), 600u);
  // Ids stay within the requested container.
  for (const auto& id : ids) {
    EXPECT_EQ(id.container, 5u);
  }
}

TEST(ClientTest, TidsAreUniqueAcrossClients) {
  Cluster cluster(LogicOptions(1));
  WalterClient* c1 = cluster.AddClient(0);
  WalterClient* c2 = cluster.AddClient(0);
  std::set<TxId> tids;
  for (int i = 0; i < 300; ++i) {
    tids.insert(c1->NextTid());
    tids.insert(c2->NextTid());
  }
  EXPECT_EQ(tids.size(), 600u);
}

TEST(ClientTest, NotificationsRouteToTheRightTransaction) {
  Cluster cluster(LogicOptions(2));
  WalterClient* client = cluster.AddClient(0);

  constexpr int kTxns = 10;
  std::vector<int> durable_order;
  std::vector<int> visible_order;
  int committed = 0;
  for (int i = 0; i < kTxns; ++i) {
    auto tx = std::make_shared<Tx>(client);
    tx->Write(Oid(0, 2000 + i), "v");
    Tx::CommitOptions opts;
    opts.on_durable = [&durable_order, i] { durable_order.push_back(i); };
    opts.on_visible = [&visible_order, i] { visible_order.push_back(i); };
    tx->Commit(
        [tx, &committed](Status s) {
          ASSERT_TRUE(s.ok());
          ++committed;
        },
        opts);
  }
  while (committed < kTxns && cluster.sim().Step()) {
  }
  cluster.RunFor(Seconds(3));

  // Every transaction got exactly one of each notification, in commit order
  // (watermarks advance monotonically).
  ASSERT_EQ(durable_order.size(), static_cast<size_t>(kTxns));
  ASSERT_EQ(visible_order.size(), static_cast<size_t>(kTxns));
  for (int i = 0; i < kTxns; ++i) {
    EXPECT_EQ(durable_order[i], i);
    EXPECT_EQ(visible_order[i], i);
  }
}

TEST(ClientTest, SnapshotIsStableAcrossManyOperations) {
  Cluster cluster(LogicOptions(1));
  WalterClient* client = cluster.AddClient(0);

  // Seed.
  {
    Tx tx(client);
    tx.Write(Oid(0, 1), "before");
    bool done = false;
    tx.Commit([&](Status) { done = true; });
    while (!done && cluster.sim().Step()) {
    }
  }

  Tx reader(client);
  std::optional<std::string> first;
  bool r1 = false;
  reader.Read(Oid(0, 1), [&](Status, std::optional<std::string> v) {
    first = std::move(v);
    r1 = true;
  });
  while (!r1 && cluster.sim().Step()) {
  }

  // Ten overwrites by other transactions.
  for (int i = 0; i < 10; ++i) {
    Tx w(client);
    w.Write(Oid(0, 1), "after" + std::to_string(i));
    bool done = false;
    w.Commit([&](Status) { done = true; });
    while (!done && cluster.sim().Step()) {
    }
  }

  // Ten more reads by the same transaction: all return the original snapshot.
  for (int i = 0; i < 10; ++i) {
    std::optional<std::string> again;
    bool done = false;
    reader.Read(Oid(0, 1), [&](Status, std::optional<std::string> v) {
      again = std::move(v);
      done = true;
    });
    while (!done && cluster.sim().Step()) {
    }
    EXPECT_EQ(again, first);
  }
}

TEST(ClientTest, AbortBeforeAnyRpcIsLocal) {
  Cluster cluster(LogicOptions(1));
  WalterClient* client = cluster.AddClient(0);
  Tx tx(client);
  tx.Write(Oid(0, 1), "never-sent");
  bool aborted = false;
  tx.Abort([&] { aborted = true; });
  EXPECT_TRUE(aborted);          // synchronous: nothing had reached the server
  EXPECT_EQ(tx.rpcs_issued(), 0u);
  cluster.RunUntilIdle();
}

// Robustness: a dropped commit *response* forces the client to retransmit the
// commit. The server deduplicates by transaction id: the write is applied
// exactly once and the retry is answered from the retained outcome.
TEST(ClientTest, RetriedCommitIsAppliedExactlyOnce) {
  Cluster cluster(LogicOptions(1));
  WalterClient* client = cluster.AddClient(0);

  int dropped = 0;
  cluster.net().SetDropFilter([&](const Message& m, const Address&, const Address& to) {
    if (m.is_response && m.type == kClientOp && to.port >= kClientPortBase && dropped == 0) {
      ++dropped;
      return true;  // exactly the first commit response
    }
    return false;
  });

  Tx tx(client);
  tx.Write(Oid(0, 1), "once");
  Status result = Status::Internal("unfinished");
  bool done = false;
  tx.Commit([&](Status s) {
    result = s;
    done = true;
  });
  while (!done && cluster.sim().Step()) {
  }
  cluster.net().SetDropFilter(nullptr);

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(dropped, 1);
  EXPECT_GE(client->retries_sent(), 1u);
  // Applied exactly once, retry answered from the dedup table.
  EXPECT_EQ(cluster.server(0).committed_vts().at(0), 1u);
  EXPECT_EQ(cluster.server(0).stats().fast_commits, 1u);
  EXPECT_GE(cluster.server(0).stats().commit_dedups, 1u);

  bool read_done = false;
  Tx rd(client);
  rd.Read(Oid(0, 1), [&](Status s, std::optional<std::string> v) {
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(v, "once");
    read_done = true;
  });
  while (!read_done && cluster.sim().Step()) {
  }
}

// A client whose local server is dead must fail fast with kUnavailable after
// its retry budget — never hang.
TEST(ClientTest, CrashedServerYieldsUnavailableWithinRetryBudget) {
  Cluster cluster(LogicOptions(1));
  cluster.server(0).Crash();
  WalterClient* client = cluster.AddClient(0);

  Tx tx(client);
  tx.Write(Oid(0, 1), "v");
  Status result = Status::Internal("unfinished");
  bool done = false;
  SimTime start = cluster.sim().Now();
  tx.Commit([&](Status s) {
    result = s;
    done = true;
  });
  while (!done && cluster.sim().Step()) {
  }

  ASSERT_TRUE(done);
  EXPECT_EQ(result.code(), StatusCode::kUnavailable) << result.ToString();
  // Budget: max_attempts timeouts plus the capped backoffs between them.
  const WalterClient::Options defaults{};
  SimDuration budget = 0;
  SimDuration backoff = defaults.backoff_base;
  for (size_t a = 0; a < defaults.max_attempts; ++a) {
    budget += defaults.rpc_timeout + backoff * 2;  // x2: jitter headroom
    backoff = std::min(backoff * 2, defaults.backoff_cap);
  }
  EXPECT_LE(cluster.sim().Now() - start, budget);
}

// --- Commit retransmission dedup --------------------------------------------

// Where the original commit waits when its retransmission arrives. In each
// state the server must chain the retransmission's reply onto the original's
// instead of committing a second time.
enum class CommitWait {
  kTwoPhaseDeciding,  // slow commit still collecting prepare votes
  kLockParked,        // fast commit parked behind a held prepare lock
  kGapParked,         // sharded commit parked on a sibling-shard snapshot gap
  kFlushing,          // applied locally, group-commit flush still in flight
};

std::string CommitWaitName(const ::testing::TestParamInfo<CommitWait>& info) {
  switch (info.param) {
    case CommitWait::kTwoPhaseDeciding:
      return "TwoPhaseDeciding";
    case CommitWait::kLockParked:
      return "LockParked";
    case CommitWait::kGapParked:
      return "GapParked";
    case CommitWait::kFlushing:
      return "Flushing";
  }
  return "Unknown";
}

class CommitDedupTest : public ::testing::TestWithParam<CommitWait> {};

// A raw client endpoint sends a commit-bearing op, waits until the original
// is in the parameter's state, then sends the identical request again. The
// transaction must apply exactly once, and both RPCs must be answered with
// the same commit version — the retransmission no earlier than the original,
// so it is never acked before the commit is durable.
TEST_P(CommitDedupTest, RetransmissionChainsOntoWaitingOriginal) {
  const CommitWait wait = GetParam();
  constexpr TxId kTid = 0xD00D;
  constexpr TxId kHolder = 0xB10C;
  ClusterOptions options = LogicOptions(wait == CommitWait::kTwoPhaseDeciding ? 2 : 1);
  if (wait == CommitWait::kGapParked) {
    options.servers_per_site = {2};
  }
  if (wait == CommitWait::kFlushing) {
    options.server.disk = DiskConfig{.flush_latency = Millis(5), .jitter = 0};
  }
  Cluster cluster(options);
  // The gap case commits at shard 1 of a sharded site; every other case at
  // server 0, writing a container preferred there.
  ContainerId c = 0;
  SiteId server_id = 0;
  if (wait == CommitWait::kGapParked) {
    while (cluster.shard_map().ShardOf(c, 0) != 1) {
      ++c;
    }
    server_id = cluster.shard_map().ServerAt(0, 1);
  }
  WalterServer& server = cluster.server(server_id);
  size_t applied = 0;
  cluster.ObserveCommits([&](SiteId site, const TxRecord& rec) {
    if (site == server_id && rec.tid == kTid) {
      ++applied;
    }
  });
  RpcEndpoint client(&cluster.net(), Address{0, kClientPortBase});
  const Address to{server_id, kWalterPort};
  auto run_until = [&](const std::function<bool()>& done) {
    SimTime deadline = cluster.sim().Now() + Seconds(20);
    while (!done() && cluster.sim().Now() < deadline && cluster.sim().Step()) {
    }
    return done();
  };
  // (call number, response) in arrival order.
  std::vector<std::pair<int, ClientOpResponse>> replies;
  int calls = 0;
  auto call = [&](const ClientOpRequest& req) {
    client.Call(
        to, kClientOp, req.Serialize(),
        [&replies, n = calls++](Status status, const Message& m) {
          ASSERT_TRUE(status.ok()) << status.ToString();
          replies.emplace_back(n, ClientOpResponse::Deserialize(m.payload));
        },
        Seconds(60));
  };

  ClientOpRequest commit;
  commit.tid = kTid;
  commit.op = ClientOpKind::kWrite;
  commit.oid = Oid(c, 1);
  commit.data = "once";
  commit.commit_after = true;
  commit.op_seq = 1;
  std::function<bool()> original_waits;
  switch (wait) {
    case CommitWait::kTwoPhaseDeciding: {
      // Buffer a write preferred at site 1 first, so the commit needs 2PC.
      ClientOpRequest buffered = commit;
      buffered.oid = Oid(1, 1);
      buffered.commit_after = false;
      call(buffered);
      ASSERT_TRUE(run_until([&] { return replies.size() == 1; }));
      replies.clear();
      calls = 0;
      commit.op_seq = 2;
      original_waits = [&] { return server.stats().slow_commits == 1; };
      break;
    }
    case CommitWait::kLockParked: {
      // A prepare that no coordinator will ever decide holds the object's lock.
      PrepareRequest prep;
      prep.tid = kHolder;
      prep.oids = {commit.oid};
      prep.start_vts = server.committed_vts();
      prep.priority = 1;
      client.Call(to, kPrepare, prep.Serialize(), [](Status, const Message&) {});
      ASSERT_TRUE(run_until([&] { return server.lock_count() == 1; }));
      original_waits = [&] { return server.stats().lock_waits == 1; };
      break;
    }
    case CommitWait::kGapParked: {
      // Shard 0 commits a write whose propagation to shard 1 is dropped; a
      // commit at shard 1 whose snapshot covers it must wait for the gap.
      cluster.net().SetDropFilter([](const Message&, const Address& from, const Address& dst) {
        return from == Address{0, kWalterPort} && dst == Address{1, kWalterPort};
      });
      ClientOpRequest ahead = commit;
      ahead.tid = kHolder;
      ahead.oid = Oid(c + 1, 1);
      while (cluster.shard_map().ShardOf(ahead.oid.container, 0) != 0) {
        ++ahead.oid.container;
      }
      client.Call(Address{0, kWalterPort}, kClientOp, ahead.Serialize(),
                  [](Status, const Message&) {});
      ASSERT_TRUE(run_until([&] { return cluster.server(0).committed_vts().at(0) == 1; }));
      commit.vts = cluster.server(0).committed_vts();
      original_waits = [&] { return server.gap_commit_waiter_count() == 1; };
      break;
    }
    case CommitWait::kFlushing:
      original_waits = [&] { return server.stats().fast_commits == 1; };
      break;
  }

  call(commit);
  ASSERT_TRUE(run_until(original_waits));
  ASSERT_TRUE(replies.empty());
  call(commit);  // the retransmission
  ASSERT_TRUE(run_until([&] { return server.stats().commit_dedups == 1; }));
  EXPECT_TRUE(replies.empty()) << "the retransmission must wait for the original's outcome";

  if (wait == CommitWait::kLockParked) {
    client.Send(to, kAbort2pc, AbortMessage{kHolder}.Serialize());
  } else if (wait == CommitWait::kGapParked) {
    cluster.net().SetDropFilter(nullptr);  // the batch resend closes the gap
  }
  ASSERT_TRUE(run_until([&] { return replies.size() == 2; }));
  cluster.RunFor(Seconds(5));  // nothing else may answer or commit it

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].first, 0) << "the retransmission was answered before the original";
  const ClientOpResponse& original = replies[0].second;
  const ClientOpResponse& retransmitted = replies[1].second;
  EXPECT_EQ(original.status, StatusCode::kOk);
  EXPECT_EQ(retransmitted.status, StatusCode::kOk);
  EXPECT_EQ(original.commit_version, retransmitted.commit_version);
  EXPECT_EQ(original.commit_version.site, server_id);
  EXPECT_GT(original.commit_version.seqno, 0u);
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(server.stats().commit_dedups, 1u);
  EXPECT_EQ(server.stats().fast_commits + server.stats().slow_commits, 1u);
}

INSTANTIATE_TEST_SUITE_P(WaitStates, CommitDedupTest,
                         ::testing::Values(CommitWait::kTwoPhaseDeciding,
                                           CommitWait::kLockParked, CommitWait::kGapParked,
                                           CommitWait::kFlushing),
                         CommitWaitName);

}  // namespace
}  // namespace walter
