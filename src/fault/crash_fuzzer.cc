#include "src/fault/crash_fuzzer.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/psi/checker.h"

namespace walter {
namespace {

using Ev = WalterServer::StorageEvent;

// One storage event observed on the victim during the census pass. `offset` is
// the logical WAL position after the event, `durable` the flush-confirmed
// prefix at that moment — their gap is the in-flight tail a crash would lose.
struct CensusEntry {
  Ev event;
  size_t offset;
  size_t durable;
};

struct RunPlan {
  long crash_event = -1;            // storage event index to crash at; -1 = none
  bool crash_at_quiescence = false;  // crash after the workload fully settles
  // Bit-rot runs disable the GC coordinator: rot destroys bytes fsync promised
  // were durable, so zero-loss healing needs a surviving copy — peers must not
  // have released the records the stability frontier says everyone holds. The
  // crash/torn sweeps keep GC on (the frontier's durability premise holds
  // there, and the runs double as strand-free truncation checks).
  bool retain_peer_logs = false;
  DiskFaults faults;                 // armed at the crash, consumed by restore
  std::string label;
};

struct AckedWrite {
  ObjectId oid;
  std::string value;
};

const char* EvName(Ev e) {
  switch (e) {
    case Ev::kWalAppend:
      return "append";
    case Ev::kCheckpoint:
      return "checkpoint";
    case Ev::kWalTruncate:
      return "truncate";
  }
  return "?";
}

// Executes one scripted run of the workload under `plan`, appending any assert
// violations to the report. Returns the victim's storage-event census (only
// meaningful for a run that never crashes).
std::vector<CensusEntry> RunOnce(const CrashFuzzerOptions& options, const RunPlan& plan,
                                 CrashFuzzerReport* report) {
  ClusterOptions copt;
  copt.num_sites = options.num_sites;
  if (options.shards_per_site > 1) {
    copt.servers_per_site.assign(options.num_sites, options.shards_per_site);
  }
  copt.seed = options.seed;
  copt.server.perf = PerfModel::Instant();
  copt.server.disk = options.disk;
  copt.server.gossip_interval = 0;  // scripted runs quiesce; no periodic work
  copt.client.max_attempts = 8;
  if (plan.retain_peer_logs) {
    copt.gc.enabled = false;
  }
  Cluster cluster(copt);
  Simulator& sim = cluster.sim();
  const SiteId victim = options.victim;
  // All per-server bookkeeping (logs, convergence, PSI) spans virtual servers:
  // under sharding each shard is a full Walter server with its own log.
  const size_t n = cluster.num_servers();

  auto fail = [&](const std::string& what) {
    report->failures.push_back(plan.label + ": " + what);
  };

  // Harness-side commit logs, chaos-style: apply order per site plus a
  // (origin, seqno) -> record index. A record re-committed after a restore
  // (its first apply rolled back with the unflushed WAL tail) keeps its
  // first-occurrence position — that order was this site's real commit order
  // before the crash, and the re-application preserves per-origin seqno order.
  std::vector<std::vector<TxRecord>> logs(n);
  std::vector<std::set<std::pair<SiteId, uint64_t>>> applied(n);
  std::map<std::pair<SiteId, uint64_t>, TxRecord> by_version;

  // The victim checkpoints once, mid-workload, so the census includes the
  // checkpoint-write and WAL-truncation boundaries.
  bool checkpoint_scheduled = false;
  const uint64_t checkpoint_seqno =
      std::max<uint64_t>(1, static_cast<uint64_t>(options.txns_per_site) / 2);

  cluster.ObserveCommits([&](SiteId site, const TxRecord& rec) {
    auto key = std::make_pair(rec.origin, rec.version.seqno);
    by_version[key] = rec;
    if (!checkpoint_scheduled && site == victim && rec.origin == victim &&
        rec.version.seqno == checkpoint_seqno) {
      checkpoint_scheduled = true;
      sim.After(Millis(1), [&cluster, victim]() {
        WalterServer& server = cluster.server(victim);
        if (!server.crashed()) {
          // All-maximum floors: truncate everything the checkpoint covers.
          server.CheckpointRetaining(VectorTimestamp(std::vector<uint64_t>(
              server.options().num_sites, std::numeric_limits<uint64_t>::max())));
        }
      });
    }
    if (!applied[site].insert(key).second) {
      return;  // re-commit after a restore
    }
    logs[site].push_back(rec);
  });

  // Reconciles the harness log after a replacement: records inside the
  // restored frontier that this site never reported committed silently during
  // the restore (the server cannot know what the crashed instance reported).
  auto reconcile = [&]() {
    WalterServer& fresh = cluster.server(victim);
    const VectorTimestamp& frontier = fresh.committed_vts();
    for (SiteId o = 0; o < static_cast<SiteId>(n); ++o) {
      for (uint64_t q = 1; q <= frontier.at(o); ++q) {
        auto key = std::make_pair(o, q);
        if (applied[victim].count(key) > 0) {
          continue;
        }
        auto it = by_version.find(key);
        if (it == by_version.end()) {
          if (o != victim) {
            fail("restored remote record " + std::to_string(o) + ":" + std::to_string(q) +
                 " that no observer ever saw");
            continue;
          }
          // Own record flushed but never acknowledged: only the restored
          // server retains it.
          const TxRecord* rec = fresh.RetainedLocalCommit(q);
          if (rec == nullptr) {
            fail("own restored seqno " + std::to_string(q) + " has no retained record");
            continue;
          }
          it = by_version.emplace(key, *rec).first;
        }
        logs[victim].push_back(it->second);
        applied[victim].insert(key);
      }
    }
  };

  bool replaced = false;
  auto do_replace = [&]() {
    cluster.ReplaceServer(victim);
    reconcile();
    replaced = true;
  };

  // Census + crash trigger. The pre-crash prefix of any two runs with the same
  // seed is identical, so event index k means the same machine state in every
  // sweep run.
  std::vector<CensusEntry> census;
  bool crash_fired = false;
  cluster.server(victim).SetStorageEventHook([&](Ev e, size_t off) {
    census.push_back({e, off, cluster.server(victim).durable_wal_bytes()});
    if (plan.crash_event >= 0 && !crash_fired &&
        static_cast<long>(census.size()) - 1 == plan.crash_event) {
      crash_fired = true;
      cluster.server(victim).disk().ArmFaults(plan.faults);
      cluster.server(victim).Crash();
      sim.After(Millis(50), [&]() { do_replace(); });
    }
  });

  // Scripted workload: one client per site, each committing txns_per_site
  // transactions sequentially, every write to a unique object so the
  // acked-commit check is exact. Commits failing while the victim is down are
  // fine — only acknowledged commits carry the durability promise.
  const size_t sites = options.num_sites;
  int active = static_cast<int>(sites);
  std::vector<AckedWrite> acked;
  std::vector<WalterClient*> clients;
  for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s) {
    clients.push_back(cluster.AddClient(s));
  }
  // Per-site container choices. Unsharded, container s is preferred at site s.
  // Sharded, the first write always targets a shard-0 container (so the site's
  // first shard — the victim at site 0 — coordinates every 2PC and its own
  // seqnos advance predictably for the checkpoint trigger) and the second
  // write targets a shard-1 container, forcing the slow path.
  std::vector<ContainerId> first_container(sites), second_container(sites);
  for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s) {
    first_container[s] = s;
    second_container[s] = s;
    if (options.shards_per_site > 1) {
      const ShardMap& map = cluster.shard_map();
      auto on_shard = [&](size_t shard) {
        for (ContainerId c = s;; c += sites) {
          if (map.ShardOf(c, s) == shard) {
            return c;
          }
        }
      };
      first_container[s] = on_shard(0);
      second_container[s] = on_shard(1);
    }
  }
  std::vector<int> next_txn(sites, 0);
  std::function<void(SiteId)> step = [&](SiteId s) {
    if (next_txn[s] >= options.txns_per_site) {
      --active;
      return;
    }
    int i = next_txn[s]++;
    auto tx = std::make_shared<Tx>(clients[s]);
    tx->SetMode(options.mode);
    ObjectId oid{first_container[s], 1000 + static_cast<uint64_t>(i)};
    std::string value = "s" + std::to_string(s) + "-t" + std::to_string(i);
    tx->Write(oid, value);
    ObjectId oid2{second_container[s], 2000 + static_cast<uint64_t>(i)};
    std::string value2 = value + "-x";
    if (options.shards_per_site > 1) {
      tx->Write(oid2, value2);
    }
    tx->Commit([&, s, tx, oid, value, oid2, value2](Status st) {
      if (st.ok()) {
        acked.push_back({oid, value});
        if (options.shards_per_site > 1) {
          acked.push_back({oid2, value2});
        }
      }
      // Think gap >> flush latency: at any append boundary the prior frames
      // are already flush-confirmed, keeping in-flight tails to ~one frame.
      sim.After(Millis(5), [&step, s]() { step(s); });
    });
  };
  for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s) {
    step(s);
  }

  SimTime deadline = sim.Now() + Seconds(180);
  while (active > 0 && sim.Now() < deadline && sim.Step()) {
  }
  if (active > 0) {
    fail("workload stuck past its deadline");
  }
  cluster.RunFor(Seconds(10));  // settle: propagation, durability, visibility

  if (plan.crash_at_quiescence) {
    cluster.server(victim).disk().ArmFaults(plan.faults);
    cluster.server(victim).Crash();
    cluster.RunFor(Millis(50));
    do_replace();
  }
  bool planned_crash = plan.crash_event >= 0 || plan.crash_at_quiescence;
  if (planned_crash && !replaced) {
    cluster.RunFor(Millis(200));  // a hook crash near the end: replacement pending
  }
  if (planned_crash && !replaced) {
    fail("crash point never fired");
  }
  cluster.RunFor(Seconds(30));  // resync, backfill, re-propagation, convergence

  // Asserts ------------------------------------------------------------------
  WalterServer& v = cluster.server(victim);
  if (v.crashed()) {
    fail("victim still down after restart");
  }
  if (planned_crash && replaced) {
    if (v.stats().recoveries != 1) {
      fail("recovery did not complete (recoveries=" + std::to_string(v.stats().recoveries) + ")");
    }
    report->torn_detected += v.stats().recovery_torn_tails;
    report->backfilled += v.stats().recovery_backfilled;
    report->bad_checkpoints += v.stats().recovery_bad_checkpoints;
  }

  for (SiteId s = 1; s < static_cast<SiteId>(n); ++s) {
    if (!(cluster.server(s).committed_vts() == cluster.server(0).committed_vts())) {
      fail("site " + std::to_string(s) + " did not converge: " +
           cluster.server(s).committed_vts().ToString() + " vs victim " +
           cluster.server(0).committed_vts().ToString());
    }
  }

  // Zero acked-commit loss: every acknowledged write is readable, with its
  // exact value, at every site's full committed snapshot — at the shard that
  // replicates the object's container (every server, unsharded).
  for (const AckedWrite& w : acked) {
    for (SiteId site = 0; site < static_cast<SiteId>(sites); ++site) {
      SiteId s = cluster.shard_map().OwnerAt(w.oid.container, site);
      auto got = cluster.server(s).store().ReadRegular(w.oid, cluster.server(s).committed_vts());
      if (!got.has_value() || *got != w.value) {
        fail("acked commit lost at server " + std::to_string(s) + ": " + w.oid.ToString() +
             " = " + (got.has_value() ? *got : std::string("<missing>")) + ", want " + w.value);
      }
    }
  }
  report->acked_checked += acked.size();

  // Mode-aware consistency check over the reconciled logs (write-only
  // workload: the checker validates apply orders, per-origin seqno order and
  // causal consistency; at the default level this is exactly the PSI checker).
  ConsistencyChecker checker(n, options.mode);
  for (SiteId s = 0; s < static_cast<SiteId>(n); ++s) {
    for (const TxRecord& rec : logs[s]) {
      checker.OnApply(s, rec.tid);
    }
  }
  for (SiteId s = 0; s < static_cast<SiteId>(n); ++s) {
    for (const TxRecord& rec : logs[s]) {
      if (rec.origin != s) {
        continue;
      }
      RecordedTx recorded;
      recorded.record = rec;
      recorded.mode = options.mode;
      checker.OnCommit(std::move(recorded));
    }
  }
  Status psi = checker.Check();
  if (!psi.ok()) {
    fail(std::string(ConsistencyModeName(options.mode)) + " violation: " + psi.ToString());
  }

  ++report->runs;
  return census;
}

}  // namespace

std::string CrashFuzzerReport::Summary() const {
  std::string s = std::to_string(runs) + " runs (" + std::to_string(crash_points) +
                  " crash points, " + std::to_string(torn_cases) + " torn offsets, " +
                  std::to_string(rot_cases) + " rot images); " + std::to_string(acked_checked) +
                  " acked commits checked; torn-tails detected " + std::to_string(torn_detected) +
                  ", backfilled " + std::to_string(backfilled) + ", bad checkpoints " +
                  std::to_string(bad_checkpoints) + "; " + std::to_string(failures.size()) +
                  " failures";
  for (const std::string& f : failures) {
    s += "\n  " + f;
  }
  return s;
}

CrashFuzzerReport CrashPointFuzzer::Run() {
  CrashFuzzerReport report;
  RunPlan census_plan;
  census_plan.label = "census";
  std::vector<CensusEntry> census = RunOnce(options_, census_plan, &report);
  report.crash_points = census.size();
  if (census.empty()) {
    report.failures.push_back("census: no storage events recorded");
    return report;
  }
  WLOG(kInfo, "crash fuzzer: census found " << census.size() << " storage events");

  // Sweep 1: crash exactly at every storage event boundary.
  if (options_.sweep_crash_points) {
    for (size_t k = 0; k < census.size(); ++k) {
      RunPlan plan;
      plan.crash_event = static_cast<long>(k);
      plan.label = "crash@" + std::to_string(k) + "/" + EvName(census[k].event) + ":" +
                   std::to_string(census[k].offset);
      RunOnce(options_, plan, &report);
    }
  }

  // Sweep 2: crash at the last WAL append and tear the unflushed tail at every
  // byte offset of the final frame — from losing the frame entirely (j = 0) to
  // the whole write reaching the medium (j = frame length).
  if (options_.sweep_torn_offsets) {
    long last_append = -1;
    size_t prev_off = 0;
    for (size_t k = 0; k < census.size(); ++k) {
      if (census[k].event == Ev::kWalAppend) {
        if (last_append >= 0) {
          prev_off = census[last_append].offset;
        }
        last_append = static_cast<long>(k);
      }
    }
    if (last_append < 0) {
      report.failures.push_back("torn sweep: census has no WAL append events");
    } else {
      const CensusEntry& e = census[last_append];
      size_t tail = e.offset - e.durable;  // in-flight bytes at the crash
      size_t frame = e.offset - std::max(prev_off, e.durable);
      size_t keep_base = tail - frame;  // in-flight bytes before the final frame
      for (size_t j = 0; j <= frame; ++j) {
        RunPlan plan;
        plan.crash_event = last_append;
        plan.faults.torn_tail = true;
        plan.faults.torn_tail_bytes = keep_base + j;
        plan.label = "torn@" + std::to_string(j) + "/" + std::to_string(frame);
        RunOnce(options_, plan, &report);
        ++report.torn_cases;
      }
    }
  }

  // Sweep 3: corruption past the fsync contract, injected at quiescence (every
  // acked commit has propagated, so peer backfill plus resync must heal the
  // cluster completely): bit rot across the durable WAL image, and a rotted
  // checkpoint (CRC fallback to WAL-only recovery).
  if (options_.sweep_bit_rot) {
    size_t wal_end = census.back().offset;
    for (size_t off = 0; off < wal_end; off += options_.bit_rot_stride) {
      RunPlan plan;
      plan.crash_at_quiescence = true;
      plan.retain_peer_logs = true;
      plan.faults.bit_rot = true;
      plan.faults.bit_rot_offset = off;
      plan.label = "rot@" + std::to_string(off);
      RunOnce(options_, plan, &report);
      ++report.rot_cases;
    }
    RunPlan plan;
    plan.crash_at_quiescence = true;
    plan.retain_peer_logs = true;
    plan.faults.checkpoint_rot = true;
    plan.label = "ckpt-rot";
    RunOnce(options_, plan, &report);
    ++report.rot_cases;
  }
  return report;
}

}  // namespace walter
