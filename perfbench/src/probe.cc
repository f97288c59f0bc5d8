#include "perfbench/src/probe.h"

#include <chrono>
#include <string>
#include <thread>

namespace perfbench {

using walter::Cluster;
using walter::SiteId;
using walter::WalterServer;

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.fast_commits = fast_commits - o.fast_commits;
  d.slow_commits = slow_commits - o.slow_commits;
  d.aborts = aborts - o.aborts;
  d.aborts_conflict = aborts_conflict - o.aborts_conflict;
  d.aborts_wound = aborts_wound - o.aborts_wound;
  d.aborts_timeout = aborts_timeout - o.aborts_timeout;
  d.lock_waits = lock_waits - o.lock_waits;
  d.watermark_read_waits = watermark_read_waits - o.watermark_read_waits;
  d.commit_gap_parks = commit_gap_parks - o.commit_gap_parks;
  d.batches_sent = batches_sent - o.batches_sent;
  d.batch_resends = batch_resends - o.batch_resends;
  d.remote_applied = remote_applied - o.remote_applied;
  d.gc_folded = gc_folded - o.gc_folded;
  d.wal_truncated = wal_truncated - o.wal_truncated;
  d.wal_bytes = wal_bytes - o.wal_bytes;
  d.msgs = msgs - o.msgs;
  d.bytes = bytes - o.bytes;
  return d;
}

Counters CaptureCounters(Cluster& cluster) {
  Counters c;
  for (SiteId s = 0; s < cluster.num_servers(); ++s) {
    cluster.RunOnServer(s, [&cluster, &c, s]() {
      WalterServer& server = cluster.server(s);
      const WalterServer::Stats& st = server.stats();
      c.fast_commits += st.fast_commits;
      c.slow_commits += st.slow_commits;
      c.aborts += st.aborts;
      c.aborts_conflict += st.aborts_conflict;
      c.aborts_wound += st.aborts_wound;
      c.aborts_timeout += st.aborts_timeout;
      c.lock_waits += st.lock_waits;
      c.watermark_read_waits += st.watermark_read_waits;
      c.commit_gap_parks += st.commit_gap_parks;
      c.batches_sent += st.batches_sent;
      c.batch_resends += st.batch_resends;
      c.remote_applied += st.remote_txns_applied;
      c.gc_folded += st.gc_folded_entries;
      c.wal_truncated += st.wal_truncated_bytes;
      const walter::Wal& wal = server.store().wal();
      c.wal_bytes += wal.base() + wal.size();
    });
  }
  c.msgs = cluster.net().messages_sent();
  c.bytes = cluster.net().bytes_sent();
  return c;
}

void AddServerMetrics(const Counters& d, double committed, Report& report) {
  double commits = static_cast<double>(d.fast_commits + d.slow_commits);
  double ktx = committed / 1000.0;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report.Add("server.fast_commit_frac", per(static_cast<double>(d.fast_commits), commits),
             "frac", "count");
  report.Add("server.slow_commits_per_ktx", per(static_cast<double>(d.slow_commits), ktx),
             "1/ktx", "count");
  report.Add("server.abort_frac",
             per(static_cast<double>(d.aborts), commits + static_cast<double>(d.aborts)), "frac",
             "count");
  report.Add("server.aborts_conflict", static_cast<double>(d.aborts_conflict), "count", "count");
  report.Add("server.aborts_wound", static_cast<double>(d.aborts_wound), "count", "count");
  report.Add("server.aborts_timeout", static_cast<double>(d.aborts_timeout), "count", "count");
  report.Add("server.lock_waits_per_ktx", per(static_cast<double>(d.lock_waits), ktx), "1/ktx",
             "count");
  report.Add("server.watermark_read_waits_per_ktx",
             per(static_cast<double>(d.watermark_read_waits), ktx), "1/ktx", "count");
  report.Add("server.commit_gap_parks_per_ktx", per(static_cast<double>(d.commit_gap_parks), ktx),
             "1/ktx", "count");
  report.Add("server.batches_per_commit", per(static_cast<double>(d.batches_sent), commits),
             "ratio", "count");
  report.Add("server.records_per_batch",
             per(static_cast<double>(d.remote_applied), static_cast<double>(d.batches_sent)),
             "ratio", "count");
  report.Add("server.batch_resends_per_ktx", per(static_cast<double>(d.batch_resends), ktx),
             "1/ktx", "count");
  report.Add("net.msgs_per_tx", per(static_cast<double>(d.msgs), committed), "ratio", "count");
  report.Add("net.bytes_per_tx", per(static_cast<double>(d.bytes), committed), "B", "count");
  report.Add("storage.wal_bytes_per_tx", per(static_cast<double>(d.wal_bytes), committed), "B",
             "count");
}

namespace {

// One poll step: sleeps in wall mode, advances virtual time in sim mode.
void PollStep(Cluster& cluster) {
  if (cluster.threaded()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } else {
    cluster.RunFor(walter::Millis(50));
  }
}

template <typename Pred>
bool PollUntil(Cluster& cluster, double timeout_s, Pred pred) {
  int64_t deadline = NowUs() + static_cast<int64_t>(timeout_s * 1e6);
  walter::SimTime sim_deadline =
      cluster.sim().Now() + static_cast<walter::SimTime>(timeout_s * 1e6);
  while (!pred()) {
    if (NowUs() > deadline || (!cluster.threaded() && cluster.sim().Now() > sim_deadline)) {
      return false;
    }
    PollStep(cluster);
  }
  return true;
}

}  // namespace

bool WaitReplicated(Cluster& cluster, double timeout_s) {
  return PollUntil(cluster, timeout_s, [&cluster]() {
    walter::VectorTimestamp first = cluster.SnapshotCommittedVts(0);
    for (SiteId s = 1; s < cluster.num_servers(); ++s) {
      if (!(cluster.SnapshotCommittedVts(s) == first)) {
        return false;
      }
    }
    return true;
  });
}

bool WaitNoLocks(Cluster& cluster, double timeout_s) {
  return PollUntil(cluster, timeout_s, [&cluster]() {
    size_t held = 0;
    for (SiteId s = 0; s < cluster.num_servers(); ++s) {
      cluster.RunOnServer(s, [&]() {
        held += cluster.server(s).lock_count() + cluster.server(s).watermark_count();
      });
    }
    return held == 0;
  });
}

void CheckQuiescent(Cluster& cluster, const std::vector<walter::ObjectId>& sample,
                    Report& report) {
  for (SiteId s = 0; s < cluster.num_servers(); ++s) {
    WalterServer& server = cluster.server(s);
    if (server.lock_count() != 0 || server.watermark_count() != 0) {
      report.Fail("server " + std::to_string(s) + " holds " + std::to_string(server.lock_count()) +
                  " locks and " + std::to_string(server.watermark_count()) +
                  " watermarks after the drain");
    }
  }
  if (cluster.net().messages_dropped() != 0) {
    report.Fail(std::to_string(cluster.net().messages_dropped()) + " messages dropped");
  }
  const walter::ShardMap& map = cluster.shard_map();
  for (const walter::ObjectId& oid : sample) {
    std::optional<std::string> first;
    for (SiteId site = 0; site < cluster.num_sites(); ++site) {
      WalterServer& server = cluster.server_at(site, map.ShardOf(oid.container, site));
      std::optional<std::string> v = server.store().ReadRegular(oid, server.committed_vts());
      if (!v.has_value()) {
        report.Fail("written key " + oid.ToString() + " is missing at site " +
                    std::to_string(site));
        return;
      }
      if (site == 0) {
        first = v;
      } else if (*v != *first) {
        report.Fail("replicas disagree on " + oid.ToString());
        return;
      }
    }
  }
}

void CommitCapture::Install(Cluster& cluster) {
  cluster.ObserveCommits(
      [this](SiteId site, const walter::TxRecord& record) { OnCommit(site, record); });
}

void CommitCapture::OnCommit(SiteId site, const walter::TxRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (site == record.origin) {
    if (!capturing.load(std::memory_order_relaxed)) {
      return;
    }
    if (records_.size() < kMaxRecords) {
      records_.push_back(record);
    }
    if (sampled_.size() >= kMaxChecked) {
      return;
    }
    sampled_.insert(record.tid);
    checker_.OnApply(site, record.tid);
    walter::RecordedTx tx;
    tx.record = record;
    checker_.OnCommit(std::move(tx));
    return;
  }
  if (sampled_.contains(record.tid)) {
    checker_.OnApply(site, record.tid);
  }
}

}  // namespace perfbench
