// Reads the cluster from outside through public accessors: per-server
// counters, network counters and WAL sizes (snapshotted at window edges), the
// post-drain correctness checks shared by every workload, and the commit
// capture that feeds the traced run's PSI checker and storage replay.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "perfbench/src/common.h"
#include "src/core/cluster.h"
#include "src/psi/checker.h"

namespace perfbench {

struct Counters {
  uint64_t fast_commits = 0;
  uint64_t slow_commits = 0;
  uint64_t aborts = 0;
  uint64_t aborts_conflict = 0;
  uint64_t aborts_wound = 0;
  uint64_t aborts_timeout = 0;
  uint64_t lock_waits = 0;
  uint64_t watermark_read_waits = 0;
  uint64_t commit_gap_parks = 0;
  uint64_t batches_sent = 0;
  uint64_t batch_resends = 0;
  uint64_t remote_applied = 0;
  uint64_t gc_folded = 0;
  uint64_t wal_truncated = 0;
  uint64_t wal_bytes = 0;  // logical WAL bytes ever appended, all servers
  uint64_t msgs = 0;
  uint64_t bytes = 0;

  Counters operator-(const Counters& o) const;
};

// Snapshot of every server's counters. Safe while worker threads run: each
// server is read on its owning executor.
Counters CaptureCounters(walter::Cluster& cluster);

// Adds the server.* per-layer metrics for a window's counter delta.
void AddServerMetrics(const Counters& d, double committed, Report& report);

// Polls (through the owning executors) until every server holds the same
// CommittedVTS, i.e. propagation has drained. Sim mode advances virtual time
// instead of sleeping. Returns false on timeout.
bool WaitReplicated(walter::Cluster& cluster, double timeout_s);
// Polls until no server holds a lock or a visibility watermark.
bool WaitNoLocks(walter::Cluster& cluster, double timeout_s);

// Post-drain checks on a single-threaded cluster: zero locks and watermarks,
// no dropped messages, and every sampled key reads the same non-nil value at
// every replica.
void CheckQuiescent(walter::Cluster& cluster, const std::vector<walter::ObjectId>& sample,
                    Report& report);

// Commit observer for traced runs. Thread-safe. Keeps the origin-side records
// (for storage/codec replay) and feeds a sampled set of transactions, with
// their apply order at every server, into ConsistencyChecker(kPsi). Sampling
// bounds the checker's quadratic passes; the properties it checks are
// pairwise, so a consistent subset is checked exactly.
class CommitCapture {
 public:
  explicit CommitCapture(size_t num_servers)
      : checker_(num_servers, walter::ConsistencyMode::kPsi) {}

  void Install(walter::Cluster& cluster);
  void OnCommit(walter::SiteId site, const walter::TxRecord& record);

  // Origin commits are kept only while this is set.
  std::atomic<bool> capturing{false};

  // Call once the cluster is single-threaded and drained.
  walter::Status Check() const { return checker_.Check(); }
  size_t checked() const { return checker_.committed_count(); }
  std::vector<walter::TxRecord> TakeRecords() { return std::move(records_); }

 private:
  static constexpr size_t kMaxRecords = 20000;
  static constexpr size_t kMaxChecked = 4000;

  std::mutex mu_;
  walter::ConsistencyChecker checker_;
  std::unordered_set<walter::TxId> sampled_;
  std::vector<walter::TxRecord> records_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
