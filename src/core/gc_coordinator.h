// GcCoordinator: autonomous stability-frontier garbage collection and
// checkpointing for a simulated Walter cluster.
//
// The stability frontier is the entry-wise minimum, over every site of the
// current configuration, of each site's stability floor:
//
//   floor(s) = min(CommittedVTS(s), DurableApplied(s))  MergeMin  MinPin(s)
//
// (a) the committed/durably-applied part is rollback-proof across crashes —
// a restored server replays its durable WAL, so it never retreats below what
// the coordinator already used; (b) the snapshot-pin part keeps every live
// transaction's startVTS above the frontier, so no read can ever need a folded
// version. The pointwise min of causally-closed snapshots is causally closed,
// which makes folding histories at the frontier invisible to PSI.
//
// The coordinator is an oracle: it reads server state directly on a jittered
// timer (its OWN Rng, never the simulator's — adding GC must not perturb a
// seeded run's message timings, which keeps every benchmark byte-identical
// with GC on or off) and drives every live server's GC in the same simulator
// event. Synchronized folding means all sites share one frontier, so remote
// reads never straddle two frontiers.
//
// Stalling is safe and visible: a crashed-but-in-config site freezes the
// frontier at its last known floor (reason kDeadSite); a long-running snapshot
// holds it via its pin (kSnapshotPin); otherwise replication/flush lag
// (kLaggingSite). A §5.7-removed site (membership probe false) drops out of
// the frontier entirely, so GC resumes without it — but its last known
// durable-applied watermark still gates WAL truncation, because reintegration
// gap-fills from the survivors' logs.
#ifndef SRC_CORE_GC_COORDINATOR_H_
#define SRC_CORE_GC_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"

namespace walter {

class Cluster;

struct GcOptions {
  bool enabled = true;
  // Frontier recomputation cadence (jittered per tick).
  SimDuration interval = Millis(250);
  // Retention-aware checkpoint + WAL truncation cadence.
  SimDuration checkpoint_every = Seconds(5);
};

enum class GcStallReason : uint8_t {
  kNone = 0,      // frontier is caught up — nothing to collect (idle)
  kDeadSite,      // a crashed in-config site froze the frontier
  kSnapshotPin,   // a live transaction's snapshot pin holds it back
  kLaggingSite,   // replication/flush lag: a site's floor trails the rest
};

const char* GcStallReasonName(GcStallReason reason);

class GcCoordinator {
 public:
  GcCoordinator(Cluster* cluster, GcOptions options, uint64_t seed);

  // Schedules the first tick (call once, after the cluster is fully built).
  void Start();

  // One frontier recomputation; public so tests can drive it deterministically.
  void Tick();

  // In-config probe for §5.7 membership: false drops the site from the
  // frontier (GC resumes without it). Defaults to "every site is in-config".
  void SetMembershipProbe(std::function<bool(SiteId)> probe) { probe_ = std::move(probe); }

  const VectorTimestamp& last_frontier() const { return frontier_; }
  uint64_t runs() const { return runs_; }
  uint64_t stalls() const { return stalls_; }
  uint64_t checkpoints() const { return checkpoints_; }
  GcStallReason last_stall_reason() const { return last_stall_reason_; }
  SiteId last_stall_site() const { return last_stall_site_; }

  // "gc.*" gauges: frontier entries, stall state, run counters.
  void ExportMetrics(MetricsRegistry& metrics) const;

 private:
  void Schedule();
  // Refreshes the per-site floor/durable caches from live servers.
  void RefreshCaches();

  Cluster* cluster_;
  GcOptions options_;
  Rng rng_;  // private stream: jitter must not consume the simulation's Rng

  // Last known state per site, frozen while the site is crashed. Floors and
  // durable watermarks are monotone, so max-merge keeps them honest — except
  // at a removed site's own index, where §5.7 reuses seqnos (see Tick).
  std::vector<VectorTimestamp> last_floor_;
  std::vector<VectorTimestamp> last_durable_;
  std::vector<bool> in_config_;  // last probe verdict, for transition detection

  VectorTimestamp frontier_;
  uint64_t runs_ = 0;
  uint64_t stalls_ = 0;
  uint64_t checkpoints_ = 0;
  GcStallReason last_stall_reason_ = GcStallReason::kNone;
  SiteId last_stall_site_ = kNoSite;
  SimTime last_checkpoint_ = 0;
  std::function<bool(SiteId)> probe_;
  bool started_ = false;
};

}  // namespace walter

#endif  // SRC_CORE_GC_COORDINATOR_H_
