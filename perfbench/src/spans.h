// Per-layer spans for the traced run, built from outside the program: the
// benchmark's own client chains record client-call spans around Tx calls, and
// a TraceListener subscribed to the tracer's existing events pairs server
// events into stage spans. Every span carries the transaction id, so all
// spans of one transaction share an identifier. Spans stay in memory and are
// written out as JSONL when the run ends.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/common.h"
#include "src/obs/trace.h"

namespace perfbench {

enum class Stage : uint8_t {
  kClientRead = 0,   // Tx::Read call -> its callback (benchmark side)
  kClientCommit,     // Tx::Commit call -> its callback (benchmark side)
  kServerQueue,      // kServerRecv -> kCommitStart (same server, same tid)
  kCommitFlush,      // kCommitStart -> kCommitLocal
  kLockHold,         // kLockAcquire -> kLockRelease
  kPrepare,          // first kPrepareSend -> kDecisionSend (coordinator)
  kPropagate,        // origin kCommitAck -> peer kRemoteCommit
  kVisible,          // kCommitAck -> kVisible (origin)
  kCount,
};

const char* StageName(Stage stage);

struct Span {
  walter::TxId tid = 0;
  walter::SimTime start = 0;
  walter::SimTime end = 0;
  uint8_t site = 0xff;
  Stage stage = Stage::kCount;
};

// Collects spans from the tracer of the thread it is installed on. One
// listener per thread: the tracer is thread-local, so in wall mode each worker
// gets its own listener and no listener is touched by two threads.
class SpanListener : public walter::TraceListener {
 public:
  void OnTrace(const walter::TraceEvent& e) override;

  std::vector<Span> spans;
  // Origin acks and peer remote commits happen on different threads in wall
  // mode, so they are kept raw and paired by MergeSpans.
  std::vector<walter::TraceEvent> acks;
  std::vector<walter::TraceEvent> remote_commits;
  uint64_t events = 0;

 private:
  struct Key {
    uint8_t site;
    walter::TxId tid;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const { return std::hash<uint64_t>()(k.tid * 131 + k.site); }
  };
  using OpenMap = std::unordered_map<Key, walter::SimTime, KeyHash>;

  void Close(OpenMap& open, const walter::TraceEvent& e, Stage stage);
  void Prune(walter::SimTime now);

  OpenMap recv_, commit_start_, lock_, prepare_, ack_;
};

// All spans of a traced run, merged across threads, with per-stage recorders.
struct SpanSet {
  std::vector<Span> spans;
  Samples by_stage[static_cast<size_t>(Stage::kCount)];
  uint64_t events = 0;

  Samples& Of(Stage s) { return by_stage[static_cast<size_t>(s)]; }
};

// Merges listeners and client-side spans; pairs acks with remote commits.
SpanSet MergeSpans(std::vector<SpanListener*> listeners, std::vector<Span> client_spans);

// Adds stage.<name>_p50_us / _p99_us for the server-side stages, and
// stage.unattributed_us: the part of the commit latency median that the
// server_queue and commit_flush medians do not cover. `kind` is the clock the
// spans were timed in ("wall" or "model").
void AddStageMetrics(SpanSet& set, Samples& commit_us, const std::string& kind, Report& report);

// Prints the per-layer table: every stage's p50/p99/count plus the
// unattributed row.
void PrintStageTable(SpanSet& set, Samples& commit_us, const std::string& kind);

// Writes spans as JSONL (one span per line). Returns false on I/O error.
bool WriteSpans(const SpanSet& set, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
