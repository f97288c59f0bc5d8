#include "perfbench/src/spans.h"

#include <cstdio>

namespace perfbench {

using walter::SimTime;
using walter::TraceEvent;
using walter::TraceKind;

namespace {
// Open-span maps are swept of entries older than this every kPruneEvery events
// (read-only transactions open a kServerRecv entry that no commit closes).
constexpr SimTime kPruneAge = 5'000'000;
constexpr uint64_t kPruneEvery = 1 << 16;
// Spans kept for the JSONL file; the per-stage recorders see every span.
constexpr size_t kMaxWrittenSpans = 1 << 18;
}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kClientRead:
      return "client.read_call";
    case Stage::kClientCommit:
      return "client.commit_call";
    case Stage::kServerQueue:
      return "stage.server_queue";
    case Stage::kCommitFlush:
      return "stage.commit_flush";
    case Stage::kLockHold:
      return "stage.lock_hold";
    case Stage::kPrepare:
      return "stage.prepare";
    case Stage::kPropagate:
      return "stage.propagate";
    case Stage::kVisible:
      return "stage.visible";
    case Stage::kCount:
      break;
  }
  return "?";
}

void SpanListener::Close(OpenMap& open, const TraceEvent& e, Stage stage) {
  auto it = open.find(Key{e.site, e.tid});
  if (it == open.end()) {
    return;
  }
  spans.push_back(Span{e.tid, it->second, e.time, e.site, stage});
  open.erase(it);
}

void SpanListener::Prune(SimTime now) {
  for (OpenMap* open : {&recv_, &commit_start_, &lock_, &prepare_, &ack_}) {
    std::erase_if(*open, [now](const auto& kv) { return kv.second < now - kPruneAge; });
  }
}

void SpanListener::OnTrace(const TraceEvent& e) {
  if (++events % kPruneEvery == 0) {
    Prune(e.time);
  }
  Key key{e.site, e.tid};
  switch (e.kind) {
    case TraceKind::kServerRecv:
      recv_[key] = e.time;
      break;
    case TraceKind::kCommitStart:
      Close(recv_, e, Stage::kServerQueue);
      commit_start_[key] = e.time;
      break;
    case TraceKind::kCommitLocal:
      Close(commit_start_, e, Stage::kCommitFlush);
      break;
    case TraceKind::kLockAcquire:
      lock_[key] = e.time;
      break;
    case TraceKind::kLockRelease:
      Close(lock_, e, Stage::kLockHold);
      break;
    case TraceKind::kPrepareSend:
      prepare_.try_emplace(key, e.time);
      break;
    case TraceKind::kDecisionSend:
      Close(prepare_, e, Stage::kPrepare);
      break;
    case TraceKind::kTxAbort:
      prepare_.erase(key);
      commit_start_.erase(key);
      break;
    case TraceKind::kCommitAck:
      ack_[key] = e.time;
      acks.push_back(e);
      break;
    case TraceKind::kVisible:
      Close(ack_, e, Stage::kVisible);
      break;
    case TraceKind::kRemoteCommit:
      remote_commits.push_back(e);
      break;
    default:
      break;
  }
}

SpanSet MergeSpans(std::vector<SpanListener*> listeners, std::vector<Span> client_spans) {
  SpanSet set;
  set.spans = std::move(client_spans);
  std::unordered_map<walter::TxId, SimTime> ack_time;
  for (SpanListener* l : listeners) {
    set.events += l->events;
    set.spans.insert(set.spans.end(), l->spans.begin(), l->spans.end());
    for (const TraceEvent& e : l->acks) {
      ack_time.emplace(e.tid, e.time);
    }
  }
  for (SpanListener* l : listeners) {
    for (const TraceEvent& e : l->remote_commits) {
      auto it = ack_time.find(e.tid);
      if (it != ack_time.end()) {
        set.spans.push_back(Span{e.tid, it->second, e.time, e.site, Stage::kPropagate});
      }
    }
  }
  for (const Span& s : set.spans) {
    set.Of(s.stage).Add(static_cast<double>(s.end - s.start));
  }
  if (set.spans.size() > kMaxWrittenSpans) {
    set.spans.resize(kMaxWrittenSpans);
  }
  return set;
}

namespace {
constexpr Stage kServerStages[] = {Stage::kServerQueue, Stage::kCommitFlush, Stage::kLockHold,
                                   Stage::kPrepare,     Stage::kPropagate,   Stage::kVisible};

double Unattributed(SpanSet& set, Samples& commit_us) {
  return commit_us.Percentile(50) - set.Of(Stage::kServerQueue).Percentile(50) -
         set.Of(Stage::kCommitFlush).Percentile(50);
}
}  // namespace

void AddStageMetrics(SpanSet& set, Samples& commit_us, const std::string& kind, Report& report) {
  for (Stage s : kServerStages) {
    report.AddPercentiles(StageName(s), set.Of(s), "us", kind);
  }
  report.Add("stage.unattributed_us", Unattributed(set, commit_us), "us", kind, commit_us.count());
}

void PrintStageTable(SpanSet& set, Samples& commit_us, const std::string& kind) {
  std::printf("== per-layer spans (%s us; %llu trace events) ==\n", kind.c_str(),
              static_cast<unsigned long long>(set.events));
  std::printf("%-22s %14s %14s %10s\n", "layer", "p50", "p99", "spans");
  std::printf("%-22s %14.1f %14.1f %10zu\n", "commit (end to end)", commit_us.Percentile(50),
              commit_us.Percentile(99), commit_us.count());
  for (size_t i = 0; i < static_cast<size_t>(Stage::kCount); ++i) {
    Samples& s = set.by_stage[i];
    std::printf("%-22s %14.1f %14.1f %10zu\n", StageName(static_cast<Stage>(i)), s.Percentile(50),
                s.Percentile(99), s.count());
  }
  std::printf("%-22s %14.1f %14s %10s\n", "unattributed", Unattributed(set, commit_us), "", "");
}

bool WriteSpans(const SpanSet& set, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : set.spans) {
    std::fprintf(f,
                 "{\"tid\":%llu,\"span\":\"%s\",\"site\":%u,\"start_us\":%lld,"
                 "\"end_us\":%lld}\n",
                 static_cast<unsigned long long>(s.tid), StageName(s.stage),
                 static_cast<unsigned>(s.site), static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
