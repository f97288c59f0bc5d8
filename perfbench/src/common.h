// Shared pieces of the perfbench binary: command-line arguments, the metric
// report, clocks, and small statistics helpers.
//
// Every metric carries a kind: "wall" (real time or CPU of our own code),
// "model" (simulated time from PerfModel/DiskConfig and the RTT matrix) or
// "count" (an exact tally). A metric that does not apply to the running
// workload is still emitted (value 0) but flagged, so every workload prints
// the same metric names.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here (JSONL)
};

// Latency/size samples with nearest-rank percentiles; unlike
// walter::LatencyRecorder it can merge per-thread recorders.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Merge(const Samples& other);
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double p);
  double Max();

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string kind;
  size_t samples = 0;    // sample count behind a percentile (0 = not a percentile)
  bool applies = true;   // false: not defined on this workload, value is 0
};

// Collects metrics and correctness failures of one run, renders the human
// table and the machine-readable RESULT line that run.py consumes.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& kind, size_t samples = 0);
  // Percentile pair <prefix>_p50_<unit> / <prefix>_p99_<unit> from a recorder
  // (values are scaled by `scale`). Empty recorders report 0 with 0 samples.
  void AddPercentiles(const std::string& prefix, Samples& rec,
                      const std::string& unit, const std::string& kind, double scale = 1.0);
  void NotApplicable(const std::string& name, const std::string& unit);
  void Fail(const std::string& why);
  bool ok() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  void PrintTable(const std::string& title) const;
  void PrintResult() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// Real monotonic time in microseconds; WallUs keeps the sub-microsecond part
// for latency samples.
int64_t NowUs();
double WallUs();
// Whole-process CPU seconds (user + system).
double ProcessCpuSeconds();
// CPU seconds of the calling thread.
double ThreadCpuSeconds();
// Peak resident set size of the process, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);

// A `bytes`-long value whose first 16 characters encode `tag`, so replicas of
// different writes compare unequal.
std::string ValueFor(uint64_t tag, size_t bytes);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
