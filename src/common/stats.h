// Measurement utilities used by benchmarks and tests: latency recorders with
// percentile/CDF extraction, simple counters, and table formatting helpers.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace walter {

// Collects latency samples (any unit; benches use microseconds) and reports
// percentiles and CDF points. Storage is exact (one double per sample), which
// is fine at bench scale (hundreds of thousands of samples).
class LatencyRecorder {
 public:
  void Add(double sample) {
    if (samples_.size() == samples_.capacity()) {
      // Start with a bench-sized block so the measurement loop does not pay a
      // ladder of small grow-and-copy steps.
      samples_.reserve(std::max<size_t>(4096, samples_.capacity() * 2));
    }
    samples_.push_back(sample);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Min();
  double Max();
  double Mean() const;

  // p in [0, 100]. Nearest-rank percentile.
  double Percentile(double p);
  double Median() { return Percentile(50); }

  // Returns (latency, cumulative fraction) pairs suitable for plotting a CDF,
  // downsampled to at most `points` entries.
  std::vector<std::pair<double, double>> Cdf(size_t points = 100);

  // All the summary statistics, extracted from one sort pass.
  struct SummaryStats {
    size_t n = 0;
    double min = 0, mean = 0, p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0;
  };
  SummaryStats Stats();

  // Prints "p50=.. p90=.. p99=.. p99.9=.. max=.." with the given unit suffix.
  // Sorts (at most) once regardless of how many percentiles it reports.
  std::string Summary(const std::string& unit = "us");

  void Clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  void Sort();
  // Percentile lookup that assumes Sort() already ran (no per-call check).
  double PercentileSorted(double p) const;

  std::vector<double> samples_;
  bool sorted_ = false;
};

// Fixed-width text table printer: benches use it to emit paper-style tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Renders the table with aligned columns and a header separator.
  std::string Render() const;

  static std::string Fmt(double v, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace walter

#endif  // SRC_COMMON_STATS_H_
