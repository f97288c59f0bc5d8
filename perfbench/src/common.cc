#include "perfbench/src/common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double p) {
  if (values_.empty()) {
    return 0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values_.size())));
  return values_[std::clamp<size_t>(rank, 1, values_.size()) - 1];
}

double Samples::Max() { return Percentile(100); }

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& kind, size_t samples) {
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0, unit, kind, samples, true});
}

void Report::AddPercentiles(const std::string& prefix, Samples& rec,
                            const std::string& unit, const std::string& kind, double scale) {
  double p50 = rec.empty() ? 0 : rec.Percentile(50) * scale;
  double p99 = rec.empty() ? 0 : rec.Percentile(99) * scale;
  Add(prefix + "_p50_" + unit, p50, unit, kind, rec.count());
  Add(prefix + "_p99_" + unit, p99, unit, kind, rec.count());
}

void Report::NotApplicable(const std::string& name, const std::string& unit) {
  metrics_.push_back(Metric{name, 0, unit, "n/a", 0, false});
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n", why.c_str());
  failures_.push_back(why);
}

void Report::PrintTable(const std::string& title) const {
  std::printf("== %s ==\n", title.c_str());
  std::printf("%-36s %16s  %-6s %-6s %s\n", "metric", "value", "unit", "kind", "samples");
  for (const Metric& m : metrics_) {
    if (!m.applies) {
      std::printf("%-36s %16s  %-6s %-6s\n", m.name.c_str(), "n/a", m.unit.c_str(), "-");
      continue;
    }
    std::string samples = m.samples > 0 ? std::to_string(m.samples) : "";
    std::printf("%-36s %16.4f  %-6s %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.kind.c_str(), samples.c_str());
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), ok() ? "true" : "false");
}

void Report::PrintResult() const {
  std::string out = "RESULT {\"correct\": ";
  out += ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  if (ok()) {
    for (const Metric& m : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      out += first ? "" : ", ";
      first = false;
      out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
             "\", \"kind\": \"" + m.kind + "\", \"samples\": " + std::to_string(m.samples) +
             ", \"applies\": " + (m.applies ? "true" : "false") + "}";
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double WallUs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1000.0;
}

double ProcessCpuSeconds() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::string ValueFor(uint64_t tag, size_t bytes) {
  std::string v(bytes, 'a');
  for (size_t i = 0; i < 16 && i < bytes; ++i) {
    v[i] = static_cast<char>('a' + (tag >> (i * 4)) % 16);
  }
  return v;
}

}  // namespace perfbench
