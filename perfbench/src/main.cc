// perfbench: end-to-end and per-layer benchmark of the Walter implementation.
//
//   perfbench --workload <read_mostly|write_replicate|geo_sim> --seed N
//             --seconds S --trace <0|1> [--spans PATH]
//
// Prints a table of every metric (name, value, unit, kind, sample count) and,
// as its last line, "RESULT {json}" with the correctness verdict and all
// metrics. --trace 0 measures the end-to-end metrics untraced; --trace 1 adds
// a traced window (or repetition) that produces the per-layer metrics and
// writes its spans to --spans. perfbench/run.py builds and runs this binary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  perfbench::Report report;
  if (args.workload == "read_mostly") {
    perfbench::RunReadMostly(args, report);
  } else if (args.workload == "write_replicate") {
    perfbench::RunWriteReplicate(args, report);
  } else if (args.workload == "geo_sim") {
    perfbench::RunGeoSim(args, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d hardware_cores=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency());
  report.PrintTable(args.workload + (args.trace ? " (traced run)" : " (untraced run)"));
  report.PrintResult();
  return report.ok() ? 0 : 1;
}
