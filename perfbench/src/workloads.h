// The three benchmark workloads. Each fills the report with every end-to-end
// metric (untraced), and in traced runs with every per-layer metric, marking
// the ones that do not apply to it; each also runs its correctness checks.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "perfbench/src/common.h"

namespace perfbench {

void RunReadMostly(const Args& args, Report& report);
void RunWriteReplicate(const Args& args, Report& report);
void RunGeoSim(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
