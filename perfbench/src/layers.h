// Storage and codec layer costs, measured by replaying the traced run's
// captured TxRecords through public calls (Store::Apply / ReadRegular /
// GarbageCollect, TxRecord and PropagateBatch Serialize/Deserialize), outside
// any timed window of the workload itself.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <vector>

#include "perfbench/src/common.h"
#include "src/common/types.h"
#include "src/common/update.h"

namespace perfbench {

struct ReplayInputs {
  std::vector<walter::TxRecord> records;    // captured at their origin, in commit order
  std::vector<walter::ObjectId> read_keys;  // the workload's read-key draw
  walter::VectorTimestamp frontier;         // frontier the run reached
  double mean_batch_records = 1;            // propagation records per batch in the run
};

// Adds storage.apply_us_per_record, storage.read_us, storage.gc_fold_us and the
// four codec.* metrics to the report.
void ReplayStorageAndCodec(const ReplayInputs& in, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
