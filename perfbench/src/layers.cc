#include "perfbench/src/layers.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/bytes.h"
#include "src/core/messages.h"
#include "src/storage/store.h"

namespace perfbench {

using walter::ByteReader;
using walter::ByteWriter;
using walter::PropagateBatch;
using walter::Store;
using walter::TxRecord;

namespace {

// Each probe runs this many times; the median pass is reported.
constexpr int kPasses = 3;

// Keeps the read and decode loops from being optimized away.
volatile uint64_t g_sink = 0;

template <typename Fn>
double MedianPassUs(Fn fn) {
  std::vector<double> passes;
  for (int i = 0; i < kPasses; ++i) {
    double t0 = WallUs();
    fn();
    passes.push_back(WallUs() - t0);
  }
  return Median(passes);
}

}  // namespace

void ReplayStorageAndCodec(const ReplayInputs& in, Report& report) {
  const std::vector<TxRecord>& records = in.records;
  double n = static_cast<double>(std::max<size_t>(records.size(), 1));

  // Store::Apply into a fresh store per pass (WAL append + history insert).
  double apply_us = MedianPassUs([&] {
    Store store;
    for (const TxRecord& r : records) {
      store.Apply(r);
    }
  });
  report.Add("storage.apply_us_per_record", apply_us / n, "us", "wall", records.size());

  Store store;
  walter::VectorTimestamp latest = in.frontier;
  for (const TxRecord& r : records) {
    store.Apply(r);
    latest.MergeMax(r.start_vts);
    if (r.version.seqno > latest.at(r.version.site)) {
      latest.set(r.version.site, r.version.seqno);
    }
  }
  size_t hits = 0;
  double read_us = MedianPassUs([&] {
    for (const walter::ObjectId& oid : in.read_keys) {
      hits += store.ReadRegular(oid, latest).has_value() ? 1 : 0;
    }
  });
  double reads = static_cast<double>(std::max<size_t>(in.read_keys.size(), 1));
  report.Add("storage.read_us", read_us / reads, "us", "wall", in.read_keys.size());

  // One fold at the frontier the run reached (a fresh copy per pass, so every
  // pass folds the same histories).
  std::vector<double> folds;
  for (int i = 0; i < kPasses; ++i) {
    Store copy;
    for (const TxRecord& r : records) {
      copy.ApplyToHistories(r);
    }
    double t0 = WallUs();
    copy.GarbageCollect(in.frontier);
    folds.push_back(WallUs() - t0);
  }
  report.Add("storage.gc_fold_us", Median(folds), "us", "wall");

  std::vector<std::string> encoded(records.size());
  double encode_us = MedianPassUs([&] {
    for (size_t i = 0; i < records.size(); ++i) {
      ByteWriter w;
      records[i].Serialize(&w);
      encoded[i] = w.Take();
    }
  });
  uint64_t checksum = 0;
  double decode_us = MedianPassUs([&] {
    for (const std::string& bytes : encoded) {
      ByteReader r(bytes);
      checksum += TxRecord::Deserialize(&r).version.seqno;
    }
  });
  report.Add("codec.record_encode_us", encode_us / n, "us", "wall", records.size());
  report.Add("codec.record_decode_us", decode_us / n, "us", "wall", records.size());

  // PropagateBatch at the run's mean batch size, cut from the captured stream.
  size_t batch_size = std::clamp<size_t>(static_cast<size_t>(std::lround(in.mean_batch_records)),
                                         1, std::max<size_t>(records.size(), 1));
  std::vector<PropagateBatch> batches;
  for (size_t i = 0; i + batch_size <= records.size(); i += batch_size) {
    PropagateBatch b;
    b.origin = records[i].origin;
    b.records.assign(records.begin() + static_cast<ptrdiff_t>(i),
                     records.begin() + static_cast<ptrdiff_t>(i + batch_size));
    batches.push_back(std::move(b));
  }
  std::vector<std::string> wire(batches.size());
  double batch_encode_us = MedianPassUs([&] {
    for (size_t i = 0; i < batches.size(); ++i) {
      wire[i] = batches[i].Serialize();
    }
  });
  double batch_decode_us = MedianPassUs([&] {
    for (const std::string& bytes : wire) {
      checksum += PropagateBatch::Deserialize(bytes).records.size();
    }
  });
  double nb = static_cast<double>(std::max<size_t>(batches.size(), 1));
  report.Add("codec.batch_encode_us", batch_encode_us / nb, "us", "wall", batches.size());
  report.Add("codec.batch_decode_us", batch_decode_us / nb, "us", "wall", batches.size());
  g_sink = checksum + hits;
}

}  // namespace perfbench
