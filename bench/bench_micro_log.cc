// google-benchmark microbenchmarks for the log codec: framing a commit
// record into a chunked log image (the append every commit pays under the
// log mutex) and decoding an image back into transactions (recovery and
// crash-image replay). The argument is row ops per commit: 0 is the
// payload-free frame perfbench's ycsb_cpu logs, 1 and 4 carry 10-column
// after-images.
#include <benchmark/benchmark.h>

#include <vector>

#include "log/log_codec.h"
#include "log/log_image.h"

using namespace tdp;
using namespace tdp::log;

namespace {

std::vector<RedoOp> Ops(int64_t n) {
  std::vector<RedoOp> ops(static_cast<size_t>(n));
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].table = 1;
    ops[i].key = 1000 + i;
    ops[i].after.cols.assign(10, static_cast<int64_t>(i));
  }
  return ops;
}

void BM_AppendLogFrame(benchmark::State& state) {
  const std::vector<RedoOp> ops = Ops(state.range(0));
  LogImage image;
  uint64_t lsn = 0;
  for (auto _ : state) {
    ++lsn;
    AppendLogFrame(lsn, lsn, ops, &image);
    benchmark::DoNotOptimize(&image);
    benchmark::ClobberMemory();
    // Bound memory: start over every 16 MiB (freeing the chunks, as a
    // fresh log would allocate them).
    if (image.size() > (size_t{16} << 20)) image.Truncate(0);
  }
  std::vector<uint8_t> one;
  AppendLogFrame(1, 1, ops, &one);
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(one.size()));
}
BENCHMARK(BM_AppendLogFrame)->Arg(0)->Arg(1)->Arg(4);

void BM_DecodeLogImage(benchmark::State& state) {
  constexpr uint64_t kFrames = 4096;
  const std::vector<RedoOp> ops = Ops(state.range(0));
  std::vector<uint8_t> image;
  for (uint64_t lsn = 1; lsn <= kFrames; ++lsn) {
    AppendLogFrame(lsn, lsn, ops, &image);
  }
  std::vector<RecoveredTxn> out;
  out.reserve(kFrames);
  for (auto _ : state) {
    out.clear();
    const LogDecodeResult r = DecodeLogImage(image, &out);
    benchmark::DoNotOptimize(r.frames);
  }
  state.SetItemsProcessed(state.iterations() * kFrames);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_DecodeLogImage)->Arg(0)->Arg(1)->Arg(4);

}  // namespace
