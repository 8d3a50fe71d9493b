// google-benchmark microbenchmarks for the log: framing a commit record into
// a chunked log image (the append every commit pays under the log mutex),
// decoding an image back into transactions (recovery and crash-image
// replay), and the software cost of an eager commit's force. For the codec
// benchmarks the argument is row ops per commit: 0 is the payload-free frame
// perfbench's ycsb_cpu logs, 1 and 4 carry 10-column after-images.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/sim_disk.h"
#include "log/log_codec.h"
#include "log/log_image.h"
#include "log/redo_log.h"

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

// One eager commit of a payload-free record on a zero-latency log device (the
// ycsb_cpu device: base 0, sigma 0, barrier 0), single-threaded. With no
// device sleep the time is the commit path's software: the append, the
// force's SimDisk::Service call (one write-through request per force) and
// the durable-LSN bookkeeping. Arg 0 is per-commit fsync, arg 1 the
// group-commit leader.
void BM_EagerCommitZeroLatencyDisk(benchmark::State& state) {
  SimDiskConfig zero;
  zero.base_latency_ns = 0;
  zero.sigma = 0;
  zero.flush_barrier_ns = 0;
  zero.bytes_per_us = 1e9;
  zero.max_concurrency = 8;
  SimDisk disk(zero);
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  cfg.group_commit = state.range(0) != 0;
  auto log = std::make_unique<RedoLog>(cfg);
  log->Start();
  uint64_t txn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log->Commit(++txn, 64));
    // Bound memory: the log keeps its framed image, so start a fresh one
    // every 2^20 commits, off the clock.
    if ((txn & ((uint64_t{1} << 20) - 1)) == 0) {
      state.PauseTiming();
      log = std::make_unique<RedoLog>(cfg);
      log->Start();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["device_requests_per_commit"] = benchmark::Counter(
      static_cast<double>(disk.stats().writes.load() +
                          disk.stats().flushes.load()) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EagerCommitZeroLatencyDisk)
    ->ArgName("group_commit")
    ->Arg(0)
    ->Arg(1);

}  // namespace
