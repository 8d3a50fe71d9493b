// google-benchmark microbenchmarks for two per-commit costs of the sharded,
// replicated commit path:
//   * BM_ShardMaskOf: the service's shard classification of a declared
//     footprint (TransactionService::Submit) — footprints of 1, 2 and 8
//     keys over 4 shards, with every key unpinned (hash only) or pinned
//     (each lookup hits the pin table).
//   * BM_ParkedAcksParkTake: one batch of 64 durability acks parked and
//     taken, as RedoLog's epoch and QuorumLog park them — marks arriving in
//     order, or out of order (neighbours swapped, as when QuorumLog parks
//     after the leader's mutex is released).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/durable_acks.h"
#include "common/random.h"
#include "engine/shard_router.h"
#include "sched/conflict_predictor.h"

using namespace tdp;

namespace {

void BM_ShardMaskOf(benchmark::State& state) {
  const int64_t keys = state.range(0);
  const bool pinned = state.range(1) != 0;
  engine::ShardRouter router(4);
  Rng rng(static_cast<uint64_t>(keys) * 31 + 7);
  std::vector<uint64_t> footprint;
  for (int64_t i = 0; i < keys; ++i) {
    const uint64_t key = rng.Uniform(1 << 20);
    footprint.push_back(sched::ConflictPredictor::Fingerprint(0, key));
    if (pinned) router.Pin(0, key, static_cast<uint32_t>(i % 4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.ShardMaskOf(footprint));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(pinned ? "pinned" : "hashed");
}
BENCHMARK(BM_ShardMaskOf)->ArgsProduct({{1, 2, 8}, {0, 1}});

void BM_ParkedAcksParkTake(benchmark::State& state) {
  constexpr uint64_t kBatch = 64;
  const bool out_of_order = state.range(0) != 0;
  std::vector<uint64_t> marks;
  for (uint64_t i = 1; i <= kBatch; ++i) marks.push_back(i);
  if (out_of_order) {
    for (size_t i = 0; i + 1 < marks.size(); i += 2) {
      std::swap(marks[i], marks[i + 1]);
    }
  }
  ParkedAcks parked;
  uint64_t fired = 0;
  uint64_t base = 0;
  for (auto _ : state) {
    for (uint64_t m : marks) {
      parked.Park(base + m, [&fired](const Status&) { ++fired; });
    }
    base += kBatch;
    std::vector<AckFn> taken = parked.TakeUpTo(base);
    benchmark::DoNotOptimize(taken.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
  state.SetLabel(out_of_order ? "out-of-order" : "in-order");
}
BENCHMARK(BM_ParkedAcksParkTake)->Arg(0)->Arg(1);

}  // namespace
