// google-benchmark microbenchmark for the service's admission queue: one
// push and one pop at a steady backlog, the queue work every transaction a
// workload::Run submits pays under the service mutex. Arguments: dispatch
// policy (0 = FIFO, 1 = eldest-first) and backlog depth (1, 64, 4096).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "server/admission_queue.h"

using namespace tdp;
using namespace tdp::server;

namespace {

void BM_AdmissionQueuePushPop(benchmark::State& state) {
  const DispatchPolicy policy = state.range(0) == 0
                                    ? DispatchPolicy::kFifo
                                    : DispatchPolicy::kEldestFirst;
  const int64_t depth = state.range(1);
  // The service queues owning pointers to its requests; so does this.
  AdmissionQueue<std::unique_ptr<int>> q(policy, static_cast<size_t>(depth));
  int64_t now = 0;
  for (int64_t i = 1; i < depth; ++i) q.Push(std::make_unique<int>(0), ++now);
  std::unique_ptr<int> item = std::make_unique<int>(0);
  AdmissionQueue<std::unique_ptr<int>>::Entry e;
  for (auto _ : state) {
    q.Push(std::move(item), ++now);
    q.Pop(&e);
    item = std::move(e.item);
    benchmark::DoNotOptimize(item.get());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(DispatchPolicyName(policy));
}
BENCHMARK(BM_AdmissionQueuePushPop)
    ->ArgsProduct({{0, 1}, {1, 64, 4096}});

}  // namespace
