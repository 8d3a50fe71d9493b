// google-benchmark microbenchmarks for the buffer pool: hit path, miss +
// eviction path (single-threaded and threaded on a zero-latency device),
// and the make-young reorder under original vs LLU locking.
#include <benchmark/benchmark.h>

#include "buffer/buffer_pool.h"
#include "common/sim_disk.h"

using namespace tdp;
using namespace tdp::buffer;

namespace {

void BM_FetchHit(benchmark::State& state) {
  BufferPoolConfig cfg;
  cfg.capacity_pages = 1024;
  BufferPool pool(cfg);
  for (uint64_t i = 0; i < 512; ++i) {
    (void)pool.Fetch({0, i});
    pool.Unpin({0, i});
  }
  uint64_t k = 0;
  for (auto _ : state) {
    const PageId id{0, k++ % 512};
    benchmark::DoNotOptimize(pool.Fetch(id));
    pool.Unpin(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FetchHit);

void BM_FetchMissEvict(benchmark::State& state) {
  BufferPoolConfig cfg;
  cfg.capacity_pages = 64;  // every fetch of a new page evicts
  BufferPool pool(cfg);
  uint64_t k = 0;
  for (auto _ : state) {
    const PageId id{0, k++};
    benchmark::DoNotOptimize(pool.Fetch(id));
    pool.Unpin(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FetchMissEvict);

void BM_MakeYoungPath(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  BufferPoolConfig cfg;
  cfg.capacity_pages = 256;
  cfg.lazy_lru = lazy;
  BufferPool pool(cfg);
  for (uint64_t i = 0; i < 256; ++i) {
    (void)pool.Fetch({0, i});
    pool.Unpin({0, i});
  }
  uint64_t k = 0;
  for (auto _ : state) {
    const PageId id{0, k++ % 256};
    benchmark::DoNotOptimize(pool.Fetch(id));
    pool.Unpin(id);
  }
  state.SetLabel(lazy ? "LLU" : "mutex");
}
BENCHMARK(BM_MakeYoungPath)->Arg(0)->Arg(1);

void BM_ConcurrentFetchHit(benchmark::State& state) {
  // Hit-path scalability of the page-hash: threads fetch mostly-disjoint
  // resident pages, so the contended state is the table's bucket locks plus
  // the (lazy) LRU backlog. The old per-shard mutex serialized this.
  static BufferPool* pool = [] {
    BufferPoolConfig cfg;
    cfg.capacity_pages = 8192;
    cfg.lazy_lru = true;
    auto* p = new BufferPool(cfg);
    for (uint64_t i = 0; i < 4096; ++i) {
      (void)p->Fetch({0, i});
      p->Unpin({0, i});
    }
    return p;
  }();
  const uint64_t tid = static_cast<uint64_t>(state.thread_index());
  uint64_t k = 0;
  for (auto _ : state) {
    const PageId id{0, (tid * 512 + (k++ % 512)) % 4096};
    benchmark::DoNotOptimize(pool->Fetch(id));
    pool->Unpin(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentFetchHit)->Threads(1)->Threads(8);

void BM_ConcurrentMissEvict(benchmark::State& state) {
  // The perfbench ycsb_cpu regime for the miss path: three threads on a
  // 512-page pool over a zero-latency device, each scanning its own pages
  // so every fetch misses, evicts and reads through SimDisk. Every fourth
  // page is dirtied, so evictions also write back. What it measures is the
  // software cost of a miss: LRU critical sections, the page hash and the
  // device's admission.
  static SimDisk* disk = [] {
    SimDiskConfig zero;
    zero.base_latency_ns = 0;
    zero.sigma = 0;
    zero.flush_barrier_ns = 0;
    zero.bytes_per_us = 1e9;
    zero.max_concurrency = 8;
    return new SimDisk(zero);
  }();
  static BufferPool* pool = [] {
    BufferPoolConfig cfg;
    cfg.capacity_pages = 512;
    cfg.disk = disk;
    return new BufferPool(cfg);
  }();
  const uint64_t tid = static_cast<uint64_t>(state.thread_index());
  uint64_t k = 0;
  for (auto _ : state) {
    const PageId id{static_cast<uint32_t>(tid), k++ % 4096};
    benchmark::DoNotOptimize(pool->Fetch(id));
    if (k % 4 == 0) pool->MarkDirty(id);
    pool->Unpin(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentMissEvict)->Threads(3)->UseRealTime();

}  // namespace
