#include "core/toolkit.h"

namespace tdp::core {

engine::MySQLMiniConfig Toolkit::MysqlDefault(lock::SchedulerPolicy policy) {
  engine::MySQLMiniConfig cfg;
  cfg.lock.policy = policy;
  cfg.lock.wait_timeout_ns = MillisToNanos(4000);
  cfg.buffer_pool_pages = 16384;  // working set fully cached
  cfg.flush_policy = log::FlushPolicy::kEagerFlush;
  // Small CPU footprint per row: the reference machine is a single core, so
  // per-transaction CPU must stay well below 1/tps or runnable-thread pileup
  // inflates every hold time (a death spiral unrelated to lock scheduling).
  cfg.row_work_ns = 400;
  cfg.btree.level_work_ns = 120;
  cfg.btree.insert_work_ns = 250;
  // Commit-path redo flush dominates lock hold times (as in real InnoDB
  // with a disk-backed log): hot-row locks are held across a heavy-tailed
  // ~1.5 ms fsync, so contended rows run at ~50% utilization and queue into
  // convoys when a flush stalls — the regime where scheduling matters.
  // The device has NVMe-like internal parallelism and each committer issues
  // its own fsync, so commits of *different* transactions do not serialize
  // and the single-core driver stays far from saturation.
  cfg.log_disk.base_latency_ns = 900000;
  cfg.log_disk.sigma = 0.9;
  cfg.log_disk.max_jitter = 6.0;  // bounded tail: see SimDiskConfig
  cfg.log_disk.flush_barrier_ns = 100000;
  cfg.log_disk.max_concurrency = 32;
  cfg.log_group_commit = false;
  // Data pages are fully cached at this pool size, but give the data device
  // SSD-like parallelism anyway so miss storms in derived configs don't
  // serialize.
  cfg.data_disk.max_concurrency = 8;
  return cfg;
}

engine::MySQLMiniConfig Toolkit::MysqlMemoryContended(
    lock::SchedulerPolicy policy) {
  engine::MySQLMiniConfig cfg = MysqlDefault(policy);
  // A pool far smaller than the 2-WH working set (~200 data pages): every
  // few accesses miss, and hits in the old sublist trigger make-young storms.
  // A pool slightly below the 2-WH working set (~220 data pages): most
  // accesses still hit, but they frequently hit *old-sublist* pages, so the
  // LRU lock is hammered by make-young reorders — the paper's 2-WH regime.
  cfg.buffer_pool_pages = 224;
  // Fast SSD-like data disk: the run should be bound by LRU-mutex
  // contention (what LLU fixes), not by raw read latency.
  cfg.data_disk.base_latency_ns = 10000;
  cfg.data_disk.sigma = 0.2;
  cfg.data_disk.max_concurrency = 8;
  // Quiet the commit path so buffer-pool effects dominate the profile
  // (the paper's 2-WH table: buf_pool_mutex_enter 32.9%, fil_flush 5%).
  cfg.log_disk.base_latency_ns = 120000;
  cfg.log_disk.sigma = 0.4;
  cfg.log_disk.flush_barrier_ns = 60000;
  // The buf_pool mutex hold covers real bookkeeping (free/flush list
  // maintenance); at laptop op rates this is what makes the LRU lock a
  // contention point, as on the paper's testbed.
  cfg.lru_critical_work_ns = 100000;
  return cfg;
}

pg::PgMiniConfig Toolkit::PgDefault(bool parallel_logging,
                                    uint64_t wal_block_bytes) {
  pg::PgMiniConfig cfg;
  cfg.lock.policy = lock::SchedulerPolicy::kFCFS;  // Postgres default
  cfg.lock.wait_timeout_ns = MillisToNanos(2000);
  cfg.wal.parallel_logging = parallel_logging;
  cfg.wal.block_bytes = wal_block_bytes;
  // A slow-ish, heavy-tailed WAL device: at ~500 write-txns/s, the single
  // WALWriteLock runs at ~50% utilization, so waiting for it — not the
  // flush itself — dominates latency variance (Table 2's 76.8%).
  cfg.wal.disk.base_latency_ns = 300000;
  cfg.wal.disk.sigma = 0.8;
  cfg.wal.disk.max_jitter = 6.0;
  cfg.wal.disk.flush_barrier_ns = 150000;
  cfg.row_work_ns = 400;
  cfg.btree.level_work_ns = 120;
  return cfg;
}

volt::VoltMiniConfig Toolkit::VoltDefault(int num_workers) {
  volt::VoltMiniConfig cfg;
  cfg.num_workers = num_workers;
  cfg.num_partitions = 8;
  return cfg;
}

workload::TpccConfig Toolkit::TpccContended() {
  workload::TpccConfig cfg;
  // One warehouse concentrates Payment on a single hot row and New-Order on
  // ten district rows — the contended regime of the paper's TPC-C runs.
  cfg.warehouses = 1;
  return cfg;
}

workload::TpccConfig Toolkit::Tpcc2WH() {
  workload::TpccConfig cfg;
  cfg.warehouses = 2;
  // Wider footprint than the contended config: stock/customer accesses
  // spread over ~2.5x the memory-contended pool, so a steady fraction of
  // hits land in the old sublist and trigger make-young reorders.
  cfg.stock_per_wh = 8000;
  cfg.items = 8000;
  cfg.customers_per_district = 1000;
  return cfg;
}

workload::DriverConfig Toolkit::DriverDefault() {
  workload::DriverConfig cfg;
  // Comfortably below the W=1 capacity knee on the single-core reference
  // machine: hot-row queues form and clear (waits on ~half the contended
  // transactions) without tipping into dispatch backlog, where episode luck
  // would swamp the scheduler comparison.
  cfg.tps = 520;
  // A deep worker pool keeps queueing inside the lock manager (where
  // the scheduling policy acts) instead of in the admission queue.
  cfg.service.workers = 512;
  cfg.num_txns = 8000;
  cfg.warmup_txns = 800;
  return cfg;
}

}  // namespace tdp::core
