#include "tuning/trial.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/toolkit.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace tdp::tuning {

engine::EngineConfig MaterializeEngineConfig(const KnobConfig& knobs,
                                             const TrialConfig& trial,
                                             uint64_t seed) {
  engine::EngineConfig cfg;
  if (knobs.engine == engine::EngineKind::kMySQLMini) {
    cfg.mysql = trial.memory_contended
                    ? core::Toolkit::MysqlMemoryContended(knobs.scheduler)
                    : core::Toolkit::MysqlDefault(knobs.scheduler);
    if (knobs.buffer_pool_pages > 0) {
      cfg.mysql.buffer_pool_pages = knobs.buffer_pool_pages;
    }
    cfg.mysql.flush_policy = knobs.flush_policy;
    cfg.mysql.log_group_commit = knobs.group_commit;
    if (knobs.epoch_interval_ns > 0) {
      cfg.mysql.log_async_commit = true;
      cfg.mysql.log_epoch_interval_ns = knobs.epoch_interval_ns;
    }
    if (knobs.table_shards > 0) {
      cfg.mysql.lock.num_shards = knobs.table_shards;
      cfg.mysql.buffer_hash_buckets =
          static_cast<size_t>(knobs.table_shards);
      cfg.mysql.predictor.table_buckets =
          static_cast<size_t>(knobs.table_shards);
    }
    // Conflict-predictor arms: kCPVATS forces the predictor on inside the
    // engine; kConflictAware dispatch needs it explicitly (the service pulls
    // it via Database::conflict_predictor()).
    if (knobs.scheduler == lock::SchedulerPolicy::kCPVATS ||
        trial.dispatch == server::DispatchPolicy::kConflictAware) {
      cfg.mysql.enable_predictor = true;
    }
    if (knobs.sched_half_life_ns > 0) {
      cfg.mysql.predictor.half_life_ns = knobs.sched_half_life_ns;
    }
    if (knobs.sched_threshold > 0) {
      cfg.mysql.predictor.score_threshold = knobs.sched_threshold;
    }
    cfg.mysql.seed = seed;
    if (knobs.num_shards > 1) {
      // Partitioned arm (docs/sharding.md): the mysql knob settings above
      // become the per-shard template, so every other knob still applies —
      // just once per partition.
      cfg.sharded.num_shards = knobs.num_shards;
      cfg.sharded.shard = cfg.mysql;
    }
  } else {
    cfg.pg = core::Toolkit::PgDefault(
        knobs.num_log_sets > 1,
        knobs.wal_block_bytes > 0 ? knobs.wal_block_bytes : 8192);
    if (knobs.num_log_sets > 0) cfg.pg.wal.num_log_sets = knobs.num_log_sets;
    cfg.pg.lock.policy = knobs.scheduler;
    if (knobs.epoch_interval_ns > 0) {
      cfg.pg.wal.async_commit = true;
      cfg.pg.wal.epoch_interval_ns = knobs.epoch_interval_ns;
    }
    if (knobs.table_shards > 0) cfg.pg.lock.num_shards = knobs.table_shards;
    cfg.pg.seed = seed;
  }
  return cfg;
}

TrialRunner::TrialRunner(TrialConfig config) : config_(config) {
  trials_run_ = metrics::Registry::Global().GetCounter("tuning.trials_run");
}

TrialMeasurement TrialRunner::Measure(const KnobConfig& knobs, int replicate) {
  // Paired seeds: replicate i draws the same workload in every arm.
  const uint64_t seed =
      config_.base_seed + 7919 * static_cast<uint64_t>(replicate + 1);

  const metrics::MetricsSnapshot before =
      metrics::Registry::Global().TakeSnapshot();

  const engine::EngineConfig cfg =
      MaterializeEngineConfig(knobs, config_, seed);
  const engine::EngineKind kind = knobs.num_shards > 1
                                      ? engine::EngineKind::kSharded
                                      : knobs.engine;
  auto db = engine::OpenDatabase(kind, cfg);
  if (!db.ok()) {
    // A knob point the factory rejects is a caller error in the space
    // definition, not a measurement — fail loudly.
    std::fprintf(stderr, "tuning: OpenDatabase(%s): %s\n",
                 knobs.Label().c_str(), db.status().ToString().c_str());
    std::abort();
  }

  std::unique_ptr<workload::Workload> wl;
  if (config_.ycsb_zipf) {
    // Small keyspace + skew: the hot set is a handful of rows, so conflict
    // predictions have signal within a short trial.
    workload::YcsbConfig ycsb_cfg;
    ycsb_cfg.rows = 2000;
    ycsb_cfg.zipf_theta = config_.zipf_theta;
    ycsb_cfg.ops_per_txn =
        config_.ycsb_ops_per_txn > 0 ? config_.ycsb_ops_per_txn : 4;
    ycsb_cfg.pct_reads = 20;
    wl = std::make_unique<workload::Ycsb>(ycsb_cfg);
  } else {
    workload::TpccConfig tpcc_cfg = config_.memory_contended
                                        ? core::Toolkit::Tpcc2WH()
                                        : core::Toolkit::TpccContended();
    wl = std::make_unique<workload::Tpcc>(tpcc_cfg);
  }
  wl->Load(db.value().get());

  workload::DriverConfig driver;
  driver.tps = config_.tps;
  driver.num_txns = config_.num_txns;
  driver.warmup_txns = config_.warmup_txns;
  driver.seed = seed;
  driver.arrival = config_.arrival;
  // The service defaults run one attempt per dispatch, so retryable aborts
  // requeue and the dispatch policy acts on them (the service-layer
  // measurement posture).
  driver.service = server::ServiceConfig{};
  driver.service.workers = knobs.workers;
  driver.service.max_queue_depth = config_.max_queue_depth;
  driver.service.policy = config_.dispatch;
  // Epoch-commit arms acknowledge at commit-ack time so the scored
  // server.latency_ns includes epoch parking (the tuner must see the wait
  // it is trading throughput against).
  driver.service.async_ack = knobs.epoch_interval_ns > 0;
  const workload::RunResult run = workload::Run(db.value().get(), wl.get(),
                                                driver);

  // Count the trial before the closing snapshot so this replicate's delta
  // carries its own tuning.trials_run increment (the invariant the bench
  // checker audits per arm).
  metrics::Inc(trials_run_);
  const metrics::MetricsSnapshot after =
      metrics::Registry::Global().TakeSnapshot();

  TrialMeasurement out;
  out.delta = metrics::MetricsSnapshot::Delta(before, after);
  // The scored latency distribution is the service's own histogram: queueing
  // plus execution, warmup included (every arm carries the same warmup, so
  // pairing cancels it).
  out.latency = out.delta.histogram("server.latency_ns");
  out.achieved_tps = run.achieved_tps;
  out.committed = run.committed;
  out.shed = run.stats.shed;
  return out;
}

}  // namespace tdp::tuning
