// Group-commit study: blocking eager group commit vs epoch-based async
// commit with service-level async acknowledgement (docs/group_commit.md).
//
// The workload is log-bound on purpose: a slow log device makes the commit
// flush the dominant cost, so the two protocols separate cleanly.
//
//   1. blocking — kEagerFlush + classic group commit. A worker thread is
//      parked inside Commit() for the whole leader flush, so the worker
//      pool drains at the log device's rate.
//   2. async    — the same engine with log_async_commit: workers hand the
//      request's DoneFn to the epoch at append time and move on; one epoch
//      flush covers the whole parked batch and fires the acks. Throughput
//      decouples from flush latency while the ack (and so the measured
//      server.latency_ns) still waits for durability.
//
// Expected shape: async sustains a higher capacity and, at an offered load
// the blocking config cannot absorb, higher achieved TPS with
// equal-or-lower p99.9 (the epoch adds <= one epoch_interval of parking but
// removes the worker-pool convoy behind the flush).
#include "bench/bench_util.h"
#include "engine/factory.h"
#include "workload/driver.h"

using namespace tdp;

namespace {

constexpr int64_t kEpochIntervalNs = 100 * 1000;  // 100us epochs

/// Single-row increments on a modest key range: almost no lock conflicts,
/// so commit durability is the only meaningful cost per transaction.
class Increments : public workload::Workload {
 public:
  static constexpr uint64_t kRows = 256;

  std::string name() const override { return "increments"; }

  void Load(engine::Database* db) override {
    table_ = db->CreateTable("counter", 64);
    for (uint64_t k = 0; k < kRows; ++k) {
      db->BulkUpsert(table_, k, storage::Row{0});
    }
  }

  Txn NextTxn(Rng* rng) override {
    const uint32_t table = table_;
    const uint64_t key = rng->Uniform(kRows);
    Txn t;
    t.type = "increment";
    t.body = [table, key](engine::Connection& c) {
      return c.Update(table, key, 0, 1);
    };
    return t;
  }

 private:
  uint32_t table_ = 0;
};

std::unique_ptr<engine::Database> MakeDb(bool async_commit) {
  engine::EngineConfig cfg;
  cfg.mysql = core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS);
  cfg.mysql.flush_policy = log::FlushPolicy::kEagerFlush;
  cfg.mysql.log_group_commit = true;
  cfg.mysql.log_async_commit = async_commit;
  cfg.mysql.log_epoch_interval_ns = kEpochIntervalNs;
  cfg.mysql.row_work_ns = 10000;  // ~10us of CPU per transaction
  // The log device is the bottleneck: a flush costs ~150us end to end.
  cfg.mysql.log_disk.base_latency_ns = 100000;
  cfg.mysql.log_disk.flush_barrier_ns = 50000;
  cfg.mysql.log_disk.sigma = 0.3;
  auto db = engine::OpenDatabase(engine::EngineKind::kMySQLMini, cfg);
  if (!db.ok()) {
    std::fprintf(stderr, "OpenDatabase: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  return std::move(db.value());
}

server::ServiceConfig ServiceBase(bool async_ack) {
  server::ServiceConfig cfg;
  cfg.workers = 8;
  cfg.retry.max_attempts = 1;
  cfg.async_ack = async_ack;
  return cfg;
}

/// Capacity: all `n` arrivals are due at once into a queue that holds them,
/// so the pool never idles; completed/second is what the commit protocol
/// can sustain.
double MeasureCapacity(bool async_commit, uint64_t n) {
  auto db = MakeDb(async_commit);
  Increments wl;
  wl.Load(db.get());

  workload::DriverConfig driver;
  driver.tps = 1e9;
  driver.num_txns = n;
  driver.warmup_txns = 0;
  driver.service = ServiceBase(async_commit);
  driver.service.max_queue_depth = n;
  return workload::Run(db.get(), &wl, driver).achieved_tps;
}

workload::RunResult RunLeg(bool async_commit, double offered_tps, uint64_t n,
                           uint64_t seed) {
  auto db = MakeDb(async_commit);
  Increments wl;
  wl.Load(db.get());

  workload::DriverConfig driver;
  driver.tps = offered_tps;
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  driver.seed = seed;
  driver.arrival = workload::ArrivalProcess::kPoisson;
  driver.service = ServiceBase(async_commit);
  driver.service.max_queue_depth = 65536;  // compare latency, not shedding
  const workload::RunResult out = workload::Run(db.get(), &wl, driver);

  // The async-ack accounting identity must hold on every leg (the bench
  // smoke suite asserts it from the metrics snapshot too).
  const uint64_t acks = out.stats.async_acks + out.stats.sync_acks;
  if (acks != out.stats.completed) {
    std::fprintf(stderr, "ack accounting broken: %llu + %llu != %llu\n",
                 static_cast<unsigned long long>(out.stats.async_acks),
                 static_cast<unsigned long long>(out.stats.sync_acks),
                 static_cast<unsigned long long>(out.stats.completed));
    std::abort();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitReport(argc, argv, "bench_group_commit");
  bench::Header("Group commit: blocking eager vs epoch-based async ack");

  const uint64_t cap_txns = bench::N(12800);
  const double cap_blocking = MeasureCapacity(false, cap_txns);
  const double cap_async = MeasureCapacity(true, cap_txns);
  std::printf("%-28s %.0f tps\n", "capacity.blocking", cap_blocking);
  std::printf("%-28s %.0f tps (%.2fx)\n", "capacity.async", cap_async,
              cap_blocking > 0 ? cap_async / cap_blocking : 0);
  bench::Report::Global().AddValue("capacity.blocking_tps", cap_blocking);
  bench::Report::Global().AddValue("capacity.async_tps", cap_async);
  bench::Report::Global().AddValue(
      "capacity.speedup", cap_blocking > 0 ? cap_async / cap_blocking : 0);

  // Same offered load for both legs: slightly above what blocking eager can
  // absorb, comfortably inside async's capacity.
  const double offered = 1.2 * cap_blocking;
  const uint64_t n = bench::N(5000);
  const workload::RunResult blocking = RunLeg(false, offered, n, 7);
  const workload::RunResult async_leg = RunLeg(true, offered, n, 7);
  const core::Metrics blocking_m = core::Metrics::From(blocking);
  const core::Metrics async_m = core::Metrics::From(async_leg);

  bench::PrintMetrics("blocking.eager", blocking_m);
  bench::PrintMetrics("async.epoch", async_m);
  std::printf("%-28s blocking=%.0f async=%.0f tps at offered %.0f\n",
              "achieved_tps", blocking.achieved_tps, async_leg.achieved_tps,
              offered);
  std::printf("%-28s blocking=%.3fms async=%.3fms\n", "p99.9",
              blocking_m.p999_ms, async_m.p999_ms);
  std::printf("%-28s async_acks=%llu sync_acks=%llu completed=%llu\n",
              "async.accounting",
              static_cast<unsigned long long>(async_leg.stats.async_acks),
              static_cast<unsigned long long>(async_leg.stats.sync_acks),
              static_cast<unsigned long long>(async_leg.stats.completed));

  bench::Report::Global().AddValue("blocking.achieved_tps",
                                   blocking.achieved_tps);
  bench::Report::Global().AddValue("async.achieved_tps",
                                   async_leg.achieved_tps);
  bench::Report::Global().AddValue("blocking.p999_ms", blocking_m.p999_ms);
  bench::Report::Global().AddValue("async.p999_ms", async_m.p999_ms);
  bench::Report::Global().AddValue(
      "async.tps_ratio",
      blocking.achieved_tps > 0
          ? async_leg.achieved_tps / blocking.achieved_tps
          : 0);
  return 0;
}
