// Table 3: impact of modifying each function TProfiler identified.
// One row per modification, comparing original vs modified end-to-end
// transaction latencies (ratios oriented original/modified, >1 = better).
//
//   mysqlmini os_event_wait        -> replace FCFS with VATS
//   mysqlmini buf_pool_mutex_enter -> replace mutex with bounded spin (LLU)
//   mysqlmini fil_flush            -> parameter tuning (lazy log flushing)
//   pgmini    LWLockAcquireOrWait  -> parallel logging
//   voltmini  [waiting in queue]   -> add worker threads
#include "bench/bench_util.h"
#include "common/stats.h"
#include "volt/voltmini.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

core::Metrics RunMysql(const engine::MySQLMiniConfig& cfg,
                       const workload::TpccConfig& tcfg, double tps,
                       uint64_t n) {
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = tps;
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  return bench::PooledRuns(
      [&](int) { return bench::MustOpenMysql(cfg); },
      [&](int) { return std::make_unique<workload::Tpcc>(tcfg); }, driver,
      bench::Reps(2));
}

core::Metrics RunPg(bool parallel, uint64_t n) {
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = 350;
  driver.service.workers = 128;  // deep pgmini pools destabilize the WAL
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  return bench::PooledRuns(
      [&](int) { return bench::MustOpenPg(core::Toolkit::PgDefault(parallel)); },
      [&](int) {
        // W=4: the WAL, not a row, is pgmini's serialization point.
        workload::TpccConfig tcfg;
        tcfg.warehouses = 4;
        return std::make_unique<workload::Tpcc>(tcfg);
      },
      driver, bench::Reps(2));
}

core::Metrics RunVolt(int workers, uint64_t n) {
  volt::VoltMini db(core::Toolkit::VoltDefault(workers));
  db.Start();
  Rng rng(13);
  std::vector<std::shared_ptr<volt::VoltMini::Ticket>> tickets;
  tickets.reserve(n);
  const int64_t gap_ns = 2200000;  // ~455/s: 2 workers at ~68% utilization
  int64_t next = NowNanos();
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t now = NowNanos();
    if (next > now)
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    next += gap_ns;
    const int partition = static_cast<int>(rng.Uniform(8));
    const int64_t service_us = 1000 + static_cast<int64_t>(rng.Uniform(4000));
    tickets.push_back(db.Submit(partition, [service_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(service_us));
    }));
  }
  std::vector<int64_t> latencies;
  latencies.reserve(n);
  for (auto& t : tickets) {
    t->Wait();
    latencies.push_back(t->latency_ns());
  }
  db.Stop();
  return core::Metrics::FromLatencies(latencies);
}

void Row(const char* system, const char* function, const char* modification,
         const core::Metrics& orig, const core::Metrics& mod) {
  const core::Ratios r = core::Ratios::Of(orig, mod);
  std::printf("%-9s %-24s %-22s var=%6.2fx  p99=%6.2fx  mean=%6.2fx\n",
              system, function, modification, r.variance, r.p99, r.mean);
}

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_table3_modifications");
  bench::Header("Table 3: impact of each TProfiler-guided modification");
  const uint64_t n = bench::N(6000);

  // Row 1: os_event_wait -> VATS.
  {
    const core::Metrics fcfs = RunMysql(
        core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS),
        core::Toolkit::TpccContended(), 520, n);
    const core::Metrics vats = RunMysql(
        core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kVATS),
        core::Toolkit::TpccContended(), 520, n);
    Row("mysqlmini", "os_event_wait", "FCFS -> VATS", fcfs, vats);
  }

  // Row 2: buf_pool_mutex_enter -> LLU (bounded spin).
  {
    engine::MySQLMiniConfig orig =
        core::Toolkit::MysqlMemoryContended(lock::SchedulerPolicy::kFCFS);
    engine::MySQLMiniConfig llu = orig;
    llu.lazy_lru = true;
    const core::Metrics o = RunMysql(orig, core::Toolkit::Tpcc2WH(), 420, n);
    const core::Metrics m = RunMysql(llu, core::Toolkit::Tpcc2WH(), 420, n);
    Row("mysqlmini", "buf_pool_mutex_enter", "mutex -> spin (LLU)", o, m);
  }

  // Row 3: fil_flush -> flush-policy tuning (lazy write).
  {
    engine::MySQLMiniConfig orig =
        core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS);
    engine::MySQLMiniConfig tuned = orig;
    tuned.flush_policy = log::FlushPolicy::kLazyWrite;
    const core::Metrics o =
        RunMysql(orig, core::Toolkit::TpccContended(), 520, n);
    const core::Metrics m =
        RunMysql(tuned, core::Toolkit::TpccContended(), 520, n);
    Row("mysqlmini", "fil_flush", "parameter tuning", o, m);
  }

  // Row 4: LWLockAcquireOrWait -> parallel logging.
  {
    const core::Metrics o = RunPg(false, n);
    const core::Metrics m = RunPg(true, n);
    Row("pgmini", "LWLockAcquireOrWait", "parallel logging", o, m);
  }

  // Row 5: queue wait -> more worker threads (2 -> 8).
  {
    const core::Metrics o = RunVolt(2, bench::N(4000));
    const core::Metrics m = RunVolt(8, bench::N(4000));
    Row("voltmini", "[waiting in queue]", "2 -> 8 workers", o, m);
  }
  return 0;
}
