// Figure 6 / Appendix C.1: out-of-the-box performance variance of all three
// engines on TPC-C — mean, standard deviation, and 99th percentile in
// absolute time. The paper's finding: stddev ~2x the mean and p99 an order
// of magnitude above it, on every engine.
#include "bench/bench_util.h"
#include "volt/voltmini.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

void PrintAbs(const char* label, const core::Metrics& m) {
  bench::Report::Global().AddMetrics(label, m);
  std::printf("%-10s mean=%8.3fms  stddev=%8.3fms (%.1fx mean)  "
              "p99=%8.3fms (%.1fx mean)\n",
              label, m.mean_ms, m.stddev_ms,
              m.mean_ms > 0 ? m.stddev_ms / m.mean_ms : 0, m.p99_ms,
              m.mean_ms > 0 ? m.p99_ms / m.mean_ms : 0);
}

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_fig6_outofbox");
  bench::Header("Figure 6: out-of-box variance on TPC-C (all engines)");
  const uint64_t n = bench::N(6000);

  {
    workload::DriverConfig driver = core::Toolkit::DriverDefault();
    driver.num_txns = n;
    driver.warmup_txns = n / 10;
    const core::Metrics m = bench::PooledRuns(
        [&](int) {
          return bench::MustOpenMysql(
              core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS));
        },
        [&](int) {
          return std::make_unique<workload::Tpcc>(
              core::Toolkit::TpccContended());
        },
        driver, bench::Reps(2));
    PrintAbs("mysqlmini", m);
  }
  {
    workload::DriverConfig driver = core::Toolkit::DriverDefault();
    driver.tps = 350;
    driver.service.workers = 128;  // deep pgmini pools destabilize the WAL
    driver.num_txns = n;
    driver.warmup_txns = n / 10;
    const core::Metrics m = bench::PooledRuns(
        [&](int) { return bench::MustOpenPg(core::Toolkit::PgDefault()); },
        [&](int) {
          workload::TpccConfig tcfg;
          tcfg.warehouses = 4;  // the WAL is pgmini's serialization point
          return std::make_unique<workload::Tpcc>(tcfg);
        },
        driver, bench::Reps(2));
    PrintAbs("pgmini", m);
  }
  {
    // voltmini with its default two workers and TPC-C-like procedure times.
    volt::VoltMini db(core::Toolkit::VoltDefault(2));
    db.Start();
    Rng rng(29);
    std::vector<std::shared_ptr<volt::VoltMini::Ticket>> tickets;
    const int64_t gap_ns = 2200000;  // ~455/s: 2 workers at ~68% utilization
    int64_t next = NowNanos();
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t now = NowNanos();
      if (next > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      next += gap_ns;
      const int64_t service_us =
          1000 + static_cast<int64_t>(rng.Uniform(4000));
      tickets.push_back(
          db.Submit(static_cast<int>(rng.Uniform(8)), [service_us] {
            std::this_thread::sleep_for(std::chrono::microseconds(service_us));
          }));
    }
    std::vector<int64_t> lat;
    for (auto& t : tickets) {
      t->Wait();
      lat.push_back(t->latency_ns());
    }
    db.Stop();
    PrintAbs("voltmini", core::Metrics::FromLatencies(lat));
  }
  return 0;
}
