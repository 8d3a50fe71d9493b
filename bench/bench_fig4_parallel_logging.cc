// Figure 4 (left): parallel logging for Postgres (two redo-log disks vs one
// WALWriteLock-serialized set). Bars: original / parallel-logging ratios.
#include "bench/bench_util.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

core::Metrics RunWal(bool parallel, uint64_t n) {
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = 350;
  driver.service.workers = 128;  // deep pgmini pools destabilize the WAL
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  core::Metrics m = bench::PooledRuns(
      [&](int) { return bench::MustOpenPg(core::Toolkit::PgDefault(parallel)); },
      [&](int) {
        // Four warehouses: row contention spread thin, so the WAL — global
        // to every committing transaction — is the serialization point.
        workload::TpccConfig tcfg;
        tcfg.warehouses = 4;
        return std::make_unique<workload::Tpcc>(tcfg);
      },
      driver, bench::Reps());
  std::printf("  [%s] %s\n", parallel ? "parallel logging" : "single WAL",
              m.ToString().c_str());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_fig4_parallel_logging");
  bench::Header("Figure 4 (left): parallel logging on pgmini (TPC-C)");
  const uint64_t n = bench::N(6000);
  const core::Metrics single = RunWal(false, n);
  const core::Metrics parallel = RunWal(true, n);
  std::printf("\nRatio (Original / Parallel Logging):\n");
  bench::PrintRatios("parallel logging", core::Ratios::Of(single, parallel));
  return 0;
}
