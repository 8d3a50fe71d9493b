// Ablation: N-way parallel logging on pgmini (generalizing the paper's
// two-disk scheme of Section 6.2). Bars: (1 set) / (N sets) ratios —
// expected: a large step from 1 -> 2 (the paper's result), diminishing
// returns beyond the point where the WALWriteLock stops being the
// bottleneck.
#include "bench/bench_util.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

core::Metrics RunSets(int sets, uint64_t n) {
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = 350;
  driver.service.workers = 128;  // deep pgmini pools destabilize the WAL
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  core::Metrics m = bench::PooledRuns(
      [&](int) {
        pg::PgMiniConfig cfg = core::Toolkit::PgDefault(false);
        cfg.wal.num_log_sets = sets;
        return bench::MustOpenPg(cfg);
      },
      [&](int) {
        // Four warehouses: row contention spread thin, so the WAL — global
        // to every committing transaction — is the serialization point.
        workload::TpccConfig tcfg;
        tcfg.warehouses = 4;
        return std::make_unique<workload::Tpcc>(tcfg);
      },
      driver, bench::Reps(2));
  std::printf("  [%d log set%s] %s\n", sets, sets == 1 ? "" : "s",
              m.ToString().c_str());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_ablation_parallel_wal");
  bench::Header("Ablation: N-way parallel logging on pgmini (TPC-C)");
  const uint64_t n = bench::N(5000);
  const core::Metrics one = RunSets(1, n);
  std::printf("\nRatio (1 set / N sets):\n");
  for (int sets : {2, 3, 4}) {
    const core::Metrics m = RunSets(sets, n);
    char label[32];
    std::snprintf(label, sizeof(label), "%d sets", sets);
    bench::PrintRatios(label, core::Ratios::Of(one, m));
  }
  return 0;
}
