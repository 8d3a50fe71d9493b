// Figure 4 (right): effect of the WAL block size on pgmini. Bars:
// 4K / <block size> ratios. Expectation: growing the block size first helps
// (fewer writes per commit) and then hurts (write amplification when the
// redo occupies a small fraction of a block).
#include "bench/bench_util.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

core::Metrics RunBlock(uint64_t block_bytes, uint64_t n) {
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = 260;
  driver.service.workers = 128;  // deep pgmini pools destabilize the WAL
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  core::Metrics m = bench::PooledRuns(
      [&](int) {
        return bench::MustOpenPg(core::Toolkit::PgDefault(false, block_bytes));
      },
      [&](int) {
        // Four warehouses: row contention spread thin, so the WAL — global
        // to every committing transaction — is the serialization point.
        workload::TpccConfig tcfg;
        tcfg.warehouses = 4;
        return std::make_unique<workload::Tpcc>(tcfg);
      },
      driver, bench::Reps(2));
  std::printf("  [block=%5lluB] %s\n",
              static_cast<unsigned long long>(block_bytes),
              m.ToString().c_str());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_fig4_blocksize");
  bench::Header("Figure 4 (right): WAL block size on pgmini (TPC-C)");
  const uint64_t n = bench::N(5000);
  const core::Metrics base = RunBlock(4096, n);
  std::printf("\nRatio (4K / block size):\n");
  for (uint64_t block : {8192ull, 16384ull, 32768ull, 65536ull}) {
    const core::Metrics m = RunBlock(block, n);
    char label[32];
    std::snprintf(label, sizeof(label), "%lluK",
                  static_cast<unsigned long long>(block / 1024));
    bench::PrintRatios(label, core::Ratios::Of(base, m));
  }
  return 0;
}
