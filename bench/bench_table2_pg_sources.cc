// Table 2: key sources of latency variance in Postgres, found by TProfiler.
// Expectation (Section 4.2): LWLockAcquireOrWait (the WALWriteLock) strongly
// dominates; ReleasePredicateLocks is a minor inherent contributor.
#include "bench/bench_util.h"
#include "tprofiler/analysis.h"
#include "tprofiler/profiler.h"
#include "workload/tpcc.h"

using namespace tdp;

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_table2_pg_sources");
  bench::Header("Table 2: key sources of variance in pgmini (TProfiler)");

  auto db = bench::MustOpenPg(core::Toolkit::PgDefault());
  // Four warehouses: row contention spread thin (as at the paper's 32-WH
  // scale), so the WAL — global to every committing transaction — is the
  // remaining serialization point.
  workload::TpccConfig tcfg;
  tcfg.warehouses = 4;
  workload::Tpcc tpcc(tcfg);
  tpcc.Load(db.get());

  tprof::SessionConfig sc;
  sc.enabled = {"dispatch_command", "ExecSelect",         "heap_update",
                "heap_insert",      "heap_delete",        "CommitTransaction",
                "LWLockAcquireOrWait", "XLogFlush",       "ReleasePredicateLocks",
                "lock_wait_suspend_thread", "os_event_wait",
                "btr_cur_search_to_nth_level"};
  tprof::Profiler::Instance().StartSession(sc);

  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = 380;
  driver.service.workers = 128;  // deep pgmini pools destabilize the WAL
  driver.num_txns = bench::N(6000);
  driver.warmup_txns = 0;
  workload::Run(db.get(), &tpcc, driver);

  tprof::TraceData data = tprof::Profiler::Instance().EndSession();
  tprof::VarianceAnalysis analysis(data,
                                   tprof::Profiler::Instance().path_tree());

  std::printf("profiled %llu txns, latency variance %.4g ms^2\n",
              static_cast<unsigned long long>(analysis.num_txns()),
              analysis.total_variance() / 1e12);
  std::printf("%-30s %s\n", "Function", "Pct of Overall Variance");
  int shown = 0;
  for (const tprof::FunctionShare& s : analysis.FunctionShares()) {
    if (s.name == "dispatch_command") continue;
    std::printf("  %-28s %6.2f%%\n", s.name.c_str(), s.pct_of_total);
    if (++shown >= 6) break;
  }
  return 0;
}
