// Table 1: key sources of latency variance in MySQL, found by TProfiler.
//
// Two configurations, as in Section 4.1:
//   * 128-WH analog — working set cached; lock waits (os_event_wait under
//     lock_wait_suspend_thread) should dominate, with the inherent
//     row_ins_clust_index_entry_low variance visible.
//   * 2-WH analog — tiny buffer pool; buf_pool_mutex_enter (LRU reordering)
//     and fil_flush shares grow.
#include <memory>

#include "bench/bench_util.h"
#include "tprofiler/analysis.h"
#include "tprofiler/profiler.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

const std::vector<std::string> kProbes = {
    "dispatch_command",      "row_search_for_mysql",
    "row_upd_step",          "row_ins_clust_index_entry_low",
    "lock_wait_suspend_thread", "os_event_wait",
    "btr_cur_search_to_nth_level", "buf_pool_mutex_enter",
    "buf_LRU_get_free_block", "buf_LRU_add_block",
    "buf_page_make_young",   "trx_commit",
    "log_write_up_to",       "fil_flush"};

void ProfileConfig(const char* label, engine::MySQLMiniConfig cfg,
                   workload::TpccConfig tcfg, double tps) {
  std::printf("\n-- %s --\n", label);
  auto db = bench::MustOpenMysql(cfg);
  workload::Tpcc tpcc(tcfg);
  tpcc.Load(db.get());

  tprof::SessionConfig sc;
  sc.enabled = kProbes;
  tprof::Profiler::Instance().StartSession(sc);

  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = tps;
  driver.num_txns = bench::N(6000);
  driver.warmup_txns = 0;  // profile everything
  workload::Run(db.get(), &tpcc, driver);

  tprof::TraceData data = tprof::Profiler::Instance().EndSession();
  tprof::VarianceAnalysis analysis(data,
                                   tprof::Profiler::Instance().path_tree());

  std::printf("profiled %llu txns, latency variance %.4g ms^2\n",
              static_cast<unsigned long long>(analysis.num_txns()),
              analysis.total_variance() / 1e12);
  std::printf("%-34s %s\n", "Function", "Pct of Overall Variance");
  int shown = 0;
  for (const tprof::FunctionShare& s : analysis.FunctionShares()) {
    if (s.name == "dispatch_command") continue;  // the root, uninformative
    std::printf("  %-32s %6.2f%%\n", s.name.c_str(), s.pct_of_total);
    if (++shown >= 6) break;
  }
  std::printf("\ntop factors by score (call-site granularity):\n%s",
              analysis.ReportString(6).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_table1_mysql_sources");
  bench::Header("Table 1: key sources of variance in mysqlmini (TProfiler)");

  ProfileConfig("128-WH analog (cached working set)",
                core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS),
                core::Toolkit::TpccContended(), 520);

  ProfileConfig("2-WH analog (64-page buffer pool)",
                core::Toolkit::MysqlMemoryContended(
                    lock::SchedulerPolicy::kFCFS),
                core::Toolkit::Tpcc2WH(), 380);
  return 0;
}
