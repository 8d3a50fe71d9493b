// End-to-end: workloads under concurrency with consistency invariants, and
// TProfiler attached to a live engine.
#include <gtest/gtest.h>

#include "core/toolkit.h"
#include "engine/mysqlmini.h"
#include "tprofiler/analysis.h"
#include "tprofiler/profiler.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace tdp {
namespace {

engine::MySQLMiniConfig QuickEngine(lock::SchedulerPolicy policy) {
  engine::MySQLMiniConfig cfg;
  cfg.lock.policy = policy;
  cfg.lock.wait_timeout_ns = MillisToNanos(2000);
  cfg.row_work_ns = 500;
  cfg.btree.level_work_ns = 100;
  cfg.data_disk.base_latency_ns = 5000;
  cfg.data_disk.sigma = 0.2;
  cfg.log_disk.base_latency_ns = 10000;
  cfg.log_disk.sigma = 0.2;
  cfg.log_disk.flush_barrier_ns = 5000;
  return cfg;
}

workload::DriverConfig QuickDriver() {
  workload::DriverConfig cfg;
  cfg.tps = 1500;
  cfg.service.workers = 16;
  cfg.num_txns = 1200;
  cfg.warmup_txns = 200;
  return cfg;
}

// TPC-C money conservation: every Payment adds `amount` to warehouse YTD
// and district YTD and subtracts it from a customer balance. So
// sum(warehouse YTD) == sum(district YTD) == initial customer balance sum
// minus current sum.
void CheckTpccConsistency(engine::MySQLMini* db,
                          const workload::TpccConfig& cfg) {
  const uint32_t tw = db->TableId("warehouse");
  const uint32_t td = db->TableId("district");
  const uint32_t tc = db->TableId("customer");
  auto conn = db->Connect();
  ASSERT_TRUE(conn->Begin().ok());
  int64_t w_ytd = 0, d_ytd = 0, c_balance = 0;
  for (int w = 0; w < cfg.warehouses; ++w) {
    w_ytd += *conn->ReadColumn(tw, w, 0);
    for (int d = 0; d < cfg.districts_per_wh; ++d) {
      const uint64_t dk =
          static_cast<uint64_t>(w) * cfg.districts_per_wh + d;
      d_ytd += *conn->ReadColumn(td, dk, 1);
      for (int c = 0; c < cfg.customers_per_district; ++c) {
        const uint64_t ck =
            dk * cfg.customers_per_district + static_cast<uint64_t>(c);
        c_balance += *conn->ReadColumn(tc, ck, 0);
      }
    }
  }
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(w_ytd, d_ytd) << "warehouse YTD must equal district YTD";
  const int64_t initial_balance = int64_t{cfg.warehouses} *
                                  cfg.districts_per_wh *
                                  cfg.customers_per_district * 1000;
  EXPECT_EQ(initial_balance - c_balance, w_ytd)
      << "customer balances must fund the YTD totals";
}

class TpccConsistencyTest
    : public ::testing::TestWithParam<lock::SchedulerPolicy> {};

TEST_P(TpccConsistencyTest, MoneyConservedUnderConcurrency) {
  engine::MySQLMini db(QuickEngine(GetParam()));
  workload::TpccConfig tcfg;
  tcfg.warehouses = 2;
  workload::Tpcc tpcc(tcfg);
  tpcc.Load(&db);
  const workload::RunResult result =
      workload::Run(&db, &tpcc, QuickDriver());
  EXPECT_GT(result.committed, 1000u);
  EXPECT_EQ(result.gave_up, 0u);
  CheckTpccConsistency(&db, tcfg);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, TpccConsistencyTest,
    ::testing::Values(lock::SchedulerPolicy::kFCFS,
                      lock::SchedulerPolicy::kVATS,
                      lock::SchedulerPolicy::kRS),
    [](const ::testing::TestParamInfo<lock::SchedulerPolicy>& info) {
      return lock::SchedulerPolicyName(info.param);
    });

TEST(ProfiledEngineTest, TProfilerSeesLockWaitsOnContendedRun) {
  engine::MySQLMini db(QuickEngine(lock::SchedulerPolicy::kFCFS));
  workload::TpccConfig tcfg;
  tcfg.warehouses = 1;  // maximum contention
  workload::Tpcc tpcc(tcfg);
  tpcc.Load(&db);

  tprof::SessionConfig scfg;
  scfg.enabled = {"dispatch_command", "row_search_for_mysql", "row_upd_step",
                  "row_ins_clust_index_entry_low",
                  "lock_wait_suspend_thread", "os_event_wait", "trx_commit",
                  "fil_flush"};
  tprof::Profiler::Instance().StartSession(scfg);
  workload::DriverConfig dcfg = QuickDriver();
  dcfg.num_txns = 800;
  dcfg.warmup_txns = 0;
  workload::Run(&db, &tpcc, dcfg);
  tprof::TraceData data = tprof::Profiler::Instance().EndSession();

  tprof::VarianceAnalysis analysis(data,
                                   tprof::Profiler::Instance().path_tree());
  EXPECT_GT(analysis.num_txns(), 700u);
  EXPECT_GT(analysis.total_variance(), 0);

  // The os_event_wait call sites must appear in the tree with distinct
  // paths under select vs update parents.
  bool saw_wait = false;
  for (const auto& node : analysis.nodes()) {
    if (node.path.find("os_event_wait") != std::string::npos) saw_wait = true;
  }
  EXPECT_TRUE(saw_wait);

  // Shares are finite and the report renders.
  const auto shares = analysis.FunctionShares();
  EXPECT_FALSE(shares.empty());
  const std::string report = analysis.ReportString(5);
  EXPECT_FALSE(report.empty());
}

TEST(ToolkitTest, LoadAndRunProducesMetrics) {
  engine::MySQLMiniConfig cfg = QuickEngine(lock::SchedulerPolicy::kVATS);
  engine::MySQLMini db(cfg);
  workload::TpccConfig tcfg;
  tcfg.warehouses = 2;
  workload::Tpcc tpcc(tcfg);
  workload::DriverConfig dcfg = QuickDriver();
  dcfg.num_txns = 600;
  dcfg.warmup_txns = 100;
  tpcc.Load(&db);
  const core::Metrics m = core::Metrics::From(workload::Run(&db, &tpcc, dcfg));
  EXPECT_EQ(m.count, 500u);
  EXPECT_GT(m.mean_ms, 0);
  EXPECT_GT(m.p99_ms, 0);
  EXPECT_GT(m.achieved_tps, 0);
}

}  // namespace
}  // namespace tdp
