// Quickstart: open a mysqlmini database, run transactions through the
// Connection API, and print a predictability report — then switch the lock
// scheduler from FCFS to VATS and watch the tail shrink.
//
//   $ ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/predictability.h"
#include "core/toolkit.h"
#include "engine/factory.h"
#include "engine/txn.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

core::Metrics RunWithPolicy(lock::SchedulerPolicy policy) {
  // 1. Configure the engine. Toolkit provides calibrated defaults; every
  //    knob is a plain struct field.
  engine::EngineConfig config;
  config.mysql = core::Toolkit::MysqlDefault(policy);

  // 2. Open the database through the validating factory and load a workload
  //    (a contended TPC-C here; any workload::Workload works, or issue
  //    transactions by hand as below). A bad config — zero buffer pool,
  //    negative spin budget — comes back as InvalidArgument, not a crash.
  auto opened = engine::OpenDatabase(engine::EngineKind::kMySQLMini, config);
  if (!opened.ok()) {
    std::fprintf(stderr, "OpenDatabase: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<engine::Database> db = std::move(opened.value());
  workload::Tpcc tpcc(core::Toolkit::TpccContended());
  tpcc.Load(db.get());

  // 3. One transaction through RunTxn, which owns Begin/Commit/Rollback and
  //    retries deadlock or lock-timeout victims per the RetryPolicy:
  {
    std::unique_ptr<engine::Connection> conn = db->Connect();
    const uint32_t warehouse = db->TableId("warehouse");
    const Status s = engine::RunTxn(
        *conn, engine::RetryPolicy{}, [&](engine::Connection& c) {
          c.Select(warehouse, 0);                // nonlocking read
          return c.Update(warehouse, 0, 0, 100); // X lock + redo
        });
    if (!s.ok()) {
      std::fprintf(stderr, "txn failed: %s (last_error: %s)\n",
                   s.ToString().c_str(),
                   conn->last_error().ToString().c_str());
    }
  }

  // 4. Drive at a constant rate and measure, as the paper does. Run submits
  //    each transaction into a TransactionService (driver.service: 512
  //    workers here) and times it from its intended dispatch to its commit.
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.num_txns = 3000;
  driver.warmup_txns = 300;
  const workload::RunResult run = workload::Run(db.get(), &tpcc, driver);
  return core::Metrics::From(run);
}

}  // namespace

int main() {
  std::printf("running contended TPC-C with FCFS lock scheduling...\n");
  const core::Metrics fcfs = RunWithPolicy(lock::SchedulerPolicy::kFCFS);
  std::printf("  FCFS: %s\n", fcfs.ToString().c_str());

  std::printf("running the same workload with VATS...\n");
  const core::Metrics vats = RunWithPolicy(lock::SchedulerPolicy::kVATS);
  std::printf("  VATS: %s\n", vats.ToString().c_str());

  const core::Ratios r = core::Ratios::Of(fcfs, vats);
  std::printf("\nimprovement from VATS (FCFS/VATS): %s\n",
              r.ToString().c_str());
  std::printf("(run a few times — convoy episodes are bursty; variance and "
              "p99 should favor VATS)\n");
  return 0;
}
