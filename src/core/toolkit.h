// The public facade: canonical engine configurations for the paper's
// experimental setups and one-call run helpers. Benches, tests and examples
// all build their scenarios from these so that calibration lives in exactly
// one place.
#pragma once

#include <memory>

#include "core/predictability.h"
#include "engine/mysqlmini.h"
#include "lock/lock_manager.h"
#include "pg/pgmini.h"
#include "volt/voltmini.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace tdp::core {

struct Toolkit {
  /// mysqlmini in the paper's large configuration (128-WH analog): the
  /// working set fits in the buffer pool, so lock scheduling dominates.
  static engine::MySQLMiniConfig MysqlDefault(
      lock::SchedulerPolicy policy = lock::SchedulerPolicy::kFCFS);

  /// mysqlmini in the reduced-scale configuration (2-WH analog): a buffer
  /// pool far smaller than the working set, exaggerating LRU contention.
  static engine::MySQLMiniConfig MysqlMemoryContended(
      lock::SchedulerPolicy policy = lock::SchedulerPolicy::kFCFS);

  /// pgmini with the given logging setup.
  static pg::PgMiniConfig PgDefault(bool parallel_logging = false,
                                    uint64_t wal_block_bytes = 8192);

  static volt::VoltMiniConfig VoltDefault(int num_workers = 2);

  /// TPC-C at the contended scale used throughout the benches.
  static workload::TpccConfig TpccContended();
  /// TPC-C at the reduced scale that pairs with MysqlMemoryContended.
  static workload::TpccConfig Tpcc2WH();

  /// The paper's constant-rate measurement setup (scaled to laptop runs).
  static workload::DriverConfig DriverDefault();
};

/// Loads `wl` into `db`, runs it, and returns both the raw run and metrics.
struct RunOutcome {
  workload::RunResult run;
  Metrics metrics;
};
RunOutcome LoadAndRun(engine::Database* db, workload::Workload* wl,
                      const workload::DriverConfig& config);

}  // namespace tdp::core
