// Chaos test: inject a known fault schedule into the log device and use
// TProfiler's own variance tree as the correctness oracle — the injected
// variance must be attributed to the flush subtree (ISSUE: the
// bench_fault_attribution experiment, in test form).
#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "engine/mysqlmini.h"
#include "tprofiler/analysis.h"
#include "tprofiler/profiler.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace tdp {
namespace {

// Low-contention engine: fast disks, cheap row work, 4 warehouses. With the
// injector disarmed nothing here produces outsized variance, so whatever the
// variance tree blames after arming it is the injector's doing.
engine::MySQLMiniConfig ChaosEngine(FaultInjector* log_fault) {
  engine::MySQLMiniConfig cfg;
  cfg.lock.policy = lock::SchedulerPolicy::kFCFS;
  cfg.lock.wait_timeout_ns = MillisToNanos(2000);
  cfg.row_work_ns = 500;
  cfg.btree.level_work_ns = 100;
  cfg.data_disk.base_latency_ns = 5000;
  cfg.data_disk.sigma = 0.2;
  cfg.log_disk.base_latency_ns = 10000;
  cfg.log_disk.sigma = 0.2;
  cfg.log_disk.flush_barrier_ns = 5000;
  cfg.log_disk.fault = log_fault;
  // Per-commit fsync keeps every committer's flush latency inside its own
  // fil_flush probe (no group-commit leader absorbing riders' waits).
  cfg.log_group_commit = false;
  return cfg;
}

TEST(FaultChaosTest, VarianceTreeBlamesTheFlushSubtree) {
  // Periodic 25x latency spikes on the log device, ~half the timeline:
  // 40 ms spike windows every 80 ms for 20 s (far longer than the run).
  FaultInjector inj;
  for (int64_t t = MillisToNanos(40); t < MillisToNanos(20000);
       t += MillisToNanos(80)) {
    inj.AddLatencySpike(t, MillisToNanos(40), 25.0);
  }

  engine::MySQLMini db(ChaosEngine(&inj));
  workload::TpccConfig tcfg;
  tcfg.warehouses = 4;
  workload::Tpcc tpcc(tcfg);
  tpcc.Load(&db);

  tprof::SessionConfig scfg;
  scfg.enabled = {"dispatch_command", "row_search_for_mysql", "row_upd_step",
                  "row_ins_clust_index_entry_low", "lock_wait_suspend_thread",
                  "os_event_wait", "trx_commit", "log_write_up_to",
                  "fil_flush", "buf_LRU_get_free_block"};
  tprof::Profiler::Instance().StartSession(scfg);

  workload::DriverConfig dcfg;
  dcfg.tps = 1200;
  dcfg.service.workers = 16;
  dcfg.num_txns = 1500;
  dcfg.warmup_txns = 0;
  inj.Arm();
  const workload::RunResult result = workload::Run(&db, &tpcc, dcfg);
  inj.Disarm();
  tprof::TraceData data = tprof::Profiler::Instance().EndSession();

  EXPECT_GT(result.committed, 1200u);
  EXPECT_GT(inj.stats().spikes.load(), 0u);

  tprof::VarianceAnalysis analysis(data,
                                   tprof::Profiler::Instance().path_tree());
  ASSERT_GT(analysis.num_txns(), 1000u);
  ASSERT_GT(analysis.total_variance(), 0);

  const auto shares = analysis.FunctionShares();
  ASSERT_FALSE(shares.empty());
  // The oracle: the injected fault schedule hit only the log flush, so the
  // profiler must rank fil_flush as the top variance contributor (shares
  // come back sorted by specificity-weighted score).
  EXPECT_EQ(shares[0].name, "fil_flush")
      << "top factor was " << shares[0].name << " ("
      << shares[0].pct_of_total << "% of total variance)\n"
      << analysis.ReportString(8);
  // And not marginally: the flush subtree should carry a dominant slice of
  // end-to-end latency variance.
  double flush_pct = 0, lock_pct = 0;
  for (const auto& s : shares) {
    if (s.name == "fil_flush") flush_pct = s.pct_of_total;
    if (s.name == "lock_wait_suspend_thread") lock_pct = s.pct_of_total;
  }
  EXPECT_GT(flush_pct, 20.0) << analysis.ReportString(8);  // percent
  EXPECT_GT(flush_pct, lock_pct) << analysis.ReportString(8);
}

TEST(FaultChaosTest, DisarmedInjectorChangesNothing) {
  // Same engine + schedule, injector never armed: the retry plumbing must
  // be a no-op — no retries, no degraded commits, no I/O errors anywhere.
  FaultInjector inj;
  inj.AddStall(0, MillisToNanos(10000));
  inj.AddWriteError(0, MillisToNanos(10000), 1.0);

  engine::MySQLMini db(ChaosEngine(&inj));
  workload::TpccConfig tcfg;
  tcfg.warehouses = 4;
  workload::Tpcc tpcc(tcfg);
  tpcc.Load(&db);

  workload::DriverConfig dcfg;
  dcfg.tps = 1200;
  dcfg.service.workers = 16;
  dcfg.num_txns = 600;
  dcfg.warmup_txns = 100;
  const workload::RunResult result = workload::Run(&db, &tpcc, dcfg);

  EXPECT_GT(result.committed, 400u);
  EXPECT_EQ(db.log_disk().stats().io_errors.load(), 0u);
  EXPECT_EQ(db.data_disk().stats().io_errors.load(), 0u);
  EXPECT_EQ(db.redo_log().stats().io_retries.load(), 0u);
  EXPECT_EQ(db.redo_log().stats().degraded_commits.load(), 0u);
  EXPECT_EQ(db.buffer_pool().stats().read_failures.load(), 0u);
  EXPECT_EQ(db.buffer_pool().stats().writeback_failures.load(), 0u);
  EXPECT_EQ(inj.stats().stalls.load(), 0u);
}

TEST(FaultChaosTest, RegistryMirrorsInjectorStats) {
#ifdef TDP_METRICS_DISABLED
  GTEST_SKIP() << "metrics compiled out";
#else
  metrics::Registry::Global().ResetAll();  // quiesced: private deltas below

  // Latency spikes plus probabilistic write errors on the log device: the
  // spikes drive the fault.spikes counter, the write errors drive retries
  // through every RetryIo site on the commit path.
  FaultInjector inj;
  inj.AddLatencySpike(0, MillisToNanos(20000), 10.0);
  inj.AddWriteError(0, MillisToNanos(20000), 0.3);

  engine::MySQLMini db(ChaosEngine(&inj));
  workload::TpccConfig tcfg;
  tcfg.warehouses = 4;
  workload::Tpcc tpcc(tcfg);
  tpcc.Load(&db);

  workload::DriverConfig dcfg;
  dcfg.tps = 1200;
  dcfg.service.workers = 16;
  dcfg.num_txns = 600;
  dcfg.warmup_txns = 0;
  inj.Arm();
  const workload::RunResult result = workload::Run(&db, &tpcc, dcfg);
  inj.Disarm();

  EXPECT_GT(result.committed, 400u);
  const metrics::MetricsSnapshot snap =
      metrics::Registry::Global().TakeSnapshot();
  // Every injector-side event count has an identical registry mirror.
  EXPECT_EQ(snap.counter("fault.spikes"), inj.stats().spikes.load());
  EXPECT_EQ(snap.counter("fault.stalls"), inj.stats().stalls.load());
  EXPECT_EQ(snap.counter("fault.write_errors"),
            inj.stats().write_errors.load());
  EXPECT_EQ(snap.counter("fault.torn_flushes"),
            inj.stats().torn_flushes.load());
  EXPECT_EQ(snap.counter("fault.read_errors"),
            inj.stats().read_errors.load());
  EXPECT_GT(snap.counter("fault.spikes"), 0u);
  EXPECT_GT(snap.counter("fault.write_errors"), 0u);

  // The process-wide RetryIo counter decomposes exactly into the
  // per-subsystem retry counters (this engine has no WAL).
  EXPECT_EQ(snap.counter("io.retries"),
            snap.counter("log.io_retries") + snap.counter("buf.io_retries"));
  EXPECT_GT(snap.counter("io.retries"), 0u);

  // Registry mirrors of the engine-side stats structs stay exact, too.
  EXPECT_EQ(snap.counter("log.io_retries"),
            db.redo_log().stats().io_retries.load());
  EXPECT_EQ(snap.counter("log.degraded_commits"),
            db.redo_log().stats().degraded_commits.load());
  EXPECT_EQ(snap.counter("buf.io_retries"),
            db.buffer_pool().stats().io_retries.load());
#endif
}

}  // namespace
}  // namespace tdp
