// Fault-attribution harness (docs/faults.md): inject a seeded fault schedule
// into the log device and use TProfiler's variance tree as the oracle — the
// injected variance must be attributed to the flush subtree (fil_flush top
// of the function shares). Exits nonzero when the attribution fails, so the
// profiler's own output gates the experiment.
//
// Also reports the cost of the retry plumbing when no injector is armed:
// a run with no injector attached vs. a run with a disarmed injector should
// be within noise of each other (the zero-overhead claim).
#include "bench/bench_util.h"
#include "common/fault.h"
#include "tprofiler/analysis.h"
#include "tprofiler/profiler.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

engine::MySQLMiniConfig FaultEngine(FaultInjector* log_fault) {
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
  cfg.log_group_commit = false;  // per-commit fsync: flush latency stays in
                                 // the committer's own fil_flush probe
  return cfg;
}

workload::DriverConfig FaultDriver(uint64_t n) {
  workload::DriverConfig cfg;
  cfg.tps = 1200;
  cfg.service.workers = 16;
  cfg.num_txns = n;
  cfg.warmup_txns = n / 10;
  return cfg;
}

workload::TpccConfig Warehouses4() {
  workload::TpccConfig cfg;
  cfg.warehouses = 4;  // low lock contention: variance budget left to I/O
  return cfg;
}

core::Metrics RunPlain(FaultInjector* disarmed, uint64_t n) {
  return bench::PooledRuns(
      [&](int) { return bench::MustOpenMysql(FaultEngine(disarmed)); },
      [&](int) { return std::make_unique<workload::Tpcc>(Warehouses4()); },
      FaultDriver(n), bench::Reps());
}

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_fault_attribution");
  bench::Header("Fault attribution: injected flush faults vs. TProfiler");

  // --- Part 1: the retry plumbing is free when no fault is armed ----------
  const uint64_t n_overhead = bench::N(4000);
  const core::Metrics absent = RunPlain(nullptr, n_overhead);
  bench::PrintMetrics("no injector attached ", absent);
  FaultInjector disarmed;
  disarmed.AddStall(0, MillisToNanos(60000));
  disarmed.AddWriteError(0, MillisToNanos(60000), 1.0);
  const core::Metrics idle = RunPlain(&disarmed, n_overhead);
  bench::PrintMetrics("injector attached,off", idle);
  std::printf("  disarmed/absent p99 ratio: %.3f (expect ~1.0)\n",
              absent.p99_ms > 0 ? idle.p99_ms / absent.p99_ms : 0.0);

  // --- Part 2: seeded schedule -> variance tree blames the flush ----------
  RandomFaultConfig fcfg;
  fcfg.horizon_ns = MillisToNanos(60000);
  fcfg.mean_gap_ns = MillisToNanos(60);
  fcfg.min_duration_ns = MillisToNanos(15);
  fcfg.max_duration_ns = MillisToNanos(40);
  fcfg.spike_magnitude = 25.0;
  fcfg.weight_spike = 1.0;
  fcfg.weight_stall = 1.0;
  fcfg.weight_write_error = 0.0;  // latency faults only: attribution stays
  fcfg.weight_torn_flush = 0.0;   // a pure variance question
  FaultInjector inj(FaultInjector::RandomSchedule(42, fcfg));
  std::printf("\n  schedule: %zu seeded fault events (seed 42)\n",
              inj.schedule().size());

  auto db = bench::MustOpenMysql(FaultEngine(&inj));
  workload::Tpcc tpcc(Warehouses4());
  tpcc.Load(db.get());

  tprof::SessionConfig scfg;
  scfg.enabled = {"dispatch_command", "row_search_for_mysql", "row_upd_step",
                  "row_ins_clust_index_entry_low", "lock_wait_suspend_thread",
                  "os_event_wait", "trx_commit", "log_write_up_to",
                  "fil_flush", "buf_LRU_get_free_block"};
  tprof::Profiler::Instance().StartSession(scfg);
  workload::DriverConfig dcfg = FaultDriver(bench::N(6000));
  dcfg.warmup_txns = 0;
  inj.Arm();
  const workload::RunResult run = workload::Run(db.get(), &tpcc, dcfg);
  inj.Disarm();
  tprof::TraceData data = tprof::Profiler::Instance().EndSession();

  std::printf("  committed=%llu  spikes=%llu stalls=%llu\n",
              static_cast<unsigned long long>(run.committed),
              static_cast<unsigned long long>(inj.stats().spikes.load()),
              static_cast<unsigned long long>(inj.stats().stalls.load()));

  tprof::VarianceAnalysis analysis(data,
                                   tprof::Profiler::Instance().path_tree());
  std::printf("\n%s\n", analysis.ReportString(8).c_str());
  std::printf("%s\n", analysis.TreeString().c_str());

  const auto shares = analysis.FunctionShares();
  if (shares.empty()) {
    std::fprintf(stderr, "FAIL: no function shares\n");
    return 1;
  }
  double flush_pct = 0;
  for (const auto& s : shares) {
    if (s.name == "fil_flush") flush_pct = s.pct_of_total;
  }
  std::printf("fil_flush share of total variance: %.1f%%\n", flush_pct);
  if (shares[0].name != "fil_flush") {
    std::fprintf(stderr,
                 "FAIL: top variance contributor is %s, expected fil_flush\n",
                 shares[0].name.c_str());
    return 1;
  }
  std::printf("PASS: variance tree attributes the injected faults to "
              "fil_flush\n");
  return 0;
}
