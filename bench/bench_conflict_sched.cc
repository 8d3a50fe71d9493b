// Conflict-predictive scheduling study (docs/scheduling.md): FCFS vs VATS
// vs CATS vs CP-VATS at a fixed offered load, on the two workloads where
// lock conflicts dominate — Zipfian YCSB (theta = 0.99, small hot set) and
// TPC-C with every New-Order funneling through one warehouse's districts.
//
// All four arms run the identical open-loop schedule (paired seeds per
// replicate), through the same service config; only the lock scheduler —
// and, for CP-VATS, the admission dispatch policy (kConflictAware, sharing
// the same online predictor) — differs. Reported per arm: achieved TPS with
// a bootstrap CI over replicates, and pooled p99.9 latency.
//
// Acceptance shape (EXPERIMENTS.md): CP-VATS p99.9 <= VATS p99.9 with an
// overlapping-or-better TPS interval; the verdict.* values make that
// greppable from BENCH_conflict_sched.json.
#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/factory.h"
#include "server/service.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

using namespace tdp;

namespace {

struct Arm {
  const char* name;
  lock::SchedulerPolicy policy;
  server::DispatchPolicy dispatch;
};

constexpr Arm kArms[] = {
    {"fcfs", lock::SchedulerPolicy::kFCFS, server::DispatchPolicy::kEldestFirst},
    {"vats", lock::SchedulerPolicy::kVATS, server::DispatchPolicy::kEldestFirst},
    {"cats", lock::SchedulerPolicy::kCATS, server::DispatchPolicy::kEldestFirst},
    {"cpvats", lock::SchedulerPolicy::kCPVATS,
     server::DispatchPolicy::kConflictAware},
};

std::unique_ptr<engine::Database> MakeDb(lock::SchedulerPolicy policy,
                                         uint64_t seed) {
  engine::EngineConfig cfg;
  cfg.mysql = core::Toolkit::MysqlDefault(policy);
  // Conflict-bound posture: cheap log, meaningful per-row work, so lock
  // queueing (not commit flushes) is what separates the schedulers.
  cfg.mysql.flush_policy = log::FlushPolicy::kLazyFlush;
  cfg.mysql.row_work_ns = 20000;
  cfg.mysql.lock.wait_timeout_ns = MillisToNanos(500);
  cfg.mysql.seed = seed;
  return bench::MustOpen(engine::EngineKind::kMySQLMini, cfg);
}

struct ArmResult {
  std::vector<int64_t> latencies;        ///< Pooled across replicates.
  std::vector<double> replicate_tps;     ///< Achieved TPS per replicate.
  core::Metrics metrics;
  server::TransactionService::Stats stats;  ///< Last replicate's totals.
};

template <typename MakeWl>
ArmResult RunArm(const Arm& arm, MakeWl&& make_wl, double offered_tps,
                 uint64_t n, int reps) {
  ArmResult out;
  for (int r = 0; r < reps; ++r) {
    const uint64_t seed = 7 + static_cast<uint64_t>(r) * 7919;
    auto db = MakeDb(arm.policy, seed);
    std::unique_ptr<workload::Workload> wl = make_wl();
    wl->Load(db.get());

    workload::DriverConfig driver;
    driver.tps = offered_tps;
    driver.num_txns = n;
    driver.warmup_txns = n / 10;
    driver.seed = seed;
    driver.arrival = workload::ArrivalProcess::kPoisson;
    driver.service = server::ServiceConfig{};  // one attempt per dispatch
    driver.service.workers = 8;
    driver.service.max_queue_depth = 65536;  // compare latency, not shed
    driver.service.policy = arm.dispatch;
    const workload::RunResult run = workload::Run(db.get(), wl.get(), driver);
    out.stats = run.stats;

    out.latencies.insert(out.latencies.end(), run.latencies.begin(),
                         run.latencies.end());
    out.replicate_tps.push_back(run.achieved_tps);
  }
  out.metrics = core::Metrics::FromLatencies(out.latencies);
  double tps_sum = 0;
  for (double t : out.replicate_tps) tps_sum += t;
  out.metrics.achieved_tps =
      out.replicate_tps.empty() ? 0 : tps_sum / out.replicate_tps.size();
  return out;
}

/// Percentile bootstrap (95%) of the mean over per-replicate TPS values.
/// Deterministic; degenerates to [v, v] for a single replicate (quick mode).
struct Interval {
  double lo = 0, hi = 0;
};

Interval BootstrapTpsCi(const std::vector<double>& tps) {
  if (tps.empty()) return {};
  Rng rng(20260808);
  std::vector<double> means;
  means.reserve(1000);
  for (int b = 0; b < 1000; ++b) {
    double sum = 0;
    for (size_t i = 0; i < tps.size(); ++i) {
      sum += tps[rng.Uniform(tps.size())];
    }
    means.push_back(sum / tps.size());
  }
  std::sort(means.begin(), means.end());
  return {means[static_cast<size_t>(0.025 * (means.size() - 1))],
          means[static_cast<size_t>(0.975 * (means.size() - 1))]};
}

void RunStudy(const char* study, double offered_tps, uint64_t n, int reps,
              const std::function<std::unique_ptr<workload::Workload>()>& wl) {
  std::printf("\n-- %s (offered %.0f tps, %d replicate(s) of %llu txns) --\n",
              study, offered_tps, reps, static_cast<unsigned long long>(n));
  ArmResult results[4];
  Interval cis[4];
  for (int i = 0; i < 4; ++i) {
    results[i] = RunArm(kArms[i], wl, offered_tps, n, reps);
    cis[i] = BootstrapTpsCi(results[i].replicate_tps);
    const std::string label = std::string(study) + "." + kArms[i].name;
    bench::PrintMetrics(label, results[i].metrics);
    std::printf("  %-24s tps=%.0f ci=[%.0f, %.0f] steer_delayed=%llu\n",
                label.c_str(), results[i].metrics.achieved_tps, cis[i].lo,
                cis[i].hi,
                static_cast<unsigned long long>(results[i].stats.steer_delayed));
    bench::Report::Global().AddValue(label + ".tps_ci_lo", cis[i].lo);
    bench::Report::Global().AddValue(label + ".tps_ci_hi", cis[i].hi);
    bench::Report::Global().AddValue(
        label + ".steer_delayed",
        static_cast<double>(results[i].stats.steer_delayed));
  }

  // Acceptance verdict: CP-VATS tail no worse than VATS, TPS interval
  // overlapping or better (cpvats.hi >= vats.lo).
  const ArmResult& vats = results[1];
  const ArmResult& cpvats = results[3];
  const bool p999_ok = cpvats.metrics.p999_ms <= vats.metrics.p999_ms;
  const bool tps_ok = cis[3].hi >= cis[1].lo;
  std::printf("  verdict: cpvats p99.9 %.3fms %s vats %.3fms; tps %s\n",
              cpvats.metrics.p999_ms, p999_ok ? "<=" : ">",
              vats.metrics.p999_ms,
              tps_ok ? "overlapping-or-better" : "WORSE");
  bench::Report::Global().AddValue(
      std::string(study) + ".verdict.p999_le_vats", p999_ok ? 1 : 0);
  bench::Report::Global().AddValue(
      std::string(study) + ".verdict.tps_not_worse", tps_ok ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitReport(argc, argv, "bench_conflict_sched");
  bench::Header("Conflict-predictive scheduling: FCFS / VATS / CATS / CP-VATS");

  const uint64_t n = bench::N(4000);
  const int reps = bench::Reps(3);

  RunStudy("ycsb_zipf", /*offered_tps=*/800, n, reps, [] {
    workload::YcsbConfig cfg;
    cfg.rows = 2000;
    cfg.zipf_theta = 0.99;
    cfg.ops_per_txn = 4;
    cfg.pct_reads = 20;
    return std::make_unique<workload::Ycsb>(cfg);
  });

  RunStudy("tpcc_hot", /*offered_tps=*/420, n, reps, [] {
    // One warehouse: every New-Order serializes on its district row.
    return std::make_unique<workload::Tpcc>(core::Toolkit::TpccContended());
  });
  return 0;
}
