// Admission control study: throughput and tail latency of the
// TransactionService vs. offered load (DESIGN.md "The server layer").
//
// Four legs over the same contended hot-row workload on mysqlmini:
//   1. saturation  — a burst that keeps every worker busy measures the
//                    service capacity S.
//   2. overload    — open-loop Poisson arrivals at 2x S against a bounded
//                    queue: the door sheds the excess (Overloaded count > 0)
//                    while admitted throughput stays near S, instead of
//                    queueing delay growing without bound.
//   3. fifo        — 0.9x S, deep queue, FIFO dispatch.
//   4. eldest_first— same offered load and seeds, eldest-first dispatch.
//                    Deadlock victims requeue with their original admission
//                    time, so eldest-first pulls them forward — the VATS
//                    argument applied at the front door; p99.9 should be no
//                    worse than FIFO.
#include "bench/bench_util.h"
#include "common/clock.h"
#include "engine/factory.h"
#include "workload/driver.h"

using namespace tdp;

namespace {

/// Transfer-style hot-row workload: each transaction locks two distinct
/// keys (SELECT FOR UPDATE + UPDATE each) drawn mostly from a small hot
/// set, in *random* order — the classic deadlock generator, giving the
/// service a steady stream of retryable victims to requeue.
class HotPair : public workload::Workload {
 public:
  static constexpr uint64_t kRows = 1024;
  static constexpr uint64_t kHot = 4;

  std::string name() const override { return "hotpair"; }

  void Load(engine::Database* db) override {
    table_ = db->CreateTable("account", 64);
    for (uint64_t k = 0; k < kRows; ++k) {
      db->BulkUpsert(table_, k, storage::Row{1000, 0});
    }
  }

  Txn NextTxn(Rng* rng) override {
    uint64_t a = rng->Bernoulli(0.9) ? rng->Uniform(kHot) : rng->Uniform(kRows);
    uint64_t b = rng->Bernoulli(0.9) ? rng->Uniform(kHot) : rng->Uniform(kRows);
    while (b == a) b = rng->Uniform(kRows);
    if (rng->Bernoulli(0.5)) std::swap(a, b);
    const uint32_t table = table_;
    Txn t;
    t.type = "transfer";
    t.body = [table, a, b](engine::Connection& c) {
      Status s = c.SelectForUpdate(table, a);
      if (!s.ok()) return s;
      s = c.Update(table, a, 0, -1);
      if (!s.ok()) return s;
      s = c.SelectForUpdate(table, b);
      if (!s.ok()) return s;
      return c.Update(table, b, 0, 1);
    };
    return t;
  }

 private:
  uint32_t table_ = 0;
};

std::unique_ptr<engine::Database> MakeDb() {
  engine::EngineConfig cfg;
  // Capacity is CPU-shaped (row_work per access) rather than log-shaped:
  // lazy flush keeps commits off the serial log device so S scales with
  // the worker count and the closed-loop calibration is stable.
  cfg.mysql = core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS);
  cfg.mysql.flush_policy = log::FlushPolicy::kLazyFlush;
  cfg.mysql.row_work_ns = 150000;  // 4 accesses -> ~0.6 ms/txn of work
  cfg.mysql.lock.wait_timeout_ns = MillisToNanos(200);
  auto db = engine::OpenDatabase(engine::EngineKind::kMySQLMini, cfg);
  if (!db.ok()) {
    std::fprintf(stderr, "OpenDatabase: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  return std::move(db.value());
}

server::ServiceConfig ServiceBase() {
  server::ServiceConfig cfg;
  cfg.workers = 8;
  cfg.retry.max_attempts = 1;  // Retryable aborts requeue through the door.
  cfg.max_dispatches = 64;
  return cfg;
}

/// Capacity: all `n` arrivals are due at once into a queue that holds them,
/// so the pool never idles and completed/second == service capacity.
double MeasureSaturation(uint64_t n) {
  auto db = MakeDb();
  HotPair wl;
  wl.Load(db.get());

  workload::DriverConfig driver;
  driver.tps = 1e9;
  driver.num_txns = n;
  driver.warmup_txns = 0;
  driver.service = ServiceBase();
  driver.service.max_queue_depth = n;
  return workload::Run(db.get(), &wl, driver).achieved_tps;
}

workload::RunResult RunLeg(server::DispatchPolicy policy,
                           size_t max_queue_depth, double offered_tps,
                           uint64_t n, uint64_t seed) {
  auto db = MakeDb();
  HotPair wl;
  wl.Load(db.get());

  workload::DriverConfig driver;
  driver.tps = offered_tps;
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  driver.seed = seed;
  driver.arrival = workload::ArrivalProcess::kPoisson;
  driver.service = ServiceBase();
  driver.service.policy = policy;
  driver.service.max_queue_depth = max_queue_depth;
  return workload::Run(db.get(), &wl, driver);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitReport(argc, argv, "bench_server_admission");
  bench::Header("Admission control: throughput and p99.9 vs offered load");

  const double saturation = MeasureSaturation(bench::N(16000));
  std::printf("%-28s %.0f tps (saturating burst, 8 workers)\n", "saturation",
              saturation);
  bench::Report::Global().AddValue("saturation.tps", saturation);

  // Overload: 2x capacity into a shallow bounded queue. The door sheds the
  // excess; what is admitted still completes at ~saturation throughput.
  {
    const workload::RunResult leg =
        RunLeg(server::DispatchPolicy::kFifo, /*max_queue_depth=*/64,
               /*offered_tps=*/2 * saturation, bench::N(6000), /*seed=*/7);
    bench::PrintMetrics("overload.2x", core::Metrics::From(leg));
    const double admitted_tps =
        leg.elapsed_s > 0
            ? static_cast<double>(leg.stats.completed_ok) / leg.elapsed_s
            : 0;
    std::printf("%-28s shed=%llu admitted_tps=%.0f (%.2fx saturation)\n",
                "overload.2x", static_cast<unsigned long long>(leg.stats.shed),
                admitted_tps, saturation > 0 ? admitted_tps / saturation : 0);
    bench::Report::Global().AddValue("overload.shed",
                                     static_cast<double>(leg.stats.shed));
    bench::Report::Global().AddValue("overload.achieved_tps", admitted_tps);
    bench::Report::Global().AddValue(
        "overload.saturation_ratio",
        saturation > 0 ? admitted_tps / saturation : 0);
  }

  // Dispatch policy at high-but-feasible load: same offered load and seeds,
  // deep queue so nothing sheds; the only difference is who goes next.
  {
    const double offered = 0.9 * saturation;
    const uint64_t n = bench::N(6000);
    const workload::RunResult fifo = RunLeg(
        server::DispatchPolicy::kFifo, /*max_queue_depth=*/65536, offered, n, 7);
    const workload::RunResult eldest =
        RunLeg(server::DispatchPolicy::kEldestFirst,
               /*max_queue_depth=*/65536, offered, n, 7);
    const core::Metrics fifo_m = core::Metrics::From(fifo);
    const core::Metrics eldest_m = core::Metrics::From(eldest);
    bench::PrintMetrics("fifo.0.9x", fifo_m);
    bench::PrintMetrics("eldest_first.0.9x", eldest_m);
    std::printf("%-28s fifo=%.3fms eldest_first=%.3fms (requeues %llu vs "
                "%llu)\n",
                "p99.9", fifo_m.p999_ms, eldest_m.p999_ms,
                static_cast<unsigned long long>(fifo.stats.requeues),
                static_cast<unsigned long long>(eldest.stats.requeues));
    bench::Report::Global().AddValue("fifo.p999_ms", fifo_m.p999_ms);
    bench::Report::Global().AddValue("eldest_first.p999_ms", eldest_m.p999_ms);
    bench::Report::Global().AddValue(
        "policy.p999_ratio",
        eldest_m.p999_ms > 0 ? fifo_m.p999_ms / eldest_m.p999_ms : 0);
  }
  return 0;
}
