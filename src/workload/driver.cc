#include "workload/driver.h"

#include <cmath>
#include <mutex>
#include <thread>

#include "common/clock.h"

namespace tdp::workload {

namespace {

/// Produces the arrival schedule: intended dispatch offset (ns from start)
/// of transaction i. Constant spacing or exponential gaps, both with mean
/// 1/tps, both deterministic given the config seed.
class ArrivalClock {
 public:
  explicit ArrivalClock(const DriverConfig& config)
      : arrival_(config.arrival),
        interval_ns_(1e9 / config.tps),
        // Distinct stream from the workload's NextTxn RNG so adding the
        // Poisson mode never perturbs the transaction mix.
        rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {}

  int64_t NextOffsetNs() {
    const int64_t at = static_cast<int64_t>(next_ns_);
    if (arrival_ == ArrivalProcess::kPoisson) {
      // Inverse-CDF exponential; NextDouble() is in [0, 1).
      next_ns_ += -std::log(1.0 - rng_.NextDouble()) * interval_ns_;
    } else {
      next_ns_ += interval_ns_;
    }
    return at;
  }

 private:
  const ArrivalProcess arrival_;
  const double interval_ns_;
  Rng rng_;
  double next_ns_ = 0;
};

void SleepUntil(int64_t intended_ns) {
  const int64_t now = NowNanos();
  if (intended_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(intended_ns - now));
  }
}

}  // namespace

RunResult Run(engine::Database* db, Workload* wl, const DriverConfig& config,
              const TxnEventHook& hook) {
  RunResult result;
  result.offered_tps = config.tps;
  std::mutex mu;  // Guards result; callbacks are concurrent.
  const uint64_t warmup = config.warmup_txns;

  server::TransactionService service(db, config.service);
  service.Start();
  Rng rng(config.seed);
  ArrivalClock arrivals(config);
  const int64_t start_ns = NowNanos();
  for (uint64_t i = 0; i < config.num_txns; ++i) {
    const int64_t intended = start_ns + arrivals.NextOffsetNs();
    SleepUntil(intended);
    Workload::Txn txn = wl->NextTxn(&rng);
    const char* type = txn.type;
    // A shed submission never calls back; it shows in result.stats.shed.
    service.Submit(
        std::move(txn.body), std::move(txn.footprint),
        [&, i, intended, type](const server::Response& r) {
          const int64_t latency = r.done_ns - intended;
          const bool measured = r.status.ok() && i >= warmup;
          if (measured && hook) {
            TxnEvent ev;
            ev.engine_txn_id = r.engine_txn_id;
            ev.type = type;
            ev.dispatch_ns = intended;
            ev.commit_ns = r.done_ns;
            ev.latency_ns = latency;
            hook(ev);
          }
          std::lock_guard<std::mutex> g(mu);
          if (!r.status.ok()) {
            ++result.gave_up;
            return;
          }
          ++result.committed;
          if (measured) {
            result.latencies.push_back(latency);
            result.by_type[type].push_back(latency);
          }
        });
  }
  // Shutdown drains the backlog and waits for every callback.
  service.Shutdown();
  const int64_t end_ns = NowNanos();

  result.stats = service.stats();
  result.elapsed_s = NanosToSeconds(end_ns - start_ns);
  result.achieved_tps =
      result.elapsed_s > 0
          ? static_cast<double>(result.committed) / result.elapsed_s
          : 0;
  return result;
}

}  // namespace tdp::workload
