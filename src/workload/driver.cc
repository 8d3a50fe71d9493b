#include "workload/driver.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "engine/txn.h"

namespace tdp::workload {

namespace {

struct Job {
  uint64_t seq;
  int64_t intended_ns;
  Workload::Txn txn;
};

struct SharedQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> jobs;
  bool done = false;

  void Push(Job job) {
    {
      std::lock_guard<std::mutex> g(mu);
      jobs.push_back(std::move(job));
    }
    cv.notify_one();
  }
  bool Pop(Job* out) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return done || !jobs.empty(); });
    if (jobs.empty()) return false;
    *out = std::move(jobs.front());
    jobs.pop_front();
    return true;
  }
  void Finish() {
    {
      std::lock_guard<std::mutex> g(mu);
      done = true;
    }
    cv.notify_all();
  }
};

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

RunResult RunConstantRate(engine::Database* db, Workload* wl,
                          const DriverConfig& config,
                          const TxnEventHook& hook) {
  RunResult result;
  result.offered_tps = config.tps;

  SharedQueue queue;
  std::mutex result_mu;

  std::atomic<uint64_t> committed{0}, deadlocks{0}, timeouts{0}, others{0},
      gave_up{0};

  const uint64_t warmup = config.warmup_txns;
  engine::RetryPolicy retry;
  retry.max_attempts = config.max_retries + 1;

  auto worker_fn = [&] {
    std::unique_ptr<engine::Connection> conn = db->Connect();
    Job job;
    while (queue.Pop(&job)) {
      conn->DeclareFootprint(job.txn.footprint);
      engine::TxnStats ts;
      const Status s = engine::RunTxn(*conn, retry, job.txn.body, &ts);
      deadlocks.fetch_add(ts.deadlock_aborts, std::memory_order_relaxed);
      timeouts.fetch_add(ts.timeout_aborts, std::memory_order_relaxed);
      others.fetch_add(ts.other_aborts, std::memory_order_relaxed);

      if (!s.ok()) {
        gave_up.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      committed.fetch_add(1, std::memory_order_relaxed);
      const int64_t end_ns = NowNanos();
      const int64_t latency = end_ns - job.intended_ns;
      if (job.seq >= warmup) {
        {
          std::lock_guard<std::mutex> g(result_mu);
          result.latencies.push_back(latency);
          result.by_type[job.txn.type].push_back(latency);
        }
        if (hook) {
          TxnEvent ev;
          ev.engine_txn_id = conn->current_txn_id();
          ev.type = job.txn.type;
          ev.dispatch_ns = job.intended_ns;
          ev.commit_ns = end_ns;
          ev.latency_ns = latency;
          hook(ev);
        }
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  for (int i = 0; i < config.connections; ++i) workers.emplace_back(worker_fn);

  Rng rng(config.seed);
  ArrivalClock arrivals(config);
  const int64_t start_ns = NowNanos();
  for (uint64_t i = 0; i < config.num_txns; ++i) {
    const int64_t intended = start_ns + arrivals.NextOffsetNs();
    SleepUntil(intended);
    queue.Push(Job{i, intended, wl->NextTxn(&rng)});
  }
  queue.Finish();
  for (std::thread& t : workers) t.join();
  const int64_t end_ns = NowNanos();

  result.committed = committed.load();
  result.deadlock_aborts = deadlocks.load();
  result.timeout_aborts = timeouts.load();
  result.other_aborts = others.load();
  result.gave_up = gave_up.load();
  result.elapsed_s = NanosToSeconds(end_ns - start_ns);
  result.achieved_tps =
      result.elapsed_s > 0
          ? static_cast<double>(result.committed) / result.elapsed_s
          : 0;
  return result;
}

RunResult RunService(server::TransactionService* service, Workload* wl,
                     const DriverConfig& config) {
  RunResult result;
  result.offered_tps = config.tps;

  std::mutex mu;  // Guards result + outstanding; callbacks are concurrent.
  std::condition_variable all_done;
  uint64_t outstanding = 0;
  uint64_t committed = 0, gave_up = 0, shed = 0;
  uint64_t deadlocks = 0, timeouts = 0, others = 0;

  const uint64_t warmup = config.warmup_txns;

  Rng rng(config.seed);
  ArrivalClock arrivals(config);
  const int64_t start_ns = NowNanos();
  for (uint64_t i = 0; i < config.num_txns; ++i) {
    const int64_t intended = start_ns + arrivals.NextOffsetNs();
    SleepUntil(intended);
    Workload::Txn txn = wl->NextTxn(&rng);
    const char* type = txn.type;
    {
      std::lock_guard<std::mutex> g(mu);
      ++outstanding;
    }
    Status s = service->Submit(
        std::move(txn.body), std::move(txn.footprint),
        [&, i, intended, type](const server::Response& r) {
          std::lock_guard<std::mutex> g(mu);
          if (r.status.ok()) {
            ++committed;
            const int64_t latency = r.done_ns - intended;
            if (i >= warmup) {
              result.latencies.push_back(latency);
              result.by_type[type].push_back(latency);
            }
          } else {
            if (r.status.IsDeadlock()) ++deadlocks;
            else if (r.status.IsLockTimeout()) ++timeouts;
            else ++others;
            ++gave_up;
          }
          if (--outstanding == 0) all_done.notify_one();
        });
    if (!s.ok()) {
      // Shed at the door: the callback never fires.
      std::lock_guard<std::mutex> g(mu);
      --outstanding;
      ++shed;
    }
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    all_done.wait(lk, [&] { return outstanding == 0; });
  }
  const int64_t end_ns = NowNanos();

  result.committed = committed;
  result.deadlock_aborts = deadlocks;
  result.timeout_aborts = timeouts;
  result.other_aborts = others;
  result.gave_up = gave_up;
  result.shed = shed;
  result.elapsed_s = NanosToSeconds(end_ns - start_ns);
  result.achieved_tps =
      result.elapsed_s > 0
          ? static_cast<double>(result.committed) / result.elapsed_s
          : 0;
  return result;
}

}  // namespace tdp::workload
