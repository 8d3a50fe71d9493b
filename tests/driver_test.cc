#include "workload/driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "engine/factory.h"
#include "workload/ycsb.h"

namespace tdp::workload {
namespace {

engine::MySQLMiniConfig FastEngine() {
  engine::MySQLMiniConfig cfg;
  cfg.row_work_ns = 1000;
  cfg.btree.level_work_ns = 0;
  cfg.data_disk.base_latency_ns = 0;
  cfg.data_disk.sigma = 0;
  cfg.log_disk.base_latency_ns = 2000;
  cfg.log_disk.sigma = 0;
  cfg.log_disk.flush_barrier_ns = 0;
  return cfg;
}

std::unique_ptr<engine::Database> OpenFast() {
  engine::EngineConfig config;
  config.mysql = FastEngine();
  auto db = engine::OpenDatabase(engine::EngineKind::kMySQLMini, config);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db.value());
}

TEST(DriverTest, RunsRequestedNumberOfTxns) {
  auto db = OpenFast();
  YcsbConfig wcfg;
  wcfg.rows = 2000;
  Ycsb ycsb(wcfg);
  ycsb.Load(db.get());

  DriverConfig cfg;
  cfg.tps = 2000;
  cfg.service.workers = 8;
  cfg.num_txns = 500;
  cfg.warmup_txns = 100;
  const RunResult result = workload::Run(db.get(), &ycsb, cfg);

  EXPECT_EQ(result.committed, 500u);
  EXPECT_EQ(result.latencies.size(), 400u);  // post-warmup only
  EXPECT_GT(result.achieved_tps, 0);
  EXPECT_EQ(result.gave_up, 0u);
}

TEST(DriverTest, LatenciesArePositiveAndMeasured) {
  auto db = OpenFast();
  YcsbConfig wcfg;
  wcfg.rows = 2000;
  Ycsb ycsb(wcfg);
  ycsb.Load(db.get());

  DriverConfig cfg;
  cfg.tps = 1000;
  cfg.service.workers = 4;
  cfg.num_txns = 200;
  cfg.warmup_txns = 0;
  const RunResult result = workload::Run(db.get(), &ycsb, cfg);
  ASSERT_EQ(result.latencies.size(), 200u);
  for (int64_t l : result.latencies) EXPECT_GT(l, 0);
  const LatencySummary sum = result.Summary();
  EXPECT_GT(sum.mean_ns, 0);
  EXPECT_GT(result.LpNorm(2), 0);
}

TEST(DriverTest, ByTypeBucketsSumToTotal) {
  auto db = OpenFast();
  YcsbConfig wcfg;
  wcfg.rows = 2000;
  Ycsb ycsb(wcfg);
  ycsb.Load(db.get());

  DriverConfig cfg;
  cfg.tps = 2000;
  cfg.service.workers = 4;
  cfg.num_txns = 300;
  cfg.warmup_txns = 50;
  const RunResult result = workload::Run(db.get(), &ycsb, cfg);
  size_t total = 0;
  for (const auto& [type, v] : result.by_type) total += v.size();
  EXPECT_EQ(total, result.latencies.size());
}

TEST(DriverTest, HookFiresPerMeasuredTxn) {
  auto db = OpenFast();
  YcsbConfig wcfg;
  wcfg.rows = 2000;
  Ycsb ycsb(wcfg);
  ycsb.Load(db.get());

  std::atomic<uint64_t> events{0};
  DriverConfig cfg;
  cfg.tps = 2000;
  cfg.service.workers = 4;
  cfg.num_txns = 300;
  cfg.warmup_txns = 100;
  workload::Run(db.get(), &ycsb, cfg, [&](const TxnEvent& ev) {
    EXPECT_GT(ev.engine_txn_id, 0u);
    EXPECT_GT(ev.latency_ns, 0);
    EXPECT_GE(ev.commit_ns, ev.dispatch_ns);
    events.fetch_add(1);
  });
  EXPECT_EQ(events.load(), 200u);
}

TEST(DriverTest, PoissonArrivalsRunAllTxnsNearTargetRate) {
  auto db = OpenFast();
  YcsbConfig wcfg;
  wcfg.rows = 2000;
  Ycsb ycsb(wcfg);
  ycsb.Load(db.get());

  DriverConfig cfg;
  cfg.tps = 1000;
  cfg.service.workers = 8;
  cfg.num_txns = 1000;
  cfg.warmup_txns = 100;
  cfg.arrival = ArrivalProcess::kPoisson;
  const RunResult result = workload::Run(db.get(), &ycsb, cfg);
  EXPECT_EQ(result.committed, 1000u);
  EXPECT_EQ(result.latencies.size(), 900u);
  // Exponential gaps average to the same offered rate; generous CI bounds.
  EXPECT_NEAR(result.achieved_tps, 1000, 400);
}

TEST(DriverTest, PoissonGapsVaryUnlikeConstantRate) {
  // The Poisson stream must actually be irregular: with the same seed and
  // rate, the constant-rate dispatcher has (near-)identical inter-dispatch
  // gaps while the Poisson one does not. Compare dispatch-time spreads.
  auto run = [&](ArrivalProcess arrival) {
    auto db = OpenFast();
    YcsbConfig wcfg;
    wcfg.rows = 2000;
    Ycsb ycsb(wcfg);
    ycsb.Load(db.get());
    std::vector<int64_t> dispatch;
    std::mutex mu;
    DriverConfig cfg;
    cfg.tps = 2000;
    cfg.service.workers = 1;  // one worker: dispatch times are ordered
    cfg.num_txns = 300;
    cfg.warmup_txns = 0;
    cfg.arrival = arrival;
    workload::Run(db.get(), &ycsb, cfg, [&](const TxnEvent& ev) {
      std::lock_guard<std::mutex> g(mu);
      dispatch.push_back(ev.dispatch_ns);
    });
    std::sort(dispatch.begin(), dispatch.end());
    std::vector<double> gaps;
    for (size_t i = 1; i < dispatch.size(); ++i) {
      gaps.push_back(static_cast<double>(dispatch[i] - dispatch[i - 1]));
    }
    double mean = 0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return std::sqrt(var) / mean;  // coefficient of variation of the gaps
  };
  const double cov_poisson = run(ArrivalProcess::kPoisson);
  const double cov_constant = run(ArrivalProcess::kConstant);
  // Exponential gaps have CoV ~1; a paced constant stream is far tighter.
  EXPECT_GT(cov_poisson, 0.5);
  EXPECT_LT(cov_constant, cov_poisson);
}

TEST(DriverTest, ApproximatesTargetRate) {
  auto db = OpenFast();
  YcsbConfig wcfg;
  wcfg.rows = 2000;
  Ycsb ycsb(wcfg);
  ycsb.Load(db.get());

  DriverConfig cfg;
  cfg.tps = 1000;
  cfg.service.workers = 8;
  cfg.num_txns = 1000;
  cfg.warmup_txns = 0;
  const RunResult result = workload::Run(db.get(), &ycsb, cfg);
  // 1000 txns at 1000 tps ≈ 1s elapsed; generous bounds for CI noise.
  EXPECT_GT(result.elapsed_s, 0.8);
  EXPECT_LT(result.elapsed_s, 3.0);
  EXPECT_NEAR(result.achieved_tps, 1000, 350);
}

/// Every transaction fails with a retryable error; counts the attempts.
class AlwaysDeadlocks : public Workload {
 public:
  std::string name() const override { return "always_deadlocks"; }
  void Load(engine::Database*) override {}
  Txn NextTxn(Rng*) override {
    Txn t;
    t.body = [this](engine::Connection&) {
      attempts.fetch_add(1);
      return Status::Deadlock("injected");
    };
    return t;
  }
  std::atomic<uint64_t> attempts{0};
};

TEST(DriverTest, RetryableFailureRunsMaxAttemptsThenGivesUpWithoutRequeue) {
  auto db = OpenFast();
  AlwaysDeadlocks wl;
  DriverConfig cfg;
  cfg.tps = 5000;
  cfg.num_txns = 20;
  cfg.warmup_txns = 0;
  ASSERT_EQ(cfg.service.retry.max_attempts, 51);
  const metrics::MetricsSnapshot before =
      metrics::Registry::Global().TakeSnapshot();
  const RunResult result = workload::Run(db.get(), &wl, cfg);
  const metrics::MetricsSnapshot delta = metrics::MetricsSnapshot::Delta(
      before, metrics::Registry::Global().TakeSnapshot());

  EXPECT_EQ(wl.attempts.load(),
            cfg.num_txns * static_cast<uint64_t>(cfg.service.retry.max_attempts));
  EXPECT_EQ(result.gave_up, cfg.num_txns);
  EXPECT_EQ(result.committed, 0u);
  EXPECT_EQ(result.stats.requeues, 0u);
  EXPECT_EQ(delta.counter("server.requeues"), 0u);
}

TEST(DriverTest, BurstBeyondServiceDefaultDepthIsNeverShed) {
  auto db = OpenFast();
  YcsbConfig wcfg;
  wcfg.rows = 2000;
  Ycsb ycsb(wcfg);
  ycsb.Load(db.get());

  DriverConfig cfg;
  cfg.tps = 1e6;  // the whole burst arrives faster than one worker drains it
  cfg.num_txns = 4 * server::ServiceConfig{}.max_queue_depth;
  cfg.warmup_txns = 0;
  cfg.service.workers = 1;
  const RunResult result = workload::Run(db.get(), &ycsb, cfg);
  EXPECT_EQ(result.stats.shed, 0u);
  EXPECT_EQ(result.stats.submitted, cfg.num_txns);
  EXPECT_EQ(result.committed, cfg.num_txns);
}

}  // namespace
}  // namespace tdp::workload
