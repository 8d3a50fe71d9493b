// Conflict-predictive scheduling properties (docs/scheduling.md):
//
//  * No starvation: across 100 seeds of adversarial scores, a steered
//    admission pop never jumps an overdue eldest, never loses an entry, and
//    degenerates to plain eldest-first when everything is flagged.
//  * Grant order: under lock::SchedulerPolicy::kCPVATS the lock manager
//    grants waiters in (predicted weight desc, age, id) order — checked
//    against a single-threaded reference model over seeded footprints — and
//    degrades exactly to VATS without a scorer or without footprints.
//  * Accounting: under server::DispatchPolicy::kConflictAware the admission
//    identities stay exact and the sched.* counters obey
//    hits + false_positives == flagged, with steer_delayed == flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/work.h"
#include "engine/factory.h"
#include "lock/lock_manager.h"
#include "sched/conflict_predictor.h"
#include "server/service.h"

namespace tdp {
namespace {

// --- AdmissionQueue steering: no starvation ---------------------------------

// The PopSteered guarantee, stated checkably: whenever any queued entry is
// past the age deadline, the eldest entry is too (ages are monotone in admit
// order), the eldest is always scanned first, and an overdue entry is
// acceptable before its score is even consulted — so the pop must return
// the eldest. A younger entry may dispatch first only while nothing is
// overdue, and only because its own score cleared the threshold.
TEST(ConflictSchedPropertyTest, SteeredPopNeverJumpsOverdueEldestAcross100Seeds) {
  const int64_t step = MillisToNanos(1);
  const int64_t max_delay = MillisToNanos(8);
  const double threshold = 1.0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    server::AdmissionQueue<int> q(server::DispatchPolicy::kConflictAware,
                                  4096);
    // Deterministic adversarial scores: most items flagged; every 5th seed
    // flags *everything* (the pure-fallback regime).
    const bool all_flagged = seed % 5 == 0;
    auto flagged = [&](int item) {
      return all_flagged ||
             (static_cast<uint64_t>(item) * 2654435761u + seed) % 10 < 7;
    };
    auto score = [&](int item) { return flagged(item) ? 2.0 : 0.0; };

    int64_t now = 0;
    int next_item = 0;
    const int total = 120;
    std::map<int64_t, int> shadow;  // admit_ns -> item (admits are distinct)
    std::vector<bool> dispatched(total, false);
    while (next_item < total || !q.empty()) {
      now += step;
      if (next_item < total && rng.Bernoulli(0.6)) {
        ASSERT_TRUE(q.Push(next_item, now));
        shadow.emplace(now, next_item);
        ++next_item;
      }
      if (q.empty()) continue;
      server::AdmissionQueue<int>::Entry e;
      int skips = 0;
      ASSERT_TRUE(q.PopSteered(&e, now, max_delay, threshold,
                               /*scan_limit=*/4, score,
                               [&](int) { ++skips; }));
      ASSERT_FALSE(shadow.empty());
      const auto eldest = *shadow.begin();
      if (now - eldest.first >= max_delay) {
        // An overdue eldest is never jumped.
        EXPECT_EQ(e.item, eldest.second)
            << "seed " << seed << ": overdue eldest was jumped";
      }
      if (e.item != eldest.second) {
        // A jump needs a clean score and a non-overdue eldest.
        EXPECT_LE(score(e.item), threshold);
        EXPECT_LT(now - eldest.first, max_delay);
      }
      if (all_flagged) {
        // Pure fallback: plain eldest-first, and nothing counts as skipped.
        EXPECT_EQ(e.item, eldest.second);
        EXPECT_EQ(skips, 0);
      }
      ASSERT_FALSE(dispatched[e.item]) << "double dispatch";
      dispatched[e.item] = true;
      shadow.erase(e.admit_ns);
    }
    // Every admitted item dispatched exactly once: no starvation, no loss.
    EXPECT_EQ(std::count(dispatched.begin(), dispatched.end(), true), total)
        << "seed " << seed;
    EXPECT_TRUE(shadow.empty());
  }
}

TEST(ConflictSchedPropertyTest, SteerSkipPreservesEldestTotalOrder) {
  // A skipped entry keeps its seq: after being jumped once it is still in
  // front of every same-admit entry behind it.
  server::AdmissionQueue<int> q(server::DispatchPolicy::kConflictAware, 64);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.Push(i, /*admit_ns=*/100));
  int skips = 0;
  server::AdmissionQueue<int>::Entry e;
  // Item 0 is flagged, item 1 clean: 1 dispatches, 0 is skipped (and only 0
  // was scanned past).
  ASSERT_TRUE(q.PopSteered(&e, /*now_ns=*/200, MillisToNanos(10), 1.0, 4,
                           [](int item) { return item == 0 ? 2.0 : 0.0; },
                           [&](int item) {
                             EXPECT_EQ(item, 0);
                             ++skips;
                           }));
  EXPECT_EQ(e.item, 1);
  EXPECT_EQ(skips, 1);
  // With scores clear, the skipped item is still first among the rest.
  for (int expect : {0, 2, 3}) {
    ASSERT_TRUE(q.PopSteered(&e, 300, MillisToNanos(10), 1.0, 4,
                             [](int) { return 0.0; }, [](int) {}));
    EXPECT_EQ(e.item, expect);
  }
  EXPECT_TRUE(q.empty());
}

// --- kCPVATS grant order vs. a reference model ------------------------------

constexpr lock::RecordId kRec{9, 7};

lock::LockManagerConfig LockConfig(lock::SchedulerPolicy p,
                                   lock::ConflictScorer* scorer) {
  lock::LockManagerConfig cfg;
  cfg.policy = p;
  cfg.wait_timeout_ns = MillisToNanos(5000);
  cfg.scorer = scorer;
  return cfg;
}

/// Stages waiters (id = index + 1) with forced births and declared
/// footprints behind a held X lock, releases, and returns ids in grant
/// order. Mirrors scheduler_policy_test's harness plus footprints.
std::vector<uint64_t> GrantOrder(
    lock::LockManagerConfig cfg,
    const std::vector<std::pair<int64_t, std::vector<uint64_t>>>& spec) {
  lock::LockManager lm(cfg);
  lock::TxnContext holder(1000);
  EXPECT_TRUE(lm.Lock(&holder, kRec, lock::LockMode::kX).ok());

  std::mutex order_mu;
  std::vector<uint64_t> order;
  const int64_t base = NowNanos();
  struct Waiter {
    std::unique_ptr<lock::TxnContext> txn;
    std::thread thread;
  };
  std::vector<Waiter> waiters(spec.size());
  for (size_t i = 0; i < spec.size(); ++i) {
    auto& w = waiters[i];
    w.txn = std::make_unique<lock::TxnContext>(i + 1);
    w.txn->birth_ns = base - spec[i].first;  // deterministic ages
    w.txn->footprint = spec[i].second;
    w.thread = std::thread([&, i] {
      Status s = lm.Lock(waiters[i].txn.get(), kRec, lock::LockMode::kX);
      EXPECT_TRUE(s.ok()) << s.ToString();
      {
        std::lock_guard<std::mutex> g(order_mu);
        order.push_back(waiters[i].txn->id);
      }
      SpinFor(100000);  // hold so exclusive grants cannot overlap-reorder
      lm.ReleaseAll(waiters[i].txn.get());
    });
    // Queue arrival order matches index order (the FCFS basis).
    while (lm.QueueDepths(kRec).second != i + 1) SpinFor(5000);
  }
  lm.ReleaseAll(&holder);
  for (auto& w : waiters) w.thread.join();
  return order;
}

TEST(ConflictSchedPropertyTest, CpVatsGrantsByPredictedWeightThenAge) {
  // Heats are distinct powers of two recorded at one instant, so lazy decay
  // scales every footprint score by a common factor and the reference
  // ordering is invariant under when the lock manager happens to sort.
  sched::PredictorConfig pcfg;
  pcfg.half_life_ns = MillisToNanos(10000);
  sched::ConflictPredictor pred(pcfg);
  const int64_t t0 = NowNanos();
  std::vector<uint64_t> hot;
  for (uint32_t k = 0; k < 4; ++k) {
    hot.push_back(sched::ConflictPredictor::Fingerprint(1, k));
    pred.RecordConflict(hot.back(), std::exp2(k + 1), t0);  // 2, 4, 8, 16
  }

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    // Arrival order 1..5; births strictly decreasing in age so every
    // tie falls to the elder, never to thread timing.
    std::vector<std::pair<int64_t, std::vector<uint64_t>>> spec;
    for (int i = 0; i < 5; ++i) {
      std::vector<uint64_t> fp;
      for (uint64_t k = 0; k < hot.size(); ++k) {
        if (rng.Bernoulli(0.5)) fp.push_back(hot[k]);
      }
      spec.emplace_back(MillisToNanos(50) - MillisToNanos(5) * i, fp);
    }

    // Reference model: single-threaded sort by (weight desc, birth asc,
    // id asc) — the documented CP-VATS order.
    std::vector<size_t> idx(spec.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      const double wa = pred.FootprintScore(spec[a].second, t0);
      const double wb = pred.FootprintScore(spec[b].second, t0);
      if (wa != wb) return wa > wb;
      if (spec[a].first != spec[b].first) {
        return spec[a].first > spec[b].first;  // larger offset = elder
      }
      return a < b;
    });
    std::vector<uint64_t> expected;
    for (size_t i : idx) expected.push_back(i + 1);

    const auto order = GrantOrder(
        LockConfig(lock::SchedulerPolicy::kCPVATS, &pred), spec);
    EXPECT_EQ(order, expected) << "seed " << seed;
  }
}

TEST(ConflictSchedPropertyTest, CpVatsDegradesToVatsWithoutScorer) {
  // Births reversed against arrival order — VATS grants eldest-first 4,3,2,1.
  const std::vector<std::pair<int64_t, std::vector<uint64_t>>> spec = {
      {MillisToNanos(10), {}},
      {MillisToNanos(20), {}},
      {MillisToNanos(30), {}},
      {MillisToNanos(40), {}},
  };
  const auto no_scorer =
      GrantOrder(LockConfig(lock::SchedulerPolicy::kCPVATS, nullptr), spec);
  EXPECT_EQ(no_scorer, (std::vector<uint64_t>{4, 3, 2, 1}));

  // A scorer with no learned heat (all weights 0) must not disturb it.
  sched::ConflictPredictor pred;
  const auto zero_weights =
      GrantOrder(LockConfig(lock::SchedulerPolicy::kCPVATS, &pred), spec);
  EXPECT_EQ(zero_weights, (std::vector<uint64_t>{4, 3, 2, 1}));
}

// --- service-level steering: accounting + bounded delay ---------------------

std::unique_ptr<engine::Database> OpenFast(
    lock::SchedulerPolicy policy = lock::SchedulerPolicy::kFCFS) {
  engine::EngineConfig config;
  config.mysql.lock.policy = policy;
  config.mysql.row_work_ns = 0;
  config.mysql.btree.level_work_ns = 0;
  config.mysql.data_disk.base_latency_ns = 0;
  config.mysql.data_disk.sigma = 0;
  config.mysql.log_disk.base_latency_ns = 0;
  config.mysql.log_disk.sigma = 0;
  config.mysql.log_disk.flush_barrier_ns = 0;
  auto db = engine::OpenDatabase(engine::EngineKind::kMySQLMini, config);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db.value());
}

class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> g(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Only a steered pop reads the predictor's in-flight set, so a service
// under any other policy must not write it: a FIFO service over a kCPVATS
// engine (whose predictor is on) leaves the set empty while a transaction
// declaring a footprint runs.
TEST(ConflictSchedPropertyTest, FifoServiceLeavesPredictorInflightSetEmpty) {
  auto db = OpenFast(lock::SchedulerPolicy::kCPVATS);
  sched::ConflictPredictor* pred = db->conflict_predictor();
  ASSERT_NE(pred, nullptr);
  const uint32_t table = db->CreateTable("t", 64);
  db->BulkUpsert(table, 0, storage::Row{0});

  server::ServiceConfig cfg;
  cfg.workers = 1;
  ASSERT_EQ(cfg.policy, server::DispatchPolicy::kFifo);
  server::TransactionService svc(db.get(), cfg);
  svc.Start();
  size_t tracked_during_dispatch = 1;
  ASSERT_TRUE(svc.Submit(
                     [&](engine::Connection& c) {
                       tracked_during_dispatch = pred->tracked_keys();
                       return c.Update(table, 0, 0, 1);
                     },
                     {sched::ConflictPredictor::Fingerprint(table, 0)},
                     nullptr)
                  .ok());
  svc.Shutdown();
  EXPECT_EQ(svc.stats().completed_ok, 1u);
  EXPECT_EQ(tracked_during_dispatch, 0u);
}

TEST(ConflictSchedPropertyTest, SteeringCountsFlaggedHitsAndFalsePositivesExactly) {
  auto db = OpenFast();
  const uint32_t table = db->CreateTable("t", 64);
  for (uint64_t k = 0; k < 16; ++k) db->BulkUpsert(table, k, storage::Row{0});

  sched::PredictorConfig pcfg;
  pcfg.half_life_ns = MillisToNanos(10000);  // no meaningful decay in-test
  sched::ConflictPredictor pred(pcfg);
  const uint64_t hot = sched::ConflictPredictor::Fingerprint(table, 0);
  pred.RecordConflict(hot, 100.0, NowNanos());

  server::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 256;
  cfg.policy = server::DispatchPolicy::kConflictAware;
  cfg.predictor = &pred;
  // Deadline far beyond the test so every decision is score-based (the
  // overdue path gets its own test below).
  cfg.max_steer_delay_ns = MillisToNanos(500);
  cfg.steer_scan_limit = 4;

  const metrics::MetricsSnapshot before =
      metrics::Registry::Global().TakeSnapshot();
  server::TransactionService svc(db.get(), cfg);
  svc.Start();

  // Pin both workers: hold_gate parks a transaction that *declares* the hot
  // fingerprint (keeping it registered in-flight for the whole drain) but
  // touches row 8, so steered transactions never block on it. drain_gate
  // pins the second worker while the backlog is staged.
  Gate hold_gate, drain_gate;
  std::atomic<int> pinned{0};
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    pinned.fetch_add(1);
                    hold_gate.Wait();
                    return c.Update(table, 8, 0, 1);
                  },
                         {hot}, [](const server::Response&) {})
                  .ok());
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    pinned.fetch_add(1);
                    drain_gate.Wait();
                    return c.Update(table, 9, 0, 1);
                  })
                  .ok());
  while (pinned.load() < 2) std::this_thread::yield();

  // Backlog (eldest first): three hot-declaring transactions, then a clean
  // one. All write distinct non-conflicting rows — every flag is a false
  // positive by construction.
  std::mutex done_mu;
  std::vector<int> completion_order;
  std::atomic<uint64_t> callbacks{0};
  auto tracked_done = [&](int tag) {
    return [&, tag](const server::Response& r) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      std::lock_guard<std::mutex> g(done_mu);
      completion_order.push_back(tag);
      callbacks.fetch_add(1);
    };
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.Submit(
                       [&, i](engine::Connection& c) {
                         return c.Update(table, 1 + static_cast<uint64_t>(i),
                                         0, 1);
                       },
                       {hot}, tracked_done(i))
                    .ok());
  }
  ASSERT_TRUE(svc.Submit(
                     [&](engine::Connection& c) {
                       return c.Update(table, 5, 0, 1);
                     },
                     {}, tracked_done(99))
                  .ok());

  // One worker drains the staged backlog while the hot pin stays in flight.
  drain_gate.Open();
  while (callbacks.load() < 4) std::this_thread::yield();
  hold_gate.Open();
  svc.Shutdown();

  // The clean transaction jumped all three flagged ones; the flagged ones
  // then dispatched via the all-flagged fallback, eldest-first.
  EXPECT_EQ(completion_order, (std::vector<int>{99, 0, 1, 2}));

  const server::TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.submitted, 6u);
  EXPECT_EQ(st.admitted + st.shed + st.rejected_recovering, st.submitted);
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
  EXPECT_EQ(st.completed, 6u);
  EXPECT_EQ(st.steer_delayed, 3u);

  const metrics::MetricsSnapshot delta = metrics::MetricsSnapshot::Delta(
      before, metrics::Registry::Global().TakeSnapshot());
  EXPECT_EQ(delta.counter("sched.flagged"), 3u);
  EXPECT_EQ(delta.counter("sched.steer_delays"), 3u);
  EXPECT_EQ(delta.counter("server.steer_delayed"), 3u);
  // None of the steered transactions actually conflicted.
  EXPECT_EQ(delta.counter("sched.hits"), 0u);
  EXPECT_EQ(delta.counter("sched.false_positives"), 3u);
  EXPECT_EQ(delta.counter("sched.hits") + delta.counter("sched.false_positives"),
            delta.counter("sched.flagged"));
  EXPECT_GE(delta.counter("sched.predictions"), 4u);
}

TEST(ConflictSchedPropertyTest, OverdueFlaggedRequestDispatchesWithinDeadline) {
  auto db = OpenFast();
  const uint32_t table = db->CreateTable("t", 64);
  for (uint64_t k = 0; k < 32; ++k) db->BulkUpsert(table, k, storage::Row{0});

  sched::ConflictPredictor pred;
  const uint64_t hot = sched::ConflictPredictor::Fingerprint(table, 0);
  pred.RecordConflict(hot, 100.0, NowNanos());

  server::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 256;
  cfg.policy = server::DispatchPolicy::kConflictAware;
  cfg.predictor = &pred;
  cfg.max_steer_delay_ns = MillisToNanos(1);
  cfg.steer_scan_limit = 8;
  server::TransactionService svc(db.get(), cfg);
  svc.Start();

  Gate hold_gate, drain_gate;
  std::atomic<int> pinned{0};
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    pinned.fetch_add(1);
                    hold_gate.Wait();
                    return c.Update(table, 30, 0, 1);
                  },
                         {hot}, [](const server::Response&) {})
                  .ok());
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    pinned.fetch_add(1);
                    drain_gate.Wait();
                    return c.Update(table, 31, 0, 1);
                  })
                  .ok());
  while (pinned.load() < 2) std::this_thread::yield();

  // One flagged transaction in front of a stream of clean, slow ones. The
  // clean stream would win every score comparison forever; the age deadline
  // must force the flagged one through mid-stream.
  std::mutex done_mu;
  std::vector<int> completion_order;
  std::atomic<uint64_t> callbacks{0};
  auto tracked_done = [&](int tag) {
    return [&, tag](const server::Response& r) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      std::lock_guard<std::mutex> g(done_mu);
      completion_order.push_back(tag);
      callbacks.fetch_add(1);
    };
  };
  ASSERT_TRUE(svc.Submit(
                     [&](engine::Connection& c) {
                       return c.Update(table, 1, 0, 1);
                     },
                     {hot}, tracked_done(0))
                  .ok());
  const int cleans = 10;
  for (int i = 0; i < cleans; ++i) {
    ASSERT_TRUE(svc.Submit(
                       [&, i](engine::Connection& c) {
                         SpinFor(300000);  // 300us: ages the flagged entry
                         return c.Update(table, 2 + static_cast<uint64_t>(i),
                                         0, 1);
                       },
                       {}, tracked_done(1 + i))
                    .ok());
  }

  drain_gate.Open();
  while (callbacks.load() < static_cast<uint64_t>(1 + cleans)) {
    std::this_thread::yield();
  }
  hold_gate.Open();
  svc.Shutdown();

  // Bounded delay: the flagged transaction did not run last — the deadline
  // pulled it ahead of at least the tail of the clean stream.
  ASSERT_EQ(completion_order.size(), static_cast<size_t>(1 + cleans));
  const auto pos = std::find(completion_order.begin(), completion_order.end(), 0);
  ASSERT_NE(pos, completion_order.end());
  EXPECT_LT(pos - completion_order.begin(),
            static_cast<std::ptrdiff_t>(completion_order.size() - 1))
      << "flagged request starved to the end of the queue";

  const server::TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
  EXPECT_EQ(st.completed, st.admitted);
}

TEST(ConflictSchedPropertyTest, RandomizedSteeringKeepsIdentitiesAcrossSeeds) {
  const metrics::MetricsSnapshot before =
      metrics::Registry::Global().TakeSnapshot();
  uint64_t flagged_total = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto db = OpenFast();
    const uint32_t table = db->CreateTable("t", 64);
    for (uint64_t k = 0; k < 16; ++k) db->BulkUpsert(table, k, storage::Row{0});

    sched::ConflictPredictor pred;
    std::vector<uint64_t> hot;
    for (uint32_t k = 0; k < 4; ++k) {
      hot.push_back(sched::ConflictPredictor::Fingerprint(table, k));
      pred.RecordConflict(hot.back(), 10.0 + k, NowNanos());
    }

    server::ServiceConfig cfg;
    cfg.workers = 3;
    cfg.max_queue_depth = 128;
    cfg.policy = server::DispatchPolicy::kConflictAware;
    cfg.predictor = &pred;
    cfg.max_steer_delay_ns = MillisToNanos(1);
    cfg.steer_scan_limit = 4;
    server::TransactionService svc(db.get(), cfg);
    svc.Start();

    Rng rng(seed);
    std::atomic<uint64_t> callbacks{0};
    uint64_t admitted_by_test = 0;
    for (int i = 0; i < 80; ++i) {
      std::vector<uint64_t> fp;
      for (uint64_t f : hot) {
        if (rng.Bernoulli(0.4)) fp.push_back(f);
      }
      const uint64_t row = rng.Uniform(16);
      const Status s = svc.Submit(
          [&, row](engine::Connection& c) { return c.Update(table, row, 0, 1); },
          std::move(fp),
          [&](const server::Response&) { callbacks.fetch_add(1); });
      if (s.ok()) ++admitted_by_test;
    }
    svc.Shutdown();

    const server::TransactionService::Stats st = svc.stats();
    EXPECT_EQ(st.admitted, admitted_by_test) << "seed " << seed;
    EXPECT_EQ(st.admitted + st.shed + st.rejected_recovering, st.submitted);
    EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
    EXPECT_EQ(callbacks.load(), st.admitted) << "one callback per admission";
    flagged_total += st.steer_delayed;
  }
  const metrics::MetricsSnapshot delta = metrics::MetricsSnapshot::Delta(
      before, metrics::Registry::Global().TakeSnapshot());
  // Every flagged request was classified exactly once at completion.
  EXPECT_EQ(delta.counter("sched.hits") + delta.counter("sched.false_positives"),
            delta.counter("sched.flagged"));
  EXPECT_EQ(delta.counter("sched.flagged"), flagged_total);
  EXPECT_GE(delta.counter("sched.steer_delays"), delta.counter("sched.flagged"));
}

}  // namespace
}  // namespace tdp
