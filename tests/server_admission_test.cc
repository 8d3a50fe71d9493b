// TransactionService and AdmissionQueue: bounded depth under overload, shed
// accounting, dispatch-order properties, and clean drain at shutdown.
#include "server/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/crash_point.h"
#include "common/random.h"
#include "engine/factory.h"

namespace tdp::server {
namespace {

std::unique_ptr<engine::Database> OpenFast() {
  engine::EngineConfig config;
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

uint32_t LoadOneTable(engine::Database* db) {
  const uint32_t t = db->CreateTable("t", 64);
  for (uint64_t k = 0; k < 16; ++k) db->BulkUpsert(t, k, storage::Row{0});
  return t;
}

/// A latch the test holds closed to pin workers inside a transaction body,
/// making queue occupancy deterministic.
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

// --- AdmissionQueue unit properties ----------------------------------------

TEST(AdmissionQueueTest, PushFailsAtMaxDepthAndDropsNothing) {
  AdmissionQueue<int> q(DispatchPolicy::kFifo, 3);
  EXPECT_TRUE(q.Push(1, 10));
  EXPECT_TRUE(q.Push(2, 20));
  EXPECT_TRUE(q.Push(3, 30));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.Push(4, 40));
  EXPECT_EQ(q.size(), 3u);
  AdmissionQueue<int>::Entry e;
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.item, 1);  // the rejected push left the order untouched
}

TEST(AdmissionQueueTest, FifoDispatchesInPushOrderIgnoringAdmitTimes) {
  AdmissionQueue<int> q(DispatchPolicy::kFifo, 64);
  // Admission times deliberately reversed: FIFO must ignore them.
  for (int i = 0; i < 10; ++i) q.Push(i, /*admit_ns=*/1000 - i);
  for (int i = 0; i < 10; ++i) {
    AdmissionQueue<int>::Entry e;
    ASSERT_TRUE(q.Pop(&e));
    EXPECT_EQ(e.item, i);
  }
}

TEST(AdmissionQueueTest, EldestFirstOrderingProperty) {
  // Property: popping a kEldestFirst queue yields non-decreasing admit_ns,
  // with push order (seq) breaking ties — across random interleavings of
  // pushes and pops.
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    AdmissionQueue<int> q(DispatchPolicy::kEldestFirst, 1024);
    int64_t last_admit = -1;
    uint64_t last_seq = 0;
    bool have_last = false;
    int pushed = 0;
    while (pushed < 200 || !q.empty()) {
      const bool can_push = pushed < 200;
      if (can_push && (q.empty() || rng.Bernoulli(0.6))) {
        // Small admit range forces plenty of ties onto the seq tiebreak.
        q.Push(pushed++, static_cast<int64_t>(rng.Uniform(20)));
        continue;
      }
      AdmissionQueue<int>::Entry e;
      ASSERT_TRUE(q.Pop(&e));
      if (have_last && last_admit == e.admit_ns) {
        EXPECT_LT(last_seq, e.seq) << "tie not broken by push order";
      }
      // A pop resets the floor only per drain segment: entries pushed after
      // this pop may be older. Compare only within what was queued together.
      last_admit = e.admit_ns;
      last_seq = e.seq;
      have_last = true;
    }
  }
}

TEST(AdmissionQueueTest, EldestFirstFullDrainIsSortedByAdmitTime) {
  Rng rng(99);
  AdmissionQueue<int> q(DispatchPolicy::kEldestFirst, 512);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(q.Push(i, static_cast<int64_t>(rng.Uniform(1000))));
  }
  auto drained = q.PopAll();
  ASSERT_EQ(drained.size(), 300u);
  for (size_t i = 1; i < drained.size(); ++i) {
    EXPECT_LE(drained[i - 1].admit_ns, drained[i].admit_ns);
    if (drained[i - 1].admit_ns == drained[i].admit_ns) {
      EXPECT_LT(drained[i - 1].seq, drained[i].seq);
    }
  }
}

// --- requeue order stability ------------------------------------------------

// The audit this pins: under the age-ordered policies a requeued entry must
// keep its original seq, not take a fresh one. With a fresh seq, two entries
// admitted at the same timestamp would swap places every time one of them
// bounced through a requeue — the eldest-first total order would not be
// stable under requeue.
TEST(AdmissionQueueTest, RequeuePreservesSeqUnderEldestFirst) {
  AdmissionQueue<int> q(DispatchPolicy::kEldestFirst, 64);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.Push(i, /*admit_ns=*/100));
  AdmissionQueue<int>::Entry a, b;
  ASSERT_TRUE(q.Pop(&a));
  ASSERT_TRUE(q.Pop(&b));
  EXPECT_EQ(a.item, 0);
  EXPECT_EQ(b.item, 1);
  // Requeue in reverse: seq (not requeue order) must decide.
  ASSERT_TRUE(q.Requeue(std::move(b)));
  ASSERT_TRUE(q.Requeue(std::move(a)));
  for (int expect = 0; expect < 6; ++expect) {
    AdmissionQueue<int>::Entry e;
    ASSERT_TRUE(q.Pop(&e));
    EXPECT_EQ(e.item, expect);
  }
}

TEST(AdmissionQueueTest, FifoRequeueGoesToTheBack) {
  // kFifo documents "requeues go to the back": a requeue is a fresh arrival
  // and takes a new seq.
  AdmissionQueue<int> q(DispatchPolicy::kFifo, 64);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.Push(i, /*admit_ns=*/100));
  AdmissionQueue<int>::Entry e;
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.item, 0);
  ASSERT_TRUE(q.Requeue(std::move(e)));
  std::vector<int> drained;
  while (q.Pop(&e)) drained.push_back(e.item);
  EXPECT_EQ(drained, (std::vector<int>{1, 2, 0}));
}

// Property: across random interleavings of pushes, pops, and requeues, an
// eldest-first queue's dispatch order is always exactly the sorted
// (admit_ns, original seq) order — requeues cannot reshuffle it.
TEST(AdmissionQueueTest, EldestFirstTotalOrderStableUnderRequeue) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    AdmissionQueue<int> q(DispatchPolicy::kEldestFirst, 1024);
    // item -> (admit_ns, seq) as assigned at first push.
    std::vector<std::pair<int64_t, uint64_t>> key;
    std::vector<AdmissionQueue<int>::Entry> popped;
    int pushed = 0;
    const int total = 120;
    while (pushed < total || !q.empty() || !popped.empty()) {
      const int choice = static_cast<int>(rng.Uniform(3));
      if (choice == 0 && pushed < total) {
        // Small admit range: most of the order rides on the seq tiebreak.
        const int64_t admit = static_cast<int64_t>(rng.Uniform(8));
        ASSERT_TRUE(q.Push(pushed, admit));
        key.emplace_back(admit, 0);  // seq learned at pop below
        ++pushed;
        continue;
      }
      if (choice == 1 && !popped.empty()) {
        const size_t i = rng.Uniform(popped.size());
        ASSERT_TRUE(q.Requeue(std::move(popped[i])));
        popped.erase(popped.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      AdmissionQueue<int>::Entry e;
      if (!q.Pop(&e)) continue;
      key[static_cast<size_t>(e.item)] = {e.admit_ns, e.seq};
      // Hold some entries aside to requeue later, final-drain the rest.
      if (rng.Bernoulli(0.4) && popped.size() < 8) {
        popped.push_back(std::move(e));
      }
    }
    // Replay: push everything once more and drain with no requeues; the
    // drain order must equal sorting by the original (admit_ns, seq) —
    // i.e. the requeue-laden history never changed any entry's key.
    for (int i = 0; i < total; ++i) {
      ASSERT_TRUE(q.Push(i, key[static_cast<size_t>(i)].first));
    }
    std::vector<int> expect(total);
    for (int i = 0; i < total; ++i) expect[i] = i;
    std::stable_sort(expect.begin(), expect.end(), [&](int a, int b) {
      return key[static_cast<size_t>(a)] < key[static_cast<size_t>(b)];
    });
    AdmissionQueue<int>::Entry e;
    for (int i = 0; i < total; ++i) {
      ASSERT_TRUE(q.Pop(&e));
      EXPECT_EQ(e.item, expect[static_cast<size_t>(i)]) << "round " << round;
    }
  }
}

// --- TransactionService ----------------------------------------------------

TEST(TransactionServiceTest, BoundedDepthUnderOverloadShedsExactly) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 4;
  TransactionService svc(db.get(), cfg);
  svc.Start();

  Gate gate;
  std::atomic<int> entered{0};
  // Pin the single worker inside a transaction, then fill the queue.
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    entered.fetch_add(1);
                    gate.Wait();
                    return c.Update(table, 0, 0, 1);
                  })
                  .ok());
  while (entered.load() == 0) std::this_thread::yield();

  uint64_t accepted = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    const Status s =
        svc.Submit([&](engine::Connection& c) { return c.Update(table, 1, 0, 1); });
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_TRUE(s.IsOverloaded()) << s.ToString();
      ++rejected;
    }
  }
  // Exactly max_queue_depth fit behind the pinned worker.
  EXPECT_EQ(accepted, cfg.max_queue_depth);
  EXPECT_EQ(rejected, 10 - cfg.max_queue_depth);
  EXPECT_EQ(svc.queue_depth(), cfg.max_queue_depth);

  gate.Open();
  svc.Shutdown();

  const TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.submitted, 11u);
  EXPECT_EQ(st.shed, rejected);
  EXPECT_EQ(st.admitted + st.shed, st.submitted);
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(TransactionServiceTest, ShedSubmitNeverInvokesCallback) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 1;
  TransactionService svc(db.get(), cfg);
  svc.Start();

  Gate gate;
  std::atomic<int> entered{0};
  std::atomic<int> callbacks{0};
  auto done = [&](const Response&) { callbacks.fetch_add(1); };
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    entered.fetch_add(1);
                    gate.Wait();
                    return c.Update(table, 0, 0, 1);
                  },
                         done)
                  .ok());
  while (entered.load() == 0) std::this_thread::yield();
  ASSERT_TRUE(
      svc.Submit([&](engine::Connection& c) { return c.Update(table, 1, 0, 1); },
                 done)
          .ok());
  const Status shed =
      svc.Submit([&](engine::Connection& c) { return c.Update(table, 2, 0, 1); },
                 done);
  EXPECT_TRUE(shed.IsOverloaded());
  gate.Open();
  svc.Shutdown();
  EXPECT_EQ(callbacks.load(), 2);  // the shed submit's callback never fired
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(TransactionServiceTest, DrainCompletesBacklogWithZeroLeaks) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 4096;
  TransactionService svc(db.get(), cfg);
  svc.Start();

  std::atomic<uint64_t> callbacks{0}, ok{0};
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(svc.Submit(
                       [&, i](engine::Connection& c) {
                         return c.Update(table, static_cast<uint64_t>(i % 16),
                                         0, 1);
                       },
                       [&](const Response& r) {
                         callbacks.fetch_add(1);
                         if (r.status.ok()) ok.fetch_add(1);
                       })
                    .ok());
  }
  svc.Shutdown();  // drain_completes_backlog=true: everything runs

  EXPECT_EQ(callbacks.load(), static_cast<uint64_t>(n));
  const TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.submitted, static_cast<uint64_t>(n));
  EXPECT_EQ(st.admitted, static_cast<uint64_t>(n));
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.completed, static_cast<uint64_t>(n));
  EXPECT_EQ(st.completed_ok, ok.load());
  EXPECT_EQ(st.drain_aborted, 0u);
  EXPECT_EQ(svc.queue_depth(), 0u);
  // Every row delta landed: no transaction was lost or double-run.
  uint64_t total = 0;
  auto conn = db->Connect();
  ASSERT_TRUE(conn->Begin().ok());
  for (uint64_t k = 0; k < 16; ++k) {
    ASSERT_TRUE(conn->Select(table, k).ok());
    total += static_cast<uint64_t>(*conn->ReadColumn(table, k, 0));
  }
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(total, ok.load());
}

TEST(TransactionServiceTest, AbortingDrainDeliversAbortedToBacklog) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 64;
  cfg.drain_completes_backlog = false;
  TransactionService svc(db.get(), cfg);
  svc.Start();

  Gate gate;
  std::atomic<int> entered{0};
  std::atomic<uint64_t> aborted_callbacks{0}, ok_callbacks{0};
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    entered.fetch_add(1);
                    gate.Wait();
                    return c.Update(table, 0, 0, 1);
                  },
                         [&](const Response& r) {
                           if (r.status.ok()) ok_callbacks.fetch_add(1);
                         })
                  .ok());
  while (entered.load() == 0) std::this_thread::yield();
  const int backlog = 5;
  for (int i = 0; i < backlog; ++i) {
    ASSERT_TRUE(svc.Submit(
                       [&](engine::Connection& c) {
                         return c.Update(table, 1, 0, 1);
                       },
                       [&](const Response& r) {
                         EXPECT_TRUE(r.status.IsAborted())
                             << r.status.ToString();
                         EXPECT_EQ(r.dispatches, 0);
                         aborted_callbacks.fetch_add(1);
                       })
                    .ok());
  }
  gate.Open();
  svc.Shutdown();

  const TransactionService::Stats st = svc.stats();
  EXPECT_EQ(aborted_callbacks.load(), static_cast<uint64_t>(backlog));
  EXPECT_EQ(st.drain_aborted, static_cast<uint64_t>(backlog));
  // The in-flight transaction still ran to completion.
  EXPECT_EQ(ok_callbacks.load(), 1u);
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(TransactionServiceTest, QueueAgeDeadlineExpiresStaleRequests) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 64;
  cfg.max_queue_age_ns = MillisToNanos(5);
  TransactionService svc(db.get(), cfg);
  svc.Start();

  Gate gate;
  std::atomic<int> entered{0};
  std::atomic<uint64_t> overloaded{0};
  ASSERT_TRUE(svc.Submit([&](engine::Connection& c) {
                    entered.fetch_add(1);
                    gate.Wait();
                    return c.Update(table, 0, 0, 1);
                  })
                  .ok());
  while (entered.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.Submit(
                       [&](engine::Connection& c) {
                         return c.Update(table, 1, 0, 1);
                       },
                       [&](const Response& r) {
                         if (r.status.IsOverloaded()) overloaded.fetch_add(1);
                       })
                    .ok());
  }
  // Let the backlog age well past the deadline before releasing the worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  svc.Shutdown();

  const TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.expired, 4u);
  EXPECT_EQ(overloaded.load(), 4u);
  EXPECT_EQ(st.shed, 0u);  // deadline drops are expirations, not door sheds
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
}

TEST(TransactionServiceTest, SubmitAfterShutdownShedsWithOverloaded) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());
  ServiceConfig cfg;
  cfg.workers = 1;
  TransactionService svc(db.get(), cfg);
  svc.Start();
  svc.Shutdown();
  const Status s =
      svc.Submit([&](engine::Connection& c) { return c.Update(table, 0, 0, 1); });
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_EQ(svc.stats().shed, 1u);
  svc.Shutdown();  // idempotent
}

TEST(TransactionServiceTest, ExecuteReturnsTimestampedResponse) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());
  ServiceConfig cfg;
  cfg.workers = 2;
  TransactionService svc(db.get(), cfg);
  svc.Start();
  const Response r = svc.Execute(
      [&](engine::Connection& c) { return c.Update(table, 3, 0, 7); });
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.submit_ns, 0);
  EXPECT_GE(r.dispatch_ns, r.submit_ns);
  EXPECT_GE(r.done_ns, r.dispatch_ns);
  EXPECT_EQ(r.dispatches, 1);
  svc.Shutdown();
}

// --- requeue vs. queue-age deadline ----------------------------------------

// The audit this pins: a retryable abort requeues with the ORIGINAL admit
// time, so by its second dispatch a request can be far past max_queue_age_ns.
// The expiry check must exempt already-dispatched requests
// (entry.item->dispatches == 0 guard) — otherwise the request would be
// counted in server.expired after its dispatch already started the path to
// server.completed, double-counting it against server.admitted.
TEST(TransactionServiceTest, RequeuePastDeadlineCompletesExactlyOnce) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 64;
  cfg.max_queue_age_ns = MillisToNanos(50);
  cfg.retry.max_attempts = 1;  // retryable aborts requeue, not retry inline
  TransactionService svc(db.get(), cfg);
  svc.Start();

  // First dispatch: hold the request well past the deadline, then fail with
  // a retryable error so it requeues with its original admit time. Second
  // dispatch: its queue age is ~120ms > 50ms — the deadline would fire if
  // the dispatches==0 exemption were missing.
  std::atomic<int> calls{0};
  const Response r = svc.Execute([&](engine::Connection& c) -> Status {
    if (calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      return Status::Deadlock("synthetic retryable failure");
    }
    return c.Update(table, 0, 0, 1);
  });
  svc.Shutdown();

  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.dispatches, 2);
  EXPECT_EQ(calls.load(), 2);

  const TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.requeues, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.completed_ok, 1u);
  EXPECT_EQ(st.expired, 0u);  // the double-count the audit rules out
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
}

// Mixed stress: expiring first-dispatch requests and requeueing victims race
// on the same queue, and the accounting identities must stay exact — each
// admitted request reaches exactly one of {completed, expired,
// drain_aborted} and fires exactly one callback.
TEST(TransactionServiceTest, RequeueAndExpiryRaceKeepsAccountingExact) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_queue_depth = 256;
  cfg.max_queue_age_ns = MillisToNanos(1);
  cfg.retry.max_attempts = 1;
  TransactionService svc(db.get(), cfg);
  svc.Start();

  // Pin both workers so the backlog ages past the 1ms deadline; the pinned
  // bodies themselves fail retryable once, covering requeue-under-pressure.
  Gate gate;
  std::atomic<int> entered{0};
  std::atomic<uint64_t> callbacks{0};
  auto done = [&](const Response&) { callbacks.fetch_add(1); };
  std::atomic<int> pinned_calls{0};
  uint64_t admitted_by_test = 0;
  // One pinning request at a time. On a loaded machine a worker may take
  // longer than the 1ms deadline to dequeue it, and then it expires
  // without running (its callback fires instead) — submit another.
  while (entered.load() < 2) {
    const int entered_before = entered.load();
    const uint64_t callbacks_before = callbacks.load();
    ASSERT_TRUE(svc.Submit([&](engine::Connection& c) -> Status {
                      if (pinned_calls.fetch_add(1) < 2) {
                        entered.fetch_add(1);
                        gate.Wait();
                        return Status::Deadlock("synthetic");
                      }
                      return c.Update(table, 0, 0, 1);
                    },
                           done)
                    .ok());
    ++admitted_by_test;
    while (entered.load() == entered_before &&
           callbacks.load() == callbacks_before) {
      std::this_thread::yield();
    }
  }

  Rng rng(42);
  for (int i = 0; i < 60; ++i) {
    const bool flaky = rng.Bernoulli(0.3);
    auto counter = std::make_shared<std::atomic<int>>(0);
    const Status s = svc.Submit(
        [&, flaky, counter](engine::Connection& c) -> Status {
          if (flaky && counter->fetch_add(1) == 0) {
            return Status::Deadlock("synthetic");
          }
          return c.Update(table, 1 + rng.Uniform(8), 0, 1);
        },
        done);
    if (s.ok()) ++admitted_by_test;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  // Let every admitted request reach its final status while the service is
  // still running — a stopping service refuses requeues, which would turn
  // the pinned bodies' deadlocks into plain failures instead of requeues.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (callbacks.load() < admitted_by_test &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  svc.Shutdown();

  const TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.admitted, admitted_by_test);
  EXPECT_EQ(st.admitted + st.shed + st.rejected_recovering, st.submitted);
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
  EXPECT_EQ(callbacks.load(), st.admitted);  // exactly one outcome each
  EXPECT_GT(st.expired, 0u);   // the aged backlog did expire
  EXPECT_GT(st.requeues, 0u);  // and retryable victims did requeue
  EXPECT_EQ(svc.queue_depth(), 0u);
}

// --- startup recovery barrier ----------------------------------------------

TEST(TransactionServiceTest, RecoveryBarrierRejectsWithUnavailableNotShed) {
  auto db = OpenFast();
  const uint32_t table = LoadOneTable(db.get());
  ServiceConfig cfg;
  cfg.workers = 1;
  TransactionService svc(db.get(), cfg);
  svc.Start();
  svc.BeginRecovery();
  EXPECT_TRUE(svc.recovering());

  bool callback_ran = false;
  const Status s = svc.Submit(
      [&](engine::Connection& c) { return c.Update(table, 0, 0, 1); },
      [&](const Response&) { callback_ran = true; });
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_FALSE(s.IsOverloaded());
  EXPECT_FALSE(callback_ran);  // rejected before admission: no callback

  // Counted under its own bucket, not shed — and the accounting identity
  // holds with the third rejection class.
  TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.rejected_recovering, 1u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.admitted + st.shed + st.rejected_recovering, st.submitted);

  svc.EndRecovery();
  EXPECT_FALSE(svc.recovering());
  const Response r = svc.Execute(
      [&](engine::Connection& c) { return c.Update(table, 0, 0, 1); });
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  svc.Shutdown();

  st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.admitted + st.shed + st.rejected_recovering, st.submitted);
}

// --- sharded engine: routing tier and expiry-after-prepare ------------------

std::unique_ptr<engine::Database> OpenFastSharded(int num_shards,
                                                  int repl_replicas = 1) {
  engine::EngineConfig config;
  config.sharded.num_shards = num_shards;
  auto& shard = config.sharded.shard;
  shard.row_work_ns = 0;
  shard.btree.level_work_ns = 0;
  for (SimDiskConfig* d :
       {&shard.data_disk, &shard.log_disk, &shard.repl_disk}) {
    d->base_latency_ns = 0;
    d->sigma = 0;
    d->flush_barrier_ns = 0;
  }
  shard.repl_replicas = repl_replicas;
  auto db = engine::OpenDatabase(engine::EngineKind::kSharded, config);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db.value());
}

TEST(TransactionServiceTest, RoutingTierClassifiesFootprintsByShardMask) {
  auto db = OpenFastSharded(4);
  auto* sharded = static_cast<engine::ShardedDatabase*>(db.get());
  const uint32_t table = db->CreateTable("t", 64);
  for (uint64_t k = 0; k < 64; ++k) db->BulkUpsert(table, k, storage::Row{0});

  auto& reg = metrics::Registry::Global();
  const uint64_t single0 = reg.GetCounter("shard.routed_single")->value();
  const uint64_t cross0 = reg.GetCounter("shard.routed_cross")->value();

  // One key per footprint: necessarily single-shard. Two keys on different
  // shards: cross. The service's door classifies from the declared
  // footprint alone — before any engine work.
  uint64_t key_a = 0, key_b = 1;
  while (sharded->router().ShardOf(table, key_b) ==
         sharded->router().ShardOf(table, key_a)) {
    ++key_b;
  }
  const auto fp = [&](std::initializer_list<uint64_t> keys) {
    std::vector<uint64_t> out;
    for (uint64_t k : keys) {
      out.push_back(sched::ConflictPredictor::Fingerprint(table, k));
    }
    return out;
  };

  ServiceConfig cfg;
  cfg.workers = 1;
  TransactionService svc(db.get(), cfg);
  svc.Start();
  std::mutex mu;
  std::condition_variable cv;
  int done_count = 0;
  auto done = [&](const Response&) {
    std::lock_guard<std::mutex> g(mu);
    ++done_count;
    cv.notify_one();
  };
  auto body_for = [&](uint64_t k1, uint64_t k2) {
    return [=](engine::Connection& c) -> Status {
      Status s = c.Update(table, k1, 0, 1);
      if (!s.ok()) return s;
      return c.Update(table, k2, 0, 1);
    };
  };
  ASSERT_TRUE(svc.Submit(body_for(key_a, key_a), fp({key_a}), done).ok());
  ASSERT_TRUE(svc.Submit(body_for(key_b, key_b), fp({key_b}), done).ok());
  ASSERT_TRUE(
      svc.Submit(body_for(key_a, key_b), fp({key_a, key_b}), done).ok());
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done_count == 3; });
  }
  svc.Shutdown();

  EXPECT_EQ(reg.GetCounter("shard.routed_single")->value() - single0, 2u);
  EXPECT_EQ(reg.GetCounter("shard.routed_cross")->value() - cross0, 1u);
}

// The expiry-after-prepare hazard (docs/sharding.md): a cross-shard request
// whose first dispatch reached the 2PC prepare phase and then failed
// retryably (here: one shard's quorum unreachable) requeues with its
// ORIGINAL admit time. By redispatch it is far past max_queue_age_ns; if the
// dispatches==0 exemption were missing the service would drop as "expired" a
// request that already sent prepares — work a coordinator may be counting
// on. The crash-point recorder proves the first dispatch really entered the
// 2PC path before the requeue.
TEST(TransactionServiceTest, RequeueAfter2PCPrepareNeverExpires) {
  auto db = OpenFastSharded(2, /*repl_replicas=*/3);
  auto* sharded = static_cast<engine::ShardedDatabase*>(db.get());
  const uint32_t table = db->CreateTable("t", 64);
  for (uint64_t k = 0; k < 64; ++k) db->BulkUpsert(table, k, storage::Row{0});
  uint64_t key0 = 0;
  while (sharded->router().ShardOf(table, key0) != 0) ++key0;
  uint64_t key1 = 0;
  while (sharded->router().ShardOf(table, key1) != 1) ++key1;

  // Shard 1 loses its quorum: every PREPARE there fails Unavailable until
  // the replicas come back.
  ASSERT_NE(sharded->shard(1)->quorum_log(), nullptr);
  sharded->shard(1)->quorum_log()->KillReplica(1);
  sharded->shard(1)->quorum_log()->KillReplica(2);

  CrashPoints::Global().Reset();
  CrashPoints::Global().SetRecording(true);

  auto& reg = metrics::Registry::Global();
  const uint64_t presumed0 = reg.GetCounter("2pc.aborted_presumed")->value();

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_age_ns = MillisToNanos(20);
  cfg.retry.max_attempts = 1;  // retryable failures requeue, not retry inline
  TransactionService svc(db.get(), cfg);
  svc.Start();

  std::atomic<int> calls{0};
  const Response r = svc.Execute([&](engine::Connection& c) -> Status {
    if (calls.fetch_add(1) == 1) {
      // Second dispatch: heal the quorum so this attempt's 2PC succeeds.
      // Quorum loss latches until an election restores service, so the
      // revives need a failover to clear it (docs/replication.md).
      sharded->shard(1)->quorum_log()->ReviveReplica(1);
      sharded->shard(1)->quorum_log()->ReviveReplica(2);
      sharded->shard(1)->quorum_log()->Failover();
    }
    Status s = c.Update(table, key0, 0, 1);
    if (!s.ok()) return s;
    s = c.Update(table, key1, 0, 1);
    if (!s.ok()) return s;
    if (calls.load() == 1) {
      // Age the request past max_queue_age_ns before the failing commit, so
      // the post-requeue dispatch faces the expiry check head-on.
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    return Status::OK();
  });
  svc.Shutdown();

  const auto hits = CrashPoints::Global().RecordedHits();
  CrashPoints::Global().Reset();
  CrashPoints::Global().SetRecording(false);

  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.dispatches, 2);
  EXPECT_EQ(calls.load(), 2);
  // The first dispatch entered 2PC (hit the prepare crash point) and
  // presumed abort when shard 1's quorum failed its PREPARE.
  const auto it = hits.find("2pc.pre_prepare");
  ASSERT_NE(it, hits.end());
  EXPECT_GE(it->second, 2u);  // both dispatches reached the prepare phase
  EXPECT_GE(reg.GetCounter("2pc.aborted_presumed")->value() - presumed0, 1u);

  const TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.requeues, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.expired, 0u);  // expiry-after-prepare is impossible
  EXPECT_EQ(st.completed + st.expired + st.drain_aborted, st.admitted);
}

}  // namespace
}  // namespace tdp::server
