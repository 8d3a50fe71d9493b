// Quorum replication (docs/replication.md):
//  * QuorumLog re-defines commit durability as "frame durable on a quorum
//    of K copies"; acks park until the quorum LSN covers them and Stop()
//    partitions parked acks exactly like RedoLog::Stop (covered OK, rest
//    non-OK) — an acked-OK-but-lost commit is impossible.
//  * Terms fence a deposed leader on both sides: replicas reject ships
//    below their adopted term, and Failover() bounces undecided acks as
//    Unavailable so clients ride through on retry.
//  * Elections pick the longest valid frame prefix; because every copy is a
//    prefix of one stream, the winner covers every quorum-acked frame even
//    when the leader's own copy is lost.
//  * FaultInjector scoping: a kDiskDark fault latched on one replica's
//    device never leaks onto the leader or sibling replicas, and a majority
//    quorum keeps committing through it.
//  * RetryPolicy.retry_unavailable: RunTxn rides out a recovery/failover
//    window (Status::Unavailable) with decorrelated-jitter backoff until
//    EndRecovery drops the barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/crash_point.h"
#include "common/fault.h"
#include "engine/mysqlmini.h"
#include "engine/txn.h"
#include "log/log_codec.h"
#include "log/redo_log.h"
#include "repl/quorum_log.h"
#include "repl/replica.h"
#include "server/service.h"

namespace tdp {
namespace {

SimDiskConfig QuickDisk(uint64_t seed = 11) {
  SimDiskConfig cfg;
  cfg.base_latency_ns = 1000;
  cfg.sigma = 0.0;
  cfg.flush_barrier_ns = 2000;
  cfg.seed = seed;
  return cfg;
}

std::vector<log::RedoOp> OneOp(uint64_t key) {
  std::vector<log::RedoOp> ops;
  ops.push_back(log::RedoOp{log::RedoOp::Kind::kPut, /*table=*/0, key,
                            storage::Row{static_cast<int64_t>(key)}});
  return ops;
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Thread-safe ack recorder (same shape as group_commit_test's).
struct AckLog {
  std::mutex mu;
  std::vector<Status> acks;
  std::atomic<int> fired{0};

  AckFn Make() {
    return [this](const Status& s) {
      {
        std::lock_guard<std::mutex> g(mu);
        acks.push_back(s);
      }
      fired.fetch_add(1, std::memory_order_release);
    };
  }
  int ok_count() {
    std::lock_guard<std::mutex> g(mu);
    int n = 0;
    for (const Status& s : acks) n += s.ok() ? 1 : 0;
    return n;
  }
  int unavailable_count() {
    std::lock_guard<std::mutex> g(mu);
    int n = 0;
    for (const Status& s : acks) n += s.IsUnavailable() ? 1 : 0;
    return n;
  }
};

/// A leader + QuorumLog pair on quick disks. The leader runs the async
/// epoch path with a never-firing epoch when `park` is set, so parked acks
/// stay parked until the test advances durability explicitly.
struct Cluster {
  SimDisk leader_disk;
  log::RedoLog leader;
  repl::QuorumLog ql;

  explicit Cluster(int replicas, bool park = false,
                   std::vector<FaultInjector*> faults = {})
      : leader_disk(QuickDisk(3)),
        leader(MakeLeaderConfig(&leader_disk, park)),
        ql(MakeQuorumConfig(&leader, replicas, std::move(faults))) {
    leader.Start();
    ql.Start();
  }
  ~Cluster() {
    leader.Stop();
    ql.Stop();
  }

  static log::RedoLogConfig MakeLeaderConfig(SimDisk* disk, bool park) {
    log::RedoLogConfig cfg;
    cfg.policy = log::FlushPolicy::kEagerFlush;
    cfg.disk = disk;
    if (park) {
      cfg.async_commit = true;
      cfg.epoch_interval_ns = MillisToNanos(30000);  // never trips in-test
    }
    return cfg;
  }
  static repl::QuorumLogConfig MakeQuorumConfig(
      log::RedoLog* leader, int replicas, std::vector<FaultInjector*> faults) {
    repl::QuorumLogConfig cfg;
    cfg.leader = leader;
    cfg.replicas = replicas;
    cfg.replica_disk = QuickDisk(5);
    cfg.replica_faults = std::move(faults);
    return cfg;
  }
};

// --- quorum commit ----------------------------------------------------------

TEST(QuorumLogTest, SyncCommitWaitsForQuorumAndConverges) {
  Cluster c(3);
  for (uint64_t i = 1; i <= 8; ++i) {
    Status durable;
    c.ql.Commit(i, 256, OneOp(i), &durable);
    EXPECT_TRUE(durable.ok()) << durable.ToString();
  }
  EXPECT_GE(c.ql.quorum_lsn(), 8u);
  // Majority (2-of-3) acked; both replicas converge shortly after.
  EXPECT_TRUE(WaitFor([&] {
    return c.ql.replica(1).durable_lsn() >= 8 &&
           c.ql.replica(2).durable_lsn() >= 8;
  }));
  EXPECT_EQ(c.ql.stats().acks_quorum.load(), 8u);
  EXPECT_EQ(c.ql.stats().acks_lost.load(), 0u);
  EXPECT_EQ(c.ql.stats().commits_submitted.load(), 8u);
}

TEST(QuorumLogTest, StopPartitionsParkedAcks) {
  AckLog acks;
  {
    Cluster c(3, /*park=*/true);
    // Three commits, then force the leader durable: shippers replicate the
    // batch and the quorum acks exactly those three.
    for (uint64_t i = 1; i <= 3; ++i) c.ql.CommitAsync(i, 256, OneOp(i),
                                                       acks.Make());
    ASSERT_TRUE(c.leader.ForceDurable().ok());
    ASSERT_TRUE(WaitFor([&] { return acks.fired.load() == 3; }));
    EXPECT_EQ(acks.ok_count(), 3);
    // Two more park with no flush behind them; Stop must resolve them
    // non-OK — never OK without quorum durability.
    c.ql.CommitAsync(4, 256, OneOp(4), acks.Make());
    c.ql.CommitAsync(5, 256, OneOp(5), acks.Make());
    c.ql.Stop();
    EXPECT_EQ(acks.fired.load(), 5);
    EXPECT_EQ(acks.ok_count(), 3);
    // Ack ledger identity (bench_suites CheckInvariants "repl"):
    // submitted == quorum + lost once the log stops.
    EXPECT_EQ(c.ql.stats().commits_submitted.load(),
              c.ql.stats().acks_quorum.load() +
                  c.ql.stats().acks_lost.load());
  }
}

TEST(QuorumLogTest, QuorumLossResolvesAcksUnavailableAndFailoverRestores) {
  Cluster c(3);
  Status durable;
  c.ql.Commit(1, 256, OneOp(1), &durable);
  ASSERT_TRUE(durable.ok());
  // Kill both replicas: 1 alive copy < quorum 2. The latched loss bounces
  // the next commit as Unavailable (retryable) instead of hanging it.
  c.ql.KillReplica(1);
  c.ql.KillReplica(2);
  c.ql.Commit(2, 256, OneOp(2), &durable);
  EXPECT_TRUE(durable.IsUnavailable()) << durable.ToString();
  // Revive + failover: a new term restores service, and catch-up heals the
  // replicas' missing suffix.
  c.ql.ReviveReplica(1);
  c.ql.ReviveReplica(2);
  const uint64_t term = c.ql.Failover();
  EXPECT_EQ(term, 2u);
  ASSERT_TRUE(c.ql.CatchUpReplicas().ok());
  c.ql.Commit(3, 256, OneOp(3), &durable);
  EXPECT_TRUE(durable.ok()) << durable.ToString();
  EXPECT_GE(c.ql.quorum_lsn(), 3u);
}

// --- fencing ----------------------------------------------------------------

TEST(ReplicaTest, RejectsStaleTermAndAdoptsNewer) {
  repl::ReplicaConfig cfg;
  cfg.disk = QuickDisk(17);
  repl::Replica r(cfg);
  const uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(r.Ship(/*term=*/2, 0, bytes, sizeof(bytes), /*end_lsn=*/1).ok());
  EXPECT_EQ(r.term(), 2u);
  EXPECT_EQ(r.durable_bytes(), sizeof(bytes));
  // A deposed leader's late ship (term 1 < 2) must bounce without touching
  // the image or the watermark.
  const Status stale = r.Ship(1, sizeof(bytes), bytes, sizeof(bytes), 2);
  EXPECT_TRUE(stale.IsAborted()) << stale.ToString();
  EXPECT_EQ(r.stats().rejected_stale_term.load(), 1u);
  EXPECT_EQ(r.durable_bytes(), sizeof(bytes));
  EXPECT_EQ(r.durable_lsn(), 1u);
  // The current term keeps shipping.
  ASSERT_TRUE(r.Ship(2, sizeof(bytes), bytes, sizeof(bytes), 2).ok());
  EXPECT_EQ(r.durable_lsn(), 2u);
}

TEST(QuorumLogTest, FailoverBouncesUndecidedAcksUnavailable) {
  AckLog acks;
  Cluster c(3, /*park=*/true);
  c.ql.CommitAsync(1, 256, OneOp(1), acks.Make());
  c.ql.CommitAsync(2, 256, OneOp(2), acks.Make());
  EXPECT_EQ(acks.fired.load(), 0);
  const uint64_t term = c.ql.Failover();
  EXPECT_EQ(term, 2u);
  // Both acks resolved Unavailable: undecided across the election, the
  // client retries rather than waiting out the window.
  EXPECT_EQ(acks.fired.load(), 2);
  EXPECT_EQ(acks.unavailable_count(), 2);
  EXPECT_EQ(c.ql.stats().failovers.load(), 1u);
}

// --- election + catch-up ----------------------------------------------------

TEST(QuorumLogTest, ElectionWithoutLeaderCoversEveryAckedFrame) {
  SimDisk leader_disk(QuickDisk(3));
  log::RedoLog leader(Cluster::MakeLeaderConfig(&leader_disk, false));
  leader.Start();
  repl::QuorumLog ql(Cluster::MakeQuorumConfig(&leader, 3, {}));
  ql.Start();

  Status durable;
  for (uint64_t i = 1; i <= 3; ++i) ql.Commit(i, 256, OneOp(i), &durable);
  // Replica 1 dies; the quorum (leader + replica 2) keeps acking.
  ql.KillReplica(1);
  for (uint64_t i = 4; i <= 6; ++i) {
    ql.Commit(i, 256, OneOp(i), &durable);
    ASSERT_TRUE(durable.ok()) << durable.ToString();
  }
  auto images = ql.CrashImages();
  ASSERT_EQ(images.size(), 3u);
  // Leader's copy lost with the node: elect over the replicas only. The
  // stale copy (killed at 3) loses to the one that stayed in the quorum.
  const repl::Election e = repl::ElectLeader(
      {images.begin() + 1, images.end()});
  EXPECT_GE(e.frames, 6u);
  EXPECT_EQ(e.txns.size(), 6u);
  EXPECT_FALSE(e.any_corrupt);
}

TEST(QuorumLogTest, CatchUpHealsRevivedReplica) {
  Cluster c(3);
  Status durable;
  c.ql.Commit(1, 256, OneOp(1), &durable);
  c.ql.KillReplica(1);
  for (uint64_t i = 2; i <= 5; ++i) c.ql.Commit(i, 256, OneOp(i), &durable);
  EXPECT_LT(c.ql.replica(1).durable_lsn(), 5u);
  c.ql.ReviveReplica(1);
  ASSERT_TRUE(c.ql.CatchUpReplicas().ok());
  EXPECT_EQ(c.ql.replica(1).durable_lsn(), 5u);
  EXPECT_EQ(c.ql.replica(1).durable_bytes(), c.ql.replica(2).durable_bytes());
}

// --- fault scoping (FaultInjector per-disk) --------------------------------

TEST(QuorumLogTest, DiskDarkFaultStaysScopedToOneReplica) {
  CrashPoints::Global().Reset();
  FaultInjector injector;
  injector.AddDiskDark(/*start_ns=*/0, /*duration_ns=*/int64_t{1} << 40);
  injector.Arm();
  // The injector is wired to replica 1 only.
  Cluster c(3, /*park=*/false, {&injector, nullptr});

  Status durable;
  for (uint64_t i = 1; i <= 6; ++i) {
    c.ql.Commit(i, 256, OneOp(i), &durable);
    // Majority quorum (leader + replica 2) rides through the dark replica.
    EXPECT_TRUE(durable.ok()) << durable.ToString();
  }
  EXPECT_TRUE(injector.dark());
  EXPECT_TRUE(c.ql.replica(1).dark());
  EXPECT_GE(injector.stats().disk_darks.load(), 1u);
  // The fault never leaked: the sibling replica and the leader kept full
  // durability, and no process-wide crash flag tripped.
  EXPECT_FALSE(CrashPoints::Global().triggered());
  EXPECT_TRUE(WaitFor([&] { return c.ql.replica(2).durable_lsn() >= 6; }));
  EXPECT_GE(c.leader.durable_lsn(), 6u);
  EXPECT_LT(c.ql.replica(1).durable_lsn(), 6u);

  // Disarm revives the device; the shipper heals the replica on its own.
  injector.Disarm();
  EXPECT_FALSE(c.ql.replica(1).dark());
  EXPECT_TRUE(WaitFor([&] { return c.ql.replica(1).durable_lsn() >= 6; }));
}

// --- engine integration -----------------------------------------------------

TEST(ReplEngineTest, MySQLMiniRoutesCommitsThroughQuorum) {
  engine::MySQLMiniConfig cfg;
  cfg.row_work_ns = 0;
  cfg.data_disk = QuickDisk(1);
  cfg.log_disk = QuickDisk(2);
  cfg.repl_replicas = 3;
  cfg.repl_disk = QuickDisk(4);
  engine::MySQLMini db(cfg);
  ASSERT_NE(db.quorum_log(), nullptr);
  db.CreateTable("t0", 64);

  auto conn = db.Connect();
  for (uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Insert(0, k, storage::Row{static_cast<int64_t>(k)}).ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  EXPECT_GE(db.quorum_log()->quorum_lsn(), 5u);
  EXPECT_EQ(db.quorum_log()->stats().acks_quorum.load(), 5u);
}

TEST(ReplEngineTest, CommitReturnsUnavailableWhenQuorumUnreachable) {
  engine::MySQLMiniConfig cfg;
  cfg.row_work_ns = 0;
  cfg.data_disk = QuickDisk(1);
  cfg.log_disk = QuickDisk(2);
  cfg.repl_replicas = 3;
  cfg.repl_disk = QuickDisk(4);
  engine::MySQLMini db(cfg);
  db.CreateTable("t0", 64);
  db.quorum_log()->KillReplica(1);
  db.quorum_log()->KillReplica(2);

  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Insert(0, 1, storage::Row{int64_t{1}}).ok());
  const Status s = conn->Commit();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // Retryable under the default policy: the client rides through.
  EXPECT_TRUE(engine::RetryableTxnError(s, engine::RetryPolicy{}));
}

// --- RetryPolicy.retry_unavailable (docs/replication.md) -------------------

TEST(RetryUnavailableTest, RunTxnRetriesUntilEndRecovery) {
  engine::MySQLMiniConfig cfg;
  cfg.row_work_ns = 0;
  cfg.data_disk = QuickDisk(1);
  cfg.log_disk = QuickDisk(2);
  engine::MySQLMini db(cfg);
  db.CreateTable("t0", 64);

  server::ServiceConfig scfg;
  server::TransactionService svc(&db, scfg);
  svc.BeginRecovery();

  std::thread recovery_done([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    svc.EndRecovery();
  });

  engine::RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.backoff_ns = 100 * 1000;          // 0.1 ms base, decorrelated jitter
  policy.max_backoff_ns = 2 * 1000 * 1000; // capped at 2 ms
  engine::TxnStats stats;
  auto conn = db.Connect();
  const Status s = engine::RunTxn(
      *conn, policy,
      [&](engine::Connection& c) -> Status {
        // The recovery barrier: the service door answers Unavailable until
        // EndRecovery (server_admission_test covers the door itself).
        if (svc.recovering()) return Status::Unavailable("recovering");
        return c.Insert(0, 42, storage::Row{int64_t{42}});
      },
      &stats);
  recovery_done.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(stats.attempts, 1);
}

TEST(RetryUnavailableTest, OptOutFailsFast) {
  engine::RetryPolicy policy;
  policy.retry_unavailable = false;
  EXPECT_FALSE(engine::RetryableTxnError(Status::Unavailable("x"), policy));
  policy.retry_unavailable = true;
  EXPECT_TRUE(engine::RetryableTxnError(Status::Unavailable("x"), policy));
}

// Regression: RunTxn with retry_unavailable used to spin forever against a
// quorum that never heals (every commit Unavailable, every retry eligible).
// The deadline_ns budget must stop the loop and mark retries_exhausted.
TEST(RetryUnavailableTest, DeadlineStopsNeverHealingQuorum) {
  engine::MySQLMiniConfig cfg;
  cfg.row_work_ns = 0;
  cfg.data_disk = QuickDisk(1);
  cfg.log_disk = QuickDisk(2);
  cfg.repl_replicas = 3;
  cfg.repl_disk = QuickDisk(4);
  engine::MySQLMini db(cfg);
  db.CreateTable("t0", 64);
  // Updates, not inserts: a quorum-loss commit keeps its in-memory effects
  // (locks released, durability unknown), so a retried insert would trip
  // "duplicate key" instead of exercising the retry loop.
  db.BulkUpsert(0, 7, storage::Row{int64_t{0}});
  // Two of three replicas dead and never revived: no commit can ever reach
  // quorum, so every attempt ends Unavailable — retryable forever.
  db.quorum_log()->KillReplica(1);
  db.quorum_log()->KillReplica(2);

  engine::RetryPolicy policy;
  policy.max_attempts = 1'000'000;          // attempts alone would spin ~forever
  policy.backoff_ns = 200 * 1000;           // 0.2 ms between attempts
  policy.max_backoff_ns = 1 * 1000 * 1000;
  policy.deadline_ns = 20 * 1000 * 1000;    // 20 ms wall-clock budget
  engine::TxnStats stats;
  auto conn = db.Connect();
  const int64_t start = NowNanos();
  const Status s = engine::RunTxn(
      *conn, policy,
      [](engine::Connection& c) { return c.Update(0, 7, 0, 1); },
      &stats);
  const int64_t elapsed = NowNanos() - start;
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(stats.retries_exhausted, 1u);
  EXPECT_GT(stats.attempts, 1);
  // Terminated by the deadline, not the (huge) attempt cap, and promptly:
  // overrun is bounded by one attempt plus one capped backoff.
  EXPECT_LT(stats.attempts, policy.max_attempts);
  EXPECT_GE(elapsed, policy.deadline_ns);
  EXPECT_LT(elapsed, 10 * policy.deadline_ns);
}

TEST(RetryUnavailableTest, MaxAttemptsExhaustionIsCounted) {
  engine::RetryPolicy policy;
  policy.max_attempts = 3;
  engine::TxnStats stats;
  engine::MySQLMiniConfig cfg;
  cfg.row_work_ns = 0;
  cfg.data_disk = QuickDisk(1);
  cfg.log_disk = QuickDisk(2);
  engine::MySQLMini db(cfg);
  db.CreateTable("t0", 64);
  auto conn = db.Connect();
  const Status s = engine::RunTxn(
      *conn, policy,
      [](engine::Connection&) { return Status::Unavailable("stuck"); },
      &stats);
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries_exhausted, 1u);
  // A clean success (or non-retryable error) never counts as exhaustion.
  engine::TxnStats ok_stats;
  EXPECT_TRUE(engine::RunTxn(
                  *conn, policy,
                  [](engine::Connection& c) {
                    return c.Insert(0, 1, storage::Row{int64_t{1}});
                  },
                  &ok_stats)
                  .ok());
  EXPECT_EQ(ok_stats.retries_exhausted, 0u);
}

}  // namespace
}  // namespace tdp
