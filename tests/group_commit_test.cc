// Epoch-based asynchronous group commit (docs/group_commit.md):
//  * RedoLog::CommitAsync / WalManager::CommitFlushAsync park the caller's
//    ack on an epoch; one leader flush covers the batch and fires exactly
//    the covered acks — an acked-OK-but-lost commit is impossible, and
//    Stop() without a flush resolves every parked ack non-OK.
//  * The strict non-group eager path never advances durable_lsn_ past bytes
//    actually on the device: a failed per-commit fsync leaves a hole that a
//    later successful fsync of a HIGHER lsn must not paper over.
//  * TransactionService async_ack stamps done_ns at commit-ack time, so the
//    epoch wait shows up in server.latency_ns (what the tuner minimizes).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/crash_point.h"
#include "common/fault.h"
#include "common/work.h"
#include "engine/factory.h"
#include "engine/mysqlmini.h"
#include "engine/recovery.h"
#include "log/redo_log.h"
#include "pg/wal.h"
#include "server/service.h"

namespace tdp {
namespace {

SimDiskConfig FastDisk() {
  SimDiskConfig cfg;
  cfg.base_latency_ns = 20000;
  cfg.sigma = 0.1;
  cfg.flush_barrier_ns = 10000;
  return cfg;
}

std::vector<log::RedoOp> OneOp(uint64_t key) {
  std::vector<log::RedoOp> ops;
  ops.push_back(log::RedoOp{log::RedoOp::Kind::kPut, /*table=*/1, key,
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

/// Thread-safe ack recorder shared by the epoch tests.
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
};

// --- RedoLog epoch commit ---------------------------------------------------

TEST(GroupCommitTest, RedoEpochFlushFiresAllParkedAcksOK) {
  SimDisk disk(FastDisk());
  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  cfg.async_commit = true;
  cfg.epoch_interval_ns = 200 * 1000;  // 200us epochs
  log::RedoLog log(cfg);
  log.Start();

  AckLog acks;
  constexpr int kCommits = 16;
  uint64_t max_lsn = 0;
  for (int i = 0; i < kCommits; ++i) {
    max_lsn = log.CommitAsync(static_cast<uint64_t>(i + 1), 256,
                              OneOp(static_cast<uint64_t>(i + 1)),
                              acks.Make());
  }
  ASSERT_TRUE(WaitFor([&] { return acks.fired.load() == kCommits; }))
      << "parked acks never fired; epoch thread stuck?";
  EXPECT_EQ(acks.ok_count(), kCommits);
  EXPECT_GE(log.durable_lsn(), max_lsn);
  EXPECT_EQ(log.stats().async_commits.load(), static_cast<uint64_t>(kCommits));
  EXPECT_GE(log.stats().epoch_flushes.load(), 1u);

  // Every acked commit is recoverable from the durable image.
  const auto recovered = log.RecoverCommitted();
  EXPECT_EQ(recovered.size(), static_cast<size_t>(kCommits));
}

TEST(GroupCommitTest, RedoStopWithoutFlushAcksWholeEpochNonOK) {
  SimDisk disk(FastDisk());
  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(30000);  // epoch never trips in-test
  log::RedoLog log(cfg);
  log.Start();

  AckLog acks;
  for (int i = 0; i < 4; ++i) {
    log.CommitAsync(static_cast<uint64_t>(i + 1), 256,
                    OneOp(static_cast<uint64_t>(i + 1)), acks.Make());
  }
  EXPECT_EQ(acks.fired.load(), 0);  // nothing acked before the epoch
  log.Stop();
  // Stop() does not flush: the whole un-flushed epoch is lost atomically —
  // every parked ack fires, none of them OK, and recovery sees nothing.
  EXPECT_EQ(acks.fired.load(), 4);
  EXPECT_EQ(acks.ok_count(), 0);
  EXPECT_EQ(log.durable_lsn(), 0u);
  EXPECT_TRUE(log.SimulateCrash().empty());
  EXPECT_TRUE(log.RecoverCommitted().empty());
}

TEST(GroupCommitTest, RedoCommitAsyncWithoutEpochThreadAcksInline) {
  // async_commit off: CommitAsync degrades to a synchronous leader flush
  // with an inline ack that still reports exactly what is durable.
  SimDisk disk(FastDisk());
  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  log::RedoLog log(cfg);
  log.Start();

  AckLog acks;
  const uint64_t lsn = log.CommitAsync(7, 256, OneOp(7), acks.Make());
  EXPECT_EQ(acks.fired.load(), 1);  // no parking: ack fired before return
  EXPECT_EQ(acks.ok_count(), 1);
  EXPECT_GE(log.durable_lsn(), lsn);
}

// --- the strict-eager prefix-durability fix (satellite S2) ------------------

// The bug this pins: the non-group eager path used to do
// AtomicMax(&durable_lsn_, my_lsn) after its own fsync — but that fsync only
// covered THIS commit's bytes. If an earlier commit's fsync failed (its
// bytes went back to unwritten_bytes_), jumping durable to my_lsn declared a
// prefix durable that is not on disk, and CrashImage would resurrect frames
// that were never written.
TEST(GroupCommitTest, FailedEarlierFsyncHoldsDurableAtTheHole) {
  FaultInjector inj;
  inj.AddWriteError(/*start_ns=*/0, /*duration_ns=*/MillisToNanos(60000),
                    /*probability=*/1.0);
  SimDiskConfig disk_cfg;
  disk_cfg.base_latency_ns = 1000;
  disk_cfg.sigma = 0;
  disk_cfg.flush_barrier_ns = 0;
  disk_cfg.fault = &inj;
  SimDisk disk(disk_cfg);

  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kEagerFlush;
  cfg.group_commit = false;  // per-commit fsync
  cfg.fallback_lazy_on_stall = true;
  cfg.disk = &disk;
  cfg.io_retry.max_attempts = 2;
  cfg.io_retry.backoff_ns = 1000;
  log::RedoLog log(cfg);
  // No Start(): the flusher stays off so the hole cannot be healed behind
  // the assertions' back.

  inj.Arm();
  const uint64_t lsn1 = log.Commit(1, 256, OneOp(1));  // fsync fails
  EXPECT_EQ(lsn1, 1u);
  EXPECT_EQ(log.stats().degraded_commits.load(), 1u);
  EXPECT_EQ(log.durable_lsn(), 0u);

  inj.Disarm();  // device heals
  const uint64_t lsn2 = log.Commit(2, 256, OneOp(2));  // own fsync succeeds
  EXPECT_EQ(lsn2, 2u);
  // The fix: lsn2's completion is recorded but durable stays at the hole —
  // lsn1's bytes never reached the device.
  EXPECT_EQ(log.durable_lsn(), 0u);

  // The flusher (started for eager+fallback) covers the hole: its batch
  // flush writes ALL unwritten bytes, after which the whole prefix is
  // durable and both commits recover.
  log.Start();
  ASSERT_TRUE(WaitFor([&] { return log.durable_lsn() >= 2; }))
      << "flusher never covered the degraded commit's bytes";
  const auto recovered = log.RecoverCommitted();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].lsn, 1u);
  EXPECT_EQ(recovered[1].lsn, 2u);
}

// --- WalManager epoch commit ------------------------------------------------

TEST(GroupCommitTest, WalEpochBarrierFiresAcksAcrossLogSets) {
  pg::WalConfig cfg;
  cfg.block_bytes = 512;
  cfg.num_log_sets = 2;
  cfg.disk = FastDisk();
  cfg.async_commit = true;
  cfg.epoch_interval_ns = 200 * 1000;
  pg::WalManager wal(cfg);
  wal.Start();

  AckLog acks;
  constexpr int kCommits = 8;
  for (int i = 0; i < kCommits; ++i) {
    wal.CommitFlushAsync(static_cast<uint64_t>(i + 1), 300,
                         OneOp(static_cast<uint64_t>(i + 1)), acks.Make());
  }
  ASSERT_TRUE(WaitFor([&] { return acks.fired.load() == kCommits; }))
      << "parked acks never fired; epoch writer stuck?";
  EXPECT_EQ(acks.ok_count(), kCommits);
  EXPECT_EQ(wal.stats().async_commits.load(), static_cast<uint64_t>(kCommits));
  EXPECT_GE(wal.stats().epoch_flushes.load(), 1u);

  // Every acked commit recovers from the merged set images, in LSN order.
  std::vector<log::RecoveredTxn> out;
  const auto rr = pg::WalManager::RecoverCommitted(wal.CrashImages(), &out);
  EXPECT_TRUE(rr.status.ok()) << rr.status.ToString();
  ASSERT_EQ(out.size(), static_cast<size_t>(kCommits));
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].lsn, out[i].lsn);
  }
}

TEST(GroupCommitTest, WalStopWithoutBarrierAcksParkedCommitsNonOK) {
  pg::WalConfig cfg;
  cfg.block_bytes = 512;
  cfg.disk = FastDisk();
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(30000);
  pg::WalManager wal(cfg);
  wal.Start();

  AckLog acks;
  for (int i = 0; i < 3; ++i) {
    wal.CommitFlushAsync(static_cast<uint64_t>(i + 1), 300,
                         OneOp(static_cast<uint64_t>(i + 1)), acks.Make());
  }
  EXPECT_EQ(acks.fired.load(), 0);
  wal.Stop();
  EXPECT_EQ(acks.fired.load(), 3);
  EXPECT_EQ(acks.ok_count(), 0);
  std::vector<log::RecoveredTxn> out;
  const auto rr = pg::WalManager::RecoverCommitted(wal.CrashImages(), &out);
  EXPECT_TRUE(rr.status.ok());
  EXPECT_TRUE(out.empty());  // nothing acked OK, nothing recovered
}

// Clears the process-wide crash flag on entry and on scope exit, so a failed
// assertion cannot leave it tripped for later tests.
struct CrashGuard {
  CrashGuard() { CrashPoints::Global().Reset(); }
  ~CrashGuard() { CrashPoints::Global().Reset(); }
};

// Byte-only commits (logical_redo off) append no frame, so they cannot be
// keyed by an image offset: Stop without a round must still ack them non-OK.
TEST(GroupCommitTest, WalByteOnlyStopWithoutBarrierAcksNonOK) {
  pg::WalConfig cfg;
  cfg.block_bytes = 512;
  cfg.num_log_sets = 2;
  cfg.disk = FastDisk();
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(30000);
  pg::WalManager wal(cfg);
  wal.Start();

  AckLog acks;
  for (int i = 0; i < 3; ++i) {
    wal.CommitFlushAsync(static_cast<uint64_t>(i + 1), 300, {}, acks.Make());
  }
  EXPECT_EQ(acks.fired.load(), 0);
  wal.Stop();
  EXPECT_EQ(acks.fired.load(), 3);
  EXPECT_EQ(acks.ok_count(), 0);
}

// The same byte-only commits when a crash hits the round: none acks OK.
TEST(GroupCommitTest, WalByteOnlyCrashDuringRoundAcksNonOK) {
  CrashGuard crash_guard;
  pg::WalConfig cfg;
  cfg.block_bytes = 512;
  cfg.disk = FastDisk();
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(200);
  pg::WalManager wal(cfg);
  wal.Start();
  CrashPoints::Global().Arm("epoch.pre_flush");

  AckLog acks;
  for (int i = 0; i < 3; ++i) {
    wal.CommitFlushAsync(static_cast<uint64_t>(i + 1), 300, {}, acks.Make());
  }
  ASSERT_TRUE(WaitFor([&] { return acks.fired.load() == 3; }))
      << "the crashed round never resolved its acks";
  EXPECT_EQ(acks.ok_count(), 0);
}

// --- service async-ack latency (satellite S3) -------------------------------

// The torn-read this pins: server.latency_ns used to be observed with a
// done_ns stamped when the worker returned — before the epoch flush — so
// async commits' parking time was invisible to the tuner. done_ns must be
// stamped at ack time: with a 5ms epoch, a near-zero-work transaction's
// done - dispatch gap is dominated by the epoch wait.
TEST(GroupCommitTest, AsyncAckLatencyIncludesEpochWait) {
  engine::EngineConfig config;
  config.mysql.logical_redo = true;
  config.mysql.row_work_ns = 0;
  config.mysql.btree.level_work_ns = 0;
  config.mysql.data_disk.base_latency_ns = 0;
  config.mysql.data_disk.sigma = 0;
  config.mysql.log_disk.base_latency_ns = 1000;
  config.mysql.log_disk.sigma = 0;
  config.mysql.log_disk.flush_barrier_ns = 0;
  config.mysql.flush_policy = log::FlushPolicy::kEagerFlush;
  config.mysql.log_async_commit = true;
  config.mysql.log_epoch_interval_ns = MillisToNanos(5);
  auto db = engine::OpenDatabase(engine::EngineKind::kMySQLMini, config);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const uint32_t table = db.value()->CreateTable("t", 64);
  db.value()->BulkUpsert(table, 1, storage::Row{0});

  server::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.async_ack = true;
  server::TransactionService svc(db.value().get(), cfg);
  svc.Start();

  // First transaction synchronizes us just past an epoch boundary; the
  // second then commits early in a fresh epoch and must park for most of
  // the 5ms interval before its ack (and so its done_ns) fires.
  const server::Response warm = svc.Execute(
      [&](engine::Connection& c) { return c.Update(table, 1, 0, 1); });
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  const server::Response r = svc.Execute(
      [&](engine::Connection& c) { return c.Update(table, 1, 0, 1); });
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GE(r.done_ns - r.dispatch_ns, MillisToNanos(1))
      << "done_ns stamped before the epoch flush: the parking time the "
         "tuner must see is missing from server.latency_ns";

  svc.Shutdown();
  const server::TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.async_acks, 2u);
  EXPECT_EQ(st.sync_acks, 0u);
  EXPECT_EQ(st.async_acks + st.sync_acks, st.completed);
}

// The accounting invariant under a mixed async/sync run: every completed
// request is acked exactly once, through exactly one of the two paths.
TEST(GroupCommitTest, AsyncAndSyncAcksPartitionCompleted) {
  engine::EngineConfig config;
  config.mysql.logical_redo = true;
  config.mysql.row_work_ns = 0;
  config.mysql.btree.level_work_ns = 0;
  config.mysql.data_disk.base_latency_ns = 0;
  config.mysql.data_disk.sigma = 0;
  config.mysql.log_disk.base_latency_ns = 1000;
  config.mysql.log_disk.sigma = 0;
  config.mysql.log_disk.flush_barrier_ns = 0;
  config.mysql.log_async_commit = true;
  config.mysql.log_epoch_interval_ns = 200 * 1000;
  auto db = engine::OpenDatabase(engine::EngineKind::kMySQLMini, config);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const uint32_t table = db.value()->CreateTable("t", 64);
  for (uint64_t k = 0; k < 8; ++k) {
    db.value()->BulkUpsert(table, k, storage::Row{0});
  }

  server::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.async_ack = true;
  server::TransactionService svc(db.value().get(), cfg);
  svc.Start();

  std::atomic<uint64_t> callbacks{0};
  constexpr int kTxns = 200;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(svc.Submit(
                       [&, i](engine::Connection& c) {
                         return c.Update(table,
                                         static_cast<uint64_t>(i % 8), 0, 1);
                       },
                       [&](const server::Response& r) {
                         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
                         callbacks.fetch_add(1);
                       })
                    .ok());
  }
  svc.Shutdown();  // drains the queue AND the outstanding async acks

  EXPECT_EQ(callbacks.load(), static_cast<uint64_t>(kTxns));
  const server::TransactionService::Stats st = svc.stats();
  EXPECT_EQ(st.completed, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(st.async_acks + st.sync_acks, st.completed);
  EXPECT_GT(st.async_acks, 0u);

  // Durability matched the acks: every OK'd update landed.
  auto conn = db.value()->Connect();
  ASSERT_TRUE(conn->Begin().ok());
  uint64_t total = 0;
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(conn->Select(table, k).ok());
    total += static_cast<uint64_t>(*conn->ReadColumn(table, k, 0));
  }
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
}

// --- the write-ahead checkpoint rule ----------------------------------------

// The bug this pins: the engines apply table effects BEFORE the log append,
// so a fuzzy snapshot reflects every assigned LSN — including async commits
// still parked on an epoch. Publishing such a snapshot while the log tail is
// volatile lets checkpoint+suffix recovery resurrect (or half-overwrite)
// transactions the crash then loses. TakeCheckpoint must force the log
// durable through the last assigned LSN before capturing, and the covered
// acks must still resolve OK.
TEST(GroupCommitTest, TakeCheckpointForcesParkedEpochDurable) {
  AckLog acks;  // must outlive the database: Stop() resolves parked acks
  engine::MySQLMiniConfig cfg;
  cfg.logical_redo = true;
  cfg.row_work_ns = 0;
  cfg.btree.level_work_ns = 0;
  cfg.flush_policy = log::FlushPolicy::kEagerFlush;
  cfg.log_async_commit = true;
  cfg.log_epoch_interval_ns = MillisToNanos(30000);  // epoch never trips
  auto db = std::make_unique<engine::MySQLMini>(cfg);
  const uint32_t table = db->CreateTable("t", 64);
  db->BulkUpsert(table, 1, storage::Row{0});

  auto conn = db->Connect();
  constexpr int kTxns = 4;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Update(table, 1, 0, 1).ok());
    ASSERT_TRUE(conn->CommitAsync(acks.Make()).ok());
  }
  ASSERT_EQ(acks.fired.load(), 0);  // all parked; nothing durable yet

  const Result<engine::Checkpoint> ckpt = db->TakeCheckpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  // The force ran before capture: the stamp covers every assigned LSN and
  // the watermark reached it, so nothing in the snapshot is volatile.
  EXPECT_GE(ckpt.value().lsn, static_cast<uint64_t>(kTxns));
  EXPECT_GE(db->redo_log().durable_lsn(), ckpt.value().lsn);

  // The snapshot itself holds all four updates.
  int64_t snap_val = -1;
  for (const engine::CheckpointTable& t : ckpt.value().tables) {
    if (t.table_id != table) continue;
    for (const auto& [key, row] : t.rows) {
      if (key == 1) snap_val = row.Get(0);
    }
  }
  EXPECT_EQ(snap_val, kTxns);

  // Shutdown without an epoch flush: every parked commit is covered by the
  // forced watermark, so each ack fires exactly once, OK.
  conn.reset();
  db.reset();
  EXPECT_EQ(acks.fired.load(), kTxns);
  EXPECT_EQ(acks.ok_count(), kTxns);
}

}  // namespace
}  // namespace tdp
