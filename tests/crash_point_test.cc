// CrashPoints: arming semantics (nth occurrence, replace, reset), the
// kCrash fault kind tripping the process-wide flag through SimDisk, and the
// strict flush-retry loops escaping instead of waiting out a device that
// will never come back (docs/recovery.md).
#include "common/crash_point.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "common/fault.h"
#include "common/sim_disk.h"
#include "engine/mysqlmini.h"
#include "log/redo_log.h"
#include "pg/wal.h"

namespace tdp {
namespace {

// The singleton is process-wide state; every test starts and ends clean.
class CrashPointTest : public ::testing::Test {
 protected:
  void SetUp() override { CrashPoints::Global().Reset(); }
  void TearDown() override { CrashPoints::Global().Reset(); }
};

TEST_F(CrashPointTest, TripsOnNthOccurrence) {
  CrashPoints& cp = CrashPoints::Global();
  cp.Arm("test.point", /*occurrence=*/3);
  TDP_CRASH_POINT("test.point");
  TDP_CRASH_POINT("other.point");  // different name: not counted
  TDP_CRASH_POINT("test.point");
  EXPECT_FALSE(cp.triggered());
  TDP_CRASH_POINT("test.point");
  EXPECT_TRUE(cp.triggered());
  EXPECT_EQ(cp.triggered_by(), "test.point");
}

TEST_F(CrashPointTest, UnarmedHitsAreFree) {
  CrashPoints& cp = CrashPoints::Global();
  EXPECT_FALSE(cp.active());
  TDP_CRASH_POINT("test.point");
  EXPECT_FALSE(cp.triggered());
  EXPECT_EQ(cp.hits(), 0u);
}

TEST_F(CrashPointTest, ArmReplacesPreviousSchedule) {
  CrashPoints& cp = CrashPoints::Global();
  cp.Arm("a", 1);
  cp.Arm("b", 2);  // replaces: "a" no longer trips
  TDP_CRASH_POINT("a");
  EXPECT_FALSE(cp.triggered());
  TDP_CRASH_POINT("b");
  TDP_CRASH_POINT("b");
  EXPECT_TRUE(cp.triggered());
  EXPECT_EQ(cp.triggered_by(), "b");
}

TEST_F(CrashPointTest, DisarmKeepsTriggeredUntilReset) {
  CrashPoints& cp = CrashPoints::Global();
  cp.Arm("p", 1);
  TDP_CRASH_POINT("p");
  ASSERT_TRUE(cp.triggered());
  cp.Disarm();
  EXPECT_TRUE(cp.triggered());  // the "crashed" state persists
  cp.Reset();
  EXPECT_FALSE(cp.triggered());
  EXPECT_EQ(cp.triggered_by(), "");
}

TEST_F(CrashPointTest, RecordingCountsHitsPerPoint) {
  CrashPoints& cp = CrashPoints::Global();
  cp.SetRecording(true);
  TDP_CRASH_POINT("x");
  TDP_CRASH_POINT("x");
  TDP_CRASH_POINT("y");
  const auto hits = cp.RecordedHits();
  EXPECT_EQ(hits.at("x"), 2u);
  EXPECT_EQ(hits.at("y"), 1u);
  EXPECT_FALSE(cp.triggered());  // recording alone never trips
  cp.SetRecording(false);
}

TEST_F(CrashPointTest, FaultCrashTripsThroughSimDisk) {
  FaultInjector inj;
  inj.AddCrash(/*start_ns=*/0, /*duration_ns=*/MillisToNanos(60000),
               /*written_fraction=*/0.5);
  inj.Arm();
  SimDiskConfig cfg;
  cfg.base_latency_ns = 1000;
  cfg.sigma = 0;
  cfg.fault = &inj;
  SimDisk disk(cfg);
  EXPECT_FALSE(disk.Write(4096).ok());  // first I/O in the window crashes
  EXPECT_TRUE(CrashPoints::Global().triggered());
  EXPECT_EQ(CrashPoints::Global().triggered_by(), "fault.crash");
  EXPECT_EQ(inj.stats().crashes.load(), 1u);
  // The plug stays pulled: every subsequent request fails too, even on a
  // disk with no fault injector of its own.
  SimDiskConfig clean;
  clean.base_latency_ns = 1000;
  clean.sigma = 0;
  SimDisk other(clean);
  EXPECT_FALSE(other.Write(1).ok());
  EXPECT_FALSE(other.Read(1).ok());
  EXPECT_FALSE(other.Flush().ok());
}

// The strict (no-fallback) redo commit loop retries flush failures forever
// by design — except after a crash, where the device will never recover.
// The loop must notice and return instead of hanging the committer.
TEST_F(CrashPointTest, StrictRedoCommitEscapesAfterCrash) {
  engine::MySQLMiniConfig cfg;
  cfg.logical_redo = true;
  cfg.flush_policy = log::FlushPolicy::kEagerFlush;
  cfg.log_group_commit = false;
  cfg.log_fallback_lazy_on_stall = false;  // strict: retry until durable
  cfg.row_work_ns = 0;
  cfg.btree.level_work_ns = 0;
  cfg.data_disk.base_latency_ns = 0;
  cfg.data_disk.sigma = 0;
  cfg.log_disk.base_latency_ns = 1000;
  cfg.log_disk.sigma = 0;
  cfg.log_disk.flush_barrier_ns = 0;
  cfg.io_retry.backoff_ns = 1000;
  engine::MySQLMini db(cfg);
  db.CreateTable("t", 64);
  const uint32_t t = db.TableId("t");
  db.BulkUpsert(t, 1, storage::Row{0});

  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, 1, 0, 1).ok());
  ASSERT_TRUE(conn->Commit().ok());
  ASSERT_EQ(db.redo_log().durable_lsn(), 1u);

  CrashPoints::Global().Arm("redo.pre_flush", 1);
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, 1, 0, 1).ok());
  // Without the triggered() escape this would spin forever on a dead disk.
  ASSERT_TRUE(conn->Commit().ok());  // acked to client, but not durable
  EXPECT_TRUE(CrashPoints::Global().triggered());
  EXPECT_EQ(db.redo_log().durable_lsn(), 1u);

  // Reboot: the durable image holds exactly the pre-crash commit.
  CrashPoints::Global().Reset();
  const auto recovered = db.redo_log().RecoverCommitted();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].lsn, 1u);
}

// The audit this pins: RedoLog::Stop() must interrupt the flusher's
// inter-round nap (stop_cv_.wait_for with the !running_ predicate) even when
// the crash flag is already up. A 10-second flusher interval makes a wedge
// observable — if Stop() ever waited out the nap instead of interrupting
// it, this test would blow well past the bound.
TEST_F(CrashPointTest, StopInterruptsLongFlusherNapAfterCrashTrigger) {
  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kLazyFlush;
  cfg.disk = nullptr;  // deviceless: nothing but the nap can block Stop
  cfg.flusher_interval_ns = MillisToNanos(10000);
  cfg.os_write_latency_ns = 0;
  log::RedoLog redo(cfg);
  redo.Start();
  redo.Commit(/*txn_id=*/1, /*bytes=*/128);

  CrashPoints::Global().Trigger("test.simulated-crash");
  const auto t0 = std::chrono::steady_clock::now();
  redo.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "Stop() waited out the flusher nap instead of interrupting it";
}

// Companion case: the flusher thread itself trips the armed crash point
// mid-flush (redo.pre_flush inside its own WriteAndFlushUpTo round). The
// strict retry loop must escape on triggered() and return to the nap so a
// subsequent Stop() still joins promptly, and nothing reaches the device
// after the crash instant.
TEST_F(CrashPointTest, StopReturnsWhenFlusherItselfTripsTheCrashPoint) {
  SimDiskConfig disk_cfg;
  disk_cfg.base_latency_ns = 1000;
  disk_cfg.sigma = 0;
  SimDisk disk(disk_cfg);

  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kLazyFlush;
  cfg.disk = &disk;
  cfg.flusher_interval_ns = MillisToNanos(2);
  cfg.os_write_latency_ns = 0;
  cfg.io_retry.backoff_ns = 1000;
  log::RedoLog redo(cfg);
  redo.Start();

  CrashPoints::Global().Arm("redo.pre_flush", 1);
  redo.Commit(/*txn_id=*/1, /*bytes=*/256);

  // Bounded spin: the next flusher round (<= 2ms away) hits the armed point.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!CrashPoints::Global().triggered() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(CrashPoints::Global().triggered());

  const auto t0 = std::chrono::steady_clock::now();
  redo.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "Stop() wedged behind a flusher stuck in its retry loop";

  // The crash preceded the flush, so nothing became durable.
  EXPECT_EQ(redo.durable_lsn(), 0u);
  CrashPoints::Global().Reset();
  EXPECT_TRUE(redo.RecoverCommitted().empty());
}

// --- epoch-based async group commit under crashes (docs/group_commit.md) ---

// A crash at epoch.pre_flush fires after the epoch batch is parked but
// before its leader flush: the WHOLE un-flushed epoch must be lost
// atomically. No ack has fired yet, and none may fire OK afterwards — an
// acked-but-lost commit is the failure mode this test rules out.
TEST_F(CrashPointTest, EpochCrashLosesWholeUnflushedEpochAtomically) {
  SimDiskConfig disk_cfg;
  disk_cfg.base_latency_ns = 1000;
  disk_cfg.sigma = 0;
  disk_cfg.flush_barrier_ns = 0;
  SimDisk disk(disk_cfg);

  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(2);
  cfg.io_retry.backoff_ns = 1000;
  log::RedoLog redo(cfg);
  redo.Start();

  CrashPoints::Global().Arm("epoch.pre_flush", 1);
  std::atomic<int> fired{0}, ok{0};
  for (int i = 0; i < 4; ++i) {
    redo.CommitAsync(static_cast<uint64_t>(i + 1), 256, {},
                     [&](const Status& s) {
                       fired.fetch_add(1);
                       if (s.ok()) ok.fetch_add(1);
                     });
  }
  // The next epoch round (<= 2ms away) walks into the armed point.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!CrashPoints::Global().triggered() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(CrashPoints::Global().triggered());

  redo.Stop();  // reboot boundary: resolves the stranded acks
  EXPECT_EQ(fired.load(), 4);
  EXPECT_EQ(ok.load(), 0);  // nobody was told their commit survived
  EXPECT_EQ(redo.durable_lsn(), 0u);
  CrashPoints::Global().Reset();
  EXPECT_TRUE(redo.RecoverCommitted().empty());  // ...and nobody's did
}

// Mid-stream variant: one epoch lands (its acks fire OK), the next crashes
// pre-flush. Recovery must hold exactly the acked epoch — the acked-OK set
// and the recovered set stay identical across the crash.
TEST_F(CrashPointTest, EpochCrashPreservesExactlyTheAckedPrefix) {
  SimDiskConfig disk_cfg;
  disk_cfg.base_latency_ns = 1000;
  disk_cfg.sigma = 0;
  disk_cfg.flush_barrier_ns = 0;
  SimDisk disk(disk_cfg);

  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(1);
  cfg.io_retry.backoff_ns = 1000;
  log::RedoLog redo(cfg);
  redo.Start();

  // Epoch 1: two commits become durable and ack OK.
  std::atomic<int> early_ok{0};
  for (int i = 0; i < 2; ++i) {
    redo.CommitAsync(
        static_cast<uint64_t>(i + 1), 256,
        {log::RedoOp{log::RedoOp::Kind::kPut, 1, static_cast<uint64_t>(i + 1),
                     storage::Row{1}}},
        [&](const Status& s) {
          if (s.ok()) early_ok.fetch_add(1);
        });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (early_ok.load() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(early_ok.load(), 2);
  ASSERT_GE(redo.durable_lsn(), 2u);

  // Epoch 2 crashes before its flush: its commits are lost, unacked.
  CrashPoints::Global().Arm("epoch.pre_flush", 1);
  std::atomic<int> late_fired{0}, late_ok{0};
  for (int i = 2; i < 4; ++i) {
    redo.CommitAsync(
        static_cast<uint64_t>(i + 1), 256,
        {log::RedoOp{log::RedoOp::Kind::kPut, 1, static_cast<uint64_t>(i + 1),
                     storage::Row{1}}},
        [&](const Status& s) {
          late_fired.fetch_add(1);
          if (s.ok()) late_ok.fetch_add(1);
        });
  }
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!CrashPoints::Global().triggered() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(CrashPoints::Global().triggered());

  redo.Stop();
  EXPECT_EQ(late_fired.load(), 2);
  EXPECT_EQ(late_ok.load(), 0);
  EXPECT_EQ(redo.durable_lsn(), 2u);  // exactly the acked epoch

  CrashPoints::Global().Reset();
  const auto recovered = redo.RecoverCommitted();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].lsn, 1u);
  EXPECT_EQ(recovered[1].lsn, 2u);
}

// A crash at epoch.pre_flush leaves the log device dark until reboot, so no
// later epoch can cover the parked tail. The epoch round that tripped the
// crash must resolve every parked ack as lost itself — without waiting for
// Stop — or a committer blocked on its ack (a 2PC coordinator collecting
// prepare votes) hangs until someone stops the log. RedoLog and WalManager
// share this drain rule (docs/group_commit.md), so one body runs for both.
void ExpectEpochCrashResolvesParkedAcksWithoutStop(
    const std::function<void(uint64_t txn_id, AckFn ack)>& commit_async) {
  CrashPoints::Global().Arm("epoch.pre_flush", 1);
  constexpr int kCommits = 4;
  // Shared, not on this stack: a stranded ack fires later, at the log's Stop.
  struct Tally {
    std::atomic<int> fired{0}, ok{0};
  };
  auto tally = std::make_shared<Tally>();
  for (int i = 0; i < kCommits; ++i) {
    commit_async(static_cast<uint64_t>(i + 1), [tally](const Status& s) {
      tally->fired.fetch_add(1);
      if (s.ok()) tally->ok.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (tally->fired.load() < kCommits &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(CrashPoints::Global().triggered());
  EXPECT_EQ(tally->fired.load(), kCommits) << "parked acks stranded until Stop";
  EXPECT_EQ(tally->ok.load(), 0);
}

SimDiskConfig EpochCrashDisk() {
  SimDiskConfig cfg;
  cfg.base_latency_ns = 1000;
  cfg.sigma = 0;
  cfg.flush_barrier_ns = 0;
  return cfg;
}

TEST_F(CrashPointTest, RedoEpochCrashResolvesParkedAcksWithoutStop) {
  SimDisk disk(EpochCrashDisk());
  log::RedoLogConfig cfg;
  cfg.disk = &disk;
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(2);
  cfg.io_retry.backoff_ns = 1000;
  log::RedoLog redo(cfg);
  redo.Start();
  ExpectEpochCrashResolvesParkedAcksWithoutStop(
      [&](uint64_t txn_id, AckFn ack) {
        redo.CommitAsync(txn_id, 256, {}, std::move(ack));
      });
  EXPECT_EQ(redo.durable_lsn(), 0u);
}

TEST_F(CrashPointTest, WalEpochCrashResolvesParkedAcksWithoutStop) {
  pg::WalConfig cfg;
  cfg.block_bytes = 512;
  cfg.disk = EpochCrashDisk();
  cfg.async_commit = true;
  cfg.epoch_interval_ns = MillisToNanos(2);
  cfg.io_retry.backoff_ns = 1000;
  pg::WalManager wal(cfg);
  wal.Start();
  ExpectEpochCrashResolvesParkedAcksWithoutStop(
      [&](uint64_t txn_id, AckFn ack) {
        wal.CommitFlushAsync(
            txn_id, 256,
            {log::RedoOp{log::RedoOp::Kind::kPut, 1, txn_id, storage::Row{1}}},
            std::move(ack));
      });
  std::vector<log::RecoveredTxn> out;
  pg::WalManager::RecoverCommitted(wal.CrashImages(), &out);
  EXPECT_TRUE(out.empty());  // nothing acked OK, nothing recovered
}

}  // namespace
}  // namespace tdp
