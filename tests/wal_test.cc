#include "pg/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/crash_point.h"
#include "common/fault.h"

namespace tdp::pg {
namespace {

WalConfig FastWal(bool parallel, uint64_t block = 4096) {
  WalConfig cfg;
  cfg.block_bytes = block;
  cfg.parallel_logging = parallel;
  cfg.disk.base_latency_ns = 20000;
  cfg.disk.sigma = 0;
  cfg.disk.flush_barrier_ns = 10000;
  return cfg;
}

TEST(WalTest, BlockRounding) {
  WalManager wal(FastWal(false, 4096));
  wal.CommitFlush(1);      // 1 block
  wal.CommitFlush(4096);   // 1 block
  wal.CommitFlush(4097);   // 2 blocks
  wal.CommitFlush(0);      // still writes 1 block (header)
  EXPECT_EQ(wal.stats().blocks_written.load(), 5u);
  EXPECT_EQ(wal.stats().commits.load(), 4u);
}

TEST(WalTest, SingleModeNeverUsesSecondLog) {
  WalManager wal(FastWal(false));
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      for (int j = 0; j < 10; ++j) wal.CommitFlush(512);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(wal.stats().second_log_used.load(), 0u);
}

TEST(WalTest, ParallelModeSpreadsLoad) {
  WalConfig cfg = FastWal(true);
  cfg.disk.base_latency_ns = 200000;  // slow: force overlap
  WalManager wal(cfg);
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i) {
    ts.emplace_back([&] {
      for (int j = 0; j < 5; ++j) wal.CommitFlush(512);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_GT(wal.stats().second_log_used.load(), 0u);
}

TEST(WalTest, ParallelModeFasterUnderContention) {
  auto timed_run = [&](bool parallel) {
    WalConfig cfg = FastWal(parallel);
    cfg.disk.base_latency_ns = 150000;
    WalManager wal(cfg);
    const int64_t t0 = NowNanos();
    std::vector<std::thread> ts;
    for (int i = 0; i < 6; ++i) {
      ts.emplace_back([&] {
        for (int j = 0; j < 6; ++j) wal.CommitFlush(512);
      });
    }
    for (auto& t : ts) t.join();
    return NowNanos() - t0;
  };
  const int64_t serial = timed_run(false);
  const int64_t parallel = timed_run(true);
  EXPECT_LT(parallel, serial);  // two disks beat one under contention
}

TEST(WalTest, NumLogSetsHonored) {
  WalConfig cfg = FastWal(false);
  cfg.num_log_sets = 4;
  WalManager wal(cfg);
  EXPECT_EQ(wal.num_log_sets(), 4);
  // parallel_logging flag still implies at least two sets.
  WalConfig two = FastWal(true);
  two.num_log_sets = 1;
  EXPECT_EQ(WalManager(two).num_log_sets(), 2);
  // And the single-set default stays serial.
  EXPECT_EQ(WalManager(FastWal(false)).num_log_sets(), 1);
}

TEST(WalTest, FourWayLoggingSpreadsFurther) {
  auto timed_run = [&](int sets) {
    WalConfig cfg = FastWal(false);
    cfg.num_log_sets = sets;
    cfg.disk.base_latency_ns = 150000;
    WalManager wal(cfg);
    const int64_t t0 = NowNanos();
    std::vector<std::thread> ts;
    for (int i = 0; i < 8; ++i) {
      ts.emplace_back([&] {
        for (int j = 0; j < 4; ++j) wal.CommitFlush(512);
      });
    }
    for (auto& t : ts) t.join();
    return NowNanos() - t0;
  };
  const int64_t one = timed_run(1);
  const int64_t four = timed_run(4);
  EXPECT_LT(four, one);
}

TEST(WalTest, ZeroBlockBytesDefaulted) {
  WalConfig cfg = FastWal(false);
  cfg.block_bytes = 0;
  WalManager wal(cfg);
  EXPECT_EQ(wal.block_bytes(), 8192u);
}

// --- async commit: per-set epoch writers ------------------------------------

// Two-set-capable async WAL on fixed-latency devices: every request takes
// `request_ms` (no jitter, barrier surcharge or transfer time).
WalConfig FixedAsyncWal(int sets, int64_t request_ms, int64_t epoch_ns) {
  WalConfig cfg;
  cfg.block_bytes = 512;
  cfg.num_log_sets = sets;
  cfg.disk.base_latency_ns = MillisToNanos(request_ms);
  cfg.disk.sigma = 0;
  cfg.disk.flush_barrier_ns = 0;
  cfg.disk.bytes_per_us = 0;
  cfg.async_commit = true;
  cfg.epoch_interval_ns = epoch_ns;
  return cfg;
}

std::vector<log::RedoOp> OneOp(uint64_t key) {
  return {log::RedoOp{log::RedoOp::Kind::kPut, /*table=*/1, key,
                      storage::Row{static_cast<int64_t>(key)}}};
}

// Polls until `done()` holds; returns false after five seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  const int64_t deadline = NowNanos() + MillisToNanos(5000);
  while (!done()) {
    if (NowNanos() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

// Acks in the order they fired, by commit number.
struct AckOrder {
  std::mutex mu;
  std::vector<int> fired;
  std::vector<bool> ok;

  AckFn Make(int who) {
    return [this, who](const Status& s) {
      std::lock_guard<std::mutex> g(mu);
      fired.push_back(who);
      ok.push_back(s.ok());
    };
  }
  size_t size() {
    std::lock_guard<std::mutex> g(mu);
    return fired.size();
  }
};

// Clears the process-wide crash flag on entry and on scope exit, so a failed
// assertion cannot leave it tripped for later tests.
struct CrashGuard {
  CrashGuard() { CrashPoints::Global().Reset(); }
  ~CrashGuard() { CrashPoints::Global().Reset(); }
};

// One epoch round over k parked commits is one write-through request: one
// flush, no separate write, carrying the round's payload in whole blocks.
TEST(WalTest, EpochRoundIsOneWriteThroughRequest) {
  WalManager wal(FixedAsyncWal(1, 1, MillisToNanos(200)));
  wal.Start();
  AckOrder acks;
  constexpr int kCommits = 5;
  for (int i = 1; i <= kCommits; ++i) {
    // 5 x 300 B = 1500 B: three 512 B blocks.
    wal.CommitFlushAsync(i, 300, OneOp(i), acks.Make(i));
  }
  ASSERT_TRUE(WaitFor([&] { return acks.size() == kCommits; }));
  const SimDisk::Stats& d = wal.disk(0).stats();
  EXPECT_EQ(d.flushes.load(), 1u);
  EXPECT_EQ(d.writes.load(), 0u);
  EXPECT_EQ(d.bytes.load(), 3u * 512);
  EXPECT_EQ(wal.stats().blocks_written.load(), 3u);
  EXPECT_EQ(wal.stats().epoch_flushes.load(), 1u);
  wal.Stop();
  EXPECT_EQ(acks.ok, std::vector<bool>(kCommits, true));
}

// The paper's per-commit path keeps the Section 7.5 block mechanism:
// ceil(B / block) block writes, then one barrier.
TEST(WalTest, SyncCommitIsBlockWritesThenOneBarrier) {
  WalConfig cfg = FixedAsyncWal(1, 1, 0);
  cfg.async_commit = false;
  WalManager wal(cfg);
  ASSERT_TRUE(wal.CommitFlush(1, 1300, OneOp(1)).ok());  // three blocks
  const SimDisk::Stats& d = wal.disk(0).stats();
  EXPECT_EQ(d.writes.load(), 3u);
  EXPECT_EQ(d.flushes.load(), 1u);
  EXPECT_EQ(d.bytes.load(), 3u * 512);
}

// A round's I/O runs without the set's WALWriteLock: a commit that inserts
// while the round is in flight returns at once, not after the request.
TEST(WalTest, AsyncInsertDoesNotWaitForRoundInFlight) {
  WalManager wal(FixedAsyncWal(1, 20, MillisToNanos(1)));
  wal.Start();
  AckOrder acks;
  wal.CommitFlushAsync(1, 100, OneOp(1), acks.Make(1));
  ASSERT_TRUE(WaitFor([&] { return wal.disk(0).in_service() == 1; }));
  const int64_t t0 = NowNanos();
  wal.CommitFlushAsync(2, 100, OneOp(2), acks.Make(2));
  EXPECT_LT(NowNanos() - t0, MillisToNanos(10))
      << "the insert waited for the round's 20 ms request";
  ASSERT_TRUE(WaitFor([&] { return acks.size() == 2; }));
  wal.Stop();
  EXPECT_EQ(acks.fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(acks.ok, (std::vector<bool>{true, true}));
}

// Each set has its own writer, so commits parked on both sets are acked
// after about one request time, not two requests back to back.
TEST(WalTest, RoundsOnBothSetsRunAtOnce) {
  constexpr int64_t kRequestMs = 40;
  WalManager wal(FixedAsyncWal(2, kRequestMs, MillisToNanos(1)));
  wal.Start();
  AckOrder acks;
  wal.CommitFlushAsync(1, 100, OneOp(1), acks.Make(1));
  ASSERT_TRUE(WaitFor([&] { return wal.disk(0).in_service() == 1; }));
  const int64_t t0 = NowNanos();
  // Set 0's device is busy with the first round: this commit takes set 1.
  wal.CommitFlushAsync(2, 100, OneOp(2), acks.Make(2));
  ASSERT_TRUE(WaitFor([&] { return acks.size() == 2; }));
  EXPECT_LT(NowNanos() - t0, MillisToNanos(kRequestMs * 3 / 2));
  EXPECT_EQ(wal.disk(1).stats().flushes.load(), 1u);
  wal.Stop();
  EXPECT_EQ(acks.ok, (std::vector<bool>{true, true}));
}

// Ack order across sets: commit A's round on set 0 is slowed 100x, and B,
// committed later, lands on set 1 and is durable first. B's ack still waits
// for A's: B may have read from A.
TEST(WalTest, AckWaitsForLowerSequenceOnOtherSet) {
  FaultInjector spike;
  spike.AddLatencySpike(0, MillisToNanos(10), 100.0);  // A: 1 ms -> 100 ms
  WalConfig cfg = FixedAsyncWal(2, 1, 200 * 1000);
  cfg.disk.fault = &spike;
  WalManager wal(cfg);
  wal.Start();
  AckOrder acks;
  spike.Arm();
  wal.CommitFlushAsync(1, 100, OneOp(1), acks.Make(1));
  ASSERT_TRUE(WaitFor([&] { return wal.disk(0).in_service() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(12));  // past it
  wal.CommitFlushAsync(2, 100, OneOp(2), acks.Make(2));
  ASSERT_TRUE(WaitFor([&] { return acks.size() == 2; }));
  EXPECT_EQ(wal.disk(1).stats().flushes.load(), 1u);  // B took set 1
  EXPECT_EQ(acks.fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(acks.ok, (std::vector<bool>{true, true}));
  wal.Stop();
}

// The same race with a crash before A's round lands (its request tears):
// B's bytes are durable on set 1, but B must not be acked OK without A.
TEST(WalTest, CrashBeforeLowerRoundLandsNeverAcksHigher) {
  CrashGuard crash_guard;
  FaultInjector faults;
  faults.AddLatencySpike(0, MillisToNanos(10), 100.0);
  faults.AddTornFlush(0, MillisToNanos(10), 0.5);
  WalConfig cfg = FixedAsyncWal(2, 1, 200 * 1000);
  cfg.disk.fault = &faults;
  WalManager wal(cfg);
  wal.Start();
  AckOrder acks;
  faults.Arm();
  wal.CommitFlushAsync(1, 100, OneOp(1), acks.Make(1));
  ASSERT_TRUE(WaitFor([&] { return wal.disk(0).in_service() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  wal.CommitFlushAsync(2, 100, OneOp(2), acks.Make(2));
  ASSERT_TRUE(WaitFor([&] {
    return wal.disk(1).stats().flushes.load() == 1 &&
           wal.disk(1).in_service() == 0;
  }));
  CrashPoints::Global().Trigger("test");  // A's request is still in flight
  ASSERT_TRUE(WaitFor([&] { return acks.size() == 2; }));
  wal.Stop();
  EXPECT_EQ(acks.ok, (std::vector<bool>{false, false}));
}

// ForceDurable during a round in flight waits for it rather than marking
// the round's unwritten bytes durable on a barrier of its own; the round
// leaves it nothing to force.
TEST(WalTest, ForceDurableWaitsForRoundInFlight) {
  WalManager wal(FixedAsyncWal(1, 20, MillisToNanos(1)));
  wal.Start();
  AckOrder acks;
  wal.CommitFlushAsync(1, 100, OneOp(1), acks.Make(1));
  ASSERT_TRUE(WaitFor([&] { return wal.disk(0).in_service() == 1; }));
  ASSERT_TRUE(wal.ForceDurable().ok());
  EXPECT_EQ(wal.disk(0).stats().flushes.load(), 1u);
  EXPECT_EQ(wal.disk(0).stats().writes.load(), 0u);
  ASSERT_TRUE(WaitFor([&] { return acks.size() == 1; }));
  EXPECT_EQ(acks.ok, std::vector<bool>{true});
  std::vector<log::RecoveredTxn> out;
  EXPECT_TRUE(WalManager::RecoverCommitted(wal.CrashImages(), &out).status.ok());
  EXPECT_EQ(out.size(), 1u);
  wal.Stop();
}

}  // namespace
}  // namespace tdp::pg
