#include "log/redo_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/work.h"

namespace tdp::log {
namespace {

SimDiskConfig FastDisk() {
  SimDiskConfig cfg;
  cfg.base_latency_ns = 20000;
  cfg.sigma = 0.1;
  cfg.flush_barrier_ns = 10000;
  return cfg;
}

TEST(RedoLogTest, EagerFlushIsDurableImmediately) {
  SimDisk disk(FastDisk());
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  RedoLog log(cfg);
  log.Start();
  const uint64_t lsn = log.Commit(7, 256);
  EXPECT_GE(log.durable_lsn(), lsn);
  const std::vector<uint64_t> survivors = log.SimulateCrash();
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0], 7u);
}

TEST(RedoLogTest, LazyFlushCommitsBeforeDurability) {
  SimDisk disk(FastDisk());
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kLazyFlush;
  cfg.disk = &disk;
  cfg.flusher_interval_ns = MillisToNanos(500);  // long: crash before flush
  RedoLog log(cfg);
  log.Start();
  const uint64_t lsn = log.Commit(7, 256);
  EXPECT_GE(log.written_lsn(), lsn);   // written by the worker...
  EXPECT_LT(log.durable_lsn(), lsn);   // ...but not yet durable
  const std::vector<uint64_t> survivors = log.SimulateCrash();
  EXPECT_TRUE(survivors.empty());  // forward progress lost (Appendix B)
}

TEST(RedoLogTest, LazyWriteDefersEverything) {
  SimDisk disk(FastDisk());
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kLazyWrite;
  cfg.disk = &disk;
  cfg.flusher_interval_ns = MillisToNanos(500);
  RedoLog log(cfg);
  log.Start();
  const uint64_t writes = disk.stats().writes.load();
  const uint64_t flushes = disk.stats().flushes.load();
  const uint64_t bytes = disk.stats().bytes.load();
  log.Commit(7, 256);
  // Nothing on the commit path: no request and no byte reaches the device.
  EXPECT_EQ(disk.stats().writes.load(), writes);
  EXPECT_EQ(disk.stats().flushes.load(), flushes);
  EXPECT_EQ(disk.stats().bytes.load(), bytes);
  EXPECT_EQ(log.written_lsn(), 0u);
  log.SimulateCrash();
}

TEST(RedoLogTest, BackgroundFlusherEventuallyDurable) {
  SimDisk disk(FastDisk());
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kLazyWrite;
  cfg.disk = &disk;
  cfg.flusher_interval_ns = MillisToNanos(5);
  RedoLog log(cfg);
  log.Start();
  const uint64_t lsn = log.Commit(9, 128);
  const int64_t deadline = NowNanos() + MillisToNanos(2000);
  while (log.durable_lsn() < lsn && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(log.durable_lsn(), lsn);
  const std::vector<uint64_t> survivors = log.SimulateCrash();
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0], 9u);
}

TEST(RedoLogTest, LsnsAreMonotonic) {
  RedoLogConfig cfg;  // no disk: I/O free
  RedoLog log(cfg);
  log.Start();
  uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t lsn = log.Commit(i, 10);
    EXPECT_GT(lsn, prev);
    prev = lsn;
  }
}

TEST(RedoLogTest, GroupCommitCoalescesFlushes) {
  SimDiskConfig dcfg = FastDisk();
  dcfg.base_latency_ns = 500000;  // slow flushes force grouping
  dcfg.sigma = 0;
  SimDisk disk(dcfg);
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kEagerFlush;
  cfg.disk = &disk;
  RedoLog log(cfg);
  log.Start();

  constexpr int kThreads = 8, kPer = 4;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) log.Commit(t * 100 + i, 64);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(log.stats().commits.load(), uint64_t{kThreads * kPer});
  // Group commit: strictly fewer flushes than commits.
  EXPECT_LT(log.stats().flushes.load(), uint64_t{kThreads * kPer});
  EXPECT_GT(log.stats().group_commit_riders.load(), 0u);
  // All commits durable.
  const std::vector<uint64_t> survivors = log.SimulateCrash();
  EXPECT_EQ(survivors.size(), uint64_t{kThreads * kPer});
}

TEST(RedoLogTest, CrashPartitionsByDurableLsn) {
  SimDisk disk(FastDisk());
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kLazyFlush;
  cfg.disk = &disk;
  cfg.flusher_interval_ns = MillisToNanos(10);
  RedoLog log(cfg);
  log.Start();
  log.Commit(1, 64);
  // Let the flusher make txn 1 durable.
  const int64_t deadline = NowNanos() + MillisToNanos(2000);
  while (log.durable_lsn() < 1 && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(log.durable_lsn(), 1u);
  log.Stop();  // flusher gone; next commit cannot become durable
  log.Commit(2, 64);
  const std::vector<uint64_t> survivors = log.SimulateCrash();
  EXPECT_EQ(survivors, std::vector<uint64_t>{1});
}

// Polls until `done()` holds; returns false after two seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  const int64_t deadline = NowNanos() + MillisToNanos(2000);
  while (!done()) {
    if (NowNanos() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// Lazy-flush's buffered write lands in the page cache, not on the device;
// the flusher's write-through force must still carry every byte of it.
TEST(RedoLogTest, LazyFlushForceCarriesTheBufferedBytes) {
  SimDiskConfig dcfg = FastDisk();
  dcfg.sigma = 0;
  SimDisk disk(dcfg);
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kLazyFlush;
  cfg.disk = &disk;
  cfg.flusher_interval_ns = MillisToNanos(100);
  RedoLog log(cfg);
  log.Start();
  uint64_t lsn = 0;
  for (uint64_t i = 1; i <= 10; ++i) lsn = log.Commit(i, 1000);
  // The commit path issues no device request and moves no byte.
  EXPECT_EQ(disk.stats().flushes.load(), 0u);
  EXPECT_EQ(disk.stats().bytes.load(), 0u);
  ASSERT_TRUE(WaitFor([&] { return log.durable_lsn() >= lsn; }));
  EXPECT_EQ(disk.stats().writes.load(), 0u);
  EXPECT_EQ(disk.stats().bytes.load(), 10000u);
  log.Stop();
}

// Every force path issues one write-through request per commit: a
// SimDisk::Flush that carries the commit's bytes, and no separate Write. On a
// fixed 20 ms device a force split into a write and a barrier would take two
// requests and at least 40 ms.
TEST(RedoLogTest, ForceIsOneWriteThroughRequest) {
  struct Path {
    const char* name;
    FlushPolicy policy;
    bool group_commit;
    bool async_commit;
  };
  const Path paths[] = {
      {"per-commit", FlushPolicy::kEagerFlush, false, false},
      {"group-commit", FlushPolicy::kEagerFlush, true, false},
      {"lazy-write flusher", FlushPolicy::kLazyWrite, true, false},
      {"epoch", FlushPolicy::kEagerFlush, true, true},
  };
  constexpr uint64_t kBytes = 512;
  for (const Path& p : paths) {
    SCOPED_TRACE(p.name);
    SimDiskConfig dcfg;
    dcfg.base_latency_ns = MillisToNanos(20);
    dcfg.sigma = 0;
    dcfg.bytes_per_us = 0;
    SimDisk disk(dcfg);
    RedoLogConfig cfg;
    cfg.policy = p.policy;
    cfg.disk = &disk;
    cfg.group_commit = p.group_commit;
    cfg.async_commit = p.async_commit;
    cfg.flusher_interval_ns = MillisToNanos(1);
    RedoLog log(cfg);
    log.Start();
    std::atomic<bool> acked{false};
    const int64_t t0 = NowNanos();
    const uint64_t lsn =
        p.async_commit
            ? log.CommitAsync(7, kBytes, {}, [&](Status) { acked = true; })
            : log.Commit(7, kBytes);
    ASSERT_TRUE(WaitFor([&] {
      return log.durable_lsn() >= lsn && (!p.async_commit || acked);
    }));
    EXPECT_LT(NowNanos() - t0, MillisToNanos(30));
    EXPECT_EQ(disk.stats().flushes.load(), 1u);
    EXPECT_EQ(disk.stats().writes.load(), 0u);
    EXPECT_EQ(disk.stats().bytes.load(), kBytes);
    log.Stop();
  }
}

// A torn write-through force persists part of its payload and fails. The
// per-commit force inside the window stays non-durable, and every retry, like
// the flusher's force after the window, re-sends the whole batch.
TEST(RedoLogTest, TornForceStaysUndurableAndEveryRetryResendsTheBatch) {
  FaultInjector inj;
  inj.AddTornFlush(0, MillisToNanos(100), 0.25);
  SimDiskConfig dcfg = FastDisk();
  dcfg.sigma = 0;
  dcfg.fault = &inj;
  SimDisk disk(dcfg);
  RedoLogConfig cfg;
  cfg.policy = FlushPolicy::kEagerFlush;
  cfg.group_commit = false;
  cfg.disk = &disk;
  cfg.fallback_lazy_on_stall = true;  // degrade instead of retry forever
  // The flusher's first round comes after the torn window has closed.
  cfg.flusher_interval_ns = MillisToNanos(200);
  cfg.io_retry.max_attempts = 3;
  cfg.io_retry.backoff_ns = 1000;
  RedoLog log(cfg);
  log.Start();
  inj.Arm();
  constexpr uint64_t kBytes = 1000;
  const uint64_t lsn = log.Commit(7, kBytes);
  EXPECT_LT(log.durable_lsn(), lsn);
  EXPECT_EQ(log.stats().degraded_commits.load(), 1u);
  EXPECT_EQ(inj.stats().torn_flushes.load(), 3u);
  EXPECT_EQ(disk.stats().flushes.load(), 3u);
  EXPECT_EQ(disk.stats().writes.load(), 0u);
  // Each attempt carried all 1000 bytes, and a quarter of them landed.
  EXPECT_EQ(disk.stats().bytes.load(), 3 * 250u);
  EXPECT_EQ(disk.stats().bytes_lost.load(), 3 * 750u);

  ASSERT_TRUE(WaitFor([&] { return log.durable_lsn() >= lsn; }));
  EXPECT_EQ(disk.stats().flushes.load(), 4u);
  EXPECT_EQ(disk.stats().bytes.load(), 3 * 250u + kBytes);
  EXPECT_EQ(log.SimulateCrash(), std::vector<uint64_t>{7});
}

TEST(RedoLogTest, StopIsIdempotent) {
  RedoLog log(RedoLogConfig{});
  log.Start();
  log.Stop();
  log.Stop();
  SUCCEED();
}

}  // namespace
}  // namespace tdp::log
