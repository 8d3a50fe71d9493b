#include "common/spinlock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/work.h"

namespace tdp {
namespace {

TEST(SpinLockTest, BasicLockUnlock) {
  SpinLock l;
  l.lock();
  EXPECT_FALSE(l.try_lock());
  l.unlock();
  EXPECT_TRUE(l.try_lock());
  l.unlock();
}

TEST(SpinLockTest, TryLockForSucceedsWhenFree) {
  SpinLock l;
  EXPECT_TRUE(l.try_lock_for(1000));
  l.unlock();
}

TEST(SpinLockTest, TryLockForTimesOutWhenHeld) {
  SpinLock l;
  l.lock();
  const int64_t t0 = NowNanos();
  EXPECT_FALSE(l.try_lock_for(200000));  // 0.2 ms budget
  const int64_t elapsed = NowNanos() - t0;
  EXPECT_GE(elapsed, 150000);
  EXPECT_LT(elapsed, 50000000);  // and it did give up
  l.unlock();
}

TEST(SpinLockTest, TryLockForAcquiresWhenReleasedWithinBudget) {
  SpinLock l;
  l.lock();
  std::thread releaser([&] {
    SpinFor(100000);
    l.unlock();
  });
  EXPECT_TRUE(l.try_lock_for(MillisToNanos(100)));
  releaser.join();
  l.unlock();
}

TEST(SpinLockTest, MutualExclusionUnderContention) {
  SpinLock l;
  int counter = 0;
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        l.lock();
        ++counter;
        l.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SpinParkMutexTest, TryLockFailsWhileHeld) {
  SpinParkMutex m;
  m.lock();
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(SpinParkMutexTest, MutualExclusionUnderContention) {
  SpinParkMutex m;
  int counter = 0;  // plain int: an overlap loses increments, TSan sees it
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        m.lock();
        ++counter;
        m.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

// A waiter that outlasts the spin parks; the holder's unlock must wake it.
TEST(SpinParkMutexTest, ParkedWaiterWakesOnUnlock) {
  SpinParkMutex m;
  std::atomic<bool> acquired{false};
  m.lock();
  std::thread waiter([&] {
    m.lock();
    acquired.store(true);
    m.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(acquired.load());
  const int64_t released = NowNanos();
  m.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  // Woken by the notify, not by some later timeout (there is none).
  EXPECT_LT(NowNanos() - released, MillisToNanos(1000));
}

// Short holds from many threads mix spinning, parking and handoff; a lost
// wakeup would strand a parked thread and hang the join.
TEST(SpinParkMutexTest, NoLostWakeupWithShortHolds) {
  SpinParkMutex m;
  int64_t sum = 0;
  constexpr int kThreads = 6, kIters = 3000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        m.lock();
        sum += t + 1;
        if (i % 64 == 0) {  // a descheduled holder: waiters park
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        m.unlock();
        if (i % 128 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(sum, int64_t{kIters} * kThreads * (kThreads + 1) / 2);
}

}  // namespace
}  // namespace tdp
