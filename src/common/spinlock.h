// Two locks for the buffer pool's LRU list (Section 6.1):
//
//  * SpinLock — test-and-set with a bounded try_lock_for, the primitive the
//    Lazy LRU Update replaces the buffer-pool mutex with. The paper's LLU
//    abandons the LRU reorder if the lock cannot be acquired within 0.01 ms.
//  * SpinParkMutex — the original-mode buf_pool mutex, modelled on InnoDB's
//    own mutex: spin briefly on the lock word, then sleep on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/clock.h"

namespace tdp {

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
        // On few-core machines a pure spin starves the lock holder; yield
        // after a short burst so the holder can finish its critical section.
        if (++spins > 512) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }

  bool try_lock() { return !flag_.test_and_set(std::memory_order_acquire); }

  /// Spin until acquired or `budget_nanos` elapses. Returns true on success.
  bool try_lock_for(int64_t budget_nanos) {
    if (try_lock()) return true;
    const int64_t deadline = NowNanos() + budget_nanos;
    while (NowNanos() < deadline) {
      if (try_lock()) return true;
    }
    return false;
  }

  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// Hints the CPU that the caller is in a spin-wait loop.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// True when this process may run on more than one CPU, read once from the
/// affinity mask. With a single CPU the lock holder cannot run while a
/// waiter spins, so spinning only burns the waiter's slice.
inline bool SpinningCanPayOff() {
  static const bool multi_cpu = [] {
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      return CPU_COUNT(&set) > 1;
    }
#endif
    return std::thread::hardware_concurrency() != 1;
  }();
  return multi_cpu;
}

/// Spin-then-park mutex (InnoDB's mutex model: spin on the lock word for a
/// while, then wait on an event). A failed acquisition spins
/// kSpinRounds times — a relaxed load, a CAS when the word reads free, a
/// CPU pause — and only then parks on the lock word, in the three-state
/// futex mutex of Drepper's "Futexes Are Tricky" (0 free, 1 held, 2 held
/// with possible sleepers) over C++20 atomic wait/notify. Short critical
/// sections are thus handed over without a sleep and a wake-up syscall;
/// long holds still cost waiters no CPU. The spin is skipped when the
/// process can run on only one CPU.
class SpinParkMutex {
 public:
  /// Spin rounds before parking. Each round is a lock-word load plus a
  /// pause (tens of ns), so the budget covers a few microseconds — several
  /// LRU critical sections, well under one park/wake round trip.
  static constexpr int kSpinRounds = 128;

  SpinParkMutex() = default;
  SpinParkMutex(const SpinParkMutex&) = delete;
  SpinParkMutex& operator=(const SpinParkMutex&) = delete;

  void lock() {
    if (try_lock()) return;
    if (SpinningCanPayOff()) {
      for (int i = 0; i < kSpinRounds; ++i) {
        if (state_.load(std::memory_order_relaxed) == kFree && try_lock()) {
          return;
        }
        CpuRelax();
      }
    }
    // Park. Marking the word contended before each sleep makes the
    // eventual unlock notify; whoever swaps kFree out of it owns the lock.
    while (state_.exchange(kContended, std::memory_order_acquire) != kFree) {
      state_.wait(kContended, std::memory_order_relaxed);
    }
  }

  bool try_lock() {
    uint32_t expected = kFree;
    return state_.compare_exchange_strong(expected, kHeld,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    if (state_.exchange(kFree, std::memory_order_release) == kContended) {
      state_.notify_one();
    }
  }

 private:
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kHeld = 1;
  static constexpr uint32_t kContended = 2;
  std::atomic<uint32_t> state_{kFree};
};

}  // namespace tdp
