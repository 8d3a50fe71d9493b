// Buffer pool with InnoDB's split LRU (Section 6.1) and the paper's Lazy LRU
// Update (LLU) modification.
//
// The LRU list is split into a *young* and an *old* sublist; by default the
// old sublist holds 3/8 of resident pages. New pages enter at the head of the
// old sublist; a hit on an old page moves it to the head of the young list
// ("make young"), which requires the pool's LRU mutex — the contention point
// Table 1 identifies as buf_pool_mutex_enter. Eviction victims come from the
// old list's tail. Like InnoDB's, the mutex spins briefly before it sleeps
// (tdp::SpinParkMutex).
//
// LLU replaces the LRU mutex with a spin lock bounded by a small budget
// (default 0.01 ms). If the budget is exhausted the page id is pushed onto a
// thread-local backlog of deferred make-young operations; the next thread
// that does acquire the lock first drains its own backlog (skipping pages
// that were evicted meanwhile) before moving its own page.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sharded_hash_table.h"
#include "common/sim_disk.h"
#include "common/spinlock.h"
#include "common/status.h"

namespace tdp::buffer {

struct PageId {
  uint32_t space_id = 0;
  uint64_t page_no = 0;

  bool operator==(const PageId& o) const {
    return space_id == o.space_id && page_no == o.page_no;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& p) const {
    uint64_t h = p.page_no * 0xC2B2AE3D27D4EB4Full;
    h ^= static_cast<uint64_t>(p.space_id) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

struct BufferPoolConfig {
  size_t capacity_pages = 1024;
  /// Fraction of resident pages kept in the old sublist (InnoDB: 3/8).
  double old_ratio = 3.0 / 8.0;
  uint64_t page_bytes = 16384;

  /// Lazy LRU Update (the paper's LLU). When false the LRU lock is a
  /// blocking acquisition (original MySQL behaviour).
  bool lazy_lru = false;
  /// LLU spin budget before deferring the reorder (paper: 0.01 ms).
  int64_t llu_spin_budget_ns = 10000;
  /// Cap on the per-thread deferred-update backlog.
  size_t llu_backlog_max = 64;

  /// CPU burned while holding the LRU lock, per list operation (make-young,
  /// eviction scan, insertion). Models the list/flush/free bookkeeping a
  /// real buf_pool mutex hold covers; raising it reproduces the LRU-mutex
  /// contention of the paper's 2-WH configuration at laptop op rates.
  int64_t lru_critical_work_ns = 0;

  /// Buckets in the page hash (tdp::ShardedHashTable, one spinlock per
  /// bucket; rounded up to a power of two). 0 picks the default (256).
  /// A tuning knob: more buckets spread concurrent Fetch/Unpin traffic.
  size_t hash_buckets = 0;

  /// Device backing page reads and dirty writebacks. Not owned. May be null
  /// for purely in-memory tests (misses then cost nothing).
  SimDisk* disk = nullptr;
  /// Retry/backoff for page I/O under injected faults (docs/faults.md).
  IoRetryPolicy io_retry;
};

class BufferPool {
 public:
  explicit BufferPool(BufferPoolConfig config);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `id`, reading it from the disk on a miss (evicting if full).
  /// Every successful Fetch must be paired with an Unpin. Returns kIOError
  /// when the page read fails past its retry budget (the page is then not
  /// resident and not pinned; a later Fetch starts over).
  Status Fetch(PageId id);

  /// Marks the page dirty (it must be pinned by the caller).
  void MarkDirty(PageId id);

  void Unpin(PageId id);

  /// RAII pin.
  class PageGuard {
   public:
    PageGuard() = default;
    PageGuard(BufferPool* pool, PageId id) : pool_(pool), id_(id) {}
    PageGuard(PageGuard&& o) noexcept : pool_(o.pool_), id_(o.id_) {
      o.pool_ = nullptr;
    }
    PageGuard& operator=(PageGuard&& o) noexcept {
      Release();
      pool_ = o.pool_;
      id_ = o.id_;
      o.pool_ = nullptr;
      return *this;
    }
    ~PageGuard() { Release(); }
    void Release() {
      if (pool_) pool_->Unpin(id_);
      pool_ = nullptr;
    }

   private:
    BufferPool* pool_ = nullptr;
    PageId id_{};
  };

  /// Fetch returning a guard.
  Result<PageGuard> Pin(PageId id);

  struct Stats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> dirty_writebacks{0};
    std::atomic<uint64_t> make_young{0};
    std::atomic<uint64_t> llu_deferred{0};
    std::atomic<uint64_t> llu_drained{0};
    std::atomic<uint64_t> llu_dropped{0};  ///< Backlog overflow.
    std::atomic<uint64_t> io_retries{0};   ///< Extra page-I/O attempts.
    std::atomic<uint64_t> read_failures{0};       ///< Fetches failed on I/O.
    std::atomic<uint64_t> writeback_failures{0};  ///< Dirty pages dropped
                                                  ///< after exhausted retries.
  };
  const Stats& stats() const { return stats_; }
  const BufferPoolConfig& config() const { return config_; }

  /// Drains the calling thread's deferred LLU backlog with a *blocking* LRU
  /// acquisition. Engines call this from session teardown so a quiesced run
  /// always ends with an empty backlog (and a zero `buf.llu.backlog` gauge)
  /// even when the final operations lost their spin budgets. No-op outside
  /// LLU mode or when the thread's backlog is empty.
  void FlushBacklog();

  /// Frames held: pages in the LRU lists plus misses reading a page in.
  size_t resident_pages() const;
  /// Pages with a non-zero pin count — for invariant checks in tests.
  size_t PinnedPages() const;
  /// (young length, old length) — for invariant checks in tests.
  std::pair<size_t, size_t> SublistLengths() const;
  /// True if `id` is resident and currently in the old sublist.
  bool InOldSublist(PageId id) const;

 private:
  struct Frame {
    PageId id;
    int pin_count = 0;       // guarded by its page-hash bucket lock
    int io_waiters = 0;      // guarded by its page-hash bucket lock
    bool io_fixed = false;   // guarded by its page-hash bucket lock
    bool dirty = false;      // guarded by its page-hash bucket lock
    bool erased = false;     // guarded by its page-hash bucket lock
    std::atomic<bool> in_old{false};
    bool in_lru = false;     // guarded by the LRU lock
    Frame* lru_prev = nullptr;  // guarded by the LRU lock
    Frame* lru_next = nullptr;  // guarded by the LRU lock
  };

  /// Intrusive doubly linked sublist threaded through Frame::lru_prev/next,
  /// so LRU surgery under the LRU lock never calls the allocator. Guarded
  /// by the LRU lock.
  struct LruList {
    Frame* head = nullptr;
    Frame* tail = nullptr;
    size_t size = 0;

    void PushFront(Frame* f);
    void PushBack(Frame* f);
    void Remove(Frame* f);
  };

  // --- LRU lock: mutex (original) or bounded spin (LLU) -------------------
  void LruLockBlocking();
  bool LruLockBounded();  ///< False if the LLU budget expired.
  void LruUnlock();

  /// Moves `frame` (pinned, in old) to the young head; drains the calling
  /// thread's LLU backlog first when in LLU mode.
  void MakeYoung(Frame* frame);

  /// Must hold LRU lock. Moves the frame to the young head and rebalances.
  void MoveToYoungHeadLocked(Frame* frame);

  /// Must hold LRU lock. Keeps |old| ≈ old_ratio * resident.
  void BalanceListsLocked();

  /// Must hold LRU lock. Pops an evictable victim from the old tail (then
  /// young tail as fallback), removing it from the LRU lists; returns null
  /// if everything is pinned. Removal from the hash table happens here too.
  Frame* PickVictimLocked();

  /// Drains this thread's backlog (must hold LRU lock, LLU mode).
  void DrainBacklogLocked();

  /// This thread's deferred make-young backlog for this pool.
  std::vector<PageId>& Backlog();

  BufferPoolConfig config_;
  const uint64_t generation_;

  /// Page hash: PageId -> Frame* under per-bucket spinlocks. Frame pointers
  /// are stable until erased (chain nodes own only the pointer). A bucket
  /// lock may be taken while holding the LRU lock (victim scan, backlog
  /// drain) — never the reverse.
  ShardedHashTable<PageId, Frame*, PageIdHash> table_;

  /// io_fix waiters park here (bucket spinlocks cannot host a condvar).
  /// A waiter bumps its frame's io_waiters under the bucket lock; the
  /// publisher clears io_fixed under the same lock and takes io_mu_ to
  /// notify only when that count is non-zero, so an uncontended miss never
  /// touches io_mu_. Waiters use a bounded wait_for + re-check loop, so a
  /// missed notify costs at most one bound, never a hang.
  std::mutex io_mu_;
  std::condition_variable io_cv_;

  SpinParkMutex lru_mu_;    ///< Original-mode LRU ("buf_pool") mutex.
  SpinLock lru_spin_;       ///< LLU-mode LRU lock.
  LruList young_;
  LruList old_;
  /// Frame slots claimed (see resident_pages); a miss claims one before
  /// its read, PickVictimLocked and a failed read give one back.
  std::atomic<size_t> resident_{0};

  Stats stats_;
  // Registry handles, interned at construction (null when metrics are
  // disarmed or compiled out). `buf.llu.backlog` is a gauge over *all*
  // threads' deferred entries: +1 per defer, -size on drain, net zero on an
  // overflow drop, and adjusted when a thread's backlog is invalidated by a
  // pool switch — so its instantaneous value is the live backlog depth and
  // its watermark bounds the worst case.
  struct MetricHandles {
    metrics::Counter* hits = nullptr;
    metrics::Counter* misses = nullptr;
    metrics::Counter* evictions = nullptr;
    metrics::Counter* dirty_writebacks = nullptr;
    metrics::Counter* make_young = nullptr;
    metrics::Counter* llu_spin_timeouts = nullptr;
    metrics::Counter* llu_deferred = nullptr;
    metrics::Counter* llu_drained = nullptr;
    metrics::Counter* llu_dropped = nullptr;
    metrics::Counter* io_retries = nullptr;
    metrics::Counter* read_failures = nullptr;
    metrics::Counter* writeback_failures = nullptr;
    metrics::Gauge* llu_backlog = nullptr;
  };
  MetricHandles m_;
};

}  // namespace tdp::buffer
