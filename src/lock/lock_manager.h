// Record-level 2PL lock manager with pluggable lock scheduling — the system
// under study in Section 5.
//
// Each record has a queue of granted and waiting requests. A request is
// granted immediately only if no one is waiting and it is compatible with all
// granted locks; otherwise the transaction suspends on its wait event (the
// os_event_wait path of Table 1). Whenever locks are released (or a waiter
// leaves), a grant pass runs under the configured scheduling policy:
//
//  * kFCFS — waiters considered in queue-arrival order (MySQL/Postgres
//    default; Section 5.1).
//  * kVATS — waiters considered eldest-transaction-first (largest age;
//    Section 5.2). Following the paper's implementation note, a waiter is
//    granted if it is compatible with every lock "in front of it" — all
//    granted locks plus all not-yet-granted waiters earlier in the order.
//  * kRS — waiters considered in a per-transaction random order (the
//    Randomized Scheduling baseline of Section 7.2).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sharded_hash_table.h"
#include "common/status.h"
#include "lock/deadlock.h"
#include "lock/lock_mode.h"
#include "lock/txn_context.h"

namespace tdp::lock {

enum class SchedulerPolicy {
  kFCFS,
  kVATS,
  kRS,
  /// Contention-Aware Transaction Scheduling: grant to the waiter whose
  /// transaction currently blocks the most other transactions (weight),
  /// breaking ties eldest-first. This is the VATS descendant MariaDB
  /// adopted as its default (Section 9). Requires deadlock detection (the
  /// weights are maintained from the wait-for graph).
  kCATS,
  /// Conflict-Predictive VATS: grant to the waiter whose transaction's
  /// declared key footprint has the highest predicted future blocking
  /// weight (learned online by a ConflictScorer from past wait/abort
  /// outcomes), breaking ties eldest-first. With no scorer configured (or
  /// empty footprints) the order degrades exactly to VATS.
  kCPVATS,
};

const char* SchedulerPolicyName(SchedulerPolicy p);

/// Reported to the observer each time a lock wait finishes (used by the
/// age-vs-remaining-time study, Fig. 8 / Appendix C.2), and fed to the
/// configured ConflictScorer as its online training signal.
struct WaitObservation {
  uint64_t txn_id = 0;
  int64_t age_at_enqueue_ns = 0;
  int64_t wait_ns = 0;
  bool granted = false;
};

/// Online conflict-prediction seam (implemented by sched::ConflictPredictor;
/// declared here so the lock manager never depends on src/sched). Both
/// methods may be called concurrently from many lock-manager threads;
/// PredictedWeight runs under a bucket lock and must not reenter the lock
/// manager or block.
class ConflictScorer {
 public:
  virtual ~ConflictScorer() = default;
  /// Predicted future blocking weight of `txn`'s declared footprint —
  /// CP-VATS sorts waiters by this, descending.
  virtual double PredictedWeight(const TxnContext& txn,
                                 int64_t now_ns) const = 0;
  /// One finished lock wait on `rec`: granted after queueing, or aborted
  /// (deadlock/timeout). Called without lock-manager locks held.
  virtual void OnWaitOutcome(const RecordId& rec, const WaitObservation& obs,
                             int64_t now_ns) = 0;
};

struct LockManagerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kFCFS;
  /// Lock waits longer than this fail with LockTimeout. Acts as the safety
  /// net beneath deadlock detection.
  int64_t wait_timeout_ns = MillisToNanos(10000);
  /// Paper's implementation note: grant every waiter compatible with all
  /// locks in front of it. When false, the grant pass stops at the first
  /// conflicting waiter (strict eldest-only; ablation knob).
  bool grant_compatible_beyond_conflict = true;
  bool detect_deadlocks = true;
  /// Re-derive every remaining waiter's wait-for edges after each release.
  /// More precise, but O(queue^2) on the release path; the default matches
  /// InnoDB (detect at wait insertion, stale edges caught by the timeout).
  bool refresh_edges_on_release = false;
  /// Under age-ordered policies, a new waiter refreshes the wait-for edges
  /// of waiters it cut in front of — but only while the queue is at most
  /// this deep (the refresh is O(queue²); beyond the bound, cycles fall
  /// back to the wait timeout).
  size_t insertion_refresh_max_queue = 64;
  /// Buckets in the record-queue hash (tdp::ShardedHashTable, one spinlock
  /// per bucket; rounded up to a power of two). Historically the number of
  /// mutex-protected shards — per-bucket locking keeps the name as the
  /// tuning knob. More buckets shrink the chance two hot records share a
  /// critical section.
  int num_shards = 64;
  /// Conflict scorer for kCPVATS ordering and online learning. Not owned;
  /// must outlive the manager. Null degrades kCPVATS to VATS and disables
  /// the learning feed.
  ConflictScorer* scorer = nullptr;
};

class LockManager {
 public:
  explicit LockManager(LockManagerConfig config = {});
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires (or upgrades to) `mode` on `rec` for `txn`, blocking until
  /// granted, deadlock-aborted, or timed out. Re-entrant: a covering lock
  /// already held returns OK immediately.
  Status Lock(TxnContext* txn, RecordId rec, LockMode mode);

  /// Releases every lock `txn` holds and wakes newly grantable waiters
  /// (strict 2PL release at commit/abort).
  void ReleaseAll(TxnContext* txn);

  /// Observer invoked (without internal locks held) when a wait completes.
  void SetWaitObserver(std::function<void(const WaitObservation&)> obs);

  SchedulerPolicy policy() const { return config_.policy; }

  /// CATS weight of a transaction (waiters currently blocked by it).
  int BlockedWeight(uint64_t txn_id) const;

  /// Sum of all CATS weights — equals the number of live wait-for edges, so
  /// a quiesced manager must report 0 (weight-conservation property test).
  int TotalBlockedWeight() const;

  /// Wait-for edges currently registered with the deadlock detector
  /// (tests: must be 0 at quiesce).
  size_t NumWaitEdges() const { return detector_.num_edges(); }

  // --- statistics ---------------------------------------------------------
  struct Stats {
    std::atomic<uint64_t> immediate_grants{0};
    std::atomic<uint64_t> waits{0};
    std::atomic<uint64_t> deadlocks{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> upgrades{0};
  };
  const Stats& stats() const { return stats_; }

  /// Number of granted + waiting requests on `rec` (tests/debug).
  std::pair<size_t, size_t> QueueDepths(RecordId rec) const;

 private:
  enum ReqState : int {
    kWaiting = 0,
    kGrantedState = 1,
    kDeadlockState = 2,
    kTimeoutState = 3,
  };

  struct Request {
    TxnContext* txn = nullptr;
    LockMode mode = LockMode::kS;
    int64_t enqueue_ns = 0;
    bool is_upgrade = false;
    std::atomic<int> state{kWaiting};
    // The wait event lives in the Request, not the TxnContext: a grant pass
    // collects woken requests under the shard lock but notifies after
    // dropping it, by which time a waiter whose timeout raced with the
    // grant may have returned and destroyed its TxnContext. The shared_ptr
    // in `woken` keeps the event alive for the late notifier.
    std::mutex wait_mu;
    std::condition_variable wait_cv;
  };
  using RequestPtr = std::shared_ptr<Request>;

  struct Queue {
    std::vector<RequestPtr> granted;
    std::vector<RequestPtr> waiting;
  };

  /// Waiting list sorted per the configured policy (upgrades first).
  std::vector<RequestPtr> ScheduleOrder(const Queue& q) const;

  /// Grants every schedulable waiter; returns the woken requests so the
  /// caller can notify outside the record's bucket lock. Must hold it.
  void GrantPass(Queue* q, std::vector<RequestPtr>* woken);

  /// Transactions blocking `req`: conflicting granted holders plus
  /// conflicting waiters ahead of it in schedule order. Bucket lock held.
  std::vector<uint64_t> BlockersOf(const Queue& q, const Request& req) const;

  /// Registers/refreshes req's wait edges; if a deadlock is found, signals
  /// the chosen victim (possibly req's own transaction — the victim's wait
  /// then returns immediately). Bucket lock held for req's record.
  void UpdateWaitEdges(const Queue& q, const RequestPtr& req);

  /// Two-phase edge refresh + detection for every live waiter of a queue
  /// (required for schedulers whose order can flip between refreshes).
  void RefreshQueueEdges(const Queue& q, const RequestPtr& req);

  /// Birth timestamps of all currently waiting transactions (+ `extra`).
  std::unordered_map<uint64_t, int64_t> BirthSnapshot(
      const RequestPtr& extra) const;

  /// Signals a victim transaction chosen by the detector.
  void SignalVictim(uint64_t victim_txn);

  void NotifyWoken(const std::vector<RequestPtr>& woken);

  /// Removes req from q.waiting (if present); returns true if removed.
  static bool RemoveWaiting(Queue* q, const Request* req);

  LockManagerConfig config_;
  /// Record -> lock queue under per-bucket spinlocks (the hot-path table;
  /// previously num_shards mutex-protected unordered_maps). The queue
  /// callbacks may take waiters_mu_ / weights_mu_ / the detector's internal
  /// lock while holding a bucket lock — never the reverse, and never a
  /// second bucket.
  ShardedHashTable<RecordId, Queue, RecordIdHash> table_;
  DeadlockDetector detector_;

  // Registry of currently waiting transactions, for victim signalling and
  // birth lookup during victim selection.
  struct WaitEntry {
    RequestPtr req;
    TxnContext* txn;
  };
  mutable std::mutex waiters_mu_;
  std::unordered_map<uint64_t, WaitEntry> waiters_;

  // CATS: number of wait-for edges currently pointing at each transaction.
  mutable std::mutex weights_mu_;
  std::unordered_map<uint64_t, int> blocked_weight_;

  Stats stats_;
  // Registry handles, interned once at construction (null when the metrics
  // registry is disarmed or compiled out). `lock.grants.total` counts every
  // successful Lock() return — the engine-side acquisition invariant checked
  // by the bench harness; `lock.grants.sched.<POLICY>` counts only grants
  // made by the scheduler's grant pass (i.e. after a wait).
  struct MetricHandles {
    metrics::Counter* grants_total = nullptr;
    metrics::Counter* grants_immediate = nullptr;
    metrics::Counter* grants_sched = nullptr;
    metrics::Counter* waits = nullptr;
    metrics::Counter* deadlocks = nullptr;
    metrics::Counter* timeouts = nullptr;
    metrics::Counter* upgrades = nullptr;
    Histogram* wait_ns = nullptr;
  };
  MetricHandles m_;
  std::function<void(const WaitObservation&)> observer_;
  mutable std::mutex observer_mu_;
};

}  // namespace tdp::lock
