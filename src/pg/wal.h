// Postgres-style write-ahead log (Section 4.2 / 6.2).
//
// Default mode: a single global WALWriteLock serializes every committing
// transaction's block-aligned write+flush — the queueing on this lock is the
// LWLockAcquireOrWait factor that accounts for 76.8% of Postgres's latency
// variance in Table 2.
//
// Parallel-logging mode (Section 6.2): N log sets on N disks (the paper
// implements N = 2). A committing transaction takes whichever set is free;
// if none is free it waits on the set with the fewest waiters.
//
// Writes are rounded up to whole blocks (the block-size tuning knob of
// Section 7.5): a commit of B bytes issues ceil(B / block) block writes
// followed by a durability barrier.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/durable_acks.h"
#include "common/metrics.h"
#include "common/sim_disk.h"
#include "log/log_codec.h"
#include "log/redo_record.h"

namespace tdp::pg {

struct WalConfig {
  uint64_t block_bytes = 8192;
  /// Shorthand for num_log_sets = 2 (the paper's configuration).
  bool parallel_logging = false;
  /// Number of independent log sets (>= 1). Values > 1 enable parallel
  /// logging; generalizes the paper's two-disk scheme.
  int num_log_sets = 1;
  SimDiskConfig disk;  ///< Config for each log disk.
  /// Retry/backoff for WAL I/O under injected faults (docs/faults.md).
  IoRetryPolicy io_retry;
  /// Degraded mode: when the chosen set's disk is stalled past
  /// io_retry.stall_deadline_ns, the commit skips the synchronous flush
  /// (the moral equivalent of flipping synchronous_commit off under
  /// duress) and returns kBusy; exhausted retries likewise return the
  /// error instead of blocking. Off by default: a strict commit keeps
  /// retrying until its WAL is down.
  bool degrade_on_stall = false;
  /// Epoch-based asynchronous group commit (docs/group_commit.md): when
  /// true, Start() spawns an epoch thread and CommitFlushAsync parks the
  /// caller's ack on its chosen set's current epoch. Once per
  /// epoch_interval_ns the epoch thread writes each set's pending payload,
  /// issues one barrier per set, and fires the covered acks.
  bool async_commit = false;
  /// Epoch length for async_commit (a tuning knob, docs/tuning.md).
  int64_t epoch_interval_ns = 50 * 1000;
};

class WalManager {
 public:
  explicit WalManager(WalConfig config);
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Starts the epoch thread (needed for async_commit; no-op otherwise).
  void Start();
  /// Stops the epoch thread *without* flushing pending epochs, then
  /// resolves every parked ack: OK iff an earlier barrier covered its
  /// frame, non-OK otherwise — an acked-OK-but-lost commit is impossible.
  /// An epoch barrier that fails after a crash resolves its set's parked
  /// acks the same way without waiting for Stop.
  void Stop();

  /// Flushes `bytes` of WAL for a committing transaction, per the mode.
  /// Non-OK only in degraded mode: kBusy when the device stall deadline
  /// fired, kIOError when a write/flush exhausted its retries.
  Status CommitFlush(uint64_t bytes);

  /// Like CommitFlush(bytes), but also frames `txn_id`'s logical redo
  /// payload into the chosen set's log image (docs/recovery.md) so the
  /// transaction is crash-recoverable. Returns the assigned LSN via
  /// `out_lsn` (optional). A degraded commit still appends its frame — the
  /// record is "in the WAL buffer" — and a later successful flush on the
  /// same set makes it durable (flush-up-to semantics).
  Status CommitFlush(uint64_t txn_id, uint64_t bytes,
                     const std::vector<log::RedoOp>& ops,
                     uint64_t* out_lsn = nullptr);

  /// Like CommitFlush(txn_id, ...) but returns as soon as the frame is in
  /// the chosen set's WAL buffer; the ack parks on that set's epoch and
  /// fires exactly once, OK iff an epoch barrier covers the frame
  /// (config.async_commit, docs/group_commit.md). Without a running epoch
  /// thread this degrades to a synchronous flush with an inline ack. Pass
  /// empty `ops` for a byte-only commit (no recoverable payload).
  void CommitFlushAsync(uint64_t txn_id, uint64_t bytes,
                        const std::vector<log::RedoOp>& ops, AckFn ack,
                        uint64_t* out_lsn = nullptr);

  /// Barriers every log set until its whole image is durable (the
  /// write-ahead rule for checkpoints, docs/group_commit.md). Returns the
  /// first failure; on non-OK some set's durable watermark may still trail
  /// its appended frames.
  Status ForceDurable();

  /// The byte images a post-crash read of each set's log disk would see:
  /// per set, the durable prefix plus up to extra_tails[i] bytes of the
  /// written-but-unflushed tail (a torn remnant). extra_tails may be empty
  /// or shorter than the set count; missing entries mean no tail.
  std::vector<std::vector<uint8_t>> CrashImages(
      const std::vector<uint64_t>& extra_tails = {});

  /// Outcome of merging several set images back into one redo stream.
  struct RecoveryResult {
    /// DataLoss when any set's image failed a checksum mid-stream; the
    /// valid prefixes of every set are still merged into `out`.
    Status status;
    uint64_t frames = 0;  ///< Total frames recovered across all sets.
    int torn_sets = 0;    ///< Sets whose image ended in a torn frame.
  };

  /// Decodes each set image and merges the recovered transactions by LSN —
  /// parallel logging spreads consecutive LSNs across disks, so the merge
  /// is what reconstructs commit order. Tolerates torn tails (clean stop
  /// per set) and reports — but does not propagate garbage from — corrupt
  /// frames.
  static RecoveryResult RecoverCommitted(
      const std::vector<std::vector<uint8_t>>& images,
      std::vector<log::RecoveredTxn>* out);

  struct Stats {
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> blocks_written{0};
    std::atomic<uint64_t> second_log_used{0};  ///< Commits on any set > 0.
    std::atomic<uint64_t> io_retries{0};  ///< Extra attempts on I/O error.
    std::atomic<uint64_t> io_errors{0};   ///< Commits that gave up on I/O.
    std::atomic<uint64_t> degraded_commits{0};  ///< Commits that skipped or
                                                ///< abandoned the flush.
    std::atomic<uint64_t> async_commits{0};  ///< CommitFlushAsync calls.
    std::atomic<uint64_t> epoch_flushes{0};  ///< Epoch rounds that fired acks.
  };
  const Stats& stats() const { return stats_; }

  uint64_t block_bytes() const { return config_.block_bytes; }
  int num_log_sets() const { return static_cast<int>(sets_.size()); }
  /// Highest LSN assigned so far (0 before the first framed commit).
  uint64_t last_lsn() const {
    return next_lsn_.load(std::memory_order_relaxed) - 1;
  }

 private:
  struct LogSet {
    explicit LogSet(const SimDiskConfig& cfg) : disk(cfg) {}
    std::mutex mu;                ///< The WALWriteLock for this set.
    std::atomic<int> waiters{0};
    SimDisk disk;
    /// Framed log image for this set (guarded by mu). LSNs are globally
    /// assigned, so a set's image holds an increasing but gappy LSN
    /// subsequence; recovery merges the sets by LSN.
    log::LogImage image;
    /// Bytes of `image` covered by a successful flush (guarded by mu). A
    /// flush is a device barrier for the whole set, so success advances
    /// this to image.size() — including frames from earlier degraded
    /// commits on the same set.
    size_t durable_bytes = 0;
    /// Async-commit payload bytes appended but not yet written; drained by
    /// the next epoch barrier on this set (guarded by mu).
    uint64_t pending_bytes = 0;
    /// Acks parked on this set's epoch (guarded by mu), keyed by the end
    /// of the commit's frame in `image`: an ack fires OK once
    /// durable_bytes reaches its mark.
    ParkedAcks parked;
  };

  /// Writes the block-aligned payload and issues the barrier, with bounded
  /// retries per operation. The caller must hold `set`'s mutex.
  Status WriteAndFlush(LogSet* set, uint64_t bytes);

  /// The append step (XLogInsert) every commit path shares: counts the
  /// commit, takes a set and, when `ops` is non-null, frames `txn_id`'s
  /// record into the set's image under its WALWriteLock. Returns the set
  /// *locked*.
  LogSet* Insert(uint64_t txn_id, uint64_t bytes,
                 const std::vector<log::RedoOp>* ops, uint64_t* out_lsn);
  /// Flushes `bytes` on a set Insert returned, per the degraded-mode rules,
  /// then unlocks it.
  Status FlushAndRelease(LogSet* set, uint64_t bytes);
  /// Takes a set per the Section 6.2 protocol (free set, else fewest
  /// waiters) and returns it *locked*; `index` gets its position.
  LogSet* AcquireSet(size_t* index);
  void EpochLoop();
  /// One epoch round on one set: write its pending payload, barrier, fire
  /// covered acks (and, if the barrier failed after a crash, the rest as
  /// lost). No-op when the set has no parked commits.
  void DrainEpochSet(LogSet* set);

  WalConfig config_;
  std::vector<std::unique_ptr<LogSet>> sets_;
  std::atomic<uint64_t> next_lsn_{1};  ///< Global WAL insert position.
  std::atomic<bool> running_{false};
  std::thread epoch_;  ///< Async group-commit epoch thread (async_commit).
  /// Interrupts the epoch thread's inter-round nap so Stop() is prompt.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  Stats stats_;
  // Registry handles (null when metrics are disarmed or compiled out).
  // `wal.commit_bytes` is requested payload; `wal.bytes_written` is the
  // block-aligned on-device total (blocks * block_bytes), so
  // wal.bytes_written == wal.blocks_written * block_bytes always, and the
  // block-rounding invariant (blocks == sum of ceil(bytes/block)) is
  // checkable from a snapshot. One queue-depth histogram per log set shows
  // how parallel logging spreads the flush traffic.
  struct MetricHandles {
    metrics::Counter* commits = nullptr;
    metrics::Counter* commit_bytes = nullptr;
    metrics::Counter* blocks_written = nullptr;
    metrics::Counter* bytes_written = nullptr;
    metrics::Counter* second_log_used = nullptr;
    metrics::Counter* io_retries = nullptr;
    metrics::Counter* io_errors = nullptr;
    metrics::Counter* degraded_commits = nullptr;
    metrics::Counter* async_commits = nullptr;
    metrics::Counter* epoch_flushes = nullptr;
    Histogram* epoch_batch = nullptr;  ///< Acks fired per epoch barrier.
    std::vector<Histogram*> queue_depth;  ///< wal.queue_depth.set<i>
  };
  MetricHandles m_;
};

}  // namespace tdp::pg
