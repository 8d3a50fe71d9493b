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
// Section 7.5): a synchronous commit of B bytes issues ceil(B / block) block
// writes followed by a durability barrier.
//
// Async commit (docs/group_commit.md): each log set has its own epoch
// writer, so the sets' disks flush at the same time. A round sends the set's
// pending payload, rounded up to whole blocks, as one write-through device
// request, and holds no WALWriteLock during that I/O. Async commits take a
// global commit sequence number when they insert; an ack fires OK only once
// every commit with a lower sequence number, on every set, is durable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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
  /// true, Start() spawns one epoch writer per log set and
  /// CommitFlushAsync parks the caller's ack. Once per epoch_interval_ns
  /// each writer forces its own set's pending payload in one write-through
  /// request, then fires the acks whose whole commit-order prefix is
  /// durable on every set.
  bool async_commit = false;
  /// Epoch length for async_commit, per writer (a tuning knob,
  /// docs/tuning.md).
  int64_t epoch_interval_ns = 50 * 1000;
};

class WalManager {
 public:
  explicit WalManager(WalConfig config);
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Starts one epoch writer per log set (needed for async_commit; no-op
  /// otherwise).
  void Start();
  /// Stops the epoch writers *without* flushing pending rounds, then
  /// resolves every parked ack: OK iff earlier rounds made it and every
  /// lower-sequence commit durable, non-OK otherwise — an
  /// acked-OK-but-lost commit is impossible. A round that fails after a
  /// crash resolves the parked acks the same way without waiting for Stop.
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
  /// the chosen set's WAL buffer. The commit takes the next commit sequence
  /// number, and its ack fires exactly once: OK iff a round made this
  /// commit durable and every commit with a lower sequence number, on any
  /// set, is durable too (config.async_commit, docs/group_commit.md).
  /// Without running epoch writers this degrades to a synchronous flush
  /// with an inline ack. Pass empty `ops` for a byte-only commit (no
  /// recoverable payload): it is keyed by its sequence number all the same.
  void CommitFlushAsync(uint64_t txn_id, uint64_t bytes,
                        const std::vector<log::RedoOp>& ops, AckFn ack,
                        uint64_t* out_lsn = nullptr);

  /// Runs a round on every log set that holds undurable frames or async
  /// commits, after any round already in flight there (the write-ahead
  /// rule for checkpoints, docs/group_commit.md), and fires the acks it
  /// covers. Returns the first failure; on non-OK some set's durable
  /// watermark may still trail its appended frames.
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
    std::atomic<uint64_t> epoch_flushes{0};  ///< Rounds that fired acks.
  };
  const Stats& stats() const { return stats_; }

  uint64_t block_bytes() const { return config_.block_bytes; }
  int num_log_sets() const { return static_cast<int>(sets_.size()); }
  /// Log set `set`'s device (its stats and queue depth).
  const SimDisk& disk(int set) const { return sets_[set]->disk; }
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
    /// synchronous barrier covers the whole set, so it advances this to
    /// image.size() — including frames from earlier degraded commits; a
    /// round advances it to the image end it recorded before its I/O.
    size_t durable_bytes = 0;
    /// Async-commit payload bytes appended but not yet written; the next
    /// round on this set sends them (guarded by mu).
    uint64_t pending_bytes = 0;
    /// The set's I/O slot (guarded by mu): true while a round's device
    /// request is in flight without mu held. Rounds, and the synchronous
    /// path before its own I/O, wait on `round_done` until it clears, so
    /// no one marks a round's bytes durable before they are written.
    bool in_round = false;
    std::condition_variable round_done;
    /// Sequence numbers of this set's async commits that no successful
    /// round has covered yet, ascending (guarded by the manager's ack_mu_).
    std::deque<uint64_t> undurable_seqs;
    std::thread writer;  ///< This set's epoch writer (async_commit).
  };

  /// Writes the block-aligned payload as ceil(bytes / block) block writes
  /// and issues the barrier, with bounded retries per operation — the
  /// per-commit path whose block size Section 7.5 tunes. The caller must
  /// hold `set`'s mutex.
  Status WriteAndFlush(LogSet* set, uint64_t bytes);
  /// One write-through request carrying `bytes` rounded up to whole blocks;
  /// a torn or failed request re-sends the whole round. Needs no lock.
  Status WriteThrough(LogSet* set, uint64_t bytes);
  /// Runs `op` under the retry policy; in strict mode repeats retry rounds
  /// until the op succeeds or the process crashed.
  Status RetryOp(const std::function<Status()>& op);

  /// The append step (XLogInsert) every commit path shares: counts the
  /// commit, takes a set and, when `ops` is non-null, frames `txn_id`'s
  /// record into the set's image under its WALWriteLock. Returns the set
  /// *locked*.
  LogSet* Insert(uint64_t txn_id, uint64_t bytes,
                 const std::vector<log::RedoOp>* ops, uint64_t* out_lsn);
  /// Flushes `bytes` on a set Insert returned, per the degraded-mode rules,
  /// then unlocks it.
  Status FlushAndRelease(LogSet* set, uint64_t bytes);
  /// Takes a set per the Section 6.2 protocol (a free set, preferring one
  /// whose device is idle, else the fewest waiters) and returns it
  /// *locked*; `index` gets its position.
  LogSet* AcquireSet(size_t* index);
  void EpochLoop(LogSet* set);
  /// One round on one set: record its pending payload and image end under
  /// mu, send them in one write-through request without mu, then mark
  /// them durable and fire the acks now in order (and, if the round failed
  /// after a crash, every other parked ack as lost). The epoch writer's
  /// rounds are a no-op when the set has no async commit to cover; a
  /// `forced` round (ForceDurable) also runs for undurable frames.
  Status RunRound(LogSet* set, bool forced);
  /// The highest commit sequence number whose whole prefix is durable on
  /// every set. Requires ack_mu_.
  uint64_t OrderedDurableLocked() const;
  WalConfig config_;
  std::vector<std::unique_ptr<LogSet>> sets_;
  std::atomic<uint64_t> next_lsn_{1};  ///< Global WAL insert position.
  std::atomic<bool> running_{false};
  /// Interrupts the epoch writers' inter-round naps so Stop() is prompt.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  /// The ack order across sets. Taken after a set's mu, never before it.
  std::mutex ack_mu_;
  uint64_t next_seq_ = 1;  ///< Next async commit sequence number (ack_mu_).
  /// Every parked async ack, keyed by its commit sequence number (ack_mu_).
  ParkedAcks parked_;
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
    Histogram* epoch_batch = nullptr;  ///< Acks fired per round.
    std::vector<Histogram*> queue_depth;  ///< wal.queue_depth.set<i>
  };
  MetricHandles m_;
};

}  // namespace tdp::pg
