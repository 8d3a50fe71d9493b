// Redo log with MySQL's three durability policies (Section 6.3 / Appendix B,
// innodb_flush_log_at_trx_commit):
//
//  * kEagerFlush — the committing thread writes and flushes its redo before
//    the commit returns (group commit: one flush may cover several
//    committers). Durable, but puts disk-latency variance on the commit path
//    (the fil_flush factor of Table 1).
//  * kLazyFlush — the committing thread writes, but the flush is deferred to
//    a background flusher that runs once per interval. Transactions may
//    commit before their logs are durable.
//  * kLazyWrite — both the write and the flush are deferred to the flusher.
//
// The log also supports crash simulation: SimulateCrash() reports which
// committed transactions survive (their commit record reached the disk),
// which is how the durability tests verify the policies' semantics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/durable_acks.h"
#include "common/metrics.h"
#include "common/sim_disk.h"
#include "common/stats.h"
#include "log/redo_record.h"

namespace tdp::log {

enum class FlushPolicy { kEagerFlush, kLazyFlush, kLazyWrite };

const char* FlushPolicyName(FlushPolicy p);

struct RedoLogConfig {
  FlushPolicy policy = FlushPolicy::kEagerFlush;
  /// Device the log lives on. Not owned; may be null (no-op I/O, for tests).
  SimDisk* disk = nullptr;
  /// Background flusher period for the lazy policies. The paper's MySQL
  /// flushes once per second; we default to a scaled-down 10 ms so laptop
  /// runs exercise many flush cycles.
  int64_t flusher_interval_ns = MillisToNanos(10);
  /// Latency of a buffered write system call (hits the OS page cache, no
  /// device barrier) — what the lazy-flush policy's worker pays per commit.
  int64_t os_write_latency_ns = 20000;
  /// Eager policy only: when true (classic group commit) one leader flushes
  /// on behalf of concurrent committers — flushes are serialized. When
  /// false, every committer issues its own write+flush; with a disk that
  /// has internal parallelism this models per-commit fsync on NVMe.
  bool group_commit = true;
  /// Retry/backoff policy for log I/O that fails under injected faults
  /// (docs/faults.md). With no armed injector the device never fails and
  /// this is dead configuration.
  IoRetryPolicy io_retry;
  /// Degraded mode for the eager policy: when the log device stalls past
  /// io_retry.stall_deadline_ns (or a flush exhausts its retries), the
  /// commit returns *without* durability — semantically demoted to
  /// kLazyFlush for that transaction — and the background flusher (started
  /// even for the eager policy when this is set) completes durability once
  /// the device recovers. Off by default: a strict eager commit blocks
  /// until its redo is durable, however long the device misbehaves.
  bool fallback_lazy_on_stall = false;
  /// Epoch-based asynchronous group commit (docs/group_commit.md): when
  /// true, Start() spawns an epoch thread and CommitAsync parks the
  /// caller's ack on the current epoch instead of blocking the committer.
  /// Once per epoch_interval_ns the epoch thread leads one flush covering
  /// every parked commit and fires their acks. The committing thread is
  /// freed at append time; durability is signalled by the ack.
  bool async_commit = false;
  /// Epoch length for async_commit. Shorter epochs mean lower ack latency
  /// but smaller flush batches; a tuning knob (docs/tuning.md).
  int64_t epoch_interval_ns = 50 * 1000;
};

class RedoLog {
 public:
  explicit RedoLog(RedoLogConfig config);
  ~RedoLog();

  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  /// Starts the background flusher (needed for the lazy policies).
  void Start();
  /// Stops the flusher without flushing pending records (so tests can
  /// observe lost transactions); SimulateCrash implies Stop.
  void Stop();

  /// Appends `txn_id`'s commit record of `bytes` redo and applies the
  /// configured policy. Returns the record's LSN. `ops` (optional) is the
  /// transaction's logical redo payload, kept for crash recovery.
  uint64_t Commit(uint64_t txn_id, uint64_t bytes,
                  std::vector<RedoOp> ops = {});

  /// Appends the commit record like Commit but returns immediately; the
  /// caller's ack parks on the current epoch and fires exactly once, off
  /// this thread (epoch thread or Stop), once an epoch flush covers the
  /// record (config.async_commit, docs/group_commit.md). When
  /// the epoch thread is not running (async_commit off, or the log is
  /// stopped), degrades to a synchronous leader flush with an inline ack,
  /// so the exactly-once ack contract holds in every configuration.
  uint64_t CommitAsync(uint64_t txn_id, uint64_t bytes,
                       std::vector<RedoOp> ops, AckFn ack);

  /// Flushes until every assigned LSN is durable (the write-ahead rule for
  /// checkpoints: a snapshot that includes a record must not be published
  /// before that record's bytes are on disk). Non-OK means the durable
  /// watermark may still trail the last assigned LSN.
  Status ForceDurable();

  uint64_t next_lsn() const { return next_lsn_.load(std::memory_order_relaxed); }
  uint64_t written_lsn() const {
    return written_lsn_.load(std::memory_order_relaxed);
  }
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_relaxed);
  }

  /// Stops the log and returns the ids of transactions whose commit records
  /// were durable at the "crash" — the recoverable set.
  std::vector<uint64_t> SimulateCrash();

  /// Stops the log and returns the durable committed transactions with
  /// their redo payloads, in LSN order — what recovery replays. Implemented
  /// by decoding the framed log image (CrashImage), so it exercises the
  /// same checksummed path a post-crash recovery does.
  std::vector<RecoveredTxn> RecoverCommitted();

  /// Stops the log and returns the byte image a post-crash read of the log
  /// device would see: every frame the device acknowledged durable, plus up
  /// to `extra_tail_bytes` of the written-but-never-fsynced tail — the torn
  /// remnant a crash mid-write leaves behind. Decode with
  /// log::DecodeLogImage (torn tails stop replay cleanly; corrupted bytes
  /// surface as Status::DataLoss).
  std::vector<uint8_t> CrashImage(uint64_t extra_tail_bytes = 0);

  /// Bytes of framed log appended so far (durable or not); the upper bound
  /// for CrashImage's tail parameter.
  size_t image_bytes();

  /// Replication read-side (src/repl): appends the framed image bytes in
  /// [`from`, end-of-durable-prefix) to `out` and stores the durable LSN
  /// that prefix ends at in `durable_lsn`. Returns the durable prefix's end
  /// offset. Unlike CrashImage this does not stop the log — it is the
  /// shippers' live view, and it never exposes a byte the device has not
  /// acknowledged durable.
  size_t CopyDurablePrefix(size_t from, std::vector<uint8_t>* out,
                           uint64_t* durable_lsn);

  struct Stats {
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> flushes{0};
    std::atomic<uint64_t> group_commit_riders{0};  ///< Commits served by
                                                   ///< another thread's flush.
    std::atomic<uint64_t> io_retries{0};   ///< Extra flush attempts on error.
    std::atomic<uint64_t> io_errors{0};    ///< Flush rounds that gave up.
    std::atomic<uint64_t> degraded_commits{0};  ///< Commits returned without
                                                ///< durability (fallback).
    std::atomic<uint64_t> async_commits{0};  ///< CommitAsync calls.
    std::atomic<uint64_t> epoch_flushes{0};  ///< Epoch rounds that fired acks.
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Record {
    uint64_t txn_id;
    uint64_t lsn;
    uint64_t bytes;
    std::vector<RedoOp> ops;
    size_t image_end;  ///< End offset of this record's frame in image_.
  };

  /// The append step Commit and CommitAsync share: assigns the next LSN,
  /// frames the record into image_ and queues its bytes, all under mu_.
  /// When `park` is non-null and the epoch thread is running, also moves
  /// *park onto the epoch (leaving it empty) under the same mu_, so parked
  /// acks stay in LSN order. Returns the LSN.
  uint64_t Append(uint64_t txn_id, uint64_t bytes, std::vector<RedoOp> ops,
                  AckFn* park);
  /// Writes (if needed) and flushes everything up to the current end of log.
  /// Called by commit leaders and the background flusher. Returns non-OK
  /// only in fallback mode, when the device stalled past the deadline or a
  /// flush exhausted its retries (the caller's commit is then degraded).
  Status WriteAndFlushUpTo(uint64_t lsn);
  /// One write+flush round against the device, with bounded retries, under
  /// the fil_flush probe. OK when the log is deviceless.
  Status FlushToDevice(uint64_t bytes);
  void FlusherLoop();
  void EpochLoop();
  /// One epoch round: lead a flush covering every parked commit, then fire
  /// the acks the flush made durable. No-op on an empty epoch.
  void DrainEpoch();
  /// Takes the parked acks durable_lsn_ covers, and the rest as lost when
  /// `lose_rest` (ParkedAcks::Partition under mu_).
  TakenAcks TakeParked(bool lose_rest);
  /// Advances durable_lsn_ to `floor`, then further across the contiguous
  /// prefix of out-of-order per-commit flush completions (completed_lsns_).
  /// durable_lsn_ is a *prefix* claim — every LSN <= durable is on the
  /// device — so it must never skip over an LSN whose bytes a concurrent
  /// committer has not flushed yet (or failed to flush). Caller holds mu_.
  void AdvanceDurableLocked(uint64_t floor);

  RedoLogConfig config_;

  std::mutex mu_;  ///< Guards records_, image_ and the LSN advance protocol.
  std::condition_variable flush_cv_;
  bool flush_in_progress_ = false;
  uint64_t unwritten_bytes_ = 0;  ///< Appended but not yet written.
  std::vector<Record> records_;
  /// Per-commit fsync completions that landed beyond the durable prefix
  /// (an earlier committer's bytes are still in flight or failed). Drained
  /// into durable_lsn_ by AdvanceDurableLocked once the gap closes.
  std::set<uint64_t> completed_lsns_;
  /// Acks parked on the epoch, by LSN. They fire when an epoch flush covers
  /// them, or at Stop or a crashed flush (non-OK if never durable).
  ParkedAcks parked_;
  /// The framed byte image of the log "file" (docs/recovery.md). LSNs are
  /// assigned under mu_ in append order, so frame order == LSN order and
  /// records_[lsn - 1].image_end maps the durable LSN to a byte offset.
  std::vector<uint8_t> image_;

  std::atomic<uint64_t> next_lsn_{1};
  std::atomic<uint64_t> written_lsn_{0};
  std::atomic<uint64_t> durable_lsn_{0};

  std::atomic<bool> running_{false};
  std::thread flusher_;
  std::thread epoch_;  ///< Async group-commit epoch thread (async_commit).
  /// Interrupts the flusher's inter-round nap so Stop() returns promptly
  /// even under a long flusher interval.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  Stats stats_;
  // Registry handles (null when metrics are disarmed or compiled out).
  // `log.bytes_written` counts redo bytes whose flush succeeded, so on a
  // quiesced fully-durable log it equals the sum of commit record sizes —
  // the end-to-end invariant the bench harness checks. The batch histogram
  // records commit records made durable per successful flush (group-commit
  // effectiveness; the per-commit fsync path always observes 1).
  struct MetricHandles {
    metrics::Counter* commits = nullptr;
    metrics::Counter* flushes = nullptr;
    metrics::Counter* group_commit_riders = nullptr;
    metrics::Counter* io_retries = nullptr;
    metrics::Counter* io_errors = nullptr;
    metrics::Counter* degraded_commits = nullptr;
    metrics::Counter* bytes_written = nullptr;
    metrics::Counter* async_commits = nullptr;
    metrics::Counter* epoch_flushes = nullptr;
    Histogram* group_commit_batch = nullptr;
    Histogram* epoch_batch = nullptr;  ///< Acks fired per epoch flush.
  };
  MetricHandles m_;
};

}  // namespace tdp::log
