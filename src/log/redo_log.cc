#include "log/redo_log.h"

#include <algorithm>

#include "common/crash_point.h"
#include "log/log_codec.h"
#include "tprofiler/profiler.h"

namespace tdp::log {

const char* FlushPolicyName(FlushPolicy p) {
  switch (p) {
    case FlushPolicy::kEagerFlush: return "eager-flush";
    case FlushPolicy::kLazyFlush: return "lazy-flush";
    case FlushPolicy::kLazyWrite: return "lazy-write";
  }
  return "?";
}

namespace {
void AtomicMax(std::atomic<uint64_t>* a, uint64_t v) {
  uint64_t cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_release)) {
  }
}
}  // namespace

RedoLog::RedoLog(RedoLogConfig config) : config_(config) {
  auto& reg = metrics::Registry::Global();
  m_.commits = reg.GetCounter("log.commits");
  m_.flushes = reg.GetCounter("log.flushes");
  m_.group_commit_riders = reg.GetCounter("log.group_commit_riders");
  m_.io_retries = reg.GetCounter("log.io_retries");
  m_.io_errors = reg.GetCounter("log.io_errors");
  m_.degraded_commits = reg.GetCounter("log.degraded_commits");
  m_.bytes_written = reg.GetCounter("log.bytes_written");
  m_.async_commits = reg.GetCounter("log.async_commits");
  m_.epoch_flushes = reg.GetCounter("log.epoch_flushes");
  m_.group_commit_batch = reg.GetHistogram("log.group_commit_batch");
  m_.epoch_batch = reg.GetHistogram("log.epoch_batch");
}

RedoLog::~RedoLog() { Stop(); }

void RedoLog::Start() {
  if (running_.exchange(true)) return;
  // The flusher also runs under the eager policy when the stall fallback is
  // on: it is what eventually makes a degraded commit durable.
  if (config_.policy != FlushPolicy::kEagerFlush ||
      config_.fallback_lazy_on_stall) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
  if (config_.async_commit) {
    epoch_ = std::thread([this] { EpochLoop(); });
  }
}

void RedoLog::Stop() {
  if (!running_.exchange(false)) return;
  // The empty critical section orders the store against the flusher's
  // predicate check, so the notify below can't slip into the window between
  // its check and its block (which would cost one full nap interval).
  { std::lock_guard<std::mutex> g(stop_mu_); }
  stop_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  if (epoch_.joinable()) epoch_.join();
  // Resolve parked acks. Stop does NOT flush (crash simulation relies on
  // that), so an ack an earlier epoch already covered fires OK and every
  // other one fires non-OK — an acked-OK-but-lost commit is impossible.
  TakeParked(/*lose_rest=*/true)
      .Fire(Status::Aborted("log stopped before epoch flush"));
}

TakenAcks RedoLog::TakeParked(bool lose_rest) {
  std::lock_guard<std::mutex> g(mu_);
  return parked_.Partition(durable_lsn_.load(std::memory_order_relaxed),
                           lose_rest);
}

void RedoLog::FlusherLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lk(stop_mu_);
      stop_cv_.wait_for(
          lk, std::chrono::nanoseconds(config_.flusher_interval_ns),
          [this] { return !running_.load(std::memory_order_relaxed); });
    }
    // Re-check after the nap: a Stop() (crash simulation) during it must
    // not be followed by one final flush.
    if (!running_.load(std::memory_order_relaxed)) break;
    const uint64_t target = next_lsn_.load(std::memory_order_relaxed) - 1;
    if (target > durable_lsn_.load(std::memory_order_relaxed)) {
      WriteAndFlushUpTo(target);
    }
  }
}

void RedoLog::EpochLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lk(stop_mu_);
      stop_cv_.wait_for(
          lk, std::chrono::nanoseconds(config_.epoch_interval_ns),
          [this] { return !running_.load(std::memory_order_relaxed); });
    }
    if (!running_.load(std::memory_order_relaxed)) break;
    DrainEpoch();
  }
}

void RedoLog::DrainEpoch() {
  uint64_t target = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (parked_.empty()) return;
    target = parked_.last_mark();
  }
  // The whole parked batch rides one leader flush. A crash armed here loses
  // the entire un-flushed epoch atomically: no ack has fired yet, and none
  // will fire OK unless the flush lands (crash_point_test pins this).
  TDP_CRASH_POINT("epoch.pre_flush");
  const Status flushed = WriteAndFlushUpTo(target);
  // Fire exactly the acks the flush made durable; on a failed/degraded
  // flush the uncovered tail stays parked for the next epoch (or Stop) —
  // unless the process crashed: the device then stays dark until reboot, so
  // no later epoch can cover the tail. Resolve it as lost now, as Stop
  // would, rather than strand a committer blocked on its ack (a 2PC
  // coordinator waiting for its round's acks).
  TakenAcks taken = TakeParked(!flushed.ok() &&
                               CrashPoints::Global().triggered());
  if (!taken.ok.empty()) {
    stats_.epoch_flushes.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.epoch_flushes);
    metrics::Observe(m_.epoch_batch, static_cast<int64_t>(taken.ok.size()));
  }
  taken.Fire(Status::Aborted("log device lost in crash"));
}

void RedoLog::AdvanceDurableLocked(uint64_t floor) {
  const uint64_t before = durable_lsn_.load(std::memory_order_relaxed);
  uint64_t d = std::max(before, floor);
  while (!completed_lsns_.empty() && *completed_lsns_.begin() <= d + 1) {
    if (*completed_lsns_.begin() == d + 1) ++d;
    completed_lsns_.erase(completed_lsns_.begin());
  }
  if (d > before) {
    // Every LSN up to d was appended under mu_, so its end offset is queued.
    const auto newly_durable = static_cast<ptrdiff_t>(d - before);
    durable_end_ = pending_ends_[static_cast<size_t>(newly_durable - 1)];
    pending_ends_.erase(pending_ends_.begin(),
                        pending_ends_.begin() + newly_durable);
  }
  AtomicMax(&durable_lsn_, d);
}

Status RedoLog::FlushToDevice(uint64_t bytes) {
  // The flush — where disk-buffered I/O latency variance surfaces
  // (Table 1's fil_flush). Retries stay inside the probe: the latency a
  // committer pays for a flaky device is flush latency.
  TPROF_SCOPE("fil_flush");
  TDP_CRASH_POINT("redo.pre_flush");
  if (!config_.disk) return Status::OK();
  int attempts = 0;
  // One write-through request: the payload rides the barrier (InnoDB's
  // O_DSYNC flush method, an NVMe FUA write). A torn flush may have dropped
  // part of the payload, so every attempt re-sends the whole batch.
  Status s = RetryIo(
      config_.io_retry, [&] { return config_.disk->Flush(bytes); },
      &attempts);
  if (attempts > 1) {
    stats_.io_retries.fetch_add(static_cast<uint64_t>(attempts - 1),
                                std::memory_order_relaxed);
    metrics::Inc(m_.io_retries, static_cast<uint64_t>(attempts - 1));
  }
  if (!s.ok()) {
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.io_errors);
  } else {
    TDP_CRASH_POINT("redo.post_flush");
  }
  return s;
}

Status RedoLog::WriteAndFlushUpTo(uint64_t target) {
  std::unique_lock<std::mutex> lk(mu_);
  bool led = false;
  Status result;
  while (durable_lsn_.load(std::memory_order_relaxed) < target) {
    if (flush_in_progress_) {
      flush_cv_.wait(lk);
      continue;
    }
    // Degraded mode: a device stalled past the deadline is not waited out —
    // the commit returns undurable and the flusher finishes the job.
    if (config_.fallback_lazy_on_stall && config_.disk != nullptr &&
        config_.disk->StallRemainingNanos() >
            config_.io_retry.stall_deadline_ns) {
      result = Status::Busy("log device stalled; flush deferred to flusher");
      break;
    }
    flush_in_progress_ = true;
    led = true;
    const uint64_t flush_target = next_lsn_.load(std::memory_order_relaxed) - 1;
    const uint64_t durable_before = durable_lsn_.load(std::memory_order_relaxed);
    const uint64_t bytes = unwritten_bytes_;
    unwritten_bytes_ = 0;
    lk.unlock();
    const Status s = FlushToDevice(bytes);
    lk.lock();
    flush_in_progress_ = false;
    if (s.ok()) {
      stats_.flushes.fetch_add(1, std::memory_order_relaxed);
      metrics::Inc(m_.flushes);
      metrics::Inc(m_.bytes_written, bytes);
      // One LSN per commit record, so the LSN span is the batch size.
      metrics::Observe(m_.group_commit_batch,
                       static_cast<int64_t>(flush_target - durable_before));
      AtomicMax(&written_lsn_, flush_target);
      // The batch covered *all* unwritten bytes up to flush_target —
      // including holes a failed per-commit fsync left behind — so the
      // whole prefix is durable (plus any out-of-order completions beyond).
      AdvanceDurableLocked(flush_target);
      flush_cv_.notify_all();
    } else {
      // Give the unflushed batch back so the next leader (or the flusher)
      // re-covers it.
      unwritten_bytes_ += bytes;
      flush_cv_.notify_all();
      if (config_.fallback_lazy_on_stall) {
        result = s;
        break;
      }
      if (CrashPoints::Global().triggered()) {
        // The process "crashed": the device is dark until reboot, so the
        // strict wait-for-durability loop can never succeed. Escape so the
        // crash harness can unwind instead of hanging.
        result = s;
        break;
      }
      // Strict mode: keep leading until the device comes back. Each round
      // is paced by the device's own service time, so this does not spin.
    }
  }
  if (!led) {
    stats_.group_commit_riders.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.group_commit_riders);
  }
  return result;
}

Status RedoLog::ForceDurable() {
  const uint64_t target = next_lsn_.load(std::memory_order_acquire) - 1;
  if (target == 0 || durable_lsn_.load(std::memory_order_acquire) >= target) {
    return Status::OK();
  }
  const Status s = WriteAndFlushUpTo(target);
  if (!s.ok()) return s;
  return durable_lsn_.load(std::memory_order_acquire) >= target
             ? Status::OK()
             : Status::Busy("force-durable flush fell short");
}

uint64_t RedoLog::Append(uint64_t txn_id, uint64_t bytes,
                         const std::vector<RedoOp>& ops, AckFn* park) {
  uint64_t lsn;
  std::function<void()> listener;
  {
    std::lock_guard<std::mutex> g(mu_);
    lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
    // Frame the record into the log image before the policy decides when it
    // reaches the device. LSN assignment and the append share mu_, so frame
    // order in image_ is LSN order.
    AppendLogFrame(lsn, txn_id, ops, &image_);
    pending_ends_.push_back(image_.size());
    unwritten_bytes_ += bytes;
    // running_ is re-checked here: once Stop() has flipped it, parking
    // would strand the ack past Stop's drain, so the caller flushes itself.
    if (park != nullptr && config_.async_commit &&
        running_.load(std::memory_order_relaxed)) {
      parked_.Park(lsn, std::move(*park));
      *park = nullptr;
    }
    if (append_listener_) listener = append_listener_;
  }
  TDP_CRASH_POINT("redo.append");
  stats_.commits.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(m_.commits);
  // Before the caller leads a flush: the replicas' device rounds for this
  // frame start while this log's own is still ahead, not after it.
  if (listener) listener();
  return lsn;
}

uint64_t RedoLog::Commit(uint64_t txn_id, uint64_t bytes,
                         std::vector<RedoOp> ops) {
  TPROF_SCOPE("log_write_up_to");
  const uint64_t my_lsn = Append(txn_id, bytes, ops, nullptr);
  switch (config_.policy) {
    case FlushPolicy::kLazyWrite:
      // Both the write and the flush are the flusher's job.
      break;
    case FlushPolicy::kLazyFlush: {
      // The worker issues a buffered write system call — it lands in the OS
      // page cache, so it costs os_write_latency_ns, not a device trip. The
      // background flusher issues the durability barrier later.
      {
        std::lock_guard<std::mutex> g(mu_);
        unwritten_bytes_ -= std::min<uint64_t>(bytes, unwritten_bytes_);
      }
      if (config_.os_write_latency_ns > 0) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(config_.os_write_latency_ns));
      }
      AtomicMax(&written_lsn_, my_lsn);
      break;
    }
    case FlushPolicy::kEagerFlush:
      if (config_.group_commit) {
        const Status s = WriteAndFlushUpTo(my_lsn);
        if (!s.ok()) {
          stats_.degraded_commits.fetch_add(1, std::memory_order_relaxed);
          metrics::Inc(m_.degraded_commits);
        }
      } else {
        // Per-commit fsync: force own redo, concurrently with other
        // committers (the device's concurrency limit applies).
        if (config_.fallback_lazy_on_stall && config_.disk != nullptr &&
            config_.disk->StallRemainingNanos() >
                config_.io_retry.stall_deadline_ns) {
          // Leave the bytes in unwritten_bytes_; the flusher covers them.
          stats_.degraded_commits.fetch_add(1, std::memory_order_relaxed);
          metrics::Inc(m_.degraded_commits);
          break;
        }
        {
          std::lock_guard<std::mutex> g(mu_);
          unwritten_bytes_ -= std::min<uint64_t>(bytes, unwritten_bytes_);
        }
        Status s = FlushToDevice(bytes);
        while (!s.ok() && !config_.fallback_lazy_on_stall &&
               !CrashPoints::Global().triggered()) {
          // Strict mode: block until this commit's redo is durable. A
          // triggered crash point means the device stays dark until reboot,
          // so the wait would never end — escape undurable instead.
          s = FlushToDevice(bytes);
        }
        if (s.ok()) {
          stats_.flushes.fetch_add(1, std::memory_order_relaxed);
          metrics::Inc(m_.flushes);
          metrics::Inc(m_.bytes_written, bytes);
          metrics::Observe(m_.group_commit_batch, 1);
          AtomicMax(&written_lsn_, my_lsn);
          // Only this commit's bytes hit the device. An earlier LSN's bytes
          // may still be in flight — or back in unwritten_bytes_ after a
          // failed flush — so jumping durable_lsn_ straight to my_lsn would
          // declare a prefix durable that is not on disk (CrashImage would
          // then resurrect frames that were never written). Record the
          // completion and advance only across the contiguous prefix.
          std::lock_guard<std::mutex> g(mu_);
          completed_lsns_.insert(my_lsn);
          AdvanceDurableLocked(durable_lsn_.load(std::memory_order_relaxed));
        } else {
          std::lock_guard<std::mutex> g(mu_);
          unwritten_bytes_ += bytes;
          stats_.degraded_commits.fetch_add(1, std::memory_order_relaxed);
          metrics::Inc(m_.degraded_commits);
        }
      }
      break;
  }
  return my_lsn;
}

uint64_t RedoLog::CommitAsync(uint64_t txn_id, uint64_t bytes,
                              std::vector<RedoOp> ops, AckFn ack) {
  TPROF_SCOPE("log_write_up_to");
  const uint64_t my_lsn = Append(txn_id, bytes, ops, &ack);
  stats_.async_commits.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(m_.async_commits);
  if (ack) {
    // Not parked — no epoch thread to cover us: lead a flush ourselves and
    // ack inline. The ack still reports exactly what is durable.
    WriteAndFlushUpTo(my_lsn);
    const bool durable =
        durable_lsn_.load(std::memory_order_acquire) >= my_lsn;
    ack(durable ? Status::OK()
                : Status::Aborted("log stopped before epoch flush"));
  }
  return my_lsn;
}

std::vector<RecoveredTxn> RedoLog::RecoverCommitted() {
  // The framed image is the log's only record of a commit's payload, so
  // every recovery — test or crash harness — pays the checksum toll.
  const std::vector<uint8_t> image = CrashImage();
  std::vector<RecoveredTxn> out;
  DecodeLogImage(image, &out);  // durable prefix: decodes clean by invariant
  return out;
}

std::vector<uint8_t> RedoLog::CrashImage(uint64_t extra_tail_bytes) {
  Stop();
  std::lock_guard<std::mutex> g(mu_);
  return image_.Slice(durable_end_ + static_cast<size_t>(extra_tail_bytes));
}

size_t RedoLog::image_bytes() {
  std::lock_guard<std::mutex> g(mu_);
  return image_.size();
}

size_t RedoLog::CopyAppended(size_t from, std::vector<uint8_t>* out,
                             uint64_t* last_lsn) {
  std::lock_guard<std::mutex> g(mu_);
  if (last_lsn != nullptr) {
    *last_lsn = next_lsn_.load(std::memory_order_relaxed) - 1;
  }
  if (out != nullptr) image_.CopyTo(from, image_.size(), out);
  return image_.size();
}

void RedoLog::SetAppendListener(std::function<void()> fn) {
  std::lock_guard<std::mutex> g(mu_);
  append_listener_ = std::move(fn);
}

std::vector<uint64_t> RedoLog::SimulateCrash() {
  // The survivors are the frames of the durable image prefix; decode their
  // txn ids as recovery would.
  std::vector<uint64_t> survivors;
  for (const RecoveredTxn& t : RecoverCommitted()) {
    survivors.push_back(t.txn_id);
  }
  return survivors;
}

}  // namespace tdp::log
