#include "pg/wal.h"

#include <algorithm>
#include <chrono>

#include "common/crash_point.h"
#include "tprofiler/profiler.h"

namespace tdp::pg {

namespace {
/// Whole blocks for a payload of `bytes`; an empty payload still writes
/// one (the record header).
uint64_t BlocksFor(uint64_t bytes, uint64_t block) {
  return bytes == 0 ? 1 : (bytes + block - 1) / block;
}
}  // namespace

WalManager::WalManager(WalConfig config) : config_(config) {
  if (config_.block_bytes == 0) config_.block_bytes = 8192;
  int sets = config_.num_log_sets < 1 ? 1 : config_.num_log_sets;
  if (config_.parallel_logging && sets < 2) sets = 2;
  sets_.reserve(sets);
  for (int i = 0; i < sets; ++i) {
    SimDiskConfig disk = config_.disk;
    disk.seed += static_cast<uint64_t>(i) * 101;
    sets_.push_back(std::make_unique<LogSet>(disk));
  }

  auto& reg = metrics::Registry::Global();
  m_.commits = reg.GetCounter("wal.commits");
  m_.commit_bytes = reg.GetCounter("wal.commit_bytes");
  m_.blocks_written = reg.GetCounter("wal.blocks_written");
  m_.bytes_written = reg.GetCounter("wal.bytes_written");
  m_.second_log_used = reg.GetCounter("wal.second_log_used");
  m_.io_retries = reg.GetCounter("wal.io_retries");
  m_.io_errors = reg.GetCounter("wal.io_errors");
  m_.degraded_commits = reg.GetCounter("wal.degraded_commits");
  m_.async_commits = reg.GetCounter("wal.async_commits");
  m_.epoch_flushes = reg.GetCounter("wal.epoch_flushes");
  m_.epoch_batch = reg.GetHistogram("wal.epoch_batch");
  m_.queue_depth.reserve(sets_.size());
  for (size_t i = 0; i < sets_.size(); ++i) {
    m_.queue_depth.push_back(
        reg.GetHistogram("wal.queue_depth.set" + std::to_string(i)));
  }
}

WalManager::~WalManager() { Stop(); }

void WalManager::Start() {
  if (running_.exchange(true)) return;
  if (config_.async_commit) {
    for (std::unique_ptr<LogSet>& set : sets_) {
      LogSet* s = set.get();
      s->writer = std::thread([this, s] { EpochLoop(s); });
    }
  }
}

void WalManager::Stop() {
  if (!running_.exchange(false)) return;
  { std::lock_guard<std::mutex> g(stop_mu_); }
  stop_cv_.notify_all();
  for (std::unique_ptr<LogSet>& set : sets_) {
    if (set->writer.joinable()) set->writer.join();
  }
  // Resolve parked acks. Stop does NOT flush (crash simulation relies on
  // that): an ack whose commit and whole lower-sequence prefix earlier
  // rounds made durable fires OK, every other one fires non-OK.
  TakenAcks taken;
  {
    std::lock_guard<std::mutex> g(ack_mu_);
    taken = parked_.Partition(OrderedDurableLocked(), /*lose_rest=*/true);
  }
  taken.Fire(Status::Aborted("wal stopped before epoch flush"));
}

void WalManager::EpochLoop(LogSet* set) {
  while (running_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lk(stop_mu_);
      stop_cv_.wait_for(
          lk, std::chrono::nanoseconds(config_.epoch_interval_ns),
          [this] { return !running_.load(std::memory_order_relaxed); });
    }
    if (!running_.load(std::memory_order_relaxed)) break;
    (void)RunRound(set, /*forced=*/false);
  }
}

uint64_t WalManager::OrderedDurableLocked() const {
  // Sequence numbers are handed out under ack_mu_, so every commit below
  // next_seq_ is either durable or still listed on its set.
  uint64_t first_undurable = next_seq_;
  for (const std::unique_ptr<LogSet>& set : sets_) {
    if (!set->undurable_seqs.empty()) {
      first_undurable = std::min(first_undurable, set->undurable_seqs.front());
    }
  }
  return first_undurable - 1;
}

Status WalManager::RunRound(LogSet* set, bool forced) {
  std::unique_lock<std::mutex> lk(set->mu);
  // One round at a time per set: a ForceDurable round and the writer's.
  set->round_done.wait(lk, [set] { return !set->in_round; });
  uint64_t last_seq = 0;
  {
    std::lock_guard<std::mutex> g(ack_mu_);
    if (!set->undurable_seqs.empty()) last_seq = set->undurable_seqs.back();
  }
  if (last_seq == 0 &&
      !(forced && set->durable_bytes < set->image.size())) {
    return Status::OK();
  }
  // The whole parked batch rides one request. A crash armed here loses the
  // entire un-flushed round atomically: none of its acks has fired, and
  // none will fire OK unless the request lands. A checkpoint's forced round
  // takes the acks it covers too, so it crosses the same site.
  TDP_CRASH_POINT("epoch.pre_flush");
  const uint64_t bytes = set->pending_bytes;
  const size_t end = set->image.size();
  set->pending_bytes = 0;
  set->in_round = true;
  lk.unlock();
  // No WALWriteLock during the I/O: commits keep inserting into this set.
  const Status s = WriteThrough(set, bytes);
  lk.lock();
  if (s.ok()) {
    set->durable_bytes = std::max(set->durable_bytes, end);
  } else {
    set->pending_bytes += bytes;
  }
  TakenAcks taken;
  {
    std::lock_guard<std::mutex> g(ack_mu_);
    if (s.ok()) {
      while (!set->undurable_seqs.empty() &&
             set->undurable_seqs.front() <= last_seq) {
        set->undurable_seqs.pop_front();
      }
    }
    // Fire exactly the acks whose whole sequence prefix is now durable, on
    // every set. The rest wait for later rounds — unless the process
    // crashed: the devices are then dark until reboot, so resolve them as
    // lost now, as Stop would (the same rule as RedoLog::DrainEpoch).
    taken = parked_.Partition(OrderedDurableLocked(),
                              !s.ok() && CrashPoints::Global().triggered());
  }
  // The slot frees only now, so the next round sees this one's outcome.
  set->in_round = false;
  lk.unlock();
  set->round_done.notify_all();
  if (!taken.ok.empty()) {
    stats_.epoch_flushes.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.epoch_flushes);
    metrics::Observe(m_.epoch_batch, static_cast<int64_t>(taken.ok.size()));
  }
  taken.Fire(Status::Aborted("wal device lost in crash"));
  return s;
}

Status WalManager::RetryOp(const std::function<Status()>& op) {
  int attempts = 0;
  Status s;
  // Strict mode blocks until the WAL is down: retry rounds repeat until the
  // device recovers (each round is paced by device service time). A
  // triggered crash point means the device is dark until reboot, so the
  // loop escapes instead of hanging the crash harness.
  do {
    s = RetryIo(config_.io_retry, op, &attempts);
    if (attempts > 1) {
      stats_.io_retries.fetch_add(static_cast<uint64_t>(attempts - 1),
                                  std::memory_order_relaxed);
      metrics::Inc(m_.io_retries, static_cast<uint64_t>(attempts - 1));
    }
  } while (!s.ok() && !config_.degrade_on_stall &&
           !CrashPoints::Global().triggered());
  if (!s.ok()) {
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.io_errors);
  }
  return s;
}

Status WalManager::WriteAndFlush(LogSet* set, uint64_t bytes) {
  TPROF_SCOPE("XLogFlush");
  {
    // This barrier marks the whole image durable, so wait out a round in
    // flight: its bytes are not on the device yet. Only epoch writers and
    // ForceDurable run rounds, so a sync-mode commit never waits here.
    std::unique_lock<std::mutex> lk(set->mu, std::adopt_lock);
    set->round_done.wait(lk, [set] { return !set->in_round; });
    lk.release();
  }
  TDP_CRASH_POINT("wal.pre_flush");
  const uint64_t blocks = BlocksFor(bytes, config_.block_bytes);
  for (uint64_t i = 0; i < blocks; ++i) {
    const Status s =
        RetryOp([&] { return set->disk.Write(config_.block_bytes); });
    if (!s.ok()) return s;
    stats_.blocks_written.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.blocks_written);
    metrics::Inc(m_.bytes_written, config_.block_bytes);
  }
  const Status s = RetryOp([&] { return set->disk.Flush(0); });
  if (s.ok()) {
    // The barrier covers every byte written to this set so far, including
    // frames left behind by earlier degraded commits.
    set->durable_bytes = set->image.size();
    TDP_CRASH_POINT("wal.post_flush");
  }
  return s;
}

Status WalManager::WriteThrough(LogSet* set, uint64_t bytes) {
  TPROF_SCOPE("XLogFlush");
  TDP_CRASH_POINT("wal.pre_flush");
  const uint64_t blocks = BlocksFor(bytes, config_.block_bytes);
  // One write-through request: the round's blocks ride the barrier (as in
  // RedoLog::FlushToDevice). A torn flush may have dropped part of the
  // payload, so every attempt re-sends the whole round.
  const Status s = RetryOp(
      [&] { return set->disk.Flush(blocks * config_.block_bytes); });
  if (s.ok()) {
    stats_.blocks_written.fetch_add(blocks, std::memory_order_relaxed);
    metrics::Inc(m_.blocks_written, blocks);
    metrics::Inc(m_.bytes_written, blocks * config_.block_bytes);
    TDP_CRASH_POINT("wal.post_flush");
  }
  return s;
}

Status WalManager::ForceDurable() {
  Status result = Status::OK();
  for (std::unique_ptr<LogSet>& set : sets_) {
    const Status s = RunRound(set.get(), /*forced=*/true);
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

Status WalManager::CommitFlush(uint64_t bytes) {
  return FlushAndRelease(Insert(0, bytes, nullptr, nullptr), bytes);
}

Status WalManager::CommitFlush(uint64_t txn_id, uint64_t bytes,
                               const std::vector<log::RedoOp>& ops,
                               uint64_t* out_lsn) {
  return FlushAndRelease(Insert(txn_id, bytes, &ops, out_lsn), bytes);
}

WalManager::LogSet* WalManager::AcquireSet(size_t* index) {
  LogSet* chosen = nullptr;
  size_t chosen_index = 0;
  TPROF_SCOPE("LWLockAcquireOrWait");
  if (sets_.size() == 1) {
    // Single log set: all committers serialize on one WALWriteLock.
    sets_[0]->waiters.fetch_add(1, std::memory_order_relaxed);
    sets_[0]->mu.lock();
    sets_[0]->waiters.fetch_sub(1, std::memory_order_relaxed);
    chosen = sets_[0].get();
  } else {
    // Parallel logging: take a free set if any; otherwise wait on the set
    // with the fewest waiters (Section 6.2). The first pass takes only a
    // free set whose device is idle: under async commit a free WALWriteLock
    // may hide a round in flight. In sync mode a free lock already means an
    // idle device, so the passes pick what one pass would.
    for (int pass = 0; pass < 2 && chosen == nullptr; ++pass) {
      for (size_t i = 0; i < sets_.size() && chosen == nullptr; ++i) {
        if (pass == 0 && !sets_[i]->disk.idle()) continue;
        if (sets_[i]->mu.try_lock()) {
          chosen = sets_[i].get();
          chosen_index = i;
        }
      }
    }
    if (chosen == nullptr) {
      // Tie-break equal waiter counts by device queue depth: a set whose
      // disk still has a request in service is a worse bet than one whose
      // disk is truly idle (queue_length() counts in-service requests).
      size_t best = 0;
      int best_waiters = sets_[0]->waiters.load(std::memory_order_relaxed);
      int best_depth = sets_[0]->disk.queue_length();
      for (size_t i = 1; i < sets_.size(); ++i) {
        const int w = sets_[i]->waiters.load(std::memory_order_relaxed);
        const int d = sets_[i]->disk.queue_length();
        if (w < best_waiters || (w == best_waiters && d < best_depth)) {
          best = i;
          best_waiters = w;
          best_depth = d;
        }
      }
      chosen = sets_[best].get();
      chosen_index = best;
      chosen->waiters.fetch_add(1, std::memory_order_relaxed);
      chosen->mu.lock();
      chosen->waiters.fetch_sub(1, std::memory_order_relaxed);
    }
    if (chosen_index > 0) {
      stats_.second_log_used.fetch_add(1, std::memory_order_relaxed);
      metrics::Inc(m_.second_log_used);
    }
  }
  *index = chosen_index;
  return chosen;
}

WalManager::LogSet* WalManager::Insert(uint64_t txn_id, uint64_t bytes,
                                       const std::vector<log::RedoOp>* ops,
                                       uint64_t* out_lsn) {
  stats_.commits.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(m_.commits);
  metrics::Inc(m_.commit_bytes, bytes);

  size_t chosen_index = 0;
  LogSet* chosen = AcquireSet(&chosen_index);
  if (chosen_index < m_.queue_depth.size()) {
    // Device queue depth observed by each commit on its chosen set — the
    // congestion signal parallel logging is meant to halve (Fig. 4).
    metrics::Observe(m_.queue_depth[chosen_index],
                     chosen->disk.queue_length());
  }
  if (ops != nullptr) {
    // Frame the record into the set's image before the flush decision — a
    // degraded commit's record is still "in the WAL buffer" and becomes
    // durable with the set's next successful barrier. The LSN is assigned
    // under the set's WALWriteLock, so each set's image stays in increasing
    // LSN order (globally gappy; recovery merges by LSN).
    const uint64_t lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
    log::AppendLogFrame(lsn, txn_id, *ops, &chosen->image);
    if (out_lsn != nullptr) *out_lsn = lsn;
    TDP_CRASH_POINT("wal.append");
  }
  return chosen;
}

Status WalManager::FlushAndRelease(LogSet* set, uint64_t bytes) {
  if (config_.degrade_on_stall &&
      set->disk.StallRemainingNanos() > config_.io_retry.stall_deadline_ns) {
    // The device is frozen past the deadline: skip the synchronous flush
    // rather than freezing the committer with it.
    set->mu.unlock();
    stats_.degraded_commits.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.degraded_commits);
    return Status::Busy("wal device stalled; synchronous flush skipped");
  }
  const Status s = WriteAndFlush(set, bytes);
  set->mu.unlock();
  if (!s.ok()) {
    stats_.degraded_commits.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.degraded_commits);
  }
  return s;
}

void WalManager::CommitFlushAsync(uint64_t txn_id, uint64_t bytes,
                                  const std::vector<log::RedoOp>& ops,
                                  AckFn ack, uint64_t* out_lsn) {
  const std::vector<log::RedoOp>* framed = ops.empty() ? nullptr : &ops;
  if (!config_.async_commit || !running_.load(std::memory_order_acquire)) {
    // No epoch writers to cover us: synchronous commit, ack inline. The
    // running_ re-check under ack_mu_ below closes the Stop race; this
    // early check just spares the common stopped/disabled case the park.
    ack(FlushAndRelease(Insert(txn_id, bytes, framed, out_lsn), bytes));
    return;
  }
  // Only the frame goes in now: the set's next round does the device work.
  LogSet* set = Insert(txn_id, bytes, framed, out_lsn);
  stats_.async_commits.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(m_.async_commits);
  bool parked = false;
  {
    // The sequence number is taken under the set's lock, with the frame,
    // so it orders this commit after every commit it could have read from.
    // Stop() resolves parked acks under ack_mu_ after clearing running_,
    // so an ack parked here is never stranded.
    std::lock_guard<std::mutex> g(ack_mu_);
    if (running_.load(std::memory_order_relaxed)) {
      const uint64_t seq = next_seq_++;
      set->undurable_seqs.push_back(seq);
      parked_.Park(seq, std::move(ack));
      parked = true;
    }
  }
  if (!parked) {
    // Stop() already resolved the parked acks: flush synchronously instead
    // (same path a stopped log takes).
    ack(FlushAndRelease(set, bytes));
    return;
  }
  set->pending_bytes += bytes;
  set->mu.unlock();
}

std::vector<std::vector<uint8_t>> WalManager::CrashImages(
    const std::vector<uint64_t>& extra_tails) {
  std::vector<std::vector<uint8_t>> images;
  images.reserve(sets_.size());
  for (size_t i = 0; i < sets_.size(); ++i) {
    LogSet* set = sets_[i].get();
    std::lock_guard<std::mutex> g(set->mu);
    const uint64_t extra = i < extra_tails.size() ? extra_tails[i] : 0;
    images.push_back(
        set->image.Slice(set->durable_bytes + static_cast<size_t>(extra)));
  }
  return images;
}

WalManager::RecoveryResult WalManager::RecoverCommitted(
    const std::vector<std::vector<uint8_t>>& images,
    std::vector<log::RecoveredTxn>* out) {
  RecoveryResult r;
  r.status = Status::OK();
  std::vector<log::RecoveredTxn> merged;
  for (const std::vector<uint8_t>& image : images) {
    const log::LogDecodeResult d = log::DecodeLogImage(image, &merged);
    r.frames += d.frames;
    if (d.torn_tail) ++r.torn_sets;
    // First corruption wins; later sets' valid prefixes are still merged.
    if (!d.status.ok() && r.status.ok()) r.status = d.status;
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const log::RecoveredTxn& a, const log::RecoveredTxn& b) {
                     return a.lsn < b.lsn;
                   });
  if (out != nullptr) {
    out->insert(out->end(), std::make_move_iterator(merged.begin()),
                std::make_move_iterator(merged.end()));
  }
  return r;
}

}  // namespace tdp::pg
