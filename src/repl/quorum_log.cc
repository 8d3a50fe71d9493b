#include "repl/quorum_log.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>

#include "common/crash_point.h"
#include "log/log_codec.h"

namespace tdp::repl {

QuorumLog::QuorumLog(QuorumLogConfig config) : config_(config) {
  if (config_.replicas < 1) config_.replicas = 1;
  quorum_ = config_.quorum > 0 ? config_.quorum : config_.replicas / 2 + 1;
  if (quorum_ > config_.replicas) quorum_ = config_.replicas;
  for (int i = 1; i < config_.replicas; ++i) {
    ReplicaConfig rc;
    rc.disk = config_.replica_disk;
    rc.disk.seed = config_.replica_disk.seed + 31 * static_cast<uint64_t>(i);
    const size_t fault_idx = static_cast<size_t>(i) - 1;
    if (fault_idx < config_.replica_faults.size() &&
        config_.replica_faults[fault_idx] != nullptr) {
      rc.disk.fault = config_.replica_faults[fault_idx];
    }
    rc.id = i;
    replicas_.push_back(std::make_unique<Replica>(rc));
  }
  ship_offsets_.assign(replicas_.size(), 0);
  auto& reg = metrics::Registry::Global();
  m_.commits_submitted = reg.GetCounter("repl.commits_submitted");
  m_.acks_quorum = reg.GetCounter("repl.acks_quorum");
  m_.acks_lost = reg.GetCounter("repl.acks_lost");
  m_.failovers = reg.GetCounter("repl.failovers");
  m_.stale_completions = reg.GetCounter("repl.stale_completions");
  m_.acks_waiting = reg.GetGauge("repl.acks_waiting");
}

QuorumLog::~QuorumLog() {
  // The leader holds internal acks that call back into this object; it must
  // resolve them before we die. Both Stops are idempotent.
  if (config_.leader != nullptr) config_.leader->Stop();
  Stop();
}

void QuorumLog::Start() {
  if (running_.exchange(true)) return;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    shippers_.emplace_back([this, i] { ShipperLoop(i); });
  }
  if (!replicas_.empty()) {
    config_.leader->SetAppendListener([this] { OnLeaderAppend(); });
  }
}

void QuorumLog::Stop() {
  // Destruction runs through here too, so the leader never calls back into
  // a QuorumLog that is gone.
  if (config_.leader != nullptr) config_.leader->SetAppendListener(nullptr);
  const bool was_running = running_.exchange(false);
  ship_cv_.notify_all();
  if (was_running) {
    for (std::thread& t : shippers_) {
      if (t.joinable()) t.join();
    }
    shippers_.clear();
  }
  // Partition parked acks exactly like RedoLog::Stop: no flush, no ship —
  // only what a quorum already holds durable acks OK.
  TakenAcks taken;
  {
    std::lock_guard<std::mutex> g(mu_);
    taken = parked_.Partition(quorum_lsn_.load(std::memory_order_relaxed),
                              /*lose_rest=*/true);
    metrics::GaugeAdd(m_.acks_waiting, -static_cast<int64_t>(taken.size()));
  }
  ResolveAcks(std::move(taken),
              Status::Aborted("replication stopped before quorum"));
}

int QuorumLog::AliveCopiesLocked() const {
  // A tripped process-wide crash flag means every device in the process is
  // dark — the node is gone, no copy is serving.
  if (CrashPoints::Global().triggered()) return 0;
  int alive = 1;  // the leader's own disk (copy 0)
  for (const auto& r : replicas_) {
    if (!r->dark()) ++alive;
  }
  return alive;
}

TakenAcks QuorumLog::AdvanceQuorumLocked() {
  // A quorum always includes the leader's own copy: replicas ship ahead of
  // the leader's flush, so the leader's durable mark caps the quorum LSN
  // and the other quorum_ - 1 copies are the fastest replicas.
  uint64_t q = config_.leader->durable_lsn();
  if (quorum_ > 1) {
    std::vector<uint64_t> durables;
    durables.reserve(replicas_.size());
    for (const auto& r : replicas_) durables.push_back(r->durable_lsn());
    const auto nth = durables.begin() + (quorum_ - 2);
    std::nth_element(durables.begin(), nth, durables.end(),
                     std::greater<uint64_t>());
    q = std::min(q, *nth);
  }
  // Per-copy watermarks are monotone, so this order statistic is too; a
  // plain max keeps quorum_lsn_ monotone even against races.
  if (q > quorum_lsn_.load(std::memory_order_relaxed)) {
    quorum_lsn_.store(q, std::memory_order_release);
  }
  if (!quorum_lost_ && AliveCopiesLocked() < quorum_) quorum_lost_ = true;
  TakenAcks taken = parked_.Partition(
      quorum_lsn_.load(std::memory_order_relaxed), quorum_lost_);
  metrics::GaugeAdd(m_.acks_waiting, -static_cast<int64_t>(taken.size()));
  return taken;
}

void QuorumLog::ResolveAcks(TakenAcks taken, const Status& lost_status) {
  stats_.acks_quorum.fetch_add(taken.ok.size(), std::memory_order_relaxed);
  metrics::Inc(m_.acks_quorum, taken.ok.size());
  stats_.acks_lost.fetch_add(taken.lost.size(), std::memory_order_relaxed);
  metrics::Inc(m_.acks_lost, taken.lost.size());
  taken.Fire(lost_status);
}

void QuorumLog::FireAcks(TakenAcks taken) {
  if (!taken.ok.empty()) {
    // The instant before the quorum acknowledgement reaches the client. A
    // crash here leaves quorum-durable frames whose acks were never
    // delivered — recovery must still keep them (unacked frames may
    // survive; acked frames must).
    TDP_CRASH_POINT("repl.pre_ack");
    if (CrashPoints::Global().triggered()) {
      // The "process" died before delivering the acks: the client never
      // heard OK, so report these as undecided-lost, not acknowledged.
      for (AckFn& ack : taken.ok) taken.lost.push_back(std::move(ack));
      taken.ok.clear();
    }
  }
  ResolveAcks(std::move(taken),
              Status::Unavailable("quorum unreachable; retry"));
}

void QuorumLog::OnLeaderAdvance() {
  TakenAcks taken;
  {
    std::lock_guard<std::mutex> g(mu_);
    taken = AdvanceQuorumLocked();
  }
  FireAcks(std::move(taken));
}

void QuorumLog::OnLeaderAppend() {
  // The empty critical section orders the append against a shipper that
  // found nothing to copy: it holds mu_ until it blocks on ship_cv_, so
  // the notify cannot land in between (the SimDisk::ReleaseSlot guard).
  { std::lock_guard<std::mutex> g(mu_); }
  ship_cv_.notify_all();
}

uint64_t QuorumLog::CommitAsync(uint64_t txn_id, uint64_t bytes,
                                std::vector<log::RedoOp> ops,
                                AckFn ack) {
  stats_.commits_submitted.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(m_.commits_submitted);
  // The leader's log is still the one appender: same LSNs, same framing,
  // same epoch batching. The append wakes the shippers (OnLeaderAppend), so
  // replicas flush while the leader does; the leader's durability signal
  // (the internal ack below) re-checks the quorum, replacing "leader
  // durable => ack" with "leader durable and quorum - 1 replicas durable =>
  // ack".
  const uint64_t lsn = config_.leader->CommitAsync(
      txn_id, bytes, std::move(ops), [this](const Status&) {
        OnLeaderAdvance();
      });
  TakenAcks taken;
  {
    std::lock_guard<std::mutex> g(mu_);
    parked_.Park(lsn, std::move(ack));
    metrics::GaugeAdd(m_.acks_waiting, 1);
    // Advance right after the park: the quorum may already cover `lsn` (the
    // internal ack can fire before the leader's CommitAsync returns), and a
    // latched quorum loss must bounce new commits instead of stranding them.
    taken = AdvanceQuorumLocked();
  }
  FireAcks(std::move(taken));
  return lsn;
}

uint64_t QuorumLog::Commit(uint64_t txn_id, uint64_t bytes,
                           std::vector<log::RedoOp> ops, Status* durable) {
  // The ack always fires: inline when covered, from a shipper or the epoch
  // thread when the quorum advances, from the quorum-lost resolution, or
  // from Stop. No timeout needed.
  AckLatch acked;
  const uint64_t lsn =
      CommitAsync(txn_id, bytes, std::move(ops), acked.Expect());
  const Status s = acked.Wait();
  if (durable != nullptr) *durable = s;
  return lsn;
}

void QuorumLog::ShipperLoop(size_t idx) {
  Replica& replica = *replicas_[idx];
  std::unique_lock<std::mutex> lk(mu_);
  while (running_.load(std::memory_order_relaxed)) {
    const uint64_t term = term_.load(std::memory_order_relaxed);
    const size_t from = ship_offsets_[idx];
    std::vector<uint8_t> chunk;
    uint64_t end_lsn = 0;
    if (!replica.dark()) {
      // Copy the newly appended range of the leader image, durable on the
      // leader or not. Holding mu_ is fine — this is a memcpy under the
      // leader's mutex, not device I/O.
      config_.leader->CopyAppended(from, &chunk, &end_lsn);
    }
    if (chunk.empty()) {
      // Nothing to ship (idle, fully caught up, or dark replica). Re-check
      // the quorum — the leader's durable mark may have moved — and
      // liveness, so a lost quorum resolves parked acks promptly, then nap
      // until the leader appends or the retry interval elapses.
      TakenAcks taken = AdvanceQuorumLocked();
      if (taken.size() > 0) {
        lk.unlock();
        FireAcks(std::move(taken));
        lk.lock();
        continue;
      }
      ship_cv_.wait_for(
          lk, std::chrono::nanoseconds(config_.ship_retry_interval_ns));
      continue;
    }
    lk.unlock();
    // The instant before the replication send. A crash armed here loses
    // every un-shipped frame on this path — replicas lag, and recovery
    // must elect the longest surviving copy.
    TDP_CRASH_POINT("repl.pre_ship");
    const Status s = replica.Ship(term, from, chunk.data(), chunk.size(),
                                  end_lsn);
    lk.lock();
    if (term != term_.load(std::memory_order_relaxed)) {
      // Deposed mid-ship: this completion belongs to the old term. Discard
      // it and re-anchor at whatever the replica actually holds durable —
      // the new term's shipping resumes from there.
      stats_.stale_completions.fetch_add(1, std::memory_order_relaxed);
      metrics::Inc(m_.stale_completions);
      ship_offsets_[idx] = replica.durable_bytes();
      continue;
    }
    if (s.ok()) {
      ship_offsets_[idx] = from + chunk.size();
      TakenAcks taken = AdvanceQuorumLocked();
      lk.unlock();
      FireAcks(std::move(taken));
      lk.lock();
    } else {
      // Failed ship (dark replica, torn replica flush): the replica kept
      // its watermark, so re-anchor there and retry after a pause instead
      // of hammering a dead device.
      ship_offsets_[idx] = replica.durable_bytes();
      TakenAcks taken = AdvanceQuorumLocked();
      if (taken.size() > 0) {
        lk.unlock();
        FireAcks(std::move(taken));
        lk.lock();
      }
      ship_cv_.wait_for(
          lk, std::chrono::nanoseconds(config_.ship_retry_interval_ns));
    }
  }
}

uint64_t QuorumLog::Failover() {
  TakenAcks taken;
  uint64_t new_term;
  {
    std::lock_guard<std::mutex> g(mu_);
    new_term = term_.fetch_add(1, std::memory_order_acq_rel) + 1;
    stats_.failovers.fetch_add(1, std::memory_order_relaxed);
    metrics::Inc(m_.failovers);
    // Drop every in-flight shipping assumption: re-anchor at what each
    // replica provably holds. Completions snapshotted under the old term
    // are discarded when they land (ShipperLoop's term check).
    for (size_t i = 0; i < replicas_.size(); ++i) {
      ship_offsets_[i] = replicas_[i]->durable_bytes();
    }
    // Commits beyond the quorum LSN are undecided across the election —
    // bounce them as Unavailable so clients ride through on retry
    // (RetryPolicy.retry_unavailable) rather than waiting out the window.
    taken.lost = parked_.TakeAll();
    metrics::GaugeAdd(m_.acks_waiting, -static_cast<int64_t>(taken.size()));
    // A new term restores service if a quorum of copies is back.
    if (quorum_lost_ && AliveCopiesLocked() >= quorum_) quorum_lost_ = false;
  }
  ship_cv_.notify_all();
  ResolveAcks(std::move(taken),
              Status::Unavailable("leader failover in progress; retry"));
  return new_term;
}

Status QuorumLog::CatchUpReplicas() {
  // The appended image, not the leader's durable prefix: replicas may hold
  // frames the leader has not flushed yet, and catch-up must not ask them
  // to hold less.
  std::vector<uint8_t> image;
  uint64_t last_lsn = 0;
  config_.leader->CopyAppended(0, &image, &last_lsn);
  const uint64_t term = term_.load(std::memory_order_acquire);
  Status first;
  for (const auto& r : replicas_) {
    if (r->dark()) continue;  // a dead replica catches up when revived
    const Status s = r->CatchUp(term, image, last_lsn);
    if (!s.ok() && first.ok()) first = s;
  }
  TakenAcks taken;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (size_t i = 0; i < replicas_.size(); ++i) {
      ship_offsets_[i] = std::max(ship_offsets_[i],
                                  replicas_[i]->durable_bytes());
    }
    taken = AdvanceQuorumLocked();
  }
  FireAcks(std::move(taken));
  return first;
}

void QuorumLog::KillReplica(int i) {
  if (i < 1 || static_cast<size_t>(i) > replicas_.size()) return;
  replicas_[static_cast<size_t>(i) - 1]->Kill();
  TakenAcks taken;
  {
    std::lock_guard<std::mutex> g(mu_);
    taken = AdvanceQuorumLocked();  // detect a lost quorum promptly
  }
  ship_cv_.notify_all();
  FireAcks(std::move(taken));
}

void QuorumLog::ReviveReplica(int i) {
  if (i < 1 || static_cast<size_t>(i) > replicas_.size()) return;
  replicas_[static_cast<size_t>(i) - 1]->Revive();
  ship_cv_.notify_all();  // the shipper re-anchors and catches the tail up
}

std::vector<std::vector<uint8_t>> QuorumLog::CrashImages(
    uint64_t extra_tail_bytes) {
  // Leader first: its Stop resolves the parked epoch and fires the internal
  // acks (freezing the durable watermark), then our Stop partitions the
  // client acks against the final quorum LSN.
  if (config_.leader != nullptr) config_.leader->Stop();
  Stop();
  std::vector<std::vector<uint8_t>> images;
  images.push_back(config_.leader->CrashImage(extra_tail_bytes));
  for (const auto& r : replicas_) {
    images.push_back(r->CrashImage(extra_tail_bytes));
  }
  return images;
}

Election ElectLeader(const std::vector<std::vector<uint8_t>>& images) {
  Election e;
  for (size_t i = 0; i < images.size(); ++i) {
    std::vector<log::RecoveredTxn> txns;
    const log::LogDecodeResult r =
        log::DecodeLogImage(images[i], &txns);
    if (r.status.IsDataLoss()) e.any_corrupt = true;
    // Longest valid frame prefix wins; every copy is a prefix of one
    // stream, so "more frames" is the total order the election needs.
    if (e.winner < 0 || r.frames > e.frames ||
        (r.frames == e.frames && r.valid_bytes > e.valid_bytes)) {
      e.winner = static_cast<int>(i);
      e.frames = r.frames;
      e.valid_bytes = r.valid_bytes;
      e.txns = std::move(txns);
    }
  }
  return e;
}

}  // namespace tdp::repl
