// Durability acks: the one callback type every async commit path takes, the
// queue its owners park those callbacks on until a durable watermark covers
// them, and the latch a synchronous caller waits on.
//
// Three layers park acks: log::RedoLog (keyed by LSN), pg::WalManager (keyed
// by a commit sequence number shared by its log sets) and repl::QuorumLog
// (keyed by LSN, against the quorum watermark). Each parks
// and takes under its own mutex and fires the taken acks outside it, so an
// ack may re-enter the owner. The exactly-once argument is the same for all
// three: an ack is in the queue or in one taken batch, never both, and every
// batch is fired.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tdp {

/// Durability acknowledgement for an async commit or append. Fired exactly
/// once, with OK iff the record is durable; never OK for a record a crash
/// image would lose.
using AckFn = std::function<void(const Status&)>;

/// Acks taken off a ParkedAcks queue, to be fired outside the owner's mutex.
struct TakenAcks {
  std::vector<AckFn> ok;    ///< Covered by the watermark.
  std::vector<AckFn> lost;  ///< Resolved as never durable.

  size_t size() const { return ok.size() + lost.size(); }

  /// Fires `ok` with OK, then `lost` with `lost_status`.
  void Fire(const Status& lost_status) {
    for (AckFn& ack : ok) ack(Status::OK());
    for (AckFn& ack : lost) ack(lost_status);
  }
};

/// Acks keyed by a monotone mark (an LSN or a byte offset). Unsynchronized:
/// the owner guards it with its own mutex.
class ParkedAcks {
 public:
  /// Amortized O(1) when marks arrive in order; an out-of-order mark (as
  /// when QuorumLog parks after the leader's mutex is released) is inserted
  /// at its place, after any equal marks.
  void Park(uint64_t mark, AckFn ack) {
    auto pos = parked_.end();
    while (pos != parked_.begin() && std::prev(pos)->mark > mark) --pos;
    parked_.insert(pos, Parked{mark, std::move(ack)});
  }

  /// Removes the acks with mark <= watermark, in mark order.
  std::vector<AckFn> TakeUpTo(uint64_t watermark) {
    std::vector<AckFn> out;
    while (!parked_.empty() && parked_.front().mark <= watermark) {
      out.push_back(std::move(parked_.front().ack));
      parked_.pop_front();
    }
    return out;
  }

  /// Removes everything still parked, in mark order.
  std::vector<AckFn> TakeAll() { return TakeUpTo(UINT64_MAX); }

  /// The stop/crash partition: the covered prefix goes to `ok`; the rest
  /// goes to `lost` when `lose_rest`, else stays parked.
  TakenAcks Partition(uint64_t watermark, bool lose_rest) {
    TakenAcks t;
    t.ok = TakeUpTo(watermark);
    if (lose_rest) t.lost = TakeAll();
    return t;
  }

  bool empty() const { return parked_.empty(); }
  /// Highest parked mark. Requires !empty().
  uint64_t last_mark() const { return parked_.back().mark; }

 private:
  struct Parked {
    uint64_t mark;
    AckFn ack;
  };
  std::deque<Parked> parked_;  ///< Sorted by mark.
};

/// Waits on the calling thread for a known set of acks. Each Expect() hands
/// out one callback that must fire exactly once, on any thread, inline or
/// later; Wait() blocks until every handed-out callback has fired and
/// returns the first non-OK status among them (OK when all succeeded). One
/// latch waits for one ack (a forced append) or for many (the frames of a
/// 2PC round) — the waiter pays the slowest ack, not the sum.
///
/// The latch may live on the waiter's stack: a callback touches it only
/// under mu_, and the last one notifies while still holding mu_, so Wait()
/// cannot return (and the latch cannot die) before that callback is done
/// with it.
class AckLatch {
 public:
  AckLatch() = default;
  AckLatch(const AckLatch&) = delete;
  AckLatch& operator=(const AckLatch&) = delete;

  /// One more ack to wait for; the returned callback delivers it.
  AckFn Expect() {
    {
      std::lock_guard<std::mutex> g(mu_);
      ++pending_;
    }
    return [this](const Status& s) {
      std::lock_guard<std::mutex> g(mu_);
      if (!s.ok() && first_failure_.ok()) first_failure_ = s;
      if (--pending_ == 0) cv_.notify_all();
    };
  }

  /// Blocks until every expected ack fired; the first failure, else OK.
  Status Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return pending_ == 0; });
    return first_failure_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int pending_ = 0;
  Status first_failure_;
};

}  // namespace tdp
