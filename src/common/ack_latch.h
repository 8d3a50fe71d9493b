// AckLatch: waits on the calling thread for a known set of asynchronous
// durability acks (the CommitAckFn callbacks of log::RedoLog::CommitAsync
// and repl::QuorumLog::CommitAsync).
//
// Each Expect() hands out one callback that must fire exactly once, on any
// thread, inline or later; Wait() blocks until every handed-out callback
// has fired and returns the first non-OK status among them (OK when all
// succeeded). One latch waits for one ack (a forced append) or for many
// (the votes of a 2PC prepare fan-out) — the waiter pays the slowest ack,
// not the sum.
//
// The latch may live on the waiter's stack: a callback touches it only
// under mu_, and the last one notifies while still holding mu_, so Wait()
// cannot return (and the latch cannot die) before that callback is done
// with it.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>

#include "common/status.h"

namespace tdp {

class AckLatch {
 public:
  AckLatch() = default;
  AckLatch(const AckLatch&) = delete;
  AckLatch& operator=(const AckLatch&) = delete;

  /// One more ack to wait for; the returned callback delivers it.
  std::function<void(const Status&)> Expect() {
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
