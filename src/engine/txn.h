// RunTxn: the canonical Begin / body / Commit-or-Rollback-and-retry loop.
//
// Under 2PL a transaction can die of Deadlock or LockTimeout at any
// operation; the correct client response is Rollback and retry. Every
// driver, example, and the server worker pool used to hand-roll that loop —
// RunTxn owns it once, with a declarative RetryPolicy and abort accounting
// that the callers aggregate instead of re-deriving.
#pragma once

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "engine/database.h"

namespace tdp::engine {

struct RetryPolicy {
  /// Total attempts, including the first; 1 means no retry.
  int max_attempts = 50;
  /// Base sleep before each retry. Successive sleeps grow by decorrelated
  /// jitter — drawn uniformly from [backoff_ns, 3x the previous sleep]
  /// (common/fault.h NextBackoffNanos) — so a herd of clients blocked on
  /// the same failover window comes back desynchronized instead of
  /// re-colliding the instant the barrier drops. 0 retries immediately
  /// (the engines' lock waits already provide natural backoff).
  int64_t backoff_ns = 0;
  /// Cap on any single retry sleep (0 = uncapped).
  int64_t max_backoff_ns = 0;
  /// Also retry on kAborted (conflict-induced aborts, e.g. a write landing
  /// on a must-abort transaction). Application-level Aborted returns from
  /// the body are indistinguishable, so bodies that abort on purpose should
  /// use a different code (NotFound, InvalidArgument) or set this false.
  bool retry_aborted = true;
  /// Also retry on kUnavailable: the engine or service is inside a recovery
  /// or replication-failover window (docs/replication.md) and will accept
  /// work again once EndRecovery drops the barrier. Pair with a nonzero
  /// backoff_ns — an Unavailable retry loop with no sleep spins.
  ///
  /// max_attempts still caps these retries, and deadline_ns bounds the
  /// total time: a quorum that never heals must surface as an error, not
  /// as a transaction spinning forever.
  bool retry_unavailable = true;
  /// Wall-clock retry budget measured from the first attempt's start: once
  /// exceeded, an otherwise-retryable failure returns instead of retrying
  /// (counted as TxnStats::retries_exhausted, like an attempt-cap exit).
  /// 0 = no deadline. The in-flight attempt is never interrupted — the
  /// deadline is checked between attempts, so the overrun is bounded by
  /// one attempt plus one backoff sleep.
  int64_t deadline_ns = 0;
};

/// Attempt/abort counts across one RunTxn call (all attempts).
struct TxnStats {
  int attempts = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t timeout_aborts = 0;
  uint64_t other_aborts = 0;  ///< Non-retryable or kAborted failures.
  /// 1 when the final failure was retryable but the attempt cap or
  /// deadline_ns stopped the loop — the caller saw an error the policy
  /// *chose* to surface, distinct from a non-retryable abort.
  uint64_t retries_exhausted = 0;
};

/// True when `s` is a failure RunTxn would retry under `policy`.
bool RetryableTxnError(const Status& s, const RetryPolicy& policy);

using TxnBody = std::function<Status(Connection&)>;

/// Runs `body` as a transaction: Begin, body, Commit on success, Rollback
/// and maybe retry on failure. Returns the final attempt's Status. Each
/// attempt runs under the profiler's transaction root (tprof::TxnScope +
/// "dispatch_command"), matching the paper's per-transaction attribution.
Status RunTxn(Connection& conn, const RetryPolicy& policy, const TxnBody& body,
              TxnStats* stats = nullptr);

/// Like RunTxn, but commits through Connection::CommitAsync: the body (and
/// any retries of a *failed* body or failed async submission) runs on the
/// calling thread, while durability is signalled later through `ack`.
/// Contract mirrors CommitAsync: an OK return means the logical commit
/// succeeded and `ack` fires exactly once with the durability outcome; a
/// non-OK return is the final attempt's failure and `ack` never fires.
Status RunTxnAsync(Connection& conn, const RetryPolicy& policy,
                   const TxnBody& body, Connection::CommitAckFn ack,
                   TxnStats* stats = nullptr);

}  // namespace tdp::engine
