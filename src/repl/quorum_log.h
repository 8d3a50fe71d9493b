// QuorumLog: quorum-replicated durability over log::RedoLog
// (docs/replication.md).
//
// The leader's RedoLog stays the single appender and keeps copy 0 of the
// framed redo stream on its own log disk; QuorumLog adds K-1 Replica copies
// and re-defines "commit durable" as "the frame is durable on a quorum of
// the K copies, the leader's included". CommitAsync appends through the
// leader exactly as before — so the epoch group-commit path is untouched
// and one epoch flush still covers the whole parked batch on the leader —
// and parks the caller's ack here instead. Every append wakes one shipper
// thread per replica, which ships the newly appended byte range (whatever
// accumulated while its last ship was in flight, in one Ship) and flushes
// it on that replica's disk, in parallel with its siblings *and* with the
// leader's own flush. The quorum LSN is min(leader durable LSN,
// (quorum-1)-th largest replica durable LSN); acks fire only for frames at
// or below it, so commit latency is max(leader flush, (quorum-1)-th fastest
// replica flush), not their sum — and one slow minority replica never
// gates commits.
//
// Replicas may hold frames the leader has not made durable yet. The stream
// still never forks: the leader's image is append-only and a failed leader
// flush keeps its bytes and retries, so every copy is a byte-prefix of the
// same stream, and "highest durable LSN wins" failover is safe by
// construction: any quorum-acked frame is durable on >= quorum copies, so
// the longest surviving copy contains it.
// Terms fence a deposed leader on both sides: replicas reject ships below
// their adopted term, and the leader discards ship completions whose term
// snapshot no longer matches (a late flush from before a Failover() must
// not advance the new term's quorum).
//
// With replicas == 1 the layer is a pass-through: quorum durability is
// leader durability and no shipper threads run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/durable_acks.h"
#include "common/metrics.h"
#include "common/sim_disk.h"
#include "common/status.h"
#include "log/redo_log.h"
#include "log/redo_record.h"
#include "repl/replica.h"

namespace tdp::repl {

struct QuorumLogConfig {
  /// The leader log (copy 0). Not owned; must outlive the QuorumLog and
  /// must not be Stop()ed by anyone else while shippers run.
  log::RedoLog* leader = nullptr;
  /// Total durable copies of the redo stream, counting the leader's own
  /// disk. 1 = replication off (pass-through).
  int replicas = 3;
  /// Copies that must hold a frame durable before its ack fires.
  /// 0 = majority (replicas / 2 + 1).
  int quorum = 0;
  /// Device template for replica disks. Each replica derives its own seed
  /// (template seed + 31 * index) so devices jitter independently.
  SimDiskConfig replica_disk;
  /// Optional per-replica fault injectors (index i -> replica i+1),
  /// overriding replica_disk.fault — the handle for scoping a fault to one
  /// replica's device. Not owned.
  std::vector<FaultInjector*> replica_faults;
  /// Shipper re-poll period: how long a shipper naps after a failed ship
  /// (dark replica) or an idle wakeup before rechecking. Also bounds how
  /// quickly a lost quorum is detected and parked acks are resolved.
  int64_t ship_retry_interval_ns = 200 * 1000;
};

class QuorumLog {
 public:
  explicit QuorumLog(QuorumLogConfig config);
  ~QuorumLog();

  QuorumLog(const QuorumLog&) = delete;
  QuorumLog& operator=(const QuorumLog&) = delete;

  /// Starts one shipper thread per replica and registers the leader's
  /// append listener that wakes them. No-op when replicas == 1.
  void Start();

  /// Clears the leader's append listener, joins the shippers, then
  /// partitions parked acks exactly like
  /// RedoLog::Stop: waiters at or below the quorum LSN ack OK, the rest ack
  /// non-OK. Stop does NOT flush or ship — an acked-OK-but-lost commit is
  /// impossible, which is what the crash harness leans on. Idempotent.
  /// Does not stop the leader log.
  void Stop();

  /// Appends through the leader's log (same LSN, same epoch batching) and
  /// parks `ack` until the frame is durable on a quorum of copies. The ack
  /// fires exactly once, off this thread (epoch/shipper) or inline when the
  /// quorum already covers the frame; non-OK when the log stops or the
  /// quorum becomes unreachable first.
  uint64_t CommitAsync(uint64_t txn_id, uint64_t bytes,
                       std::vector<log::RedoOp> ops, AckFn ack);

  /// Synchronous commit: CommitAsync + wait for the ack. Returns the LSN;
  /// `durable` (optional) receives the ack's status — non-OK means the
  /// commit returned without quorum durability (degraded, like a failed
  /// eager flush).
  uint64_t Commit(uint64_t txn_id, uint64_t bytes,
                  std::vector<log::RedoOp> ops, Status* durable = nullptr);

  /// Leader fencing drill (docs/replication.md "failover state machine"):
  /// bumps the term, re-anchors every shipper at its replica's durable
  /// offset, and resolves parked acks *above* the quorum LSN with
  /// Unavailable — the client rides through on retry (RetryPolicy
  /// .retry_unavailable). In-flight ship completions snapshotted under the
  /// old term are discarded when they land. Returns the new term.
  uint64_t Failover();

  /// Ships the leader's full appended image (durable on the leader or not)
  /// to every live replica under the current term (the catch-up half of
  /// failover recovery). Returns the first error (dead replicas are
  /// skipped, not errors).
  Status CatchUpReplicas();

  /// Kills/revives replica i (1-based; copy 0 is the leader's own disk).
  void KillReplica(int i);
  void ReviveReplica(int i);

  /// Stops the leader log and returns the post-crash read of every copy:
  /// index 0 is the leader's CrashImage, then one image per replica. Each
  /// carries up to `extra_tail_bytes` of torn tail past its durable prefix.
  std::vector<std::vector<uint8_t>> CrashImages(uint64_t extra_tail_bytes = 0);

  uint64_t term() const { return term_.load(std::memory_order_acquire); }
  uint64_t quorum_lsn() const {
    return quorum_lsn_.load(std::memory_order_acquire);
  }
  int replicas() const { return config_.replicas; }
  int quorum() const { return quorum_; }
  size_t replica_count() const { return replicas_.size(); }
  /// Replica i (1-based, matching the copy index; i in [1, replicas-1]).
  Replica& replica(int i) { return *replicas_[static_cast<size_t>(i) - 1]; }

  struct Stats {
    std::atomic<uint64_t> commits_submitted{0};
    std::atomic<uint64_t> acks_quorum{0};  ///< Acks fired OK.
    std::atomic<uint64_t> acks_lost{0};    ///< Acks fired non-OK.
    std::atomic<uint64_t> failovers{0};
    std::atomic<uint64_t> stale_completions{0};  ///< Leader-side discards.
  };
  const Stats& stats() const { return stats_; }

 private:
  void ShipperLoop(size_t idx);
  /// Called on every leader durability signal (epoch/inline commit acks).
  void OnLeaderAdvance();
  /// The leader's append listener: wakes the shippers.
  void OnLeaderAppend();
  /// Recomputes the quorum LSN from all K durable watermarks (the leader's
  /// read live) and takes the covered acks. Takes everything else as lost when fewer than `quorum_`
  /// copies are still serving. Caller holds mu_.
  TakenAcks AdvanceQuorumLocked();
  /// Fires taken acks outside mu_ (OK / Unavailable), with the
  /// repl.pre_ack crash point ahead of the OK batch.
  void FireAcks(TakenAcks taken);
  /// Counts taken acks into repl.acks_quorum / repl.acks_lost, then fires
  /// them (OK / `lost_status`) outside mu_.
  void ResolveAcks(TakenAcks taken, const Status& lost_status);
  int AliveCopiesLocked() const;

  QuorumLogConfig config_;
  int quorum_ = 1;
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex mu_;
  /// Parked acks by LSN. Parks can arrive out of LSN order: the leader
  /// assigns the LSN under its own mutex, before ours.
  ParkedAcks parked_;
  std::atomic<uint64_t> term_{1};
  std::atomic<uint64_t> quorum_lsn_{0};
  /// Per-replica leader-side ship anchors: the next byte offset to ship to
  /// replica i. Re-read from the replica's durable watermark after any
  /// failure or failover.
  std::vector<size_t> ship_offsets_;
  bool quorum_lost_ = false;  ///< Latched once AliveCopies < quorum.

  std::atomic<bool> running_{false};
  std::vector<std::thread> shippers_;
  std::condition_variable ship_cv_;  ///< Wakes shippers on leader append.

  Stats stats_;
  struct MetricHandles {
    metrics::Counter* commits_submitted = nullptr;
    metrics::Counter* acks_quorum = nullptr;
    metrics::Counter* acks_lost = nullptr;
    metrics::Counter* failovers = nullptr;
    metrics::Counter* stale_completions = nullptr;
    metrics::Gauge* acks_waiting = nullptr;
  };
  MetricHandles m_;
};

/// Failover election over post-crash images (leader + replicas, or replicas
/// only when the leader's disk is lost): each image is decoded through the
/// checksummed framing and the longest valid frame prefix wins. Because
/// every copy is a prefix of one stream and a quorum-acked frame is durable
/// on >= quorum copies, the winner contains every acked frame as long as at
/// most replicas - quorum copies are missing.
struct Election {
  int winner = -1;          ///< Index into `images`; -1 when all empty.
  uint64_t frames = 0;      ///< Valid frames in the winning image.
  size_t valid_bytes = 0;   ///< Validated prefix length of the winner.
  bool any_corrupt = false; ///< Some image reported DataLoss (mid-stream).
  std::vector<log::RecoveredTxn> txns;  ///< The winner's decoded records.
};
Election ElectLeader(const std::vector<std::vector<uint8_t>>& images);

}  // namespace tdp::repl
