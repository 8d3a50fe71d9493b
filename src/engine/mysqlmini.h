// mysqlmini: a miniature InnoDB-style engine (DESIGN.md §2).
//
// Thread-per-connection execution over:
//   * a record-level 2PL lock manager with pluggable scheduling
//     (FCFS / VATS / RS — Section 5),
//   * a young/old-sublist buffer pool with optional Lazy LRU Update
//     (Section 6.1),
//   * a redo log with eager / lazy-flush / lazy-write policies
//     (Section 6.3), and
//   * a B-tree cost model contributing the paper's inherent variance
//     sources (btr_cur_search_to_nth_level, row_ins_clust_index_entry_low).
//
// The hot functions carry TProfiler probes under the same names the paper
// reports, so profiling this engine reproduces the structure of Table 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/random.h"
#include "common/sim_disk.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "lock/lock_manager.h"
#include "log/redo_log.h"
#include "repl/quorum_log.h"
#include "sched/conflict_predictor.h"
#include "storage/btree_model.h"
#include "storage/catalog.h"

namespace tdp::engine {

struct MySQLMiniConfig {
  lock::LockManagerConfig lock;

  /// Run an online sched::ConflictPredictor fed by the lock manager's wait
  /// outcomes (docs/scheduling.md). Forced on when lock.policy is kCPVATS —
  /// that policy is inert without a scorer. The engine owns the predictor
  /// and installs it as lock.scorer; any scorer already set in `lock` is
  /// overridden.
  bool enable_predictor = false;
  sched::PredictorConfig predictor;

  size_t buffer_pool_pages = 4096;
  bool lazy_lru = false;                   ///< LLU (Section 6.1).
  int64_t llu_spin_budget_ns = 10000;      ///< 0.01 ms, the paper's budget.
  /// See BufferPoolConfig::lru_critical_work_ns.
  int64_t lru_critical_work_ns = 0;

  log::FlushPolicy flush_policy = log::FlushPolicy::kEagerFlush;
  int64_t flusher_interval_ns = MillisToNanos(10);
  bool log_group_commit = true;
  /// Retry/backoff for log and page I/O under injected faults
  /// (docs/faults.md). Dead configuration without an armed injector.
  IoRetryPolicy io_retry;
  /// See RedoLogConfig::fallback_lazy_on_stall: eager commits degrade to
  /// lazy flush instead of waiting out a stalled log device.
  bool log_fallback_lazy_on_stall = false;
  /// Epoch-based async group commit (docs/group_commit.md): CommitAsync
  /// parks its durability ack on the redo log's epoch thread instead of
  /// blocking the committer. See RedoLogConfig::async_commit.
  bool log_async_commit = false;
  /// Epoch length when log_async_commit is on (a tuning knob).
  int64_t log_epoch_interval_ns = 50 * 1000;
  /// Buffer-pool page-map buckets (0 = BufferPoolConfig default); with the
  /// lock manager's num_shards this is the "table shards" tuning knob.
  size_t buffer_hash_buckets = 0;

  storage::BTreeModelConfig btree;
  uint64_t rows_per_page = 64;

  /// When true, plain Selects take shared record locks (strict S2PL). The
  /// default mirrors InnoDB: SELECTs are consistent nonlocking reads and
  /// only UPDATE/DELETE/INSERT/SELECT..FOR UPDATE take (exclusive) locks.
  bool locking_reads = false;

  /// CPU burned per row access (the query-processing body).
  int64_t row_work_ns = 1200;
  /// Redo generated per write operation.
  uint64_t redo_bytes_per_write = 192;
  /// Capture logical after-image redo payloads at commit, enabling
  /// RecoverInto() after a crash. Off by default (benchmarks don't pay for
  /// the copies).
  bool logical_redo = false;

  SimDiskConfig data_disk;
  SimDiskConfig log_disk;

  /// Replication (docs/replication.md): total durable copies of the redo
  /// stream, counting the leader's own log disk. 1 = replication off; K > 1
  /// routes commit durability through repl::QuorumLog — acks fire when a
  /// quorum of copies holds the frame durable.
  int repl_replicas = 1;
  /// Copies that must hold a frame before its ack fires. 0 = majority
  /// (repl_replicas / 2 + 1).
  int repl_quorum = 0;
  /// Device template for replica log disks; each replica derives its own
  /// seed so devices jitter independently.
  SimDiskConfig repl_disk;
  /// Optional per-replica fault injectors (index i -> replica i+1),
  /// overriding repl_disk.fault — injected faults stay scoped to one
  /// replica's device. Not owned; must outlive the engine.
  std::vector<FaultInjector*> repl_faults;

  uint64_t seed = 1;
};

class MySQLMini;

/// Nominal payload bytes of a 2PC control frame (prepare marker, decision,
/// participant commit) for log-bandwidth accounting; mirrored into
/// mysql.redo_bytes so the log.bytes_written identity survives sharding.
inline constexpr uint64_t k2PCControlFrameBytes = 64;

/// One client connection; runs at most one transaction at a time on the
/// calling thread (thread-per-connection).
class MySQLSession : public Connection {
 public:
  explicit MySQLSession(MySQLMini* db);
  ~MySQLSession() override;

  uint64_t current_txn_id() const override;

  // --- cross-shard 2PC seam (docs/sharding.md) -----------------------------
  // engine::ShardedDatabase drives these; single-shard commits never touch
  // them. All frames of one commit go out in one round: each non-coordinator
  // participant runs Begin .. ops .. PrepareCommitAsync, the coordinator
  // runs Begin .. ops .. DecideAsync, and once the round's acks are in every
  // one of them runs CommitPrepared. Locks are held and undo is retained
  // until then, so a participant can still Rollback before DecideAsync.

  /// A participant's PREPARE frame as the coordinator's DECISION frame
  /// copies it (one k2PCSection of that frame).
  struct DecisionSection {
    uint32_t shard = 0;  ///< The participant's shard; set by the caller.
    uint64_t lsn = 0;    ///< The frame's LSN on that shard's log; 0 = none.
    uint64_t bytes = 0;  ///< Nominal data redo bytes of the frame.
    std::vector<log::RedoOp> redo;  ///< A copy of the frame's data redo.
  };

  /// Appends this participant's PREPARE frame — a k2PCPrepare marker
  /// (carrying `gtid` and the coordinator shard id) followed by the
  /// transaction's data redo — through the shard's async append path and
  /// returns without waiting. `ack` fires exactly once, on any thread: OK
  /// once the frame is durable (quorum ack when replicated), non-OK when it
  /// cannot be made durable. Either way the outcome is the decision's: the
  /// decision frame carries the returned copy of the frame. A read-only
  /// participant acks inline and logs nothing (lsn 0). The transaction must
  /// not have failed (check must_abort() first).
  DecisionSection PrepareCommitAsync(uint64_t gtid, uint32_t coord_shard,
                                     AckFn ack);

  /// The commit point, on the coordinator (`coord_shard`, the lowest
  /// writing shard): appends ONE DECISION frame through the async path — a
  /// k2PCDecide marker carrying `gtid`, this transaction's data redo, then
  /// one k2PCSection marker and redo copy per entry of `sections` — in the
  /// same round as the participants' PREPAREs. `ack` fires exactly once:
  /// OK means committed, on every shard. Non-OK is ambiguous: the frame is
  /// in the append stream but its durability is unknown, so the caller
  /// must keep the effects (a crash may yet surface the decision), the
  /// same contract as a quorum-loss single-shard commit. Locks stay held
  /// until CommitPrepared; the frame is this shard's only record, so that
  /// logs nothing here. The transaction must not have failed.
  void DecideAsync(uint64_t gtid, uint32_t coord_shard,
                   std::vector<DecisionSection> sections, AckFn ack);

  /// Ends the round once the decision's ack fired: appends this
  /// participant's k2PCCommit frame (not forced — the decision already
  /// proves the outcome) and releases locks. Infallible by design: the
  /// transaction is committed the moment the decision frame is durable.
  /// `log_commit_frame = false` releases without the frame — required when
  /// the decision's durability is UNKNOWN (ambiguous coordinator failure):
  /// a durable local COMMIT frame would commit this shard at recovery while
  /// siblings presume abort, breaking atomicity.
  void CommitPrepared(uint64_t gtid, bool log_commit_frame = true);

  /// True between PrepareCommitAsync or DecideAsync and CommitPrepared.
  bool prepared() const { return prepared_; }
  /// True when an operation failed and the transaction can only roll back.
  bool must_abort() const { return must_abort_; }
  /// True when the open transaction wrote nothing (prepares frame-free).
  bool read_only() const { return redo_bytes_ == 0; }

 protected:
  Status DoBegin() override;
  Status DoSelect(uint32_t table, uint64_t key) override;
  Status DoSelectRange(uint32_t table, uint64_t lo, uint64_t hi) override;
  Status DoSelectForUpdate(uint32_t table, uint64_t key) override;
  Status DoUpdate(uint32_t table, uint64_t key, size_t col,
                  int64_t delta) override;
  Status DoInsert(uint32_t table, uint64_t key, storage::Row row) override;
  Status DoDelete(uint32_t table, uint64_t key) override;
  Status DoCommit() override;
  Status DoCommitAsync(CommitAckFn ack) override;
  void DoRollback() override;
  Result<int64_t> DoReadColumn(uint32_t table, uint64_t key,
                               size_t col) override;

 private:
  struct UndoEntry {
    uint32_t table;
    uint64_t key;
    bool existed;       ///< False when the op created the row (undo deletes).
    storage::Row prior; ///< Valid when existed.
  };

  /// Locks (optionally), pins and touches the row; shared plumbing of all
  /// row ops.
  Status AccessRow(uint32_t table, uint64_t key, lock::LockMode mode,
                   bool record_undo, bool take_lock = true);
  Status EnsureActive() const;
  void ReleaseAndReset();
  /// A 2PC frame: the `marker` op (coordinator shard, gtid), then this
  /// transaction's data redo, which it consumes.
  std::vector<log::RedoOp> RedoBehind(log::RedoOp::Kind marker,
                                      uint32_t coord_shard, uint64_t gtid);

  MySQLMini* const db_;
  std::unique_ptr<lock::TxnContext> txn_;
  bool active_ = false;
  bool must_abort_ = false;
  bool prepared_ = false;  ///< 2PC: frame issued, locks held.
  /// Prepared with no COMMIT frame to write: a read-only participant, or
  /// the coordinator, whose decision frame is its commit record.
  bool no_commit_frame_ = false;
  uint32_t coord_shard_ = 0;        ///< Valid while prepared_.
  uint64_t redo_bytes_ = 0;
  std::vector<UndoEntry> undo_;
  std::vector<log::RedoOp> redo_ops_;  ///< Only when config.logical_redo.
};

class MySQLMini : public Database {
 public:
  explicit MySQLMini(MySQLMiniConfig config);
  ~MySQLMini() override;

  std::string name() const override { return "mysqlmini"; }
  std::unique_ptr<Connection> Connect() override;
  /// Typed Connect for callers that need the 2PC seam (ShardedConnection).
  std::unique_ptr<MySQLSession> ConnectSession();
  uint32_t CreateTable(const std::string& name,
                       uint64_t rows_per_page) override;
  uint32_t TableId(const std::string& name) const override;
  void BulkUpsert(uint32_t table, uint64_t key, storage::Row row) override;
  uint64_t TableRowCount(uint32_t table) const override;
  sched::ConflictPredictor* conflict_predictor() override {
    return predictor_.get();
  }

  // --- component access (tuning, tests, benches) --------------------------
  lock::LockManager& lock_manager() { return *lock_manager_; }
  buffer::BufferPool& buffer_pool() { return *buffer_pool_; }
  log::RedoLog& redo_log() { return *redo_log_; }
  /// Null when repl_replicas == 1 (replication off).
  repl::QuorumLog* quorum_log() { return quorum_log_.get(); }
  storage::Catalog& catalog() { return catalog_; }
  SimDisk& data_disk() { return *data_disk_; }
  SimDisk& log_disk() { return *log_disk_; }
  const MySQLMiniConfig& config() const { return config_; }

  /// Next transaction id + its RS priority.
  std::pair<uint64_t, uint64_t> NewTxnIdentity();

  /// Per-session RNG stream (deterministic given config seed).
  uint64_t NewRngSeed();

  /// Crash recovery: replays the durable committed transactions from
  /// `recovered` (see RedoLog::RecoverCommitted) into `target`, which must
  /// have been created with the same schema (same CreateTable order).
  /// Records with lsn <= start_after_lsn are skipped — they are covered by
  /// a restored checkpoint.
  static void RecoverInto(const std::vector<log::RecoveredTxn>& recovered,
                          Database* target, uint64_t start_after_lsn = 0);

  /// Fuzzy checkpoint of the current table state (docs/recovery.md). The
  /// caller must quiesce writers. Enforces the write-ahead rule first: the
  /// redo log is forced durable through the last assigned LSN, so the
  /// snapshot never covers a record a crash could lose (async/lazy commit
  /// would otherwise let recovery resurrect unacked transactions — or mix
  /// them with older replayed frames into a state matching no commit
  /// prefix). Fails when the force cannot complete; publishing a snapshot
  /// of un-durable state has no sound covering LSN.
  Result<Checkpoint> TakeCheckpoint();

 private:
  friend class MySQLSession;

  /// Appends a commit record or a 2PC frame (whose txn id is the gtid) to
  /// this shard's log through its async append path — the quorum layer
  /// when replication is on, else the redo log's epoch path — mirrors
  /// `bytes` into mysql.redo_bytes and returns the record's LSN. `ack`
  /// fires exactly once when the record's durability is decided (see
  /// RedoLog::CommitAsync: without an epoch thread the append flushes
  /// inline and acks before returning).
  uint64_t AppendAsync(uint64_t txn_id, uint64_t bytes,
                       std::vector<log::RedoOp> ops, AckFn ack);
  /// An unforced frame: returns as soon as it is in the stream, leaving
  /// its durability to the quorum layer or the flush policy.
  void AppendUnforced(uint64_t gtid, uint64_t bytes,
                      std::vector<log::RedoOp> ops);

  MySQLMiniConfig config_;
  storage::Catalog catalog_;
  std::unique_ptr<SimDisk> data_disk_;
  std::unique_ptr<SimDisk> log_disk_;
  /// Declared before lock_manager_: the manager holds a raw scorer pointer
  /// into it, so the predictor must be destroyed after the manager.
  std::unique_ptr<sched::ConflictPredictor> predictor_;
  std::unique_ptr<lock::LockManager> lock_manager_;
  std::unique_ptr<buffer::BufferPool> buffer_pool_;
  std::unique_ptr<log::RedoLog> redo_log_;
  /// Declared after redo_log_ (destroyed first): the leader log holds
  /// internal acks that call back into the QuorumLog, so the engine stops
  /// the log before the QuorumLog dies (see ~MySQLMini).
  std::unique_ptr<repl::QuorumLog> quorum_log_;
  storage::BTreeModel btree_;

  std::atomic<uint64_t> next_txn_id_{1};
  std::mutex rng_mu_;
  Rng rng_;

  // Engine-side counters for the harness's cross-layer invariants:
  // mysql.lock_acquisitions counts every successful LockManager::Lock made
  // by sessions (== lock.grants.total when this engine is the only caller);
  // mysql.redo_bytes counts commit record payloads handed to the redo log
  // (== log.bytes_written once the log quiesces fully durable).
  struct MetricHandles {
    metrics::Counter* lock_acquisitions = nullptr;
    metrics::Counter* redo_bytes = nullptr;
  };
  MetricHandles m_;
};

}  // namespace tdp::engine
