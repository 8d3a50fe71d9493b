// ShardedDatabase — N independent mysqlmini partitions behind one
// engine::Database (docs/sharding.md).
//
// Every shard is a full MySQLMini: its own lock manager, buffer pool, redo
// log (optionally quorum-replicated via src/repl), conflict predictor, and
// SimDisks with independently seeded jitter. Rows are hash-partitioned by
// ShardRouter over ConflictPredictor fingerprints; a connection routes each
// operation to its owner shard through lazily-begun per-shard sub-sessions.
//
// Commit protocol:
//  * Transactions that wrote on at most ONE shard commit through that
//    shard's existing path untouched — same locks, same log, same quorum
//    ack — and any other (read-only) sub-sessions then release with no
//    frames. This is the fast path sharding must not tax; a cross-shard
//    transaction with a single writer takes it too (one-phase commit).
//  * Transactions that wrote on two or more shards run two-phase commit
//    with presumed abort over the shards' own CRC32C-framed logs, in two
//    rounds of forces. Round one: every participant except the coordinator
//    (the lowest-numbered writing shard) issues its PREPARE frame (its data
//    redo behind a k2PCPrepare marker) at once through its shard's async
//    append path, and the calling thread collects the votes. Round two:
//    the coordinator forces ONE k2PCDecide frame carrying its own data redo
//    — THE commit point. Participants then append unforced k2PCCommit
//    frames and release. No decision anywhere means recovery
//    (Filter2PCRedo) drops the prepares: presumed abort.
//
// Cross-shard deadlocks: each shard's lock manager only sees its own wait
// graph, so a cycle spanning shards is invisible to cycle detection and is
// broken by lock wait timeouts instead (lock.wait_timeout_ns must be finite
// when cross-shard transactions are enabled).
//
// Metrics (docs/metrics.md): shard.single_shard_txns / shard.cross_shard_txns
// classify commits by shards touched; 2pc.coordinated counts the rounds run
// for two or more writers. The 2PC ledger holds
//     2pc.prepared + 2pc.aborted_presumed == 2pc.coordinated
// (every coordinated round either fully prepares or presumes abort before
// the decision).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/mysqlmini.h"
#include "engine/shard_router.h"

namespace tdp::engine {

struct ShardedDatabaseConfig {
  int num_shards = 4;  ///< 1..ShardRouter::kMaxShards.
  /// Template for every shard; per-shard seeds (engine, data/log/repl
  /// disks) are derived so streams and device jitter stay independent.
  MySQLMiniConfig shard;
};

class ShardedDatabase;

/// One client connection over the sharded engine. Routes row operations to
/// owner shards via lazily-begun sub-sessions; Commit picks the one-writer
/// fast path or 2PC (see file header). Thread-per-connection like the
/// underlying sessions.
class ShardedConnection : public Connection {
 public:
  explicit ShardedConnection(ShardedDatabase* db);

  /// The global transaction id (gtid) assigned at Begin — the id 2PC frames
  /// carry. Distinct counter from the shards' local txn ids.
  uint64_t current_txn_id() const override { return gtid_; }

  /// Shards this transaction has begun a sub-transaction on (bit i = shard
  /// i); 0 before the first routed operation.
  uint64_t touched_mask() const { return begun_mask_; }

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
  /// Owner-shard session for one record, sub-transaction begun. Null on
  /// failure (with *status set).
  MySQLSession* SessionFor(uint32_t table, uint64_t key, Status* status);
  MySQLSession* SessionForShard(uint32_t shard, Status* status);
  /// DoCommit (`ack` null) and DoCommitAsync share this path.
  Status CommitRouted(CommitAckFn* ack);
  Status CommitCrossShard(uint64_t writer_mask);
  void ResetTxn();

  ShardedDatabase* const db_;
  /// Lazily created, reused across transactions (index = shard).
  std::vector<std::unique_ptr<MySQLSession>> sessions_;
  uint64_t begun_mask_ = 0;  ///< Shards with an open sub-transaction.
  bool active_ = false;
  uint64_t gtid_ = 0;
};

class ShardedDatabase : public Database {
 public:
  explicit ShardedDatabase(ShardedDatabaseConfig config);

  std::string name() const override { return "sharded"; }
  std::unique_ptr<Connection> Connect() override;
  /// Creates the table on every shard (same id everywhere — shards share
  /// one schema, each holding its hash partition of the rows).
  uint32_t CreateTable(const std::string& name,
                       uint64_t rows_per_page) override;
  uint32_t TableId(const std::string& name) const override;
  /// Routes to the owner shard only.
  void BulkUpsert(uint32_t table, uint64_t key, storage::Row row) override;
  /// Sum over shards.
  uint64_t TableRowCount(uint32_t table) const override;
  // conflict_predictor() stays null: each shard learns its own heats, and
  // serving one shard's model as "the" predictor would mis-steer the rest.
  // kConflictAware admission degrades to kEldestFirst over this engine.

  int num_shards() const { return static_cast<int>(shards_.size()); }
  MySQLMini* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  ShardRouter& router() { return router_; }
  const ShardRouter& router() const { return router_; }
  const ShardedDatabaseConfig& config() const { return config_; }

  uint64_t NextGtid() {
    return next_gtid_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  friend class ShardedConnection;

  ShardedDatabaseConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<MySQLMini>> shards_;
  std::atomic<uint64_t> next_gtid_{1};

  // Registry counters (process-global; see docs/metrics.md "shard.*, 2pc.*").
  struct MetricHandles {
    metrics::Counter* single_shard_txns = nullptr;
    metrics::Counter* cross_shard_txns = nullptr;
    metrics::Counter* coordinated = nullptr;
    metrics::Counter* prepared = nullptr;
    metrics::Counter* aborted_presumed = nullptr;
    metrics::Counter* decisions = nullptr;
    metrics::Counter* participant_commits = nullptr;
  };
  MetricHandles m_;
};

}  // namespace tdp::engine
