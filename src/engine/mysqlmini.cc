#include "engine/mysqlmini.h"

#include <algorithm>
#include <cassert>

#include "common/durable_acks.h"
#include "common/work.h"
#include "tprofiler/profiler.h"

namespace tdp::engine {

MySQLMini::MySQLMini(MySQLMiniConfig config)
    : config_(config), rng_(config.seed * 0x9E3779B97F4A7C15ull + 1) {
  data_disk_ = std::make_unique<SimDisk>(config_.data_disk);
  SimDiskConfig log_cfg = config_.log_disk;
  log_cfg.seed += 17;
  log_disk_ = std::make_unique<SimDisk>(log_cfg);

  // Conflict predictor (docs/scheduling.md): created before the lock
  // manager so it can be installed as the manager's scorer. kCPVATS forces
  // it on — the policy orders waiters by predicted weight and is inert
  // without one.
  if (config_.enable_predictor ||
      config_.lock.policy == lock::SchedulerPolicy::kCPVATS) {
    predictor_ = std::make_unique<sched::ConflictPredictor>(config_.predictor);
    config_.lock.scorer = predictor_.get();
  }
  lock_manager_ = std::make_unique<lock::LockManager>(config_.lock);

  buffer::BufferPoolConfig bp;
  bp.capacity_pages = config_.buffer_pool_pages;
  bp.lazy_lru = config_.lazy_lru;
  bp.llu_spin_budget_ns = config_.llu_spin_budget_ns;
  bp.lru_critical_work_ns = config_.lru_critical_work_ns;
  bp.disk = data_disk_.get();
  bp.io_retry = config_.io_retry;
  if (config_.buffer_hash_buckets > 0) {
    bp.hash_buckets = config_.buffer_hash_buckets;
  }
  buffer_pool_ = std::make_unique<buffer::BufferPool>(bp);

  log::RedoLogConfig lg;
  lg.policy = config_.flush_policy;
  lg.flusher_interval_ns = config_.flusher_interval_ns;
  lg.group_commit = config_.log_group_commit;
  lg.io_retry = config_.io_retry;
  lg.fallback_lazy_on_stall = config_.log_fallback_lazy_on_stall;
  lg.async_commit = config_.log_async_commit;
  lg.epoch_interval_ns = config_.log_epoch_interval_ns;
  lg.disk = log_disk_.get();
  redo_log_ = std::make_unique<log::RedoLog>(lg);
  redo_log_->Start();

  if (config_.repl_replicas > 1) {
    repl::QuorumLogConfig ql;
    ql.leader = redo_log_.get();
    ql.replicas = config_.repl_replicas;
    ql.quorum = config_.repl_quorum;
    ql.replica_disk = config_.repl_disk;
    ql.replica_faults = config_.repl_faults;
    quorum_log_ = std::make_unique<repl::QuorumLog>(ql);
    quorum_log_->Start();
  }

  btree_ = storage::BTreeModel(config_.btree);

  auto& reg = metrics::Registry::Global();
  m_.lock_acquisitions = reg.GetCounter("mysql.lock_acquisitions");
  m_.redo_bytes = reg.GetCounter("mysql.redo_bytes");
}

MySQLMini::~MySQLMini() {
  // Stop the leader first: it holds internal acks that call back into the
  // quorum log, and Stop() resolves them all before returning.
  redo_log_->Stop();
  if (quorum_log_) quorum_log_->Stop();
}

std::unique_ptr<Connection> MySQLMini::Connect() {
  return ConnectSession();
}

std::unique_ptr<MySQLSession> MySQLMini::ConnectSession() {
  return std::make_unique<MySQLSession>(this);
}

uint64_t MySQLMini::AppendAsync(uint64_t txn_id, uint64_t bytes,
                                std::vector<log::RedoOp> ops, AckFn ack) {
  // Mirror the nominal bytes into mysql.redo_bytes up front: the record is
  // in the append stream whether or not it becomes durable, and
  // log.bytes_written will count it at flush time.
  metrics::Inc(m_.redo_bytes, bytes);
  if (quorum_log_ != nullptr) {
    return quorum_log_->CommitAsync(txn_id, bytes, std::move(ops),
                                    std::move(ack));
  }
  return redo_log_->CommitAsync(txn_id, bytes, std::move(ops),
                                std::move(ack));
}

void MySQLMini::AppendUnforced(uint64_t gtid, uint64_t bytes,
                               std::vector<log::RedoOp> ops) {
  // A replicated log or an epoch takes the frame and its ack is dropped
  // (the ledger still counts it submitted/resolved); otherwise the log
  // applies its flush policy, so lazy policies leave it to the flusher.
  if (quorum_log_ != nullptr || config_.log_async_commit) {
    AppendAsync(gtid, bytes, std::move(ops), [](const Status&) {});
    return;
  }
  metrics::Inc(m_.redo_bytes, bytes);
  redo_log_->Commit(gtid, bytes, std::move(ops));
}

uint32_t MySQLMini::CreateTable(const std::string& name,
                                uint64_t rows_per_page) {
  return catalog_
      .CreateTable(name,
                   rows_per_page == 0 ? config_.rows_per_page : rows_per_page)
      ->id();
}

uint32_t MySQLMini::TableId(const std::string& name) const {
  const storage::Table* t = catalog_.GetTable(name);
  assert(t != nullptr && "unknown table");
  return t->id();
}

void MySQLMini::BulkUpsert(uint32_t table, uint64_t key, storage::Row row) {
  storage::Table* t = catalog_.GetTable(table);
  assert(t != nullptr);
  t->Upsert(key, std::move(row));
}

uint64_t MySQLMini::TableRowCount(uint32_t table) const {
  const storage::Table* t = catalog_.GetTable(table);
  return t == nullptr ? 0 : t->row_count();
}

std::pair<uint64_t, uint64_t> MySQLMini::NewTxnIdentity() {
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(rng_mu_);
  return {id, rng_.Next()};
}

uint64_t MySQLMini::NewRngSeed() {
  std::lock_guard<std::mutex> g(rng_mu_);
  return rng_.Next();
}

void MySQLMini::RecoverInto(const std::vector<log::RecoveredTxn>& recovered,
                            Database* target, uint64_t start_after_lsn) {
  // Records are in LSN order and carry after-images, so replay is a simple
  // idempotent sweep (shared with pgmini).
  auto* mysql = dynamic_cast<MySQLMini*>(target);
  if (mysql == nullptr) return;
  ReplayRedo(recovered, &mysql->catalog_, start_after_lsn);
}

Result<Checkpoint> MySQLMini::TakeCheckpoint() {
  // Write-ahead rule: the snapshot reflects every assigned LSN (table
  // effects precede the log append), so all of them must be durable before
  // the snapshot may be published with a covering LSN.
  const Status s = redo_log_->ForceDurable();
  if (!s.ok()) return s;
  return CaptureCheckpoint(catalog_, redo_log_->durable_lsn());
}

// ---------------------------------------------------------------------------
// MySQLSession
// ---------------------------------------------------------------------------

MySQLSession::MySQLSession(MySQLMini* db) : db_(db) {}

MySQLSession::~MySQLSession() {
  if (active_) Rollback();
  // Sessions are destroyed on their worker thread, so this drains the
  // thread-local LLU backlog those operations deferred — a quiesced run
  // ends with a zero backlog gauge.
  db_->buffer_pool_->FlushBacklog();
}

Status MySQLSession::DoBegin() {
  if (active_) return Status::InvalidArgument("transaction already open");
  auto [id, priority] = db_->NewTxnIdentity();
  txn_ = std::make_unique<lock::TxnContext>(id, priority);
  // Written once here by the owning thread; kCPVATS grant passes read it
  // while this transaction is suspended in a wait queue.
  txn_->footprint = declared_footprint();
  active_ = true;
  must_abort_ = false;
  redo_bytes_ = 0;
  undo_.clear();
  return Status::OK();
}

Status MySQLSession::EnsureActive() const {
  if (!active_) return Status::InvalidArgument("no open transaction");
  if (prepared_)
    return Status::InvalidArgument("transaction is prepared (2PC)");
  if (must_abort_)
    return Status::Aborted("transaction must roll back after an error");
  return Status::OK();
}

uint64_t MySQLSession::current_txn_id() const {
  return txn_ ? txn_->id : 0;
}

Status MySQLSession::AccessRow(uint32_t table, uint64_t key,
                               lock::LockMode mode, bool record_undo,
                               bool take_lock) {
  storage::Table* t = db_->catalog_.GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");

  // Position a cursor: index traversal cost (inherent variance).
  db_->btree_.Traverse(t->row_count());

  // Record lock (2PL). This is where a conflicting transaction suspends.
  // Nonlocking consistent reads (InnoDB-style MVCC SELECT) skip this.
  if (take_lock) {
    Status s = db_->lock_manager_->Lock(txn_.get(), {table, key}, mode);
    if (!s.ok()) {
      must_abort_ = true;
      return s;
    }
    metrics::Inc(db_->m_.lock_acquisitions);
  }

  // Touch the data page through the buffer pool (make-young / eviction
  // pressure lives here).
  Result<buffer::BufferPool::PageGuard> page =
      db_->buffer_pool_->Pin(t->PageOf(key));
  if (!page.ok()) {
    must_abort_ = true;
    return page.status();
  }

  if (record_undo) {
    Result<storage::Row> prior = t->Read(key);
    UndoEntry u;
    u.table = table;
    u.key = key;
    u.existed = prior.ok();
    if (prior.ok()) u.prior = std::move(prior.value());
    undo_.push_back(std::move(u));
    db_->buffer_pool_->MarkDirty(t->PageOf(key));
  }

  // The row-processing body.
  SpinFor(db_->config_.row_work_ns);
  return Status::OK();
}

Status MySQLSession::DoSelect(uint32_t table, uint64_t key) {
  TPROF_SCOPE("row_search_for_mysql");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  return AccessRow(table, key, lock::LockMode::kS, /*record_undo=*/false,
                   /*take_lock=*/db_->config_.locking_reads);
}

Status MySQLSession::DoSelectRange(uint32_t table, uint64_t lo, uint64_t hi) {
  TPROF_SCOPE("row_search_for_mysql");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  if (lo > hi) return Status::InvalidArgument("range lo > hi");
  storage::Table* t = db_->catalog_.GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  constexpr uint64_t kMaxSpan = 4096;
  if (hi - lo + 1 > kMaxSpan) {
    return Status::InvalidArgument("range span exceeds scan cap");
  }

  // One index descent positions the cursor; the scan then walks leaf pages.
  db_->btree_.Traverse(t->row_count());
  const uint64_t first_page = t->PageOf(lo).page_no;
  const uint64_t last_page = t->PageOf(hi).page_no;
  for (uint64_t p = first_page; p <= last_page; ++p) {
    Result<buffer::BufferPool::PageGuard> page =
        db_->buffer_pool_->Pin(buffer::PageId{table, p});
    if (!page.ok()) {
      must_abort_ = true;
      return page.status();
    }
    // Rows on this page within [lo, hi].
    const uint64_t rpp = t->rows_per_page();
    const uint64_t page_lo = std::max(lo, p * rpp);
    const uint64_t page_hi = std::min(hi, (p + 1) * rpp - 1);
    for (uint64_t k = page_lo; k <= page_hi; ++k) {
      if (!t->Exists(k)) continue;
      if (db_->config_.locking_reads) {
        Status ls = db_->lock_manager_->Lock(txn_.get(), {table, k},
                                             lock::LockMode::kS);
        if (!ls.ok()) {
          must_abort_ = true;
          return ls;
        }
        metrics::Inc(db_->m_.lock_acquisitions);
      }
      SpinFor(db_->config_.row_work_ns / 4);  // sequential rows are cheap
    }
  }
  return Status::OK();
}

Status MySQLSession::DoSelectForUpdate(uint32_t table, uint64_t key) {
  TPROF_SCOPE("row_search_for_mysql");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  return AccessRow(table, key, lock::LockMode::kX, /*record_undo=*/false);
}

Status MySQLSession::DoUpdate(uint32_t table, uint64_t key, size_t col,
                            int64_t delta) {
  TPROF_SCOPE("row_upd_step");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  s = AccessRow(table, key, lock::LockMode::kX, /*record_undo=*/true);
  if (!s.ok()) return s;
  storage::Table* t = db_->catalog_.GetTable(table);
  storage::Row after;
  s = t->Update(key, [&](storage::Row* row) {
    row->Set(col, row->Get(col) + delta);
    if (db_->config_.logical_redo) after = *row;
  });
  if (!s.ok()) {
    // Row vanished between undo capture and update: treat as NotFound but
    // keep the transaction usable (a pure read-miss is not corruption).
    undo_.pop_back();
    return s;
  }
  if (db_->config_.logical_redo) {
    redo_ops_.push_back(log::RedoOp{log::RedoOp::Kind::kPut, table, key,
                                    std::move(after)});
  }
  redo_bytes_ += db_->config_.redo_bytes_per_write;
  return Status::OK();
}

Status MySQLSession::DoInsert(uint32_t table, uint64_t key, storage::Row row) {
  TPROF_SCOPE("row_ins_clust_index_entry_low");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  s = AccessRow(table, key, lock::LockMode::kX, /*record_undo=*/true);
  if (!s.ok()) return s;
  storage::Table* t = db_->catalog_.GetTable(table);

  // Index-mutation cost, occasionally taking the split path (inherent
  // variance in the body of this function — Table 1).
  thread_local Rng t_rng(db_->NewRngSeed());
  db_->btree_.InsertCost(t->row_count(), &t_rng);

  storage::Row after;
  if (db_->config_.logical_redo) after = row;
  s = t->Insert(key, std::move(row));
  if (!s.ok()) {
    undo_.pop_back();
    return s;
  }
  if (db_->config_.logical_redo) {
    redo_ops_.push_back(log::RedoOp{log::RedoOp::Kind::kPut, table, key,
                                    std::move(after)});
  }
  redo_bytes_ += db_->config_.redo_bytes_per_write;
  return Status::OK();
}

Status MySQLSession::DoDelete(uint32_t table, uint64_t key) {
  TPROF_SCOPE("row_upd_step");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  s = AccessRow(table, key, lock::LockMode::kX, /*record_undo=*/true);
  if (!s.ok()) return s;
  storage::Table* t = db_->catalog_.GetTable(table);
  s = t->Delete(key);
  if (!s.ok()) {
    undo_.pop_back();
    return s;
  }
  if (db_->config_.logical_redo) {
    redo_ops_.push_back(
        log::RedoOp{log::RedoOp::Kind::kDelete, table, key, storage::Row{}});
  }
  redo_bytes_ += db_->config_.redo_bytes_per_write;
  return Status::OK();
}

Result<int64_t> MySQLSession::DoReadColumn(uint32_t table, uint64_t key,
                                         size_t col) {
  Status s = EnsureActive();
  if (!s.ok()) return s;
  storage::Table* t = db_->catalog_.GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  Result<storage::Row> row = t->Read(key);
  if (!row.ok()) return row.status();
  return row->Get(col);
}

MySQLSession::DecisionSection MySQLSession::PrepareCommitAsync(
    uint64_t gtid, uint32_t coord_shard, AckFn ack) {
  TPROF_SCOPE("trx_commit");
  DecisionSection section;
  if (!active_ || prepared_ || must_abort_) {
    ack(Status::InvalidArgument("no committable transaction to prepare"));
    return section;
  }
  coord_shard_ = coord_shard;
  prepared_ = true;  // Locks held, undo retained, until CommitPrepared.
  if (redo_bytes_ == 0) {
    // Read-only participant: nothing to redo, so no frame — recovery has
    // nothing to decide for this shard.
    no_commit_frame_ = true;
    ack(Status::OK());
    return section;
  }
  section.bytes = redo_bytes_;
  section.redo = redo_ops_;
  const uint64_t bytes = redo_bytes_ + k2PCControlFrameBytes;
  redo_bytes_ = 0;  // Consumed by the prepare frame.
  section.lsn = db_->AppendAsync(
      gtid, bytes,
      RedoBehind(log::RedoOp::Kind::k2PCPrepare, coord_shard, gtid),
      std::move(ack));
  return section;
}

void MySQLSession::DecideAsync(uint64_t gtid, uint32_t coord_shard,
                               std::vector<DecisionSection> sections,
                               AckFn ack) {
  TPROF_SCOPE("trx_commit");
  if (!active_ || prepared_ || must_abort_) {
    ack(Status::InvalidArgument("no committable transaction to decide"));
    return;
  }
  uint64_t bytes = redo_bytes_ + k2PCControlFrameBytes;
  std::vector<log::RedoOp> ops =
      RedoBehind(log::RedoOp::Kind::k2PCDecide, coord_shard, gtid);
  for (DecisionSection& section : sections) {
    bytes += section.bytes;
    ops.push_back(log::RedoOp{log::RedoOp::Kind::k2PCSection, section.shard,
                              section.lsn, storage::Row{}});
    for (log::RedoOp& op : section.redo) ops.push_back(std::move(op));
  }
  prepared_ = true;
  no_commit_frame_ = true;
  db_->AppendAsync(gtid, bytes, std::move(ops), std::move(ack));
}

std::vector<log::RedoOp> MySQLSession::RedoBehind(log::RedoOp::Kind marker,
                                                  uint32_t coord_shard,
                                                  uint64_t gtid) {
  std::vector<log::RedoOp> ops;
  ops.reserve(redo_ops_.size() + 1);
  ops.push_back(log::RedoOp{marker, coord_shard, gtid, storage::Row{}});
  for (log::RedoOp& op : redo_ops_) ops.push_back(std::move(op));
  redo_ops_.clear();
  return ops;
}

void MySQLSession::CommitPrepared(uint64_t gtid, bool log_commit_frame) {
  TPROF_SCOPE("trx_commit");
  if (!prepared_) return;
  if (!no_commit_frame_ && log_commit_frame) {
    // Unforced: the coordinator's decision frame is already durable, so this
    // shard's outcome is settled; the local COMMIT frame only spares future
    // recoveries the cross-shard decision lookup.
    std::vector<log::RedoOp> ops;
    ops.push_back(log::RedoOp{log::RedoOp::Kind::k2PCCommit, coord_shard_,
                              gtid, storage::Row{}});
    db_->AppendUnforced(gtid, k2PCControlFrameBytes, std::move(ops));
  }
  ReleaseAndReset();
}

Status MySQLSession::DoCommit() {
  TPROF_SCOPE("trx_commit");
  if (!active_) return Status::InvalidArgument("no open transaction");
  if (prepared_)
    return Status::InvalidArgument("prepared transaction: use CommitPrepared");
  if (must_abort_) {
    Rollback();
    return Status::Aborted("transaction had failed; rolled back");
  }
  // Make the commit durable per the configured policy, then release locks
  // (strict 2PL: locks are held until the commit point completes).
  if (redo_bytes_ > 0) {
    metrics::Inc(db_->m_.redo_bytes, redo_bytes_);
    if (db_->quorum_log_ != nullptr) {
      Status durable;
      db_->quorum_log_->Commit(txn_->id, redo_bytes_, std::move(redo_ops_),
                               &durable);
      if (!durable.ok()) {
        // Quorum unreachable / failover / stop raced the commit: the frame
        // is appended but not quorum-durable, so the outcome is unknown to
        // the client. Surface the (retryable, for Unavailable) status after
        // releasing locks — never claim an un-quorumed commit succeeded.
        ReleaseAndReset();
        return durable;
      }
    } else {
      db_->redo_log_->Commit(txn_->id, redo_bytes_, std::move(redo_ops_));
    }
  }
  ReleaseAndReset();
  return Status::OK();
}

Status MySQLSession::DoCommitAsync(CommitAckFn ack) {
  TPROF_SCOPE("trx_commit");
  if (!active_) return Status::InvalidArgument("no open transaction");
  if (prepared_)
    return Status::InvalidArgument("prepared transaction: use CommitPrepared");
  if (must_abort_) {
    Rollback();
    return Status::Aborted("transaction had failed; rolled back");
  }
  if (redo_bytes_ > 0) {
    // Early lock release: the commit record is appended (LSN assigned in
    // commit order under the log mutex) before locks drop, and the epoch
    // only acks durable prefixes — so no transaction can ack durable while
    // one it read from is still pending. The ack carries durability.
    db_->AppendAsync(txn_->id, redo_bytes_, std::move(redo_ops_),
                     std::move(ack));
    ReleaseAndReset();
    return Status::OK();
  }
  // Read-only (or redo-free) transaction: nothing to make durable.
  ReleaseAndReset();
  ack(Status::OK());
  return Status::OK();
}

void MySQLSession::DoRollback() {
  if (!active_) return;
  // Undo in reverse order; X locks are still held so this is safe.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    storage::Table* t = db_->catalog_.GetTable(it->table);
    if (t == nullptr) continue;
    if (it->existed) {
      t->Upsert(it->key, it->prior);
    } else {
      (void)t->Delete(it->key);
    }
  }
  ReleaseAndReset();
}

void MySQLSession::ReleaseAndReset() {
  db_->lock_manager_->ReleaseAll(txn_.get());
  active_ = false;
  must_abort_ = false;
  prepared_ = false;
  no_commit_frame_ = false;
  coord_shard_ = 0;
  redo_bytes_ = 0;
  undo_.clear();
  redo_ops_.clear();
}

}  // namespace tdp::engine
