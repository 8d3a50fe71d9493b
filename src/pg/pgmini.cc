#include "pg/pgmini.h"

#include <cassert>

#include "common/work.h"
#include "tprofiler/profiler.h"

namespace tdp::pg {

PgMini::PgMini(PgMiniConfig config)
    : config_(config), rng_(config.seed * 0xD1B54A32D192ED03ull + 1) {
  lock_manager_ = std::make_unique<lock::LockManager>(config_.lock);
  wal_ = std::make_unique<WalManager>(config_.wal);
  wal_->Start();  // spawns the epoch writers when wal.async_commit is set
  btree_ = storage::BTreeModel(config_.btree);
  m_.lock_acquisitions =
      metrics::Registry::Global().GetCounter("pg.lock_acquisitions");
}

std::unique_ptr<engine::Connection> PgMini::Connect() {
  return std::make_unique<PgSession>(this);
}

uint32_t PgMini::CreateTable(const std::string& name, uint64_t rows_per_page) {
  return catalog_
      .CreateTable(name,
                   rows_per_page == 0 ? config_.rows_per_page : rows_per_page)
      ->id();
}

uint32_t PgMini::TableId(const std::string& name) const {
  const storage::Table* t = catalog_.GetTable(name);
  assert(t != nullptr && "unknown table");
  return t->id();
}

void PgMini::BulkUpsert(uint32_t table, uint64_t key, storage::Row row) {
  storage::Table* t = catalog_.GetTable(table);
  assert(t != nullptr);
  t->Upsert(key, std::move(row));
}

uint64_t PgMini::TableRowCount(uint32_t table) const {
  const storage::Table* t = catalog_.GetTable(table);
  return t == nullptr ? 0 : t->row_count();
}

std::pair<uint64_t, uint64_t> PgMini::NewTxnIdentity() {
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(rng_mu_);
  return {id, rng_.Next()};
}

void PgMini::RecoverInto(const std::vector<log::RecoveredTxn>& recovered,
                         Database* target, uint64_t start_after_lsn) {
  auto* pg = dynamic_cast<PgMini*>(target);
  if (pg == nullptr) return;
  engine::ReplayRedo(recovered, &pg->catalog_, start_after_lsn);
}

Result<engine::Checkpoint> PgMini::TakeCheckpoint() {
  // Write-ahead rule: every assigned LSN is in the snapshot, so every set
  // must be barriered durable before the snapshot may claim to cover
  // last_lsn().
  const Status s = wal_->ForceDurable();
  if (!s.ok()) return s;
  return engine::CaptureCheckpoint(catalog_, wal_->last_lsn());
}

// ---------------------------------------------------------------------------
// PgSession
// ---------------------------------------------------------------------------

PgSession::PgSession(PgMini* db) : db_(db) {}

PgSession::~PgSession() {
  if (active_) Rollback();
}

Status PgSession::DoBegin() {
  if (active_) return Status::InvalidArgument("transaction already open");
  auto [id, priority] = db_->NewTxnIdentity();
  txn_ = std::make_unique<lock::TxnContext>(id, priority);
  // pgmini runs no predictor, so kCPVATS degrades to VATS here; the copy
  // keeps footprints flowing for anyone who installs a scorer manually.
  txn_->footprint = declared_footprint();
  active_ = true;
  must_abort_ = false;
  wal_bytes_ = 0;
  predicate_locks_ = 0;
  undo_.clear();
  redo_ops_.clear();
  return Status::OK();
}

Status PgSession::EnsureActive() const {
  if (!active_) return Status::InvalidArgument("no open transaction");
  if (must_abort_)
    return Status::Aborted("transaction must roll back after an error");
  return Status::OK();
}

uint64_t PgSession::current_txn_id() const { return txn_ ? txn_->id : 0; }

Status PgSession::AccessRow(uint32_t table, uint64_t key, lock::LockMode mode,
                            bool record_undo, bool take_lock) {
  storage::Table* t = db_->catalog_.GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  db_->btree_.Traverse(t->row_count());
  // Plain reads are MVCC snapshot reads in Postgres: no row lock, only a
  // SIREAD predicate lock (accounted by the caller).
  if (take_lock) {
    Status s = db_->lock_manager_->Lock(txn_.get(), {table, key}, mode);
    if (!s.ok()) {
      must_abort_ = true;
      return s;
    }
    metrics::Inc(db_->m_.lock_acquisitions);
  }
  if (record_undo) {
    Result<storage::Row> prior = t->Read(key);
    UndoEntry u;
    u.table = table;
    u.key = key;
    u.existed = prior.ok();
    if (prior.ok()) u.prior = std::move(prior.value());
    undo_.push_back(std::move(u));
  }
  SpinFor(db_->config_.row_work_ns);
  return Status::OK();
}

Status PgSession::DoSelect(uint32_t table, uint64_t key) {
  TPROF_SCOPE("ExecSelect");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  // Serializable reads take a predicate (SIREAD) lock on the accessed range.
  ++predicate_locks_;
  return AccessRow(table, key, lock::LockMode::kS, /*record_undo=*/false,
                   /*take_lock=*/false);
}

Status PgSession::DoSelectRange(uint32_t table, uint64_t lo, uint64_t hi) {
  TPROF_SCOPE("ExecSelect");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  if (lo > hi) return Status::InvalidArgument("range lo > hi");
  storage::Table* t = db_->catalog_.GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  constexpr uint64_t kMaxSpan = 4096;
  if (hi - lo + 1 > kMaxSpan) {
    return Status::InvalidArgument("range span exceeds scan cap");
  }
  // A serializable range read takes ONE predicate lock covering the range
  // (that is the point of predicate locking), then reads the rows.
  ++predicate_locks_;
  db_->btree_.Traverse(t->row_count());
  for (uint64_t k = lo; k <= hi; ++k) {
    if (t->Exists(k)) SpinFor(db_->config_.row_work_ns / 4);
  }
  return Status::OK();
}

Status PgSession::DoSelectForUpdate(uint32_t table, uint64_t key) {
  TPROF_SCOPE("ExecSelect");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  ++predicate_locks_;
  return AccessRow(table, key, lock::LockMode::kX, /*record_undo=*/false);
}

Status PgSession::DoUpdate(uint32_t table, uint64_t key, size_t col,
                         int64_t delta) {
  TPROF_SCOPE("heap_update");
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
    undo_.pop_back();
    return s;
  }
  if (db_->config_.logical_redo) {
    redo_ops_.push_back(log::RedoOp{log::RedoOp::Kind::kPut, table, key,
                                    std::move(after)});
  }
  wal_bytes_ += db_->config_.wal_bytes_per_write;
  return Status::OK();
}

Status PgSession::DoInsert(uint32_t table, uint64_t key, storage::Row row) {
  TPROF_SCOPE("heap_insert");
  Status s = EnsureActive();
  if (!s.ok()) return s;
  s = AccessRow(table, key, lock::LockMode::kX, /*record_undo=*/true);
  if (!s.ok()) return s;
  storage::Table* t = db_->catalog_.GetTable(table);
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
  wal_bytes_ += db_->config_.wal_bytes_per_write;
  return Status::OK();
}

Status PgSession::DoDelete(uint32_t table, uint64_t key) {
  TPROF_SCOPE("heap_delete");
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
  wal_bytes_ += db_->config_.wal_bytes_per_write;
  return Status::OK();
}

Result<int64_t> PgSession::DoReadColumn(uint32_t table, uint64_t key,
                                      size_t col) {
  Status s = EnsureActive();
  if (!s.ok()) return s;
  storage::Table* t = db_->catalog_.GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("unknown table");
  Result<storage::Row> row = t->Read(key);
  if (!row.ok()) return row.status();
  return row->Get(col);
}

void PgSession::ReleasePredicateLocks() {
  TPROF_SCOPE("ReleasePredicateLocks");
  // Cost scales with the number of predicate locks held and the conflicts
  // discovered while releasing them (inherent variance; Table 2's 6%).
  SpinFor(static_cast<int64_t>(predicate_locks_) *
          db_->config_.predicate_check_ns);
  predicate_locks_ = 0;
}

Status PgSession::DoCommit() {
  TPROF_SCOPE("CommitTransaction");
  if (!active_) return Status::InvalidArgument("no open transaction");
  if (must_abort_) {
    Rollback();
    return Status::Aborted("transaction had failed; rolled back");
  }
  if (wal_bytes_ > 0) {
    // A degraded flush (device stalled or erroring past its retry budget)
    // still commits, just without synchronous durability — the same promise
    // synchronous_commit=off makes. WalManager counts degraded_commits.
    Status ws = db_->config_.logical_redo
                    ? db_->wal_->CommitFlush(txn_->id, wal_bytes_, redo_ops_)
                    : db_->wal_->CommitFlush(wal_bytes_);
    (void)ws;
  }
  ReleasePredicateLocks();
  ReleaseAndReset();
  return Status::OK();
}

Status PgSession::DoCommitAsync(CommitAckFn ack) {
  TPROF_SCOPE("CommitTransaction");
  if (!active_) return Status::InvalidArgument("no open transaction");
  if (must_abort_) {
    Rollback();
    return Status::Aborted("transaction had failed; rolled back");
  }
  if (wal_bytes_ > 0) {
    // XLogInsert happens before locks drop, and the commit takes its
    // commit sequence number there, so a commit that read from this one
    // gets a higher number. An ack fires OK only once every lower number,
    // on every log set, is durable: the two sets' epoch writers finish
    // rounds in any order, yet early lock release cannot produce an
    // acked-but-lost dependency.
    static const std::vector<log::RedoOp> kNoOps;
    const std::vector<log::RedoOp>& ops =
        db_->config_.logical_redo ? redo_ops_ : kNoOps;
    // The ack carries the durability outcome.
    db_->wal_->CommitFlushAsync(txn_->id, wal_bytes_, ops, std::move(ack));
  } else {
    ack(Status::OK());  // nothing to make durable
  }
  ReleasePredicateLocks();
  ReleaseAndReset();
  return Status::OK();
}

void PgSession::DoRollback() {
  if (!active_) return;
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    storage::Table* t = db_->catalog_.GetTable(it->table);
    if (t == nullptr) continue;
    if (it->existed) {
      t->Upsert(it->key, it->prior);
    } else {
      (void)t->Delete(it->key);
    }
  }
  predicate_locks_ = 0;
  ReleaseAndReset();
}

void PgSession::ReleaseAndReset() {
  db_->lock_manager_->ReleaseAll(txn_.get());
  active_ = false;
  must_abort_ = false;
  wal_bytes_ = 0;
  undo_.clear();
  redo_ops_.clear();
}

}  // namespace tdp::pg
