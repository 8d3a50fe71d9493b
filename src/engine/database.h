// Engine-neutral transactional interface.
//
// The workload generators (TPC-C, SEATS, TATP, Epinions, YCSB) issue
// transactions through this interface so the same benchmark runs unchanged
// against mysqlmini and pgmini. Semantics: strict 2PL with Select taking
// shared locks, SelectForUpdate/Update/Insert/Delete taking exclusive locks;
// any operation may return Deadlock or LockTimeout, after which the caller
// must Rollback (RunTxn in engine/txn.h owns that loop for most callers).
//
// The public operations are non-virtual wrappers (NVI) around the engines'
// Do* hooks so that cross-cutting contracts live in exactly one place:
//  * last_error() — every failing operation records its Status here, so
//    generic callers (RunTxn, the server worker pool) can inspect why a
//    transaction died after the fact without engine-specific casing.
//  * Rollback() is idempotent in every engine: with no open transaction it
//    is a no-op, so unconditional cleanup paths need no "is it open" state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include <utility>
#include <vector>

#include "common/durable_acks.h"
#include "common/status.h"
#include "storage/table.h"

namespace tdp::sched {
class ConflictPredictor;
}  // namespace tdp::sched

namespace tdp::engine {

class Connection {
 public:
  virtual ~Connection() = default;

  /// Opens a transaction (clears last_error()).
  Status Begin() {
    last_error_ = Status::OK();
    return Note(DoBegin());
  }

  /// Shared-mode point read.
  Status Select(uint32_t table, uint64_t key) {
    return Note(DoSelect(table, key));
  }
  /// Range read over [lo, hi] (inclusive). Nonlocking by default, like
  /// Select; engines cap the span to keep scans bounded.
  Status SelectRange(uint32_t table, uint64_t lo, uint64_t hi) {
    return Note(DoSelectRange(table, lo, hi));
  }
  /// Exclusive-mode point read (SELECT ... FOR UPDATE).
  Status SelectForUpdate(uint32_t table, uint64_t key) {
    return Note(DoSelectForUpdate(table, key));
  }
  /// Adds `delta` to column `col` of the row (exclusive lock).
  Status Update(uint32_t table, uint64_t key, size_t col, int64_t delta) {
    return Note(DoUpdate(table, key, col, delta));
  }
  /// Inserts a new row (exclusive lock on the new key).
  Status Insert(uint32_t table, uint64_t key, storage::Row row) {
    return Note(DoInsert(table, key, std::move(row)));
  }
  Status Delete(uint32_t table, uint64_t key) {
    return Note(DoDelete(table, key));
  }

  Status Commit() { return Note(DoCommit()); }

  /// Durability acknowledgement for CommitAsync. See the contract there.
  using CommitAckFn = tdp::AckFn;

  /// Asynchronous commit (docs/group_commit.md): the transaction commits
  /// logically — locks released, session reset — and the call returns as
  /// soon as its redo is in the log buffer; `ack` fires exactly once, off
  /// this thread, when the commit's durability is decided (OK iff its log
  /// record reached the device). Contract: a non-OK *return* means the
  /// commit failed before logical commit and `ack` will never fire; an OK
  /// return means `ack` fires exactly once (engines without an epoch
  /// thread fall back to a synchronous commit and fire it inline).
  /// Early lock release is sound here because log records are ordered by
  /// commit order and acks fire only for durable prefixes.
  Status CommitAsync(CommitAckFn ack) {
    return Note(DoCommitAsync(std::move(ack)));
  }

  /// Aborts the open transaction. Idempotent: calling with no open
  /// transaction (never begun, already committed, or already rolled back)
  /// is a no-op in every engine.
  void Rollback() { DoRollback(); }

  /// Value of column `col` as read under the current transaction's lock.
  /// Valid after a successful Select/SelectForUpdate of that key.
  Result<int64_t> ReadColumn(uint32_t table, uint64_t key, size_t col) {
    Result<int64_t> r = DoReadColumn(table, key, col);
    Note(r.status());
    return r;
  }

  /// The most recent non-OK Status any operation on this connection
  /// returned since the last Begin() (which clears it). OK when the current
  /// transaction has seen no failure. Survives Rollback so callers can
  /// still see why the transaction died.
  const Status& last_error() const { return last_error_; }

  /// Engine transaction id of the currently open (or last) transaction;
  /// 0 when unknown. Used by the age/remaining-time study.
  virtual uint64_t current_txn_id() const { return 0; }

  /// Declares the key footprint (sched::ConflictPredictor fingerprints of
  /// the records the next transactions expect to write) for this
  /// connection. Engines that support conflict-predictive lock scheduling
  /// (kCPVATS, docs/scheduling.md) copy it into each transaction's context
  /// at Begin; others ignore it. Sticky until redeclared.
  void DeclareFootprint(std::vector<uint64_t> footprint) {
    declared_footprint_ = std::move(footprint);
  }

 protected:
  virtual Status DoBegin() = 0;
  virtual Status DoSelect(uint32_t table, uint64_t key) = 0;
  virtual Status DoSelectRange(uint32_t table, uint64_t lo, uint64_t hi) = 0;
  virtual Status DoSelectForUpdate(uint32_t table, uint64_t key) = 0;
  virtual Status DoUpdate(uint32_t table, uint64_t key, size_t col,
                          int64_t delta) = 0;
  virtual Status DoInsert(uint32_t table, uint64_t key, storage::Row row) = 0;
  virtual Status DoDelete(uint32_t table, uint64_t key) = 0;
  virtual Status DoCommit() = 0;
  /// Default: synchronous commit with an inline ack on success — correct
  /// for engines with no async log path, and the exactly-once ack contract
  /// holds unchanged.
  virtual Status DoCommitAsync(CommitAckFn ack) {
    Status s = DoCommit();
    if (s.ok()) ack(s);
    return s;
  }
  virtual void DoRollback() = 0;
  virtual Result<int64_t> DoReadColumn(uint32_t table, uint64_t key,
                                       size_t col) = 0;

  /// The footprint most recently passed to DeclareFootprint (possibly
  /// empty). Engines read it in DoBegin.
  const std::vector<uint64_t>& declared_footprint() const {
    return declared_footprint_;
  }

 private:
  Status Note(Status s) {
    if (!s.ok()) last_error_ = s;
    return s;
  }

  Status last_error_;
  std::vector<uint64_t> declared_footprint_;
};

class Database {
 public:
  virtual ~Database() = default;

  virtual std::string name() const = 0;

  virtual std::unique_ptr<Connection> Connect() = 0;

  /// Creates (or returns) a table; the returned id is what Connection
  /// operations take.
  virtual uint32_t CreateTable(const std::string& name,
                               uint64_t rows_per_page) = 0;
  virtual uint32_t TableId(const std::string& name) const = 0;

  /// Loads rows without locking or logging (benchmark setup only).
  virtual void BulkUpsert(uint32_t table, uint64_t key, storage::Row row) = 0;

  virtual uint64_t TableRowCount(uint32_t table) const = 0;

  /// The engine's online conflict predictor when it runs one (mysqlmini
  /// with enable_predictor or kCPVATS), else null. The server layer uses it
  /// for kConflictAware admission steering so both decision points share one
  /// model (docs/scheduling.md).
  virtual sched::ConflictPredictor* conflict_predictor() { return nullptr; }
};

}  // namespace tdp::engine
