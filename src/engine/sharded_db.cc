#include "engine/sharded_db.h"

#include <atomic>
#include <bit>
#include <cassert>

#include "common/crash_point.h"
#include "common/durable_acks.h"
#include "tprofiler/profiler.h"

namespace tdp::engine {

// ---------------------------------------------------------------------------
// ShardedDatabase
// ---------------------------------------------------------------------------

ShardedDatabase::ShardedDatabase(ShardedDatabaseConfig config)
    : config_(config), router_(config.num_shards) {
  const int n = router_.num_shards();
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    MySQLMiniConfig c = config_.shard;
    // Independent streams per shard: distinct engine RNG seeds and device
    // jitter, so shard 0's tail is not every shard's tail.
    const uint64_t stride = 0x9E37u * static_cast<uint64_t>(i);
    c.seed = config_.shard.seed + stride;
    c.data_disk.seed += 131 * static_cast<uint64_t>(i);
    c.log_disk.seed += 131 * static_cast<uint64_t>(i);
    c.repl_disk.seed += 131 * static_cast<uint64_t>(i);
    shards_.push_back(std::make_unique<MySQLMini>(c));
  }

  auto& reg = metrics::Registry::Global();
  m_.single_shard_txns = reg.GetCounter("shard.single_shard_txns");
  m_.cross_shard_txns = reg.GetCounter("shard.cross_shard_txns");
  m_.coordinated = reg.GetCounter("2pc.coordinated");
  m_.prepared = reg.GetCounter("2pc.prepared");
  m_.aborted_presumed = reg.GetCounter("2pc.aborted_presumed");
  m_.decisions = reg.GetCounter("2pc.decisions");
  m_.participant_commits = reg.GetCounter("2pc.participant_commits");
}

std::unique_ptr<Connection> ShardedDatabase::Connect() {
  return std::make_unique<ShardedConnection>(this);
}

uint32_t ShardedDatabase::CreateTable(const std::string& name,
                                      uint64_t rows_per_page) {
  const uint32_t id = shards_[0]->CreateTable(name, rows_per_page);
  for (size_t i = 1; i < shards_.size(); ++i) {
    const uint32_t other = shards_[i]->CreateTable(name, rows_per_page);
    assert(other == id && "shards must share one schema (same create order)");
    (void)other;
  }
  return id;
}

uint32_t ShardedDatabase::TableId(const std::string& name) const {
  return shards_[0]->TableId(name);
}

void ShardedDatabase::BulkUpsert(uint32_t table, uint64_t key,
                                 storage::Row row) {
  shards_[router_.ShardOf(table, key)]->BulkUpsert(table, key,
                                                   std::move(row));
}

uint64_t ShardedDatabase::TableRowCount(uint32_t table) const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->TableRowCount(table);
  return total;
}

// ---------------------------------------------------------------------------
// ShardedConnection
// ---------------------------------------------------------------------------

ShardedConnection::ShardedConnection(ShardedDatabase* db)
    : db_(db),
      sessions_(static_cast<size_t>(db->num_shards())) {}

Status ShardedConnection::DoBegin() {
  if (active_) return Status::InvalidArgument("transaction already open");
  gtid_ = db_->NextGtid();
  begun_mask_ = 0;
  active_ = true;
  return Status::OK();
}

MySQLSession* ShardedConnection::SessionForShard(uint32_t shard,
                                                 Status* status) {
  auto& slot = sessions_[shard];
  if (slot == nullptr) slot = db_->shards_[shard]->ConnectSession();
  MySQLSession* s = slot.get();
  const uint64_t bit = uint64_t{1} << shard;
  if ((begun_mask_ & bit) == 0) {
    // First touch: open the sub-transaction, forwarding the slice of the
    // declared footprint this shard owns (feeds its kCPVATS scheduler).
    std::vector<uint64_t> fp;
    for (uint64_t f : declared_footprint()) {
      if (db_->router_.ShardOfFingerprint(f) == shard) fp.push_back(f);
    }
    s->DeclareFootprint(std::move(fp));
    const Status bs = s->Begin();
    if (!bs.ok()) {
      *status = bs;
      return nullptr;
    }
    begun_mask_ |= bit;
  }
  return s;
}

MySQLSession* ShardedConnection::SessionFor(uint32_t table, uint64_t key,
                                            Status* status) {
  return SessionForShard(db_->router_.ShardOf(table, key), status);
}

Status ShardedConnection::DoSelect(uint32_t table, uint64_t key) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  Status s;
  MySQLSession* sess = SessionFor(table, key, &s);
  return sess == nullptr ? s : sess->Select(table, key);
}

Status ShardedConnection::DoSelectRange(uint32_t table, uint64_t lo,
                                        uint64_t hi) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  // Hash partitioning scatters key ranges, so a range scan visits every
  // shard; each skips the keys it does not hold.
  for (int i = 0; i < db_->num_shards(); ++i) {
    Status s;
    MySQLSession* sess = SessionForShard(static_cast<uint32_t>(i), &s);
    if (sess == nullptr) return s;
    const Status rs = sess->SelectRange(table, lo, hi);
    if (!rs.ok()) return rs;
  }
  return Status::OK();
}

Status ShardedConnection::DoSelectForUpdate(uint32_t table, uint64_t key) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  Status s;
  MySQLSession* sess = SessionFor(table, key, &s);
  return sess == nullptr ? s : sess->SelectForUpdate(table, key);
}

Status ShardedConnection::DoUpdate(uint32_t table, uint64_t key, size_t col,
                                   int64_t delta) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  Status s;
  MySQLSession* sess = SessionFor(table, key, &s);
  return sess == nullptr ? s : sess->Update(table, key, col, delta);
}

Status ShardedConnection::DoInsert(uint32_t table, uint64_t key,
                                   storage::Row row) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  Status s;
  MySQLSession* sess = SessionFor(table, key, &s);
  return sess == nullptr ? s : sess->Insert(table, key, std::move(row));
}

Status ShardedConnection::DoDelete(uint32_t table, uint64_t key) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  Status s;
  MySQLSession* sess = SessionFor(table, key, &s);
  return sess == nullptr ? s : sess->Delete(table, key);
}

Result<int64_t> ShardedConnection::DoReadColumn(uint32_t table, uint64_t key,
                                                size_t col) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  Status s;
  MySQLSession* sess = SessionFor(table, key, &s);
  if (sess == nullptr) return s;
  return sess->ReadColumn(table, key, col);
}

Status ShardedConnection::DoCommit() { return CommitRouted(nullptr); }

Status ShardedConnection::DoCommitAsync(CommitAckFn ack) {
  return CommitRouted(&ack);
}

Status ShardedConnection::CommitRouted(CommitAckFn* ack) {
  if (!active_) return Status::InvalidArgument("no open transaction");
  if (begun_mask_ == 0) {
    ResetTxn();
    if (ack != nullptr) (*ack)(Status::OK());
    return Status::OK();
  }
  const bool cross = std::popcount(begun_mask_) > 1;
  metrics::Inc(cross ? db_->m_.cross_shard_txns : db_->m_.single_shard_txns);
  uint64_t writer_mask = 0;
  bool doomed = false;
  for (uint64_t m = begun_mask_; m != 0; m &= m - 1) {
    const uint32_t i = std::countr_zero(m);
    doomed |= sessions_[i]->must_abort();
    if (!sessions_[i]->read_only()) writer_mask |= uint64_t{1} << i;
  }
  if (cross && doomed) {
    // A sub-transaction that failed an operation dooms the whole
    // transaction: roll back everywhere before any frame is written. With
    // two or more writers that abandons a 2PC round before it starts.
    if (std::popcount(writer_mask) > 1) {
      metrics::Inc(db_->m_.coordinated);
      metrics::Inc(db_->m_.aborted_presumed);
    }
    DoRollback();
    return Status::Aborted("transaction had failed; rolled back");
  }
  if (std::popcount(writer_mask) > 1) {
    // 2PC is synchronous — its one round of forces is the latency floor
    // anyway — so an async caller is acked inline per the base contract.
    const Status s = CommitCrossShard(writer_mask);
    if (s.ok() && ack != nullptr) (*ack)(s);
    return s;
  }
  // At most one writer: that shard's own commit — locks, group commit,
  // epoch ack, quorum ack, exactly as an unsharded engine — is the whole
  // protocol (one-phase commit, no 2PC frames). Read-only sub-sessions
  // release frame-free once it is done.
  const uint32_t owner =
      std::countr_zero(writer_mask != 0 ? writer_mask : begun_mask_);
  const Status s = ack != nullptr
                       ? sessions_[owner]->CommitAsync(std::move(*ack))
                       : sessions_[owner]->Commit();
  for (uint64_t m = begun_mask_ & ~(uint64_t{1} << owner); m != 0;
       m &= m - 1) {
    (void)sessions_[std::countr_zero(m)]->Commit();  // redo-free: logs nothing
  }
  ResetTxn();
  return s;
}

Status ShardedConnection::CommitCrossShard(uint64_t writer_mask) {
  metrics::Inc(db_->m_.coordinated);
  const uint32_t coord = std::countr_zero(writer_mask);
  const uint64_t others = begun_mask_ & ~(uint64_t{1} << coord);

  // --- One round: every PREPARE, then at once the DECISION ----------------
  // Each frame rides its shard's async append path, so the flushes (and
  // quorum acks) overlap and the round costs the slowest one, not a sum.
  // The coordinator writes no PREPARE: its redo rides in the decision,
  // with a copy of every participant's, so the durable decision alone is
  // the commit point and no vote is awaited before it is issued.
  TDP_CRASH_POINT("2pc.pre_prepare");
  AckLatch round;
  std::atomic<int> prepares_in_flight{0};
  std::vector<MySQLSession::DecisionSection> sections;
  for (uint64_t m = others; m != 0; m &= m - 1) {
    const uint32_t i = std::countr_zero(m);
    prepares_in_flight.fetch_add(1, std::memory_order_relaxed);
    MySQLSession::DecisionSection section = sessions_[i]->PrepareCommitAsync(
        gtid_, coord,
        [&prepares_in_flight, done = round.Expect()](const Status& s) {
          prepares_in_flight.fetch_sub(1, std::memory_order_acq_rel);
          done(s);
        });
    if (section.lsn != 0) {
      section.shard = i;
      sections.push_back(std::move(section));
    }
  }
  // Recovery may replay a section in place of a PREPARE frame its shard's
  // log lost; that is sound because each frame above was appended before
  // any of this transaction's locks are released (docs/sharding.md).
  TDP_CRASH_POINT("2pc.pre_decide");
  metrics::Inc(db_->m_.prepared);
  Status decided;
  sessions_[coord]->DecideAsync(
      gtid_, coord, std::move(sections),
      [&decided, &prepares_in_flight, done = round.Expect()](const Status& s) {
        if (s.ok() &&
            prepares_in_flight.load(std::memory_order_acquire) > 0) {
          // Committed while a PREPARE is still in flight: recovery must be
          // able to rebuild that shard from the decision's section.
          TDP_CRASH_POINT("2pc.decided");
        }
        decided = s;
        done(s);
      });
  // A participant's ack cannot veto a durable decision, so only the
  // decision's status counts; the wait still covers every frame. It is
  // the commit's device wait, so the profiler charges it to trx_commit.
  {
    TPROF_SCOPE("trx_commit");
    (void)round.Wait();
  }
  if (!decided.ok()) {
    // Ambiguous: the decision frame is in the coordinator's append stream
    // but its durability could not be confirmed. Never roll back (a crash
    // may yet surface a durable decision) and never log participant COMMIT
    // frames (a durable one would commit this shard at recovery while
    // siblings presume abort). Release locks, keep the in-memory effects —
    // the same contract as a single-node quorum-loss commit — and surface
    // the retryable/unknown status to the client.
    for (uint64_t m = begun_mask_; m != 0; m &= m - 1) {
      sessions_[std::countr_zero(m)]->CommitPrepared(gtid_,
                                              /*log_commit_frame=*/false);
    }
    ResetTxn();
    return decided;
  }
  metrics::Inc(db_->m_.decisions);

  // --- After the round: participant commits (the decision proves them) ----
  TDP_CRASH_POINT("2pc.pre_ack");
  for (uint64_t m = begun_mask_; m != 0; m &= m - 1) {
    sessions_[std::countr_zero(m)]->CommitPrepared(gtid_);
  }
  metrics::Inc(db_->m_.participant_commits,
               static_cast<uint64_t>(std::popcount(writer_mask) - 1));
  ResetTxn();
  return Status::OK();
}

void ShardedConnection::DoRollback() {
  if (!active_) return;
  for (uint64_t m = begun_mask_; m != 0; m &= m - 1) {
    sessions_[std::countr_zero(m)]->Rollback();
  }
  ResetTxn();
}

void ShardedConnection::ResetTxn() {
  active_ = false;
  begun_mask_ = 0;
}

}  // namespace tdp::engine
