// tdp_crashtest: deterministic crash fuzzer for the recovery, replication
// and cross-shard 2PC stacks (docs/recovery.md).
//
// One harness runs every seed through the same four stages:
//
//   1. Plan: every decision derives from the seed's Rng (a Make*Plan per
//      mode), including the crash point or failure arm.
//   2. Workload: a single-threaded run of small insert/update/delete
//      transactions drawn against a shadow model of the schema, with a
//      checkpoint every few commits on some seeds. The mode's commit-outcome
//      contract maps each commit's status to acked, committed-unacked,
//      undecided or dropped. An async commit counts as acked only once its
//      ack fires OK, and every ack must fire exactly once.
//   3. Reboot: cut the durable log image(s), optionally with a torn tail,
//      and replay them into a fresh engine.
//   4. Oracle: the recovered state equals the shadow after some prefix of
//      the ledger (never a mixture, never garbage), and that prefix covers
//      every acked transaction. Then the mode's own checks run.
//
// A mode (recovery, replica-kill, coordinator-crash; each described in its
// section below) supplies only what differs: its plan, engine build and
// failure arms, its contract, its image cut and replay, and its own checks.
//
// Every decision derives from the seed, so a failing seed replays exactly:
//   tdp_crashtest --mode=<mode> --seed-start=<seed> --seed-count=1 --verbose
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/crash_point.h"
#include "common/fault.h"
#include "common/ledger.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/mysqlmini.h"
#include "engine/recovery.h"
#include "engine/sharded_db.h"
#include "log/log_codec.h"
#include "pg/pgmini.h"
#include "repl/quorum_log.h"

namespace tdp {
namespace {

constexpr uint32_t kTables = 2;
constexpr uint64_t kKeySpace = 24;
constexpr int kMaxTxns = 48;

// One table's contents: key -> columns.
using TableState = std::map<uint64_t, std::vector<int64_t>>;
using DbState = std::vector<TableState>;  // index == table id

struct OracleOp {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  uint32_t table = 0;
  uint64_t key = 0;
  std::vector<int64_t> after;  // valid for inserts/updates
  int64_t delta = 0;           // valid for updates (col 0 increment)
};

// An async commit's ack, fired by an epoch or shipper thread. Like a guard
// that must be released exactly once before it is destroyed, it counts its
// fires: once the log stops, anything but one fire fails the seed.
struct AckRecord {
  std::mutex mu;
  int fires = 0;
  bool ok = false;
  bool before_leader = false;  ///< Fired OK before the leader held it.
};

struct OracleTxn {
  std::vector<OracleOp> ops;
  bool acked = false;  ///< The client was told this commit is durable.
  std::shared_ptr<AckRecord> ack;  ///< Async commits only.
};

void ApplyTxn(const OracleTxn& txn, DbState* state) {
  for (const OracleOp& op : txn.ops) {
    if (op.kind == OracleOp::Kind::kDelete) {
      (*state)[op.table].erase(op.key);
    } else {
      (*state)[op.table][op.key] = op.after;
    }
  }
}

DbState PreloadState() {
  DbState state(kTables);
  for (uint32_t t = 0; t < kTables; ++t) {
    for (uint64_t k = 0; k < 8; ++k) {
      state[t][k] = {static_cast<int64_t>(k * 10 + t), 0};
    }
  }
  return state;
}

// Replays decoded redo frames with lsn > start_after onto `state` — the
// exact transform engine::ReplayRedo applies to a catalog.
void ApplyRecovered(const std::vector<log::RecoveredTxn>& recovered,
                    uint64_t start_after, DbState* state) {
  for (const log::RecoveredTxn& txn : recovered) {
    if (txn.lsn <= start_after) continue;
    for (const log::RedoOp& op : txn.ops) {
      if (op.table >= state->size()) continue;
      if (op.kind == log::RedoOp::Kind::kDelete) {
        (*state)[op.table].erase(op.key);
      } else {
        (*state)[op.table][op.key] = op.after.cols;
      }
    }
  }
}

// The state recovery is contracted to produce from a damaged log: the
// checkpoint base (or the preload when there is none) plus every decodable
// frame above the stamp, holes included. pg's parallel WAL documents
// salvage-merge recovery (mid-stream corruption is data loss, not garbage),
// so on corruption seeds this — not the committed-prefix property — is the
// oracle.
DbState SalvageModelState(const std::optional<engine::Checkpoint>& ckpt,
                          const std::vector<log::RecoveredTxn>& recovered) {
  DbState state = PreloadState();
  uint64_t start_after = 0;
  if (ckpt.has_value()) {
    start_after = ckpt->lsn;
    // RestoreCheckpoint clears each snapshotted table before loading it.
    for (const engine::CheckpointTable& table : ckpt->tables) {
      if (table.table_id >= state.size()) continue;
      TableState fresh;
      for (const auto& [key, row] : table.rows) fresh[key] = row.cols;
      state[table.table_id] = std::move(fresh);
    }
  }
  ApplyRecovered(recovered, start_after, &state);
  return state;
}

void SetupSchema(engine::Database* db) {
  db->CreateTable("t0", 64);
  db->CreateTable("t1", 64);
  const DbState preload = PreloadState();
  for (uint32_t t = 0; t < kTables; ++t) {
    for (const auto& [key, cols] : preload[t]) {
      storage::Row row;
      row.cols = cols;
      db->BulkUpsert(t, key, row);
    }
  }
}

DbState ExtractState(const storage::Catalog& catalog) {
  DbState state(kTables);
  for (uint32_t t = 0; t < kTables; ++t) {
    const storage::Table* table = catalog.GetTable(t);
    if (table == nullptr) continue;
    table->ForEach([&](uint64_t key, const storage::Row& row) {
      state[t][key] = row.cols;
    });
  }
  return state;
}

std::string DescribeDiff(const DbState& got, const DbState& want) {
  for (uint32_t t = 0; t < kTables; ++t) {
    for (const auto& [key, cols] : want[t]) {
      auto it = got[t].find(key);
      if (it == got[t].end()) {
        return "missing t" + std::to_string(t) + "/" + std::to_string(key);
      }
      if (it->second != cols) {
        return "wrong row t" + std::to_string(t) + "/" + std::to_string(key);
      }
    }
    for (const auto& [key, cols] : got[t]) {
      (void)cols;
      if (want[t].find(key) == want[t].end()) {
        return "resurrected t" + std::to_string(t) + "/" + std::to_string(key);
      }
    }
  }
  return "equal";
}

struct SeedResult {
  bool ok = true;
  std::string error;
  bool crashed = false;
  uint64_t committed = 0;
  uint64_t acked = 0;
  uint64_t undecided = 0;
  uint64_t dropped = 0;
  uint64_t recovered_prefix = 0;
  /// Recovery was judged against the salvage model: the recovered stream
  /// was no ledger prefix on a seed where LSN holes are allowed.
  bool salvaged = false;
};

SeedResult Failed(SeedResult result, std::string error) {
  result.ok = false;
  result.error = std::move(error);
  return result;
}

std::string CrashSuffix(const std::string& crashed_by) {
  return crashed_by.empty() ? "" : " (crash via " + crashed_by + ")";
}

// ---------------------------------------------------------------------------
// The shared harness.

SimDiskConfig QuickDisk(uint64_t seed) {
  SimDiskConfig disk;
  disk.base_latency_ns = 1000;
  disk.sigma = 0.0;
  disk.flush_barrier_ns = 2000;
  disk.seed = seed + 7;
  return disk;
}

// The mysqlmini under test: logical redo, no simulated row work, eager
// flushes, quick disks.
engine::MySQLMiniConfig LiveMysqlConfig(uint64_t seed, bool async) {
  engine::MySQLMiniConfig cfg;
  cfg.logical_redo = true;
  cfg.row_work_ns = 0;
  cfg.flush_policy = log::FlushPolicy::kEagerFlush;
  cfg.log_async_commit = async;
  cfg.data_disk = QuickDisk(seed);
  cfg.log_disk = cfg.data_disk;
  cfg.seed = seed + 1;
  return cfg;
}

// Draws the next transaction against `scratch`, a copy of the shadow, so the
// oracle's after-images match what the engine computes.
OracleTxn NextTxn(uint64_t seed, DbState* scratch, Rng* rng) {
  OracleTxn txn;
  const int nops = 1 + static_cast<int>(rng->Uniform(3));
  for (int o = 0; o < nops; ++o) {
    OracleOp op;
    op.table = static_cast<uint32_t>(rng->Uniform(kTables));
    op.key = rng->Uniform(kKeySpace);
    TableState& ts = (*scratch)[op.table];
    auto it = ts.find(op.key);
    if (it == ts.end()) {
      op.kind = OracleOp::Kind::kInsert;
      op.after = {static_cast<int64_t>(op.key * 3 + 1),
                  static_cast<int64_t>(seed & 0xFF)};
      ts[op.key] = op.after;
    } else if (rng->Bernoulli(0.2)) {
      op.kind = OracleOp::Kind::kDelete;
      ts.erase(it);
    } else {
      // Delta update of col 0; the after-image the engine will log is the
      // scratch row after the increment (engine and shadow rows agree by
      // induction: every committed mutation is mirrored).
      op.kind = OracleOp::Kind::kUpdate;
      op.delta = static_cast<int64_t>(1 + rng->Uniform(9));
      op.after = it->second;
      op.after[0] += op.delta;
      it->second = op.after;
    }
    txn.ops.push_back(std::move(op));
  }
  return txn;
}

// Begins `txn` and runs its ops. A failure rolls it back before commit: no
// redo was logged, so recovery must never see it.
Status ExecuteOps(engine::Connection* conn, const OracleTxn& txn) {
  Status s = conn->Begin();
  for (size_t i = 0; s.ok() && i < txn.ops.size(); ++i) {
    const OracleOp& op = txn.ops[i];
    switch (op.kind) {
      case OracleOp::Kind::kDelete:
        s = conn->Delete(op.table, op.key);
        break;
      case OracleOp::Kind::kUpdate:
        s = conn->Update(op.table, op.key, 0, op.delta);
        break;
      case OracleOp::Kind::kInsert: {
        storage::Row row;
        row.cols = op.after;
        s = conn->Insert(op.table, op.key, row);
        break;
      }
    }
  }
  if (!s.ok()) conn->Rollback();
  return s;
}

// What a commit's status tells the client, under a mode's written contract.
enum class Outcome {
  kAcked,      ///< Told durable: recovery must keep it.
  kUnacked,    ///< Committed in stream order, not (yet) acked: recovery may
               ///< cut the prefix before it. An async commit's ack decides.
  kUndecided,  ///< The ambiguous tail: recovery may surface it in full or
               ///< not at all. Not counted as committed.
  kDropped,    ///< Rolled back: it belongs to no acceptable state.
  kViolation,  ///< A failure the contract does not allow: fails the seed.
};

// Every transaction the oracle may see recovered, in commit order.
struct Ledger {
  std::vector<OracleTxn> txns;  ///< Acked, unacked and undecided.
  uint64_t committed = 0;       ///< Acked + unacked.
  uint64_t undecided = 0;
  uint64_t dropped = 0;  ///< Rolled back: not in `txns`.
  uint64_t acked = 0;  ///< Final once ResolveAcks has run.
  std::string crashed_by;  ///< The crash that ended the workload, if any.
};

// What a mode plugs into the workload loop.
struct WorkloadHooks {
  bool async = false;  ///< Commit through CommitAsync with an AckRecord.
  /// The mode's contract, bound to its plan. Sees every commit attempt.
  std::function<Outcome(const OracleTxn&, const Status&, bool crashed_now)>
      outcome;
  /// Failure arms, run after each commit the loop survives. May be empty.
  std::function<void(uint64_t committed)> after_commit;
  uint64_t checkpoint_every = 0;  ///< 0 = no checkpoints.
  std::function<void()> checkpoint;
  /// A replicated engine's leader log, or null. Every OK ack (sync: Commit
  /// returned OK; async: the ack fired OK) must find the commit's frame
  /// already durable in it: a quorum counts the leader's own copy.
  const log::RedoLog* leader = nullptr;
};

// Runs the workload and records the ledger. An op or commit that fails
// while no crash has fired breaks the contract and fails the seed.
Ledger RunWorkload(uint64_t seed, engine::Connection* conn,
                   const WorkloadHooks& hooks, Rng* rng, SeedResult* result) {
  Ledger ledger;
  DbState shadow = PreloadState();
  for (int i = 0; i < kMaxTxns; ++i) {
    if (CrashPoints::Global().triggered()) break;
    DbState scratch = shadow;
    OracleTxn txn = NextTxn(seed, &scratch, rng);
    const Status os = ExecuteOps(conn, txn);
    if (!os.ok()) {
      if (!CrashPoints::Global().triggered()) {
        *result = Failed(*result, "op failed with no crash: " + os.ToString());
      }
      break;
    }
    std::shared_ptr<AckRecord> ack;
    Status cs;
    // The workload is the log's only appender, so the next LSN is this
    // commit's.
    const log::RedoLog* leader = hooks.leader;
    const uint64_t lsn = leader != nullptr ? leader->next_lsn() : 0;
    if (hooks.async) {
      ack = std::make_shared<AckRecord>();
      cs = conn->CommitAsync([ack, leader, lsn](const Status& s) {
        std::lock_guard<std::mutex> g(ack->mu);
        ++ack->fires;
        ack->ok = s.ok();
        ack->before_leader =
            s.ok() && leader != nullptr && leader->durable_lsn() < lsn;
      });
    } else {
      cs = conn->Commit();
      if (cs.ok() && leader != nullptr && leader->durable_lsn() < lsn) {
        *result = Failed(*result, "commit acked before the leader's copy was "
                                  "durable: lsn " + std::to_string(lsn) +
                                      ", leader durable " +
                                      std::to_string(leader->durable_lsn()));
        break;
      }
    }
    const bool crashed_now = CrashPoints::Global().triggered();
    const Outcome outcome = hooks.outcome(txn, cs, crashed_now);
    if (outcome == Outcome::kViolation) {
      *result = Failed(*result, "commit failed with no crash: " + cs.ToString());
      break;
    }
    if (outcome != Outcome::kDropped) {
      // The engine's state now includes this transaction (commit did not
      // roll back), whether or not it is durable.
      txn.acked = outcome == Outcome::kAcked;
      if (cs.ok()) txn.ack = std::move(ack);
      ledger.txns.push_back(std::move(txn));
      ++(outcome == Outcome::kUndecided ? ledger.undecided : ledger.committed);
      shadow = std::move(scratch);
    } else {
      ++ledger.dropped;
    }
    if (CrashPoints::Global().triggered()) break;
    if (hooks.after_commit) hooks.after_commit(ledger.committed);
    if (hooks.checkpoint_every > 0 && ledger.committed > 0 &&
        ledger.committed % hooks.checkpoint_every == 0) {
      hooks.checkpoint();
    }
  }
  result->crashed = CrashPoints::Global().triggered();
  result->committed = ledger.committed;
  result->undecided = ledger.undecided;
  result->dropped = ledger.dropped;
  ledger.crashed_by = CrashPoints::Global().triggered_by();
  return ledger;
}

// Call once the log is stopped: an async txn is acked iff its ack fired OK,
// i.e. the client was told it survived. Fails the seed unless every ack
// fired exactly once.
bool ResolveAcks(Ledger* ledger, SeedResult* result) {
  for (OracleTxn& txn : ledger->txns) {
    if (txn.ack != nullptr) {
      std::lock_guard<std::mutex> g(txn.ack->mu);
      if (txn.ack->fires != 1) {
        *result = Failed(*result, "async ack fired " +
                                      std::to_string(txn.ack->fires) +
                                      " times after log stop (want once)");
        return false;
      }
      if (txn.ack->before_leader) {
        *result = Failed(*result,
                         "async ack fired OK before the leader's copy was "
                         "durable");
        return false;
      }
      txn.acked = txn.ack->ok;
    }
    if (txn.acked) ++ledger->acked;
  }
  result->acked = ledger->acked;
  return true;
}

bool AllAcksFired(const Ledger& ledger) {
  for (const OracleTxn& txn : ledger.txns) {
    if (txn.ack == nullptr) continue;
    std::lock_guard<std::mutex> g(txn.ack->mu);
    if (txn.ack->fires == 0) return false;
  }
  return true;
}

// One checkpoint store and how many snapshots it accepted.
struct CheckpointSlot {
  engine::CheckpointStore store;
  uint64_t saves = 0;

  // TakeCheckpoint enforces the write-ahead rule (forces the log durable
  // through every assigned LSN). A refusal — the force tripped the crash or
  // stalled — aborts this checkpoint, like a real system; the store keeps
  // the previous snapshot.
  void Save(const Result<engine::Checkpoint>& ckpt) {
    if (!ckpt.ok()) return;
    store.Save(engine::EncodeCheckpoint(ckpt.value()));
    ++saves;
  }
};

// The shared oracle: `recovered` equals the shadow after some prefix of the
// ledger — never a mixture, never garbage, never a double-applied delta —
// and (when `check_durability`) that prefix covers every acked transaction.
// Sets *prefix to the longest matching prefix; returns the failure, or "".
std::string CheckPrefix(const DbState& recovered, const Ledger& ledger,
                        bool check_durability,
                        std::optional<uint64_t>* prefix) {
  DbState prefix_state = PreloadState();
  if (recovered == prefix_state) *prefix = 0;
  for (size_t k = 0; k < ledger.txns.size(); ++k) {
    ApplyTxn(ledger.txns[k], &prefix_state);
    if (recovered == prefix_state) *prefix = k + 1;
  }
  if (!prefix->has_value()) {
    return "recovered state matches no committed prefix (" +
           DescribeDiff(recovered, prefix_state) + " vs full state)" +
           CrashSuffix(ledger.crashed_by);
  }
  for (size_t k = **prefix; check_durability && k < ledger.txns.size(); ++k) {
    if (!ledger.txns[k].acked) continue;
    return "acked transaction lost: recovered prefix " +
           std::to_string(**prefix) + " misses acked txn " +
           std::to_string(k + 1) + " (" + std::to_string(ledger.acked) +
           " acked)" + CrashSuffix(ledger.crashed_by);
  }
  return "";
}

// Replays `recovered` (above the checkpoint's stamp, when there is one) into
// a fresh mysqlmini or pgmini and returns its state.
DbState Replay(bool use_pg, int pg_log_sets, uint64_t seed,
               const std::vector<log::RecoveredTxn>& recovered,
               const std::optional<engine::Checkpoint>& ckpt) {
  std::unique_ptr<engine::Database> target;
  storage::Catalog* catalog = nullptr;
  if (use_pg) {
    pg::PgMiniConfig cfg;
    cfg.logical_redo = true;
    cfg.row_work_ns = 0;
    cfg.predicate_check_ns = 0;
    cfg.wal.num_log_sets = pg_log_sets;
    cfg.seed = seed + 2;
    auto pgdb = std::make_unique<pg::PgMini>(cfg);
    catalog = &pgdb->catalog();
    target = std::move(pgdb);
  } else {
    engine::MySQLMiniConfig cfg;
    cfg.logical_redo = true;
    cfg.row_work_ns = 0;
    cfg.seed = seed + 2;
    auto mysql = std::make_unique<engine::MySQLMini>(cfg);
    catalog = &mysql->catalog();
    target = std::move(mysql);
  }
  SetupSchema(target.get());
  if (ckpt.has_value()) engine::RestoreCheckpoint(*ckpt, catalog);
  (use_pg ? pg::PgMini::RecoverInto : engine::MySQLMini::RecoverInto)(
      recovered, target.get(), ckpt.has_value() ? ckpt->lsn : 0);
  return ExtractState(*catalog);
}

// ---------------------------------------------------------------------------
// --mode=recovery: one engine (mysqlmini, or pgmini on one or two WAL disks)
// with logical redo, crashed by a named crash point on its Nth hit or by a
// FaultInjector kCrash window on the log device (some seeds run clean).
// Half the seeds checkpoint; 35% commit through epoch async group commit.
//
// At reboot the durable log image(s) are cut, optionally with a torn tail
// of unflushed bytes and optionally with one flipped bit (corruption); the
// newest decodable checkpoint is restored (optionally tearing the newest to
// exercise the two-slot fallback) and the log replays on top. Checks beyond
// the shared oracle:
//   * corruption is always detected (DataLoss or a torn-tail stop — never a
//     clean decode of a flipped image), and durability is waived on those
//     seeds, where durable bytes were deliberately destroyed,
//   * a two-disk pg image with a mid-stream hole must equal the salvage
//     model instead of a prefix,
//   * when a checkpoint was used, checkpoint+suffix recovery equals full-log
//     replay.
//
// Contract (sync or async commit):
//   OK before the crash   -> acked (sync), or unacked until its ack fires.
//   OK after the crash    -> unacked: the flush that tripped it may not have
//                            made the frame durable.
//   failure after a crash -> dropped.
//   failure with no crash -> violation.

struct SeedPlan {
  bool use_pg = false;
  int pg_log_sets = 1;
  bool group_commit = true;     // mysql only
  /// Epoch-based async group commit (docs/group_commit.md): the workload
  /// commits through Connection::CommitAsync and a transaction counts as
  /// acked only once its parked ack fires OK — which the epoch protocol
  /// guarantees happens strictly after its covering barrier, so the
  /// durability check "every acked txn recovers" directly tests the
  /// no-acked-but-lost property across epoch.pre_flush crashes.
  bool async_epoch = false;
  bool use_checkpoints = false;
  uint64_t checkpoint_every = 6;
  // Crash scheduling: exactly one of crash_point / fault_crash, or neither
  // (clean run).
  std::string crash_point;
  uint64_t crash_occurrence = 1;
  bool fault_crash = false;
  double fault_written_fraction = 0.0;
  int64_t fault_start_ns = 0;
  // Post-crash image mutations.
  bool torn_tail = false;
  bool corrupt = false;
  bool tear_checkpoint = false;
};

SeedPlan MakePlan(uint64_t seed, const std::string& engine_filter, Rng* rng) {
  SeedPlan plan;
  if (engine_filter == "pg") {
    plan.use_pg = true;
  } else if (engine_filter != "mysql") {
    plan.use_pg = (seed % 2) == 1;
  }
  plan.pg_log_sets = ((seed >> 1) % 2) == 1 ? 2 : 1;
  plan.group_commit = rng->Bernoulli(0.5);
  plan.async_epoch = rng->Bernoulli(0.35);
  plan.use_checkpoints = rng->Bernoulli(0.5);
  plan.checkpoint_every = 4 + rng->Uniform(8);
  const double crash_mode = rng->NextDouble();
  if (crash_mode < 0.55) {
    // Async seeds add the epoch thread's pre-flush site: a crash there
    // loses a whole parked epoch atomically.
    static const char* kMysqlPoints[] = {"redo.append", "redo.pre_flush",
                                         "redo.post_flush",
                                         "epoch.pre_flush"};
    static const char* kPgPoints[] = {"wal.append", "wal.pre_flush",
                                      "wal.post_flush", "epoch.pre_flush"};
    const uint64_t npoints = plan.async_epoch ? 4 : 3;
    plan.crash_point = plan.use_pg ? kPgPoints[rng->Uniform(npoints)]
                                   : kMysqlPoints[rng->Uniform(npoints)];
    // Epoch rounds fire far less often than per-commit points: keep the
    // occurrence low enough that the armed point actually trips.
    plan.crash_occurrence = plan.crash_point == "epoch.pre_flush"
                                ? 1 + rng->Uniform(6)
                                : 1 + rng->Uniform(3 * kMaxTxns);
  } else if (crash_mode < 0.80) {
    plan.fault_crash = true;
    plan.fault_written_fraction = rng->NextDouble();
    plan.fault_start_ns = static_cast<int64_t>(rng->Uniform(2000000));
  }  // else: clean run
  plan.torn_tail = rng->Bernoulli(0.5);
  plan.corrupt = rng->Bernoulli(0.15);
  plan.tear_checkpoint = rng->Bernoulli(0.3);
  return plan;
}

Outcome RecoveryOutcome(const Status& s, bool crashed_now, bool async) {
  if (!s.ok()) return crashed_now ? Outcome::kDropped : Outcome::kViolation;
  return async || crashed_now ? Outcome::kUnacked : Outcome::kAcked;
}

/// Flips one bit somewhere in the image. Returns false when there is
/// nothing to corrupt.
bool FlipOneBit(std::vector<uint8_t>* image, Rng* rng) {
  if (image->empty()) return false;
  const size_t byte = rng->Uniform(image->size());
  (*image)[byte] ^= static_cast<uint8_t>(1u << rng->Uniform(8));
  return true;
}

SeedResult RunRecoverySeed(uint64_t seed, const std::string& engine_filter,
                           bool verbose) {
  SeedResult result;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE);
  const SeedPlan plan = MakePlan(seed, engine_filter, &rng);

  CrashPoints::Global().Reset();
  const SimDiskConfig quick_disk = QuickDisk(seed);

  FaultInjector injector;
  if (plan.fault_crash) {
    // The window opens mid-workload and stays open: the first log I/O
    // inside it trips the process-wide crash flag.
    injector.AddCrash(plan.fault_start_ns, int64_t{1} << 40,
                      plan.fault_written_fraction);
  }
  SimDiskConfig log_disk = quick_disk;
  if (plan.fault_crash) log_disk.fault = &injector;

  // --- build the engine under test ---------------------------------------
  std::unique_ptr<engine::MySQLMini> mysql;
  std::unique_ptr<pg::PgMini> pgdb;
  engine::Database* db = nullptr;
  if (plan.use_pg) {
    pg::PgMiniConfig cfg;
    cfg.logical_redo = true;
    cfg.row_work_ns = 0;
    cfg.predicate_check_ns = 0;
    cfg.wal.block_bytes = 4096;
    cfg.wal.num_log_sets = plan.pg_log_sets;
    cfg.wal.disk = log_disk;
    cfg.wal.async_commit = plan.async_epoch;
    cfg.wal.epoch_interval_ns = 200 * 1000;
    cfg.seed = seed + 1;
    pgdb = std::make_unique<pg::PgMini>(cfg);
    db = pgdb.get();
  } else {
    engine::MySQLMiniConfig cfg = LiveMysqlConfig(seed, plan.async_epoch);
    cfg.log_group_commit = plan.group_commit;
    cfg.log_epoch_interval_ns = 200 * 1000;
    cfg.log_disk = log_disk;
    mysql = std::make_unique<engine::MySQLMini>(cfg);
    db = mysql.get();
  }
  SetupSchema(db);

  if (!plan.crash_point.empty()) {
    CrashPoints::Global().Arm(plan.crash_point, plan.crash_occurrence);
  }
  if (plan.fault_crash) injector.Arm();

  // --- workload ------------------------------------------------------------
  CheckpointSlot ckpt_slot;
  WorkloadHooks hooks;
  hooks.async = plan.async_epoch;
  hooks.outcome = [&](const OracleTxn&, const Status& s, bool crashed_now) {
    return RecoveryOutcome(s, crashed_now, plan.async_epoch);
  };
  hooks.checkpoint_every = plan.use_checkpoints ? plan.checkpoint_every : 0;
  hooks.checkpoint = [&] {
    ckpt_slot.Save(plan.use_pg ? pgdb->TakeCheckpoint()
                               : mysql->TakeCheckpoint());
  };
  auto conn = db->Connect();
  Ledger ledger = RunWorkload(seed, conn.get(), hooks, &rng, &result);
  if (!result.ok) return result;

  // --- reboot --------------------------------------------------------------
  // Images are cut from the durable watermarks, so reading them after Reset
  // is exactly what a post-reboot log scan would see.
  std::vector<std::vector<uint8_t>> images;
  if (plan.use_pg) {
    // CrashImages does not stop the epoch writers; stop explicitly so the
    // durable watermarks freeze and every parked ack resolves (non-OK).
    pgdb->wal().Stop();
    std::vector<uint64_t> tails;
    if (plan.torn_tail) {
      for (int i = 0; i < plan.pg_log_sets; ++i) {
        tails.push_back(rng.Uniform(4 * 1024));
      }
    }
    images = pgdb->wal().CrashImages(tails);
  } else {
    const uint64_t tail = plan.torn_tail ? rng.Uniform(4 * 1024) : 0;
    images.push_back(mysql->redo_log().CrashImage(tail));
  }
  if (!ResolveAcks(&ledger, &result)) return result;
  bool corrupted = false;
  if (plan.corrupt) {
    // Flip one bit in one image (two-disk pg: only one disk corrupted, the
    // other must still contribute its prefix).
    std::vector<uint8_t>* victim = &images[rng.Uniform(images.size())];
    corrupted = FlipOneBit(victim, &rng);
  }
  CrashPoints::Global().Reset();

  // --- decode + replay -----------------------------------------------------
  std::vector<log::RecoveredTxn> recovered;
  bool decode_detected_damage = false;
  size_t image_total = 0;
  if (plan.use_pg) {
    const pg::WalManager::RecoveryResult rr =
        pg::WalManager::RecoverCommitted(images, &recovered);
    decode_detected_damage = !rr.status.ok() || rr.torn_sets > 0;
    for (const auto& img : images) image_total += img.size();
  } else {
    const log::LogDecodeResult dr = log::DecodeLogImage(images[0], &recovered);
    decode_detected_damage =
        !dr.status.ok() || dr.torn_tail || dr.valid_bytes < images[0].size();
    image_total = images[0].size();
  }

  std::optional<engine::Checkpoint> ckpt;
  if (plan.use_checkpoints && ckpt_slot.saves > 0) {
    if (plan.tear_checkpoint) {
      ckpt_slot.store.TearNewest(rng.Uniform(64));
    }
    ckpt = ckpt_slot.store.LoadLatest();
    if (!ckpt.has_value() && !plan.tear_checkpoint) {
      return Failed(result, "saved checkpoint failed to decode");
    }
    if (!ckpt.has_value() && ckpt_slot.saves >= 2) {
      // Tearing destroys at most the newest slot; with two saves the older
      // slot must still decode.
      return Failed(result, "two-slot store lost both checkpoints to one tear");
    }
  }
  const DbState recovered_state =
      Replay(plan.use_pg, plan.pg_log_sets, seed, recovered, ckpt);

  // --- verification --------------------------------------------------------
  // (1) Prefix property. Some seeds can legitimately break it: pg's parallel
  // WAL salvages every decodable frame across sets by contract (see
  // tests/pg_recovery_test.cc), so a mid-stream LSN hole — one set's frames
  // lost to a flipped bit or a torn tail while another set's survive, or a
  // crash between one set's epoch round landing and the other's — yields a
  // non-prefix mixture. For those seeds only, fall back to salvage
  // equivalence: the recovered state must equal checkpoint-base + every
  // decoded frame above the stamp. The summary line counts these seeds.
  //
  // (2) Durability: every acked transaction is recovered. Waived when we
  // deliberately destroyed durable bytes (corruption seeds).
  std::optional<uint64_t> matched_prefix;
  const std::string prefix_err =
      CheckPrefix(recovered_state, ledger, !corrupted, &matched_prefix);
  const bool holes_possible =
      corrupted || (plan.use_pg && plan.pg_log_sets > 1 &&
                    (plan.torn_tail || plan.async_epoch));
  if (matched_prefix.has_value() || !holes_possible) {
    if (!prefix_err.empty()) return Failed(result, prefix_err);
    result.recovered_prefix = *matched_prefix;
  } else {
    result.salvaged = true;
    const DbState salvage = SalvageModelState(ckpt, recovered);
    if (recovered_state != salvage) {
      return Failed(result, "holed recovery diverges from the salvage model (" +
                                DescribeDiff(recovered_state, salvage) + ")");
    }
    // Durability in the salvage regime: acked frames were barriered durable
    // on every set before the ack fired, so unless the corruption landed on
    // them they must all still be in the decoded stream.
    if (!corrupted && recovered.size() < result.acked) {
      return Failed(result, "acked transaction missing from salvaged stream: " +
                                std::to_string(recovered.size()) +
                                " decoded < acked " +
                                std::to_string(result.acked));
    }
  }

  // (3) Corruption detection: a flipped bit never decodes cleanly.
  if (corrupted && !decode_detected_damage) {
    return Failed(result, "silent corruption: flipped image decoded clean");
  }

  // (4) Checkpoint path agrees with full replay. Skipped on corruption
  // seeds: a checkpoint covering transactions the damaged log can no longer
  // reconstruct is the point of checkpoints, not a divergence.
  if (ckpt.has_value() && !corrupted) {
    const DbState full_state =
        Replay(plan.use_pg, plan.pg_log_sets, seed, recovered, std::nullopt);
    if (full_state != recovered_state) {
      return Failed(result,
                    "checkpoint+suffix recovery diverges from full replay (" +
                        DescribeDiff(recovered_state, full_state) + ")");
    }
  }

  if (verbose) {
    std::printf(
        "seed %llu: engine=%s%s async=%d committed=%llu acked=%llu "
        "prefix=%llu crash=%s ckpt=%s torn=%d corrupt=%d image=%zu\n",
        static_cast<unsigned long long>(seed), plan.use_pg ? "pg" : "mysql",
        plan.use_pg ? ("/" + std::to_string(plan.pg_log_sets)).c_str() : "",
        plan.async_epoch ? 1 : 0,
        static_cast<unsigned long long>(result.committed),
        static_cast<unsigned long long>(result.acked),
        static_cast<unsigned long long>(result.recovered_prefix),
        ledger.crashed_by.empty() ? "none" : ledger.crashed_by.c_str(),
        ckpt.has_value() ? "yes" : "no", plan.torn_tail ? 1 : 0,
        corrupted ? 1 : 0, image_total);
  }
  return result;
}

// ---------------------------------------------------------------------------
// --mode=replica-kill: the quorum-replication harness (docs/replication.md).
//
// Each seed runs a K-copy mysqlmini (K in {3, 5}; leader redo log plus K-1
// replicas, each on its own SimDisk) through a single-failure scenario:
//
//   * a crash point on the leader or the replication path (repl.pre_ship /
//     repl.pre_ack plus the redo.* / epoch.* sites),
//   * a deterministic single-replica kill mid-workload,
//   * a live Failover() + CatchUpReplicas() fencing drill, or
//   * a clean run.
//
// At reboot every copy's crash image is collected (optionally with torn
// tails), the new leader is elected (longest valid frame prefix) — on
// `leader_lost` seeds over the replica copies only, modelling a leader whose
// disk died with it — and the elected stream replays. One seed in four
// (chosen from the seed number) also runs the leader's log disk under a
// latency spike: the replicas, which ship appended frames while the leader
// flushes, then spend most of each commit holding frames the leader's copy
// does not, and the crash, kill, failover or leader-loss election can land
// in that state. Every copy is a
// byte-prefix of the one leader stream, so the shared prefix oracle applies
// with no salvage regime: a non-prefix is what a double-applied unacked
// commit would look like. Checks beyond it:
//   * on kill/clean seeds every submitted commit acked OK (one dead
//     minority replica never blocks commit), and
//   * every OK ack finds its frame durable on the leader's own copy (the
//     quorum rule counts the leader; replicas alone never ack), and
//   * the `repl` ledger row (src/common/ledger.cc) holds over the seed's
//     registry delta once the log stops: every submitted commit acked,
//     still parked, or lost.
//
// Contract:
//   OK                    -> acked (sync: the quorum ack fired, so the frame
//                            is durable on a quorum of copies and survives
//                            any single failure), or unacked until its ack
//                            fires (async).
//   Unavailable           -> the one undecided outcome a client sees with no
//                            crash (quorum unreachable, failover window). The
//                            frame is already in the leader's stream, so the
//                            oracle records it unacked in stream order: it
//                            MAY recover.
//   other failure         -> dropped after a crash, a violation without one.

struct ReplPlan {
  int replicas = 3;  ///< Total copies incl. the leader.
  bool async_epoch = false;
  bool use_checkpoints = false;
  uint64_t checkpoint_every = 6;
  enum class Arm { kClean, kCrashPoint, kKillReplica, kFailover };
  Arm arm = Arm::kClean;
  std::string crash_point;
  uint64_t crash_occurrence = 1;
  int kill_replica = 1;            ///< 1-based copy index.
  uint64_t kill_at_commit = 1;     ///< Kill after this many commits.
  uint64_t failover_at_commit = 1;
  bool leader_lost = false;  ///< Recover from the replica copies only.
  bool torn_tail = false;
  /// Latency spike on the leader's log disk for the whole run: the replicas
  /// run ahead of the leader's durable mark.
  bool slow_leader = false;
};

ReplPlan MakeReplPlan(uint64_t seed, Rng* rng) {
  ReplPlan plan;
  // From the seed, not the plan stream, so the other seeds keep their
  // workloads and verdicts.
  plan.slow_leader = seed % 4 == 3;
  plan.replicas = rng->Bernoulli(0.5) ? 3 : 5;
  plan.async_epoch = rng->Bernoulli(0.4);
  plan.use_checkpoints = rng->Bernoulli(0.4);
  plan.checkpoint_every = 4 + rng->Uniform(8);
  const double arm = rng->NextDouble();
  if (arm < 0.40) {
    plan.arm = ReplPlan::Arm::kCrashPoint;
    static const char* kPoints[] = {"repl.pre_ship", "repl.pre_ack",
                                    "redo.append",   "redo.pre_flush",
                                    "redo.post_flush", "epoch.pre_flush"};
    const uint64_t npoints = plan.async_epoch ? 6 : 5;
    plan.crash_point = kPoints[rng->Uniform(npoints)];
    // Match each site's firing rate so the armed occurrence actually trips:
    // epochs fire rarely, ack batches at most once per commit, ships and
    // per-commit log sites many times per commit.
    if (plan.crash_point == "epoch.pre_flush") {
      plan.crash_occurrence = 1 + rng->Uniform(6);
    } else if (plan.crash_point == "repl.pre_ack") {
      plan.crash_occurrence = 1 + rng->Uniform(kMaxTxns);
    } else {
      plan.crash_occurrence = 1 + rng->Uniform(3 * kMaxTxns);
    }
  } else if (arm < 0.65) {
    plan.arm = ReplPlan::Arm::kKillReplica;
    plan.kill_replica =
        1 + static_cast<int>(rng->Uniform(static_cast<uint64_t>(
                plan.replicas - 1)));
    plan.kill_at_commit = 1 + rng->Uniform(kMaxTxns / 2);
  } else if (arm < 0.85) {
    plan.arm = ReplPlan::Arm::kFailover;
    plan.failover_at_commit = 1 + rng->Uniform(kMaxTxns / 2);
  }  // else: clean run
  // Majority quorum (2-of-3, 3-of-5) always leaves >= 1 surviving replica
  // holding any acked frame, so electing without the leader's copy is safe.
  plan.leader_lost = rng->Bernoulli(0.3);
  plan.torn_tail = rng->Bernoulli(0.5);
  return plan;
}

Outcome ReplOutcome(const Status& s, bool crashed_now, bool async) {
  if (s.ok()) return async ? Outcome::kUnacked : Outcome::kAcked;
  if (s.IsUnavailable()) return Outcome::kUnacked;
  return crashed_now ? Outcome::kDropped : Outcome::kViolation;
}

SeedResult RunReplicaKillSeed(uint64_t seed, const std::string& /*engine*/,
                              bool verbose) {
  SeedResult result;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x0E91);
  const ReplPlan plan = MakeReplPlan(seed, &rng);

  CrashPoints::Global().Reset();
  const metrics::MetricsSnapshot before =
      metrics::Registry::Global().TakeSnapshot();
  engine::MySQLMiniConfig cfg = LiveMysqlConfig(seed, plan.async_epoch);
  cfg.log_epoch_interval_ns = 200 * 1000;
  cfg.repl_replicas = plan.replicas;
  cfg.repl_disk = cfg.data_disk;
  FaultInjector leader_spike;
  if (plan.slow_leader) {
    // 20x the quick disk's service time: one leader force (one write-through
    // request) takes as long as twenty replica ships.
    leader_spike.AddLatencySpike(0, int64_t{1} << 40, 20.0);
    cfg.log_disk.fault = &leader_spike;
    leader_spike.Arm();
  }
  auto mysql = std::make_unique<engine::MySQLMini>(cfg);
  SetupSchema(mysql.get());
  repl::QuorumLog* ql = mysql->quorum_log();

  if (plan.arm == ReplPlan::Arm::kCrashPoint) {
    CrashPoints::Global().Arm(plan.crash_point, plan.crash_occurrence);
  }

  // --- workload ------------------------------------------------------------
  CheckpointSlot ckpt_slot;
  bool failed_over = false;
  WorkloadHooks hooks;
  hooks.async = plan.async_epoch;
  hooks.outcome = [&](const OracleTxn&, const Status& s, bool crashed_now) {
    return ReplOutcome(s, crashed_now, plan.async_epoch);
  };
  // Failure arms trigger on commit-count thresholds so every seed replays
  // exactly.
  hooks.after_commit = [&](uint64_t committed) {
    if (plan.arm == ReplPlan::Arm::kKillReplica &&
        committed == plan.kill_at_commit) {
      ql->KillReplica(plan.kill_replica);
    }
    if (plan.arm == ReplPlan::Arm::kFailover && !failed_over &&
        committed >= plan.failover_at_commit) {
      ql->Failover();
      ql->CatchUpReplicas();
      failed_over = true;
    }
  };
  hooks.checkpoint_every = plan.use_checkpoints ? plan.checkpoint_every : 0;
  hooks.checkpoint = [&] { ckpt_slot.Save(mysql->TakeCheckpoint()); };
  hooks.leader = &mysql->redo_log();
  auto conn = mysql->Connect();
  Ledger ledger = RunWorkload(seed, conn.get(), hooks, &rng, &result);
  if (!result.ok) return result;

  // Non-crash seeds: drain the in-flight epoch/ship pipeline so the
  // availability assertion below sees final ack outcomes, not a race with
  // the epoch timer.
  if (!result.crashed && plan.async_epoch) {
    for (int spin = 0; spin < 20000 && !AllAcksFired(ledger); ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  // --- reboot --------------------------------------------------------------
  // CrashImages stops the leader then the quorum layer (resolving every
  // parked ack), and returns each copy's durable prefix plus up to `tail`
  // torn bytes: exactly what a post-reboot scan of every node would see.
  const uint64_t tail = plan.torn_tail ? rng.Uniform(4 * 1024) : 0;
  std::vector<std::vector<uint8_t>> images = ql->CrashImages(tail);
  if (!ResolveAcks(&ledger, &result)) return result;
  // The epoch timer keeps hitting its crash sites after the workload loop
  // exits, so an armed point can trip during the drain or the image cut —
  // re-read the flag before asserting availability.
  const bool crashed_at_all = CrashPoints::Global().triggered();
  result.crashed = crashed_at_all;
  CrashPoints::Global().Reset();

  // Ack ledger: every submitted commit resolved exactly one way.
  if (const std::vector<std::string> v = metrics::CheckLedger(
          metrics::MetricsSnapshot::Delta(
              before, metrics::Registry::Global().TakeSnapshot()),
          {"repl"});
      !v.empty()) {
    return Failed(result, "ledger out of balance: " + v[0]);
  }

  // Availability: with no crash and at most one dead minority replica (or a
  // completed failover drill), every submitted commit must have acked OK.
  if (!crashed_at_all && plan.arm != ReplPlan::Arm::kFailover &&
      result.acked != result.committed) {
    return Failed(result,
                  "commit lost availability under single failure: acked " +
                      std::to_string(result.acked) + " < committed " +
                      std::to_string(result.committed));
  }

  // --- election + replay ---------------------------------------------------
  // leader_lost: the leader's disk died with the process — elect over the
  // replica copies only, and ignore checkpoints (they lived on the leader).
  std::vector<std::vector<uint8_t>> ballot;
  if (plan.leader_lost) {
    ballot.assign(images.begin() + 1, images.end());
  } else {
    ballot = images;
  }
  const repl::Election election = repl::ElectLeader(ballot);

  std::optional<engine::Checkpoint> ckpt;
  if (!plan.leader_lost && plan.use_checkpoints && ckpt_slot.saves > 0) {
    ckpt = ckpt_slot.store.LoadLatest();
    if (!ckpt.has_value()) {
      return Failed(result, "saved checkpoint failed to decode");
    }
  }
  const DbState recovered_state =
      Replay(/*use_pg=*/false, 1, seed, election.txns, ckpt);

  // --- verification --------------------------------------------------------
  // Durability holds even when the leader's own copy was lost: a
  // quorum-acked frame is durable on >= quorum copies and copies are
  // prefixes of one stream, so the longest surviving replica holds all of
  // them.
  std::optional<uint64_t> prefix;
  if (std::string err = CheckPrefix(recovered_state, ledger, true, &prefix);
      !err.empty()) {
    return Failed(result, err + (plan.leader_lost ? " [leader lost]" : ""));
  }
  result.recovered_prefix = *prefix;

  if (verbose) {
    static const char* kArmNames[] = {"clean", "crash", "kill", "failover"};
    std::printf(
        "seed %llu: repl K=%d arm=%s%s async=%d committed=%llu acked=%llu "
        "prefix=%llu crash=%s leader_lost=%d torn=%d winner=%d frames=%llu"
        "%s\n",
        static_cast<unsigned long long>(seed), plan.replicas,
        kArmNames[static_cast<int>(plan.arm)],
        plan.arm == ReplPlan::Arm::kCrashPoint
            ? ("(" + plan.crash_point + ")").c_str()
            : "",
        plan.async_epoch ? 1 : 0,
        static_cast<unsigned long long>(result.committed),
        static_cast<unsigned long long>(result.acked),
        static_cast<unsigned long long>(result.recovered_prefix),
        ledger.crashed_by.empty() ? "none" : ledger.crashed_by.c_str(),
        plan.leader_lost ? 1 : 0, plan.torn_tail ? 1 : 0, election.winner,
        static_cast<unsigned long long>(election.frames),
        plan.slow_leader ? " slow_leader=1" : "");
  }
  return result;
}

// ---------------------------------------------------------------------------
// --mode=coordinator-crash: the cross-shard 2PC harness (docs/sharding.md).
//
// Each seed runs a 2/3/4-shard ShardedDatabase through a single-threaded
// mixed workload (random keys hash to a natural mix of single- and
// cross-shard transactions), optionally crashing at one of the coordinator's
// protocol instants — 2pc.pre_prepare (before the round), 2pc.pre_decide
// (PREPAREs appended, decision not yet), 2pc.decided (the decision's ack
// landed OK while a PREPARE is still in flight), 2pc.pre_ack (round over,
// participant commits not yet) — or at the generic redo.* commit sites, or
// not at all. Per-shard checkpoints and torn log tails ride along on some
// seeds; half the seeds run epoch async commit, so a round's frames park on
// several shards' epochs at once and the crash can land on any of their
// epoch threads. 2pc.decided needs that overlap, so it is armed on epoch
// seeds picked by seed number, with the participants' log disks slowed.
//
// At reboot every shard's crash image is decoded independently, 2PC outcomes
// are resolved across the streams with engine::Filter2PCRedo (presumed
// abort, decision sections for lost PREPAREs), each filtered stream replays
// into a fresh shard, and the merged state goes to the shared prefix oracle.
// Every OK commit before the crash is acked, so the only acceptable states
// are "all committed" and "all committed + the undecided tail in full". This
// is ATOMICITY: a cross-shard transaction recovered on some shards but not
// others matches neither. Checks beyond it:
//   * LEDGER: the `2pc` row (src/common/ledger.cc) holds over the seed's
//     registry delta: every coordinated round issued a decision or was
//     abandoned before it,
//   * every shard's image decodes without DataLoss (torn-tail stops are
//     expected; DataLoss would be a framing bug).
//
// Contract (sync Commit; each shard's epoch may still park the frames):
//   OK before the crash   -> acked: single-shard commits force their frame,
//                            2PC forces its one round of frames.
//   cross-shard OK        -> acked, even when the crash tripped during the
//   after the crash          commit: OK means the decision's ack was OK, so
//                            the decision is durable, and recovery must
//                            rebuild any participant whose PREPARE was lost.
//   single-shard OK       -> undecided: the single-shard eager path degrades
//   after the crash          instead of failing the commit
//                            (log.degraded_commits), so OK does NOT imply the
//                            frame reached the durable cut.
//   failure after the     -> undecided: a single-shard flush failure or an
//   crash                    ambiguous 2PC decision leaves frames in the
//                            append stream past the durable cut, where a torn
//                            tail may reveal them. A participant never votes
//                            NO, so no commit is rolled back.
//   failure with no crash -> violation.

struct CoordPlan {
  int num_shards = 2;
  bool use_checkpoints = false;
  uint64_t checkpoint_every = 6;
  std::string crash_point;  ///< Empty = clean run.
  uint64_t crash_occurrence = 1;
  bool torn_tail = false;
  /// Epoch async group commit on every shard: the concurrent PREPAREs and
  /// the DECISION park on per-shard epochs and complete out of order,
  /// instead of each flushing inline on the coordinator's thread.
  bool async_epoch = false;
  /// Latency spike on every log disk but shard 0's for the whole run, so a
  /// decision from shard 0 tends to land before its PREPAREs.
  bool slow_participants = false;
};

CoordPlan MakeCoordPlan(uint64_t seed, Rng* rng) {
  CoordPlan plan;
  plan.num_shards = 2 + static_cast<int>(seed % 3);
  // From the seed, not the plan stream, so the eager seeds keep their
  // workloads; seed % 6 covers every (shard count, log mode) pair.
  plan.async_epoch = (seed / 3) % 2 == 1;
  plan.use_checkpoints = rng->Bernoulli(0.4);
  plan.checkpoint_every = 4 + rng->Uniform(8);
  const double arm = rng->NextDouble();
  if (arm < 0.70) {
    static const char* kPoints[] = {"2pc.pre_prepare", "2pc.pre_decide",
                                    "2pc.pre_ack",     "redo.append",
                                    "redo.pre_flush",  "redo.post_flush"};
    plan.crash_point = kPoints[rng->Uniform(6)];
    // 2pc.* sites fire once per cross-shard commit; redo.* fire several
    // times per commit across all shards.
    plan.crash_occurrence = plan.crash_point.rfind("2pc.", 0) == 0
                                ? 1 + rng->Uniform(kMaxTxns / 2)
                                : 1 + rng->Uniform(3 * kMaxTxns);
  }  // else: clean run
  plan.torn_tail = rng->Bernoulli(0.5);
  // From the seed, after every draw, so the other seeds keep their plans.
  if (plan.async_epoch && seed % 4 == 1) {
    plan.slow_participants = true;
    plan.crash_point = "2pc.decided";
    plan.crash_occurrence = 1 + (seed / 12) % 4;
  }
  return plan;
}

Outcome CoordOutcome(const Status& s, bool crashed_now, bool cross) {
  if (!crashed_now) return s.ok() ? Outcome::kAcked : Outcome::kViolation;
  return s.ok() && cross ? Outcome::kAcked : Outcome::kUndecided;
}

SeedResult RunCoordinatorCrashSeed(uint64_t seed,
                                   const std::string& /*engine*/,
                                   bool verbose) {
  SeedResult result;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x2FC0);
  const CoordPlan plan = MakeCoordPlan(seed, &rng);

  CrashPoints::Global().Reset();
  engine::ShardedDatabaseConfig cfg;
  cfg.num_shards = plan.num_shards;
  cfg.shard = LiveMysqlConfig(seed, plan.async_epoch);
  // Declared before the engine: its log threads use it until they stop.
  FaultInjector participant_spike;
  auto sharded = std::make_unique<engine::ShardedDatabase>(cfg);
  SetupSchema(sharded.get());
  if (plan.slow_participants) {
    participant_spike.AddLatencySpike(0, int64_t{1} << 40, 20.0);
    for (int s = 1; s < plan.num_shards; ++s) {
      sharded->shard(s)->log_disk().set_fault(&participant_spike);
    }
    participant_spike.Arm();
  }

  auto& reg = metrics::Registry::Global();
  const metrics::MetricsSnapshot before = reg.TakeSnapshot();

  if (!plan.crash_point.empty()) {
    CrashPoints::Global().Arm(plan.crash_point, plan.crash_occurrence);
  }

  // --- workload ------------------------------------------------------------
  std::vector<CheckpointSlot> ckpt_slots(static_cast<size_t>(plan.num_shards));
  uint64_t cross_txns = 0;
  WorkloadHooks hooks;
  hooks.outcome = [&](const OracleTxn& txn, const Status& s,
                      bool crashed_now) {
    // Every op writes, so the shards touched are the writers.
    uint64_t shards_touched = 0;
    for (const OracleOp& op : txn.ops) {
      shards_touched |= uint64_t{1}
                        << sharded->router().ShardOf(op.table, op.key);
    }
    const bool cross = std::popcount(shards_touched) > 1;
    if (cross) ++cross_txns;
    return CoordOutcome(s, crashed_now, cross);
  };
  hooks.checkpoint_every = plan.use_checkpoints ? plan.checkpoint_every : 0;
  hooks.checkpoint = [&] {
    for (int s = 0; s < plan.num_shards; ++s) {
      ckpt_slots[s].Save(sharded->shard(s)->TakeCheckpoint());
    }
  };
  auto conn = sharded->Connect();
  Ledger ledger = RunWorkload(seed, conn.get(), hooks, &rng, &result);
  if (!result.ok) return result;
  // Sync commits only: OK == acked == durable in this mode.
  if (!ResolveAcks(&ledger, &result)) return result;

  // --- 2PC ledger ----------------------------------------------------------
  const metrics::MetricsSnapshot delta =
      metrics::MetricsSnapshot::Delta(before, reg.TakeSnapshot());
  if (const std::vector<std::string> v = metrics::CheckLedger(delta, {"2pc"});
      !v.empty()) {
    return Failed(result, "ledger out of balance: " + v[0]);
  }

  // --- reboot --------------------------------------------------------------
  // Every shard's durable log image (plus an optional torn tail), decoded
  // independently — the post-reboot scan of every partition.
  std::vector<std::vector<log::RecoveredTxn>> streams(
      static_cast<size_t>(plan.num_shards));
  for (int s = 0; s < plan.num_shards; ++s) {
    const uint64_t tail = plan.torn_tail ? rng.Uniform(4 * 1024) : 0;
    const std::vector<uint8_t> image =
        sharded->shard(s)->redo_log().CrashImage(tail);
    const log::LogDecodeResult dr =
        log::DecodeLogImage(image, &streams[static_cast<size_t>(s)]);
    if (!dr.status.ok()) {
      return Failed(result, "shard " + std::to_string(s) +
                                " log decode failed: " + dr.status.ToString());
    }
  }
  CrashPoints::Global().Reset();

  // Presumed-abort resolution across all shard streams, then per-shard
  // replay into a fresh sharded engine (same shard count => same routing).
  engine::ShardedDatabaseConfig target_cfg;
  target_cfg.num_shards = plan.num_shards;
  target_cfg.shard.logical_redo = true;
  target_cfg.shard.row_work_ns = 0;
  target_cfg.shard.seed = seed + 2;
  auto target = std::make_unique<engine::ShardedDatabase>(target_cfg);
  SetupSchema(target.get());
  engine::TwoPhaseRecoveryStats tstats;
  for (int s = 0; s < plan.num_shards; ++s) {
    const std::vector<log::RecoveredTxn> filtered =
        engine::Filter2PCRedo(streams, static_cast<size_t>(s), &tstats);
    uint64_t start_after = 0;
    if (plan.use_checkpoints && ckpt_slots[s].saves > 0) {
      const std::optional<engine::Checkpoint> ckpt =
          ckpt_slots[s].store.LoadLatest();
      if (!ckpt.has_value()) {
        return Failed(result,
                      "shard " + std::to_string(s) +
                          " checkpoint failed to decode");
      }
      engine::RestoreCheckpoint(*ckpt, &target->shard(s)->catalog());
      start_after = ckpt->lsn;
    }
    engine::MySQLMini::RecoverInto(filtered, target->shard(s), start_after);
  }

  // Merged global state: shards hold disjoint key partitions.
  DbState recovered_state(kTables);
  for (int s = 0; s < plan.num_shards; ++s) {
    const DbState part = ExtractState(target->shard(s)->catalog());
    for (uint32_t t = 0; t < kTables; ++t) {
      for (const auto& [key, cols] : part[t]) {
        recovered_state[t][key] = cols;
      }
    }
  }

  // --- verification --------------------------------------------------------
  std::optional<uint64_t> prefix;
  if (std::string err = CheckPrefix(recovered_state, ledger, true, &prefix);
      !err.empty()) {
    return Failed(result, err);
  }
  result.recovered_prefix = *prefix;

  if (verbose) {
    std::printf(
        "seed %llu: shards=%d async=%d committed=%llu cross=%llu "
        "undecided=%d crash=%s ckpt=%d torn=%d 2pc[coord=%llu prep=%llu "
        "abort=%llu decide=%llu] recov[decisions=%llu prepares=%llu "
        "sections=%llu presumed=%llu]%s\n",
        static_cast<unsigned long long>(seed), plan.num_shards,
        plan.async_epoch ? 1 : 0,
        static_cast<unsigned long long>(result.committed),
        static_cast<unsigned long long>(cross_txns),
        ledger.undecided > 0 ? 1 : 0,
        ledger.crashed_by.empty() ? "none" : ledger.crashed_by.c_str(),
        plan.use_checkpoints ? 1 : 0, plan.torn_tail ? 1 : 0,
        static_cast<unsigned long long>(delta.counter("2pc.coordinated")),
        static_cast<unsigned long long>(delta.counter("2pc.prepared")),
        static_cast<unsigned long long>(delta.counter("2pc.aborted_presumed")),
        static_cast<unsigned long long>(delta.counter("2pc.decisions")),
        static_cast<unsigned long long>(tstats.replayed_decisions),
        static_cast<unsigned long long>(tstats.replayed_prepared),
        static_cast<unsigned long long>(tstats.replayed_sections),
        static_cast<unsigned long long>(tstats.presumed_aborted),
        plan.slow_participants ? " slow_participants=1" : "");
  }
  return result;
}

struct Mode {
  const char* name;
  SeedResult (*run)(uint64_t seed, const std::string& engine, bool verbose);
};

constexpr Mode kModes[] = {
    {"recovery", RunRecoverySeed},
    {"replica-kill", RunReplicaKillSeed},
    {"coordinator-crash", RunCoordinatorCrashSeed},
};

int Usage() {
  std::fprintf(stderr,
               "usage: tdp_crashtest "
               "[--mode=recovery|replica-kill|coordinator-crash] "
               "[--seed-start=N] [--seed-count=N] "
               "[--engine=mysql|pg|both] [--verbose]\n");
  return 2;
}

// A plain decimal uint64: no sign, no blanks, no trailing text.
bool ParseSeed(const char* v, uint64_t* out) {
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace
}  // namespace tdp

int main(int argc, char** argv) {
  uint64_t seeds = 200;
  uint64_t start_seed = 0;
  std::string engine = "both";
  const tdp::Mode* mode = &tdp::kModes[0];
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      return arg.compare(0, n, name) == 0 ? arg.c_str() + n : nullptr;
    };
    // --seed-start/--seed-count are the sharding spellings (one seed range
    // per CI shard); --start_seed/--seeds stay as aliases. A malformed or
    // zero count must not pass the gate by running no seeds.
    const char* v = nullptr;
    if ((v = val("--seeds=")) || (v = val("--seed-count="))) {
      if (!tdp::ParseSeed(v, &seeds) || seeds == 0) return tdp::Usage();
    } else if ((v = val("--start_seed=")) || (v = val("--seed-start="))) {
      if (!tdp::ParseSeed(v, &start_seed)) return tdp::Usage();
    } else if ((v = val("--engine="))) {
      engine = v;
      if (engine != "mysql" && engine != "pg" && engine != "both") {
        return tdp::Usage();
      }
    } else if ((v = val("--mode="))) {
      mode = nullptr;
      for (const tdp::Mode& m : tdp::kModes) {
        if (std::strcmp(v, m.name) == 0) mode = &m;
      }
      if (mode == nullptr) return tdp::Usage();
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      return tdp::Usage();
    }
  }
  if (start_seed + seeds < start_seed) return tdp::Usage();  // wraps

  uint64_t failures = 0, crashes = 0, committed = 0, acked = 0;
  uint64_t undecided = 0, dropped = 0, salvaged = 0;
  for (uint64_t seed = start_seed; seed < start_seed + seeds; ++seed) {
    const tdp::SeedResult r = mode->run(seed, engine, verbose);
    crashes += r.crashed ? 1 : 0;
    committed += r.committed;
    acked += r.acked;
    undecided += r.undecided;
    dropped += r.dropped;
    salvaged += r.salvaged ? 1 : 0;
    if (!r.ok) {
      ++failures;
      std::fprintf(stderr, "FAIL seed %llu: %s\n",
                   static_cast<unsigned long long>(seed), r.error.c_str());
    }
  }
  tdp::CrashPoints::Global().Reset();
  std::printf(
      "tdp_crashtest: %llu seeds, %llu crashed, %llu txns committed "
      "(%llu acked), %llu undecided, %llu dropped, %llu salvaged, "
      "%llu failures\n",
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(crashes),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(acked),
      static_cast<unsigned long long>(undecided),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(salvaged),
      static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
