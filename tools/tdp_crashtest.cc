// tdp_crashtest: deterministic crash-point fuzzer for the recovery stack
// (docs/recovery.md).
//
// Each seed runs one crash-recovery experiment end to end:
//
//   1. Build a fresh engine (mysqlmini or pgmini; pgmini alternates between
//      one and two WAL disks) with logical redo enabled, plus a shadow-model
//      oracle of the same schema.
//   2. Schedule a crash: arm a named crash point on its Nth hit, or arm a
//      FaultInjector kCrash window on the log device (some seeds run clean
//      to cover the no-crash path).
//   3. Run a single-threaded workload of small insert/update/delete
//      transactions, checkpointing every few transactions on half the
//      seeds. The oracle records every transaction whose commit call
//      returned without rolling back, and marks as *acked* those whose
//      Commit() returned OK before the crash flag tripped.
//   4. "Reboot": take the durable log image(s) — optionally with a torn
//      tail of unflushed bytes, optionally with one flipped bit
//      (corruption) — decode, restore the newest decodable checkpoint
//      (optionally tearing the newest to exercise the two-slot fallback),
//      and replay into a fresh engine.
//   5. Verify against the oracle:
//        * the recovered state equals the oracle's state after some prefix
//          of the committed transactions (never a non-prefix, never
//          garbage),
//        * the prefix covers every acked transaction (durability), except
//          on corruption seeds where durable bytes were deliberately
//          destroyed,
//        * corruption is always detected (DataLoss or a torn-tail stop —
//          never a clean decode of a flipped image),
//        * when a checkpoint was used, checkpoint+suffix recovery equals
//          full-log replay.
//
// Every decision derives from the seed, so a failing seed replays exactly:
//   tdp_crashtest --start_seed=<seed> --seeds=1 --verbose
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/crash_point.h"
#include "common/fault.h"
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

struct OracleTxn {
  std::vector<OracleOp> ops;
  bool acked = false;  ///< Commit() returned OK before the crash tripped.
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

/// Flips one bit somewhere in the image. Returns false when there is
/// nothing to corrupt.
bool FlipOneBit(std::vector<uint8_t>* image, Rng* rng) {
  if (image->empty()) return false;
  const size_t byte = rng->Uniform(image->size());
  (*image)[byte] ^= static_cast<uint8_t>(1u << rng->Uniform(8));
  return true;
}

struct SeedResult {
  bool ok = true;
  std::string error;
  bool crashed = false;
  uint64_t committed = 0;
  uint64_t acked = 0;
  uint64_t recovered_prefix = 0;
};

SeedResult RunSeed(uint64_t seed, const std::string& engine_filter,
                   bool verbose) {
  SeedResult result;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE);
  const SeedPlan plan = MakePlan(seed, engine_filter, &rng);

  CrashPoints::Global().Reset();

  SimDiskConfig quick_disk;
  quick_disk.base_latency_ns = 1000;
  quick_disk.sigma = 0.0;
  quick_disk.flush_barrier_ns = 2000;
  quick_disk.seed = seed + 7;

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
    engine::MySQLMiniConfig cfg;
    cfg.logical_redo = true;
    cfg.row_work_ns = 0;
    cfg.flush_policy = log::FlushPolicy::kEagerFlush;
    cfg.log_group_commit = plan.group_commit;
    cfg.log_async_commit = plan.async_epoch;
    cfg.log_epoch_interval_ns = 200 * 1000;
    cfg.data_disk = quick_disk;
    cfg.log_disk = log_disk;
    cfg.seed = seed + 1;
    mysql = std::make_unique<engine::MySQLMini>(cfg);
    db = mysql.get();
  }
  SetupSchema(db);

  if (!plan.crash_point.empty()) {
    CrashPoints::Global().Arm(plan.crash_point, plan.crash_occurrence);
  }
  if (plan.fault_crash) injector.Arm();

  // --- workload ------------------------------------------------------------
  std::vector<OracleTxn> committed;
  // Async seeds: per-txn ack outcome, written by the epoch thread and read
  // only after the log is stopped (which resolves every pending ack).
  struct AckState {
    std::mutex mu;
    bool fired = false;
    bool ok = false;
  };
  std::vector<std::shared_ptr<AckState>> ack_states;  // parallel to committed
  DbState shadow = PreloadState();
  engine::CheckpointStore ckpt_store;
  uint64_t ckpt_saves = 0;
  auto conn = db->Connect();

  for (int i = 0; i < kMaxTxns; ++i) {
    if (CrashPoints::Global().triggered()) break;
    // Build the transaction against a scratch copy of the shadow, so the
    // oracle's after-images match what the engine computes.
    DbState scratch = shadow;
    OracleTxn txn;
    const int nops = 1 + static_cast<int>(rng.Uniform(3));
    for (int o = 0; o < nops; ++o) {
      OracleOp op;
      op.table = static_cast<uint32_t>(rng.Uniform(kTables));
      op.key = rng.Uniform(kKeySpace);
      TableState& ts = scratch[op.table];
      auto it = ts.find(op.key);
      if (it == ts.end()) {
        op.kind = OracleOp::Kind::kInsert;
        op.after = {static_cast<int64_t>(op.key * 3 + 1),
                    static_cast<int64_t>(seed & 0xFF)};
        ts[op.key] = op.after;
      } else if (rng.Bernoulli(0.2)) {
        op.kind = OracleOp::Kind::kDelete;
        ts.erase(it);
      } else {
        // Delta update of col 0; the after-image the engine will log is the
        // scratch row after the increment (engine and shadow rows agree by
        // induction: every committed mutation is mirrored).
        op.kind = OracleOp::Kind::kUpdate;
        op.delta = static_cast<int64_t>(1 + rng.Uniform(9));
        op.after = it->second;
        op.after[0] += op.delta;
        it->second = op.after;
      }
      txn.ops.push_back(std::move(op));
    }

    if (!conn->Begin().ok()) break;
    bool op_failed = false;
    for (const OracleOp& op : txn.ops) {
      Status s;
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
      if (!s.ok()) {
        op_failed = true;
        break;
      }
    }
    if (op_failed) {
      conn->Rollback();
      if (CrashPoints::Global().triggered()) break;
      continue;
    }
    Status cs;
    std::shared_ptr<AckState> ack_state;
    if (plan.async_epoch) {
      ack_state = std::make_shared<AckState>();
      cs = conn->CommitAsync([ack_state](const Status& s) {
        std::lock_guard<std::mutex> g(ack_state->mu);
        ack_state->fired = true;
        ack_state->ok = s.ok();
      });
    } else {
      cs = conn->Commit();
    }
    const bool crashed_now = CrashPoints::Global().triggered();
    if (cs.ok()) {
      // Engine state now includes this transaction (commit did not roll
      // back), whether or not it is durable. Async acked-ness is resolved
      // after the log stops, from the ack itself.
      txn.acked = !plan.async_epoch && !crashed_now;
      committed.push_back(txn);
      ack_states.push_back(std::move(ack_state));
      shadow = std::move(scratch);
    }
    if (crashed_now) break;

    if (plan.use_checkpoints &&
        committed.size() % plan.checkpoint_every == 0 && !committed.empty()) {
      // TakeCheckpoint enforces the write-ahead rule (forces the log
      // durable through every assigned LSN). A refusal — the force tripped
      // the crash or stalled — aborts this checkpoint, like a real system;
      // the store keeps the previous snapshot.
      const Result<engine::Checkpoint> ckpt =
          plan.use_pg ? pgdb->TakeCheckpoint() : mysql->TakeCheckpoint();
      if (ckpt.ok()) {
        ckpt_store.Save(engine::EncodeCheckpoint(ckpt.value()));
        ++ckpt_saves;
      }
    }
  }

  result.crashed = CrashPoints::Global().triggered();
  result.committed = committed.size();
  const std::string crashed_by = CrashPoints::Global().triggered_by();

  // --- reboot --------------------------------------------------------------
  // Images are cut from the durable watermarks, so reading them after Reset
  // is exactly what a post-reboot log scan would see.
  std::vector<std::vector<uint8_t>> images;
  if (plan.use_pg) {
    // CrashImages does not stop the epoch thread; stop explicitly so the
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
  // The log is stopped: every async ack has fired exactly once. A txn is
  // acked iff its ack reported OK — i.e. the client was told it survived.
  for (size_t i = 0; i < committed.size(); ++i) {
    if (ack_states[i] == nullptr) continue;
    std::lock_guard<std::mutex> g(ack_states[i]->mu);
    if (!ack_states[i]->fired) {
      result.ok = false;
      result.error = "async ack never resolved after log stop";
      return result;
    }
    committed[i].acked = ack_states[i]->ok;
  }
  for (const OracleTxn& t : committed) {
    if (t.acked) ++result.acked;
  }
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
  size_t image_total = 0, valid_total = 0;
  if (plan.use_pg) {
    const pg::WalManager::RecoveryResult rr =
        pg::WalManager::RecoverCommitted(images, &recovered);
    decode_detected_damage = !rr.status.ok() || rr.torn_sets > 0;
    for (const auto& img : images) image_total += img.size();
    valid_total = image_total;  // per-set valid bytes not surfaced; use flag
  } else {
    const log::LogDecodeResult dr = log::DecodeLogImage(images[0], &recovered);
    decode_detected_damage =
        !dr.status.ok() || dr.torn_tail || dr.valid_bytes < images[0].size();
    image_total = images[0].size();
    valid_total = dr.valid_bytes;
  }
  (void)valid_total;

  std::optional<engine::Checkpoint> ckpt;
  if (plan.use_checkpoints && ckpt_saves > 0) {
    if (plan.tear_checkpoint) {
      ckpt_store.TearNewest(rng.Uniform(64));
    }
    ckpt = ckpt_store.LoadLatest();
    if (!ckpt.has_value() && !plan.tear_checkpoint) {
      result.ok = false;
      result.error = "saved checkpoint failed to decode";
      return result;
    }
    if (!ckpt.has_value() && ckpt_saves >= 2) {
      // Tearing destroys at most the newest slot; with two saves the older
      // slot must still decode.
      result.ok = false;
      result.error = "two-slot store lost both checkpoints to one tear";
      return result;
    }
  }

  auto make_target = [&]() -> std::pair<std::unique_ptr<engine::Database>,
                                        storage::Catalog*> {
    if (plan.use_pg) {
      pg::PgMiniConfig cfg;
      cfg.logical_redo = true;
      cfg.row_work_ns = 0;
      cfg.predicate_check_ns = 0;
      cfg.wal.num_log_sets = plan.pg_log_sets;
      cfg.seed = seed + 2;
      auto target = std::make_unique<pg::PgMini>(cfg);
      storage::Catalog* cat = &target->catalog();
      SetupSchema(target.get());
      return {std::move(target), cat};
    }
    engine::MySQLMiniConfig cfg;
    cfg.logical_redo = true;
    cfg.row_work_ns = 0;
    cfg.seed = seed + 2;
    auto target = std::make_unique<engine::MySQLMini>(cfg);
    storage::Catalog* cat = &target->catalog();
    SetupSchema(target.get());
    return {std::move(target), cat};
  };

  auto recover_into = [&](engine::Database* target, uint64_t start_after) {
    if (plan.use_pg) {
      pg::PgMini::RecoverInto(recovered, target, start_after);
    } else {
      engine::MySQLMini::RecoverInto(recovered, target, start_after);
    }
  };

  auto [target, target_catalog] = make_target();
  if (ckpt.has_value()) {
    engine::RestoreCheckpoint(*ckpt, target_catalog);
    recover_into(target.get(), ckpt->lsn);
  } else {
    recover_into(target.get(), 0);
  }
  const DbState recovered_state = ExtractState(*target_catalog);

  // --- verification --------------------------------------------------------
  // (1) Prefix property: the recovered state must equal the oracle state
  // after some prefix of the committed transactions. Some seeds can
  // legitimately break this: pg's parallel WAL salvages every decodable
  // frame across sets by contract (see tests/pg_recovery_test.cc), so a
  // mid-stream LSN hole — one set's frames lost to a flipped bit or a torn
  // tail while another set's survive, or the epoch thread caught mid-way
  // through its per-set barriers — yields a non-prefix mixture. For those
  // seeds only, fall back to salvage equivalence: the recovered state must
  // equal checkpoint-base + every decoded frame above the stamp.
  DbState prefix_state = PreloadState();
  std::optional<uint64_t> matched_prefix;
  if (recovered_state == prefix_state) matched_prefix = 0;
  for (size_t k = 0; k < committed.size(); ++k) {
    ApplyTxn(committed[k], &prefix_state);
    if (recovered_state == prefix_state) matched_prefix = k + 1;
  }
  const bool holes_possible =
      corrupted || (plan.use_pg && plan.pg_log_sets > 1 &&
                    (plan.torn_tail || plan.async_epoch));
  if (matched_prefix.has_value()) {
    result.recovered_prefix = *matched_prefix;
  } else if (!holes_possible) {
    result.ok = false;
    result.error =
        "recovered state matches no committed prefix (" +
        DescribeDiff(recovered_state, prefix_state) + " vs full state)";
    return result;
  } else {
    const DbState salvage = SalvageModelState(ckpt, recovered);
    if (recovered_state != salvage) {
      result.ok = false;
      result.error = "holed recovery diverges from the salvage model (" +
                     DescribeDiff(recovered_state, salvage) + ")";
      return result;
    }
    // Durability in the salvage regime: acked frames were barriered durable
    // on every set before the ack fired, so unless the corruption landed on
    // them they must all still be in the decoded stream.
    if (!corrupted && recovered.size() < result.acked) {
      result.ok = false;
      result.error = "acked transaction missing from salvaged stream: " +
                     std::to_string(recovered.size()) + " decoded < acked " +
                     std::to_string(result.acked);
      return result;
    }
  }

  // (2) Durability: every acked transaction is recovered. Waived when we
  // deliberately destroyed durable bytes (corruption seeds); the salvage
  // fallback above carries its own version of this check.
  if (!corrupted && matched_prefix.has_value() &&
      *matched_prefix < result.acked) {
    result.ok = false;
    result.error = "acked transaction lost: recovered prefix " +
                   std::to_string(*matched_prefix) + " < acked " +
                   std::to_string(result.acked) +
                   (crashed_by.empty() ? "" : " (crash via " + crashed_by + ")");
    return result;
  }

  // (3) Corruption detection: a flipped bit never decodes cleanly.
  if (corrupted && !decode_detected_damage) {
    result.ok = false;
    result.error = "silent corruption: flipped image decoded clean";
    return result;
  }

  // (4) Checkpoint path agrees with full replay. Skipped on corruption
  // seeds: a checkpoint covering transactions the damaged log can no longer
  // reconstruct is the point of checkpoints, not a divergence.
  if (ckpt.has_value() && !corrupted) {
    auto [full, full_catalog] = make_target();
    recover_into(full.get(), 0);
    const DbState full_state = ExtractState(*full_catalog);
    if (full_state != recovered_state) {
      result.ok = false;
      result.error = "checkpoint+suffix recovery diverges from full replay (" +
                     DescribeDiff(recovered_state, full_state) + ")";
      return result;
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
        crashed_by.empty() ? "none" : crashed_by.c_str(),
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
// disk died with it — and replay is verified against the oracle:
//
//   * the recovered state equals the oracle after some prefix of the
//     submitted commits (never a mixture — this is what rules out
//     double-apply of an unacknowledged commit),
//   * the prefix covers every quorum-acknowledged commit (a client that saw
//     OK never loses its transaction under any single failure),
//   * on kill/clean seeds every submitted commit acked OK (one dead
//     minority replica never blocks commit), and
//   * the ack ledger balances: commits_submitted == acks_quorum + acks_lost
//     once the log stops.

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
};

ReplPlan MakeReplPlan(Rng* rng) {
  ReplPlan plan;
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

SeedResult RunReplicaKillSeed(uint64_t seed, bool verbose) {
  SeedResult result;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x0E91);
  const ReplPlan plan = MakeReplPlan(&rng);

  CrashPoints::Global().Reset();

  SimDiskConfig quick_disk;
  quick_disk.base_latency_ns = 1000;
  quick_disk.sigma = 0.0;
  quick_disk.flush_barrier_ns = 2000;
  quick_disk.seed = seed + 7;

  engine::MySQLMiniConfig cfg;
  cfg.logical_redo = true;
  cfg.row_work_ns = 0;
  cfg.flush_policy = log::FlushPolicy::kEagerFlush;
  cfg.log_async_commit = plan.async_epoch;
  cfg.log_epoch_interval_ns = 200 * 1000;
  cfg.data_disk = quick_disk;
  cfg.log_disk = quick_disk;
  cfg.repl_replicas = plan.replicas;
  cfg.repl_disk = quick_disk;
  cfg.seed = seed + 1;
  auto mysql = std::make_unique<engine::MySQLMini>(cfg);
  SetupSchema(mysql.get());
  repl::QuorumLog* ql = mysql->quorum_log();

  if (plan.arm == ReplPlan::Arm::kCrashPoint) {
    CrashPoints::Global().Arm(plan.crash_point, plan.crash_occurrence);
  }

  // --- workload ------------------------------------------------------------
  std::vector<OracleTxn> committed;
  struct AckState {
    std::mutex mu;
    bool fired = false;
    bool ok = false;
  };
  std::vector<std::shared_ptr<AckState>> ack_states;  // parallel to committed
  DbState shadow = PreloadState();
  engine::CheckpointStore ckpt_store;
  uint64_t ckpt_saves = 0;
  uint64_t acked_sync = 0;
  bool failed_over = false;
  auto conn = mysql->Connect();

  for (int i = 0; i < kMaxTxns; ++i) {
    if (CrashPoints::Global().triggered()) break;
    DbState scratch = shadow;
    OracleTxn txn;
    const int nops = 1 + static_cast<int>(rng.Uniform(3));
    for (int o = 0; o < nops; ++o) {
      OracleOp op;
      op.table = static_cast<uint32_t>(rng.Uniform(kTables));
      op.key = rng.Uniform(kKeySpace);
      TableState& ts = scratch[op.table];
      auto it = ts.find(op.key);
      if (it == ts.end()) {
        op.kind = OracleOp::Kind::kInsert;
        op.after = {static_cast<int64_t>(op.key * 3 + 1),
                    static_cast<int64_t>(seed & 0xFF)};
        ts[op.key] = op.after;
      } else if (rng.Bernoulli(0.2)) {
        op.kind = OracleOp::Kind::kDelete;
        ts.erase(it);
      } else {
        op.kind = OracleOp::Kind::kUpdate;
        op.delta = static_cast<int64_t>(1 + rng.Uniform(9));
        op.after = it->second;
        op.after[0] += op.delta;
        it->second = op.after;
      }
      txn.ops.push_back(std::move(op));
    }

    if (!conn->Begin().ok()) break;
    bool op_failed = false;
    for (const OracleOp& op : txn.ops) {
      Status s;
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
      if (!s.ok()) {
        op_failed = true;
        break;
      }
    }
    if (op_failed) {
      conn->Rollback();
      if (CrashPoints::Global().triggered()) break;
      continue;
    }
    Status cs;
    std::shared_ptr<AckState> ack_state;
    if (plan.async_epoch) {
      ack_state = std::make_shared<AckState>();
      cs = conn->CommitAsync([ack_state](const Status& s) {
        std::lock_guard<std::mutex> g(ack_state->mu);
        ack_state->fired = true;
        ack_state->ok = s.ok();
      });
    } else {
      cs = conn->Commit();
    }
    const bool crashed_now = CrashPoints::Global().triggered();
    if (cs.ok()) {
      // Sync: OK means the quorum ack fired — the frame is durable on a
      // quorum of copies and MUST survive any single failure. Async
      // acked-ness resolves from the parked ack after the log stops.
      txn.acked = !plan.async_epoch;
      acked_sync += txn.acked ? 1 : 0;
      committed.push_back(std::move(txn));
      ack_states.push_back(std::move(ack_state));
      shadow = std::move(scratch);
    } else if (cs.IsUnavailable()) {
      // Quorum unreachable / failover window: the frame was appended to the
      // leader's log but the client saw a retryable error — the outcome is
      // undecided, so the oracle records it unacked (it MAY recover).
      txn.acked = false;
      committed.push_back(std::move(txn));
      ack_states.push_back(nullptr);
      shadow = std::move(scratch);
    }
    if (crashed_now) break;

    // Failure arms trigger on commit-count thresholds so every seed replays
    // exactly.
    if (plan.arm == ReplPlan::Arm::kKillReplica &&
        committed.size() == plan.kill_at_commit) {
      ql->KillReplica(plan.kill_replica);
    }
    if (plan.arm == ReplPlan::Arm::kFailover && !failed_over &&
        committed.size() >= plan.failover_at_commit) {
      ql->Failover();
      ql->CatchUpReplicas();
      failed_over = true;
    }

    if (plan.use_checkpoints &&
        committed.size() % plan.checkpoint_every == 0 && !committed.empty()) {
      const Result<engine::Checkpoint> ckpt = mysql->TakeCheckpoint();
      if (ckpt.ok()) {
        ckpt_store.Save(engine::EncodeCheckpoint(ckpt.value()));
        ++ckpt_saves;
      }
    }
  }

  result.crashed = CrashPoints::Global().triggered();
  result.committed = committed.size();
  const std::string crashed_by = CrashPoints::Global().triggered_by();

  // Non-crash seeds: drain the in-flight epoch/ship pipeline so the
  // availability assertion below sees final ack outcomes, not a race with
  // the epoch timer.
  if (!result.crashed && plan.async_epoch) {
    for (int spin = 0; spin < 20000; ++spin) {
      bool all_fired = true;
      for (const auto& st : ack_states) {
        if (st == nullptr) continue;
        std::lock_guard<std::mutex> g(st->mu);
        if (!st->fired) {
          all_fired = false;
          break;
        }
      }
      if (all_fired) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  // --- reboot --------------------------------------------------------------
  // CrashImages stops the leader then the quorum layer (resolving every
  // parked ack), and returns each copy's durable prefix plus up to `tail`
  // torn bytes: exactly what a post-reboot scan of every node would see.
  const uint64_t tail = plan.torn_tail ? rng.Uniform(4 * 1024) : 0;
  std::vector<std::vector<uint8_t>> images = ql->CrashImages(tail);

  for (size_t i = 0; i < committed.size(); ++i) {
    if (ack_states[i] == nullptr) continue;
    std::lock_guard<std::mutex> g(ack_states[i]->mu);
    if (!ack_states[i]->fired) {
      result.ok = false;
      result.error = "async ack never resolved after log stop";
      return result;
    }
    committed[i].acked = ack_states[i]->ok;
  }
  for (const OracleTxn& t : committed) {
    if (t.acked) ++result.acked;
  }
  // The epoch timer keeps hitting its crash sites after the workload loop
  // exits, so an armed point can trip during the drain or the image cut —
  // re-read the flag before asserting availability.
  const bool crashed_at_all = CrashPoints::Global().triggered();
  result.crashed = crashed_at_all;
  CrashPoints::Global().Reset();

  // Ack ledger: every submitted commit resolved exactly one way.
  const repl::QuorumLog::Stats& qs = ql->stats();
  if (qs.commits_submitted.load() !=
      qs.acks_quorum.load() + qs.acks_lost.load()) {
    result.ok = false;
    result.error =
        "ack ledger out of balance: submitted " +
        std::to_string(qs.commits_submitted.load()) + " != quorum " +
        std::to_string(qs.acks_quorum.load()) + " + lost " +
        std::to_string(qs.acks_lost.load());
    return result;
  }

  // Availability: with no crash and at most one dead minority replica (or a
  // completed failover drill), every submitted commit must have acked OK.
  if (!crashed_at_all && plan.arm != ReplPlan::Arm::kFailover &&
      result.acked != result.committed) {
    result.ok = false;
    result.error = "commit lost availability under single failure: acked " +
                   std::to_string(result.acked) + " < committed " +
                   std::to_string(result.committed);
    return result;
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
  const std::vector<log::RecoveredTxn>& recovered = election.txns;

  std::optional<engine::Checkpoint> ckpt;
  if (!plan.leader_lost && plan.use_checkpoints && ckpt_saves > 0) {
    ckpt = ckpt_store.LoadLatest();
    if (!ckpt.has_value()) {
      result.ok = false;
      result.error = "saved checkpoint failed to decode";
      return result;
    }
  }

  engine::MySQLMiniConfig target_cfg;
  target_cfg.logical_redo = true;
  target_cfg.row_work_ns = 0;
  target_cfg.seed = seed + 2;
  auto target = std::make_unique<engine::MySQLMini>(target_cfg);
  SetupSchema(target.get());
  if (ckpt.has_value()) {
    engine::RestoreCheckpoint(*ckpt, &target->catalog());
    engine::MySQLMini::RecoverInto(recovered, target.get(), ckpt->lsn);
  } else {
    engine::MySQLMini::RecoverInto(recovered, target.get(), 0);
  }
  const DbState recovered_state = ExtractState(target->catalog());

  // --- verification --------------------------------------------------------
  // (1) Prefix property. Every copy is a byte-prefix of the one leader
  // stream, so the elected image always decodes to an LSN-prefix — a
  // non-prefix (or any double-applied delta) is a bug, no salvage regime.
  DbState prefix_state = PreloadState();
  std::optional<uint64_t> matched_prefix;
  if (recovered_state == prefix_state) matched_prefix = 0;
  for (size_t k = 0; k < committed.size(); ++k) {
    ApplyTxn(committed[k], &prefix_state);
    if (recovered_state == prefix_state) matched_prefix = k + 1;
  }
  if (!matched_prefix.has_value()) {
    result.ok = false;
    result.error = "recovered state matches no committed prefix (" +
                   DescribeDiff(recovered_state, prefix_state) +
                   " vs full state)";
    return result;
  }
  result.recovered_prefix = *matched_prefix;

  // (2) Durability: every quorum-acked commit is in the recovered prefix —
  // even when the leader's own copy was lost, because a quorum-acked frame
  // is durable on >= quorum copies and copies are prefixes of one stream,
  // so the longest surviving replica holds all of them.
  if (*matched_prefix < result.acked) {
    result.ok = false;
    result.error =
        "acked transaction lost: recovered prefix " +
        std::to_string(*matched_prefix) + " < acked " +
        std::to_string(result.acked) +
        (crashed_by.empty() ? "" : " (crash via " + crashed_by + ")") +
        (plan.leader_lost ? " [leader lost]" : "");
    return result;
  }

  if (verbose) {
    static const char* kArmNames[] = {"clean", "crash", "kill", "failover"};
    std::printf(
        "seed %llu: repl K=%d arm=%s%s async=%d committed=%llu acked=%llu "
        "prefix=%llu crash=%s leader_lost=%d torn=%d winner=%d frames=%llu\n",
        static_cast<unsigned long long>(seed), plan.replicas,
        kArmNames[static_cast<int>(plan.arm)],
        plan.arm == ReplPlan::Arm::kCrashPoint
            ? ("(" + plan.crash_point + ")").c_str()
            : "",
        plan.async_epoch ? 1 : 0,
        static_cast<unsigned long long>(result.committed),
        static_cast<unsigned long long>(result.acked),
        static_cast<unsigned long long>(result.recovered_prefix),
        crashed_by.empty() ? "none" : crashed_by.c_str(),
        plan.leader_lost ? 1 : 0, plan.torn_tail ? 1 : 0, election.winner,
        static_cast<unsigned long long>(election.frames));
  }
  return result;
}

// ---------------------------------------------------------------------------
// --mode=coordinator-crash: the cross-shard 2PC harness (docs/sharding.md).
//
// Each seed runs a 2/3/4-shard ShardedDatabase through a single-threaded
// mixed workload (random keys hash to a natural mix of single- and
// cross-shard transactions), optionally crashing at one of the coordinator's
// protocol instants — 2pc.pre_prepare (before any participant prepared),
// 2pc.pre_decide (prepares durable, decision not yet), 2pc.pre_ack
// (decision durable, participant commits not yet) — or at the generic redo.*
// commit sites, or not at all. Per-shard checkpoints and torn log tails ride
// along on some seeds; half the seeds run epoch async commit, so the
// prepare fan-out parks on several shards' epochs at once and the crash can
// land on any of their epoch threads.
//
// At reboot every shard's crash image is decoded independently, 2PC outcomes
// are resolved across the streams with engine::Filter2PCRedo (presumed
// abort), each filtered stream replays into a fresh shard, and the merged
// state is verified against the shadow oracle:
//
//   * ATOMICITY: the merged state equals the oracle after every OK-committed
//     transaction, optionally extended by THE one undecided tail transaction
//     (a commit whose decision durability the crash left ambiguous) applied
//     in full. A cross-shard transaction recovered on some shards but not
//     others matches neither state and fails the seed.
//   * DURABILITY: every transaction whose Commit() returned OK before the
//     crash point fired recovers — single-shard commits force their frame,
//     2PC forces PREPARE and DECISION frames. An OK returned after the
//     crash fired is ambiguous (the single-shard eager path degrades on a
//     dark device instead of failing the commit) and joins the undecided
//     tail.
//   * PRESUMED ABORT: a prepare-phase abort (no decision logged) never
//     resurrects, even when its prepare frames survive in a torn tail.
//   * LEDGER: 2pc.prepared + 2pc.aborted_presumed == 2pc.coordinated over
//     the seed (the bench_suites invariant, checked at fuzzer granularity).

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
  return plan;
}

SeedResult RunCoordinatorCrashSeed(uint64_t seed, bool verbose) {
  SeedResult result;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x2FC0);
  const CoordPlan plan = MakeCoordPlan(seed, &rng);

  CrashPoints::Global().Reset();

  SimDiskConfig quick_disk;
  quick_disk.base_latency_ns = 1000;
  quick_disk.sigma = 0.0;
  quick_disk.flush_barrier_ns = 2000;
  quick_disk.seed = seed + 7;

  engine::ShardedDatabaseConfig cfg;
  cfg.num_shards = plan.num_shards;
  cfg.shard.logical_redo = true;
  cfg.shard.row_work_ns = 0;
  cfg.shard.flush_policy = log::FlushPolicy::kEagerFlush;
  cfg.shard.log_async_commit = plan.async_epoch;
  cfg.shard.data_disk = quick_disk;
  cfg.shard.log_disk = quick_disk;
  cfg.shard.seed = seed + 1;
  auto sharded = std::make_unique<engine::ShardedDatabase>(cfg);
  SetupSchema(sharded.get());

  auto& reg = metrics::Registry::Global();
  metrics::Counter* c_coordinated = reg.GetCounter("2pc.coordinated");
  metrics::Counter* c_prepared = reg.GetCounter("2pc.prepared");
  metrics::Counter* c_aborted = reg.GetCounter("2pc.aborted_presumed");
  metrics::Counter* c_decisions = reg.GetCounter("2pc.decisions");
  const uint64_t coordinated0 = c_coordinated->value();
  const uint64_t prepared0 = c_prepared->value();
  const uint64_t aborted0 = c_aborted->value();
  const uint64_t decisions0 = c_decisions->value();

  if (!plan.crash_point.empty()) {
    CrashPoints::Global().Arm(plan.crash_point, plan.crash_occurrence);
  }

  // --- workload ------------------------------------------------------------
  std::vector<OracleTxn> committed;
  // The at-most-one transaction whose final commit failed with its frames
  // possibly in a torn tail: recovery may legitimately surface it — in full
  // on every shard it touched, or not at all.
  std::optional<OracleTxn> undecided;
  DbState shadow = PreloadState();
  std::vector<engine::CheckpointStore> ckpt_stores(
      static_cast<size_t>(plan.num_shards));
  std::vector<uint64_t> ckpt_saves(static_cast<size_t>(plan.num_shards), 0);
  uint64_t cross_txns = 0;
  auto conn = sharded->Connect();

  for (int i = 0; i < kMaxTxns; ++i) {
    if (CrashPoints::Global().triggered()) break;
    DbState scratch = shadow;
    OracleTxn txn;
    const int nops = 1 + static_cast<int>(rng.Uniform(3));
    for (int o = 0; o < nops; ++o) {
      OracleOp op;
      op.table = static_cast<uint32_t>(rng.Uniform(kTables));
      op.key = rng.Uniform(kKeySpace);
      TableState& ts = scratch[op.table];
      auto it = ts.find(op.key);
      if (it == ts.end()) {
        op.kind = OracleOp::Kind::kInsert;
        op.after = {static_cast<int64_t>(op.key * 3 + 1),
                    static_cast<int64_t>(seed & 0xFF)};
        ts[op.key] = op.after;
      } else if (rng.Bernoulli(0.2)) {
        op.kind = OracleOp::Kind::kDelete;
        ts.erase(it);
      } else {
        op.kind = OracleOp::Kind::kUpdate;
        op.delta = static_cast<int64_t>(1 + rng.Uniform(9));
        op.after = it->second;
        op.after[0] += op.delta;
        it->second = op.after;
      }
      txn.ops.push_back(std::move(op));
    }

    if (!conn->Begin().ok()) break;
    bool op_failed = false;
    for (const OracleOp& op : txn.ops) {
      Status s;
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
      if (!s.ok()) {
        op_failed = true;
        break;
      }
    }
    if (op_failed) {
      // Rolled back before commit: no redo was logged, recovery must never
      // see it.
      conn->Rollback();
      if (CrashPoints::Global().triggered()) break;
      continue;
    }
    uint64_t shards_touched = 0;
    for (const OracleOp& op : txn.ops) {
      shards_touched |= uint64_t{1}
                        << sharded->router().ShardOf(op.table, op.key);
    }
    if ((shards_touched & (shards_touched - 1)) != 0) ++cross_txns;

    const uint64_t aborted_before = c_aborted->value();
    const Status cs = conn->Commit();
    const bool crashed_now = CrashPoints::Global().triggered();
    if (cs.ok() && !crashed_now) {
      // Forced durable with a healthy device (single-shard sync commit, or
      // 2PC prepare+decision forces): OK means this transaction MUST
      // recover.
      txn.acked = true;
      committed.push_back(std::move(txn));
      shadow = std::move(scratch);
    } else if (cs.ok()) {
      // The crash fired inside this commit. The 2PC forces report a dark
      // device, but the single-shard eager path degrades instead of failing
      // the commit (log.degraded_commits), so OK here does NOT imply the
      // frame reached the durable cut: treat it as the undecided tail —
      // recovery may surface it in full or not at all.
      undecided = std::move(txn);
    } else if (c_aborted->value() != aborted_before) {
      // Prepare-phase abort: rolled back everywhere, no decision logged.
      // Presumed abort at recovery — it must NOT resurrect. Nothing to
      // record: it belongs to no acceptable state.
    } else {
      // Single-shard flush failure or ambiguous 2PC decision: frames are in
      // the append stream past the durable cut — a torn tail may reveal
      // them. Recovery may apply it fully or drop it; half is a violation.
      undecided = std::move(txn);
    }
    if (CrashPoints::Global().triggered()) break;
    if (!cs.ok()) break;  // non-crash commit failures should not happen

    if (plan.use_checkpoints &&
        committed.size() % plan.checkpoint_every == 0 && !committed.empty()) {
      for (int s = 0; s < plan.num_shards; ++s) {
        const Result<engine::Checkpoint> ckpt =
            sharded->shard(s)->TakeCheckpoint();
        if (ckpt.ok()) {
          ckpt_stores[static_cast<size_t>(s)].Save(
              engine::EncodeCheckpoint(ckpt.value()));
          ++ckpt_saves[static_cast<size_t>(s)];
        }
      }
    }
  }

  result.crashed = CrashPoints::Global().triggered();
  result.committed = committed.size();
  result.acked = committed.size();  // OK == acked == durable in this mode
  const std::string crashed_by = CrashPoints::Global().triggered_by();

  // --- 2PC ledger (bench_suites invariant at fuzzer granularity) -----------
  const uint64_t coordinated_d = c_coordinated->value() - coordinated0;
  const uint64_t prepared_d = c_prepared->value() - prepared0;
  const uint64_t aborted_d = c_aborted->value() - aborted0;
  const uint64_t decisions_d = c_decisions->value() - decisions0;
  if (prepared_d + aborted_d != coordinated_d) {
    result.ok = false;
    result.error = "2pc ledger out of balance: prepared " +
                   std::to_string(prepared_d) + " + aborted_presumed " +
                   std::to_string(aborted_d) + " != coordinated " +
                   std::to_string(coordinated_d);
    return result;
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
    // Torn-tail stops are expected; DataLoss would be a framing bug.
    const log::LogDecodeResult dr =
        log::DecodeLogImage(image, &streams[static_cast<size_t>(s)]);
    if (!dr.status.ok()) {
      result.ok = false;
      result.error = "shard " + std::to_string(s) +
                     " log decode failed: " + dr.status.ToString();
      return result;
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
    if (plan.use_checkpoints && ckpt_saves[static_cast<size_t>(s)] > 0) {
      const std::optional<engine::Checkpoint> ckpt =
          ckpt_stores[static_cast<size_t>(s)].LoadLatest();
      if (!ckpt.has_value()) {
        result.ok = false;
        result.error =
            "shard " + std::to_string(s) + " checkpoint failed to decode";
        return result;
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
  // Every OK commit was forced durable, so the only acceptable states are
  // "all committed" and "all committed + the undecided tail in full". This
  // subsumes atomicity: a cross-shard transaction applied on a strict
  // subset of its shards matches neither.
  DbState want = PreloadState();
  for (const OracleTxn& t : committed) ApplyTxn(t, &want);
  if (recovered_state == want) {
    result.recovered_prefix = committed.size();
  } else if (undecided.has_value()) {
    DbState want_undecided = want;
    ApplyTxn(*undecided, &want_undecided);
    if (recovered_state == want_undecided) {
      result.recovered_prefix = committed.size() + 1;
    } else {
      result.ok = false;
      result.error =
          "2PC atomicity violation: recovered state is neither all-committed"
          " (" +
          DescribeDiff(recovered_state, want) +
          ") nor committed+undecided (" +
          DescribeDiff(recovered_state, want_undecided) + ")" +
          (crashed_by.empty() ? "" : " [crash via " + crashed_by + "]");
      return result;
    }
  } else {
    result.ok = false;
    result.error = "recovered state diverges from the committed set (" +
                   DescribeDiff(recovered_state, want) + ")" +
                   (crashed_by.empty() ? "" : " [crash via " + crashed_by +
                                                  "]");
    return result;
  }

  if (verbose) {
    std::printf(
        "seed %llu: shards=%d async=%d committed=%llu cross=%llu "
        "undecided=%d crash=%s ckpt=%d torn=%d 2pc[coord=%llu prep=%llu "
        "abort=%llu decide=%llu] recov[decisions=%llu prepares=%llu "
        "presumed=%llu]\n",
        static_cast<unsigned long long>(seed), plan.num_shards,
        plan.async_epoch ? 1 : 0,
        static_cast<unsigned long long>(result.committed),
        static_cast<unsigned long long>(cross_txns),
        undecided.has_value() ? 1 : 0,
        crashed_by.empty() ? "none" : crashed_by.c_str(),
        plan.use_checkpoints ? 1 : 0, plan.torn_tail ? 1 : 0,
        static_cast<unsigned long long>(coordinated_d),
        static_cast<unsigned long long>(prepared_d),
        static_cast<unsigned long long>(aborted_d),
        static_cast<unsigned long long>(decisions_d),
        static_cast<unsigned long long>(tstats.replayed_decisions),
        static_cast<unsigned long long>(tstats.replayed_prepared),
        static_cast<unsigned long long>(tstats.presumed_aborted));
  }
  return result;
}

}  // namespace
}  // namespace tdp

int main(int argc, char** argv) {
  uint64_t seeds = 200;
  uint64_t start_seed = 0;
  std::string engine = "both";
  std::string mode = "recovery";
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      return arg.compare(0, n, name) == 0 ? arg.c_str() + n : nullptr;
    };
    // --seed-start/--seed-count are the sharding spellings (one seed range
    // per CI shard); --start_seed/--seeds stay as aliases.
    if (const char* v = val("--seeds=")) {
      seeds = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seed-count=")) {
      seeds = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--start_seed=")) {
      start_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seed-start=")) {
      start_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--engine=")) {
      engine = v;
    } else if (const char* v = val("--mode=")) {
      mode = v;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(
          stderr,
          "usage: tdp_crashtest "
          "[--mode=recovery|replica-kill|coordinator-crash] "
          "[--seed-start=N] [--seed-count=N] "
          "[--engine=mysql|pg|both] [--verbose]\n");
      return 2;
    }
  }
  if (mode != "recovery" && mode != "replica-kill" &&
      mode != "coordinator-crash") {
    std::fprintf(stderr, "unknown --mode=%s\n", mode.c_str());
    return 2;
  }

  uint64_t failures = 0, crashes = 0, committed = 0, acked = 0;
  for (uint64_t seed = start_seed; seed < start_seed + seeds; ++seed) {
    const tdp::SeedResult r =
        mode == "replica-kill" ? tdp::RunReplicaKillSeed(seed, verbose)
        : mode == "coordinator-crash"
            ? tdp::RunCoordinatorCrashSeed(seed, verbose)
            : tdp::RunSeed(seed, engine, verbose);
    crashes += r.crashed ? 1 : 0;
    committed += r.committed;
    acked += r.acked;
    if (!r.ok) {
      ++failures;
      std::fprintf(stderr, "FAIL seed %llu: %s\n",
                   static_cast<unsigned long long>(seed), r.error.c_str());
    }
  }
  tdp::CrashPoints::Global().Reset();
  std::printf(
      "tdp_crashtest: %llu seeds, %llu crashed, %llu txns committed "
      "(%llu acked), %llu failures\n",
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(crashes),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(acked),
      static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
