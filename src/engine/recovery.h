// Shared crash-recovery machinery: redo replay and fuzzy checkpoints
// (docs/recovery.md).
//
// A checkpoint is a durable snapshot of every table plus the LSN it covers:
// recovery restores the snapshot and replays only log frames with
// lsn > checkpoint.lsn. The snapshot is "fuzzy" in the weak sense this
// in-memory engine needs: the LSN is captured *before* the table sweep, so
// the suffix replay may re-apply transactions already in the snapshot —
// harmless, because redo records carry after-images and replay is
// idempotent. Callers must quiesce writers around CaptureCheckpoint (the
// crash harness checkpoints at transaction boundaries).
//
// CheckpointStore models the classic two-slot scheme: writes alternate
// between slots so a crash mid-checkpoint tears at most the slot being
// written, and LoadLatest falls back to the surviving older checkpoint.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "log/redo_record.h"
#include "storage/catalog.h"

namespace tdp::engine {

struct CheckpointTable {
  uint32_t table_id = 0;
  std::vector<std::pair<uint64_t, storage::Row>> rows;
};

struct Checkpoint {
  /// Every log frame with lsn <= this is reflected in `tables`.
  uint64_t lsn = 0;
  std::vector<CheckpointTable> tables;  ///< In table-id order.
};

/// Serializes a checkpoint with a trailing CRC32C over the whole body.
std::vector<uint8_t> EncodeCheckpoint(const Checkpoint& ckpt);

/// DataLoss when the image is truncated or fails its checksum; `out` is
/// untouched on failure.
Status DecodeCheckpoint(const std::vector<uint8_t>& image, Checkpoint* out);

/// Sweeps every table in the catalog into a checkpoint covering `lsn`.
Checkpoint CaptureCheckpoint(const storage::Catalog& catalog, uint64_t lsn);

/// Clears every catalog table, then reloads the snapshot — rows deleted
/// after the checkpoint was taken must not survive the restore.
void RestoreCheckpoint(const Checkpoint& ckpt, storage::Catalog* catalog);

/// Replays recovered redo records (LSN order, after-images) into the
/// catalog, skipping records with lsn <= start_after_lsn (covered by a
/// restored checkpoint). Unknown tables and 2PC control markers are skipped.
void ReplayRedo(const std::vector<log::RecoveredTxn>& recovered,
                storage::Catalog* catalog, uint64_t start_after_lsn = 0);

/// Outcome tally of one Filter2PCRedo pass (docs/sharding.md).
struct TwoPhaseRecoveryStats {
  uint64_t decided = 0;            ///< Distinct gtids with a DECISION frame.
  uint64_t replayed_prepared = 0;  ///< PREPARE frames replayed (committed).
  /// DECISION frames replayed for the coordinator data ops they carry.
  uint64_t replayed_decisions = 0;
  /// Decision sections replayed in place of a PREPARE this shard lost.
  uint64_t replayed_sections = 0;
  uint64_t presumed_aborted = 0;   ///< PREPARE frames dropped (no decision).
};

/// Presumed-abort recovery filter for cross-shard 2PC (docs/sharding.md).
/// `shard_streams` holds every shard's decoded log stream (LSN order, as
/// DecodeLogImage or repl::ElectLeader returns it); the result is shard
/// `shard`'s replayable stream: plain frames unchanged, DECISION frames
/// (the coordinator's data redo behind the k2PCDecide marker, sections
/// cut off) and PREPARE frames with a durable DECISION anywhere (or a local
/// participant COMMIT) stripped of their marker, undecided PREPARE frames
/// and data-free control frames dropped. Then, after the whole stream and
/// in LSN order, every decision section for `shard` whose gtid has no
/// PREPARE or COMMIT frame in `shard`'s stream, carrying that PREPARE's LSN.
/// Feed the result to ReplayRedo / MySQLMini::RecoverInto per shard.
std::vector<log::RecoveredTxn> Filter2PCRedo(
    const std::vector<std::vector<log::RecoveredTxn>>& shard_streams,
    size_t shard, TwoPhaseRecoveryStats* stats = nullptr);

/// Two-slot alternating checkpoint store. Save() writes the encoded image
/// into the slot not holding the newest checkpoint; LoadLatest() decodes
/// the newest slot and falls back to the other when the newest is torn or
/// corrupt — so one torn checkpoint write never loses both.
class CheckpointStore {
 public:
  void Save(std::vector<uint8_t> encoded);

  /// The newest decodable checkpoint, or nullopt when no slot decodes.
  std::optional<Checkpoint> LoadLatest() const;

  /// Truncates the most recently written slot to `keep_bytes` — the torn
  /// remnant of a crash mid-checkpoint (crash-harness fault injection).
  void TearNewest(size_t keep_bytes);

 private:
  struct Slot {
    uint64_t seq = 0;  ///< 0 = empty; higher = newer.
    std::vector<uint8_t> bytes;
  };
  Slot slots_[2];
  uint64_t next_seq_ = 1;
};

}  // namespace tdp::engine
