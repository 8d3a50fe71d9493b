#include "engine/recovery.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "log/log_codec.h"

namespace tdp::engine {

namespace {

struct CheckpointMetrics {
  metrics::Counter* captures;
  metrics::Counter* restores;
  metrics::Counter* bytes;
  metrics::Counter* decode_failures;
  CheckpointMetrics() {
    auto& reg = metrics::Registry::Global();
    captures = reg.GetCounter("checkpoint.captures");
    restores = reg.GetCounter("checkpoint.restores");
    bytes = reg.GetCounter("checkpoint.bytes");
    decode_failures = reg.GetCounter("checkpoint.decode_failures");
  }
};

CheckpointMetrics& CkptMetrics() {
  static CheckpointMetrics m;
  return m;
}

constexpr uint32_t kCheckpointMagic = 0x43504454;  // "TDPC" little-endian

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const Checkpoint& ckpt) {
  using log::PutU32;
  using log::PutU64;
  std::vector<uint8_t> buf;
  PutU32(&buf, kCheckpointMagic);
  PutU64(&buf, ckpt.lsn);
  PutU32(&buf, static_cast<uint32_t>(ckpt.tables.size()));
  for (const CheckpointTable& t : ckpt.tables) {
    PutU32(&buf, t.table_id);
    PutU64(&buf, t.rows.size());
    for (const auto& [key, row] : t.rows) {
      PutU64(&buf, key);
      PutU32(&buf, static_cast<uint32_t>(row.cols.size()));
      for (int64_t c : row.cols) PutU64(&buf, static_cast<uint64_t>(c));
    }
  }
  PutU32(&buf, Crc32c(buf.data(), buf.size()));
  metrics::Inc(CkptMetrics().bytes, buf.size());
  return buf;
}

Status DecodeCheckpoint(const std::vector<uint8_t>& image, Checkpoint* out) {
  using log::GetU32;
  using log::GetU64;
  auto fail = [](const std::string& why) {
    metrics::Inc(CkptMetrics().decode_failures);
    return Status::DataLoss("checkpoint " + why);
  };
  if (image.size() < 20) return fail("image truncated");
  const size_t body = image.size() - 4;
  if (GetU32(image.data() + body) != Crc32c(image.data(), body)) {
    return fail("checksum mismatch");
  }
  // The checksum held, so the structure below is trusted — but lengths are
  // still bounds-checked: a decoder must never read past its buffer.
  const uint8_t* p = image.data();
  size_t off = 0;
  auto remaining = [&] { return body - off; };
  if (GetU32(p) != kCheckpointMagic) return fail("bad magic");
  Checkpoint ckpt;
  ckpt.lsn = GetU64(p + 4);
  const uint32_t ntables = GetU32(p + 12);
  off = 16;
  for (uint32_t t = 0; t < ntables; ++t) {
    if (remaining() < 12) return fail("table header truncated");
    CheckpointTable table;
    table.table_id = GetU32(p + off);
    const uint64_t nrows = GetU64(p + off + 4);
    off += 12;
    if (nrows > remaining() / 12) return fail("row count implausible");
    table.rows.reserve(static_cast<size_t>(nrows));
    for (uint64_t r = 0; r < nrows; ++r) {
      if (remaining() < 12) return fail("row truncated");
      const uint64_t key = GetU64(p + off);
      const uint32_t ncols = GetU32(p + off + 8);
      off += 12;
      if (ncols > remaining() / 8) return fail("column count implausible");
      storage::Row row;
      row.cols.resize(ncols);
      for (uint32_t c = 0; c < ncols; ++c) {
        row.cols[c] = static_cast<int64_t>(GetU64(p + off));
        off += 8;
      }
      table.rows.emplace_back(key, std::move(row));
    }
    ckpt.tables.push_back(std::move(table));
  }
  if (off != body) return fail("trailing bytes");
  *out = std::move(ckpt);
  return Status::OK();
}

Checkpoint CaptureCheckpoint(const storage::Catalog& catalog, uint64_t lsn) {
  Checkpoint ckpt;
  ckpt.lsn = lsn;
  for (uint32_t id = 0;; ++id) {
    const storage::Table* t = catalog.GetTable(id);
    if (t == nullptr) break;  // ids are dense
    CheckpointTable table;
    table.table_id = id;
    t->ForEach([&](uint64_t key, const storage::Row& row) {
      table.rows.emplace_back(key, row);
    });
    // Deterministic image bytes regardless of hash-map iteration order.
    std::sort(table.rows.begin(), table.rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ckpt.tables.push_back(std::move(table));
  }
  metrics::Inc(CkptMetrics().captures);
  return ckpt;
}

void RestoreCheckpoint(const Checkpoint& ckpt, storage::Catalog* catalog) {
  for (uint32_t id = 0;; ++id) {
    storage::Table* t = catalog->GetTable(id);
    if (t == nullptr) break;
    t->Clear();
  }
  for (const CheckpointTable& table : ckpt.tables) {
    storage::Table* t = catalog->GetTable(table.table_id);
    if (t == nullptr) continue;
    for (const auto& [key, row] : table.rows) t->Upsert(key, row);
  }
  metrics::Inc(CkptMetrics().restores);
}

void ReplayRedo(const std::vector<log::RecoveredTxn>& recovered,
                storage::Catalog* catalog, uint64_t start_after_lsn) {
  for (const log::RecoveredTxn& txn : recovered) {
    if (txn.lsn <= start_after_lsn) continue;
    for (const log::RedoOp& op : txn.ops) {
      storage::Table* t = catalog->GetTable(op.table);
      if (t == nullptr) continue;
      switch (op.kind) {
        case log::RedoOp::Kind::kPut:
          t->Upsert(op.key, op.after);
          break;
        case log::RedoOp::Kind::kDelete:
          (void)t->Delete(op.key);
          break;
        default:
          // 2PC control markers carry no row data; their `table` field is a
          // coordinator shard id, not a table. Filter2PCRedo strips them
          // before replay — skipping here keeps a raw replay harmless too.
          break;
      }
    }
  }
}

std::vector<log::RecoveredTxn> Filter2PCRedo(
    const std::vector<std::vector<log::RecoveredTxn>>& shard_streams,
    size_t shard, TwoPhaseRecoveryStats* stats) {
  using Kind = log::RedoOp::Kind;
  auto is_section = [](const log::RedoOp& op) {
    return op.kind == Kind::k2PCSection;
  };

  // Pass 1: the decided set, and the sections decisions hold for this
  // shard. A DECISION frame on *any* shard's durable stream commits its
  // gtid — the coordinator issues it before any participant learns the
  // outcome, so this set is complete for every transaction a participant
  // could have locally committed.
  struct Section {
    uint64_t lsn;  ///< The PREPARE frame's LSN on this shard's log.
    uint64_t gtid;
    std::vector<log::RedoOp>::const_iterator begin, end;
  };
  std::set<uint64_t> decided;
  std::vector<Section> sections;
  for (const std::vector<log::RecoveredTxn>& stream : shard_streams) {
    for (const log::RecoveredTxn& txn : stream) {
      if (txn.ops.empty() || txn.ops[0].kind != Kind::k2PCDecide) continue;
      const uint64_t gtid = txn.ops[0].key;
      decided.insert(gtid);
      for (auto it = std::find_if(txn.ops.begin(), txn.ops.end(), is_section);
           it != txn.ops.end();) {
        const auto next = std::find_if(it + 1, txn.ops.end(), is_section);
        if (it->table == shard) {
          sections.push_back({it->key, gtid, it + 1, next});
        }
        it = next;
      }
    }
  }
  if (stats != nullptr) stats->decided = decided.size();

  // Pass 2: this shard's own 2PC frames. A participant COMMIT frame is
  // written only after the decision was durable, so it proves the outcome
  // without the cross-shard lookup (and keeps this shard recoverable even
  // if the coordinator's log is later truncated). Any PREPARE or COMMIT
  // frame of a gtid means this stream holds the shard's own copy of its
  // redo, so that gtid's section is not needed.
  std::set<uint64_t> local_committed;
  std::set<uint64_t> local_frames;
  const std::vector<log::RecoveredTxn>& stream = shard_streams.at(shard);
  for (const log::RecoveredTxn& txn : stream) {
    if (txn.ops.empty()) continue;
    const log::RedoOp& head = txn.ops[0];
    if (head.kind == Kind::k2PCCommit) local_committed.insert(head.key);
    if (head.kind == Kind::k2PCCommit || head.kind == Kind::k2PCPrepare) {
      local_frames.insert(head.key);
    }
  }

  auto& reg = metrics::Registry::Global();
  static metrics::Counter* const recovered_committed =
      reg.GetCounter("2pc.recovered_committed");
  static metrics::Counter* const recovered_aborted =
      reg.GetCounter("2pc.recovered_presumed_aborted");

  // Pass 3: filter. Plain frames replay unchanged. A DECISION frame is the
  // commit point itself, so the coordinator data ops between its marker
  // and its first section always replay (a decision-only frame, an older
  // layout, carries none). PREPARE frames replay their data ops iff
  // decided (or locally committed). Markers never replay; participant
  // COMMIT frames carry no data and drop out.
  std::vector<log::RecoveredTxn> out;
  out.reserve(stream.size());
  for (const log::RecoveredTxn& txn : stream) {
    const Kind head = txn.ops.empty() ? Kind::kPut : txn.ops[0].kind;
    if (head != Kind::k2PCPrepare && head != Kind::k2PCDecide &&
        head != Kind::k2PCCommit) {
      out.push_back(txn);
      continue;
    }
    if (head == Kind::k2PCCommit) continue;
    const uint64_t gtid = txn.ops[0].key;
    if (head == Kind::k2PCPrepare && decided.count(gtid) == 0 &&
        local_committed.count(gtid) == 0) {
      // Presumed abort: a prepare with no decision anywhere means the
      // coordinator never reached its commit point.
      if (stats != nullptr) ++stats->presumed_aborted;
      metrics::Inc(recovered_aborted);
      continue;
    }
    const auto data_end =
        std::find_if(txn.ops.begin() + 1, txn.ops.end(), is_section);
    if (head == Kind::k2PCDecide && data_end == txn.ops.begin() + 1) continue;
    out.push_back(log::RecoveredTxn{
        txn.txn_id, txn.lsn, std::vector<log::RedoOp>(txn.ops.begin() + 1,
                                                      data_end)});
    if (stats != nullptr) {
      ++(head == Kind::k2PCDecide ? stats->replayed_decisions
                                  : stats->replayed_prepared);
    }
    metrics::Inc(recovered_committed);
  }

  // Pass 4: the sections of decided gtids whose PREPARE this stream lost,
  // after the whole stream, in the order the frames were appended here.
  // Sound because every recovered copy of this log is a prefix of its one
  // append stream, and the frame was appended before its transaction
  // released a lock: every later frame that could touch the same rows is
  // lost with it. Each keeps its frame's LSN, which is above any
  // checkpoint's covering LSN (a checkpoint forces the log durable first).
  std::sort(sections.begin(), sections.end(),
            [](const Section& a, const Section& b) { return a.lsn < b.lsn; });
  for (const Section& section : sections) {
    if (local_frames.count(section.gtid) != 0) continue;
    out.push_back(log::RecoveredTxn{
        section.gtid, section.lsn,
        std::vector<log::RedoOp>(section.begin, section.end)});
    if (stats != nullptr) ++stats->replayed_sections;
    metrics::Inc(recovered_committed);
  }
  return out;
}

void CheckpointStore::Save(std::vector<uint8_t> encoded) {
  // Overwrite the slot NOT holding the newest checkpoint, so a torn write
  // can only destroy the older of the two.
  Slot* target = slots_[0].seq <= slots_[1].seq ? &slots_[0] : &slots_[1];
  target->seq = next_seq_++;
  target->bytes = std::move(encoded);
}

std::optional<Checkpoint> CheckpointStore::LoadLatest() const {
  const Slot* newest = slots_[0].seq >= slots_[1].seq ? &slots_[0] : &slots_[1];
  const Slot* older = newest == &slots_[0] ? &slots_[1] : &slots_[0];
  for (const Slot* slot : {newest, older}) {
    if (slot->seq == 0) continue;
    Checkpoint ckpt;
    if (DecodeCheckpoint(slot->bytes, &ckpt).ok()) return ckpt;
  }
  return std::nullopt;
}

void CheckpointStore::TearNewest(size_t keep_bytes) {
  Slot* newest = slots_[0].seq >= slots_[1].seq ? &slots_[0] : &slots_[1];
  if (newest->seq == 0) return;
  if (keep_bytes < newest->bytes.size()) newest->bytes.resize(keep_bytes);
}

}  // namespace tdp::engine
