#include "log/log_codec.h"

#include <string>

#include "common/crc32c.h"
#include "common/metrics.h"

namespace tdp::log {

void PutU32(std::vector<uint8_t>* buf, uint32_t v) {
  buf->push_back(static_cast<uint8_t>(v));
  buf->push_back(static_cast<uint8_t>(v >> 8));
  buf->push_back(static_cast<uint8_t>(v >> 16));
  buf->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* buf, uint64_t v) {
  PutU32(buf, static_cast<uint32_t>(v));
  PutU32(buf, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

namespace {

/// Offset of the crc field in a frame header (after lsn and payload_len).
constexpr size_t kCrcOffset = 12;

void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void StoreU64(uint8_t* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}

/// Emits one frame field by field through put(const uint8_t*, size_t),
/// with a zero placeholder where the checksum goes: the payload length is
/// computed up front, so nothing is staged in a temporary buffer.
template <class Put>
void EncodeFrame(uint64_t lsn, uint64_t txn_id,
                 const std::vector<RedoOp>& ops, Put&& put) {
  uint8_t b[8];
  const auto u32 = [&](uint32_t v) {
    StoreU32(b, v);
    put(b, 4);
  };
  const auto u64 = [&](uint64_t v) {
    StoreU64(b, v);
    put(b, 8);
  };
  size_t payload_len = 12;
  for (const RedoOp& op : ops) payload_len += 17 + 8 * op.after.cols.size();
  u64(lsn);
  u32(static_cast<uint32_t>(payload_len));
  u32(0);  // crc, filled in once the payload is down
  u64(txn_id);
  u32(static_cast<uint32_t>(ops.size()));
  for (const RedoOp& op : ops) {
    b[0] = static_cast<uint8_t>(op.kind);
    put(b, 1);
    u32(op.table);
    u64(op.key);
    u32(static_cast<uint32_t>(op.after.cols.size()));
    for (int64_t c : op.after.cols) u64(static_cast<uint64_t>(c));
  }
}

}  // namespace

void AppendLogFrame(uint64_t lsn, uint64_t txn_id,
                    const std::vector<RedoOp>& ops, LogImage* image) {
  const size_t start = image->size();
  EncodeFrame(lsn, txn_id, ops, [image](const uint8_t* p, size_t n) {
    image->Append(p, n);
  });
  uint32_t crc = 0;
  const auto extend = [&crc](const uint8_t* p, size_t n) {
    crc = Crc32cExtend(crc, p, n);
  };
  image->ForEachSpan(start, start + kCrcOffset, extend);
  image->ForEachSpan(start + kFrameHeaderBytes, image->size(), extend);
  uint8_t b[4];
  StoreU32(b, crc);
  image->Overwrite(start + kCrcOffset, b, 4);
}

void AppendLogFrame(uint64_t lsn, uint64_t txn_id,
                    const std::vector<RedoOp>& ops,
                    std::vector<uint8_t>* image) {
  const size_t start = image->size();
  EncodeFrame(lsn, txn_id, ops, [image](const uint8_t* p, size_t n) {
    image->insert(image->end(), p, p + n);
  });
  uint8_t* frame = image->data() + start;
  uint32_t crc = Crc32cExtend(0, frame, kCrcOffset);
  crc = Crc32cExtend(crc, frame + kFrameHeaderBytes,
                     image->size() - start - kFrameHeaderBytes);
  StoreU32(frame + kCrcOffset, crc);
}

namespace {

/// Parses a checksum-validated payload into a RecoveredTxn. False when the
/// structure overruns the payload (possible only via a CRC collision, but a
/// decoder that trusts lengths it did not validate replays garbage).
bool ParsePayload(const uint8_t* p, size_t n, uint64_t lsn,
                  RecoveredTxn* out) {
  if (n < 12) return false;
  out->txn_id = GetU64(p);
  out->lsn = lsn;
  const uint32_t op_count = GetU32(p + 8);
  size_t off = 12;
  out->ops.clear();
  out->ops.reserve(op_count);
  for (uint32_t i = 0; i < op_count; ++i) {
    if (off + 17 > n) return false;
    RedoOp op;
    if (p[off] > static_cast<uint8_t>(RedoOp::Kind::k2PCSection)) return false;
    op.kind = static_cast<RedoOp::Kind>(p[off]);
    op.table = GetU32(p + off + 1);
    op.key = GetU64(p + off + 5);
    const uint32_t ncols = GetU32(p + off + 13);
    off += 17;
    if (ncols > (n - off) / 8) return false;
    op.after.cols.resize(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      op.after.cols[c] = static_cast<int64_t>(GetU64(p + off));
      off += 8;
    }
    out->ops.push_back(std::move(op));
  }
  return off == n;
}

}  // namespace

LogDecodeResult DecodeLogImage(const uint8_t* data, size_t size,
                               std::vector<RecoveredTxn>* out) {
  LogDecodeResult r;
  r.status = Status::OK();
  size_t off = 0;
  while (off < size) {
    if (size - off < kFrameHeaderBytes) {
      r.torn_tail = true;  // header cut short
      break;
    }
    const uint64_t lsn = GetU64(data + off);
    const uint32_t len = GetU32(data + off + 8);
    const uint32_t want_crc = GetU32(data + off + 12);
    if (len > size - off - kFrameHeaderBytes) {
      // The frame claims more bytes than the image holds. A genuine torn
      // tail looks exactly like this; so does a corrupted length field.
      // Either way the tail is undecodable and replay stops cleanly here.
      r.torn_tail = true;
      break;
    }
    uint32_t crc = Crc32cExtend(0, data + off, 12);
    crc = Crc32cExtend(crc, data + off + kFrameHeaderBytes, len);
    if (crc != want_crc) {
      r.status = Status::DataLoss(
          "log frame checksum mismatch at byte offset " +
          std::to_string(off) + " (lsn field " + std::to_string(lsn) + ")");
      break;
    }
    RecoveredTxn txn;
    if (!ParsePayload(data + off + kFrameHeaderBytes, len, lsn, &txn)) {
      r.status = Status::DataLoss(
          "log frame payload structure invalid at byte offset " +
          std::to_string(off));
      break;
    }
    if (out != nullptr) out->push_back(std::move(txn));
    off += kFrameHeaderBytes + len;
    r.valid_bytes = off;
    ++r.frames;
  }
  // recovery.* mirrors: every decode in the process (both engines, all log
  // disks) lands in the same counters, so a crash-recovery run's outcome is
  // visible in a registry snapshot.
  auto& reg = metrics::Registry::Global();
  static metrics::Counter* const decodes = reg.GetCounter("recovery.decodes");
  static metrics::Counter* const frames = reg.GetCounter("recovery.frames");
  static metrics::Counter* const torn = reg.GetCounter("recovery.torn_tails");
  static metrics::Counter* const loss = reg.GetCounter("recovery.data_loss");
  metrics::Inc(decodes);
  metrics::Inc(frames, r.frames);
  if (r.torn_tail) metrics::Inc(torn);
  if (!r.status.ok()) metrics::Inc(loss);
  return r;
}

}  // namespace tdp::log
