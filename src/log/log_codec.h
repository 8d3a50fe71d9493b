// Self-describing, checksummed log-record framing (docs/recovery.md).
//
// Both engines' logs — log::RedoLog and pg::WalManager — serialize every
// commit record into one frame of a byte image (log::LogImage) that stands
// in for the on-disk log file:
//
//   [u64 lsn][u32 payload_len][u32 crc32c(lsn ‖ payload_len ‖ payload)]
//   [payload: u64 txn_id, u32 op_count, ops...]
//
// Recovery decodes the image front to back. A frame that runs past the end
// of the image is a *torn tail* — the expected remnant of a crash mid-write
// — and replay stops cleanly at the last complete frame. A frame whose
// checksum does not match is *corruption*: replay also stops at the last
// valid prefix, but the decode reports Status::DataLoss so the caller knows
// bytes the device acknowledged came back wrong. In neither case is a byte
// past the failure replayed — garbage never reaches a table.
//
// All integers are little-endian; the encoder/decoder pair is the format's
// only implementation, so the byte order is normative rather than portable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "log/log_image.h"
#include "log/redo_record.h"

namespace tdp::log {

/// Byte size of a frame header (lsn + payload_len + crc).
inline constexpr size_t kFrameHeaderBytes = 16;

// --- primitive little-endian helpers (shared with the checkpoint codec) ---
void PutU32(std::vector<uint8_t>* buf, uint32_t v);
void PutU64(std::vector<uint8_t>* buf, uint64_t v);
uint32_t GetU32(const uint8_t* p);
uint64_t GetU64(const uint8_t* p);

/// Appends one framed commit record to `image`, encoding it in place.
void AppendLogFrame(uint64_t lsn, uint64_t txn_id,
                    const std::vector<RedoOp>& ops, LogImage* image);
/// The same frame bytes appended to a contiguous buffer.
void AppendLogFrame(uint64_t lsn, uint64_t txn_id,
                    const std::vector<RedoOp>& ops,
                    std::vector<uint8_t>* image);

/// Outcome of decoding a log image prefix.
struct LogDecodeResult {
  /// OK for a clean end or a torn tail; DataLoss when a complete frame
  /// failed its checksum or its payload structure (corruption mid-stream).
  Status status;
  /// Bytes of validated prefix (end offset of the last good frame).
  size_t valid_bytes = 0;
  /// Frames decoded from the valid prefix.
  uint64_t frames = 0;
  /// True when the image ended inside a frame — the torn-tail signature of
  /// a crash cutting a write short. Mutually exclusive with DataLoss (a
  /// tear is clean truncation; corruption is a checksum mismatch).
  bool torn_tail = false;
};

/// Decodes `size` bytes of log image, appending one RecoveredTxn per valid
/// frame to `out` (in image order; callers merging several images sort by
/// LSN). Never reads past the first invalid byte.
LogDecodeResult DecodeLogImage(const uint8_t* data, size_t size,
                               std::vector<RecoveredTxn>* out);

inline LogDecodeResult DecodeLogImage(const std::vector<uint8_t>& image,
                                      std::vector<RecoveredTxn>* out) {
  return DecodeLogImage(image.data(), image.size(), out);
}

}  // namespace tdp::log
