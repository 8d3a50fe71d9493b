// Append-only chunked byte image: the in-memory stand-in for a log "file"
// (log::RedoLog, repl::Replica and each pg::WalManager log set).
//
// Bytes live in fixed-size chunks, so appending never reallocates or copies
// what is already there — a contiguous vector grown by doubling copies the
// whole log at every doubling and briefly holds two copies of it. A chunk's
// pages are touched only as bytes land in it. Offsets are absolute from the
// start of the log; readers walk a range chunk by chunk (ForEachSpan) or
// copy it out contiguously (CopyTo / Slice) for the decoder.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace tdp::log {

class LogImage {
 public:
  /// Chunk size (a power of two). Large enough that the chunk table stays
  /// tiny, small enough that the unfilled tail chunk wastes little.
  static constexpr size_t kChunkBytes = size_t{64} << 10;

  size_t size() const { return size_; }

  void Append(const uint8_t* data, size_t n) {
    while (n > 0) {
      const size_t at = size_ & (kChunkBytes - 1);
      if (at == 0) {
        chunks_.push_back(
            std::make_unique_for_overwrite<uint8_t[]>(kChunkBytes));
      }
      const size_t k = std::min(n, kChunkBytes - at);
      std::memcpy(chunks_.back().get() + at, data, k);
      size_ += k;
      data += k;
      n -= k;
    }
  }

  /// Rewrites `n` bytes already appended at `offset` (offset + n <= size()).
  void Overwrite(size_t offset, const uint8_t* data, size_t n) {
    while (n > 0) {
      const size_t at = offset & (kChunkBytes - 1);
      const size_t k = std::min(n, kChunkBytes - at);
      std::memcpy(chunks_[offset / kChunkBytes].get() + at, data, k);
      offset += k;
      data += k;
      n -= k;
    }
  }

  /// Drops every byte at or past `n` (n <= size()), freeing whole chunks.
  void Truncate(size_t n) {
    size_ = std::min(n, size_);
    chunks_.resize((size_ + kChunkBytes - 1) / kChunkBytes);
  }

  /// Calls fn(const uint8_t* p, size_t len) for each contiguous run of
  /// [from, to), in order (from <= to <= size()).
  template <class Fn>
  void ForEachSpan(size_t from, size_t to, Fn&& fn) const {
    while (from < to) {
      const size_t at = from & (kChunkBytes - 1);
      const size_t k = std::min(to - from, kChunkBytes - at);
      fn(static_cast<const uint8_t*>(chunks_[from / kChunkBytes].get() + at),
         k);
      from += k;
    }
  }

  /// Appends the bytes [from, to) to `out`.
  void CopyTo(size_t from, size_t to, std::vector<uint8_t>* out) const {
    if (from >= to) return;
    const size_t base = out->size();
    out->resize(base + (to - from));
    uint8_t* dst = out->data() + base;
    ForEachSpan(from, to, [&](const uint8_t* p, size_t k) {
      std::memcpy(dst, p, k);
      dst += k;
    });
  }

  /// The bytes [0, min(end, size())) as one contiguous buffer.
  std::vector<uint8_t> Slice(size_t end) const {
    std::vector<uint8_t> out;
    CopyTo(0, std::min(end, size_), &out);
    return out;
  }

 private:
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  size_t size_ = 0;
};

}  // namespace tdp::log
