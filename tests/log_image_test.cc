// Chunked log images (log::LogImage): every log's image is built over many
// chunks here and must read back exactly the bytes a contiguous vector
// holds — through the container itself, RedoLog::CrashImage and
// CopyAppended at offsets inside a chunk, a replica's tail truncation
// across a chunk boundary, and a WAL set's crash image.
#include "log/log_image.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "log/log_codec.h"
#include "log/redo_log.h"
#include "pg/wal.h"
#include "repl/replica.h"

namespace tdp {
namespace {

constexpr size_t kChunk = log::LogImage::kChunkBytes;

std::vector<uint8_t> Prefix(const std::vector<uint8_t>& v, size_t end) {
  const size_t n = std::min(end, v.size());
  return {v.begin(), v.begin() + static_cast<ptrdiff_t>(n)};
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

/// A commit of 1–4 row ops with 1–40 columns each: frames of a few dozen
/// to ~1.3k bytes, so a few hundred commits span several chunks and land
/// frame boundaries at arbitrary offsets within them.
std::vector<log::RedoOp> RandomOps(Rng* rng) {
  std::vector<log::RedoOp> ops(1 + rng->Uniform(4));
  for (log::RedoOp& op : ops) {
    op.table = static_cast<uint32_t>(rng->Uniform(8));
    op.key = rng->Next();
    op.after.cols.resize(1 + rng->Uniform(40));
    for (int64_t& c : op.after.cols) c = static_cast<int64_t>(rng->Next());
  }
  return ops;
}

TEST(LogImageTest, MatchesContiguousReferenceAcrossChunks) {
  log::LogImage image;
  std::vector<uint8_t> ref;
  Rng rng(3);
  // Appends of every size class, including ones larger than a chunk.
  while (ref.size() < 3 * kChunk + 123) {
    const size_t n = rng.Bernoulli(0.05) ? kChunk + rng.Uniform(kChunk)
                                         : rng.Uniform(3000);
    const std::vector<uint8_t> bytes = RandomBytes(n, rng.Next());
    image.Append(bytes.data(), bytes.size());
    ref.insert(ref.end(), bytes.begin(), bytes.end());
  }
  ASSERT_EQ(image.size(), ref.size());
  EXPECT_EQ(image.Slice(ref.size()), ref);

  // Overwrite straddling a chunk boundary.
  const uint8_t patch[6] = {9, 8, 7, 6, 5, 4};
  image.Overwrite(2 * kChunk - 3, patch, sizeof(patch));
  std::copy(patch, patch + sizeof(patch), ref.begin() + (2 * kChunk - 3));
  EXPECT_EQ(image.Slice(ref.size()), ref);

  // Ranges that start and end mid-chunk.
  for (size_t from : {size_t{0}, kChunk - 1, kChunk + 77, 2 * kChunk + 5}) {
    for (size_t to : {from, from + 1, 2 * kChunk + 6, ref.size()}) {
      if (to < from) continue;
      std::vector<uint8_t> out = {42};  // CopyTo appends
      image.CopyTo(from, to, &out);
      std::vector<uint8_t> want = {42};
      want.insert(want.end(), ref.begin() + static_cast<ptrdiff_t>(from),
                  ref.begin() + static_cast<ptrdiff_t>(to));
      EXPECT_EQ(out, want) << from << ".." << to;
    }
  }

  // Truncate to a chunk boundary and to mid-chunk, then grow again.
  for (size_t cut : {2 * kChunk, kChunk + 9}) {
    image.Truncate(cut);
    ref.resize(cut);
    const std::vector<uint8_t> more = RandomBytes(kChunk, cut);
    image.Append(more.data(), more.size());
    ref.insert(ref.end(), more.begin(), more.end());
    ASSERT_EQ(image.size(), ref.size());
    EXPECT_EQ(image.Slice(ref.size()), ref);
  }
}

// The redo log's image, its shippers' view (CopyAppended, which runs past
// the durable mark) and its crash image, with the durable mark and the copy
// offsets inside chunks.
TEST(LogImageTest, RedoLogImagesMatchContiguousFrames) {
  log::RedoLogConfig cfg;
  cfg.policy = log::FlushPolicy::kLazyWrite;  // nothing durable until forced
  log::RedoLog redo(cfg);
  std::vector<uint8_t> ref;
  Rng rng(5);
  uint64_t lsn = 0;
  auto commit = [&] {
    std::vector<log::RedoOp> ops = RandomOps(&rng);
    ++lsn;
    log::AppendLogFrame(lsn, 1000 + lsn, ops, &ref);
    EXPECT_EQ(redo.Commit(1000 + lsn, 100, std::move(ops)), lsn);
  };
  while (ref.size() < 2 * kChunk + kChunk / 2) commit();
  ASSERT_TRUE(redo.ForceDurable().ok());
  const size_t durable = ref.size();
  ASSERT_NE(durable % kChunk, 0u);
  while (ref.size() < durable + kChunk + kChunk / 3) commit();  // undurable
  ASSERT_EQ(redo.image_bytes(), ref.size());

  for (size_t from : {size_t{0}, size_t{17}, kChunk - 5, kChunk + 4321,
                      durable - 1, durable, durable + 10, ref.size()}) {
    std::vector<uint8_t> out;
    uint64_t last_lsn = 0;
    EXPECT_EQ(redo.CopyAppended(from, &out, &last_lsn), ref.size());
    EXPECT_EQ(last_lsn, lsn);
    const std::vector<uint8_t> want(ref.begin() + static_cast<ptrdiff_t>(from),
                                    ref.end());
    EXPECT_EQ(out, want) << "from " << from;
  }

  for (uint64_t extra : {uint64_t{0}, uint64_t{1}, uint64_t{kChunk},
                         uint64_t{ref.size()}}) {
    EXPECT_EQ(redo.CrashImage(extra), Prefix(ref, durable + extra))
        << "extra " << extra;
  }
}

// A torn tail that crosses a chunk boundary is truncated by a re-ship
// anchored at the durable offset; the new bytes replace it exactly.
TEST(LogImageTest, ReplicaTailTruncationAcrossChunkBoundary) {
  FaultInjector fault;
  fault.AddWriteError(0, int64_t{1} << 40);
  repl::ReplicaConfig cfg;
  cfg.disk.base_latency_ns = 1000;
  cfg.disk.sigma = 0.0;
  cfg.disk.flush_barrier_ns = 0;
  cfg.disk.fault = &fault;
  repl::Replica replica(cfg);

  const std::vector<uint8_t> old_stream = RandomBytes(3 * kChunk, 7);
  const size_t durable = kChunk - 100;  // just below the first boundary
  ASSERT_TRUE(replica.Ship(1, 0, old_stream.data(), durable, 1).ok());

  // The failed flush leaves [durable, torn_end) as a torn tail.
  const size_t torn_end = kChunk + 5000;
  fault.Arm();
  EXPECT_FALSE(replica
                   .Ship(1, durable, old_stream.data() + durable,
                         torn_end - durable, 2)
                   .ok());
  fault.Disarm();
  EXPECT_EQ(replica.durable_bytes(), durable);
  EXPECT_EQ(replica.CrashImage(kChunk * 4), Prefix(old_stream, torn_end));
  EXPECT_EQ(replica.CrashImage(200), Prefix(old_stream, durable + 200));

  // Re-ship different bytes from the durable mark, past a second boundary.
  const std::vector<uint8_t> new_tail = RandomBytes(2 * kChunk + 17, 8);
  ASSERT_TRUE(
      replica.Ship(1, durable, new_tail.data(), new_tail.size(), 3).ok());
  std::vector<uint8_t> want = Prefix(old_stream, durable);
  want.insert(want.end(), new_tail.begin(), new_tail.end());
  EXPECT_EQ(replica.durable_bytes(), want.size());
  EXPECT_EQ(replica.CrashImage(), want);
  EXPECT_EQ(replica.CrashImage(kChunk), want);
}

// A WAL set's crash image: a durable prefix from synchronous commits, then
// an undurable tail of frames parked on an epoch that never runs.
TEST(LogImageTest, WalSetCrashImageMatchesContiguousFrames) {
  pg::WalConfig cfg;
  cfg.disk.base_latency_ns = 1000;
  cfg.disk.sigma = 0.0;
  cfg.disk.flush_barrier_ns = 0;
  cfg.async_commit = true;
  cfg.epoch_interval_ns = int64_t{60} * 1000 * 1000 * 1000;
  pg::WalManager wal(cfg);
  std::vector<uint8_t> ref;
  Rng rng(11);
  uint64_t lsn = 0;
  auto frame = [&](std::vector<log::RedoOp>* ops) {
    *ops = RandomOps(&rng);
    ++lsn;
    log::AppendLogFrame(lsn, 500 + lsn, *ops, &ref);
  };
  std::vector<log::RedoOp> ops;
  while (ref.size() < kChunk + kChunk / 2) {
    frame(&ops);
    ASSERT_TRUE(wal.CommitFlush(500 + lsn, 64, ops).ok());
  }
  const size_t durable = ref.size();
  wal.Start();
  std::atomic<int> acks{0};
  while (ref.size() < durable + kChunk) {
    frame(&ops);
    wal.CommitFlushAsync(500 + lsn, 64, ops,
                         [&](const Status&) { acks.fetch_add(1); });
  }
  EXPECT_EQ(acks.load(), 0);  // parked: the tail is not durable
  for (uint64_t extra : {uint64_t{0}, uint64_t{3}, uint64_t{kChunk / 2 + 1},
                         uint64_t{ref.size()}}) {
    const std::vector<std::vector<uint8_t>> images = wal.CrashImages({extra});
    ASSERT_EQ(images.size(), 1u);
    EXPECT_EQ(images[0], Prefix(ref, durable + extra)) << "extra " << extra;
  }
  wal.Stop();
}

}  // namespace
}  // namespace tdp
