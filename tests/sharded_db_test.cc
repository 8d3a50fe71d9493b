// ShardedDatabase live behavior: hash routing, the single-shard fast path,
// single-writer one-phase commit, cross-shard 2PC commit/abort
// classification (including a NO vote in the prepare fan-out), read-only
// release, pin overrides, and gtid assignment (docs/sharding.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "engine/sharded_db.h"
#include "log/log_codec.h"

namespace tdp::engine {
namespace {

ShardedDatabaseConfig FastConfig(int num_shards) {
  ShardedDatabaseConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.logical_redo = true;
  cfg.shard.row_work_ns = 0;
  cfg.shard.btree.level_work_ns = 0;
  cfg.shard.data_disk.base_latency_ns = 0;
  cfg.shard.data_disk.sigma = 0;
  cfg.shard.log_disk.base_latency_ns = 0;
  cfg.shard.log_disk.sigma = 0;
  cfg.shard.log_disk.flush_barrier_ns = 0;
  // Cross-shard cycles are invisible to per-shard detectors; timeouts break
  // them (the factory enforces this for kSharded, tests keep the habit).
  cfg.shard.lock.wait_timeout_ns = MillisToNanos(200);
  return cfg;
}

/// First key (>= from) owned by `shard`.
uint64_t KeyOn(const ShardedDatabase& db, uint32_t table, uint32_t shard,
               uint64_t from = 0) {
  for (uint64_t k = from;; ++k) {
    if (db.router().ShardOf(table, k) == shard) return k;
  }
}

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->value();
}

TEST(ShardedDbTest, RoutesRowsToOwnerShardsAndSumsCounts) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  for (uint64_t k = 0; k < 64; ++k) db.BulkUpsert(t, k, storage::Row{1});
  EXPECT_EQ(db.TableRowCount(t), 64u);
  uint64_t per_shard = 0;
  for (int s = 0; s < db.num_shards(); ++s) {
    const uint64_t n = db.shard(s)->TableRowCount(t);
    EXPECT_GT(n, 0u) << "shard " << s << " owns no rows out of 64";
    per_shard += n;
  }
  EXPECT_EQ(per_shard, 64u);
  // Every row readable through the routed connection.
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  for (uint64_t k = 0; k < 64; ++k) EXPECT_EQ(*conn->ReadColumn(t, k, 0), 1);
  ASSERT_TRUE(conn->Commit().ok());
}

TEST(ShardedDbTest, SingleShardCommitTakesFastPath) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k0b = KeyOn(db, t, 0, k0 + 1);
  db.BulkUpsert(t, k0, storage::Row{10});
  db.BulkUpsert(t, k0b, storage::Row{20});

  const uint64_t single0 = CounterValue("shard.single_shard_txns");
  const uint64_t coord0 = CounterValue("2pc.coordinated");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 1).ok());
  ASSERT_TRUE(conn->Update(t, k0b, 0, 1).ok());
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(CounterValue("shard.single_shard_txns") - single0, 1u);
  EXPECT_EQ(CounterValue("2pc.coordinated") - coord0, 0u);
}

TEST(ShardedDbTest, CrossShardCommitRuns2PCAndApplies) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{10});
  db.BulkUpsert(t, k1, storage::Row{20});

  const uint64_t cross0 = CounterValue("shard.cross_shard_txns");
  const uint64_t coord0 = CounterValue("2pc.coordinated");
  const uint64_t prep0 = CounterValue("2pc.prepared");
  const uint64_t dec0 = CounterValue("2pc.decisions");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 5).ok());
  ASSERT_TRUE(conn->Update(t, k1, 0, 7).ok());
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(CounterValue("shard.cross_shard_txns") - cross0, 1u);
  EXPECT_EQ(CounterValue("2pc.coordinated") - coord0, 1u);
  EXPECT_EQ(CounterValue("2pc.prepared") - prep0, 1u);
  EXPECT_EQ(CounterValue("2pc.decisions") - dec0, 1u);

  auto check = db.Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(t, k0, 0), 15);
  EXPECT_EQ(*check->ReadColumn(t, k1, 0), 27);
  ASSERT_TRUE(check->Commit().ok());
}

/// Counts the 2PC markers of `kind` in a shard's whole appended log stream,
/// durable or not. Stops that shard's log.
int MarkersInStream(MySQLMini* shard, log::RedoOp::Kind kind) {
  const size_t appended = shard->redo_log().image_bytes();
  std::vector<log::RecoveredTxn> stream;
  log::DecodeLogImage(shard->redo_log().CrashImage(appended), &stream);
  int n = 0;
  for (const log::RecoveredTxn& txn : stream) {
    for (const log::RedoOp& op : txn.ops) n += op.kind == kind ? 1 : 0;
  }
  return n;
}

TEST(ShardedDbTest, SingleWriterCrossShardCommitsOnePhase) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{10});
  db.BulkUpsert(t, k1, storage::Row{20});

  const uint64_t cross0 = CounterValue("shard.cross_shard_txns");
  const uint64_t coord0 = CounterValue("2pc.coordinated");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 5).ok());
  ASSERT_TRUE(conn->SelectForUpdate(t, k1).ok());  // locks, writes nothing
  ASSERT_TRUE(conn->Commit().ok());
  // Two shards touched, one wrote: classified cross-shard, committed by the
  // writer's own log with no 2PC round.
  EXPECT_EQ(CounterValue("shard.cross_shard_txns") - cross0, 1u);
  EXPECT_EQ(CounterValue("2pc.coordinated") - coord0, 0u);

  auto check = db.Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(t, k0, 0), 15);
  EXPECT_EQ(*check->ReadColumn(t, k1, 0), 20);
  // The read-only sub-session released its X lock.
  ASSERT_TRUE(check->Update(t, k1, 0, 1).ok());
  ASSERT_TRUE(check->Commit().ok());

  // No 2PC frame reached either log: shard 0 holds a plain commit record.
  for (int s = 0; s < db.num_shards(); ++s) {
    for (const auto kind :
         {log::RedoOp::Kind::k2PCPrepare, log::RedoOp::Kind::k2PCDecide,
          log::RedoOp::Kind::k2PCCommit}) {
      EXPECT_EQ(MarkersInStream(db.shard(s), kind), 0) << "shard " << s;
    }
  }
}

TEST(ShardedDbTest, NoVoteInPrepareFanOutRollsBackEveryShard) {
  ShardedDatabaseConfig cfg = FastConfig(3);
  // A failed flush surfaces as a NO vote instead of being retried until the
  // device heals (the strict eager policy would block on it).
  cfg.shard.log_fallback_lazy_on_stall = true;
  cfg.shard.io_retry.backoff_ns = 1000;
  cfg.shard.io_retry.max_backoff_ns = 10000;
  FaultInjector broken_log;  // outlives the engine's log threads
  broken_log.AddWriteError(0, MillisToNanos(600 * 1000));
  ShardedDatabase db(cfg);
  // Only shard 2's log device fails; shard 1's PREPARE succeeds.
  db.shard(2)->log_disk().set_fault(&broken_log);
  broken_log.Arm();

  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t keys[3] = {KeyOn(db, t, 0), KeyOn(db, t, 1),
                            KeyOn(db, t, 2)};
  for (int s = 0; s < 3; ++s) db.BulkUpsert(t, keys[s], storage::Row{100});

  const uint64_t coord0 = CounterValue("2pc.coordinated");
  const uint64_t prep0 = CounterValue("2pc.prepared");
  const uint64_t abort0 = CounterValue("2pc.aborted_presumed");
  const uint64_t dec0 = CounterValue("2pc.decisions");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(conn->Update(t, keys[s], 0, s + 1).ok());
  }
  EXPECT_FALSE(conn->Commit().ok());

  const uint64_t coordinated = CounterValue("2pc.coordinated") - coord0;
  const uint64_t prepared = CounterValue("2pc.prepared") - prep0;
  const uint64_t aborted = CounterValue("2pc.aborted_presumed") - abort0;
  EXPECT_EQ(coordinated, 1u);
  EXPECT_EQ(aborted, 1u);
  EXPECT_EQ(prepared + aborted, coordinated);
  EXPECT_EQ(CounterValue("2pc.decisions") - dec0, 0u);

  // Every shard rolled back, and every lock was released.
  auto check = db.Connect();
  ASSERT_TRUE(check->Begin().ok());
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(*check->ReadColumn(t, keys[s], 0), 100) << "shard " << s;
    ASSERT_TRUE(check->SelectForUpdate(t, keys[s]).ok()) << "shard " << s;
  }
  check->Rollback();

  broken_log.Disarm();
  // No decision reached any stream, durable or not; the healthy participant
  // did log its PREPARE.
  EXPECT_EQ(MarkersInStream(db.shard(1), log::RedoOp::Kind::k2PCPrepare), 1);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(MarkersInStream(db.shard(s), log::RedoOp::Kind::k2PCDecide), 0)
        << "shard " << s;
  }
}

TEST(ShardedDbTest, ReadOnlyCrossShardCommitSkips2PC) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{1});
  db.BulkUpsert(t, k1, storage::Row{2});

  const uint64_t cross0 = CounterValue("shard.cross_shard_txns");
  const uint64_t coord0 = CounterValue("2pc.coordinated");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Select(t, k0).ok());
  ASSERT_TRUE(conn->Select(t, k1).ok());
  ASSERT_TRUE(conn->Commit().ok());
  // Classified cross-shard, but nothing durable to coordinate: no round.
  EXPECT_EQ(CounterValue("shard.cross_shard_txns") - cross0, 1u);
  EXPECT_EQ(CounterValue("2pc.coordinated") - coord0, 0u);
}

TEST(ShardedDbTest, RollbackUndoesEveryShard) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{10});
  db.BulkUpsert(t, k1, storage::Row{20});

  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 5).ok());
  ASSERT_TRUE(conn->Update(t, k1, 0, 7).ok());
  conn->Rollback();

  auto check = db.Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(t, k0, 0), 10);
  EXPECT_EQ(*check->ReadColumn(t, k1, 0), 20);
  ASSERT_TRUE(check->Commit().ok());
}

TEST(ShardedDbTest, EmptyCommitIsOk) {
  ShardedDatabase db(FastConfig(2));
  db.CreateTable("acct", 64);
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_TRUE(conn->Commit().ok());
}

TEST(ShardedDbTest, PinOverridesHashAndUnpinReverts) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k = KeyOn(db, t, 0);
  ASSERT_EQ(db.router().ShardOf(t, k), 0u);

  db.router().Pin(t, k, 3);
  EXPECT_EQ(db.router().ShardOf(t, k), 3u);
  EXPECT_EQ(db.router().pinned(), 1u);
  // A row upserted after pinning lands — and is found — on the pinned shard.
  db.BulkUpsert(t, k, storage::Row{9});
  EXPECT_EQ(db.shard(3)->TableRowCount(t), 1u);
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_EQ(*conn->ReadColumn(t, k, 0), 9);
  ASSERT_TRUE(conn->Commit().ok());

  EXPECT_TRUE(db.router().Unpin(t, k));
  EXPECT_EQ(db.router().ShardOf(t, k), 0u);
  EXPECT_FALSE(db.router().Unpin(t, k));
}

TEST(ShardedDbTest, ShardMaskCoversDeclaredFootprint) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k2 = KeyOn(db, t, 2);
  const std::vector<uint64_t> fp = {
      sched::ConflictPredictor::Fingerprint(t, k0),
      sched::ConflictPredictor::Fingerprint(t, k2)};
  EXPECT_EQ(db.router().ShardMaskOf(fp), (uint64_t{1} << 0) | (uint64_t{1} << 2));
  EXPECT_EQ(db.router().ShardMaskOf({}), 0u);
}

TEST(ShardedDbTest, GtidsAreDistinctAcrossConnections) {
  ShardedDatabase db(FastConfig(2));
  db.CreateTable("acct", 64);
  auto a = db.Connect();
  auto b = db.Connect();
  ASSERT_TRUE(a->Begin().ok());
  ASSERT_TRUE(b->Begin().ok());
  EXPECT_NE(a->current_txn_id(), 0u);
  EXPECT_NE(a->current_txn_id(), b->current_txn_id());
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Commit().ok());
}

TEST(ShardedDbTest, AsyncCommitFallsBackInlineForCrossShard) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{0});
  db.BulkUpsert(t, k1, storage::Row{0});
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 1).ok());
  ASSERT_TRUE(conn->Update(t, k1, 0, 1).ok());
  bool acked = false;
  ASSERT_TRUE(conn->CommitAsync([&](const Status& s) {
    EXPECT_TRUE(s.ok());
    acked = true;
  }).ok());
  EXPECT_TRUE(acked);
}

}  // namespace
}  // namespace tdp::engine
