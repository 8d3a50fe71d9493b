// Presumed-abort 2PC recovery: Filter2PCRedo's cross-stream resolution over
// hand-built streams (folded decision frames and the older decision-only
// layout), the participant seam (PrepareCommitAsync/CommitPrepared) end to
// end through real CRC32C-framed crash images, and the codec roundtrip of
// the k2PC* frame kinds (docs/sharding.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/durable_acks.h"
#include "common/clock.h"
#include "engine/mysqlmini.h"
#include "engine/recovery.h"
#include "engine/sharded_db.h"
#include "log/log_codec.h"

namespace tdp::engine {
namespace {

using log::RecoveredTxn;
using log::RedoOp;

RedoOp Marker(RedoOp::Kind kind, uint32_t coord, uint64_t gtid) {
  return RedoOp{kind, coord, gtid, storage::Row{}};
}

RedoOp Put(uint32_t table, uint64_t key, int64_t v) {
  return RedoOp{RedoOp::Kind::kPut, table, key, storage::Row{v}};
}

/// PREPARE frame: marker followed by the participant's data redo.
RecoveredTxn PrepareFrame(uint64_t lsn, uint32_t coord, uint64_t gtid,
                          std::vector<RedoOp> data) {
  RecoveredTxn t;
  t.txn_id = gtid;
  t.lsn = lsn;
  t.ops.push_back(Marker(RedoOp::Kind::k2PCPrepare, coord, gtid));
  for (RedoOp& op : data) t.ops.push_back(std::move(op));
  return t;
}

RecoveredTxn ControlFrame(uint64_t lsn, RedoOp::Kind kind, uint32_t coord,
                          uint64_t gtid) {
  RecoveredTxn t;
  t.txn_id = gtid;
  t.lsn = lsn;
  t.ops.push_back(Marker(kind, coord, gtid));
  return t;
}

/// Phase 1 on one participant session, waiting for its vote.
Status Prepare(MySQLSession* session, uint64_t gtid, uint32_t coord_shard) {
  AckLatch vote;
  session->PrepareCommitAsync(gtid, coord_shard, vote.Expect());
  return vote.Wait();
}

RecoveredTxn PlainFrame(uint64_t txn_id, uint64_t lsn, std::vector<RedoOp> ops) {
  return RecoveredTxn{txn_id, lsn, std::move(ops)};
}

// --- Filter2PCRedo over hand-built streams ---------------------------------

TEST(Filter2PCRedoTest, DecidedPrepareReplaysWithMarkerStripped) {
  // Coordinator (shard 0) logged prepare + decision; shard 1 only the
  // prepare. Both shards must replay their data ops.
  std::vector<std::vector<RecoveredTxn>> streams(2);
  streams[0].push_back(PrepareFrame(1, 0, 77, {Put(0, 10, 5)}));
  streams[0].push_back(ControlFrame(2, RedoOp::Kind::k2PCDecide, 0, 77));
  streams[1].push_back(PrepareFrame(1, 0, 77, {Put(0, 11, 6)}));

  TwoPhaseRecoveryStats s1;
  const auto out1 = Filter2PCRedo(streams, 1, &s1);
  ASSERT_EQ(out1.size(), 1u);
  ASSERT_EQ(out1[0].ops.size(), 1u);
  EXPECT_EQ(out1[0].ops[0].kind, RedoOp::Kind::kPut);
  EXPECT_EQ(out1[0].ops[0].key, 11u);
  EXPECT_EQ(s1.decided, 1u);
  EXPECT_EQ(s1.replayed_prepared, 1u);
  EXPECT_EQ(s1.presumed_aborted, 0u);

  TwoPhaseRecoveryStats s0;
  const auto out0 = Filter2PCRedo(streams, 0, &s0);
  // The decision frame is control-only: it never replays as data.
  ASSERT_EQ(out0.size(), 1u);
  EXPECT_EQ(out0[0].ops[0].key, 10u);
  EXPECT_EQ(s0.replayed_prepared, 1u);
}

TEST(Filter2PCRedoTest, UndecidedPrepareIsPresumedAborted) {
  std::vector<std::vector<RecoveredTxn>> streams(2);
  streams[0].push_back(PrepareFrame(1, 0, 42, {Put(0, 1, 1)}));
  streams[1].push_back(PrepareFrame(1, 0, 42, {Put(0, 2, 2)}));
  // No decision anywhere: the coordinator crashed before its commit point.
  for (size_t shard = 0; shard < 2; ++shard) {
    TwoPhaseRecoveryStats st;
    EXPECT_TRUE(Filter2PCRedo(streams, shard, &st).empty());
    EXPECT_EQ(st.decided, 0u);
    EXPECT_EQ(st.presumed_aborted, 1u);
    EXPECT_EQ(st.replayed_prepared, 0u);
  }
}

TEST(Filter2PCRedoTest, LocalParticipantCommitProvesOutcome) {
  // Shard 1 has its own COMMIT frame but the coordinator's log (with the
  // decision) was lost entirely: the local frame must still commit it.
  std::vector<std::vector<RecoveredTxn>> streams(2);
  streams[1].push_back(PrepareFrame(1, 0, 9, {Put(0, 3, 3)}));
  streams[1].push_back(ControlFrame(2, RedoOp::Kind::k2PCCommit, 0, 9));

  TwoPhaseRecoveryStats st;
  const auto out = Filter2PCRedo(streams, 1, &st);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ops[0].key, 3u);
  EXPECT_EQ(st.decided, 0u);
  EXPECT_EQ(st.replayed_prepared, 1u);
}

TEST(Filter2PCRedoTest, PlainFramesPassThroughUnchanged) {
  std::vector<std::vector<RecoveredTxn>> streams(1);
  streams[0].push_back(PlainFrame(5, 1, {Put(0, 1, 1), Put(0, 2, 2)}));
  streams[0].push_back(PrepareFrame(2, 0, 6, {Put(0, 3, 3)}));  // undecided

  const auto out = Filter2PCRedo(streams, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].txn_id, 5u);
  EXPECT_EQ(out[0].ops.size(), 2u);
}

TEST(Filter2PCRedoTest, MixedDecidedAndUndecidedGtids) {
  std::vector<std::vector<RecoveredTxn>> streams(2);
  streams[0].push_back(PrepareFrame(1, 0, 100, {Put(0, 1, 1)}));
  streams[0].push_back(ControlFrame(2, RedoOp::Kind::k2PCDecide, 0, 100));
  streams[0].push_back(PrepareFrame(3, 0, 101, {Put(0, 2, 2)}));  // undecided
  streams[1].push_back(PrepareFrame(1, 0, 100, {Put(0, 5, 5)}));
  streams[1].push_back(PrepareFrame(2, 0, 101, {Put(0, 6, 6)}));

  TwoPhaseRecoveryStats st;
  const auto out = Filter2PCRedo(streams, 0, &st);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ops[0].key, 1u);
  EXPECT_EQ(st.decided, 1u);
  EXPECT_EQ(st.replayed_prepared, 1u);
  EXPECT_EQ(st.presumed_aborted, 1u);
}

/// DECISION frame in the folded layout: marker, then the coordinator's data.
RecoveredTxn DecisionFrame(uint64_t lsn, uint32_t coord, uint64_t gtid,
                           std::vector<RedoOp> data) {
  RecoveredTxn t = ControlFrame(lsn, RedoOp::Kind::k2PCDecide, coord, gtid);
  for (RedoOp& op : data) t.ops.push_back(std::move(op));
  return t;
}

TEST(Filter2PCRedoTest, DecisionFrameDataReplaysOnCoordinatorOnly) {
  // Folded layout: the coordinator (shard 0) logged no PREPARE — its data
  // rides behind the decision marker. Shard 1 holds a PREPARE.
  std::vector<std::vector<RecoveredTxn>> streams(2);
  streams[0].push_back(DecisionFrame(1, 0, 31, {Put(0, 10, 5), Put(0, 12, 7)}));
  streams[1].push_back(PrepareFrame(1, 0, 31, {Put(0, 11, 6)}));

  TwoPhaseRecoveryStats s0;
  const auto out0 = Filter2PCRedo(streams, 0, &s0);
  ASSERT_EQ(out0.size(), 1u);
  ASSERT_EQ(out0[0].ops.size(), 2u);  // marker stripped, data kept
  EXPECT_EQ(out0[0].ops[0].kind, RedoOp::Kind::kPut);
  EXPECT_EQ(out0[0].ops[0].key, 10u);
  EXPECT_EQ(out0[0].ops[1].key, 12u);
  EXPECT_EQ(s0.decided, 1u);
  EXPECT_EQ(s0.replayed_decisions, 1u);
  EXPECT_EQ(s0.replayed_prepared, 0u);

  // The participant replays only its own PREPARE data, never the
  // coordinator's decision payload.
  TwoPhaseRecoveryStats s1;
  const auto out1 = Filter2PCRedo(streams, 1, &s1);
  ASSERT_EQ(out1.size(), 1u);
  ASSERT_EQ(out1[0].ops.size(), 1u);
  EXPECT_EQ(out1[0].ops[0].key, 11u);
  EXPECT_EQ(s1.replayed_decisions, 0u);
  EXPECT_EQ(s1.replayed_prepared, 1u);
}

TEST(Filter2PCRedoTest, DecisionOnlyFrameReplaysNothing) {
  // The older layout: the coordinator prepared separately and its decision
  // frame is marker-only. Such images must stay recoverable unchanged.
  std::vector<std::vector<RecoveredTxn>> streams(1);
  streams[0].push_back(PrepareFrame(1, 0, 8, {Put(0, 1, 1)}));
  streams[0].push_back(ControlFrame(2, RedoOp::Kind::k2PCDecide, 0, 8));

  TwoPhaseRecoveryStats st;
  const auto out = Filter2PCRedo(streams, 0, &st);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lsn, 1u);  // the PREPARE's data, not the decision
  EXPECT_EQ(out[0].ops.size(), 1u);
  EXPECT_EQ(st.replayed_decisions, 0u);
  EXPECT_EQ(st.replayed_prepared, 1u);
}

TEST(Filter2PCRedoTest, UndecidedParticipantPrepareIsPresumedAborted) {
  // Folded layout, coordinator crashed before its decision frame: only the
  // non-coordinator PREPARE reached a disk, and it must not replay.
  std::vector<std::vector<RecoveredTxn>> streams(3);
  streams[1].push_back(PrepareFrame(1, 0, 64, {Put(0, 4, 4)}));
  streams[2].push_back(PrepareFrame(1, 0, 64, {Put(0, 5, 5)}));
  for (size_t shard = 0; shard < 3; ++shard) {
    TwoPhaseRecoveryStats st;
    EXPECT_TRUE(Filter2PCRedo(streams, shard, &st).empty());
    EXPECT_EQ(st.decided, 0u);
    EXPECT_EQ(st.presumed_aborted, shard == 0 ? 0u : 1u);
    EXPECT_EQ(st.replayed_decisions, 0u);
  }
}

// --- end to end through real crash images ----------------------------------

ShardedDatabaseConfig RecoveryConfig(int num_shards) {
  ShardedDatabaseConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.logical_redo = true;
  cfg.shard.flush_policy = log::FlushPolicy::kEagerFlush;
  cfg.shard.row_work_ns = 0;
  cfg.shard.btree.level_work_ns = 0;
  cfg.shard.data_disk.base_latency_ns = 0;
  cfg.shard.data_disk.sigma = 0;
  cfg.shard.log_disk.base_latency_ns = 1000;
  cfg.shard.log_disk.sigma = 0;
  cfg.shard.log_disk.flush_barrier_ns = 0;
  cfg.shard.lock.wait_timeout_ns = MillisToNanos(200);
  return cfg;
}

uint64_t KeyOn(const ShardedDatabase& db, uint32_t table, uint32_t shard,
               uint64_t from = 0) {
  for (uint64_t k = from;; ++k) {
    if (db.router().ShardOf(table, k) == shard) return k;
  }
}

/// Decodes every shard's post-crash log image.
std::vector<std::vector<RecoveredTxn>> CrashStreams(ShardedDatabase* db) {
  std::vector<std::vector<RecoveredTxn>> streams(
      static_cast<size_t>(db->num_shards()));
  for (int s = 0; s < db->num_shards(); ++s) {
    const std::vector<uint8_t> image = db->shard(s)->redo_log().CrashImage();
    log::DecodeLogImage(image, &streams[static_cast<size_t>(s)]);
  }
  return streams;
}

TEST(TwoPhaseRecoveryTest, CommittedCrossShardTxnSurvivesCrash) {
  auto db = std::make_unique<ShardedDatabase>(RecoveryConfig(2));
  const uint32_t t = db->CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(*db, t, 0);
  const uint64_t k1 = KeyOn(*db, t, 1);
  db->BulkUpsert(t, k0, storage::Row{100});
  db->BulkUpsert(t, k1, storage::Row{200});

  auto conn = db->Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 11).ok());
  ASSERT_TRUE(conn->Update(t, k1, 0, 22).ok());
  ASSERT_TRUE(conn->Commit().ok());
  conn.reset();

  const auto streams = CrashStreams(db.get());

  // The codec roundtrip: shard 0 (the coordinator) carries only the
  // DECISION, with its data redo folded in behind the marker; shard 1 a
  // PREPARE and its participant COMMIT.
  int decides = 0, prepares = 0, commits = 0;
  for (const auto& stream : streams) {
    for (const RecoveredTxn& txn : stream) {
      for (const RedoOp& op : txn.ops) {
        if (op.kind == RedoOp::Kind::k2PCDecide) ++decides;
        if (op.kind == RedoOp::Kind::k2PCPrepare) ++prepares;
        if (op.kind == RedoOp::Kind::k2PCCommit) ++commits;
      }
    }
  }
  EXPECT_EQ(decides, 1);
  EXPECT_EQ(prepares, 1);
  EXPECT_EQ(commits, 1);

  auto fresh = std::make_unique<ShardedDatabase>(RecoveryConfig(2));
  ASSERT_EQ(fresh->CreateTable("acct", 64), t);
  fresh->BulkUpsert(t, k0, storage::Row{100});
  fresh->BulkUpsert(t, k1, storage::Row{200});
  for (int s = 0; s < fresh->num_shards(); ++s) {
    TwoPhaseRecoveryStats st;
    const auto filtered =
        Filter2PCRedo(streams, static_cast<size_t>(s), &st);
    // The coordinator replays its data from the decision frame, the
    // participant from its decided PREPARE.
    EXPECT_EQ(st.replayed_decisions, s == 0 ? 1u : 0u) << "shard " << s;
    EXPECT_EQ(st.replayed_prepared, s == 0 ? 0u : 1u) << "shard " << s;
    EXPECT_EQ(st.presumed_aborted, 0u) << "shard " << s;
    MySQLMini::RecoverInto(filtered, fresh->shard(s));
  }

  auto check = fresh->Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(t, k0, 0), 111);
  EXPECT_EQ(*check->ReadColumn(t, k1, 0), 222);
  ASSERT_TRUE(check->Commit().ok());
}

TEST(TwoPhaseRecoveryTest, PreparedWithoutDecisionRollsBackEverywhere) {
  // Drive the participant seam directly: both shards prepare (frames forced
  // durable), then the "coordinator" crashes before its decision frame.
  auto db = std::make_unique<ShardedDatabase>(RecoveryConfig(2));
  const uint32_t t = db->CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(*db, t, 0);
  const uint64_t k1 = KeyOn(*db, t, 1);
  db->BulkUpsert(t, k0, storage::Row{100});
  db->BulkUpsert(t, k1, storage::Row{200});

  auto s0 = db->shard(0)->ConnectSession();
  auto s1 = db->shard(1)->ConnectSession();
  ASSERT_TRUE(s0->Begin().ok());
  ASSERT_TRUE(s1->Begin().ok());
  ASSERT_TRUE(s0->Update(t, k0, 0, 11).ok());
  ASSERT_TRUE(s1->Update(t, k1, 0, 22).ok());
  const uint64_t gtid = 555;
  ASSERT_TRUE(Prepare(s0.get(), gtid, 0).ok());
  ASSERT_TRUE(Prepare(s1.get(), gtid, 0).ok());
  EXPECT_TRUE(s0->prepared());
  EXPECT_TRUE(s1->prepared());
  // Crash here: no decision was ever logged.

  const auto streams = CrashStreams(db.get());
  auto fresh = std::make_unique<ShardedDatabase>(RecoveryConfig(2));
  ASSERT_EQ(fresh->CreateTable("acct", 64), t);
  fresh->BulkUpsert(t, k0, storage::Row{100});
  fresh->BulkUpsert(t, k1, storage::Row{200});
  for (int s = 0; s < fresh->num_shards(); ++s) {
    TwoPhaseRecoveryStats st;
    const auto filtered =
        Filter2PCRedo(streams, static_cast<size_t>(s), &st);
    EXPECT_TRUE(filtered.empty()) << "shard " << s;
    EXPECT_EQ(st.presumed_aborted, 1u) << "shard " << s;
    MySQLMini::RecoverInto(filtered, fresh->shard(s));
  }

  auto check = fresh->Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(t, k0, 0), 100);
  EXPECT_EQ(*check->ReadColumn(t, k1, 0), 200);
  ASSERT_TRUE(check->Commit().ok());

  // Live-side presumed abort: the sessions roll back cleanly from the
  // prepared window (locks held, undo retained).
  s0->Rollback();
  s1->Rollback();
  auto live = db->Connect();
  ASSERT_TRUE(live->Begin().ok());
  EXPECT_EQ(*live->ReadColumn(t, k0, 0), 100);
  EXPECT_EQ(*live->ReadColumn(t, k1, 0), 200);
  ASSERT_TRUE(live->Commit().ok());
}

TEST(TwoPhaseRecoveryTest, AmbiguousDecisionLogsNoParticipantCommit) {
  // CommitPrepared(gtid, /*log_commit_frame=*/false) — the ambiguous-
  // coordinator path — must leave no COMMIT frame behind: a durable one
  // would commit this shard at recovery while siblings presume abort.
  auto db = std::make_unique<ShardedDatabase>(RecoveryConfig(2));
  const uint32_t t = db->CreateTable("acct", 64);
  const uint64_t k1 = KeyOn(*db, t, 1);
  db->BulkUpsert(t, k1, storage::Row{200});

  auto s1 = db->shard(1)->ConnectSession();
  ASSERT_TRUE(s1->Begin().ok());
  ASSERT_TRUE(s1->Update(t, k1, 0, 22).ok());
  ASSERT_TRUE(Prepare(s1.get(), /*gtid=*/7, /*coord_shard=*/0).ok());
  s1->CommitPrepared(/*gtid=*/7, /*log_commit_frame=*/false);
  s1.reset();

  const auto streams = CrashStreams(db.get());
  for (const RecoveredTxn& txn : streams[1]) {
    for (const RedoOp& op : txn.ops) {
      EXPECT_NE(op.kind, RedoOp::Kind::k2PCCommit);
    }
  }
  // And with no decision anywhere, recovery presumes abort.
  TwoPhaseRecoveryStats st;
  EXPECT_TRUE(Filter2PCRedo(streams, 1, &st).empty());
  EXPECT_EQ(st.presumed_aborted, 1u);
}

}  // namespace
}  // namespace tdp::engine
