#include "workloads.h"

#include <cmath>

#include "core/toolkit.h"
#include "engine/sharded_db.h"
#include "sched/conflict_predictor.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace perfbench {

using tdp::Rng;
using tdp::engine::Connection;
using tdp::engine::Database;

namespace {

class TpccGen : public Generator {
 public:
  explicit TpccGen(tdp::workload::TpccConfig config) : tpcc(config) {}
  GenTxn Next(Rng* rng) override {
    tdp::workload::Workload::Txn t = tpcc.NextTxn(rng);
    GenTxn g;
    g.type = t.type;
    g.body = std::move(t.body);
    g.footprint = std::move(t.footprint);
    return g;
  }
  tdp::workload::Tpcc tpcc;
};

class YcsbGen : public Generator {
 public:
  explicit YcsbGen(tdp::workload::YcsbConfig config) : ycsb(config) {}
  GenTxn Next(Rng* rng) override {
    tdp::workload::Workload::Txn t = ycsb.NextTxn(rng);
    GenTxn g;
    g.type = t.type;
    g.body = std::move(t.body);
    // Ycsb declares exactly one fingerprint per update, and each update
    // adds 1 to column 0.
    g.updates = static_cast<int>(t.footprint.size());
    g.footprint = std::move(t.footprint);
    return g;
  }
  tdp::workload::Ycsb ycsb;
};

constexpr uint64_t kCrossRows = 40000;
constexpr double kCrossShare = 0.3;

/// Two uniform updates per transaction. The first key picks a home shard;
/// with probability kCrossShare the second key comes from another shard
/// (forcing 2PC), otherwise from the home shard's own keys.
class CrossShardGen : public Generator {
 public:
  CrossShardGen(uint32_t table, const tdp::engine::ShardRouter& router)
      : table_(table), router_(router),
        shard_keys_(static_cast<size_t>(router.num_shards())) {
    for (uint64_t k = 0; k < kCrossRows; ++k) {
      shard_keys_[router_.ShardOf(table_, k)].push_back(k);
    }
  }

  GenTxn Next(Rng* rng) override {
    const uint64_t k0 = rng->Uniform(kCrossRows);
    const uint32_t home = router_.ShardOf(table_, k0);
    const uint32_t shards = static_cast<uint32_t>(router_.num_shards());
    GenTxn g;
    g.type = "Update2";
    g.cross = rng->Bernoulli(kCrossShare);
    const uint32_t other =
        g.cross ? (home + 1 + static_cast<uint32_t>(rng->Uniform(shards - 1))) %
                      shards
                : home;
    const std::vector<uint64_t>& keys = shard_keys_[other];
    const uint64_t k1 = keys[rng->Uniform(keys.size())];
    g.updates = 2;
    g.footprint = {tdp::sched::ConflictPredictor::Fingerprint(table_, k0),
                   tdp::sched::ConflictPredictor::Fingerprint(table_, k1)};
    g.body = [table = table_, k0, k1](Connection& conn) -> tdp::Status {
      tdp::Status s = conn.Update(table, k0, 0, 1);
      if (!s.ok()) return s;
      return conn.Update(table, k1, 0, 1);
    };
    return g;
  }

 private:
  const uint32_t table_;
  const tdp::engine::ShardRouter& router_;
  std::vector<std::vector<uint64_t>> shard_keys_;
};

LoadResult LoadTpcc(Database* db, tdp::workload::TpccConfig config) {
  auto gen = std::make_unique<TpccGen>(config);
  gen->tpcc.Load(db);
  LoadResult r;
  r.data_pages = gen->tpcc.DataPages(*db);
  r.gen = std::move(gen);
  return r;
}

LoadResult LoadTpccHot(Database* db) {
  return LoadTpcc(db, tdp::core::Toolkit::TpccContended());
}

LoadResult LoadTpccPg(Database* db) {
  tdp::workload::TpccConfig config;
  config.warehouses = 4;
  return LoadTpcc(db, config);
}

constexpr uint64_t kCpuRows = 200000;
constexpr uint64_t kRowsPerPage = 64;  // what Ycsb::Load uses

LoadResult LoadYcsbCpu(Database* db) {
  tdp::workload::YcsbConfig config;
  config.rows = kCpuRows;
  config.zipf_theta = 0.6;
  config.ops_per_txn = 4;
  config.pct_reads = 90;
  auto gen = std::make_unique<YcsbGen>(config);
  gen->ycsb.Load(db);
  LoadResult r;
  r.data_pages = (kCpuRows + kRowsPerPage - 1) / kRowsPerPage;
  r.gen = std::move(gen);
  return r;
}

LoadResult LoadYcsbCross(Database* db) {
  const uint32_t table = db->CreateTable("usertable", kRowsPerPage);
  for (uint64_t k = 0; k < kCrossRows; ++k) {
    db->BulkUpsert(table, k, tdp::storage::Row{0});
  }
  auto* sharded = static_cast<tdp::engine::ShardedDatabase*>(db);
  LoadResult r;
  r.data_pages = (kCrossRows + kRowsPerPage - 1) / kRowsPerPage;
  r.gen = std::make_unique<CrossShardGen>(table, sharded->router());
  return r;
}

WorkloadDef TpccHot() {
  WorkloadDef d{};
  d.name = "tpcc_hot";
  d.why =
      "The paper's regime: 1-warehouse TPC-C where hot-row lock waits, "
      "server queueing and a heavy-tailed log fsync make the latency; 2PC, "
      "replication and buffer misses are bypassed.";
  d.cache =
      "16384-page pool holds the whole working set (114 pages at load, "
      "growing only by inserted orders).";
  d.flush =
      "Eager flush on every commit, no group commit; ~0.9 ms lognormal "
      "fsync (sigma 0.9, tail capped at 6x).";
  d.loop = Loop::kOpen;
  // Hot-row locks are held across the fsync, and each of the 4 workers
  // stays busy through its transaction's lock waits. At 450 tps one long
  // fsync stalled every worker often enough that two runs of the same seed
  // differed by 20% in p50 and 40% in p95. At 300 tps a few minutes of host
  // noise still moved p50 by 15% and p95 by 30%; the tail, where lock
  // convoys form, moved most. 200 tps keeps convoys shorter while lock
  // waits (0.19 per transaction) still set the tail.
  d.tps = 200;
  d.kind = tdp::engine::EngineKind::kMySQLMini;
  d.engine.mysql =
      tdp::core::Toolkit::MysqlDefault(tdp::lock::SchedulerPolicy::kVATS);
  d.service.workers = 4;
  d.service.policy = tdp::server::DispatchPolicy::kEldestFirst;
  d.conserves_updates = false;
  d.load = LoadTpccHot;
  return d;
}

WorkloadDef YcsbCross() {
  WorkloadDef d{};
  d.name = "ycsb_cross";
  d.why =
      "The only workload that runs cross-shard 2PC, quorum-replicated acks "
      "and redo epoch waiters; lock contention is about zero.";
  d.cache =
      "1024-page pool per shard; each shard's hash partition spans all 625 "
      "data pages, so the pool holds it and only cold misses remain.";
  d.flush =
      "Epoch async commit (50 us epochs) on every shard; a commit is acked "
      "once 2 of 3 copies hold it durable.";
  d.loop = Loop::kOpen;
  // Cross-shard 2PC holds a worker for its whole synchronous commit; the
  // rate stays well below the 4-worker knee, where runs turn bimodal. At
  // 1000 tps a noisy host already pushed some runs there (p95 up to 1.5x).
  d.tps = 700;
  d.kind = tdp::engine::EngineKind::kSharded;
  tdp::engine::ShardedDatabaseConfig& s = d.engine.sharded;
  s.num_shards = 4;
  tdp::engine::MySQLMiniConfig& m = s.shard;
  // Cross-shard deadlocks are invisible to each shard's cycle detector and
  // end by timeout, so the timeout must be finite and short.
  m.lock.wait_timeout_ns = tdp::MillisToNanos(200);
  m.buffer_pool_pages = 1024;
  m.row_work_ns = 400;
  m.btree.level_work_ns = 120;
  m.flush_policy = tdp::log::FlushPolicy::kEagerFlush;
  m.log_async_commit = true;
  m.log_disk.base_latency_ns = 150000;
  m.log_disk.sigma = 0.4;
  m.log_disk.max_jitter = 6.0;
  m.log_disk.flush_barrier_ns = 50000;
  m.log_disk.max_concurrency = 4;
  m.repl_replicas = 3;
  m.repl_disk = m.log_disk;
  m.seed = 42;
  d.service.workers = 4;
  d.service.async_ack = true;
  d.conserves_updates = true;
  d.load = LoadYcsbCross;
  return d;
}

WorkloadDef YcsbCpu() {
  WorkloadDef d{};
  d.name = "ycsb_cpu";
  d.why =
      "The software path that device sleeps hide elsewhere: zero-latency "
      "devices, no service layer, so buffer pool, lock manager and log code "
      "set the throughput.";
  d.cache = "512-page pool against 3125 data pages (data ~6x the cache).";
  d.flush =
      "Eager flush with group commit on a zero-latency log device "
      "(base 0, sigma 0, barrier 0).";
  d.loop = Loop::kClosed;
  d.clients = 3;
  d.kind = tdp::engine::EngineKind::kMySQLMini;
  tdp::engine::MySQLMiniConfig& m = d.engine.mysql;
  m.buffer_pool_pages = 512;
  m.row_work_ns = 0;
  m.btree.level_work_ns = 0;
  m.btree.insert_work_ns = 0;
  tdp::SimDiskConfig zero;
  zero.base_latency_ns = 0;
  zero.sigma = 0;
  zero.flush_barrier_ns = 0;
  zero.bytes_per_us = 1e9;
  zero.max_concurrency = 8;
  m.data_disk = zero;
  m.log_disk = zero;
  d.conserves_updates = true;
  d.load = LoadYcsbCpu;
  return d;
}

WorkloadDef TpccPg() {
  WorkloadDef d{};
  d.name = "tpcc_pg";
  d.why =
      "The only workload that runs pgmini: parallel WAL sets with per-set "
      "epoch waiters, the second of the three ack-parking copies.";
  d.cache = "pgmini has no buffer pool; all rows stay in memory.";
  d.flush =
      "Epoch async commit over 2 WAL sets (parallel logging) with 64 KiB "
      "blocks; ~0.3 ms lognormal WAL fsync.";
  d.loop = Loop::kOpen;
  d.tps = 400;
  d.kind = tdp::engine::EngineKind::kPgMini;
  // A TPC-C commit logs ~16 KiB, and every block of an epoch round is its
  // own device write. With 32 KiB blocks a set that gathered three commits
  // wrote two blocks; the longer round gathered more commits, so runs
  // locked into a slow mode (p50 +20%, p95 x2). 64 KiB blocks keep a round
  // at one write per set up to four commits.
  d.engine.pg = tdp::core::Toolkit::PgDefault(/*parallel_logging=*/true,
                                              /*wal_block_bytes=*/65536);
  d.engine.pg.wal.async_commit = true;
  d.service.workers = 4;
  d.service.async_ack = true;
  d.conserves_updates = false;
  d.load = LoadTpccPg;
  return d;
}

}  // namespace

const std::vector<WorkloadDef>& AllWorkloads() {
  static const std::vector<WorkloadDef> all = {TpccHot(), YcsbCross(),
                                               YcsbCpu(), TpccPg()};
  return all;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& d : AllWorkloads()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

const std::vector<std::string>& UnmeasuredModules() {
  static const std::vector<std::string> modules = {
      "sched: conflict-aware steering with <= 4 requests in flight had "
      "nothing to steer and was unsteady (probe p99 27.7-48.4 ms against "
      "VATS at 21.0-24.1 ms on tpcc_hot at 450 tps)",
      "volt: voltmini is not an engine::Database, so it cannot run these "
      "streams",
      "tuning, tprofiler: not on the request path",
  };
  return modules;
}

tdp::Result<Setup> OpenAndLoad(const WorkloadDef& def) {
  tdp::Result<std::unique_ptr<Database>> opened =
      tdp::engine::OpenDatabase(def.kind, def.engine);
  if (!opened.ok()) return opened.status();
  Setup s;
  s.db = std::move(opened.value());
  s.loaded = def.load(s.db.get());
  return s;
}

Rng TxnRng(uint64_t seed, int client) {
  return Rng(seed * 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(client) + 1);
}

Rng ArrivalRng(uint64_t seed) { return Rng(seed ^ 0x9E3779B97F4A7C15ULL); }

std::vector<Planned> PlanPhase(Generator* gen, double tps, double seconds,
                               Rng* txn_rng, Rng* arrival_rng) {
  std::vector<Planned> plan;
  const double horizon_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / tps;
  double at = 0;
  while (true) {
    // Inverse-CDF exponential gap; NextDouble() is in [0, 1).
    at += -std::log(1.0 - arrival_rng->NextDouble()) * mean_gap_ns;
    if (at >= horizon_ns) break;
    plan.push_back(Planned{static_cast<int64_t>(at), gen->Next(txn_rng)});
  }
  return plan;
}

}  // namespace perfbench
