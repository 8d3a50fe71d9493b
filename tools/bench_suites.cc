#include "tools/bench_suites.h"

#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/ledger.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/toolkit.h"
#include "engine/factory.h"
#include "engine/mysqlmini.h"
#include "pg/pgmini.h"
#include "server/service.h"
#include "volt/voltmini.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace tdp::tools {
namespace {

// Suite experiments are sized so the whole smoke suite finishes well under
// the 60 s ctest budget in quick mode while still driving every counter the
// invariants check; the full-size runs are for humans comparing BENCH_*.json
// across commits.
uint64_t SuiteN(uint64_t full) { return bench::QuickMode() ? full / 10 : full; }

/// Runs `body`, brackets it with registry snapshots, and returns the
/// experiment object carrying the latency metrics and the registry delta.
/// `params` rides along so CheckInvariants can see the configuration
/// (e.g. the WAL block size) without re-deriving it.
template <typename Body>
json::Value RunExperiment(const std::string& name, const std::string& engine,
                          json::Value params, Body&& body) {
  metrics::Registry& reg = metrics::Registry::Global();
  const metrics::MetricsSnapshot before = reg.TakeSnapshot();
  const core::Metrics m = body();
  const metrics::MetricsSnapshot after = reg.TakeSnapshot();

  json::Value e = json::Value::Object();
  e.Set("name", json::Value::Str(name));
  e.Set("engine", json::Value::Str(engine));
  e.Set("params", std::move(params));
  e.Set("latency", bench::MetricsToJson(m));
  e.Set("metrics", bench::SnapshotToJson(
                       metrics::MetricsSnapshot::Delta(before, after)));
  return e;
}

/// Constructs an engine through the validating factory; a rejected config
/// is a bug in the suite itself, so it aborts loudly.
std::unique_ptr<engine::Database> MustOpen(engine::EngineKind kind,
                                           const engine::EngineConfig& cfg) {
  auto db = engine::OpenDatabase(kind, cfg);
  if (!db.ok()) {
    std::fprintf(stderr, "bench_suites: OpenDatabase(%s): %s\n",
                 engine::EngineKindName(kind), db.status().ToString().c_str());
    std::abort();
  }
  return std::move(db.value());
}

/// Opens the engine `kind` selects from `ecfg`, loads `wl` into it and runs
/// it open-loop through `driver`.
core::Metrics Measure(engine::EngineKind kind, const engine::EngineConfig& ecfg,
                      workload::Workload* wl,
                      const workload::DriverConfig& driver) {
  auto db = MustOpen(kind, ecfg);
  wl->Load(db.get());
  return core::Metrics::From(workload::Run(db.get(), wl, driver));
}

/// The server layer's run: `wl` is loaded into a mysqlmini built from `cfg`
/// and driven open-loop, `n` Poisson arrivals at `tps`, through a
/// TransactionService built from `scfg` (one attempt per dispatch by
/// default, so retryable aborts requeue).
core::Metrics RunThroughService(const engine::MySQLMiniConfig& cfg,
                                workload::Workload* wl,
                                const server::ServiceConfig& scfg, double tps,
                                uint64_t n) {
  engine::EngineConfig ecfg;
  ecfg.mysql = cfg;
  workload::DriverConfig driver;
  driver.tps = tps;
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  driver.arrival = workload::ArrivalProcess::kPoisson;
  driver.service = scfg;
  return Measure(engine::EngineKind::kMySQLMini, ecfg, wl, driver);
}

/// Open-loop voltmini run mirroring bench_fig6_outofbox's third leg, sized
/// down: paced submissions of sleep-procedures across 8 partitions.
core::Metrics RunVolt(int workers, uint64_t n) {
  volt::VoltMini db(core::Toolkit::VoltDefault(workers));
  db.Start();
  Rng rng(29);
  std::vector<std::shared_ptr<volt::VoltMini::Ticket>> tickets;
  const int64_t gap_ns = 500000;  // 2000/s of ~0.4 ms work: ~40% utilization
  int64_t next = NowNanos();
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t now = NowNanos();
    if (next > now)
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    next += gap_ns;
    const int64_t service_us = 200 + static_cast<int64_t>(rng.Uniform(400));
    tickets.push_back(db.Submit(static_cast<int>(rng.Uniform(8)), [service_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(service_us));
    }));
  }
  std::vector<int64_t> lat;
  for (auto& t : tickets) {
    t->Wait();
    lat.push_back(t->latency_ns());
  }
  db.Stop();
  return core::Metrics::FromLatencies(lat);
}

/// The paper's open-loop driver sized to `n` transactions, 10% warmup.
workload::DriverConfig Driver(uint64_t n) {
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.num_txns = n;
  driver.warmup_txns = n / 10;
  return driver;
}

/// TPC-C on mysqlmini. The params carry what CheckInvariants needs to know
/// of the config.
json::Value MysqlExperiment(const std::string& name,
                            const engine::MySQLMiniConfig& cfg,
                            const workload::TpccConfig& tcfg,
                            const workload::DriverConfig& driver) {
  json::Value p = json::Value::Object();
  // Redo-bytes accounting is only exact when every commit waits for its
  // flush; lazy policies legitimately leave a tail unflushed at quiesce.
  p.Set("check_redo_bytes",
        json::Value::Bool(cfg.flush_policy == log::FlushPolicy::kEagerFlush));
  p.Set("lazy_lru", json::Value::Bool(cfg.lazy_lru));
  engine::EngineConfig ecfg;
  ecfg.mysql = cfg;
  return RunExperiment(name, "mysqlmini", std::move(p), [&] {
    workload::Tpcc wl(tcfg);
    return Measure(engine::EngineKind::kMySQLMini, ecfg, &wl, driver);
  });
}

/// 4-warehouse TPC-C on pgmini, 350 tps over 128 service workers.
json::Value PgExperiment(const std::string& name, const pg::PgMiniConfig& cfg,
                         uint64_t n) {
  workload::DriverConfig driver = Driver(n);
  driver.tps = 350;
  driver.service.workers = 128;
  workload::TpccConfig tcfg;
  tcfg.warehouses = 4;
  engine::EngineConfig ecfg;
  ecfg.pg = cfg;
  json::Value p = json::Value::Object();
  p.Set("wal_block_bytes",
        json::Value::Int(static_cast<int64_t>(cfg.wal.block_bytes)));
  return RunExperiment(name, "pgmini", std::move(p), [&] {
    workload::Tpcc wl(tcfg);
    return Measure(engine::EngineKind::kPgMini, ecfg, &wl, driver);
  });
}

json::Value Fig2Experiment(lock::SchedulerPolicy policy, uint64_t n) {
  return MysqlExperiment(
      std::string("fig2.") + lock::SchedulerPolicyName(policy),
      core::Toolkit::MysqlDefault(policy), core::Toolkit::TpccContended(),
      Driver(n));
}

json::Value Fig3LluExperiment(bool lazy, uint64_t n) {
  engine::MySQLMiniConfig cfg =
      core::Toolkit::MysqlMemoryContended(lock::SchedulerPolicy::kFCFS);
  cfg.lazy_lru = lazy;
  workload::DriverConfig driver = Driver(n);
  driver.tps = 420;
  return MysqlExperiment(lazy ? "fig3.llu" : "fig3.original_lru", cfg,
                         core::Toolkit::Tpcc2WH(), driver);
}

json::Value Fig3FlushExperiment(log::FlushPolicy policy, uint64_t n) {
  engine::MySQLMiniConfig cfg =
      core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS);
  cfg.flush_policy = policy;
  return MysqlExperiment(
      std::string("fig3.flush_") + log::FlushPolicyName(policy), cfg,
      core::Toolkit::TpccContended(), Driver(n));
}

json::Value Fig4Experiment(bool parallel, uint64_t n) {
  return PgExperiment(parallel ? "fig4.parallel_logging" : "fig4.single_wal",
                      core::Toolkit::PgDefault(parallel), n);
}

/// TPC-C through the TransactionService (server layer): an open-loop
/// Poisson arrival stream submitted into a bounded admission queue. The
/// overload variant offers far beyond the 2-worker capacity into a shallow
/// queue so the door must shed (the invariant checks Overloaded > 0);
/// the policy variants offer a feasible load into a deep queue.
json::Value ServerExperiment(server::DispatchPolicy policy, bool overload,
                             uint64_t n) {
  json::Value p = json::Value::Object();
  p.Set("policy", json::Value::Str(server::DispatchPolicyName(policy)));
  p.Set("backend", json::Value::Str("mysqlmini"));
  p.Set("overload", json::Value::Bool(overload));
  const std::string name = std::string("server.") +
                           (overload ? "overload" : server::DispatchPolicyName(policy));
  return RunExperiment(name, "server", std::move(p), [&] {
    engine::MySQLMiniConfig cfg =
        core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS);
    // Capacity shaped by per-row CPU work, not the serial log device, so
    // the overload leg saturates the same way on any machine.
    cfg.flush_policy = log::FlushPolicy::kLazyFlush;
    cfg.row_work_ns = 150000;
    workload::Tpcc wl(core::Toolkit::TpccContended());
    server::ServiceConfig scfg;
    scfg.workers = overload ? 2 : 8;
    scfg.policy = policy;
    scfg.max_queue_depth = overload ? 8 : 4096;
    return RunThroughService(cfg, &wl, scfg, overload ? 5000 : 300, n);
  });
}

/// Epoch-based async group commit through the service layer: eager
/// durability with log_async_commit, so workers hand the request's DoneFn to
/// the epoch at append time instead of blocking in Commit(). The invariant
/// checks ride on `async_commit: true`: the ack partition must be exact and
/// the epoch must have actually batched (log.epoch_batch count > 0).
json::Value ServerAsyncCommitExperiment(uint64_t n) {
  json::Value p = json::Value::Object();
  p.Set("policy", json::Value::Str(
                      server::DispatchPolicyName(server::DispatchPolicy::kFifo)));
  p.Set("backend", json::Value::Str("mysqlmini"));
  p.Set("overload", json::Value::Bool(false));
  p.Set("async_commit", json::Value::Bool(true));
  return RunExperiment("server.async_commit", "server", std::move(p), [&] {
    engine::MySQLMiniConfig cfg =
        core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS);
    // Eager + group commit keeps the flush on the commit path; the epoch
    // thread turns it into one leader flush per parked batch.
    cfg.flush_policy = log::FlushPolicy::kEagerFlush;
    cfg.log_group_commit = true;
    cfg.log_async_commit = true;
    cfg.log_epoch_interval_ns = 100 * 1000;
    workload::Tpcc wl(core::Toolkit::TpccContended());
    server::ServiceConfig scfg;
    scfg.workers = 8;
    scfg.policy = server::DispatchPolicy::kFifo;
    scfg.max_queue_depth = 4096;
    scfg.async_ack = true;
    return RunThroughService(cfg, &wl, scfg, 300, n);
  });
}

/// Conflict-predictive scheduling (docs/scheduling.md) through the service
/// layer on Zipfian YCSB: a small hot set of skewed writes where steering
/// decisions actually bind. The baseline arm runs VATS lock scheduling with
/// eldest-first dispatch; the cp arm runs kCPVATS + kConflictAware, both
/// decision points sharing the engine-owned online predictor. The cp arm's
/// sched.* counters carry the prediction-accounting checks
/// (src/common/ledger.cc, plus steer_delays >= flagged).
json::Value SchedExperiment(bool cp, uint64_t n) {
  json::Value p = json::Value::Object();
  p.Set("cp", json::Value::Bool(cp));
  p.Set("backend", json::Value::Str("mysqlmini"));
  return RunExperiment(std::string("sched.") + (cp ? "cpvats" : "vats"),
                       "sched", std::move(p), [&] {
    engine::MySQLMiniConfig cfg = core::Toolkit::MysqlDefault(
        cp ? lock::SchedulerPolicy::kCPVATS : lock::SchedulerPolicy::kVATS);
    // Conflict-bound posture (bench_conflict_sched's): cheap log, real
    // per-row work, so lock queueing is what the schedulers act on.
    cfg.flush_policy = log::FlushPolicy::kLazyFlush;
    cfg.row_work_ns = 20000;
    cfg.lock.wait_timeout_ns = MillisToNanos(500);
    workload::YcsbConfig ycsb;
    ycsb.rows = 2000;
    ycsb.zipf_theta = 0.99;
    ycsb.ops_per_txn = 4;
    ycsb.pct_reads = 20;
    workload::Ycsb wl(ycsb);
    server::ServiceConfig scfg;
    scfg.workers = 8;
    scfg.policy = cp ? server::DispatchPolicy::kConflictAware
                     : server::DispatchPolicy::kEldestFirst;
    scfg.max_queue_depth = 4096;
    return RunThroughService(cfg, &wl, scfg, 800, n);
  });
}

/// Quorum-replicated durability (docs/replication.md): TPC-C on mysqlmini
/// with K copies of the redo stream, so every commit waits for a majority
/// quorum before acking. CheckInvariants holds the `repl` ledger row (every
/// commit acked, parked or lost) and, on this healthy run, that nothing is
/// left parked or lost.
json::Value ReplExperiment(int replicas, uint64_t n) {
  engine::EngineConfig ecfg;
  ecfg.mysql = core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS);
  ecfg.mysql.repl_replicas = replicas;
  ecfg.mysql.repl_disk = ecfg.mysql.log_disk;
  json::Value p = json::Value::Object();
  p.Set("replicas", json::Value::Int(replicas));
  return RunExperiment("repl.k" + std::to_string(replicas), "repl",
                       std::move(p), [&] {
                         workload::Tpcc wl(core::Toolkit::TpccContended());
                         return Measure(engine::EngineKind::kMySQLMini, ecfg,
                                        &wl, Driver(n));
                       });
}

/// Partitioned scale-out (docs/sharding.md): multi-op YCSB over N
/// hash-partitioned mysqlmini shards, so transactions whose keys land on
/// different shards commit through presumed-abort 2PC while single-shard
/// ones take the untouched fast path. CheckInvariants holds the `2pc` and
/// `lock` ledger rows and checks the commit classification.
json::Value ShardExperiment(int num_shards, uint64_t n) {
  json::Value p = json::Value::Object();
  p.Set("num_shards", json::Value::Int(num_shards));
  return RunExperiment("shard.n" + std::to_string(num_shards), "sharded",
                       std::move(p), [&] {
                         engine::EngineConfig ecfg;
                         ecfg.sharded.num_shards = num_shards;
                         ecfg.sharded.shard = core::Toolkit::MysqlDefault(
                             lock::SchedulerPolicy::kFCFS);
                         // Cross-shard deadlock cycles are invisible to the
                         // per-shard detectors; timeouts break them instead.
                         ecfg.sharded.shard.lock.wait_timeout_ns =
                             MillisToNanos(500);
                         workload::YcsbConfig ycsb;
                         ycsb.rows = 4000;
                         ycsb.zipf_theta = 0.5;
                         ycsb.ops_per_txn = 4;
                         ycsb.pct_reads = 50;
                         workload::Ycsb wl(ycsb);
                         return Measure(engine::EngineKind::kSharded, ecfg,
                                        &wl, Driver(n));
                       });
}

json::Value Fig6VoltExperiment(uint64_t n) {
  return RunExperiment("fig6.voltmini", "voltmini", json::Value::Object(),
                       [&] { return RunVolt(/*workers=*/2, n); });
}

json::Value SuiteDoc(const std::string& suite) {
  json::Value doc = json::Value::Object();
  doc.Set("schema_version", json::Value::Int(1));
  doc.Set("suite", json::Value::Str(suite));
  doc.Set("quick", json::Value::Bool(bench::QuickMode()));
  return doc;
}

}  // namespace

std::vector<std::string> ListSuites() {
  return {"smoke", "fig2", "fig3", "fig4", "fig6", "server-smoke",
          "sched-smoke", "repl-smoke", "shard-smoke"};
}

bool HasSuite(const std::string& suite) {
  for (const std::string& s : ListSuites())
    if (s == suite) return true;
  return false;
}

json::Value RunSuite(const std::string& suite) {
  assert(HasSuite(suite) && "unknown suite");
  json::Value doc = SuiteDoc(suite);
  json::Value experiments = json::Value::Array();

  if (suite == "smoke") {
    // One small experiment per paper figure, covering all three engines and
    // every instrumented subsystem: lock scheduling (fig2), the buffer
    // pool's lazy LRU (fig3), parallel WAL logging (fig4), and the
    // out-of-box voltmini queue (fig6).
    const uint64_t n = SuiteN(4000);
    experiments.Append(Fig2Experiment(lock::SchedulerPolicy::kFCFS, n));
    experiments.Append(Fig2Experiment(lock::SchedulerPolicy::kVATS, n));
    experiments.Append(Fig3LluExperiment(/*lazy=*/false, SuiteN(2500)));
    experiments.Append(Fig3LluExperiment(/*lazy=*/true, SuiteN(2500)));
    experiments.Append(Fig4Experiment(/*parallel=*/false, SuiteN(3000)));
    experiments.Append(Fig4Experiment(/*parallel=*/true, SuiteN(3000)));
    experiments.Append(Fig6VoltExperiment(SuiteN(3000)));
    // Group commit (docs/group_commit.md): the async-ack identity and the
    // epoch-batch histogram are checked by CheckInvariants.
    experiments.Append(ServerAsyncCommitExperiment(SuiteN(2000)));
  } else if (suite == "fig2") {
    const uint64_t n = SuiteN(8000);
    experiments.Append(Fig2Experiment(lock::SchedulerPolicy::kFCFS, n));
    experiments.Append(Fig2Experiment(lock::SchedulerPolicy::kVATS, n));
    experiments.Append(Fig2Experiment(lock::SchedulerPolicy::kRS, n));
    experiments.Append(Fig2Experiment(lock::SchedulerPolicy::kCATS, n));
  } else if (suite == "fig3") {
    experiments.Append(Fig3LluExperiment(/*lazy=*/false, SuiteN(5000)));
    experiments.Append(Fig3LluExperiment(/*lazy=*/true, SuiteN(5000)));
    const uint64_t n = SuiteN(8000);
    experiments.Append(Fig3FlushExperiment(log::FlushPolicy::kEagerFlush, n));
    experiments.Append(Fig3FlushExperiment(log::FlushPolicy::kLazyFlush, n));
    experiments.Append(Fig3FlushExperiment(log::FlushPolicy::kLazyWrite, n));
  } else if (suite == "fig4") {
    experiments.Append(Fig4Experiment(/*parallel=*/false, SuiteN(6000)));
    experiments.Append(Fig4Experiment(/*parallel=*/true, SuiteN(6000)));
  } else if (suite == "server-smoke") {
    // The admission-control story end to end: both dispatch policies at a
    // feasible offered load, then a shallow queue under heavy overload so
    // the shed path (and its counters) must fire.
    const uint64_t n = SuiteN(3000);
    experiments.Append(
        ServerExperiment(server::DispatchPolicy::kFifo, /*overload=*/false, n));
    experiments.Append(ServerExperiment(server::DispatchPolicy::kEldestFirst,
                                        /*overload=*/false, n));
    experiments.Append(ServerExperiment(server::DispatchPolicy::kFifo,
                                        /*overload=*/true, SuiteN(4000)));
    experiments.Append(ServerAsyncCommitExperiment(n));
  } else if (suite == "sched-smoke") {
    // Conflict-predictive scheduling end to end: the VATS baseline and the
    // CP-VATS + conflict-aware-dispatch arm on the same Zipfian YCSB load,
    // with the sched.* prediction-accounting invariants checked on the cp
    // arm.
    const uint64_t n = SuiteN(3000);
    experiments.Append(SchedExperiment(/*cp=*/false, n));
    experiments.Append(SchedExperiment(/*cp=*/true, n));
  } else if (suite == "repl-smoke") {
    // Quorum replication end to end: majority-of-3 and majority-of-5
    // durability on the same contended TPC-C load, with the repl.* ack
    // ledger checked for exactness on both arms.
    experiments.Append(ReplExperiment(/*replicas=*/3, SuiteN(2500)));
    experiments.Append(ReplExperiment(/*replicas=*/5, SuiteN(2500)));
  } else if (suite == "shard-smoke") {
    // Partitioned scale-out end to end: a 1-shard arm (pure fast path — 2PC
    // must never fire) and a 4-shard arm whose multi-op transactions cross
    // shards, with the 2pc.* ledger checked for exactness on both.
    experiments.Append(ShardExperiment(/*num_shards=*/1, SuiteN(2500)));
    experiments.Append(ShardExperiment(/*num_shards=*/4, SuiteN(2500)));
  } else {  // fig6
    const uint64_t n = SuiteN(6000);
    experiments.Append(MysqlExperiment(
        "fig6.mysqlmini",
        core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS),
        core::Toolkit::TpccContended(), Driver(n)));
    experiments.Append(
        PgExperiment("fig6.pgmini", core::Toolkit::PgDefault(), n));
    experiments.Append(Fig6VoltExperiment(n));
  }

  doc.Set("experiments", std::move(experiments));
  return doc;
}

// --- schema validation -------------------------------------------------------

namespace {

const char* TypeName(json::Value::Type t) {
  switch (t) {
    case json::Value::Type::kNull: return "null";
    case json::Value::Type::kBool: return "bool";
    case json::Value::Type::kNumber: return "number";
    case json::Value::Type::kString: return "string";
    case json::Value::Type::kArray: return "array";
    case json::Value::Type::kObject: return "object";
  }
  return "?";
}

bool MatchesLeaf(const json::Value& v, const std::string& want) {
  if (want == "number") return v.is_number();
  if (want == "int")
    return v.is_number() && v.as_number() == static_cast<double>(v.as_int());
  if (want == "bool") return v.is_bool();
  if (want == "string") return v.is_string();
  if (want == "object") return v.is_object();
  if (want == "array") return v.is_array();
  return false;  // unknown type name in the schema: always a problem
}

void Validate(const json::Value& doc, const json::Value& schema,
              const std::string& path, std::vector<std::string>* problems) {
  if (schema.is_string()) {
    if (!MatchesLeaf(doc, schema.as_string())) {
      problems->push_back(path + ": expected " + schema.as_string() +
                          ", got " + TypeName(doc.type()));
    }
    return;
  }
  if (schema.is_object()) {
    if (!doc.is_object()) {
      problems->push_back(path + ": expected object, got " +
                          TypeName(doc.type()));
      return;
    }
    for (const auto& [key, sub] : schema.members()) {
      const json::Value* member = doc.Find(key);
      if (member == nullptr) {
        problems->push_back(path + ": missing required key \"" + key + "\"");
        continue;
      }
      Validate(*member, sub, path + "." + key, problems);
    }
    return;
  }
  if (schema.is_array()) {
    if (!doc.is_array()) {
      problems->push_back(path + ": expected array, got " +
                          TypeName(doc.type()));
      return;
    }
    if (schema.size() != 1) return;  // unconstrained element shape
    for (size_t i = 0; i < doc.items().size(); ++i) {
      Validate(doc.items()[i], schema.items()[0],
               path + "[" + std::to_string(i) + "]", problems);
    }
    return;
  }
  problems->push_back(path + ": unsupported schema node");
}

}  // namespace

std::vector<std::string> ValidateAgainstSchema(const json::Value& doc,
                                               const json::Value& schema) {
  std::vector<std::string> problems;
  Validate(doc, schema, "$", &problems);
  return problems;
}

// --- invariant checks --------------------------------------------------------

namespace {

/// exp[path[0]][path[1]]..., or null where a step is missing.
const json::Value* At(const json::Value& exp,
                      std::initializer_list<std::string> path) {
  const json::Value* v = &exp;
  for (const std::string& key : path) {
    if ((v = v->Find(key)) == nullptr) return nullptr;
  }
  return v;
}

int64_t Counter(const json::Value& exp, const std::string& name) {
  const json::Value* c = At(exp, {"metrics", "counters", name});
  return c != nullptr && c->is_number() ? c->as_int() : -1;
}

int64_t GaugeValue(const json::Value& exp, const std::string& name) {
  const json::Value* v = At(exp, {"metrics", "gauges", name, "value"});
  return v != nullptr && v->is_number() ? v->as_int() : INT64_MIN;
}

/// A name as the ledger reads it: a counter, else a gauge, else 0.
int64_t LedgerValue(const json::Value& exp, std::string_view name) {
  const std::string n(name);
  if (const int64_t c = Counter(exp, n); c >= 0) return c;
  const int64_t g = GaugeValue(exp, n);
  return g == INT64_MIN ? 0 : g;
}

int64_t HistogramCount(const json::Value& exp, const std::string& name) {
  const json::Value* c = At(exp, {"metrics", "histograms", name, "count"});
  return c != nullptr && c->is_number() ? c->as_int() : -1;
}

bool ParamBool(const json::Value& exp, const std::string& name) {
  const json::Value* p = At(exp, {"params", name});
  return p != nullptr && p->is_bool() && p->as_bool();
}

int64_t ParamInt(const json::Value& exp, const std::string& name) {
  const json::Value* p = At(exp, {"params", name});
  return p != nullptr && p->is_number() ? p->as_int() : -1;
}

/// Records a problem under the experiment's name.
void Report(const json::Value& exp, const std::string& what,
            std::vector<std::string>* problems) {
  const json::Value* name = exp.Find("name");
  problems->push_back(
      (name != nullptr ? name->as_string() : std::string("?")) + ": " + what);
}

void RequireEq(const json::Value& exp, const std::string& what, int64_t lhs,
               int64_t rhs, std::vector<std::string>* problems) {
  if (lhs != rhs) {
    Report(exp,
           what + " (" + std::to_string(lhs) + " != " + std::to_string(rhs) +
               ")",
           problems);
  }
}

void RequirePositive(const json::Value& exp, const std::string& counter,
                     std::vector<std::string>* problems) {
  const int64_t v = Counter(exp, counter);
  if (v <= 0) {
    Report(exp, counter + " should be positive, got " + std::to_string(v),
           problems);
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

std::vector<std::string> CheckInvariants(const json::Value& doc) {
  std::vector<std::string> problems;
  const json::Value* experiments = doc.Find("experiments");
  if (experiments == nullptr || !experiments->is_array()) {
    problems.push_back("document has no experiments array");
    return problems;
  }
  for (const json::Value& exp : experiments->items()) {
    // Every ledger identity, on every experiment: the names of a subsystem
    // that did not run are absent and read 0, so its rows hold trivially.
    for (const std::string& v : metrics::CheckLedger(
             [&exp](std::string_view n) { return LedgerValue(exp, n); })) {
      Report(exp, v, &problems);
    }
    const json::Value* engine_v = exp.Find("engine");
    const std::string engine =
        engine_v != nullptr ? engine_v->as_string() : "";
    if (engine == "mysqlmini") {
      RequirePositive(exp, "lock.grants.total", &problems);
      RequirePositive(exp, "buf.hits", &problems);
      RequirePositive(exp, "log.commits", &problems);
      if (ParamBool(exp, "check_redo_bytes") &&
          Counter(exp, "log.degraded_commits") == 0) {
        // Eager flush quiesces durable: bytes flushed == bytes committed.
        RequireEq(exp, "log.bytes_written != mysql.redo_bytes",
                  Counter(exp, "log.bytes_written"),
                  Counter(exp, "mysql.redo_bytes"), &problems);
      }
      if (ParamBool(exp, "lazy_lru")) {
        // Session teardown drains every thread-local LLU backlog.
        RequireEq(exp, "buf.llu.backlog not drained at quiesce",
                  GaugeValue(exp, "buf.llu.backlog"), 0, &problems);
      }
    } else if (engine == "pgmini") {
      RequirePositive(exp, "wal.commits", &problems);
      const int64_t block = ParamInt(exp, "wal_block_bytes");
      if (block > 0) {
        // The WAL writes whole blocks: bytes is exactly blocks * block size.
        RequireEq(exp, "wal.bytes_written != wal.blocks_written * block",
                  Counter(exp, "wal.bytes_written"),
                  Counter(exp, "wal.blocks_written") * block, &problems);
      }
    } else if (engine == "server" || engine == "sched" ||
               engine == "tuning") {
      // Service-layer runs (a tdp_tune arm's metrics block is the merged
      // delta over its replicates).
      RequirePositive(exp, "server.submitted", &problems);
      RequirePositive(exp, "server.completed.ok", &problems);
      if (ParamBool(exp, "overload")) {
        // A 2x-capacity offered load into a shallow bounded queue must shed.
        RequirePositive(exp, "server.shed", &problems);
      }
      if (ParamBool(exp, "async_commit")) {
        // Eager + async group commit must actually batch: at least one epoch
        // flush fired acks, and some completions came through the ack path.
        RequirePositive(exp, "server.async_acks", &problems);
        const int64_t batches = HistogramCount(exp, "log.epoch_batch");
        if (batches <= 0) {
          Report(exp,
                 "log.epoch_batch histogram empty under async group commit (" +
                     std::to_string(batches) + ")",
                 &problems);
        }
      }
      if (engine == "sched") RequirePositive(exp, "lock.grants.total", &problems);
      if (ParamBool(exp, "cp")) {
        // Prediction accounting (docs/scheduling.md): every steered pop
        // scored something, a request is flagged at most once, and every
        // flag event was a skip event.
        RequirePositive(exp, "sched.predictions", &problems);
        if (Counter(exp, "sched.flagged") > Counter(exp, "server.admitted")) {
          Report(exp, "sched.flagged exceeds server.admitted", &problems);
        }
        if (Counter(exp, "sched.steer_delays") <
            Counter(exp, "sched.flagged")) {
          Report(exp, "sched.steer_delays below sched.flagged", &problems);
        }
      }
      if (engine == "tuning") {
        // The TrialRunner's per-trial counter sums to the replicate count.
        RequireEq(exp, "tuning.trials_run != replicates",
                  Counter(exp, "tuning.trials_run"),
                  ParamInt(exp, "replicates"), &problems);
      }
    } else if (engine == "repl") {
      // Synchronous commits on a healthy run quiesce fully acked: no parked
      // or lost tail (docs/replication.md).
      RequirePositive(exp, "lock.grants.total", &problems);
      RequireEq(exp, "repl.acks_waiting not drained at quiesce",
                LedgerValue(exp, "repl.acks_waiting"), 0, &problems);
      RequireEq(exp, "repl.acks_lost nonzero on a healthy run",
                Counter(exp, "repl.acks_lost"), 0, &problems);
      RequirePositive(exp, "repl.commits_submitted", &problems);
      RequirePositive(exp, "repl.ships", &problems);
      RequirePositive(exp, "repl.ship_bytes", &problems);
    } else if (engine == "sharded") {
      RequirePositive(exp, "lock.grants.total", &problems);
      RequirePositive(exp, "shard.single_shard_txns", &problems);
      if (ParamInt(exp, "num_shards") > 1) {
        // Multi-op YCSB over hash partitions must actually cross shards.
        RequirePositive(exp, "shard.cross_shard_txns", &problems);
        RequirePositive(exp, "2pc.coordinated", &problems);
      } else {
        // One shard: the fast path is the only path.
        RequireEq(exp, "2pc.coordinated nonzero on a single shard",
                  Counter(exp, "2pc.coordinated"), 0, &problems);
        RequireEq(exp, "shard.cross_shard_txns nonzero on a single shard",
                  Counter(exp, "shard.cross_shard_txns"), 0, &problems);
      }
    } else if (engine == "voltmini") {
      RequirePositive(exp, "volt.submits", &problems);
    }
  }
  return problems;
}

int GateDocument(const json::Value& doc, const std::string& schema_path,
                 bool check, const char* tool) {
  int failures = 0;
  if (!schema_path.empty()) {
    std::string schema_text;
    json::Value schema;
    std::string err;
    if (!ReadFile(schema_path, &schema_text) ||
        !json::Value::Parse(schema_text, &schema, &err)) {
      std::fprintf(stderr, "%s: cannot load schema %s: %s\n", tool,
                   schema_path.c_str(), err.c_str());
      return -1;
    }
    for (const std::string& p : ValidateAgainstSchema(doc, schema)) {
      std::fprintf(stderr, "schema drift: %s\n", p.c_str());
      ++failures;
    }
    if (failures == 0) std::printf("schema: OK\n");
  }
  if (check) {
    int violations = 0;
    for (const std::string& p : CheckInvariants(doc)) {
      std::fprintf(stderr, "invariant violated: %s\n", p.c_str());
      ++violations;
    }
    if (violations == 0) std::printf("invariants: OK\n");
    failures += violations;
  }
  return failures;
}

}  // namespace tdp::tools
