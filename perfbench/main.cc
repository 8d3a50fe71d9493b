// perfbench: runs one workload of the repository benchmark and prints its
// metrics; the last line of standard output is one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// A run opens and loads the engine kSetups times, half before and half
// after the measured windows (setup_s is the median). It warms up for
// kWarmupSeconds, then measures. --trace 0 measures one
// untraced window of S seconds and reports the end-to-end metrics.
// --trace 1 measures an untraced and then a traced window of S/2 seconds
// each and reports the per-layer metrics: counts and device totals come
// from the untraced window, span timings from the traced one, and the
// difference between the two is trace.overhead_pct. The correctness checks
// run after the timed windows; any violation exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sim_disk.h"
#include "engine/mysqlmini.h"
#include "engine/sharded_db.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;
using tdp::NowNanos;
using tdp::Status;
using tdp::engine::Database;
using tdp::metrics::MetricsSnapshot;

namespace {

constexpr int kSetups = 40;
constexpr size_t kTailSlices = 5;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kSpanCapacity = size_t{1} << 17;
constexpr auto kDrainTimeout = std::chrono::seconds(60);

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = v;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') out->seconds = 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      out->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--spans") {
      out->spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && have_seed && have_trace &&
         out->seconds > 0 && out->seconds <= 600;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Device totals over every SimDisk the engines expose. pgmini keeps its
/// WAL disks private, so its device work is read from the wal.* counters
/// instead (see PerLayer).
struct DiskTotals {
  uint64_t reads = 0, flushes = 0, bytes = 0;
};

void AddDisk(const tdp::SimDisk& d, DiskTotals* t) {
  t->reads += d.stats().reads.load();
  t->flushes += d.stats().flushes.load();
  t->bytes += d.stats().bytes.load();
}

void AddMysql(tdp::engine::MySQLMini* m, DiskTotals* t) {
  AddDisk(m->data_disk(), t);
  AddDisk(m->log_disk(), t);
  if (tdp::repl::QuorumLog* q = m->quorum_log()) {
    for (int i = 1; i <= static_cast<int>(q->replica_count()); ++i) {
      AddDisk(q->replica(i).disk(), t);
    }
  }
}

DiskTotals ReadDisks(Database* db) {
  DiskTotals t;
  if (auto* m = dynamic_cast<tdp::engine::MySQLMini*>(db)) {
    AddMysql(m, &t);
  } else if (auto* s = dynamic_cast<tdp::engine::ShardedDatabase*>(db)) {
    for (int i = 0; i < s->num_shards(); ++i) AddMysql(s->shard(i), &t);
  }
  return t;
}

MetricsSnapshot Snapshot() {
  return tdp::metrics::Registry::Global().TakeSnapshot();
}

/// What one measured window produced.
struct Phase {
  uint64_t attempted = 0, committed = 0, failed = 0;
  uint64_t updates = 0;  ///< Committed column-0 increments.
  std::vector<int64_t> latencies;     ///< Committed requests in send order, ns.
  std::vector<int64_t> server_queue;  ///< Submit to last dispatch, ns.
  std::vector<int64_t> lag;           ///< Sender lateness, ns.
  double elapsed_s = 0;
  double cpu_s = 0;
  MetricsSnapshot delta;
  DiskTotals disk;
};

/// Takes the counters, device totals and CPU at the start of a window and
/// stores their deltas into the Phase at the end.
class Window {
 public:
  explicit Window(Database* db)
      : db_(db), before_(Snapshot()), disk_(ReadDisks(db)), cpu_(CpuSeconds()) {}
  void Close(Phase* p) const {
    p->cpu_s = CpuSeconds() - cpu_;
    p->delta = MetricsSnapshot::Delta(before_, Snapshot());
    const DiskTotals now = ReadDisks(db_);
    p->disk.reads = now.reads - disk_.reads;
    p->disk.flushes = now.flushes - disk_.flushes;
    p->disk.bytes = now.bytes - disk_.bytes;
  }

 private:
  Database* db_;
  MetricsSnapshot before_;
  DiskTotals disk_;
  double cpu_;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

/// Open loop: sends each planned request when it is due, whatever the
/// system's speed, and times it from that moment to its ack.
Phase RunOpen(tdp::server::TransactionService* svc, Database* db,
              std::vector<Planned> plan, Tracer* tracer) {
  struct Req {
    int64_t due_ns = 0;
    bool acked = false;
    tdp::server::Response resp;
    RequestTrace trace;
  };
  std::vector<Req> reqs(plan.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;

  Phase p;
  p.attempted = plan.size();
  p.lag.reserve(plan.size());
  Window window(db);
  const int64_t t0 = NowNanos();
  for (size_t i = 0; i < plan.size(); ++i) {
    Req& req = reqs[i];
    req.due_ns = t0 + plan[i].offset_ns;
    const int64_t now = NowNanos();
    if (req.due_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(req.due_ns - now));
    }
    p.lag.push_back(NowNanos() - req.due_ns);
    tdp::engine::TxnBody body = std::move(plan[i].txn.body);
    if (tracer != nullptr) body = tracer->Wrap(std::move(body), &req.trace);
    {
      std::lock_guard<std::mutex> g(mu);
      ++outstanding;
    }
    const Status s = svc->Submit(
        std::move(body), std::move(plan[i].txn.footprint),
        [&req, &mu, &cv, &outstanding](const tdp::server::Response& r) {
          std::lock_guard<std::mutex> g(mu);
          req.resp = r;
          req.acked = true;
          if (--outstanding == 0) cv.notify_all();
        });
    if (!s.ok()) {  // shed at the door: the callback never fires
      std::lock_guard<std::mutex> g(mu);
      --outstanding;
    }
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, kDrainTimeout, [&] { return outstanding == 0; })) {
      Die("open-loop requests did not drain");
    }
  }
  window.Close(&p);

  int64_t last_done = t0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Req& req = reqs[i];
    if (!req.acked || !req.resp.status.ok()) {
      ++p.failed;
      continue;
    }
    ++p.committed;
    p.updates += static_cast<uint64_t>(plan[i].txn.updates);
    p.latencies.push_back(req.resp.done_ns - req.due_ns);
    p.server_queue.push_back(req.resp.dispatch_ns - req.resp.submit_ns);
    last_done = std::max(last_done, req.resp.done_ns);
    if (tracer != nullptr) {
      tracer->Finish(req.trace, req.due_ns, req.resp.done_ns,
                     plan[i].txn.cross);
    }
  }
  p.elapsed_s = tdp::NanosToSeconds(last_done - t0);
  return p;
}

struct Client {
  std::unique_ptr<tdp::engine::Connection> conn;
  tdp::Rng rng;
};

/// Closed loop: each client runs its own seeded stream back to back on its
/// connection until the window ends, timing Begin to commit return.
Phase RunClosed(Database* db, Generator* gen, std::vector<Client>* clients,
                double seconds, Tracer* tracer) {
  Phase p;
  std::mutex mu;
  Window window(db);
  const int64_t t0 = NowNanos();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  int64_t last_done = t0;
  std::vector<std::vector<int64_t>> per_client(clients->size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    threads.emplace_back([&, client = &(*clients)[i], i] {
      Phase local;
      int64_t done = t0;
      const tdp::engine::RetryPolicy retry;
      while (NowNanos() < end) {
        GenTxn t = gen->Next(&client->rng);
        RequestTrace rec;
        tdp::engine::TxnBody body = std::move(t.body);
        if (tracer != nullptr) body = tracer->Wrap(std::move(body), &rec);
        const int64_t start = NowNanos();
        const Status s = tdp::engine::RunTxn(*client->conn, retry, body);
        done = NowNanos();
        ++local.attempted;
        if (!s.ok()) {
          ++local.failed;
          continue;
        }
        ++local.committed;
        local.updates += static_cast<uint64_t>(t.updates);
        local.latencies.push_back(done - start);
        if (tracer != nullptr) tracer->Finish(rec, start, done, t.cross);
      }
      std::lock_guard<std::mutex> g(mu);
      p.attempted += local.attempted;
      p.committed += local.committed;
      p.failed += local.failed;
      p.updates += local.updates;
      per_client[i] = std::move(local.latencies);
      last_done = std::max(last_done, done);
    });
  }
  for (std::thread& t : threads) t.join();
  window.Close(&p);
  // Interleave the clients' samples slice by slice, so consecutive slices
  // of p.latencies cover consecutive stretches of the window (SlicedPctUs).
  for (size_t s = 0; s < kTailSlices; ++s) {
    for (const std::vector<int64_t>& v : per_client) {
      p.latencies.insert(p.latencies.end(),
                         v.begin() + v.size() * s / kTailSlices,
                         v.begin() + v.size() * (s + 1) / kTailSlices);
    }
  }
  p.elapsed_s = tdp::NanosToSeconds(last_done - t0);
  return p;
}

/// Ceil-rank percentile in microseconds; 0 for an empty sample.
double PctUs(std::vector<int64_t> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<size_t>(rank, 1) - 1]) / 1e3;
}

double HistUs(const tdp::Histogram& h, double pct) {
  return h.count() == 0 ? 0 : static_cast<double>(h.Percentile(pct)) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median, over kTailSlices consecutive equal slices of `v` (samples in
/// send order), of each slice's percentile. A convoy or a stretch of host
/// noise moves one slice's tail but not the median, which makes this the
/// steadier tail figure for one fixed-length window. Each slice keeps well
/// over ten samples beyond its p95 at the workloads' rates.
double SlicedPctUs(const std::vector<int64_t>& v, double pct) {
  if (v.size() < kTailSlices) return PctUs(v, pct);
  std::vector<double> per_slice;
  for (size_t i = 0; i < kTailSlices; ++i) {
    per_slice.push_back(PctUs({v.begin() + v.size() * i / kTailSlices,
                               v.begin() + v.size() * (i + 1) / kTailSlices},
                              pct));
  }
  return Median(per_slice);
}

/// Sum of column 0 over every row, read back through a Connection.
tdp::Result<int64_t> SumColumn0(Database* db) {
  const uint32_t table = db->TableId("usertable");
  const uint64_t rows = db->TableRowCount(table);
  std::unique_ptr<tdp::engine::Connection> conn = db->Connect();
  Status s = conn->Begin();
  if (!s.ok()) return s;
  int64_t sum = 0;
  for (uint64_t k = 0; k < rows; ++k) {
    s = conn->Select(table, k);
    if (!s.ok()) return s;
    tdp::Result<int64_t> v = conn->ReadColumn(table, k, 0);
    if (!v.ok()) return v.status();
    sum += v.value();
  }
  conn->Rollback();
  return sum;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Checks {
 public:
  void Expect(const std::string& what, bool ok) {
    std::printf("check %-66s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    all_ok_ = all_ok_ && ok;
  }
  void Equal(const std::string& what, int64_t lhs, int64_t rhs) {
    Expect(what + " (" + std::to_string(lhs) + " vs " + std::to_string(rhs) +
               ")",
           lhs == rhs);
  }
  bool ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

int64_t C(const MetricsSnapshot& m, const char* name) {
  return static_cast<int64_t>(m.counter(name));
}

/// The correctness checks, over the registry delta of the whole service
/// lifetime (warm-up included) and the engine's final state.
void RunChecks(const WorkloadDef& def, const MetricsSnapshot& life,
               uint64_t submitted, uint64_t updates, Database* db,
               const Tracer* tracer, Checks* checks) {
  if (def.loop == Loop::kOpen) {
    checks->Equal("server.admitted + server.shed + server.rejected_recovering"
                  " == server.submitted",
                  C(life, "server.admitted") + C(life, "server.shed") +
                      C(life, "server.rejected_recovering"),
                  C(life, "server.submitted"));
    checks->Equal("server.completed + server.expired + server.drain_aborted"
                  " == server.admitted",
                  C(life, "server.completed") + C(life, "server.expired") +
                      C(life, "server.drain_aborted"),
                  C(life, "server.admitted"));
    checks->Equal("server.async_acks + server.sync_acks == server.completed",
                  C(life, "server.async_acks") + C(life, "server.sync_acks"),
                  C(life, "server.completed"));
    checks->Equal("server.submitted == requests sent",
                  C(life, "server.submitted"),
                  static_cast<int64_t>(submitted));
    checks->Equal("server.queue_depth == 0 at quiesce",
                  life.gauge("server.queue_depth").value, 0);
  }
  // Unforced 2PC commit frames may stay parked until the next leader flush,
  // so acks_waiting need not be 0 here; the ledger must still balance.
  checks->Equal("repl.acks_quorum + repl.acks_waiting + repl.acks_lost"
                " == repl.commits_submitted",
                C(life, "repl.acks_quorum") +
                    life.gauge("repl.acks_waiting").value +
                    C(life, "repl.acks_lost"),
                C(life, "repl.commits_submitted"));
  checks->Equal("2pc.prepared + 2pc.aborted_presumed == 2pc.coordinated",
                C(life, "2pc.prepared") + C(life, "2pc.aborted_presumed"),
                C(life, "2pc.coordinated"));
  checks->Equal("lock.grants.total == engine lock acquisitions",
                C(life, "lock.grants.total"),
                C(life, "mysql.lock_acquisitions") +
                    C(life, "pg.lock_acquisitions"));
  if (def.conserves_updates) {
    tdp::Result<int64_t> sum = SumColumn0(db);
    checks->Expect("column-0 sum readable through Connection", sum.ok());
    if (sum.ok()) {
      checks->Equal("column-0 sum == committed updates", sum.value(),
                    static_cast<int64_t>(updates));
    }
  }
  if (tracer != nullptr) {
    checks->Equal("queue + body + commit == latency for every request",
                  static_cast<int64_t>(tracer->identity_violations.load()), 0);
  }
}

std::vector<Metric> EndToEnd(const Phase& p, double setup_s) {
  return {
      {"p50_us", PctUs(p.latencies, 50), "us"},
      {"p95_us", SlicedPctUs(p.latencies, 95), "us"},
      {"tps", Ratio(static_cast<double>(p.committed), p.elapsed_s), "1/s"},
      {"ok_pct",
       100.0 * Ratio(static_cast<double>(p.committed),
                     static_cast<double>(p.attempted)),
       "%"},
      {"setup_s", setup_s, "s"},
      {"rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer metrics: counts from the untraced window `u`, span timings
/// from the traced window `t`.
std::vector<Metric> PerLayer(const WorkloadDef& def, const Phase& u,
                             const Phase& t, const Tracer& tr) {
  const MetricsSnapshot& d = u.delta;
  const double txns = static_cast<double>(u.committed);
  const double reqs = static_cast<double>(tr.requests.load());
  auto c = [&d](const char* name) {
    return static_cast<double>(d.counter(name));
  };
  auto h = [&d](const char* name, double pct) {
    const tdp::HistogramSnapshot s = d.histogram(name);
    return s.count == 0 ? 0 : static_cast<double>(s.Percentile(pct));
  };
  const bool pg = def.kind == tdp::engine::EngineKind::kPgMini;
  // pgmini's WAL disks are private: one barrier per epoch round per set,
  // and whole blocks written.
  const double disk_flushes =
      pg ? c("wal.epoch_flushes") : static_cast<double>(u.disk.flushes);
  const double disk_bytes =
      pg ? c("wal.bytes_written") : static_cast<double>(u.disk.bytes);
  const double decisions = c("2pc.decisions");
  const double overhead =
      def.loop == Loop::kOpen
          ? 100.0 * (Ratio(PctUs(t.latencies, 50), PctUs(u.latencies, 50)) - 1)
          : 100.0 * (Ratio(Ratio(static_cast<double>(u.committed), u.elapsed_s),
                           Ratio(static_cast<double>(t.committed), t.elapsed_s)) -
                     1);
  return {
      {"server.queue_us.p50", PctUs(u.server_queue, 50), "us"},
      {"server.queue_us.p99", PctUs(u.server_queue, 99), "us"},
      {"server.requeues_per_txn", Ratio(c("server.requeues"), txns), "count"},
      {"server.shed", c("server.shed"), "count"},
      {"server.expired", c("server.expired"), "count"},
      {"engine.body_us.p50", HistUs(tr.body_ns, 50), "us"},
      {"engine.body_us.p99", HistUs(tr.body_ns, 99), "us"},
      {"engine.read_us.p50", HistUs(tr.read_ns, 50), "us"},
      {"engine.write_us.p50", HistUs(tr.write_ns, 50), "us"},
      {"engine.retries_per_txn",
       Ratio(static_cast<double>(tr.retries.load()), reqs), "count"},
      {"engine.commit_us.p50", HistUs(tr.commit_ns, 50), "us"},
      {"engine.commit_us.p99", HistUs(tr.commit_ns, 99), "us"},
      {"engine.commit_us.single.p50", HistUs(tr.commit_single_ns, 50), "us"},
      {"engine.commit_us.cross.p50", HistUs(tr.commit_cross_ns, 50), "us"},
      {"lock.waits_per_txn", Ratio(c("lock.waits"), txns), "count"},
      {"lock.wait_us.p50", h("lock.wait_ns", 50) / 1e3, "us"},
      {"lock.wait_us.p99", h("lock.wait_ns", 99) / 1e3, "us"},
      {"lock.deadlocks", c("lock.deadlocks"), "count"},
      {"lock.timeouts", c("lock.timeouts"), "count"},
      {"buf.hit_ratio", Ratio(c("buf.hits"), c("buf.hits") + c("buf.misses")),
       "ratio"},
      {"buf.misses_per_txn", Ratio(c("buf.misses"), txns), "count"},
      {"buf.writebacks_per_txn", Ratio(c("buf.dirty_writebacks"), txns),
       "count"},
      {"log.flushes_per_commit", Ratio(c("log.flushes"), c("log.commits")),
       "count"},
      {"log.bytes_per_commit", Ratio(c("log.bytes_written"), c("log.commits")),
       "B"},
      {"log.epoch_batch.p50", h("log.epoch_batch", 50), "count"},
      {"shard.cross_share",
       Ratio(c("shard.cross_shard_txns"),
             c("shard.cross_shard_txns") + c("shard.single_shard_txns")),
       "ratio"},
      {"2pc.forces_per_cross_commit",
       Ratio(c("2pc.participant_commits") + decisions, decisions), "count"},
      {"repl.ships_per_commit",
       Ratio(c("repl.ships"), c("repl.commits_submitted")), "count"},
      {"repl.ship_errors", c("repl.ship_errors"), "count"},
      {"repl.acks_lost", c("repl.acks_lost"), "count"},
      {"wal.epoch_batch.p50", h("wal.epoch_batch", 50), "count"},
      {"wal.second_log_share", Ratio(c("wal.second_log_used"), c("wal.commits")),
       "ratio"},
      {"wal.write_amp", Ratio(c("wal.bytes_written"), c("wal.commit_bytes")),
       "ratio"},
      {"disk.flushes_per_commit", Ratio(disk_flushes, txns), "count"},
      {"disk.bytes_per_commit", Ratio(disk_bytes, txns), "B"},
      {"disk.reads_per_txn", Ratio(static_cast<double>(u.disk.reads), txns),
       "count"},
      {"proc.cpu_us_per_txn", Ratio(u.cpu_s * 1e6, txns), "us"},
      {"gen.lag_us.p99", PctUs(u.lag, 99), "us"},
      {"trace.overhead_pct", overhead, "%"},
      {"span.self_us.queue",
       Ratio(static_cast<double>(tr.self_queue_ns.load()) / 1e3, reqs), "us"},
      {"span.self_us.body",
       Ratio(static_cast<double>(tr.self_body_ns.load()) / 1e3, reqs), "us"},
      {"span.self_us.read",
       Ratio(static_cast<double>(tr.self_read_ns.load()) / 1e3, reqs), "us"},
      {"span.self_us.write",
       Ratio(static_cast<double>(tr.self_write_ns.load()) / 1e3, reqs), "us"},
      {"span.self_us.commit",
       Ratio(static_cast<double>(tr.self_commit_ns.load()) / 1e3, reqs), "us"},
  };
}

void PrintPhase(const char* label, const Phase& p) {
  // p99 and p99.9 are printed with the sample count but not reported:
  // between runs they move with the host's scheduling noise far more than
  // any bound could allow (README.md, "End-to-end metrics").
  std::printf(
      "%-9s attempted=%llu committed=%llu failed=%llu fail_pct=%.4f "
      "tps=%.1f p50=%.1fus p95=%.1fus p99=%.1fus p99.9=%.1fus (n=%zu)\n",
      label, static_cast<unsigned long long>(p.attempted),
      static_cast<unsigned long long>(p.committed),
      static_cast<unsigned long long>(p.failed),
      100.0 * Ratio(static_cast<double>(p.failed),
                    static_cast<double>(p.attempted)),
      Ratio(static_cast<double>(p.committed), p.elapsed_s),
      PctUs(p.latencies, 50), SlicedPctUs(p.latencies, 95),
      PctUs(p.latencies, 99), PctUs(p.latencies, 99.9), p.latencies.size());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Opens and loads the workload's engine into `*into` (stopping whatever it
/// held first, so only one engine is alive) and records how long it took.
void OpenTimed(const WorkloadDef& def, Setup* into, std::vector<double>* times) {
  into->loaded = LoadResult();  // the generator may refer to the engine
  into->db.reset();
  const int64_t t0 = NowNanos();
  tdp::Result<Setup> opened = OpenAndLoad(def);
  times->push_back(tdp::NanosToSeconds(NowNanos() - t0));
  if (!opened.ok()) Die("open failed: " + opened.status().ToString());
  *into = std::move(opened.value());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) Die("unknown workload " + args.workload);

  std::printf("workload  %s\nwhy       %s\ncache     %s\nflush     %s\n",
              def->name, def->why, def->cache, def->flush);
  if (def->loop == Loop::kOpen) {
    std::printf("loop      open, Poisson %.0f tps, %d service workers\n",
                def->tps, def->service.workers);
  } else {
    std::printf("loop      closed, %d clients on Connection\n", def->clients);
  }
  for (const std::string& m : UnmeasuredModules()) {
    std::printf("unmeasured %s\n", m.c_str());
  }

  // Half the timed opens run before the windows and half after them, so the
  // median spans the machine's state over the whole run.
  std::vector<double> setup_times;
  Setup setup;
  for (int i = 0; i < kSetups / 2; ++i) OpenTimed(*def, &setup, &setup_times);
  Database* db = setup.db.get();
  Generator* gen = setup.loaded.gen.get();
  std::printf("data      %llu pages loaded\n",
              static_cast<unsigned long long>(setup.loaded.data_pages));

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(kSpanCapacity);
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;

  const MetricsSnapshot life_before = Snapshot();
  uint64_t submitted = 0, updates = 0;
  std::vector<Phase> phases;  // untraced window, then the traced one
  if (def->loop == Loop::kOpen) {
    tdp::Rng txn_rng = TxnRng(args.seed);
    tdp::Rng arrival_rng = ArrivalRng(args.seed);
    tdp::server::TransactionService svc(db, def->service);
    svc.Start();
    auto run = [&](double seconds, Tracer* t) {
      Phase p = RunOpen(&svc, db,
                        PlanPhase(gen, def->tps, seconds, &txn_rng, &arrival_rng),
                        t);
      submitted += p.attempted;
      updates += p.updates;
      return p;
    };
    run(kWarmupSeconds, nullptr);
    phases.push_back(run(window_s, nullptr));
    if (args.trace) phases.push_back(run(window_s, tracer.get()));
    svc.Shutdown();
  } else {
    std::vector<Client> clients;
    for (int c = 0; c < def->clients; ++c) {
      clients.push_back(Client{db->Connect(), TxnRng(args.seed, c)});
    }
    auto run = [&](double seconds, Tracer* t) {
      Phase p = RunClosed(db, gen, &clients, seconds, t);
      updates += p.updates;
      return p;
    };
    run(kWarmupSeconds, nullptr);
    phases.push_back(run(window_s, nullptr));
    if (args.trace) phases.push_back(run(window_s, tracer.get()));
  }
  const MetricsSnapshot life = MetricsSnapshot::Delta(life_before, Snapshot());

  PrintPhase("untraced", phases[0]);
  if (args.trace) PrintPhase("traced", phases[1]);

  Checks checks;
  RunChecks(*def, life, submitted, updates, db, tracer.get(), &checks);

  for (int i = kSetups / 2; i < kSetups; ++i) {
    OpenTimed(*def, &setup, &setup_times);
  }
  const double setup_s = Median(setup_times);
  std::printf("setup     median %.4fs over %d opens\n", setup_s, kSetups);

  uint64_t attempted = 0, failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(*def, phases[0], phases[1], *tracer);
    std::printf("trace     %llu requests, %llu spans kept, %llu dropped\n",
                static_cast<unsigned long long>(tracer->requests.load()),
                static_cast<unsigned long long>(tracer->spans_kept()),
                static_cast<unsigned long long>(tracer->spans_dropped.load()));
    if (!args.spans_path.empty() && !tracer->WriteSpans(args.spans_path)) {
      Die("cannot write spans to " + args.spans_path);
    }
  } else {
    metrics = EndToEnd(phases[0], setup_s);
  }
  PrintResult(checks.ok() && attempted > 0, attempted, failed, metrics);
  std::fflush(stdout);
  return checks.ok() && attempted > 0 ? 0 : 1;
}
