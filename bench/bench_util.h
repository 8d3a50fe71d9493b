// Shared plumbing for the paper-table benchmark harnesses, including the
// machine-readable report every bench binary can emit with --json=<path>
// (schema: docs/metrics.md and tools/bench_schema.json's experiment shape).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "core/predictability.h"
#include "core/toolkit.h"
#include "engine/factory.h"

namespace tdp::bench {

/// Opens a database through the validating factory; a config a bench built
/// wrong is a startup failure, not a latency artifact three tables deep.
inline std::unique_ptr<engine::Database> MustOpen(
    engine::EngineKind kind, const engine::EngineConfig& config) {
  auto db = engine::OpenDatabase(kind, config);
  if (!db.ok()) {
    std::fprintf(stderr, "OpenDatabase(%s): %s\n", engine::EngineKindName(kind),
                 db.status().ToString().c_str());
    std::abort();
  }
  return std::move(db.value());
}

inline std::unique_ptr<engine::Database> MustOpenMysql(
    const engine::MySQLMiniConfig& cfg) {
  engine::EngineConfig config;
  config.mysql = cfg;
  return MustOpen(engine::EngineKind::kMySQLMini, config);
}

inline std::unique_ptr<engine::Database> MustOpenPg(
    const pg::PgMiniConfig& cfg) {
  engine::EngineConfig config;
  config.pg = cfg;
  return MustOpen(engine::EngineKind::kPgMini, config);
}

/// True when TDP_QUICK_BENCH=1 — benches shrink their transaction counts so
/// the whole suite smoke-runs in seconds (used by CI; the default sizes are
/// what EXPERIMENTS.md reports).
inline bool QuickMode() {
  const char* v = std::getenv("TDP_QUICK_BENCH");
  return v != nullptr && v[0] == '1';
}

/// Scales a transaction count down in quick mode.
inline uint64_t N(uint64_t full) { return QuickMode() ? full / 10 : full; }

/// Repetitions per configuration (latencies are pooled across reps to tame
/// single-run episode noise).
inline int Reps(int full = 2) { return QuickMode() ? 1 : full; }

/// Runs `reps` independent (fresh database + fresh workload) runs of the
/// same configuration and pools all measured latencies.
template <typename MakeDb, typename MakeWl>
core::Metrics PooledRuns(MakeDb&& make_db, MakeWl&& make_wl,
                         workload::DriverConfig driver, int reps) {
  std::vector<int64_t> all;
  double tps_sum = 0;
  for (int r = 0; r < reps; ++r) {
    auto db = make_db(r);
    auto wl = make_wl(r);
    driver.seed = 7 + static_cast<uint64_t>(r) * 7919;
    wl->Load(db.get());
    const workload::RunResult run = workload::Run(db.get(), wl.get(), driver);
    all.insert(all.end(), run.latencies.begin(), run.latencies.end());
    tps_sum += run.achieved_tps;
  }
  core::Metrics m = core::Metrics::FromLatencies(all);
  m.achieved_tps = reps > 0 ? tps_sum / reps : 0;
  return m;
}

inline void Header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// --- machine-readable report -------------------------------------------------

/// JSON copy of a latency Metrics block (shared with tools/bench_suites.cc
/// so every BENCH_*.json carries the same latency shape).
inline json::Value MetricsToJson(const core::Metrics& m) {
  json::Value v = json::Value::Object();
  v.Set("count", json::Value::Int(static_cast<int64_t>(m.count)));
  v.Set("mean_ms", json::Value::Number(m.mean_ms));
  v.Set("stddev_ms", json::Value::Number(m.stddev_ms));
  v.Set("cov", json::Value::Number(m.cov));
  v.Set("p50_ms", json::Value::Number(m.p50_ms));
  v.Set("p95_ms", json::Value::Number(m.p95_ms));
  v.Set("p99_ms", json::Value::Number(m.p99_ms));
  v.Set("p999_ms", json::Value::Number(m.p999_ms));
  v.Set("max_ms", json::Value::Number(m.max_ms));
  v.Set("achieved_tps", json::Value::Number(m.achieved_tps));
  return v;
}

/// JSON copy of a registry snapshot (or delta): counters and gauge values
/// verbatim, histograms summarized to count/mean/p50/p99/max.
inline json::Value SnapshotToJson(const metrics::MetricsSnapshot& snap) {
  json::Value counters = json::Value::Object();
  for (const auto& [name, value] : snap.counters) {
    counters.Set(name, json::Value::Int(static_cast<int64_t>(value)));
  }
  json::Value gauges = json::Value::Object();
  for (const auto& [name, gv] : snap.gauges) {
    json::Value g = json::Value::Object();
    g.Set("value", json::Value::Int(gv.value));
    g.Set("max", json::Value::Int(gv.max));
    gauges.Set(name, std::move(g));
  }
  json::Value hists = json::Value::Object();
  for (const auto& [name, h] : snap.histograms) {
    json::Value j = json::Value::Object();
    j.Set("count", json::Value::Int(static_cast<int64_t>(h.count)));
    j.Set("mean", json::Value::Number(h.mean()));
    j.Set("p50", json::Value::Int(h.Percentile(50)));
    j.Set("p99", json::Value::Int(h.Percentile(99)));
    j.Set("max", json::Value::Int(h.max));
    hists.Set(name, std::move(j));
  }
  json::Value out = json::Value::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(hists));
  return out;
}

/// Collects everything a bench prints into a JSON document and writes it at
/// process exit when --json=<path> was passed. PrintMetrics/PrintRatios feed
/// it automatically, so instrumenting a bench is one InitReport() line.
class Report {
 public:
  static Report& Global() {
    static Report* const r = new Report();
    return *r;
  }

  /// Parses --json=<path> from argv and snapshots the metrics registry so
  /// the final document carries the delta over the bench's whole run.
  void Init(int argc, char** argv, std::string bench_name) {
    std::lock_guard<std::mutex> g(mu_);
    bench_name_ = std::move(bench_name);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0) path_ = arg.substr(7);
    }
    baseline_ = metrics::Registry::Global().TakeSnapshot();
    if (!path_.empty() && !atexit_registered_) {
      atexit_registered_ = true;
      std::atexit([] { Report::Global().Write(); });
    }
  }

  void AddMetrics(const std::string& label, const core::Metrics& m) {
    json::Value row = MetricsToJson(m);
    row.Set("label", json::Value::Str(label));
    row.Set("kind", json::Value::Str("metrics"));
    Push(std::move(row));
  }

  void AddRatios(const std::string& label, const core::Ratios& r) {
    json::Value row = json::Value::Object();
    row.Set("label", json::Value::Str(label));
    row.Set("kind", json::Value::Str("ratios"));
    row.Set("mean", json::Value::Number(r.mean));
    row.Set("variance", json::Value::Number(r.variance));
    row.Set("p99", json::Value::Number(r.p99));
    row.Set("cov", json::Value::Number(r.cov));
    Push(std::move(row));
  }

  /// Free-form labelled number (queue depths, counts, probabilities...).
  void AddValue(const std::string& label, double value) {
    json::Value row = json::Value::Object();
    row.Set("label", json::Value::Str(label));
    row.Set("kind", json::Value::Str("value"));
    row.Set("value", json::Value::Number(value));
    Push(std::move(row));
  }

  /// Writes the document now (normally invoked via atexit). Safe to call
  /// when no --json was given (does nothing) or repeatedly (rewrites).
  void Write() {
    std::lock_guard<std::mutex> g(mu_);
    if (path_.empty()) return;
    json::Value doc = json::Value::Object();
    doc.Set("schema_version", json::Value::Int(1));
    doc.Set("bench", json::Value::Str(bench_name_));
    doc.Set("quick", json::Value::Bool(QuickMode()));
    json::Value results = json::Value::Array();
    for (json::Value& r : rows_) results.Append(r);
    doc.Set("results", std::move(results));
    doc.Set("metrics",
            SnapshotToJson(metrics::MetricsSnapshot::Delta(
                baseline_, metrics::Registry::Global().TakeSnapshot())));
    const std::string text = doc.Dump(/*pretty=*/true);
    if (std::FILE* f = std::fopen(path_.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
    }
  }

 private:
  Report() = default;
  void Push(json::Value row) {
    std::lock_guard<std::mutex> g(mu_);
    rows_.push_back(std::move(row));
  }

  std::mutex mu_;
  std::string bench_name_;
  std::string path_;
  bool atexit_registered_ = false;
  metrics::MetricsSnapshot baseline_;
  std::vector<json::Value> rows_;
};

/// One-liner for bench main()s: bench::InitReport(argc, argv, "bench_fig2").
inline void InitReport(int argc, char** argv, const std::string& name) {
  Report::Global().Init(argc, argv, name);
}

inline void PrintMetrics(const std::string& label, const core::Metrics& m) {
  std::printf("%s\n", core::MetricsRow(label, m).c_str());
  Report::Global().AddMetrics(label, m);
}

inline void PrintRatios(const std::string& label, const core::Ratios& r) {
  std::printf("%s\n", core::RatioRow(label, r).c_str());
  Report::Global().AddRatios(label, r);
}

}  // namespace tdp::bench
