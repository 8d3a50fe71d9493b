// Open-loop benchmark driver (the OLTP-Bench substitute).
//
// Run() starts a server::TransactionService over the database, submits
// transactions into it at a target rate (the paper sustains 500 tps), and
// shuts it down once every transaction has finished. Latency is measured
// from each transaction's *intended* dispatch time to its commit, so
// queueing delay caused by slow transactions ahead of it is part of the
// measurement — exactly the open-loop methodology the paper's variance
// numbers need. Arrivals are either evenly spaced (kConstant) or a Poisson
// process (kPoisson, exponential inter-arrival gaps at the same mean rate),
// the natural model for independent clients and the one that exercises
// admission control with realistic bursts.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "server/service.h"
#include "workload/workload.h"

namespace tdp::workload {

enum class ArrivalProcess {
  kConstant,  ///< One transaction every 1/tps seconds exactly.
  kPoisson,   ///< Exponential gaps with mean 1/tps (open-loop bursts).
};

struct DriverConfig {
  double tps = 500.0;
  uint64_t num_txns = 4000;
  /// Transactions before this dispatch index are executed but not measured.
  uint64_t warmup_txns = 400;
  uint64_t seed = 7;
  ArrivalProcess arrival = ArrivalProcess::kConstant;
  /// The service the run goes through. The default is a thread-per-
  /// connection client pool: 32 workers, and deadlock/timeout victims
  /// retried inline up to 50 times with no requeue (a retry re-enters the
  /// engine as a fresh transaction, but the original dispatch time still
  /// anchors the measurement). Its admission bound is never reached, so a
  /// run sheds nothing.
  server::ServiceConfig service{
      .workers = 32,
      .max_queue_depth = std::numeric_limits<size_t>::max(),
      .retry = {.max_attempts = 51},
      .max_dispatches = 1};
};

/// Raised after every committed, measured transaction.
struct TxnEvent {
  uint64_t engine_txn_id = 0;
  const char* type = "";
  int64_t dispatch_ns = 0;
  int64_t commit_ns = 0;
  int64_t latency_ns = 0;
};
using TxnEventHook = std::function<void(const TxnEvent&)>;

struct RunResult {
  /// Committed post-warmup latencies (ns), in completion order.
  std::vector<int64_t> latencies;
  std::map<std::string, std::vector<int64_t>> by_type;

  uint64_t committed = 0;
  uint64_t gave_up = 0;  ///< Transactions that finished with an error.
  /// The service's totals over the run (shed, requeues, acks, ...).
  server::TransactionService::Stats stats;

  double elapsed_s = 0;
  double offered_tps = 0;
  double achieved_tps = 0;

  LatencySummary Summary() const { return SummarizeVector(latencies); }
  double LpNorm(double p) const { return LpNormOf(latencies, p); }
};

/// Runs `wl` (already Loaded) against `db` through a TransactionService
/// built from `config.service`, at the configured rate. `hook` fires for
/// every committed, measured transaction, from the thread that completed it.
RunResult Run(engine::Database* db, Workload* wl, const DriverConfig& config,
              const TxnEventHook& hook = nullptr);

}  // namespace tdp::workload
