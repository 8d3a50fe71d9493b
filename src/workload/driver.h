// Open-loop benchmark driver (the OLTP-Bench substitute).
//
// A dispatcher thread issues transactions at a target rate (the paper
// sustains 500 tps) into a queue served by a pool of connection threads
// (thread-per-connection). Latency is measured from each transaction's
// *intended* dispatch time to its commit, so queueing delay caused by slow
// transactions ahead of it is part of the measurement — exactly the
// open-loop methodology the paper's variance numbers need. Arrivals are
// either evenly spaced (kConstant) or a Poisson process (kPoisson,
// exponential inter-arrival gaps at the same mean rate), the natural model
// for independent clients and the one that exercises admission control
// with realistic bursts.
#pragma once

#include <cstdint>
#include <functional>
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
  int connections = 32;
  uint64_t num_txns = 4000;
  /// Transactions before this dispatch index are executed but not measured.
  uint64_t warmup_txns = 400;
  uint64_t seed = 7;
  /// Deadlock/timeout victims are retried up to this many times; the
  /// latency of a retried transaction spans all attempts. A retry re-enters
  /// the system as a fresh transaction (new age), as a real client's retry
  /// would, but the original dispatch time still anchors the measurement.
  int max_retries = 50;
  ArrivalProcess arrival = ArrivalProcess::kConstant;
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
  uint64_t deadlock_aborts = 0;   ///< Attempts aborted by deadlock.
  uint64_t timeout_aborts = 0;    ///< Attempts aborted by lock timeout.
  uint64_t other_aborts = 0;
  uint64_t gave_up = 0;           ///< Transactions that exhausted retries.
  uint64_t shed = 0;              ///< Rejected with Overloaded (RunService).

  double elapsed_s = 0;
  double offered_tps = 0;
  double achieved_tps = 0;

  LatencySummary Summary() const { return SummarizeVector(latencies); }
  double LpNorm(double p) const { return LpNormOf(latencies, p); }
};

/// Runs `wl` (already Loaded) against `db` at the configured rate with a
/// thread-per-connection pool (config.connections threads).
RunResult RunConstantRate(engine::Database* db, Workload* wl,
                          const DriverConfig& config,
                          const TxnEventHook& hook = nullptr);

/// Same open-loop arrival schedule, but submitted (non-blocking) into a
/// started TransactionService instead of a private thread pool — requests a
/// full service sheds appear in `shed` rather than queueing forever, and
/// latency still anchors at the intended dispatch time. `config.connections`
/// and `config.max_retries` are ignored (the service's workers / retry
/// policy govern).
RunResult RunService(server::TransactionService* service, Workload* wl,
                     const DriverConfig& config);

}  // namespace tdp::workload
