// TrialRunner: materializes one KnobConfig into a live engine + transaction
// service, runs a seeded open-loop workload against it, and captures the
// latency histogram through the metrics registry (docs/tuning.md).
//
// Replicates are *paired*: replicate i uses the same workload seed in every
// arm, so arm-to-arm comparisons difference out workload luck (which
// transaction mix the generator drew) and leave only the knobs' effect.
// TrialSource is the seam the tests and the migrated tuning_advisor example
// use to substitute synthetic or custom measurements for real runs.
#pragma once

#include <cstdint>

#include "common/metrics.h"
#include "engine/factory.h"
#include "server/admission_queue.h"
#include "tuning/knobs.h"
#include "workload/driver.h"

namespace tdp::tuning {

/// Workload/service settings shared by every arm of a tuning run (the knobs
/// vary per arm; the offered load must not).
struct TrialConfig {
  double tps = 420;
  uint64_t num_txns = 2000;
  uint64_t warmup_txns = 200;
  /// Replicate i of every arm runs with seed base_seed + 7919 * (i + 1).
  uint64_t base_seed = 7;
  /// Deep admission bound: the tuner measures the knobs' effect on latency,
  /// not the admission controller's shedding (shed counts are still
  /// reported so a saturated arm is visible).
  size_t max_queue_depth = 4096;
  workload::ArrivalProcess arrival = workload::ArrivalProcess::kPoisson;
  /// Pair mysql arms with the reduced-scale (2-WH) workload and the
  /// memory-contended base config instead of the fully-cached default.
  bool memory_contended = false;
  server::DispatchPolicy dispatch = server::DispatchPolicy::kFifo;
  /// Run Zipfian YCSB instead of TPC-C — the conflict-predictor tuning
  /// workload (sched-cp): a small hot set with skewed writes, where
  /// steering decisions actually bind.
  bool ycsb_zipf = false;
  double zipf_theta = 0.99;
  /// YCSB operations per transaction (0 = the trial default of 4). On
  /// partitioned arms (KnobConfig::num_shards > 1) this is the cross-shard
  /// mix dial: keys hash independently, so at N shards a k-op transaction
  /// is cross-shard — and pays 2PC — with probability
  /// 1 - N·(1/N)^k (docs/sharding.md).
  int ycsb_ops_per_txn = 0;
};

/// One replicate's outcome.
struct TrialMeasurement {
  /// Post-run delta of server.latency_ns — the service-level latency
  /// histogram the objective scores.
  HistogramSnapshot latency;
  double achieved_tps = 0;
  uint64_t committed = 0;
  uint64_t shed = 0;
  /// Full registry delta over the replicate (carried into TUNE_*.json so
  /// cross-counter invariants can audit the run).
  metrics::MetricsSnapshot delta;
};

/// Measurement seam: the search driver only ever talks to this.
class TrialSource {
 public:
  virtual ~TrialSource() = default;
  virtual TrialMeasurement Measure(const KnobConfig& knobs, int replicate) = 0;
};

/// Applies `knobs` onto the Toolkit's calibrated base config for the knob's
/// engine. Zero-valued size knobs keep the base value.
engine::EngineConfig MaterializeEngineConfig(const KnobConfig& knobs,
                                             const TrialConfig& trial,
                                             uint64_t seed);

/// The real thing: OpenDatabase + TPC-C load + workload::Run through a
/// TransactionService built from the knobs, per Measure() call. Each call is
/// a fresh database (no state leaks between replicates or arms).
class TrialRunner : public TrialSource {
 public:
  explicit TrialRunner(TrialConfig config);

  TrialMeasurement Measure(const KnobConfig& knobs, int replicate) override;

  const TrialConfig& config() const { return config_; }

 private:
  TrialConfig config_;
  metrics::Counter* trials_run_ = nullptr;  ///< tuning.trials_run
};

}  // namespace tdp::tuning
