// The benchmark's workload definitions and the seeded transaction streams
// they run. README.md in this directory gives the method; each definition
// below carries its own rationale, cache sizing, flush policy and loop.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/factory.h"
#include "engine/txn.h"
#include "server/service.h"

namespace perfbench {

/// One transaction of a stream: the body the engine runs plus what the
/// checks and the per-layer breakdown need to know about it.
struct GenTxn {
  const char* type = "txn";
  tdp::engine::TxnBody body;
  /// Declared write footprint (routing and steering input).
  std::vector<uint64_t> footprint;
  /// Column-0 increments the body applies (YCSB conservation check).
  int updates = 0;
  /// Writes on more than one shard, so it commits through 2PC.
  bool cross = false;
};

/// Draws transactions from a caller-owned Rng. Next may run concurrently
/// with distinct Rngs (the closed loop keeps one per client).
class Generator {
 public:
  virtual ~Generator() = default;
  virtual GenTxn Next(tdp::Rng* rng) = 0;
};

enum class Loop { kOpen, kClosed };

struct LoadResult {
  std::unique_ptr<Generator> gen;
  uint64_t data_pages = 0;  ///< Pages the loaded rows occupy.
};

struct WorkloadDef {
  const char* name;
  const char* why;    ///< Why the benchmark runs this workload.
  const char* cache;  ///< Buffer pool against working set.
  const char* flush;  ///< Commit flush policy.
  Loop loop;
  double tps;   ///< Offered Poisson rate (open loop).
  int clients;  ///< Client threads calling Connection directly (closed loop).
  tdp::engine::EngineKind kind;
  tdp::engine::EngineConfig engine;
  tdp::server::ServiceConfig service;  ///< Open loop only.
  /// The column-0 sum must equal the committed updates after the run.
  bool conserves_updates;
  /// Creates the schema and rows; returns the generator bound to them.
  LoadResult (*load)(tdp::engine::Database* db);
};

const std::vector<WorkloadDef>& AllWorkloads();
/// Null for an unknown name.
const WorkloadDef* FindWorkload(const std::string& name);

/// Modules the benchmark deliberately leaves unmeasured, with the evidence.
const std::vector<std::string>& UnmeasuredModules();

/// An opened engine with its data loaded. Members destroy in reverse order,
/// so the generator (which may reference the engine) goes first.
struct Setup {
  std::unique_ptr<tdp::engine::Database> db;
  LoadResult loaded;
};
tdp::Result<Setup> OpenAndLoad(const WorkloadDef& def);

/// The seeded sources of a run. Transactions and arrival gaps draw from
/// separate streams so the rate never perturbs the mix; closed-loop client
/// `c` draws from its own transaction stream.
tdp::Rng TxnRng(uint64_t seed, int client = 0);
tdp::Rng ArrivalRng(uint64_t seed);

/// One open-loop request: when it is due (ns from its phase's start) and
/// what it runs.
struct Planned {
  int64_t offset_ns = 0;
  GenTxn txn;
};

/// Draws the requests of one open-loop phase: Poisson arrivals at `tps`
/// until the next one would fall at or after `seconds`. The streams carry
/// over from phase to phase, so a run's whole input is a function of the
/// seed and the phase lengths alone.
std::vector<Planned> PlanPhase(Generator* gen, double tps, double seconds,
                               tdp::Rng* txn_rng, tdp::Rng* arrival_rng);

}  // namespace perfbench
