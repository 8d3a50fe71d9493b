// tdp_tune: the closed-loop variance-aware auto-tuner CLI (docs/tuning.md).
//
// Picks a named knob space (the paper's §7 sweeps, recast as searches), runs
// successive halving with paired replicates and bootstrap CIs, prints the
// recommendation table, and writes a bench_schema.json-conformant
// TUNE_<space>.json (one experiment per arm, engine "tuning"). With
// --schema the document is validated structurally; --check also enforces
// the tuning.* / server.* cross-counter invariants.
//
// Usage:
//   tdp_tune [--space=fig3-flush] [--out=PATH] [--schema=PATH] [--check]
//            [--objective=p999|cov] [--min-tps=N] [--replicates=N]
//            [--rungs=N] [--txns=N] [--tps=N] [--seed=N] [--list]
// Set TDP_QUICK_BENCH=1 for CI-sized runs (tools/run_tunesmoke.sh does).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "tools/bench_suites.h"
#include "tuning/search.h"

namespace {

using tdp::tuning::KnobSpace;
using tdp::tuning::TrialConfig;

struct NamedSpace {
  const char* name;
  const char* what;
  KnobSpace (*space)();
  TrialConfig (*trial)();
};

TrialConfig BaseTrial() {
  TrialConfig t;
  t.tps = 420;
  t.num_txns = tdp::bench::N(3000);
  t.warmup_txns = tdp::bench::N(300);
  return t;
}

KnobSpace FlushSpace() {
  KnobSpace s;
  s.flush_policies = {tdp::log::FlushPolicy::kEagerFlush,
                      tdp::log::FlushPolicy::kLazyFlush,
                      tdp::log::FlushPolicy::kLazyWrite};
  return s;
}

KnobSpace BufpoolSpace() {
  KnobSpace s;
  s.buffer_pool_pages = {96, 224, 512};
  return s;
}

TrialConfig BufpoolTrial() {
  TrialConfig t = BaseTrial();
  t.memory_contended = true;
  return t;
}

KnobSpace BlockSpace() {
  KnobSpace s;
  s.engine = tdp::engine::EngineKind::kPgMini;
  s.wal_block_bytes = {4096, 8192, 16384};
  return s;
}

KnobSpace SchedSpace() {
  KnobSpace s;
  s.schedulers = {
      tdp::lock::SchedulerPolicy::kFCFS, tdp::lock::SchedulerPolicy::kVATS,
      tdp::lock::SchedulerPolicy::kRS, tdp::lock::SchedulerPolicy::kCATS};
  return s;
}

KnobSpace WorkersSpace() {
  KnobSpace s;
  s.workers = {2, 4, 8};
  return s;
}

KnobSpace SchedCpSpace() {
  // CP-VATS predictor knobs (docs/scheduling.md): steering score threshold
  // x heat decay half-life, searched under the CI-gated halving so a noisy
  // Zipfian replicate cannot prune a good config.
  KnobSpace s;
  s.schedulers = {tdp::lock::SchedulerPolicy::kCPVATS};
  s.sched_half_life_ns = {tdp::MillisToNanos(25), tdp::MillisToNanos(100)};
  s.sched_threshold = {0.5, 2.0};
  return s;
}

TrialConfig SchedCpTrial() {
  TrialConfig t = BaseTrial();
  // The workload where steering binds: a small Zipfian hot set of writes,
  // dispatched through the conflict-aware admission policy.
  t.ycsb_zipf = true;
  t.dispatch = tdp::server::DispatchPolicy::kConflictAware;
  return t;
}

KnobSpace ShardsSpace() {
  // Engine partition count (docs/sharding.md): the tuner weighs per-shard
  // queueing relief against the 2PC tax the workload's cross-shard mix
  // imposes (at N shards a 2-op uniform YCSB txn is cross-shard with
  // probability 1 - 1/N).
  KnobSpace s;
  s.num_shards = {1, 2, 4};
  return s;
}

TrialConfig ShardsTrial() {
  TrialConfig t = BaseTrial();
  t.ycsb_zipf = true;
  t.zipf_theta = 0.6;
  t.ycsb_ops_per_txn = 2;
  return t;
}

const NamedSpace kSpaces[] = {
    {"fig3-flush", "mysql redo flush policy (fig 3)", FlushSpace, BaseTrial},
    {"fig3-bufpool", "mysql buffer-pool pages, 2-WH contended (fig 3)",
     BufpoolSpace, BufpoolTrial},
    {"fig4-block", "pg WAL block size (fig 4)", BlockSpace, BaseTrial},
    {"sched", "lock scheduler policy (fig 2)", SchedSpace, BaseTrial},
    {"sched-cp", "CP-VATS predictor knobs on Zipfian YCSB", SchedCpSpace,
     SchedCpTrial},
    {"workers", "service worker-pool size (fig 7 analog)", WorkersSpace,
     BaseTrial},
    {"shards", "engine partition count under a cross-shard 2PC mix",
     ShardsSpace, ShardsTrial},
};

}  // namespace

int main(int argc, char** argv) {
  std::string space_name = "fig3-flush";
  std::string out_path;
  std::string schema_path;
  bool check = false;
  tdp::tuning::Objective objective;
  objective.min_tps = 280;
  tdp::tuning::SearchConfig search;
  uint64_t txns_override = 0;
  double tps_override = 0;
  uint64_t seed = 7;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--space=", 0) == 0) {
      space_name = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--schema=", 0) == 0) {
      schema_path = arg.substr(9);
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--objective=", 0) == 0) {
      auto g = tdp::tuning::ParseGoal(arg.substr(12));
      if (!g.ok()) {
        std::fprintf(stderr, "tdp_tune: %s\n", g.status().ToString().c_str());
        return 2;
      }
      objective.goal = g.value();
    } else if (arg.rfind("--min-tps=", 0) == 0) {
      objective.min_tps = std::stod(arg.substr(10));
    } else if (arg.rfind("--replicates=", 0) == 0) {
      search.initial_replicates = std::stoi(arg.substr(13));
    } else if (arg.rfind("--rungs=", 0) == 0) {
      search.max_rungs = std::stoi(arg.substr(8));
    } else if (arg.rfind("--txns=", 0) == 0) {
      txns_override = std::stoull(arg.substr(7));
    } else if (arg.rfind("--tps=", 0) == 0) {
      tps_override = std::stod(arg.substr(6));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else if (arg == "--list") {
      for (const NamedSpace& s : kSpaces)
        std::printf("%-14s %s\n", s.name, s.what);
      return 0;
    } else {
      std::fprintf(stderr, "tdp_tune: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  const NamedSpace* chosen = nullptr;
  for (const NamedSpace& s : kSpaces) {
    if (space_name == s.name) chosen = &s;
  }
  if (chosen == nullptr) {
    std::fprintf(stderr, "tdp_tune: unknown space %s (try --list)\n",
                 space_name.c_str());
    return 2;
  }
  if (out_path.empty()) out_path = "TUNE_" + space_name + ".json";

  const KnobSpace space = chosen->space();
  TrialConfig trial = chosen->trial();
  trial.base_seed = seed;
  if (txns_override > 0) {
    trial.num_txns = txns_override;
    trial.warmup_txns = txns_override / 10;
  }
  if (tps_override > 0) trial.tps = tps_override;
  // The bootstrap stream follows the workload seed so a --seed rerun is
  // bit-identical end to end.
  objective.bootstrap_seed = seed * 2654435761u + 17;

  std::printf("tuning space %s (%zu arms) -> %s\n", space_name.c_str(),
              space.Enumerate().size(), out_path.c_str());
  tdp::tuning::TrialRunner runner(trial);
  const tdp::tuning::TuneResult result =
      tdp::tuning::SuccessiveHalving(runner, space, objective, search);

  std::printf("\n%s\n",
              tdp::tuning::RecommendationTable(result, objective).c_str());
  std::printf("recommendation: %s\n",
              result.arms[result.best].knobs.Label().c_str());

  if (space_name == "sched-cp") {
    // The question the space exists to answer: does the tuned CP-VATS
    // config at least match plain VATS + eldest-first dispatch on the same
    // workload? Measure a fresh baseline with the winner's replicate count
    // so both scores carry comparable bootstrap intervals.
    const tdp::tuning::TunedArm& best = result.arms[result.best];
    TrialConfig baseline_trial = trial;
    baseline_trial.dispatch = tdp::server::DispatchPolicy::kEldestFirst;
    tdp::tuning::TrialRunner baseline_runner(baseline_trial);
    tdp::tuning::KnobConfig vats;
    vats.scheduler = tdp::lock::SchedulerPolicy::kVATS;
    std::vector<tdp::tuning::TrialMeasurement> vats_reps;
    for (size_t i = 0; i < best.replicates.size(); ++i)
      vats_reps.push_back(
          baseline_runner.Measure(vats, static_cast<int>(i)));
    const tdp::tuning::ArmScore vats_score = objective.Score(vats_reps);
    const int cmp = tdp::tuning::Objective::Compare(best.score, vats_score);
    std::printf(
        "sched-cp baseline %s: score=%.0f ci=[%.0f, %.0f] tps=%.1f\n",
        vats.Label().c_str(), vats_score.score, vats_score.ci_lo,
        vats_score.ci_hi, vats_score.mean_tps);
    std::printf("sched-cp verdict: cpvats_vs_vats=%s\n",
                cmp < 0 ? "better" : (cmp > 0 ? "worse" : "overlap"));
  }

  const tdp::json::Value doc = tdp::tuning::TuneReport(
      result, space, objective, space_name, tdp::bench::QuickMode());
  const std::string text = doc.Dump(/*pretty=*/true);
  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "tdp_tune: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << text << "\n";
  }
  std::printf("wrote %s (%zu arms, %d rungs)\n", out_path.c_str(),
              doc.Find("experiments")->items().size(), result.rungs_run);

  return tdp::tools::GateDocument(doc, schema_path, check, "tdp_tune") == 0
             ? 0
             : 1;
}
