// tdp_profile: command-line front end for the TProfiler + engine stack.
//
//   tdp_profile [--engine=mysql|pg] [--workload=tpcc|seats|tatp|epinions|ycsb]
//               [--policy=fcfs|vats|rs|cats] [--tps=N] [--txns=N]
//               [--csv=FILE] [--top=K]
//
// Loads the workload, runs it at a constant rate with the paper's probe set
// enabled, prints the variance profile, and optionally dumps the full factor
// table as CSV.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/toolkit.h"
#include "engine/factory.h"
#include "tprofiler/analysis.h"
#include "tprofiler/profiler.h"
#include "workload/epinions.h"
#include "workload/seats.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

using namespace tdp;

namespace {

struct Options {
  std::string engine = "mysql";
  std::string workload = "tpcc";
  std::string policy = "fcfs";
  double tps = 640;
  uint64_t txns = 6000;
  std::string csv_path;
  int top = 8;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--engine=mysql|pg] [--workload=tpcc|seats|tatp|epinions|"
      "ycsb]\n          [--policy=fcfs|vats|rs|cats] [--tps=N] [--txns=N]\n"
      "          [--csv=FILE] [--top=K]\n",
      argv0);
  return 2;
}

lock::SchedulerPolicy PolicyFromName(const std::string& name) {
  if (name == "vats") return lock::SchedulerPolicy::kVATS;
  if (name == "rs") return lock::SchedulerPolicy::kRS;
  if (name == "cats") return lock::SchedulerPolicy::kCATS;
  return lock::SchedulerPolicy::kFCFS;
}

std::unique_ptr<workload::Workload> MakeWorkload(const std::string& name) {
  if (name == "tpcc")
    return std::make_unique<workload::Tpcc>(core::Toolkit::TpccContended());
  if (name == "seats") return std::make_unique<workload::Seats>();
  if (name == "tatp") return std::make_unique<workload::Tatp>();
  if (name == "epinions") return std::make_unique<workload::Epinions>();
  if (name == "ycsb") return std::make_unique<workload::Ycsb>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--engine", &v)) {
      opt.engine = v;
    } else if (ParseFlag(argv[i], "--workload", &v)) {
      opt.workload = v;
    } else if (ParseFlag(argv[i], "--policy", &v)) {
      opt.policy = v;
    } else if (ParseFlag(argv[i], "--tps", &v)) {
      opt.tps = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--txns", &v)) {
      opt.txns = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--csv", &v)) {
      opt.csv_path = v;
    } else if (ParseFlag(argv[i], "--top", &v)) {
      opt.top = std::atoi(v.c_str());
    } else {
      return Usage(argv[0]);
    }
  }

  std::unique_ptr<engine::Database> db;
  engine::EngineConfig config;
  std::vector<std::string> probes = {"dispatch_command"};
  if (opt.engine == "mysql") {
    config.mysql = core::Toolkit::MysqlDefault(PolicyFromName(opt.policy));
    auto opened =
        engine::OpenDatabase(engine::EngineKind::kMySQLMini, config);
    if (!opened.ok()) {
      std::fprintf(stderr, "OpenDatabase: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened.value());
    probes.insert(probes.end(),
                  {"row_search_for_mysql", "row_upd_step",
                   "row_ins_clust_index_entry_low", "lock_wait_suspend_thread",
                   "os_event_wait", "btr_cur_search_to_nth_level",
                   "buf_pool_mutex_enter", "buf_LRU_get_free_block",
                   "buf_LRU_add_block", "buf_page_make_young", "trx_commit",
                   "log_write_up_to", "fil_flush"});
  } else if (opt.engine == "pg") {
    config.pg = core::Toolkit::PgDefault();
    auto opened = engine::OpenDatabase(engine::EngineKind::kPgMini, config);
    if (!opened.ok()) {
      std::fprintf(stderr, "OpenDatabase: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened.value());
    probes.insert(probes.end(),
                  {"ExecSelect", "heap_update", "heap_insert", "heap_delete",
                   "CommitTransaction", "LWLockAcquireOrWait", "XLogFlush",
                   "ReleasePredicateLocks", "lock_wait_suspend_thread",
                   "os_event_wait", "btr_cur_search_to_nth_level"});
  } else {
    return Usage(argv[0]);
  }

  std::unique_ptr<workload::Workload> wl = MakeWorkload(opt.workload);
  if (wl == nullptr) return Usage(argv[0]);

  std::printf("loading %s into %s...\n", wl->name().c_str(),
              db->name().c_str());
  wl->Load(db.get());

  tprof::SessionConfig sc;
  sc.enabled = probes;
  tprof::Profiler::Instance().StartSession(sc);

  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = opt.tps;
  driver.num_txns = opt.txns;
  driver.warmup_txns = 0;
  std::printf("running %llu txns at %.0f tps (policy=%s)...\n",
              static_cast<unsigned long long>(opt.txns), opt.tps,
              opt.policy.c_str());
  const workload::RunResult run = workload::Run(db.get(), wl.get(), driver);

  tprof::TraceData data = tprof::Profiler::Instance().EndSession();
  tprof::VarianceAnalysis analysis(data,
                                   tprof::Profiler::Instance().path_tree());

  const core::Metrics metrics = core::Metrics::From(run);
  std::printf("\n%s\n\n", metrics.ToString().c_str());
  std::printf("variance profile (per function):\n");
  int shown = 0;
  for (const tprof::FunctionShare& s : analysis.FunctionShares()) {
    if (s.name == "dispatch_command") continue;
    std::printf("  %-32s %6.2f%%\n", s.name.c_str(), s.pct_of_total);
    if (++shown >= opt.top) break;
  }
  std::printf("\ntop factors:\n%s",
              analysis.ReportString(static_cast<size_t>(opt.top)).c_str());

  if (!opt.csv_path.empty()) {
    std::ofstream out(opt.csv_path);
    out << analysis.ToCsv();
    std::printf("\nwrote factor table to %s\n", opt.csv_path.c_str());
  }
  return 0;
}
