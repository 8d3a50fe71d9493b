// Figure 8 / Appendix C.2: correlation between a transaction's age and its
// remaining time at the moments scheduling decisions are made (lock-wait
// enqueue). The paper finds near-zero correlation for every TPC-C type —
// the justification for VATS's i.i.d. remaining-time assumption.
#include <map>
#include <mutex>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "engine/mysqlmini.h"
#include "workload/tpcc.h"

using namespace tdp;

namespace {

struct WaitRecord {
  int64_t age_at_enqueue_ns;
  int64_t enqueue_abs_ns;
};

}  // namespace

int main(int argc, char** argv) {
  tdp::bench::InitReport(argc, argv, "bench_fig8_age_correlation");
  bench::Header(
      "Figure 8: correlation of transaction age vs remaining time (TPC-C)");

  engine::MySQLMini db(
      core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS));

  // Collect, per engine txn id, the lock-wait observations...
  std::mutex mu;
  std::map<uint64_t, std::vector<WaitRecord>> waits_by_txn;
  db.lock_manager().SetWaitObserver([&](const lock::WaitObservation& obs) {
    if (!obs.granted) return;
    std::lock_guard<std::mutex> g(mu);
    waits_by_txn[obs.txn_id].push_back(WaitRecord{
        obs.age_at_enqueue_ns, NowNanos() - obs.wait_ns});
  });

  // ...and, per commit, join them with the commit time to get remaining
  // times. Pairs are bucketed by transaction type.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      pairs;  // type -> (ages, remainings)
  workload::Tpcc tpcc(core::Toolkit::TpccContended());
  tpcc.Load(&db);
  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.num_txns = bench::N(10000);
  driver.warmup_txns = driver.num_txns / 10;
  workload::Run(&db, &tpcc, driver, [&](const workload::TxnEvent& ev) {
    std::lock_guard<std::mutex> g(mu);
    auto it = waits_by_txn.find(ev.engine_txn_id);
    if (it == waits_by_txn.end()) return;
    auto& [ages, remainings] = pairs[ev.type];
    for (const WaitRecord& w : it->second) {
      const double remaining =
          static_cast<double>(ev.commit_ns - w.enqueue_abs_ns);
      if (remaining <= 0) continue;
      ages.push_back(static_cast<double>(w.age_at_enqueue_ns));
      remainings.push_back(remaining);
    }
    waits_by_txn.erase(it);
  });

  std::printf("%-14s %10s %12s\n", "Txn type", "#waits", "corr(age, R)");
  std::vector<double> all_a, all_r;
  for (const auto& [type, ar] : pairs) {
    const auto& [ages, remainings] = ar;
    if (ages.size() < 10) continue;
    const double corr = PearsonCorrelation(ages, remainings);
    std::printf("%-14s %10zu %12.3f\n", type.c_str(), ages.size(), corr);
    bench::Report::Global().AddValue("corr." + type, corr);
    all_a.insert(all_a.end(), ages.begin(), ages.end());
    all_r.insert(all_r.end(), remainings.begin(), remainings.end());
  }
  if (!all_a.empty()) {
    const double corr = PearsonCorrelation(all_a, all_r);
    std::printf("%-14s %10zu %12.3f\n", "TPC-C (all)", all_a.size(), corr);
    bench::Report::Global().AddValue("corr.all", corr);
  }
  return 0;
}
