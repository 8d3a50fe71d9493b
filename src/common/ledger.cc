#include "common/ledger.h"

#include <algorithm>

namespace tdp::metrics {

const std::vector<LedgerRow>& LedgerTable() {
  static const std::vector<LedgerRow> table = {
      // Every lock the lock manager granted was observed by exactly one
      // engine transaction.
      {"lock", {"lock.grants.total"},
       {"mysql.lock_acquisitions", "pg.lock_acquisitions"}},
      // Every submission is admitted or turned away at the door (shed on
      // overload, rejected during the startup recovery barrier).
      {"server.door",
       {"server.admitted", "server.shed", "server.rejected_recovering"},
       {"server.submitted"}},
      // Every admission reaches exactly one final outcome.
      {"server.outcome",
       {"server.completed", "server.expired", "server.drain_aborted"},
       {"server.admitted"}},
      // Every completion is delivered once: by a commit ack or inline.
      {"server.ack", {"server.async_acks", "server.sync_acks"},
       {"server.completed"}},
      {"server.queue", {"server.queue_depth"}, {}},
      // Every quorum commit is acked, still parked, or resolved lost.
      {"repl", {"repl.acks_quorum", "repl.acks_waiting", "repl.acks_lost"},
       {"repl.commits_submitted"}},
      // Every coordinated round fully prepared or presumed abort.
      {"2pc", {"2pc.prepared", "2pc.aborted_presumed"}, {"2pc.coordinated"}},
      // Every flagged request is classified once at completion.
      {"sched.class", {"sched.hits", "sched.false_positives"},
       {"sched.flagged"}},
      {"sched.steer", {"server.steer_delayed"}, {"sched.flagged"}},
      {"volt", {"volt.submits"}, {"volt.completions"}},
      {"volt.queue", {"volt.queue_depth"}, {}},
  };
  return table;
}

namespace {

// "a + b (x)", or "0" for an empty side.
std::string Side(const std::vector<std::string_view>& names, int64_t sum) {
  if (names.empty()) return "0";
  std::string out;
  for (std::string_view n : names) {
    if (!out.empty()) out += " + ";
    out += n;
  }
  return out + " (" + std::to_string(sum) + ")";
}

}  // namespace

std::vector<std::string> CheckLedger(const MetricLookup& value,
                                     const std::vector<std::string_view>& only) {
  std::vector<std::string> violations;
  for (const LedgerRow& row : LedgerTable()) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), row.name) == only.end()) {
      continue;
    }
    int64_t lhs = 0, rhs = 0;
    for (std::string_view n : row.lhs) lhs += value(n);
    for (std::string_view n : row.rhs) rhs += value(n);
    if (lhs != rhs) {
      violations.push_back(std::string(row.name) + ": " + Side(row.lhs, lhs) +
                           " != " + Side(row.rhs, rhs));
    }
  }
  return violations;
}

std::vector<std::string> CheckLedger(const MetricsSnapshot& snapshot,
                                     const std::vector<std::string_view>& only) {
  return CheckLedger(
      [&snapshot](std::string_view name) -> int64_t {
        const std::string key(name);
        if (auto c = snapshot.counters.find(key); c != snapshot.counters.end())
          return static_cast<int64_t>(c->second);
        if (auto g = snapshot.gauges.find(key); g != snapshot.gauges.end())
          return g->second.value;
        return 0;
      },
      only);
}

}  // namespace tdp::metrics
