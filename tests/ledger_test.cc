// The ledger table (src/common/ledger.h): a balanced snapshot passes, moving
// one row's own metric fails exactly that row, and every name in the table
// is one the running stack registers. An absent name reads 0, so a typo in
// the table would otherwise balance silently.
#include "common/ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/toolkit.h"
#include "engine/mysqlmini.h"
#include "engine/sharded_db.h"
#include "pg/pgmini.h"
#include "server/service.h"
#include "volt/voltmini.h"

namespace tdp::metrics {
namespace {

// Every row balances, and most sides are nonzero.
MetricsSnapshot Balanced() {
  MetricsSnapshot s;
  s.counters = {
      {"lock.grants.total", 10},     {"mysql.lock_acquisitions", 6},
      {"pg.lock_acquisitions", 4},   {"server.submitted", 20},
      {"server.admitted", 15},       {"server.shed", 3},
      {"server.rejected_recovering", 2}, {"server.completed", 12},
      {"server.expired", 2},         {"server.drain_aborted", 1},
      {"server.async_acks", 5},      {"server.sync_acks", 7},
      {"repl.commits_submitted", 9}, {"repl.acks_quorum", 6},
      {"repl.acks_lost", 1},         {"2pc.coordinated", 5},
      {"2pc.prepared", 4},           {"2pc.aborted_presumed", 1},
      {"sched.flagged", 3},          {"sched.hits", 1},
      {"sched.false_positives", 2},  {"server.steer_delayed", 3},
      {"volt.submits", 8},           {"volt.completions", 8},
  };
  s.gauges = {{"repl.acks_waiting", {2, 4}},
              {"server.queue_depth", {0, 9}},
              {"volt.queue_depth", {0, 3}}};
  return s;
}

// A name of `row` that no other row uses, or "" when there is none.
std::string OwnName(const LedgerRow& row) {
  std::vector<std::string_view> names = row.lhs;
  names.insert(names.end(), row.rhs.begin(), row.rhs.end());
  for (std::string_view n : names) {
    bool shared = false;
    for (const LedgerRow& other : LedgerTable()) {
      if (other.name == row.name) continue;
      shared |= std::count(other.lhs.begin(), other.lhs.end(), n) > 0 ||
                std::count(other.rhs.begin(), other.rhs.end(), n) > 0;
    }
    if (!shared) return std::string(n);
  }
  return "";
}

TEST(LedgerTest, BalancedSnapshotPasses) {
  EXPECT_TRUE(CheckLedger(Balanced()).empty());
  // Nothing registered: every name reads 0.
  EXPECT_TRUE(CheckLedger(MetricsSnapshot{}).empty());
}

TEST(LedgerTest, PerturbingOneRowReportsExactlyThatRow) {
  ASSERT_EQ(LedgerTable().size(), 11u);
  for (const LedgerRow& row : LedgerTable()) {
    const std::string name = OwnName(row);
    ASSERT_FALSE(name.empty()) << row.name << " has no metric of its own";
    MetricsSnapshot s = Balanced();
    if (s.gauges.count(name) > 0) {
      s.gauges[name].value += 1;
    } else {
      s.counters[name] += 1;
    }
    const std::vector<std::string> violations = CheckLedger(s);
    ASSERT_EQ(violations.size(), 1u) << name;
    EXPECT_EQ(violations[0].rfind(std::string(row.name) + ": ", 0), 0u)
        << violations[0];
    // `only` evaluates the named rows and nothing else.
    EXPECT_EQ(CheckLedger(s, {row.name}), violations);
    const std::string_view other =
        row.name == "lock" ? std::string_view("volt") : std::string_view("lock");
    EXPECT_TRUE(CheckLedger(s, {other}).empty()) << name;
  }
}

TEST(LedgerTest, ViolationShowsBothSums) {
  MetricsSnapshot s = Balanced();
  s.counters["server.shed"] = 4;
  s.gauges["server.queue_depth"].value = 3;
  EXPECT_EQ(CheckLedger(s),
            (std::vector<std::string>{
                "server.door: server.admitted + server.shed + "
                "server.rejected_recovering (21) != server.submitted (20)",
                "server.queue: server.queue_depth (3) != 0"}));
}

TEST(LedgerTest, LookupReadsAbsentNamesAsZero) {
  // Only the volt pair is present: every other row reads 0 == 0.
  const MetricLookup value = [](std::string_view n) -> int64_t {
    if (n == "volt.submits") return 5;
    if (n == "volt.completions") return 4;
    return 0;
  };
  EXPECT_EQ(CheckLedger(value),
            std::vector<std::string>{
                "volt: volt.submits (5) != volt.completions (4)"});
}

#ifndef TDP_METRICS_DISABLED
TEST(LedgerTest, EveryNameIsRegisteredByTheRunningStack) {
  engine::MySQLMini mysql(
      core::Toolkit::MysqlDefault(lock::SchedulerPolicy::kFCFS));
  server::TransactionService service(&mysql, server::ServiceConfig{});
  engine::ShardedDatabaseConfig scfg;
  scfg.num_shards = 2;
  scfg.shard.repl_replicas = 3;
  engine::ShardedDatabase sharded(scfg);
  pg::PgMini pg(core::Toolkit::PgDefault());
  volt::VoltMini volt(core::Toolkit::VoltDefault());

  const MetricsSnapshot s = Registry::Global().TakeSnapshot();
  for (const LedgerRow& row : LedgerTable()) {
    std::vector<std::string_view> names = row.lhs;
    names.insert(names.end(), row.rhs.begin(), row.rhs.end());
    for (std::string_view n : names) {
      const std::string name(n);
      EXPECT_TRUE(s.counters.count(name) > 0 || s.gauges.count(name) > 0)
          << row.name << ": " << name << " is never registered";
    }
  }
}
#endif

}  // namespace
}  // namespace tdp::metrics
