// tdp::metrics ledger — the one table of cross-counter identities
// (docs/metrics.md, "Ledger identities").
//
// The top-down method only works if the counters a latency is broken into
// add up exactly. Each row of the table names an identity between two sums
// of metric names; it holds when the sums are equal. Every checker evaluates
// this table — bench_runner/tdp_tune's CheckInvariants over each
// experiment's registry delta, and tdp_crashtest over each seed's delta —
// so an identity is written down exactly once.
//
// A name reads as a counter, then as a gauge (its instantaneous value), and
// an absent name reads 0, as MetricsSnapshot::counter does. A subsystem that
// is not running therefore balances every row it appears in trivially.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace tdp::metrics {

/// One named identity: sum(lhs) == sum(rhs). An empty side sums to 0.
struct LedgerRow {
  std::string_view name;
  std::vector<std::string_view> lhs;
  std::vector<std::string_view> rhs;
};

/// The table, in a fixed order.
const std::vector<LedgerRow>& LedgerTable();

/// Reads one metric by name; absent names must read 0.
using MetricLookup = std::function<int64_t(std::string_view name)>;

/// Evaluates the rows named in `only` (every row when empty) and returns
/// each violated one as "name: a + b (x) != c (y)".
std::vector<std::string> CheckLedger(const MetricLookup& value,
                                     const std::vector<std::string_view>& only = {});

/// The same over a snapshot or a Delta of two.
std::vector<std::string> CheckLedger(const MetricsSnapshot& snapshot,
                                     const std::vector<std::string_view>& only = {});

}  // namespace tdp::metrics
