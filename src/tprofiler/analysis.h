// Offline variance analysis (Section 3.2).
//
// From one profiled run's TraceData, builds the variance tree: for every
// interned call path (node) the per-transaction inclusive time, its body time
// (inclusive minus instrumented children), the variance of each, and the
// covariances between siblings. Factors (function variances and function-pair
// covariances) are ranked by the paper's specificity-weighted score:
//
//   specificity(f) = (height(call graph) - height(f))^2           (eq. 2)
//   score(f)       = specificity(f) * sum_over_call_sites Var(f)  (eq. 3)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tprofiler/profiler.h"
#include "tprofiler/trace.h"

namespace tdp::tprof {

/// One node of the variance tree (a call site: function + enabled-ancestor
/// path), with moments computed across transactions.
struct VarNode {
  PathNodeId id = kRootNode;
  PathNodeId parent = kRootNode;
  FuncId fid = kInvalidFunc;
  std::string path;

  std::vector<PathNodeId> children;

  double mean_inclusive_ns = 0;
  double var_inclusive = 0;  ///< ns^2
  double mean_body_ns = 0;
  double var_body = 0;       ///< ns^2; equals var_inclusive for leaves
};

enum class FactorKind { kVariance, kBody, kCovariance };

/// A ranked factor: the variance of one call site, the variance of a node's
/// own body, or 2*Cov of a sibling pair.
struct Factor {
  FactorKind kind = FactorKind::kVariance;
  PathNodeId node_a = kRootNode;
  PathNodeId node_b = kRootNode;  ///< Only for kCovariance.
  FuncId fid_a = kInvalidFunc;
  FuncId fid_b = kInvalidFunc;
  std::string label;    ///< Human-readable, e.g. "os_event_wait @ a/b/c".
  double value = 0;     ///< Var (ns^2), or 2*Cov for covariance factors.
  double pct_of_total = 0;  ///< 100 * value / Var(transaction latency).
  double score = 0;
  int height = 0;
};

/// Per-function aggregate (across call sites) — the rows of Tables 1 & 2.
struct FunctionShare {
  FuncId fid = kInvalidFunc;
  std::string name;
  double variance = 0;      ///< Σ over call sites of Var(inclusive).
  double pct_of_total = 0;  ///< 100 * variance / Var(transaction latency).
  double score = 0;
};

class VarianceAnalysis {
 public:
  /// Builds the variance tree from one run. `tree` must be the profiler's
  /// path tree from the same session.
  VarianceAnalysis(const TraceData& data, const PathTree& tree);

  uint64_t num_txns() const { return num_txns_; }
  double mean_latency_ns() const { return mean_latency_ns_; }
  /// Variance of end-to-end transaction latency (the tree's root).
  double total_variance() const { return total_variance_; }

  const std::vector<VarNode>& nodes() const { return nodes_; }
  const VarNode* FindByPath(const std::string& path) const;

  /// Per-transaction inclusive time vector of a node (ns), in txn order.
  const std::vector<double>& InclusiveSeries(PathNodeId node) const;

  /// All factors, sorted by score descending.
  std::vector<Factor> RankFactors() const;

  /// Variance shares aggregated per function, sorted by score descending.
  std::vector<FunctionShare> FunctionShares() const;

  /// Renders the top-k factors as a table.
  std::string ReportString(size_t top_k) const;

  /// All factors as CSV (kind,label,value_ns2,pct_of_total,score,height) —
  /// for piping into external analysis/plotting.
  std::string ToCsv() const;

  /// ASCII rendering of the variance tree (Figure 1's visualization): each
  /// node shows mean inclusive time, inclusive-variance share, and — for
  /// nodes with instrumented children — the body share.
  std::string TreeString() const;

 private:
  size_t IndexOf(PathNodeId node) const;
  void AppendTreeNode(PathNodeId node, const std::string& indent, bool last,
                      std::string* out) const;

  uint64_t num_txns_ = 0;
  double mean_latency_ns_ = 0;
  double total_variance_ = 0;
  int graph_height_ = 0;

  std::vector<VarNode> nodes_;               // nodes_[0] is the root
  std::vector<std::vector<double>> series_;  // per-node inclusive, txn order
  std::vector<std::vector<double>> body_;    // per-node body, txn order
  std::vector<size_t> node_index_;           // PathNodeId -> index (dense map)
};

}  // namespace tdp::tprof
