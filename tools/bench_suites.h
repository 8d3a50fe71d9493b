// Declared benchmark suites for bench_runner: each suite is a fixed list of
// paper experiments run in-process, with a per-experiment metrics-registry
// delta attached, emitted as one schema-stable JSON document
// (tools/bench_schema.json). The suite logic lives in this library (not in
// bench_runner's main) so tests/bench_schema_test.cc can run the smoke suite
// in-process and assert on the document directly.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"

namespace tdp::tools {

/// Names of the declared suites, in presentation order.
std::vector<std::string> ListSuites();

/// True when `suite` names a declared suite.
bool HasSuite(const std::string& suite);

/// Runs every experiment in `suite` and returns the BENCH_<suite> document:
///   { schema_version, suite, quick, experiments: [
///       { name, engine, params, latency: {...}, metrics: {counters, gauges,
///         histograms } } ] }
/// Experiment sizes honor TDP_QUICK_BENCH=1 (bench::QuickMode). Aborts via
/// assert on an unknown suite; call HasSuite first.
json::Value RunSuite(const std::string& suite);

/// Structural validation of `doc` against `schema` (the parsed
/// tools/bench_schema.json). The schema maps required keys to type names
/// ("int", "number", "bool", "string", "object", "array"); objects recurse,
/// an array schema's single element is the schema for every document
/// element, and extra document keys are allowed (the schema is a floor, so
/// adding metrics is not drift). Returns human-readable problems; empty
/// means valid.
std::vector<std::string> ValidateAgainstSchema(const json::Value& doc,
                                               const json::Value& schema);

/// Invariant checks over a suite document: every row of the ledger table
/// (src/common/ledger.h) on every experiment, plus the per-engine checks
/// that are not counter identities (counters that must be positive, WAL
/// bytes == blocks * block size, queues drained at quiesce). Returns
/// human-readable violations; empty means all invariants hold.
std::vector<std::string> CheckInvariants(const json::Value& doc);

/// The gate bench_runner and tdp_tune run on the document they wrote: with
/// a `schema_path`, validates `doc` against that schema ("schema drift: ..."
/// per problem, else "schema: OK"); with `check`, runs CheckInvariants
/// ("invariant violated: ..." per problem, else "invariants: OK"). Returns
/// the number of problems, or -1 when the schema cannot be loaded (reported
/// as "<tool>: cannot load schema ...").
int GateDocument(const json::Value& doc, const std::string& schema_path,
                 bool check, const char* tool);

}  // namespace tdp::tools
