// bench_runner: runs a declared suite of the paper's experiments
// (tools/bench_suites.cc) and writes one machine-readable BENCH_<suite>.json
// with per-experiment latency metrics plus the metrics-registry delta for
// that experiment. With --schema the document is validated structurally
// against tools/bench_schema.json (schema drift is a hard failure), and
// --check additionally enforces the cross-counter invariants.
//
// Usage:
//   bench_runner [--suite=smoke] [--out=PATH] [--schema=PATH] [--check]
//                [--list]
// Default output path is BENCH_<suite>.json in the working directory. Set
// TDP_QUICK_BENCH=1 for CI-sized runs (tools/run_benchsmoke.sh does).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tools/bench_suites.h"

int main(int argc, char** argv) {
  std::string suite = "smoke";
  std::string out_path;
  std::string schema_path;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--suite=", 0) == 0) {
      suite = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--schema=", 0) == 0) {
      schema_path = arg.substr(9);
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--list") {
      for (const std::string& s : tdp::tools::ListSuites())
        std::printf("%s\n", s.c_str());
      return 0;
    } else {
      std::fprintf(stderr, "bench_runner: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!tdp::tools::HasSuite(suite)) {
    std::fprintf(stderr, "bench_runner: unknown suite %s (try --list)\n",
                 suite.c_str());
    return 2;
  }
  if (out_path.empty()) out_path = "BENCH_" + suite + ".json";

  std::printf("running suite %s -> %s\n", suite.c_str(), out_path.c_str());
  const tdp::json::Value doc = tdp::tools::RunSuite(suite);

  const std::string text = doc.Dump(/*pretty=*/true);
  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "bench_runner: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    out << text << "\n";
  }
  std::printf("wrote %s (%zu experiments)\n", out_path.c_str(),
              doc.Find("experiments")->items().size());

  return tdp::tools::GateDocument(doc, schema_path, check, "bench_runner") == 0
             ? 0
             : 1;
}
