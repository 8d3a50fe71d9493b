// Seed discipline of the benchmark's inputs: for every workload, the same
// seed yields an identical transaction stream and arrival schedule (drawn
// against two separately opened engines), and a different seed does not.
// Each body is run against a recording Connection, so the digest covers
// every operation, table, key and delta a transaction would issue.
#include <cstdio>

#include "workloads.h"

using namespace perfbench;
using tdp::Result;
using tdp::Status;

namespace {

constexpr double kPlanSeconds = 0.5;
constexpr int kClosedTxnsPerClient = 200;

class Recorder : public tdp::engine::Connection {
 public:
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
  void Mix(uint64_t v) { digest = (digest ^ v) * 1099511628211ULL; }

 protected:
  Status DoBegin() override { return Op(1, 0, 0); }
  Status DoSelect(uint32_t table, uint64_t key) override {
    return Op(2, table, key);
  }
  Status DoSelectRange(uint32_t table, uint64_t lo, uint64_t hi) override {
    Mix(hi);
    return Op(3, table, lo);
  }
  Status DoSelectForUpdate(uint32_t table, uint64_t key) override {
    return Op(4, table, key);
  }
  Status DoUpdate(uint32_t table, uint64_t key, size_t col,
                  int64_t delta) override {
    Mix(col);
    Mix(static_cast<uint64_t>(delta));
    return Op(5, table, key);
  }
  Status DoInsert(uint32_t table, uint64_t key,
                  tdp::storage::Row row) override {
    for (int64_t v : row.cols) Mix(static_cast<uint64_t>(v));
    return Op(6, table, key);
  }
  Status DoDelete(uint32_t table, uint64_t key) override {
    return Op(7, table, key);
  }
  Status DoCommit() override { return Op(8, 0, 0); }
  void DoRollback() override { Mix(9); }
  Result<int64_t> DoReadColumn(uint32_t table, uint64_t key,
                               size_t col) override {
    Mix(col);
    Op(10, table, key);
    return int64_t{0};
  }

 private:
  Status Op(uint64_t kind, uint32_t table, uint64_t key) {
    Mix(kind);
    Mix(table);
    Mix(key);
    return Status::OK();
  }
};

void MixTxn(const GenTxn& t, Recorder* rec) {
  for (const char* c = t.type; *c != '\0'; ++c) rec->Mix(*c);
  for (uint64_t fp : t.footprint) rec->Mix(fp);
  rec->Mix(static_cast<uint64_t>(t.updates));
  rec->Mix(t.cross ? 1 : 0);
  (void)t.body(*rec);
}

/// Digest of the first stretch of a run's input for `seed`.
uint64_t StreamDigest(const WorkloadDef& def, uint64_t seed, size_t* txns) {
  Result<Setup> setup = OpenAndLoad(def);
  if (!setup.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 setup.status().ToString().c_str());
    return 0;
  }
  Generator* gen = setup.value().loaded.gen.get();
  Recorder rec;
  *txns = 0;
  if (def.loop == Loop::kOpen) {
    tdp::Rng txn_rng = TxnRng(seed);
    tdp::Rng arrival_rng = ArrivalRng(seed);
    for (const Planned& p :
         PlanPhase(gen, def.tps, kPlanSeconds, &txn_rng, &arrival_rng)) {
      rec.Mix(static_cast<uint64_t>(p.offset_ns));
      MixTxn(p.txn, &rec);
      ++*txns;
    }
  } else {
    for (int c = 0; c < def.clients; ++c) {
      tdp::Rng rng = TxnRng(seed, c);
      for (int i = 0; i < kClosedTxnsPerClient; ++i) {
        MixTxn(gen->Next(&rng), &rec);
        ++*txns;
      }
    }
  }
  return rec.digest;
}

}  // namespace

int main() {
  int failures = 0;
  for (const WorkloadDef& def : AllWorkloads()) {
    size_t n1 = 0, n2 = 0, n3 = 0;
    const uint64_t a = StreamDigest(def, 11, &n1);
    const uint64_t b = StreamDigest(def, 11, &n2);
    const uint64_t c = StreamDigest(def, 12, &n3);
    const bool same = a != 0 && a == b && n1 == n2 && n1 > 0;
    const bool differs = a != c;
    std::printf("%-11s txns=%zu same-seed %s, other-seed %s\n", def.name, n1,
                same ? "identical" : "DIFFERENT", differs ? "differs" : "SAME");
    if (!same || !differs) ++failures;
  }
  std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
