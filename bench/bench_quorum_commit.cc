// Quorum-commit latency study (docs/replication.md).
//
// Commit durability through repl::QuorumLog waits for the frame to be
// durable on a majority of K copies, the leader's included. Replicas ship
// each frame as soon as it is appended, so their flushes run alongside the
// leader's and commit latency is max(leader flush, (quorum-1)-th fastest
// replica flush), not their sum:
//
//   1. K=1 — replication off, the leader's flush is the whole cost.
//   2. K=3 / K=5 — majority quorum (2-of-3, 3-of-5). Close to K=1, since
//      the extra copies flush in parallel; the tail grows with the order
//      statistic — more copies must answer — but the SLOWEST minority never
//      gates a commit.
//   3. K=3 with one slow member — a 25x latency-spike FaultInjector scoped
//      to replica 1's disk (the per-disk fault scoping this layer exists
//      for). Majority quorum masks the straggler: p99.9 degrades only
//      mildly versus healthy K=3, nowhere near the straggler's own service
//      time, because the leader + fast replica still form a quorum.
//
// Expected shape: p50/p99.9 ordered K=1 < K=3 <= K=5, and the slow-member
// arm's p99.9 bounded well under the straggler multiplier (the defining
// win of quorum over primary-backup "wait for all").
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/fault.h"
#include "engine/mysqlmini.h"

using namespace tdp;

namespace {

constexpr uint64_t kRows = 256;
constexpr int kClients = 4;

engine::MySQLMiniConfig MakeConfig(int replicas,
                                   std::vector<FaultInjector*> faults) {
  engine::MySQLMiniConfig cfg;
  cfg.row_work_ns = 2000;
  // The log path dominates on purpose: commit latency is what we measure.
  cfg.log_disk.base_latency_ns = 20000;
  cfg.log_disk.flush_barrier_ns = 10000;
  cfg.log_disk.sigma = 0.3;
  cfg.data_disk.base_latency_ns = 5000;
  cfg.repl_replicas = replicas;
  cfg.repl_disk = cfg.log_disk;  // replicas on leader-class devices
  cfg.repl_faults = std::move(faults);
  cfg.seed = 42;
  return cfg;
}

core::Metrics RunArm(const std::string& label, int replicas,
                     std::vector<FaultInjector*> faults, uint64_t per_client) {
  engine::MySQLMini db(MakeConfig(replicas, std::move(faults)));
  const uint32_t table = db.CreateTable("counter", 64);
  for (uint64_t k = 0; k < kRows; ++k) db.BulkUpsert(table, k, storage::Row{0});

  std::vector<std::vector<int64_t>> lat(kClients);
  const int64_t start = NowNanos();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<uint64_t>(c));
      auto conn = db.Connect();
      lat[static_cast<size_t>(c)].reserve(per_client);
      for (uint64_t i = 0; i < per_client; ++i) {
        const int64_t t0 = NowNanos();
        if (!conn->Begin().ok()) continue;
        if (!conn->Update(table, rng.Uniform(kRows), 0, 1).ok()) {
          conn->Rollback();
          continue;
        }
        if (conn->Commit().ok()) {
          lat[static_cast<size_t>(c)].push_back(NowNanos() - t0);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed_s = NanosToSeconds(NowNanos() - start);

  std::vector<int64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  core::Metrics m = core::Metrics::FromLatencies(all);
  m.achieved_tps =
      elapsed_s > 0 ? static_cast<double>(all.size()) / elapsed_s : 0;
  bench::PrintMetrics(label, m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitReport(argc, argv, "bench_quorum_commit");
  bench::Header("Quorum commit: p50/p99.9 vs K and vs one slow member");

  const uint64_t n = bench::N(4000);

  const core::Metrics k1 = RunArm("quorum.k1", 1, {}, n);
  const core::Metrics k3 = RunArm("quorum.k3", 3, {}, n);
  const core::Metrics k5 = RunArm("quorum.k5", 5, {}, n);

  // One slow quorum member: a 25x latency spike pinned to replica 1's disk.
  FaultInjector slow;
  slow.AddLatencySpike(/*start_ns=*/0, /*duration_ns=*/int64_t{1} << 40,
                       /*magnitude=*/25.0);
  slow.Arm();
  const core::Metrics k3_slow =
      RunArm("quorum.k3_one_slow", 3, {&slow, nullptr}, n);

  std::printf("%-28s k1=%.3f k3=%.3f k5=%.3f k3_slow=%.3f ms\n", "p99.9",
              k1.p999_ms, k3.p999_ms, k5.p999_ms, k3_slow.p999_ms);
  const double slow_ratio = k3.p999_ms > 0 ? k3_slow.p999_ms / k3.p999_ms : 0;
  std::printf("%-28s %.2fx over healthy k3 (straggler is 25x)\n",
              "slow_member.p999_ratio", slow_ratio);

  bench::Report::Global().AddValue("k1.p999_ms", k1.p999_ms);
  bench::Report::Global().AddValue("k3.p999_ms", k3.p999_ms);
  bench::Report::Global().AddValue("k5.p999_ms", k5.p999_ms);
  bench::Report::Global().AddValue("k3_one_slow.p999_ms", k3_slow.p999_ms);
  bench::Report::Global().AddValue("slow_member.p999_ratio", slow_ratio);
  bench::Report::Global().AddValue(
      "k3.p999_over_k1", k1.p999_ms > 0 ? k3.p999_ms / k1.p999_ms : 0);
  return 0;
}
