// Shard scaling study (docs/sharding.md).
//
// The tentpole claim of partitioned scale-out: when the single-node
// bottleneck is a serial device (here: redo-log bandwidth — 4 KiB of redo
// per write against a ~50 MB/s log disk), splitting the engine into N
// shards multiplies the bottleneck resource by N, so single-shard YCSB
// throughput scales near-linearly while p99.9 stays flat (less queueing per
// device, not more). Cross-shard transactions pay for 2PC — one forced
// PREPARE per non-coordinator writer plus the coordinator's forced DECISION,
// which carries its data redo — so the same hardware degrades smoothly as
// the cross-shard ratio rises.
//
// Arms:
//   1. shards {1,2,4} x uniform single-shard YCSB — the scaling headline:
//      tps(4) >= 3x tps(1) with p99.9 within 2x of the 1-shard tail.
//   2. shards {1,2,4} x zipfian (theta 0.99) single-shard YCSB — skew
//      concentrates load on the hot shard, so scaling flattens; the bench
//      quantifies how much headroom skew burns.
//   3. 4 shards x cross-shard ratio {0, 0.1, 0.3} — the price of 2PC,
//      with the 2pc.* ledger printed per arm.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/factory.h"

using namespace tdp;

namespace {

constexpr uint64_t kRows = 20000;
// Enough closed-loop concurrency to saturate the 1-shard log device (one
// disk moves ~12k txns/s of 4 KiB redo); with too few clients the arm
// measures flush round-trips, not the serial bandwidth the study is about.
constexpr int kClients = 32;
constexpr int kOpsPerTxn = 2;

engine::EngineConfig MakeConfig(int num_shards) {
  engine::EngineConfig config;
  auto& c = config.sharded;
  c.num_shards = num_shards;
  c.shard.row_work_ns = 500;
  c.shard.flush_policy = log::FlushPolicy::kEagerFlush;
  c.shard.log_group_commit = true;
  // Make the log device the bottleneck: fat redo records against a slow
  // disk. Group commit batches the barrier cost, but bytes are bytes — one
  // disk moves ~50 MB/s no matter how commits are batched, so the serial
  // resource is log bandwidth and shards multiply it.
  c.shard.redo_bytes_per_write = 4096;
  c.shard.log_disk.base_latency_ns = 15000;
  c.shard.log_disk.flush_barrier_ns = 5000;
  c.shard.log_disk.sigma = 0.2;
  c.shard.log_disk.bytes_per_us = 50.0;
  c.shard.data_disk.base_latency_ns = 2000;
  c.shard.seed = 42;
  return config;
}

struct ArmResult {
  core::Metrics m;
  uint64_t single = 0;  ///< shard.single_shard_txns delta
  uint64_t cross = 0;   ///< shard.cross_shard_txns delta
};

/// Closed-loop YCSB-style updates. Every transaction picks a home shard by
/// drawing its first key from `zipf` (nullptr = uniform) and confining the
/// rest to the same shard's key list — except with probability `cross_ratio`
/// the second key comes from another shard, forcing 2PC.
ArmResult RunArm(const std::string& label, int num_shards, double zipf_theta,
                 double cross_ratio, uint64_t per_client) {
  auto opened = engine::OpenDatabase(engine::EngineKind::kSharded,
                                     MakeConfig(num_shards));
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<engine::Database> db = std::move(opened.value());
  auto* sharded = static_cast<engine::ShardedDatabase*>(db.get());
  const uint32_t table = db->CreateTable("usertable", 64);
  // Per-shard key lists so single-shard transactions stay single-shard by
  // construction (the router decides ownership, the bench respects it).
  std::vector<std::vector<uint64_t>> shard_keys(
      static_cast<size_t>(num_shards));
  for (uint64_t k = 0; k < kRows; ++k) {
    db->BulkUpsert(table, k, storage::Row{0, 0});
    shard_keys[sharded->router().ShardOf(table, k)].push_back(k);
  }

  auto& reg = metrics::Registry::Global();
  const uint64_t single0 = reg.GetCounter("shard.single_shard_txns")->value();
  const uint64_t cross0 = reg.GetCounter("shard.cross_shard_txns")->value();

  std::vector<std::vector<int64_t>> lat(kClients);
  const int64_t start = NowNanos();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + static_cast<uint64_t>(c));
      std::unique_ptr<ZipfGenerator> zipf;
      if (zipf_theta > 0) {
        zipf = std::make_unique<ZipfGenerator>(kRows, zipf_theta);
      }
      auto conn = db->Connect();
      lat[static_cast<size_t>(c)].reserve(per_client);
      for (uint64_t i = 0; i < per_client; ++i) {
        const uint64_t key0 = zipf ? zipf->Next(&rng) : rng.Uniform(kRows);
        const uint32_t home = sharded->router().ShardOf(table, key0);
        const bool go_cross =
            num_shards > 1 && cross_ratio > 0 && rng.Bernoulli(cross_ratio);
        const int64_t t0 = NowNanos();
        if (!conn->Begin().ok()) continue;
        bool ok = conn->Update(table, key0, 0, 1).ok();
        for (int o = 1; ok && o < kOpsPerTxn; ++o) {
          uint32_t shard = home;
          if (go_cross && o == 1) {
            shard = (home + 1 + static_cast<uint32_t>(rng.Uniform(
                                    static_cast<uint64_t>(num_shards - 1)))) %
                    static_cast<uint32_t>(num_shards);
          }
          const std::vector<uint64_t>& keys = shard_keys[shard];
          ok = conn->Update(table, keys[rng.Uniform(keys.size())], 0, 1).ok();
        }
        if (!ok) {
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
  ArmResult r;
  r.m = core::Metrics::FromLatencies(all);
  r.m.achieved_tps =
      elapsed_s > 0 ? static_cast<double>(all.size()) / elapsed_s : 0;
  r.single = reg.GetCounter("shard.single_shard_txns")->value() - single0;
  r.cross = reg.GetCounter("shard.cross_shard_txns")->value() - cross0;
  bench::PrintMetrics(label, r.m);
  return r;
}

void ReportArm(const std::string& label, const ArmResult& r) {
  bench::Report::Global().AddValue(label + ".tps", r.m.achieved_tps);
  bench::Report::Global().AddValue(label + ".p999_ms", r.m.p999_ms);
  bench::Report::Global().AddValue(label + ".cross_txns",
                                   static_cast<double>(r.cross));
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitReport(argc, argv, "bench_shard_scaling");
  bench::Header("Shard scaling: TPS vs shard count at flat p99.9");

  const uint64_t n = bench::N(1500);
  const int kShardCounts[] = {1, 2, 4};

  // --- arm 1: uniform, single-shard only -----------------------------------
  std::vector<ArmResult> uniform;
  for (int s : kShardCounts) {
    const std::string label = "uniform.shards" + std::to_string(s);
    uniform.push_back(
        RunArm(label, s, /*zipf_theta=*/0.0, /*cross_ratio=*/0.0, n));
    ReportArm(label, uniform.back());
  }
  const double speedup2 =
      uniform[0].m.achieved_tps > 0
          ? uniform[1].m.achieved_tps / uniform[0].m.achieved_tps
          : 0;
  const double speedup4 =
      uniform[0].m.achieved_tps > 0
          ? uniform[2].m.achieved_tps / uniform[0].m.achieved_tps
          : 0;
  const double p999_ratio4 =
      uniform[0].m.p999_ms > 0 ? uniform[2].m.p999_ms / uniform[0].m.p999_ms
                               : 0;
  std::printf("%-28s 2-shard=%.2fx 4-shard=%.2fx (target >= 3x)\n",
              "uniform.speedup", speedup2, speedup4);
  std::printf("%-28s %.2fx of 1-shard tail (target <= 2x)\n",
              "uniform.p999_ratio_4shard", p999_ratio4);

  // --- arm 2: zipfian 0.99 — skew burns scaling headroom -------------------
  std::vector<ArmResult> zipf;
  for (int s : kShardCounts) {
    const std::string label = "zipf099.shards" + std::to_string(s);
    zipf.push_back(
        RunArm(label, s, /*zipf_theta=*/0.99, /*cross_ratio=*/0.0, n));
    ReportArm(label, zipf.back());
  }
  const double zipf_speedup4 =
      zipf[0].m.achieved_tps > 0
          ? zipf[2].m.achieved_tps / zipf[0].m.achieved_tps
          : 0;
  std::printf("%-28s 4-shard=%.2fx (skew-limited)\n", "zipf099.speedup",
              zipf_speedup4);

  // --- arm 3: the price of 2PC at 4 shards ---------------------------------
  const double kCrossRatios[] = {0.0, 0.1, 0.3};
  std::vector<ArmResult> cross;
  for (double ratio : kCrossRatios) {
    const std::string label =
        "cross" + std::to_string(static_cast<int>(ratio * 100)) + ".shards4";
    cross.push_back(RunArm(label, 4, /*zipf_theta=*/0.0, ratio, n));
    ReportArm(label, cross.back());
    std::printf("%-28s single=%llu cross=%llu\n", (label + ".mix").c_str(),
                static_cast<unsigned long long>(cross.back().single),
                static_cast<unsigned long long>(cross.back().cross));
  }

  bench::Report::Global().AddValue("uniform.speedup_2shard", speedup2);
  bench::Report::Global().AddValue("uniform.speedup_4shard", speedup4);
  bench::Report::Global().AddValue("uniform.p999_ratio_4shard", p999_ratio4);
  bench::Report::Global().AddValue("zipf099.speedup_4shard", zipf_speedup4);
  const double cross_cost =
      cross[0].m.achieved_tps > 0
          ? cross[2].m.achieved_tps / cross[0].m.achieved_tps
          : 0;
  bench::Report::Global().AddValue("cross30.tps_ratio", cross_cost);
  std::printf("%-28s %.2fx of 0%%-cross throughput at 30%% cross\n",
              "cross30.tps_ratio", cross_cost);
  return 0;
}
