// SimDisk: the storage-device substitute (see DESIGN.md §2).
//
// A serialized device: one request is serviced at a time, so concurrent
// writers queue on the device mutex exactly like transactions queueing on a
// busy disk. Service time = seek/setup base time drawn from a lognormal
// (disk latency is heavy-tailed) plus a bandwidth term proportional to the
// request size. Sleeping (not spinning) models the thread blocking in I/O.
//
// An optional FaultInjector perturbs requests with scheduled pathologies
// (latency spikes, stalls, write errors, torn flushes — docs/faults.md).
// I/O therefore returns Status: kIOError on an injected failure, OK
// otherwise. Without an armed injector the fault path is a single pointer
// test and every operation succeeds.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/fault.h"
#include "common/random.h"
#include "common/status.h"

namespace tdp {

struct SimDiskConfig {
  /// Median service latency of a minimal request.
  int64_t base_latency_ns = 80000;  // 80 us (SSD-ish)
  /// Lognormal sigma of the base latency (0 = deterministic).
  double sigma = 0.45;
  /// Truncation of the lognormal jitter multiplier (0 = unbounded). A real
  /// device's tail is bounded by firmware timeouts; bounding it also keeps
  /// benchmark variance driven by many moderate stalls instead of a lottery
  /// of rare extreme ones, so it defaults on. Extreme outliers are the
  /// FaultInjector's job, where they are scheduled and attributable.
  double max_jitter = 20.0;
  /// Sustained bandwidth in bytes per microsecond.
  double bytes_per_us = 400.0;  // ~400 MB/s
  /// Extra fixed cost of a durability barrier (fsync).
  int64_t flush_barrier_ns = 120000;  // 120 us
  /// Requests serviced concurrently (1 = a strictly serial spindle;
  /// NVMe-class devices service several commands at once).
  int max_concurrency = 1;
  uint64_t seed = 42;
  /// Optional fault schedule (not owned; may be shared by several disks).
  FaultInjector* fault = nullptr;
};

class SimDisk {
 public:
  explicit SimDisk(SimDiskConfig config = {});

  /// Performs a write of `bytes` (data reaches the device cache).
  /// Fails with kIOError under an injected write-error window.
  Status Write(uint64_t bytes);

  /// Performs a read of `bytes`. Reads feel spikes/stalls and fail only
  /// under an injected read-error window.
  Status Read(uint64_t bytes);

  /// Durability barrier: like Write but with the fsync surcharge. A torn
  /// flush persists only part of the payload and fails with kIOError.
  Status Flush(uint64_t bytes = 0);

  /// Threads waiting for a device slot plus requests in service. Used by
  /// the parallel-logging policy ("the one with fewer waiters", §6.2).
  int queue_length() const {
    return waiting_.load(std::memory_order_relaxed) +
           in_service_.load(std::memory_order_relaxed);
  }

  /// Requests currently being serviced (holding a device slot).
  int in_service() const {
    return in_service_.load(std::memory_order_relaxed);
  }

  /// True iff no request is queued *or in service* (best-effort). A device
  /// mid-request is busy even when nothing waits behind it.
  bool idle() const { return queue_length() == 0; }

  /// Attaches a fault schedule after construction (null detaches) — the
  /// handle for scoping a fault to one device of an engine whose devices
  /// come from a shared template, e.g. one shard's log disk. Call before
  /// the device serves its first request; not synchronized with I/O.
  void set_fault(FaultInjector* fault) { config_.fault = fault; }

  /// Nanoseconds until an injected stall covering `now` clears (0 = none).
  int64_t StallRemainingNanos() const;

  struct Stats {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> flushes{0};
    std::atomic<uint64_t> bytes{0};
    /// Operations that returned kIOError (injected faults).
    std::atomic<uint64_t> io_errors{0};
    /// Bytes dropped by torn flushes / failed writes.
    std::atomic<uint64_t> bytes_lost{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  Status Service(IoOp op, uint64_t bytes, int64_t extra_ns);
  int64_t SampleServiceNanos(uint64_t bytes, int64_t extra_ns);

  SimDiskConfig config_;
  std::mutex device_mu_;  ///< Admission control (see max_concurrency).
  std::condition_variable device_cv_;
  int active_ = 0;
  std::mutex rng_mu_;
  Rng rng_;
  std::atomic<int> waiting_{0};
  std::atomic<int> in_service_{0};
  Stats stats_;
};

}  // namespace tdp
