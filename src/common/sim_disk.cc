#include "common/sim_disk.h"

#include <thread>

#include "common/clock.h"
#include "common/crash_point.h"

namespace tdp {

SimDisk::SimDisk(SimDiskConfig config)
    : config_(config), rng_(config.seed) {}

int64_t SimDisk::SampleServiceNanos(uint64_t bytes, int64_t extra_ns) {
  double jitter;
  {
    std::lock_guard<std::mutex> g(rng_mu_);
    jitter = rng_.LogNormal(0.0, config_.sigma);
  }
  if (config_.max_jitter > 0 && jitter > config_.max_jitter) {
    jitter = config_.max_jitter;
  }
  const double base = static_cast<double>(config_.base_latency_ns) * jitter;
  const double xfer =
      config_.bytes_per_us > 0
          ? static_cast<double>(bytes) / config_.bytes_per_us * 1000.0
          : 0.0;
  return static_cast<int64_t>(base + xfer) + extra_ns;
}

int64_t SimDisk::StallRemainingNanos() const {
  FaultInjector* f = config_.fault;
  return f != nullptr ? f->StallRemainingNanos(NowNanos()) : 0;
}

Status SimDisk::Service(IoOp op, uint64_t bytes, int64_t extra_ns) {
  // After the simulated crash instant the device is gone: nothing reaches
  // the medium, every request fails immediately (docs/recovery.md). The
  // check costs one relaxed load on the normal path.
  if (CrashPoints::Global().triggered()) {
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_lost.fetch_add(bytes, std::memory_order_relaxed);
    return Status::IOError("simdisk: crashed");
  }
  const int64_t start = NowNanos();
  waiting_.fetch_add(1, std::memory_order_relaxed);
  const int slots = config_.max_concurrency < 1 ? 1 : config_.max_concurrency;
  {
    std::unique_lock<std::mutex> lk(device_mu_);
    device_cv_.wait(lk, [&] { return active_ < slots; });
    ++active_;
  }
  // The slot is held for the whole service time: a request being serviced
  // keeps the device busy even when nothing queues behind it.
  waiting_.fetch_sub(1, std::memory_order_relaxed);
  in_service_.fetch_add(1, std::memory_order_relaxed);

  int64_t service = SampleServiceNanos(bytes, extra_ns);
  bool fail = false;
  uint64_t effective_bytes = bytes;
  FaultInjector* injector = config_.fault;
  if (injector != nullptr && injector->armed()) {
    const FaultInjector::Perturbation p = injector->Evaluate(op, start);
    if (p.latency_multiplier > 1.0) {
      service = static_cast<int64_t>(static_cast<double>(service) *
                                     p.latency_multiplier);
    }
    if (p.stall_until_ns > 0) {
      // The device is frozen: this request (and, because it holds a slot,
      // everything behind it) completes no earlier than the stall's end.
      const int64_t now = NowNanos();
      if (p.stall_until_ns > now) service += p.stall_until_ns - now;
    }
    if (p.fail) {
      fail = true;
      effective_bytes =
          static_cast<uint64_t>(static_cast<double>(bytes) *
                                p.written_fraction);
    }
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(service));
  {
    std::lock_guard<std::mutex> g(device_mu_);
    --active_;
  }
  device_cv_.notify_one();
  in_service_.fetch_sub(1, std::memory_order_relaxed);
  stats_.bytes.fetch_add(effective_bytes, std::memory_order_relaxed);
  if (fail) {
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_lost.fetch_add(bytes - effective_bytes,
                                std::memory_order_relaxed);
    switch (op) {
      case IoOp::kFlush: return Status::IOError("simdisk: torn flush");
      case IoOp::kRead: return Status::IOError("simdisk: read error");
      case IoOp::kWrite: break;
    }
    return Status::IOError("simdisk: write error");
  }
  return Status::OK();
}

Status SimDisk::Write(uint64_t bytes) {
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  return Service(IoOp::kWrite, bytes, 0);
}

Status SimDisk::Read(uint64_t bytes) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  return Service(IoOp::kRead, bytes, 0);
}

Status SimDisk::Flush(uint64_t bytes) {
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  return Service(IoOp::kFlush, bytes, config_.flush_barrier_ns);
}

}  // namespace tdp
