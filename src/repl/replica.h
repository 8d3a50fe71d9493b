// Replica: one durable copy of the leader's framed redo stream
// (docs/replication.md).
//
// A replica is a passive in-process stand-in for a follower node: a byte
// image of the leader's log "file" backed by its own SimDisk (and
// optionally its own FaultInjector, so its failures stay scoped to this
// device). The leader's shipper thread hands it contiguous chunks of the
// CRC32C-framed image (src/log/log_codec); the replica appends, forces the
// chunk in one write-through device request, and only then advances its
// durable watermark. The image discipline mirrors log::RedoLog exactly:
//
//  * durable_bytes()/durable_lsn() are *prefix* claims — every byte below
//    the watermark survived a flush on this replica's device.
//  * A failed flush leaves the appended bytes in place as a torn-tail
//    candidate without advancing the watermark; a re-ship anchored at the
//    durable offset truncates the tail first, so the image never forks.
//  * CrashImage() returns the durable prefix plus a bounded never-fsynced
//    tail — what a post-crash read of this replica's disk would see. The
//    framing's checksum makes any tail safe to hand to recovery.
//
// Term fencing: every Ship/CatchUp carries the leader's term. A call with a
// term below the highest this replica has seen is rejected with
// Status::Aborted — a deposed leader's late traffic cannot touch a replica
// that already follows a newer term. A higher term is adopted, dropping any
// undurable tail (bytes only the old leader ever knew about).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/sim_disk.h"
#include "common/status.h"
#include "log/log_image.h"

namespace tdp::repl {

struct ReplicaConfig {
  /// Device the replica's log copy lives on. Each replica builds and owns
  /// its own SimDisk so device jitter and injected faults are per-replica.
  SimDiskConfig disk;
  /// Replica index (1-based; the leader's own disk is copy 0). Diagnostics
  /// only.
  int id = 1;
};

class Replica {
 public:
  explicit Replica(ReplicaConfig config);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Appends `size` bytes of the leader's framed image, starting at leader
  /// image offset `base_offset`, then forces them in one write-through
  /// request (SimDisk::Flush carrying the bytes). `term` is the shipping
  /// leader's term; `end_lsn` is the LSN of the last frame the shipped
  /// range completes (the leader knows it — the replica does not reparse).
  ///
  /// Returns:
  ///  * OK — the bytes are durable; durable_lsn() advanced to `end_lsn`.
  ///  * Aborted("stale term") — `term` is below the replica's current term.
  ///  * Aborted("non-contiguous ship") — `base_offset` leaves a gap.
  ///  * IOError — the replica is killed/dark or the flush failed; appended
  ///    bytes remain as a torn-tail candidate, watermark unchanged.
  Status Ship(uint64_t term, size_t base_offset, const uint8_t* data,
              size_t size, uint64_t end_lsn);

  /// Catch-up from a full leader image (failover recovery path): adopts
  /// `term`, truncates to the local durable prefix, and ships the missing
  /// suffix of `image` in one call. Same fencing and failure semantics as
  /// Ship.
  Status CatchUp(uint64_t term, const std::vector<uint8_t>& image,
                 uint64_t end_lsn);

  /// Simulated replica death: every later Ship fails with IOError until
  /// Revive(). Scoped strictly to this replica — siblings and the leader
  /// never notice beyond their ship errors.
  void Kill() { killed_.store(true, std::memory_order_release); }
  void Revive() { killed_.store(false, std::memory_order_release); }
  bool killed() const { return killed_.load(std::memory_order_acquire); }

  /// True when the replica cannot accept ships: killed, or its injector has
  /// latched the device dark (FaultKind::kDiskDark).
  bool dark() const {
    return killed() ||
           (config_.disk.fault != nullptr && config_.disk.fault->dark());
  }

  uint64_t term() const { return term_.load(std::memory_order_acquire); }
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  size_t durable_bytes() const {
    return durable_bytes_.load(std::memory_order_acquire);
  }

  /// Post-crash read of this replica's log copy: the durable prefix plus up
  /// to `extra_tail_bytes` of appended-but-never-flushed tail.
  std::vector<uint8_t> CrashImage(uint64_t extra_tail_bytes = 0) const;

  SimDisk& disk() { return disk_; }
  int id() const { return config_.id; }

  struct Stats {
    std::atomic<uint64_t> ships{0};        ///< Successful ship batches.
    std::atomic<uint64_t> ship_bytes{0};   ///< Bytes made durable by ships.
    std::atomic<uint64_t> ship_errors{0};  ///< Ships that failed at the disk.
    std::atomic<uint64_t> rejected_stale_term{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  ReplicaConfig config_;
  SimDisk disk_;

  /// Serializes whole Ship/CatchUp calls, disk I/O included — the shipper
  /// thread and a recovery-time CatchUp must not interleave appends.
  std::mutex ship_mu_;
  mutable std::mutex mu_;  ///< Guards image_ and the watermark advance.
  log::LogImage image_;
  std::atomic<uint64_t> term_{0};
  std::atomic<uint64_t> durable_lsn_{0};
  std::atomic<size_t> durable_bytes_{0};
  std::atomic<bool> killed_{false};

  Stats stats_;
  // Process-wide registry mirrors (shared by every replica, like fault.*).
  struct MetricHandles {
    metrics::Counter* ships = nullptr;
    metrics::Counter* ship_bytes = nullptr;
    metrics::Counter* ship_errors = nullptr;
    metrics::Counter* rejected_stale_term = nullptr;
  };
  MetricHandles m_;
};

}  // namespace tdp::repl
