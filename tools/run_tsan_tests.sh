#!/usr/bin/env bash
# Build the concurrency-heavy test binaries under ThreadSanitizer and run
# them. Uses a dedicated build dir (build-tsan) so sanitized objects never
# mix with the plain build.
#
# Usage: tools/run_tsan_tests.sh [extra test binaries...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-tsan

# The races worth hunting live in the lock manager, buffer pool, log/WAL
# group commit, the fault-injection retry paths, the server layer's
# admission queue + worker pool, the tuner's engine+service lifecycles, the
# replication layer's shipper threads + ack parking, and the sharded
# engine's cross-shard 2PC over per-shard logs.
TESTS=(
  metrics_test
  server_admission_test
  tuning_test
  llu_backlog_property_test
  spinlock_test
  lock_manager_test
  scheduler_policy_test
  deadlock_detector_test
  buffer_pool_test
  llu_test
  redo_log_test
  wal_test
  recovery_test
  pg_recovery_test
  crash_point_test
  histogram_test
  sim_disk_test
  fault_injection_test
  sharded_hash_table_test
  group_commit_test
  durable_acks_test
  cats_weight_property_test
  conflict_predictor_test
  conflict_sched_property_test
  repl_test
  sharded_db_test
  two_phase_recovery_test
  "$@"
)

cmake -B "$BUILD_DIR" -S . -DTDP_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}" tdp_crashtest

# second_deadlock_stack costs little and makes lock-order reports readable.
export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}"

fail=0
for t in "${TESTS[@]}"; do
  echo "==== TSan: $t ===="
  if ! "$BUILD_DIR/tests/$t"; then
    fail=1
  fi
done

# A short sweep of every crash-fuzzer mode: its async ack records are
# written from epoch and shipper threads and read by the workload thread.
for mode in recovery replica-kill coordinator-crash; do
  echo "==== TSan: tdp_crashtest --mode=$mode ===="
  if ! "$BUILD_DIR/tools/tdp_crashtest" --mode="$mode" --seed-count=30; then
    fail=1
  fi
done

# pgmini's per-set epoch writers: each set's round runs its device request
# without the set's lock while commits insert and other rounds fire acks.
echo "==== TSan: tdp_crashtest --mode=recovery --engine=pg ===="
if ! "$BUILD_DIR/tools/tdp_crashtest" --mode=recovery --engine=pg \
    --seed-count=30; then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "TSan run FAILED (see reports above)" >&2
  exit 1
fi
echo "TSan run clean."
