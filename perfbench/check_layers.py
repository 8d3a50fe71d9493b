#!/usr/bin/env python3
"""Checks the layer-separation predictions of the benchmark definition.

    python3 perfbench/check_layers.py [--seed N] [--seconds S]

Runs every workload once with --trace 1 through run.py and asserts that
each layer's per-layer metrics move only on the workloads that run that
layer (README.md, "Per-layer metrics"). Exits nonzero on any violation.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpcc_hot", "ycsb_cross", "ycsb_cpu", "tpcc_pg")


def traced(workload, seed, seconds):
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    m = {w: traced(w, args.seed, args.seconds) for w in WORKLOADS}

    def prefixed(workload, prefix):
        return {k: v for k, v in m[workload].items() if k.startswith(prefix)}

    checks = [
        ("buf.hit_ratio >= 0.99 on tpcc_hot",
         m["tpcc_hot"]["buf.hit_ratio"] >= 0.99),
        ("buf.hit_ratio < 0.5 on ycsb_cpu", m["ycsb_cpu"]["buf.hit_ratio"] < 0.5),
        ("lock.waits_per_txn on tpcc_hot >= 100x ycsb_cpu",
         m["tpcc_hot"]["lock.waits_per_txn"] > 0 and
         m["tpcc_hot"]["lock.waits_per_txn"] >=
         100 * m["ycsb_cpu"]["lock.waits_per_txn"]),
        ("2pc.* and repl.* run on ycsb_cross",
         m["ycsb_cross"]["2pc.forces_per_cross_commit"] > 0 and
         m["ycsb_cross"]["repl.ships_per_commit"] > 0),
        ("wal.* run on tpcc_pg",
         all(v > 0 for v in prefixed("tpcc_pg", "wal.").values())),
        ("server.* run on the open-loop workloads",
         all(m[w]["server.queue_us.p50"] > 0
             for w in ("tpcc_hot", "ycsb_cross", "tpcc_pg"))),
        ("server.* zero on ycsb_cpu",
         all(v == 0 for v in prefixed("ycsb_cpu", "server.").values())),
    ]
    for w in WORKLOADS:
        if w != "ycsb_cross":
            checks.append((f"2pc.* and repl.* zero on {w}", all(
                v == 0 for p in ("2pc.", "repl.")
                for v in prefixed(w, p).values())))
        if w != "tpcc_pg":
            checks.append((f"wal.* zero on {w}",
                           all(v == 0 for v in prefixed(w, "wal.").values())))

    for name, ok in checks:
        print(f"{'ok' if ok else 'FAILED':6s} {name}")
    failed = sum(1 for _, ok in checks if not ok)
    print("PASS" if failed == 0 else f"FAIL ({failed})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
