#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
spread (interquartile range as a share of the median).

Usage, from the repository root:
    python3 perfbench/spread.py <workload> [--seeds 1,2,3] [--seconds 20] [--trace 0|1]
"""
import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--offline", "--release", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in args.seeds.split(","):
        run = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", seed,
                       "--seconds", args.seconds, "--trace", args.trace],
            check=True, stdout=subprocess.PIPE, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        print(json.dumps({"seed": int(seed), **{
            k: v["value"] for k, v in result["metrics"].items()}}), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':40} {'unit':6} {'median':>14} {'iqr/median':>10}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:40} {units[name]:6} {med:14.6g} {spread:10.3f}")


if __name__ == "__main__":
    main()
