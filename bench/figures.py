#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the figures.

    python3 bench/figures.py --seeds 1-10 --seconds 40 [--trace]

For each workload and metric it prints the median over seeds and the spread
(distance between the first and third quartile as a share of the median),
plus the share of failed operations, which must be the same in every run.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    for workload in WORKLOADS:
        values, shares, correct = {}, set(), True
        for seed in seeds:
            result = one_run(workload, seed, args.seconds, args.trace)
            shares.add(result["failed"] / result["attempted"])
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(
                    metric["value"])
            print(f"{workload} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}"
                             for k, m in result["metrics"].items()
                             if not args.trace), flush=True)
        print(f"== {workload}: {len(seeds)} runs, correct={correct}, "
              f"failed share {sorted(shares)}")
        for name, (unit, vals) in values.items():
            median = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median
            print(f"   {name:40s} median {median:12.6g} {unit:6s} "
                  f"spread {spread:.3f}  min {min(vals):.6g}  "
                  f"max {max(vals):.6g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
