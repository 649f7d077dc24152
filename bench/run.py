#!/usr/bin/env python3
"""Benchmark of the ffode library: one workload, one seed, one run.

    python3 bench/run.py --workload qsvt-ode --seed 1 --seconds 40 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run reports the end-to-end metrics
(``setup_s``, ``pass_s``, ``largest_case_s``, ``peak_rss_mb``); with
``--trace 1`` it reports the per-layer metrics of ``tracing.METRICS``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("qsvt-ode", "pde-spectral")
#: set-up is measured in this many fresh processes; the median is reported
SETUP_SAMPLES = 5
#: the whole run, every process included, ends within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "pass_s": "s", "largest_case_s": "s",
              "peak_rss_mb": "MiB"}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, threads))
        except ValueError:
            current = threads
        env[var] = str(max(1, min(current, threads)))
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, mode: str, env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh process; return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("no time left for another process")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=remaining, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ffode", "__init__.py")):
        print(f"error: the ffode sources are missing under {ROOT}/src",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    env = child_env(nproc)
    try:
        if args.trace:
            setups, result = [], worker(args, "trace", env, deadline)
        else:
            setups = [worker(args, "setup", env, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = worker(args, "measure", env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    envinfo = result["env"]
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# git_sha={git_sha()} nproc={nproc} "
          f"blas_thread_cap={env['OPENBLAS_NUM_THREADS']} "
          f"python={envinfo['python']} numpy={envinfo['numpy']} "
          f"scipy={envinfo['scipy']}")
    for blas in envinfo["blas"]:
        print(f"# blas {blas.get('lib')}: {blas.get('config')} "
              f"threads={blas.get('threads')}")
    print(f"# passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for line in result["known"]:
        print(f"# failed (known fault) {line}")
    for line in result["unexpected"]:
        print(f"# FAILED (unexpected) {line}")

    if args.trace:
        import tracing
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in tracing.METRICS.items()}
        print(f"# spans written to {result['trace_file']}")
        correct = not result["unexpected"] and result["counts_repeat"]
    else:
        values = dict(result, setup_s=statistics.median(
            setups + [result["setup_s"]]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        correct = not result["unexpected"]
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
