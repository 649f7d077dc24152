"""One benchmark process: set up one workload, then time passes over it.

Started by ``run.py``, one process per role, so that import time and peak
memory belong to one workload alone:

* ``--mode setup``: import ``ffode``, build the inputs, run the warm-up solve,
  report the time that took, and exit;
* ``--mode measure``: the same set-up, then whole passes over the workload's
  cases until ``--seconds`` would be exceeded (at least two passes);
* ``--mode trace``: untraced passes for half the time, then at least two
  passes with ``tracing.Tracer`` installed.

The first pass of a process is checked and counted but not timed: it pays
for first-touch page faults of the large arrays (about 0.5 s on qsvt-ode),
which later passes reuse from the allocator.

Progress goes to standard error; the result is one JSON line on standard out.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(HERE, "out")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_pass(workload, tracer=None) -> dict:
    """Run every case once; return its timings and failures."""
    times, failures = {}, []
    if tracer is not None:
        tracer.reset_pass()
    for case in workload.cases:
        if tracer is not None:
            tracer.recording = case.timed
        start = time.perf_counter()
        try:
            if tracer is not None:
                output = tracer.call(f"case:{case.name}", case.run, (), {})
            else:
                output = case.run()
        except Exception as exc:  # a raising case is a failed operation
            output = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        if isinstance(output, Exception):
            verdict = f"raised {type(output).__name__}: {output}"
        else:
            verdict = case.check(output)
        if case.timed:
            times[case.name] = elapsed
        if verdict is not None:
            failures.append((case.name, verdict, case.fault))
    result = {"times": times, "pass_s": sum(times.values()),
              "failures": failures}
    if tracer is not None:
        result["layers"] = tracer.pass_metrics()
    return result


def run_passes(workload, seconds: float, min_passes: int, tracer=None) -> list:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, tracer))
        wall = time.perf_counter() - t0
        p = passes[-1]
        log(f"pass {len(passes)}{' (traced)' if tracer else ''}: "
            f"{p['pass_s']:.4f} s  " + "  ".join(
                f"{k}={v:.4f}" for k, v in p["times"].items()))
        for name, verdict, fault in p["failures"]:
            log(f"  FAILED {name}: {verdict}"
                + (f"  [known fault {fault}]" if fault else ""))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + wall > seconds:
            return passes


def blas_info(np) -> list:
    """Name, version and thread count of each loaded OpenBLAS, when known."""
    import ctypes
    import glob
    found = []
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                              f"{pkg}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            info = {"lib": os.path.basename(path)}
            for key, names in (
                    ("config", ("scipy_openblas_get_config64_",
                                "scipy_openblas_get_config",
                                "openblas_get_config64_", "openblas_get_config")),
                    ("threads", ("scipy_openblas_get_num_threads64_",
                                 "scipy_openblas_get_num_threads",
                                 "openblas_get_num_threads64_",
                                 "openblas_get_num_threads"))):
                for name in names:
                    if hasattr(lib, name):
                        fn = getattr(lib, name)
                        fn.argtypes = []
                        fn.restype = ctypes.c_char_p if key == "config" \
                            else ctypes.c_int
                        value = fn()
                        info[key] = value.decode() if key == "config" else value
                        break
            found.append(info)
    if not found:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        found.append({"lib": blas.get("name"), "config": blas.get("version"),
                      "threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    return found


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy
    import ffode
    imported = time.perf_counter()
    sys.path.insert(0, HERE)
    import workloads  # the benchmark's own code is not set-up of ffode

    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](ffode, args.seed)
    workload.warmup()
    setup_s = (imported - T_START) + (time.perf_counter() - start)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env = {"numpy": np.__version__, "scipy": scipy.__version__,
           "python": sys.version.split()[0], "blas": blas_info(np)}

    tracer = None
    if args.mode == "measure":
        passes = run_passes(workload, args.seconds, 2)
        timed = passes[1:]
    else:
        import tracing
        plain = run_passes(workload, args.seconds / 2.0, 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds / 2.0, 2, tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
        timed = traced

    failures = [f for p in passes for f in p["failures"]]
    result = {
        "setup_s": setup_s,
        "env": env,
        "passes": len(passes),
        "attempted": len(passes) * len(workload.cases),
        "failed": len(failures),
        "unexpected": sorted({f"{n}: {v}" for n, v, fault in failures
                              if fault is None}),
        "known": sorted({f"{n}: {fault}" for n, _, fault in failures
                         if fault is not None}),
        "pass_s": median_of(timed, "pass_s"),
        "largest_case_s": statistics.median(
            p["times"][workload.largest] for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        counts = [{k: v for k, v in p["layers"].items()
                   if tracing.METRICS[k] != "s"} for p in traced]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        if not result["counts_repeat"]:
            log(f"count metrics differ between traced passes: {counts}")
        layers = dict(counts[0])
        for name in traced[0]["layers"]:
            if name not in layers:
                layers[name] = statistics.median(p["layers"][name]
                                                 for p in traced)
        plain_pass = median_of(plain[1:], "pass_s")
        layers["trace.overhead_s"] = result["pass_s"] - plain_pass
        layers["trace.unattributed_s"] = statistics.median(
            p["pass_s"] - sum(v for k, v in p["layers"].items()
                              if k.endswith(".self_s")) for p in traced)
        result["layers"] = layers
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "passes": len(traced)})
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
