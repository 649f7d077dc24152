"""Command-line entry point.

Subcommands
-----------
solve        run a solver campaign from a JSON config, emit one CSV row per
             (problem, sweep point)
lb           certify a lower-bound witness family, print PASS/FAIL lines
degree-scan  minimal certified approximant degrees over a parameter grid
selftest     deterministic built-in campaign (CSV + PASS lines)

Exit codes: 0 ok, 1 certification/selftest failure, 2 config/schema
violation, 3 solver/problem mismatch, 4 numeric failure.  The environment
variable FFODE_LOG in {error, info, debug} controls logging.  CSV output is
deterministic for a fixed config and seed (the wall_time_ms column aside):
fixed column order, '.' decimal separator, 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

from .block_encoding import LEDGER_KEYS
from .linalg import EigenSystem
from .eigen_solvers import solve_eigen
from .lower_bounds import (
    AmplifierCircuit, amplifier_bound_check, inequality_holds,
    shifting_equivalence_check, witness_imaginary_time, witness_linear_system,
    witness_nonnormal_homogeneous, witness_nonnormal_inhomogeneous,
    witness_realpart_gap, witness_realpart_gap_inhomogeneous,
    worst_case_oracle_pair,
)
from .pde import KINDS, PdeSpec, solve_pde
from .poly_approx import certified_degree_scan
from .qsvt_solvers import solve_negdef, solve_sqrt_access
from .reference import OdeProblem, SampledSource
from .block_encoding import exact_dilation

CSV_VERSION = 1
CSV_COLUMNS = (
    ["format_version", "campaign", "problem_id", "solver", "T", "n", "d",
     "eps", "success_prob", "repeats_noAA", "repeats_AA",
     "error_vs_reference"]
    + [f"q_{k}" for k in LEDGER_KEYS]
    + ["wall_time_ms"]
)

SOLVERS = ("negdef", "sqrt", "eigen", "eigen-td")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_MISMATCH = 3
EXIT_NUMERIC = 4


class SchemaError(Exception):
    pass


class MismatchError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# ---------------------------------------------------------------------------
# named samplers for PDE initial data and sources

def _sampler_u(spec_json: dict):
    name = spec_json.get("name")
    k = float(spec_json.get("k", 1.0))
    if name == "one-plus-cos":
        return lambda x: 1.0 + np.cos(2.0 * np.pi * k * x[0])
    if name == "cos":
        return lambda x: np.cos(2.0 * np.pi * k * x[0])
    if name == "sin":
        return lambda x: np.sin(2.0 * np.pi * k * x[0])
    if name == "gaussian-bump":
        w = float(spec_json.get("width", 0.1))
        return lambda x: np.exp(-((x[0] - 0.5) ** 2) / w ** 2)
    if name == "constant":
        v = float(spec_json.get("value", 1.0))
        return lambda x: v
    raise SchemaError(f"unknown sampler {name!r}")


def _sampler_b(spec_json: dict):
    """Returns (b(x,t), db/dt(x,t)) callables."""
    name = spec_json.get("name")
    if name == "constant":
        v = float(spec_json.get("value", 1.0))
        return (lambda x, t: v), (lambda x, t: 0.0)
    if name == "cos-drive":
        k = float(spec_json.get("k", 1.0))
        om = float(spec_json.get("omega", 1.0))
        return (lambda x, t: np.cos(2 * np.pi * k * x[0]) * np.cos(om * t),
                lambda x, t: -om * np.cos(2 * np.pi * k * x[0]) * np.sin(om * t))
    if name == "spatial":
        inner = _sampler_u(spec_json.get("profile", {"name": "constant"}))
        return (lambda x, t: inner(x)), (lambda x, t: 0.0)
    raise SchemaError(f"unknown source sampler {name!r}")


# ---------------------------------------------------------------------------
# config parsing and validation

def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _is_coefficients(x) -> bool:
    """A finite number, or a nonempty list of finite numbers."""
    return _is_number(x) or (isinstance(x, list) and len(x) > 0
                             and all(map(_is_number, x)))


def _is_natural(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_positive_int(x) -> bool:
    return _is_natural(x) and x > 0


#: sweep axes: (predicate on each value, what the values must be)
SWEEP_AXES = {
    "T": (lambda x: _is_number(x) and x > 0, "positive numbers"),
    "eps": (lambda x: _is_number(x) and 0 < x < 1, "numbers in (0, 1)"),
    "n": (_is_positive_int, "positive integers"),
    "d": (_is_positive_int, "positive integers"),
    "M": (_is_positive_int, "positive integers"),
}

#: numbers the config sets at its top level
CONFIG_NUMBERS = {"seed": (_is_natural, "a non-negative integer")}

#: numbers a problem sets, by problem type, and numbers a named sampler
#: sets (a spatial source's profile included): (predicate, what they must be)
PROBLEM_NUMBERS = {
    "ode": {"N": SWEEP_AXES["n"],
            "delta": (lambda x: _is_number(x) and 0 < x <= 1,
                      "numbers in (0, 1]")},
    "pde": {"n": SWEEP_AXES["n"], "d": SWEEP_AXES["d"],
            "c": (_is_number, "finite numbers"),
            "m": (_is_number, "finite numbers"),
            "a": (_is_coefficients, "a finite number or a list of d of them"),
            "a_prime": (_is_coefficients,
                        "a finite number or a list of d of them")},
}
SAMPLER_NUMBERS = {
    "k": (_is_number, "finite numbers"),
    "value": (_is_number, "finite numbers"),
    "omega": (_is_number, "finite numbers"),
    "width": SWEEP_AXES["T"],
}


def _check_numbers(where: str, obj: dict, table: dict) -> None:
    for key, (admissible, kind) in table.items():
        if key in obj:
            _require(admissible(obj[key]),
                     f"{where}: {key!r} takes {kind}, got {obj[key]!r}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    _require(isinstance(cfg, dict), "config must be a JSON object")
    _require(cfg.get("version") == 1, "config version must be 1")
    _require(isinstance(cfg.get("campaign"), str) and cfg["campaign"],
             "campaign name required")
    _require(cfg.get("solver") in SOLVERS,
             f"solver must be one of {SOLVERS}")
    _check_numbers("config", cfg, CONFIG_NUMBERS)
    sweep = cfg.get("sweep", {})
    _require(isinstance(sweep, dict), "sweep must be an object")
    for axis, values in sweep.items():
        _require(axis in SWEEP_AXES, f"unknown sweep axis {axis!r}")
        _require(isinstance(values, list) and len(values) > 0,
                 f"sweep axis {axis!r} must be a nonempty list")
        admissible, kind = SWEEP_AXES[axis]
        for value in values:
            _require(admissible(value), f"sweep axis {axis!r} takes {kind}, "
                     f"got {value!r}")
    problems = cfg.get("problems")
    _require(isinstance(problems, list) and problems, "problems list required")
    for prob in problems:
        _require(isinstance(prob, dict), "each problem must be an object")
        _require(isinstance(prob.get("id"), str) and prob["id"],
                 "each problem needs a string id")
        _require(prob.get("type") in ("pde", "ode"),
                 "problem type must be 'pde' or 'ode'")
        where = f"problem {prob['id']}"
        if prob["type"] == "pde":
            _require(prob.get("kind") in KINDS, f"unknown PDE kind")
            for key in ("u0", "w0", "b"):
                sampler = prob.get(key, {})
                if sampler is None and key != "u0":
                    continue  # no w0, or no source
                while True:
                    _require(isinstance(sampler, dict),
                             f"{where}: sampler {key} must be an object")
                    _check_numbers(f"{where}, sampler {key}", sampler,
                                   SAMPLER_NUMBERS)
                    if "profile" not in sampler:
                        break
                    sampler = sampler["profile"]
        else:
            _require(prob.get("family") in (
                "random-negdef", "random-normal", "random-sqrt", "nonnormal"),
                "unknown ode family")
        _check_numbers(where, prob, PROBLEM_NUMBERS[prob["type"]])
        if prob["type"] == "pde" and "d" not in sweep:
            for key in ("a", "a_prime"):
                if isinstance(prob.get(key), list):
                    _require(len(prob[key]) == prob.get("d", 1),
                             f"{where}: {key!r} takes a list of d = "
                             f"{prob.get('d', 1)} numbers, got {prob[key]!r}")
    cfg.setdefault("seed", 0)
    cfg.setdefault("sweep", {})
    return cfg


def _build_pde_spec(prob: dict, n: int | None, d: int | None,
                    T: float) -> PdeSpec:
    u0 = _sampler_u(prob.get("u0", {"name": "one-plus-cos"}))
    w0 = None
    if prob.get("w0") is not None:
        w0 = _sampler_u(prob["w0"])
    b = b_dt = None
    if prob.get("b") is not None:
        b, b_dt = _sampler_b(prob["b"])
    kwargs = dict(
        kind=prob["kind"],
        d=int(d if d is not None else prob.get("d", 1)),
        n=int(n if n is not None else prob.get("n", 8)),
        T=float(T),
        c=float(prob.get("c", 0.0)),
        u0=u0, w0=w0, b=b, b_dt=b_dt,
    )
    if prob.get("a") is not None:
        kwargs["a"] = prob["a"]
    if prob.get("a_prime") is not None:
        kwargs["a_prime"] = prob["a_prime"]
    if prob.get("m") is not None:
        kwargs["mass"] = float(prob["m"])
    try:
        return PdeSpec(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"bad PDE problem {prob['id']}: {exc}") from exc


def _with_time_axis(f):
    """f(x, t) as (M, N) rows, which declare a source sampled (``PdeSpec``)."""
    return lambda x, t: np.broadcast_to(f(x, t), (t.shape[0], x.shape[1]))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.linalg.qr(_complex_normal(rng, (n, n)))[0]


def _build_ode_problem(prob: dict, T: float, rng: np.random.Generator):
    """Returns (OdeProblem, aux) where aux carries solver-specific pieces."""
    family = prob["family"]
    N = int(prob.get("N", 4))
    q = _random_unitary(rng, N)
    if family == "random-negdef":
        delta = float(prob.get("delta", 0.25))
        a = (q * rng.uniform(-1.0, -delta, N)) @ q.conj().T
        coefficient, aux = (a + a.conj().T) / 2.0, {"delta": delta}
    elif family == "random-sqrt":
        h = (q * rng.uniform(0.0, 1.0, N)) @ q.conj().T
        h = (h + h.conj().T) / 2.0
        coefficient, aux = -(h @ h), {"h": h}
    elif family == "random-normal":
        lam = rng.uniform(-1.0, 0.0, N) + 1j * rng.uniform(-2.0, 2.0, N)
        lam[0] = 1j * lam[0].imag  # keep a zero-real-part mode
        coefficient, aux = EigenSystem(q, lam), {}
    else:
        raise SchemaError(f"unknown ode family {family!r}")
    u0 = _complex_normal(rng, N)
    b = None
    if prob.get("b", "random") is not None:
        b = _complex_normal(rng, N)
    return OdeProblem(coefficient, u0, T, b), aux


def _unread_axes(solver: str, prob: dict) -> tuple[str, ...]:
    """Sweep axes a problem never reads: n/d size PDE grids; M is read only
    by eigen-td on an ODE with a source."""
    if prob["type"] == "pde":
        return ("M",)
    if solver == "eigen-td" and prob.get("b", "random") is not None:
        return ("n", "d")
    return ("n", "d", "M")


def _validate_compat(cfg: dict) -> None:
    """Solver/problem structural compatibility, before any execution."""
    solver = cfg["solver"]
    for prob in cfg["problems"]:
        pid = prob["id"]
        for axis in _unread_axes(solver, prob):
            if axis in cfg["sweep"]:
                raise MismatchError(
                    f"{pid}: the {solver} solver never reads the sweep axis "
                    f"{axis!r} for this problem")
        if prob["type"] == "pde":
            if solver in ("negdef", "sqrt"):
                raise MismatchError(
                    f"{pid}: PDE problems use the eigen solvers, not {solver}")
            continue
        family = prob["family"]
        if solver == "negdef" and family != "random-negdef":
            raise MismatchError(f"{pid}: negdef solver needs a negative-"
                                f"definite family, got {family}")
        if solver == "sqrt" and family != "random-sqrt":
            raise MismatchError(f"{pid}: sqrt solver needs square-root access")
        if solver in ("eigen", "eigen-td") and family == "nonnormal":
            raise MismatchError(
                f"{pid}: eigen solvers need a unitarily diagonalizable "
                "coefficient; the nonnormal family is not")


def _run_point(cfg: dict, prob: dict, T: float, eps: float,
               n: int | None, d: int | None, M, seed: int) -> dict:
    solver = cfg["solver"]
    rng = np.random.default_rng(seed)
    started = time.perf_counter()

    if prob["type"] == "pde":
        spec = _build_pde_spec(prob, n, d, T)
        if solver == "eigen-td" and spec.b is not None:
            # the Riemann-sum path, also for a constant b (as on an ODE)
            spec.b = _with_time_axis(spec.b)
            spec.b_dt = _with_time_axis(spec.b_dt)
        report = solve_pde(spec, eps)
        n_out, d_out = spec.n, spec.d
    else:
        problem, aux = _build_ode_problem(prob, T, rng)
        n_out, d_out = problem.dim, 1
        if solver == "negdef":
            report = solve_negdef(problem, aux["delta"], eps)
        elif solver == "sqrt":
            u_h = exact_dilation(aux["h"], 1.0)
            report = solve_sqrt_access(problem, u_h, eps)
        elif solver in ("eigen", "eigen-td"):
            if solver == "eigen-td":
                # the Riemann-sum path, also for a constant b
                src = problem.inhomogeneous
                if src is not None:
                    const = np.asarray(src)
                    src = SampledSource(lambda t: const,
                                        derivative=lambda t: 0.0 * const)
                problem = OdeProblem(problem.coefficient, problem.u0, T, src)
            report = solve_eigen(problem, eps, M=int(M) if M else None)
        else:  # pragma: no cover
            raise MismatchError(f"unhandled solver {solver}")

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    row = {
        "format_version": CSV_VERSION,
        "campaign": cfg["campaign"],
        "problem_id": prob["id"],
        "solver": solver,
        "T": float(T),
        "n": n_out,
        "d": d_out,
        "eps": float(eps),
        "wall_time_ms": elapsed_ms,
    }
    row.update({
        "success_prob": report.success_probability,
        "repeats_noAA": report.repeats_no_aa,
        "repeats_AA": report.repeats_aa,
        "error_vs_reference": report.error_vs_reference,
    })
    for key in LEDGER_KEYS:
        row[f"q_{key}"] = report.ledger[key]
    return row


def run_campaign(cfg: dict, jobs: int = 1) -> list[dict]:
    _validate_compat(cfg)
    sweep = cfg["sweep"]
    t_values = sweep.get("T", [1.0])
    eps_values = sweep.get("eps", [1e-6])
    n_values = sweep.get("n", [None])
    d_values = sweep.get("d", [None])
    m_values = sweep.get("M", [None])
    points = []
    for prob in cfg["problems"]:
        for T in t_values:
            for eps in eps_values:
                for n in n_values:
                    for d in d_values:
                        for m in m_values:
                            points.append((prob, float(T), float(eps), n, d, m))
    seed = int(cfg.get("seed", 0))

    def work(item):
        prob, T, eps, n, d, m = item
        return _run_point(cfg, prob, T, eps, n, d, m, seed)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(work, points))
    else:
        rows = [work(item) for item in points]
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")


# ---------------------------------------------------------------------------
# lb subcommand

def _print_certified(pair) -> int:
    failures = 0
    for name, (measured, bound, direction) in sorted(pair.certified.items()):
        ok = inequality_holds(measured, bound, direction)
        word = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{word} {pair.family}.{name}: measured {measured:.8g} "
              f"{direction} bound {bound:.8g}")
    return failures


def _print_check(name: str, ok: bool, detail: str = "") -> int:
    print(f"{'PASS' if ok else 'FAIL'} {name}{detail}")
    return 0 if ok else 1


def _lb_amplifier(args, rng) -> float:
    """Worst ratio to the 2q·sqrt(2ε) bound over random one-ancilla circuits."""
    psi = np.zeros(args.dim, dtype=complex)
    psi[0] = 1.0
    phi = psi * (1.0 - args.eps)
    phi[1] = math.sqrt(1.0 - (1.0 - args.eps) ** 2)
    pair = worst_case_oracle_pair(psi, phi)
    worst = 0.0
    for _ in range(args.trials):
        q = int(rng.integers(1, 9))
        inter = [_random_unitary(rng, 2 * args.dim) for _ in range(q + 1)]
        kinds = [str(rng.choice(["oracle", "inverse", "controlled",
                                 "controlled-inverse"]))
                 for _ in range(q)]
        circ = AmplifierCircuit(inter, kinds, ancilla_qubits=1)
        worst = max(worst, amplifier_bound_check(pair, circ))
    return worst


#: range-checked ``lb`` parameters: (predicate, message on violation)
LB_RANGES = {
    "eps": (lambda x: 0 < x < 1, "eps must lie in (0,1)"),
    "delta": (lambda x: 0 < x < 1, "delta must lie in (0,1)"),
    "kappa": (lambda x: 1 < x < math.inf,
              "kappa must be finite and exceed 1"),
    "dim": (lambda x: x >= 2, "dim must be at least 2"),
    "T": (lambda x: 0 < x <= math.log(sys.float_info.max),
          "T must be positive with e^T a finite float"),
    "shift": (math.isfinite, "shift must be finite"),
    "trials": (lambda x: x >= 1, "trials must be at least 1"),
}


class LbFamily(NamedTuple):
    """An ``lb`` family: the LB_RANGES keys it reads, ``build(args, rng)``,
    and ``report(result)``, which prints PASS/FAIL lines, returns failures."""

    checked: tuple
    build: Callable
    report: Callable = _print_certified


def _gap_family(witness) -> LbFamily:
    """A real-part-gap family: identity basis, real parts 1 down to -1."""
    return LbFamily(("eps", "dim"), lambda args, rng: witness(
        np.eye(args.dim, dtype=complex), np.linspace(1.0, -1.0, args.dim) + 0j,
        args.eps))


LB_TABLE = {
    "realpart-gap": _gap_family(witness_realpart_gap),
    "nonnormal-homo": LbFamily(("delta",), lambda args, rng:
                               witness_nonnormal_homogeneous(args.delta)),
    "realpart-gap-inhomo": _gap_family(witness_realpart_gap_inhomogeneous),
    "nonnormal-inhomo": LbFamily(("delta",), lambda args, rng:
                                 witness_nonnormal_inhomogeneous(args.delta)),
    "imaginary-time": LbFamily(
        ("dim", "T"), lambda args, rng: witness_imaginary_time(
            np.diag(np.linspace(0.0, 1.0, args.dim)).astype(complex), args.T)),
    "linear-system": LbFamily(
        ("kappa", "dim"), lambda args, rng: witness_linear_system(
            args.kappa, _random_unitary(rng, args.dim),
            _random_unitary(rng, args.dim))),
    "amplifier": LbFamily(
        ("eps", "dim", "trials"), _lb_amplifier, lambda worst: _print_check(
            "amplifier.ratio_max", worst <= 1.0,
            f": measured {worst:.8g} <= bound 1")),
    "shifting": LbFamily(
        ("dim", "shift", "T"), lambda args, rng: shifting_equivalence_check(
            _complex_normal(rng, (args.dim, args.dim)), args.shift,
            _complex_normal(rng, args.dim), args.T),
        lambda ok: _print_check("shifting.normalized_invariance", ok)),
}

LB_FAMILIES = tuple(LB_TABLE)


def cmd_lb(args) -> int:
    checked, build, report = LB_TABLE[args.family]
    for name in checked:
        in_range, message = LB_RANGES[name]
        if not in_range(getattr(args, name)):
            print(f"error: {message}", file=sys.stderr)
            return EXIT_SCHEMA
    try:
        result = build(args, np.random.default_rng(args.seed))
    except ValueError as exc:
        print(f"FAIL {args.family}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_FAIL if report(result) else EXIT_OK


# ---------------------------------------------------------------------------
# degree-scan subcommand

def cmd_degree_scan(args) -> int:
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
        scan = certified_degree_scan(args.target, grid, args.eps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    lines = ["param,degree"]
    for param, degree in scan.rows():
        lines.append(f"{_fmt(param)},{degree}")
    lines.append(f"fitted_exponent,{_fmt(scan.fitted_exponent)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"degree_scan_{args.target}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest subcommand

SELFTEST_CONFIG = {
    "version": 1,
    "campaign": "selftest",
    "solver": "eigen",
    "seed": 11,
    "sweep": {"T": [0.01, 0.1, 1.0], "eps": [1e-08]},
    "problems": [
        {"id": "heat-1d", "type": "pde", "kind": "heat", "d": 1, "n": 8,
         "u0": {"name": "one-plus-cos"}},
        {"id": "transport-1d", "type": "pde", "kind": "transport", "d": 1,
         "n": 8, "a_prime": [1.0], "u0": {"name": "one-plus-cos"}},
        {"id": "random-normal", "type": "ode", "family": "random-normal",
         "N": 8},
    ],
}


def cmd_selftest(args) -> int:
    tol = args.tolerance
    failures = 0
    cfg = dict(SELFTEST_CONFIG)
    cfg["seed"] = args.seed if args.seed is not None else cfg["seed"]
    rows = run_campaign(cfg, jobs=args.jobs)
    for row in rows:
        ok = row["error_vs_reference"] <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} solve {row['problem_id']} "
              f"T={row['T']}: error {row['error_vs_reference']:.3e} <= {tol}")
    for family, kwargs in (
            (witness_nonnormal_homogeneous, {"delta": 0.5}),
            (witness_nonnormal_inhomogeneous, {"delta": 0.5})):
        try:
            pair = family(**kwargs)
            failures += _print_certified(pair)
        except ValueError as exc:
            print(f"FAIL {family.__name__}: {exc}")
            failures += 1
    if args.out:
        path = os.path.join(args.out, "selftest.csv")
        write_csv(rows, path)
        print(f"wrote {path}")
    print(f"selftest: {'OK' if failures == 0 else f'{failures} failures'}")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_solve(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        rows = run_campaign(cfg, jobs=args.jobs)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    out_dir = args.out or "."
    path = os.path.join(out_dir, f"{cfg['campaign']}.csv")
    write_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    if args.tolerance is not None:
        bad = [r for r in rows
               if not r["error_vs_reference"] <= args.tolerance]
        if bad:
            print(f"numeric failure: {len(bad)} rows exceed the tolerance "
                  f"{args.tolerance}", file=sys.stderr)
            return EXIT_NUMERIC
    return EXIT_OK


def _number_from(least, kind: str, cast=int) -> Callable[[str], float]:
    """An argparse type: ``cast(text)`` ≥ ``least``, else a usage error."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not value >= least:
            raise argparse.ArgumentTypeError(f"takes {kind}, got {text!r}")
        return value
    return parse


_SEED = _number_from(0, "a non-negative integer")
_JOBS = _number_from(1, "a positive integer")
_TOLERANCE = _number_from(0.0, "a non-negative number", cast=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffode",
        description="simulate and verify fast-forwarded quantum ODE solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a campaign from a JSON config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--jobs", type=_JOBS, default=1)
    p_solve.add_argument("--seed", type=_SEED, default=None)
    p_solve.add_argument("--tolerance", type=_TOLERANCE, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_lb = sub.add_parser("lb", help="certify a lower-bound witness family")
    p_lb.add_argument("--family", required=True, choices=LB_FAMILIES)
    p_lb.add_argument("--eps", type=float, default=0.01)
    p_lb.add_argument("--delta", type=float, default=0.5)
    p_lb.add_argument("--kappa", type=float, default=10.0)
    p_lb.add_argument("--dim", type=int, default=4)
    p_lb.add_argument("--T", type=float, default=1.0)
    p_lb.add_argument("--shift", type=float, default=0.7)
    p_lb.add_argument("--trials", type=int, default=25)
    p_lb.add_argument("--seed", type=_SEED, default=0)
    p_lb.set_defaults(func=cmd_lb)

    p_scan = sub.add_parser("degree-scan",
                            help="certified approximant degree scan")
    p_scan.add_argument("--target", required=True)
    p_scan.add_argument("--grid", required=True,
                        help="comma-separated parameter values")
    p_scan.add_argument("--eps", type=float, default=1e-6)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_degree_scan)

    p_self = sub.add_parser("selftest", help="deterministic built-in campaign")
    p_self.add_argument("--out", default=None)
    p_self.add_argument("--jobs", type=_JOBS, default=1)
    p_self.add_argument("--seed", type=_SEED, default=None)
    p_self.add_argument("--tolerance", type=_TOLERANCE, default=1e-9)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("FFODE_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
