"""The eigen-solver routing table: ``solve_eigen`` and ``solve_pde`` take the
path the source term calls for, and give exactly the direct solver's report."""

import numpy as np
import pytest

from ffode import eigen_solvers
from ffode import (
    EigenSystem, OdeProblem, PdeSpec, SampledSource,
    eigensystem_of, lift_hyperbolic, solve_eigen, solve_eigen_constant,
    solve_eigen_timedep, solve_pde,
)

EPS = 1e-2


def assert_same_report(got, want, *, skip_extras=()):
    assert np.array_equal(got.output_state, want.output_state)
    assert got.success_probability == want.success_probability
    assert got.error_vs_reference == want.error_vs_reference
    assert got.claimed_eps == want.claimed_eps
    assert (got.repeats_no_aa, got.repeats_aa) == (want.repeats_no_aa,
                                                   want.repeats_aa)
    assert got.ledger == want.ledger
    extras = {k: v for k, v in got.extras.items() if k not in skip_extras}
    assert extras == want.extras


@pytest.fixture
def duhamel_builds(monkeypatch):
    """Counts Duhamel encodings built: the constant-source solver builds one
    exactly when the problem has a source (an all-zero b is stored as None)."""
    calls = []
    build = eigen_solvers.be_duhamel_eigen

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(eigen_solvers, "be_duhamel_eigen", counted)
    return calls


def assert_path(report, path, duhamel_builds):
    """Which solver made the report: its Duhamel builds, extras and ledger."""
    assert len(duhamel_builds) == (path == "inhomogeneous")
    duhamel_builds.clear()
    assert ("nodes" in report.extras) == (path == "timedep")
    assert (report.ledger["O_bt"] > 0) == (path == "timedep")
    assert (report.ledger["O_b"] > 0) == (path == "inhomogeneous")
    assert (report.ledger["O_f"] > 0) == (path == "inhomogeneous")


# ---------------------------------------------------------------------------
# solve_eigen on an ODE

def ode_eigensystem():
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3)))[0]
    return EigenSystem(q, [0.0, -0.5 + 1j, -1.0 - 2j])


BVEC = np.array([1.0, 0.5j, -0.25])
ODE_CASES = {
    "none": (lambda: None, "homogeneous", solve_eigen_constant),
    "all-zero": (lambda: np.zeros(3), "homogeneous", solve_eigen_constant),
    "constant": (lambda: BVEC, "inhomogeneous", solve_eigen_constant),
    "sampled": (lambda: SampledSource(
        lambda t: np.cos(t) * BVEC,
        derivative=lambda t: -np.sin(t) * BVEC), "timedep", None),
}


@pytest.mark.parametrize("source", list(ODE_CASES))
def test_solve_eigen_routing_table(source, duhamel_builds):
    make, path, direct = ODE_CASES[source]
    p = OdeProblem(ode_eigensystem(), [1.0, 0.0, 1.0j], 0.5, make())
    report = solve_eigen(p, EPS)
    assert_path(report, path, duhamel_builds)
    if direct is None:
        want = solve_eigen_timedep(p, EPS)
    else:
        want = direct(p)
    assert_same_report(report, want)


def test_solve_eigen_passes_the_node_count():
    src = ODE_CASES["sampled"][0]()
    p = OdeProblem(ode_eigensystem(), [1.0, 0.0, 1.0j], 0.5, src)
    report = solve_eigen(p, EPS, M=37)
    assert report.extras["nodes"] == 37
    assert_same_report(report, solve_eigen_timedep(p, EPS, M=37))


# ---------------------------------------------------------------------------
# solve_pde, parabolic and hyperbolic

def u0(x):
    return 1.0 + 0.5 * np.cos(2 * np.pi * x[0])


def w0(x):
    return np.sin(2 * np.pi * x[0])


def g(x):
    return np.cos(2 * np.pi * x[0])


SOURCES = {
    "none": ({}, "homogeneous"),
    "scalar": ({"b": lambda x, t: 0.5, "b_dt": lambda x, t: 0.0},
               "inhomogeneous"),
    "constant": ({"b": lambda x, t: g(x), "b_dt": lambda x, t: 0.0},
                 "inhomogeneous"),
    # one row per time, equal in value: the shape, not the values, decides
    "constant-rows": ({"b": lambda x, t: g(x) + 0 * t,
                       "b_dt": lambda x, t: 0 * t}, "timedep"),
    "time-dependent": ({"b": lambda x, t: g(x) * np.cos(t),
                        "b_dt": lambda x, t: -g(x) * np.sin(t)},
                       "timedep"),
}


def direct_source(spec, path):
    if path == "homogeneous":
        return None
    if path == "inhomogeneous":
        return spec.b_vector(np.zeros((1, 1)))[0]
    return SampledSource(spec.b_vector, derivative=spec.b_dt_vector)


DIRECT = {"homogeneous": solve_eigen_constant,
          "inhomogeneous": solve_eigen_constant,
          "timedep": lambda p: solve_eigen_timedep(p, EPS)}


@pytest.mark.parametrize("source", list(SOURCES))
def test_solve_pde_parabolic_routing(source, duhamel_builds):
    kwargs, path = SOURCES[source]
    spec = PdeSpec("heat", 1, 4, 0.5, u0=u0, **kwargs)
    report = solve_pde(spec, EPS)
    assert_path(report, path, duhamel_builds)
    problem = OdeProblem(eigensystem_of(spec), spec.u0_vector(), spec.T,
                         direct_source(spec, path))
    assert_same_report(report, DIRECT[path](problem),
                       skip_extras=("gate_model",))


@pytest.mark.parametrize("source", list(SOURCES))
def test_solve_pde_hyperbolic_routing(source, duhamel_builds):
    kwargs, path = SOURCES[source]
    spec = PdeSpec("wave", 1, 4, 0.1, u0=u0, w0=w0, **kwargs)
    report = solve_pde(spec, EPS)
    assert_path(report, path, duhamel_builds)
    problem, cost = lift_hyperbolic(spec)
    if path == "timedep":
        assert isinstance(problem.inhomogeneous, SampledSource)
    full = DIRECT[path](problem)
    assert report.extras["inversion_cost"] == cost
    assert report.ledger == full.ledger
    assert report.extras["full_system_report"] == {
        "success_probability": full.success_probability,
        "error_vs_reference": full.error_vs_reference,
    }
    u_block = full.output_state[:spec.N]
    assert np.array_equal(report.output_state,
                          u_block / float(np.linalg.norm(u_block)))
    for key, value in full.extras.items():
        assert report.extras[key] == value


@pytest.mark.parametrize("source", ["scalar", "constant", "constant-rows",
                                    "time-dependent"])
def test_the_first_sample_declares_the_route(source, duhamel_builds):
    # b is called once on a read-only (1, 1) column at t = 0; a result with
    # no time axis is the constant source, and no other call is made
    kwargs, path = SOURCES[source]
    calls = []

    def b(x, t):
        calls.append(t)
        return kwargs["b"](x, t)
    spec = PdeSpec("heat", 1, 4, 0.5, u0=u0, b=b, b_dt=kwargs["b_dt"])
    report = solve_pde(spec, EPS)
    assert_path(report, path, duhamel_builds)
    first = calls[0]
    assert first.shape == (1, 1) and first[0, 0] == 0.0
    assert not first.flags.writeable
    assert (len(calls) == 1) == (path == "inhomogeneous")


def test_lifted_source_is_zero_on_the_u_block():
    kwargs, _ = SOURCES["time-dependent"]
    spec = PdeSpec("wave", 1, 4, 0.1, u0=u0, w0=w0, **kwargs)
    src = lift_hyperbolic(spec)[0].inhomogeneous
    t = np.array([[0.0], [0.03]])
    zeros = np.zeros((2, spec.N))
    assert np.array_equal(src(t), np.hstack([zeros, spec.b_vector(t)]))
    assert np.array_equal(src.derivative(t),
                          np.hstack([zeros, spec.b_dt_vector(t)]))
    kwargs, _ = SOURCES["constant"]
    spec = PdeSpec("wave", 1, 4, 0.1, u0=u0, w0=w0, **kwargs)
    const = lift_hyperbolic(spec)[0].inhomogeneous
    assert np.array_equal(const, np.concatenate(
        [np.zeros(spec.N), spec.b_vector(np.zeros((1, 1)))[0]]))
