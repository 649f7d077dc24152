"""The per-axis modal reference of the hyperbolic kinds.

``reference.solve_reference`` solves a ``SecondOrderProblem`` mode by mode
on the eigenbases of its per-axis stencils.  Here it is checked against one
dense ``scipy.linalg.expm`` of the second-order form [[0, I], [L, 0]] acting
on (u, u'), with L = −B² assembled in the test from the finite-difference
formulas, and a source folded into the exponential as extra rows.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ffode import PdeSpec, solve_pde, solve_reference
from ffode.reference import SecondOrderProblem, second_order_problem

#: offset -> weight times n^order of each periodic central difference
SECOND = {1: 1.0, 0: -2.0, -1: 1.0}
FOURTH = {2: 1.0, 1: -4.0, 0: 6.0, -1: -4.0, -2: 1.0}


def difference(n, taps, order):
    mat = np.zeros((n, n))
    for i in range(n):
        for offset, weight in taps.items():
            mat[i, (i + offset) % n] += weight * n ** order
    return mat


def dense_l(kind, d, n, a, c):
    """L in u'' = L u: c·I + Σ_j a_j·D2 on axis j, or c·I − D4 (beam)."""
    if kind == "beam":
        return c * np.eye(n) - difference(n, FOURTH, 4)
    lap = c * np.eye(n ** d)
    for j in range(d):
        lap += a[j] * np.kron(np.kron(np.eye(n ** j), difference(n, SECOND, 2)),
                              np.eye(n ** (d - 1 - j)))
    return lap


def psd_root(b2):
    """The square root B ≥ 0 of the symmetric B² ≥ 0, rounding snapped."""
    mu, v = np.linalg.eigh(b2)
    mu[mu <= 1e-9 * max(1.0, np.max(np.abs(mu)))] = 0.0
    return (v * np.sqrt(mu)) @ v.T


def expm_u_block(lap, u0, w0, T, drive=None, omega=0.0):
    """u(T) of u'' = L u + g·cos(ωt), with g = drive, from one expm of
    [[0, I, 0], [L, 0, g·e₀ᵀ], [0, 0, Z]], z = (cos ωt, sin ωt)."""
    N = lap.shape[0]
    gen = np.zeros((2 * N + 2, 2 * N + 2), dtype=complex)
    gen[:N, N:2 * N] = np.eye(N)
    gen[N:2 * N, :N] = lap
    if drive is not None:
        gen[N:2 * N, 2 * N] = drive
    gen[2 * N:, 2 * N:] = [[0.0, -omega], [omega, 0.0]]
    start = np.concatenate([u0, w0, [1.0, 0.0]])
    return (sla.expm(gen * T) @ start)[:N]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([("wave", 1, 3), ("wave", 1, 5), ("wave", 1, 8),
                              ("wave", 2, 3), ("wave", 2, 4), ("wave", 2, 6),
                              ("beam", 1, 4), ("beam", 1, 7)]),
       gapped=st.booleans(), a_zero=st.booleans(),
       source=st.sampled_from(["none", "constant", "sampled"]),
       T=st.floats(0.05, 2.0))
def test_modal_reference_matches_the_dense_second_order_form(
        seed, shape, gapped, a_zero, source, T):
    kind, d, n = shape
    rng = np.random.default_rng(seed)
    N = n ** d
    a = rng.uniform(0.2, 2.0, d)
    if a_zero and d == 2:
        a[1] = 0.0  # a whole line of modes with μ = 0 when c = 0
    c = -rng.uniform(0.1, 3.0) if gapped else 0.0
    u0 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    w0 = rng.standard_normal(N)
    g = rng.standard_normal(N)
    if not gapped:
        w0 -= w0.mean()  # PdeSpec asks for a mean-zero velocity when c = 0
    omega = rng.uniform(0.5, 3.0)
    kwargs = {}
    if source == "constant":
        kwargs["b"] = lambda x, t: g
    elif source == "sampled":
        kwargs["b"] = lambda x, t: g * np.cos(omega * t)
    spec = PdeSpec(kind, d, n, T, a=a, c=c, u0=lambda x: u0,
                   w0=lambda x: w0, **kwargs)

    got = solve_reference(second_order_problem(spec))

    lap = dense_l(kind, d, n, a, c)
    drive = None if source == "none" else 1j * psd_root(-lap) @ g
    want = expm_u_block(lap, u0, w0, T, drive,
                        omega if source == "sampled" else 0.0)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["wave", "beam"])
def test_zero_modes_divide_by_nothing(kind):
    # with c = 0 the constant mode has μ = 0: û0 stays, ŵ0 grows as T·ŵ0,
    # and a constant source reaches no mode of the u block through iB
    n, T = 8, 1.5
    problem = SecondOrderProblem(
        0.0, [np.zeros((n, n)) if kind == "wave" else
              difference(n, SECOND, 2)],
        u0=np.full(n, 2.0), w0=np.full(n, 0.5), horizon=T,
        inhomogeneous=np.ones(n), power=1 if kind == "wave" else 2)
    got = solve_reference(problem)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, 2.0 + 0.5 * T, atol=1e-13)


def test_rounded_zero_mode_is_snapped():
    # eigh rounds the constant mode of wave d=2 n=16 to |μ| ~ 1e-13, whose
    # root s ~ 3e-7 would let a constant source reach u through
    # 2sin²(sT/2)/s ~ sT²/2; snapped to s = 0, u stays where it started
    spec = PdeSpec("wave", 2, 16, 1.0, u0=lambda x: 1.0,
                   w0=lambda x: np.zeros(x.shape[1]), b=lambda x, t: 1.0)
    got = solve_reference(second_order_problem(spec))
    assert np.max(np.abs(got - 1.0)) <= 1e-13


def test_parabolic_kinds_have_no_second_order_form():
    spec = PdeSpec("heat", 1, 8, 1.0, u0=lambda x: 1.0)
    with pytest.raises(ValueError, match="second order"):
        second_order_problem(spec)


@pytest.mark.parametrize("kind, d, n, T, bound", [
    ("klein-gordon", 2, 64, 1.0, 1e-13),
    ("klein-gordon", 1, 256, 10.0, 1e-12),
    ("beam", 1, 512, 1.0, 2e-12),
])
def test_reference_floor_is_relative_to_each_mode(kind, d, n, T, bound):
    # each mode's μ is a sum of squared differences, so the low modes are not
    # buried under eigh's absolute error ~1e-16·‖S‖ (1.2e-12, 5.8e-11 and
    # 1.6e-11 when μ came from eigh's eigenvalues)
    kwargs = {"mass": 2.0} if kind == "klein-gordon" else {}
    spec = PdeSpec(kind, d, n, T,
                   u0=lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x[0]),
                   w0=lambda x: np.sin(2 * np.pi * x[0]), **kwargs)
    assert solve_pde(spec, 1e-6).error_vs_reference <= bound
