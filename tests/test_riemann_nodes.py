"""The Riemann node count M = min(paper bound, Φ bound) of the eigen path.

``phi_bound`` must bound Φ = ∫₀ᵀ max_k |λ_k|e^{Re λ_k τ} dτ from above on any
spectrum; the solver must never take more nodes than the paper's bound asks
for, and its measured Riemann error must stay under the bound it reports.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffode import (
    EigenSystem, OdeProblem, PdeSpec, SampledSource, quadrature_nodes_for,
    solve_eigen_timedep, solve_pde, solve_reference,
)
from ffode.config import MAX_RIEMANN_NODES
from ffode.eigen_solvers import phi_bound


def _log_floats(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _modes(top):
    """One eigenvalue of each kind the bound groups differently, |λ| ≲ top."""
    mag = _log_floats(1e-3, top)
    imag = st.one_of(st.just(0.0), mag, mag.map(lambda b: -b))
    return st.one_of(
        mag.map(lambda a: complex(-a, 0.0)),                     # real decaying
        st.builds(lambda a, b: complex(-a, b), mag, imag),       # complex decaying
        imag.map(lambda b: complex(0.0, b)),                     # purely imaginary
        st.builds(lambda a, b: complex(a, b),
                  _log_floats(1e-3, 0.5), imag),                 # growing
        st.just(0j),                                             # zero mode
        imag.map(lambda b: complex(-1e-17, b)),                  # Re λ = −1e-17
    )


def _spectra(top, size):
    """Modes of any kind, or decaying ones alone, where the closed form of
    the decaying group is all of Φ: real (Φ ≪ T·‖A‖ for a wide spread) or
    complex (the bound is L·T up to the crossing τ_c)."""
    mag = _log_floats(1e-3, top)
    real = _log_floats(1e-1, 10 * top).map(lambda a: complex(-a, 0.0))
    damped = st.builds(lambda a, b: complex(-a, b), mag, mag)
    return st.one_of(*(st.lists(kind, min_size=size[0], max_size=size[1])
                       for kind in (_modes(top), real, damped)))


def _phi_lower(lam, T):
    """The midpoint sum of φ over a grid fine near 0 and across [0, T]: φ is
    a maximum of exponentials, so convex, and the midpoint sum is at most
    its integral."""
    grid = np.unique(np.concatenate(
        [[0.0], T * np.geomspace(1e-12, 1.0, 4000), np.linspace(0.0, T, 4001)]))
    mid = (grid[1:] + grid[:-1]) / 2.0
    phi = np.max(np.abs(lam)[:, None] * np.exp(np.outer(lam.real, mid)), axis=0)
    return float(np.sum(np.diff(grid) * phi))


@settings(max_examples=200, deadline=None)
@given(modes=_spectra(1e4, (1, 8)), T=_log_floats(1e-3, 1e3))
def test_phi_bound_is_above_the_integral_of_phi(modes, T):
    lam = np.array(modes)
    # 1e-12 relative: the rounding of the two sums, not of the bound
    assert phi_bound(lam, T) * (1.0 + 1e-12) >= _phi_lower(lam, T)


@pytest.mark.parametrize("lam, T, want", [
    (-3.0, 2.0, -math.expm1(-6.0)),       # ∫ a e^{−aτ}
    (-1e-17 + 5j, 2.0, 10.0),             # |λ|·T, whatever the tiny rate
    (4j, 0.5, 2.0),                       # |λ|·T
    (0.7, 3.0, math.expm1(2.1)),          # ∫ a e^{aτ}
    (0.0, 5.0, 0.0),                      # a zero mode adds nothing
], ids=["decaying", "tiny-rate", "imaginary", "growing", "zero"])
def test_phi_bound_is_exact_on_one_mode(lam, T, want):
    assert phi_bound(np.array([lam]), T) == pytest.approx(want, rel=1e-14,
                                                          abs=1e-300)


def test_phi_bound_is_logarithmic_in_the_norm_for_heat():
    # the periodic heat spectrum −4n² sin²(πk/n): Φ ≤ 1 + ln(a_max/a_min)/e
    for n in (16, 256, 4096):
        lam = -4.0 * n ** 2 * np.sin(np.pi * np.arange(n) / n) ** 2
        rates = -lam[1:]
        cap = 1.0 + math.log(rates.max() / rates.min()) / math.e
        assert phi_bound(lam, 1.0) <= cap * (1.0 + 1e-12)


def _random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def _random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


@settings(max_examples=40, deadline=None)
@given(modes=_spectra(30.0, (2, 6)), seed=st.integers(0, 2 ** 32 - 1),
       T=st.floats(0.1, 1.5), eps=_log_floats(1e-2, 1e-1),
       omega=st.floats(0.5, 2.0))
def test_chosen_nodes_meet_both_bounds(modes, seed, T, eps, omega):
    # a random normal problem on a dense unitary basis, as in criterion 6
    rng = np.random.default_rng(seed)
    n = len(modes)
    es = EigenSystem(_random_unitary(rng, n), np.array(modes))
    u0, g1, g2 = (_random_unit(rng, n) for _ in range(3))
    src = SampledSource(
        lambda t: np.cos(omega * t) * g1 + np.sin(omega * t) * g2,
        derivative=lambda t: omega * (np.cos(omega * t) * g2
                                      - np.sin(omega * t) * g1))
    p = OdeProblem(es, u0, T, src)
    try:
        rep = solve_eigen_timedep(p, eps)
    except ValueError as err:
        assume("exceeds the configured cap" not in str(err))
        raise
    ref = solve_reference(p)
    eps_prime = eps * np.linalg.norm(ref) / 2.0
    nodes = rep.extras["nodes"]
    assert nodes <= rep.extras["nodes_paper"] == quadrature_nodes_for(
        p, eps_prime)
    assert rep.extras["quadrature_bound"] <= eps_prime
    assert rep.extras["quadrature_bound"] <= rep.extras[
        "quadrature_bound_paper"]
    # the unnormalized Riemann error, rebuilt from the report
    scale = math.exp(rep.extras["alpha_tilde"] * T) * math.sqrt(
        2 * (np.linalg.norm(u0) ** 2 + T ** 2 * rep.extras["avg_square_norm"]))
    u_tilde = rep.output_state * math.sqrt(rep.success_probability) * scale
    assert np.linalg.norm(u_tilde - ref) <= rep.extras["quadrature_bound"]


def test_phi_count_and_bound_on_one_fast_mode():
    # λ = −50, b = sin t on [0, 2]: Φ = 1 − e^{−100}, sup|b| = sup|b′| = 1,
    # so the Φ bound T/M·(Φ + T) is 6/M against the paper's ≈ 100/M
    T, eps = 2.0, 1e-3
    p = OdeProblem(EigenSystem(np.eye(1), [-50.0]), [1.0], T,
                   SampledSource(np.sin, derivative=np.cos))
    rep = solve_eigen_timedep(p, eps)
    nodes = rep.extras["nodes"]
    eps_prime = eps * np.linalg.norm(solve_reference(p)) / 2.0
    assert rep.extras["phi_bound"] == pytest.approx(-math.expm1(-100.0))
    assert nodes == pytest.approx(6.0 / eps_prime, rel=1e-6)
    assert rep.extras["nodes_paper"] == pytest.approx(
        nodes * 100.0 / 6.0, rel=1e-3)
    assert rep.extras["quadrature_bound"] == pytest.approx(6.0 / nodes,
                                                           rel=1e-6)


def test_heat_n16_at_1e_4_fits_under_the_cap():
    # the paper's count, 7.2M nodes, is over the cap; the Φ count is not
    spec = PdeSpec("heat", 1, 16, 1.0,
                   u0=lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x[0]),
                   b=lambda x, t: np.cos(2 * np.pi * x[0]) * np.cos(t),
                   b_dt=lambda x, t: -np.cos(2 * np.pi * x[0]) * np.sin(t))
    rep = solve_pde(spec, 1e-4)
    assert rep.extras["nodes_paper"] > MAX_RIEMANN_NODES
    assert rep.extras["nodes"] < 10 ** 5
    assert rep.error_vs_reference <= 1e-4


def _cos_drive(dim):
    return SampledSource(lambda t: np.cos(t) * np.ones(dim),
                         derivative=lambda t: -np.sin(t) * np.ones(dim))


def test_cap_error_names_both_counts():
    p = OdeProblem(EigenSystem(np.eye(1), [-1.0]), [1.0], 4.0, _cos_drive(1))
    with pytest.raises(ValueError, match=r"paper bound \d+, Φ bound \d+\) "
                                         r"exceeds the configured cap"):
        solve_eigen_timedep(p, 1e-12)


def test_overflowing_growth_raises_before_the_reference():
    # e^{α̃T} = e^{800} is not a float: a ValueError naming α̃T, and no
    # overflow warning from a reference that ran first
    p = OdeProblem(EigenSystem(np.eye(2), [1.0, -1.0]), [1.0, 1.0], 800.0,
                   _cos_drive(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="α̃T = 800"):
            solve_eigen_timedep(p, 1e-3)
