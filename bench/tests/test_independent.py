"""Tests of the benchmark's own references and checks (no ffode needed).

    python3 -m pytest bench/tests -q
"""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import independent as ind  # noqa: E402
import workloads  # noqa: E402


def test_scalar_ode_with_constant_source_matches_closed_form():
    lam, u0, b, T = -0.7 + 0.3j, 1.5 - 0.2j, 0.4 + 1.1j, 2.5
    closed = np.exp(lam * T) * u0 + (np.exp(lam * T) - 1) / lam * b
    got = ind.ode_final_state([[lam]], [u0], T, [b])
    assert abs(got[0] - closed) < 1e-13


def test_oscillator_drive_matches_closed_form():
    lam, omega, T = -0.8, 3.0, 1.7
    z, z0 = ind.oscillator(omega)
    got = ind.driven(sp.csr_matrix([[lam]]), [0.0], T, [1.0], [1.0, 0.0],
                     z, z0)
    # u' = λu + cos ωt, u(0) = 0
    closed = (-lam * math.cos(omega * T) + omega * math.sin(omega * T)
              + lam * math.exp(lam * T)) / (lam ** 2 + omega ** 2)
    assert abs(got[0] - closed) < 1e-13


def test_cubic_drive_matches_quadrature():
    lam, T, u0 = -1.3, 0.9, 0.6
    coeffs = np.poly((0.0, 0.37, 0.71))[::-1]
    z, z0 = ind.monomials(3)
    got = ind.driven(sp.csr_matrix([[lam]]), [u0], T, [2.0], coeffs, z, z0)
    integral = quad(lambda s: math.exp(lam * (T - s)) * 2.0
                    * np.polyval(coeffs[::-1], s), 0.0, T, epsabs=1e-15)[0]
    assert abs(got[0] - (math.exp(lam * T) * u0 + integral)) < 1e-13


@pytest.mark.parametrize("order,symbol", [
    (1, lambda n, k: 1j * n * math.sin(2 * math.pi * k / n)),
    (2, lambda n, k: -4 * n ** 2 * math.sin(math.pi * k / n) ** 2),
    (3, lambda n, k: -4j * n ** 3 * math.sin(2 * math.pi * k / n)
     * math.sin(math.pi * k / n) ** 2),
    (4, lambda n, k: 16 * n ** 4 * math.sin(math.pi * k / n) ** 4),
])
@pytest.mark.parametrize("n", [4, 9])
def test_stencils_have_their_fourier_symbols(order, symbol, n):
    x = np.arange(n) / n
    for k in range(n):
        mode = np.exp(2j * math.pi * k * x)
        got = ind.stencil(order, n) @ mode
        assert np.allclose(got, symbol(n, k) * mode, atol=1e-9 * n ** order)


def test_second_order_form_oscillates_a_single_mode():
    n, k, T = 8, 1, 0.3
    x = ind.grid(n, 1)[0]
    lap = ind.second_order_operator("wave", n, 1, [1.0], 0.0)
    omega = 2 * n * math.sin(math.pi * k / n)
    u0, w0 = np.cos(2 * math.pi * k * x), np.sin(2 * math.pi * k * x)
    got = ind.evolve(ind.first_order_form(lap), np.concatenate([u0, w0]), T)[:n]
    closed = math.cos(omega * T) * u0 + math.sin(omega * T) / omega * w0
    assert np.allclose(got, closed, atol=1e-12)


def test_state_check_ignores_phase_and_rejects_a_perturbed_state():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    unit = ref / np.linalg.norm(ref)
    eps = 1e-6
    kick = rng.standard_normal(16)
    kick /= np.linalg.norm(kick)

    def report(state):
        return SimpleNamespace(output_state=state)

    assert workloads.check_state(report(np.exp(0.7j) * unit), ref, eps) is None
    assert workloads.check_state(report(unit + 0.5 * eps * kick), ref, eps) is None
    assert workloads.check_state(report(unit + 3 * eps * kick), ref, eps) \
        is not None


def test_probability_check_rejects_wrong_repeat_counts():
    p = 0.3
    good = SimpleNamespace(success_probability=p, repeats_aa=4, repeats_no_aa=4)
    assert workloads.check_probability(good) is None
    assert workloads.check_probability(
        SimpleNamespace(success_probability=p, repeats_aa=3,
                        repeats_no_aa=4)) is not None
    assert workloads.check_probability(
        SimpleNamespace(success_probability=1.2, repeats_aa=2,
                        repeats_no_aa=1)) is not None


def test_dense_grid_catches_a_fit_that_misses_eps():
    beta = 64.0
    x = np.cos(np.pi * (np.arange(400) + 0.5) / 400)
    fit = np.polynomial.Chebyshev.fit(x, np.exp(-beta * x ** 2), 40,
                                      domain=[-1, 1])
    assert workloads.dense_sup_error("gaussian", beta, fit) > 1e-6
    fit = np.polynomial.Chebyshev.fit(x, np.exp(-beta * x ** 2), 90,
                                      domain=[-1, 1])
    assert workloads.dense_sup_error("gaussian", beta, fit) < 1e-9
