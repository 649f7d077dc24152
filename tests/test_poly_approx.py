"""Certified Chebyshev approximants and the degree-scan power law."""

import math
import subprocess
import sys

import numpy as np
import pytest

from ffode import (
    approx_exp_shifted, approx_gaussian, approx_gaussian_integral,
    certified_degree_scan,
)
from ffode.poly_approx import (
    chebyshev_grid, chebyshev_series, scaled_bessel_i, target_function,
)

BUILDERS = {"exp-shifted": approx_exp_shifted, "gaussian": approx_gaussian,
            "gaussian-integral": approx_gaussian_integral}


def test_exp_shifted_value_at_one():
    p = approx_exp_shifted(5.0, 1e-8)
    assert p(1.0) == pytest.approx(1.0, abs=1e-8)


def test_exp_shifted_zero_horizon_is_constant():
    p = approx_exp_shifted(0.0, 1e-10)
    assert p.degree() == 0
    assert p(0.3) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_trivial_values():
    p = approx_gaussian(7.0, 1e-8)
    assert p(0.0) == pytest.approx(1.0, abs=1e-8)
    q = approx_gaussian(0.0, 1e-10)
    assert q.degree() == 0
    assert q(0.9) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_large_beta_point_value():
    p = approx_gaussian(400.0, 1e-6)
    assert p(0.1) == pytest.approx(math.exp(-4.0), abs=1e-6)


def test_gaussian_integral_values():
    p = approx_gaussian_integral(1.0, 1e-9)
    assert p(0.0) == pytest.approx(1.0, abs=1e-9)
    assert p(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
    q = approx_gaussian_integral(0.0, 1e-10)
    assert q(0.5) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_variants_are_even():
    for p in (approx_gaussian(50.0, 1e-7), approx_gaussian_integral(50.0, 1e-7)):
        assert np.max(np.abs(p.coefficients[1::2])) <= 1e-12
        x = chebyshev_grid(101)
        assert np.max(np.abs(p(x) - p(-x))) < 1e-12


def test_certified_error_survives_denser_resampling():
    # re-certify on a 10x denser grid: the claimed sup-error must stand
    for target, param in (("exp-shifted", 37.0), ("gaussian", 37.0),
                          ("gaussian-integral", 37.0)):
        p = BUILDERS[target](param, 1e-6)
        f = target_function(target, param)
        x = chebyshev_grid(10 * (8 * p.degree() + 64))
        dense = float(np.max(np.abs(f(x) - p(x))))
        assert dense <= 1e-6 * (1.0 + 1e-6)


def test_degree_monotonicity_in_parameter_and_eps():
    degs = [approx_exp_shifted(t, 1e-6).degree() for t in (4.0, 16.0, 64.0)]
    assert degs == sorted(degs)
    d_loose = approx_gaussian(64.0, 1e-3).degree()
    d_tight = approx_gaussian(64.0, 1e-9).degree()
    assert d_loose <= d_tight


def test_composition_reproduces_matrix_exponential():
    # evaluating the approximant at 1 + λ reproduces e^{λT} on [-1, -δ]
    T, eps = 9.0, 1e-8
    p = approx_exp_shifted(T, eps)
    lam = np.linspace(-1.0, -0.1, 13)
    assert np.max(np.abs(p(1.0 + lam) - np.exp(lam * T))) <= eps


def test_degree_scan_validation():
    with pytest.raises(ValueError):
        certified_degree_scan("exp-shifted", [16, 64, 256], 1e-6)
    with pytest.raises(ValueError):
        certified_degree_scan("exp-shifted", [16, 32, 64, 128], 1e-6)


def test_degree_scan_constant_target():
    scan = certified_degree_scan("constant", [16, 64, 256, 1024], 1e-6)
    assert list(scan.degrees) == [0, 0, 0, 0]
    assert scan.fitted_exponent == 0.0


def test_degree_scan_sqrt_law_exponents():
    for target in ("exp-shifted", "gaussian"):
        scan = certified_degree_scan(target, [16, 64, 256, 1024], 1e-6)
        assert 0.40 <= scan.fitted_exponent <= 0.65, \
            f"{target}: exponent {scan.fitted_exponent}"
        degs = list(scan.degrees)
        assert degs == sorted(degs)


@pytest.mark.parametrize("target, param", [
    ("exp-shifted", 1024.0), ("gaussian", 4096.0),
    ("gaussian-integral", 4096.0),
])
def test_truncated_series_error_is_its_tail(target, param):
    # the sup error sits at x* (1 or 0), which the uniform grid contains.
    # Both sides are 1 minus a sum near 1, so they agree to a few ulps of 1,
    # not to ulps of the 1e-6 error itself
    p = BUILDERS[target](param, 1e-6)
    x = np.linspace(-1.0, 1.0, 200_001)
    dense = float(np.max(np.abs(target_function(target, param)(x) - p(x))))
    assert dense <= 1e-6
    assert dense == pytest.approx(p.achieved_error, rel=0, abs=1e-13)


def test_reported_degrees():
    # the degree-by-degree interpolation scan gave 160 for the first, and
    # its degree-442 gaussian fit missed 1e-6
    assert approx_exp_shifted(1024.0, 1e-6).degree() == 157
    assert approx_gaussian(4096.0, 1e-6).degree() == 442


def test_scaled_bessel_recurrence_matches_scipy():
    ive = pytest.importorskip("scipy.special").ive
    for z in np.geomspace(1e-3, 5e5, 25):
        v = scaled_bessel_i(z)
        k = np.arange(v.size)
        want = ive(k, z)
        kept = want > 1e-30
        # scipy's own error reaches ~1e-12 at the top of this range
        assert np.allclose(v[kept], want[kept], rtol=4e-12, atol=0), z
        # nothing past the recurrence start is representable next to I_0
        assert ive(np.arange(v.size, v.size + 50), z).max() < 1e-40


def test_scaled_bessel_recurrence_against_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    z = 5e5
    v = scaled_bessel_i(z)
    for k in (0, 1, 100, 1000, 3000, 5000):
        want = float(mpmath.besseli(k, z) * mpmath.exp(-z))
        assert v[k] == pytest.approx(want, rel=1e-14)


def test_gaussian_integral_coefficients_match_quadrature():
    from scipy.integrate import quad
    ive = pytest.importorskip("scipy.special").ive
    beta = 30.0
    z = beta / 2.0
    series = chebyshev_series("gaussian-integral", beta)
    for k in range(6):
        integral = quad(lambda s: ive(k, s), 0.0, z, epsabs=0,
                        epsrel=1e-13)[0]
        want = (-1) ** k * (1 if k == 0 else 2) * integral / z
        assert series[2 * k] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("target", ["exp-shifted", "gaussian",
                                    "gaussian-integral", "constant"])
@pytest.mark.parametrize("param", [0.0, 1e-3, 1.0, 37.0, 4096.0, 1e5])
def test_series_magnitudes_sum_to_one(target, param):
    series = chebyshev_series(target, param)
    assert abs(np.abs(series).sum() - 1.0) <= 1e-14
    if target != "exp-shifted":
        assert not np.any(series[1::2])


def test_unreachable_eps_raises():
    with pytest.raises(ValueError, match="rounding allowance"):
        approx_gaussian(4096.0, 1e-15)
    assert approx_gaussian(4096.0, 1e-11).achieved_error <= 1e-11


def test_degree_scan_exponent_to_4096():
    scan = certified_degree_scan("exp-shifted", [16, 64, 256, 1024, 4096],
                                 1e-6)
    assert 0.45 <= scan.fitted_exponent <= 0.55


def test_fits_do_not_import_scipy_special():
    code = ("import sys, ffode\n"
            "assert 'scipy.special' not in sys.modules\n"
            "ffode.approx_gaussian_integral(4096.0, 1e-6)\n"
            "ffode.certified_degree_scan('gaussian', [16, 64, 256, 1024], "
            "1e-6)\n"
            "assert 'scipy.special' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True)
