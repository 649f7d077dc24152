"""Low-degree polynomial approximants that power quadratic fast-forwarding.

Three targets on [-1, 1]:

* ``exp-shifted``      e^{-T(1-x)}
* ``gaussian``         e^{-beta x^2}
* ``gaussian-integral``  ∫₀¹ e^{-beta τ x²} dτ  =  (1 - e^{-beta x²})/(beta x²),
  evaluated by ``reference.exp_integral`` at λ = -beta x², t = 1, the same
  Duhamel kernel the solvers and the reference use

Each approximant is the target's Chebyshev series cut at the lowest degree
that meets the request.  The coefficients are closed forms in the scaled
Bessel values v_k = e^{-z} I_k(z), with ε_0 = 1 and ε_k = 2 otherwise:

* ``exp-shifted``: ε_k v_k on T_k, with z = T (Jacobi–Anger);
* ``gaussian``: (-1)^k ε_k v_k on T_{2k}, with z = beta/2;
* ``gaussian-integral``: (-1)^k (ε_k/z) Σ_{i>k} 2(i-k) v_i on T_{2k}, with
  z = beta/2, from ∫₀^z e^{-s} I_k(s) ds = Σ_{i>k} 2(i-k) e^{-z} I_i(z).

Every coefficient takes the sign of T_k at one point x* (x* = 1 for
``exp-shifted``, x* = 0 for the gaussians), and f(x*) = 1.  So the series
has Σ|a_k| = 1, and the sup error of the degree-K cut, attained at x*, is
exactly its tail 1 - Σ_{k≤K}|a_k|.  That tail is the certificate; the
gaussian variants are even by construction.

Every Chebyshev series in the package is evaluated by ``clenshaw``: numpy's
``chebval`` recurrence (Clenshaw, 1955) in the same operations, so the values
are the same bit for bit, run over chunks of ``CLENSHAW_CHUNK`` points with
three reused work arrays.  Its memory beyond the result is bounded by the
chunk, where ``chebval`` holds a mapped copy of x and allocates three new
full-length arrays per degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .reference import exp_integral

TARGETS = ("exp-shifted", "gaussian", "gaussian-integral", "constant")

# points per chunk of ``clenshaw``: its three work arrays take 384 KiB of
# float64 and stay in cache, while the Python loop runs once per degree
# and chunk
CLENSHAW_CHUNK = 16384


def clenshaw(coef, x):
    """Σ_k coef[k]·T_k(x), by numpy's ``chebval`` recurrence.

    The same operations in the same order as ``chebval(x, coef)`` for a 1-D
    ``coef``, so the values, dtype and shape are the same bit for bit (a
    scalar x gives a numpy scalar).  x is taken in chunks of
    ``CLENSHAW_CHUNK`` points; each chunk runs the recurrence in three work
    arrays and the chunk of the result, rotated instead of copied, and is
    written straight into the result.
    """
    c = np.asarray(coef)
    x = np.asarray(x)
    flat = np.ravel(x)
    out = np.empty(flat.shape, np.result_type(c, flat))
    size = min(flat.size, CLENSHAW_CHUNK)
    x2, c0, c1 = (np.empty(size, out.dtype) for _ in range(3))
    for start in range(0, flat.size, CLENSHAW_CHUNK):
        xs = flat[start:start + CLENSHAW_CHUNK]
        res = out[start:start + xs.size]
        if c.size == 1:
            # chebval: c[0] + 0*x
            np.multiply(0, xs, out=res)
            np.add(c[0], res, out=res)
            continue
        a, b = c0[:xs.size], c1[:xs.size]
        a[...] = c[-2]
        b[...] = c[-1]
        if c.size > 2:
            x2s = x2[:xs.size]
            np.multiply(2, xs, out=x2s)
            spare = res
            for i in range(3, c.size + 1):
                # (c0, c1) <- (c[-i] - c1, c0 + c1*x2)
                np.subtract(c[-i], b, out=spare)
                np.multiply(b, x2s, out=b)
                np.add(a, b, out=b)
                a, spare = spare, a
        np.multiply(b, xs, out=b)
        np.add(a, b, out=res)
    return out.reshape(x.shape)[()]


@dataclass
class ApproxPolynomial:
    """A certified Chebyshev approximant on [-1, 1]."""

    cheb: Chebyshev
    target: str
    parameter: float
    requested_error: float
    achieved_error: float

    def __call__(self, x):
        return clenshaw(self.cheb.coef, x)

    def degree(self) -> int:
        return int(self.cheb.degree())

    @property
    def coefficients(self) -> np.ndarray:
        return self.cheb.coef

    def scaled(self, factor: float) -> Chebyshev:
        """The approximant times a scalar (used to meet QSVT's |P| ≤ 1/2)."""
        return self.cheb * factor


def chebyshev_grid(num_points: int) -> np.ndarray:
    """First-kind Chebyshev points on [-1, 1]."""
    return np.cos(np.pi * (np.arange(num_points) + 0.5) / num_points)


def certify_sup_error(f, p, degree: int) -> float:
    """Max |f - p| on a grid of 8*degree + 64 Chebyshev points.

    A consistency check of the closed-form certificate, not the certificate.
    """
    x = chebyshev_grid(8 * degree + 64)
    return float(np.max(np.abs(f(x) - p(x))))


def _shifted_exp(T: float):
    def f(x):
        return np.exp(-T * (1.0 - np.asarray(x, dtype=float)))
    return f


def _gaussian(beta: float):
    def f(x):
        return np.exp(-beta * np.asarray(x, dtype=float) ** 2)
    return f


def _gaussian_integral(beta: float):
    # (1 - e^{-beta x^2})/(beta x^2) = ∫₀¹ e^{-beta x² (1-s)} ds, the Duhamel
    # kernel at λ = -beta x², t = 1
    def f(x):
        return exp_integral(-beta * np.asarray(x, dtype=float) ** 2, 1.0)
    return f


def target_function(target: str, parameter: float):
    if target == "exp-shifted":
        return _shifted_exp(parameter)
    if target == "gaussian":
        return _gaussian(parameter)
    if target == "gaussian-integral":
        return _gaussian_integral(parameter)
    if target == "constant":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")


def scaled_bessel_i(z: float) -> np.ndarray:
    """e^{-z} I_k(z) for k = 0, 1, …, n, by Miller's backward recurrence.

    The ratios r_k = I_k/I_{k-1} obey r_k = 1/(2k/z + r_{k+1}).  Started
    from r_{n+1} = 0 at n = ⌈√(200z)⌉ + 32, where I_n/I_0 < e^{-100}, they
    are exact to rounding wherever I_k is representable next to I_0.  Their
    running products give I_k/I_0, and e^z = I_0 + 2Σ_{k≥1} I_k normalizes
    them.
    """
    if z < np.finfo(float).tiny:
        return np.ones(1)
    n = math.ceil(math.sqrt(200.0 * z)) + 32
    ratios = np.empty(n + 1)
    ratios[0] = 1.0
    r = 0.0
    for k in range(n, 0, -1):
        r = 1.0 / (2.0 * k / z + r)
        ratios[k] = r
    relative = np.cumprod(ratios)
    return relative / (1.0 + 2.0 * relative[1:].sum())


def _tail_sums(a: np.ndarray) -> np.ndarray:
    """Σ_{i≥j} a_i for every j."""
    return np.cumsum(a[::-1])[::-1]


def chebyshev_series(target: str, parameter: float) -> np.ndarray:
    """The target's Chebyshev coefficients, until they underflow.

    Every coefficient has the sign of T_k(x*) and f(x*) = 1, so the
    magnitudes sum to 1 up to rounding.
    """
    if target == "constant":
        return np.ones(1)
    z = parameter if target == "exp-shifted" else parameter / 2.0
    v = scaled_bessel_i(z)
    if target == "gaussian-integral" and v.size > 1:
        # Σ_{i>k} (i-k) v_i = Σ_{j>k} Σ_{i≥j} v_i: sums of positive terms
        v = 2.0 * np.append(_tail_sums(_tail_sums(v))[1:], 0.0) / z
    magnitudes = 2.0 * v
    magnitudes[0] = v[0]
    if target == "exp-shifted":
        return magnitudes
    series = np.zeros(2 * v.size - 1)
    series[::2] = magnitudes
    series[2::4] *= -1.0
    return series


def _build(target: str, parameter: float, eps: float) -> ApproxPolynomial:
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if parameter < 0:
        raise ValueError("parameter must be nonnegative")
    f = target_function(target, parameter)
    series = chebyshev_series(target, parameter)
    # rounding allowance, 8 ulps of 1 per coefficient: how far the computed
    # tail may sit below the sup error of the cut series.  Each coefficient
    # carries the rounding of the recurrence, the running product and the
    # normalization, and the tail adds up as many coefficients
    allowance = 8.0 * series.size * np.finfo(float).eps
    tails = 1.0 - np.cumsum(np.abs(series))
    meets = np.flatnonzero(tails + allowance <= eps)
    if meets.size == 0:
        raise ValueError(f"eps = {eps:g} is below the rounding allowance "
                         f"{allowance:.1e} of the {target!r} series")
    degree = int(meets[0])
    poly = ApproxPolynomial(Chebyshev(series[:degree + 1]), target,
                            float(parameter), float(eps),
                            max(float(tails[degree]), 0.0))
    sampled = certify_sup_error(f, poly, degree)
    if sampled > poly.achieved_error + allowance:
        raise RuntimeError(f"sampled error {sampled:.3e} exceeds the "
                           f"certified {poly.achieved_error:.3e}")
    return poly


def approx_exp_shifted(T: float, eps: float) -> ApproxPolynomial:
    """Certified approximant of e^{-T(1-x)}; degree O(sqrt(max(T, L)·L))."""
    return _build("exp-shifted", T, eps)


def approx_gaussian(beta: float, eps: float) -> ApproxPolynomial:
    """Certified even approximant of e^{-beta x^2}."""
    return _build("gaussian", beta, eps)


def approx_gaussian_integral(beta: float, eps: float) -> ApproxPolynomial:
    """Certified even approximant of ∫₀¹ e^{-beta τ x²} dτ."""
    return _build("gaussian-integral", beta, eps)


@dataclass
class DegreeScan:
    """Minimal certified degrees across a parameter grid plus a power-law fit."""

    target: str
    eps: float
    parameters: np.ndarray
    degrees: np.ndarray
    fitted_exponent: float

    def rows(self):
        return list(zip(self.parameters.tolist(), self.degrees.tolist()))


def certified_degree_scan(target: str, parameters, eps: float) -> DegreeScan:
    """Minimal certified degree against a parameter grid, with a log-log fit.

    The grid needs at least four values spanning at least two decades so the
    fitted exponent is meaningful; the sqrt law predicts an exponent of 0.5
    for the exponential and gaussian targets.
    """
    params = np.asarray(sorted(float(p) for p in parameters))
    if params.size < 4:
        raise ValueError("degree scan needs at least 4 parameter values")
    if not np.all(np.isfinite(params)):
        raise ValueError("degree scan grid values must be finite")
    # "about two decades": the canonical grid {16, 64, 256, 1024} spans 64x
    if params[0] <= 0 or params[-1] / params[0] < 50.0:
        raise ValueError("degree scan grid must span roughly two decades")
    degrees = np.array([_build(target, p, eps).degree() for p in params])
    if np.all(degrees == 0):
        exponent = 0.0
    else:
        exponent = float(np.polyfit(np.log(params),
                                    np.log(np.maximum(degrees, 1)), 1)[0])
    return DegreeScan(target, float(eps), params, degrees, exponent)
