"""Exact/high-accuracy classical reference for every solver.

Implements the Duhamel formula u(T) = e^{AT} u(0) + ∫₀ᵀ e^{A(T-s)} b(s) ds
through eigendecomposition with closed-form per-eigenvalue kernels, plus the
diagonal kernels f(λ,t), C(α,β,T) and the complex split f+ig used by the
eigen-oracle solvers.  The solvers are tested against ``solve_reference``,
which builds no encoding or approximant; the solvers do import its kernels,
so a kernel error would reach both sides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .config import TOL
from .linalg import EigenSystem, as_square, as_vector, hermitian_eigh

_GAUSS_ORDER = 12  # Gauss-Legendre nodes per panel of the reference quadrature


#: entries (rows × row width) of one batch of source rows: a batched source
#: call, the Riemann sum and the reference quadrature hold one batch at a time
_BATCH_ENTRIES = 2 ** 20


@dataclass
class SampledSource:
    """A time-dependent inhomogeneous term given as a batched callback.

    ``func(t)`` takes a read-only (M, 1) column of times and returns one row
    b(t_k) per time: an array that broadcasts to (M, dim), so a constant
    source may return its (dim,) vector.  ``derivative(t)`` returns db/dt
    the same way and is needed by quadrature error bounds.  Callbacks must
    be reentrant.
    """

    func: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(t), dtype=complex)


def batch_rows(width: int) -> int:
    """Rows of one batch whose rows hold ``width`` entries each: at most
    _BATCH_ENTRIES entries, and at least one row."""
    return max(1, _BATCH_ENTRIES // width)


def time_batches(times: np.ndarray, width: int):
    """The 1-d ``times`` as consecutive read-only (m, 1) columns of at most
    ``batch_rows(width)`` rows."""
    column = times.reshape(-1, 1)
    column.setflags(write=False)
    rows = batch_rows(width)
    for start in range(0, column.shape[0], rows):
        yield column[start:start + rows]


def source_rows(f, t: np.ndarray, dim: int) -> np.ndarray:
    """f at the (m, 1) time column t, one call, as an (m, dim) array of rows
    (read-only when f's result is broadcast)."""
    return np.broadcast_to(np.asarray(f(t), dtype=complex), (t.shape[0], dim))


@dataclass
class OdeProblem:
    """du/dt = A u + b(t) on [0, T] with u(0) = u0.

    ``coefficient`` is a dense matrix or an :class:`EigenSystem`;
    ``inhomogeneous`` is None, a constant vector, or a :class:`SampledSource`.
    A constant b whose entries all lie below ``TOL.zero`` is stored as None,
    so ``inhomogeneous is None`` is the one test for a homogeneous problem.
    """

    coefficient: np.ndarray | EigenSystem
    u0: np.ndarray
    horizon: float
    inhomogeneous: np.ndarray | SampledSource | None = None

    def __post_init__(self):
        if not isinstance(self.coefficient, EigenSystem):
            self.coefficient = as_square(self.coefficient)
        self.u0 = as_vector(self.u0)
        n = self.dim
        if self.u0.size != n:
            raise ValueError("u0 dimension does not match the coefficient")
        if self.horizon <= 0:
            raise ValueError("horizon T must be positive")
        b = self.inhomogeneous
        if b is not None and not isinstance(b, SampledSource):
            b = as_vector(b)
            if b.size != n:
                raise ValueError("b dimension does not match the coefficient")
            self.inhomogeneous = None if np.all(np.abs(b) < TOL.zero) else b

    @property
    def dim(self) -> int:
        if isinstance(self.coefficient, EigenSystem):
            return self.coefficient.dim
        return self.coefficient.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if isinstance(self.coefficient, EigenSystem):
            return self.coefficient.matrix
        return self.coefficient


def exp_integral(lam, t: float):
    """∫₀ᵗ e^{λ(t-s)} ds, elementwise over λ: expm1(λt)/λ, which unlike
    (e^{λt}-1)/λ does not cancel at small |λt|, or its series below it."""
    lam = np.asarray(lam)
    z = lam * t
    small = np.abs(z) < TOL.kernel_series_switch
    return np.where(small, t * (1.0 + z / 2.0 + z * z / 6.0),
                    np.expm1(z) / np.where(small, 1.0, lam))[()]


def kernel_f(lam, t: float):
    """f(λ,t) = (1/t)∫₀ᵗ e^{λ(t-s)} ds, elementwise over real λ ≤ 0: 1 at
    λ=0, in (0,1]."""
    if t <= 0:
        raise ValueError("t must be positive")
    lam = np.asarray(lam, dtype=float)
    if np.any(lam > TOL.zero):
        raise ValueError("kernel_f requires a nonpositive eigenvalue")
    lam = np.minimum(lam, 0.0)
    return np.where(lam == 0.0, 1.0, exp_integral(lam, t) / t)[()]


def kernel_C(alpha: float, beta: float, T: float) -> float:
    """Normalization C(α,β,T): T, 2/β, or (e^{αT}-1)/α by case, the last as
    ``exp_integral``, which does not cancel at small |αT|."""
    if T <= 0:
        raise ValueError("T must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if abs(alpha) <= TOL.zero:
        return T if beta <= TOL.zero else 2.0 / beta
    return float(exp_integral(alpha, T))


def kernel_fg_complex(lam, T: float, C: float):
    """Real/imaginary split (f, g) of C⁻¹ ∫₀ᵀ e^{λ(T-s)} ds, elementwise over
    λ; every magnitude must be ≤ 1.

    A magnitude above 1 signals that the (α, β) pair used to compute C is
    inconsistent with λ, and raises.
    """
    if T <= 0 or C <= 0:
        raise ValueError("T and C must be positive")
    val = exp_integral(np.asarray(lam, dtype=complex), T) / C
    mag = np.max(np.abs(val))
    if mag > 1.0 + TOL.zero:
        raise ValueError(
            f"|f+ig| = {mag:.6g} > 1: normalization C is inconsistent "
            "with the eigenvalue")
    return np.real(val)[()], np.imag(val)[()]


def _diagonalize(a: np.ndarray):
    """(w, v, vinv, cond) with a = v diag(w) vinv.

    A Hermitian or skew-Hermitian a is diagonalized by ``eigh``
    (``linalg.hermitian_eigh``), whose v is unitary, so vinv = v† and
    cond = 1.  Any other a goes through ``eig`` with a conditioning check;
    vinv is None when cond(v) > 1e8.
    """
    pair = hermitian_eigh(a)
    if pair is not None:
        w, v = pair
        return w, v, v.conj().T, 1.0
    w, v = np.linalg.eig(a)
    cond = np.linalg.cond(v)
    return w, v, (None if cond > 1e8 else np.linalg.inv(v)), cond


def _gauss_panels(g, T: float, width: int):
    """Composite Gauss-Legendre quadrature of a vector-valued g over [0, T],
    with panel doubling until the refinement stalls below TOL.quadrature.

    ``g(s)`` takes a read-only (m, 1) column of nodes and returns one row
    g(s_i) per node.  A refinement level evaluates its nodes in batches of
    whole panels, at most ``batch_rows(width)`` rows but one panel at least,
    where ``width`` counts the entries g holds per node.  The weighted rows
    are summed panel by panel, then over the panels.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    per_batch = max(1, batch_rows(width) // _GAUSS_ORDER)
    prev = None
    panels = 1
    while panels <= 2 ** 14:
        total = 0.0
        step = T / panels
        offsets = ((nodes + 1.0) * step / 2.0)[:, None]
        w = (weights * step / 2.0)[:, None, None]
        for first in range(0, panels, per_batch):
            left = np.arange(first, min(panels, first + per_batch)) * step
            # node-major: node i of every panel, then node i + 1
            s = (left + offsets).reshape(-1, 1)
            s.setflags(write=False)
            rows = g(s)
            terms = w * rows.reshape(_GAUSS_ORDER, left.size, -1)
            total = total + terms.sum(axis=0).sum(axis=0)
        if prev is not None and np.linalg.norm(total - prev) < TOL.quadrature:
            return total
        prev = total
        panels *= 2
    warnings.warn("reference quadrature hit the panel cap before reaching "
                  f"{TOL.quadrature}; returning the finest refinement")
    return prev


def solve_reference(p: OdeProblem) -> np.ndarray:
    """u(T) by the Duhamel formula, to ~1e-10 relative accuracy.

    Diagonalizable coefficients use closed-form per-eigenvalue kernels
    (constant b) or adaptive Gauss-Legendre quadrature (sampled b, called
    once per batch of whole panels of nodes), moving into the eigenbasis by
    an :class:`EigenSystem`'s ``apply_adjoint`` or the dense ``_diagonalize``
    factors; a badly conditioned eigenbasis falls back to expm-based
    quadrature with a warning, with one propagator per node of a batch.
    """
    T = p.horizon
    src = p.inhomogeneous
    if isinstance(p.coefficient, EigenSystem):
        es = p.coefficient
        w, to_eigen, from_eigen = es.eigenvalues, es.apply_adjoint, es.apply
    else:
        w, v, vinv, cond = _diagonalize(p.coefficient)
        to_eigen = None if vinv is None else partial(np.matmul, vinv)
        from_eigen = partial(np.matmul, v)

    if to_eigen is not None:
        out = from_eigen(np.exp(w * T) * to_eigen(p.u0))
        if isinstance(src, SampledSource):
            def g(s):
                rows = source_rows(src, s, p.dim)
                phases = np.exp(np.outer(w, T - s[:, 0]))
                return from_eigen(phases * to_eigen(rows.T)).T

            out = out + _gauss_panels(g, T, p.dim)
        elif src is not None:
            out = out + from_eigen(exp_integral(w, T) * to_eigen(src))
        return out

    # non-diagonalizable (or numerically nearly so): expm path
    warnings.warn("coefficient eigenbasis is ill-conditioned "
                  f"(cond={cond:.2e}); falling back to expm quadrature")
    a = p.matrix
    out = sla.expm(a * T) @ p.u0
    if src is not None:
        drive = src if isinstance(src, SampledSource) else (lambda s: src)

        def g(s):
            # one propagator e^{A(T-s_i)} per node: n² entries per row
            props = sla.expm(a * (T - s)[:, :, None])
            return (props @ source_rows(drive, s, p.dim)[:, :, None])[:, :, 0]

        out = out + _gauss_panels(g, T, p.dim ** 2)
    return out
