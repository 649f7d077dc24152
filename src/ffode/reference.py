"""Exact/high-accuracy classical reference for every solver.

Implements the Duhamel formula u(T) = e^{AT} u(0) + ∫₀ᵀ e^{A(T-s)} b(s) ds
through eigendecomposition with closed-form per-eigenvalue kernels.
``exp_integral`` is the one Duhamel kernel: the eigen-oracle solver's
factors f and f+ig are it over T or C(α,β,T) (``kernel_C``), and
``poly_approx``'s gaussian-integral target evaluates it too.  The solvers
are tested against ``solve_reference``, which builds no encoding or
approximant; the solvers do import ``exp_integral`` and ``kernel_C``, so an
error in either would reach both sides.

The hyperbolic PDE kinds have a reference of their own,
``second_order_problem``: the u block of u'' = −B²u + iB·b solved mode by
mode.  It builds each per-axis stencil from its finite-difference formula,
takes its eigenbasis from ``eigh`` and each mode's eigenvalue from its
Rayleigh quotient in difference form (``_modes``), and applies the tensor
eigenbasis one axis at a time (O(d·n³ + d·N·n)).  It shares none of these
with the solver: ``pde``'s stencil table, the FFT, the closed-form spectra,
the lift's mixer, ``FourierBasis`` and the fast inversion of the initial
velocity; u0, w0 and b are read from the ``PdeSpec``.  A wrong root eigenvalue that passes the
lifted cross-validation therefore shows up in ``error_vs_reference``.

The reference factorizes each coefficient once per process: ``_modes`` of a
stencil and ``_diagonalize`` of a dense coefficient are kept in ``_FACTORS``,
a ``memo.Memo`` keyed on the array's shape, dtype and the SHA-256 digest of
its bytes (``_diagonalize`` also on ``TOL.normality``, which picks ``eigh``
or ``eig``).  An entry holds read-only measurements: the eigenpairs, cond
and vinv or None.  The ill-conditioned warning and every check of
``solve_reference`` run on every call.  Entries are bounded by their bytes,
not their count: at most 256 MiB of arrays are kept, least recently used
evicted first, and an entry larger than that (a dense N = 4096 coefficient
holds 512 MiB) is computed and not kept.  Threads that miss one key
together wait on the one lock ``Memo`` takes per key, so they factorize it
once.  So the repeats within a solve (the equal axes of a wave or
Klein-Gordon stencil, u0 and w0 of a witness pair), and every point of a CLI
sweep, which redraws the same A and rebuilds the same stencils, factorize
once.  The 12-node Gauss-Legendre rule is computed on its first use and kept
in ``_FACTORS`` too.  Only the reference's own calls fill the cache, and they
share nothing with the solvers' eigensystems (``exact_dilation`` calls
``hermitian_eigh`` itself, uncached), so the reference stays independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import TOL
from .linalg import (EigenSystem, as_square, as_vector, hermitian_eigh,
                     matrix_exponential)
from .memo import Memo, array_key

if TYPE_CHECKING:
    from .pde import PdeSpec

_GAUSS_ORDER = 12  # Gauss-Legendre nodes per panel of the reference quadrature

#: the reference's own factorizations, ``_modes`` and ``_diagonalize``, by
#: the values factorized, and the Gauss-Legendre rule; at most 256 MiB of
#: arrays are kept
_FACTORS = Memo(256 * 2 ** 20)


#: entries (rows × row width) of one batch of source rows: a batched source
#: call, the Riemann sum and the reference quadrature hold one batch at a
#: time, so a batch's temporaries stay near 2¹⁵ · 16 B = 512 KiB each
_BATCH_ENTRIES = 2 ** 15


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


@_FACTORS.cached(key=lambda a: (array_key(a), TOL.normality))
def _diagonalize(a: np.ndarray):
    """(w, v, vinv, cond) with a = v diag(w) vinv, read-only and measured
    once per value of a (and of ``TOL.normality``, which picks the route).

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


@_FACTORS.cached(key=lambda: _GAUSS_ORDER)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The _GAUSS_ORDER Gauss-Legendre nodes and weights on [-1, 1],
    computed on first use and read-only."""
    return np.polynomial.legendre.leggauss(_GAUSS_ORDER)


def _gauss_panels(g, T: float, width: int):
    """Composite Gauss-Legendre quadrature of a vector-valued g over [0, T],
    with panel doubling until the refinement stalls below TOL.quadrature.

    ``g(s)`` takes a read-only (m, 1) column of nodes and returns one row
    g(s_i) per node.  A refinement level evaluates its nodes in batches of
    whole panels, at most ``batch_rows(width)`` rows but one panel at least,
    where ``width`` counts the entries g holds per node.  The weighted rows
    are summed panel by panel, then over the panels.
    """
    nodes, weights = _gauss_rule()
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


# ---------------------------------------------------------------------------
# second order in time: the u block of a lifted hyperbolic PDE

#: periodic central differences, offset -> weight times h^-order (h = 1/n),
#: written out from their formulas here and shared with no solver
_SECOND_DIFFERENCE = {-1: 1.0, 0: -2.0, 1: 1.0}


def _periodic_difference(n: int, taps: dict[int, float],
                         order: int) -> np.ndarray:
    """The real n×n periodic stencil with (S x)_i = Σ_o taps[o]·x_{i+o}/h^order;
    taps that wrap onto the same entry add."""
    mat = np.zeros((n, n))
    rows = np.arange(n)
    for offset, weight in taps.items():
        np.add.at(mat, (rows, (rows + offset) % n), weight * float(n) ** order)
    return mat


@dataclass
class SecondOrderProblem:
    """u'' = −B²u + iB·b(t) on [0, T] with u(0) = u0 and u'(0) = w0.

    B² = shift·I + Σ_j S_j^power, where ``stencils[j]`` is a real symmetric
    n×n matrix acting along axis j of the row-major n^d grid, and B ≥ 0 is
    its square root.  This is the u block of the first-order system
    (u, v)' = [[0, iB], [iB, 0]](u, v) + (0, b) with iB·v(0) = w0.
    ``inhomogeneous`` is None, a constant (N,) vector or a
    :class:`SampledSource`.
    """

    shift: float
    stencils: list[np.ndarray]
    u0: np.ndarray
    w0: np.ndarray
    horizon: float
    inhomogeneous: np.ndarray | SampledSource | None = None
    power: int = 1


def second_order_problem(spec: PdeSpec) -> SecondOrderProblem:
    """The u block of a hyperbolic ``pde.PdeSpec``, from its finite-difference
    formula: shift = −c, and S_j = −a_j·D2 on each axis for wave and
    Klein-Gordon.  The beam's periodic D4 = (1, −4, 6, −4, 1)/h⁴ is D2², so
    it is given as S = D2 with power 2, whose modes' −n²‖Δv‖² squares to μ
    without D4's cancellation.  u0, w0 and b are sampled from the spec."""
    d2 = _periodic_difference(spec.n, _SECOND_DIFFERENCE, 2)
    if spec.kind == "beam":
        stencils, power = [d2], 2
    elif spec.kind in ("wave", "klein-gordon"):
        stencils, power = [-a * d2 for a in spec.a], 1
    else:
        raise ValueError(f"{spec.kind} is not second order in time")
    return SecondOrderProblem(-spec.c, stencils, spec.u0_vector(),
                              spec.w0_vector(), spec.T, spec._source(), power)


def _along_axes(mats, x: np.ndarray) -> np.ndarray:
    """mats[j] applied along axis j of the trailing len(mats) axes of x."""
    lead = x.ndim - len(mats)
    for j, mat in enumerate(mats):
        x = np.moveaxis(np.tensordot(mat, x, axes=(1, lead + j)), 0, lead + j)
    return x


@_FACTORS.cached(key=array_key)
def _modes(stencil: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(λ, V): the eigenbasis V of the real symmetric S by ``eigh`` and each
    λ = vᵀSv = Σ_i r_i v_i² − ½ Σ_ik S_ik (v_i − v_k)², r the row sums of S.
    A periodic difference has r = 0, so S = −a·D2 = a·n²ΔᵀΔ gives the sum of
    squares a·n²‖Δv‖², accurate relative to λ, where ``eigh``'s eigenvalues
    carry an absolute error ~1e-16·‖S‖ onto the low modes.  Both are
    read-only and measured once per value of S."""
    _, v = np.linalg.eigh(stencil)
    i, k = np.nonzero(stencil)
    return (stencil.sum(axis=1) @ v ** 2
            - 0.5 * stencil[i, k] @ (v[i] - v[k]) ** 2), v


def _solve_second_order(p: SecondOrderProblem) -> np.ndarray:
    """u(T) mode by mode on the tensor eigenbasis of the per-axis stencils.

    Each S_j gives its modes by ``_modes`` and the basis is applied one axis
    at a time, at O(d·n³ + d·N·n) cost.  With μ the eigenvalue of B² and
    s = √μ, each mode evolves as
    û(T) = cos(sT)·û0 + (sin(sT)/s)·ŵ0 + ∫₀ᵀ i·sin(s(T−τ))·b̂(τ) dτ,
    where the integral is i·2sin²(sT/2)/s·b̂ for a constant b and composite
    Gauss-Legendre quadrature for a sampled one.  A mode with
    |μ| ≤ TOL.zero·max(1, max|μ|) is taken as s = 0, and both kernels are
    evaluated through ``np.sinc``, so s = 0 divides by nothing.
    """
    d = len(p.stencils)
    n = p.stencils[0].shape[0]
    shape = (n,) * d
    pairs = [_modes(stencil) for stencil in p.stencils]
    mu = p.shift + sum(
        lam.reshape([n if k == j else 1 for k in range(d)]) ** p.power
        for j, (lam, _) in enumerate(pairs))
    floor = TOL.zero * max(1.0, float(np.max(np.abs(mu))))
    if np.any(mu < -floor):
        raise ValueError(f"B² has a negative eigenvalue {np.min(mu):.3e}")
    s = np.where(mu <= floor, 0.0, np.sqrt(np.maximum(mu, 0.0)))
    to_modes = [v.T for _, v in pairs]
    T = p.horizon

    def modal(x):
        return _along_axes(to_modes, np.asarray(x, dtype=complex).reshape(
            (-1,) + shape))

    u_hat = (np.cos(s * T) * modal(p.u0)[0]
             + T * np.sinc(s * T / np.pi) * modal(p.w0)[0])
    src = p.inhomogeneous
    if isinstance(src, SampledSource):
        def g(t):
            kernel = 1j * np.sin(s * (T - t.reshape((-1,) + (1,) * d)))
            return (kernel * modal(source_rows(src, t, n ** d))).reshape(
                t.shape[0], -1)

        u_hat = u_hat + _gauss_panels(g, T, n ** d).reshape(shape)
    elif src is not None:
        # 2sin²(sT/2)/s = (sT²/2)·sinc²(sT/2π)
        u_hat = u_hat + (1j * s * T * T / 2.0 * np.sinc(s * T / (2 * np.pi)) ** 2
                         * modal(src)[0])
    return _along_axes([v for _, v in pairs], u_hat).ravel()


def solve_reference(p: OdeProblem | SecondOrderProblem) -> np.ndarray:
    """u(T) by the Duhamel formula, to ~1e-10 relative accuracy.

    A :class:`SecondOrderProblem` is solved mode by mode on its per-axis
    eigenbases (``_solve_second_order``).  Diagonalizable coefficients use closed-form per-eigenvalue kernels
    (constant b) or adaptive Gauss-Legendre quadrature (sampled b, called
    once per batch of whole panels of nodes), moving into the eigenbasis by
    an :class:`EigenSystem`'s ``apply_adjoint`` or the dense ``_diagonalize``
    factors; a badly conditioned eigenbasis falls back to quadrature with a
    warning, with one ``matrix_exponential`` propagator per node of a batch,
    all taken as one stack.
    """
    if isinstance(p, SecondOrderProblem):
        return _solve_second_order(p)
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
    out = matrix_exponential(a, T) @ p.u0
    if src is not None:
        drive = src if isinstance(src, SampledSource) else (lambda s: src)

        def g(s):
            # one propagator e^{A(T-s_i)} per node: n² entries per row
            props = matrix_exponential(a * (T - s)[:, :, None])
            return (props @ source_rows(drive, s, p.dim)[:, :, None])[:, :, 0]

        out = out + _gauss_panels(g, T, p.dim ** 2)
    return out
