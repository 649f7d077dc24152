"""Spectrally discretized PDE benchmark problems on the periodic unit box.

Circulant central-difference stencils (Laplacian, divergence, third and
fourth derivative), their closed-form Fourier eigensystems, the hyperbolic
lifting to a first-order system with coefficient [[0, iB], [iB, 0]], fast
inversion for the lifted initial data, and ``solve_pde``, which builds the
first-order problem and its source once and hands it to
``eigen_solvers.solve_eigen``, the router that picks the eigen-oracle solver.
The problem is all the solver needs: its coefficient is the cross-validated
:class:`EigenSystem` (``eigensystem_of``, or the lifted one of
``lift_hyperbolic``).  Hyperbolic kinds are then post-selected on the u block
and compared against ``reference.second_order_problem``, the per-axis modal
reference, which rebuilds the stencils from their formulas and reads u0, w0
and b from the ``PdeSpec``.

All operators act on n grid points per axis of [0,1]^d with spacing h = 1/n;
the DFT convention is F[j,k] = ω^{jk}/√n with ω = e^{2πi/n}, whose columns
are the stencils' eigenvectors.  The eigensystems hold F^{⊗d} (and the lifted
basis) as a ``linalg.FourierBasis`` applied with ``numpy.fft``, so the
parabolic path builds no dense N×N matrix.  Their O(N) cross-validation
checks the closed-form eigenvalues against the FFT of each 1-d stencil's
first column, or, lifted, against (i·s, −i·s), as each mode's 2×2 residual
p·I + q·X is normal, and probes every axis's stencil against one FFT pair.
``lift_hyperbolic`` builds its λ from the same s, so there the lifted
residual is exactly 0 and guards only direct callers; the lift itself is
guarded by the axis probe and by the independent modal reference.
``solve_pde`` builds no dense N×N or 2N×2N matrix; ``dense_operator``,
``hyperbolic_sqrt_operator`` and ``dft_tensor`` remain for the dense forms.

``_axis_operators`` is the one description of each kind's operator: a shift
and, per axis, a stencil or its closed-form spectrum.  The eigenvalues, the
root spectrum of the hyperbolic lift, the dense operator and both
cross-validations are derived from it, so a new kind is one entry there plus
its closed forms.

The eigensystem depends only on the operator, (kind, d, n, a, a′, c), not on
T, ε or the samplers.  ``_operator_validation`` builds it, with the stencils
of ``_axis_stencils``, and measures its axis probe and residual once per
operator and process, kept in ``_MEMO`` under those values as read from the
spec at call time: measurements, not verdicts.  ``eigensystem_of`` and
``lift_hyperbolic`` compare them with TOL.reconstruction on every call, so a
T×ε sweep over one operator builds and probes its stencils once, and a
tightened tolerance fails the next solve.  ``_MEMO``, a ``memo.Memo``, also
keeps each (n, d) grid.  It is bounded by bytes, not entries: 256 MiB, least
recently used evicted first; an entry over that (a lifted operator holds 40 B
per grid point, so from N ≈ 6.7M on) is measured, checked and not kept.
Threads that miss one entry together wait on the lock ``Memo`` takes per key.
``PdeSpec`` calls each sampler on the whole grid: once per field, and for the
source once at t = 0, whose result's shape declares whether b depends on
time, then once per batch of times if it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import TOL
from .linalg import MAX_PHASE_DISTANCE, EigenSystem, FourierBasis, as_vector
from .eigen_solvers import solve_eigen
from .memo import Memo
from .qsvt_solvers import SolveReport, post_selected_report
from .reference import (OdeProblem, SampledSource, second_order_problem,
                        solve_reference)

PARABOLIC_KINDS = ("transport", "heat", "advection-diffusion", "airy",
                   "generic-parabolic")
HYPERBOLIC_KINDS = ("wave", "klein-gordon", "beam")
KINDS = PARABOLIC_KINDS + HYPERBOLIC_KINDS


# ---------------------------------------------------------------------------
# stencils and closed-form spectra

def _circulant(n: int, taps: dict[int, float], order: int) -> np.ndarray:
    """The n×n circulant whose first column carries taps[o]/h^order at row
    o mod n (h = 1/n); taps that wrap onto the same row add.  A stencil
    reaching r points to each side needs n ≥ r + 2."""
    reach = max(abs(offset) for offset in taps)
    if n < reach + 2:
        raise ValueError(f"the order-{order} stencil needs n ≥ {reach + 2}")
    col = np.zeros(n)
    for offset, weight in taps.items():
        col[offset % n] += weight
    # C[i, j] = c[(i - j) mod n]: row i is the length-n window of the
    # reversed, doubled column that starts at n - 1 - i
    c = (col * n ** order).astype(complex)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([c, c])[::-1], n)
    return windows[n - 1::-1].copy()


def build_dh(n: int) -> np.ndarray:
    """1-d discrete Laplacian: (-2, 1, ..., 1)/h² circulant, h = 1/n."""
    return _circulant(n, {0: -2.0, 1: 1.0, -1: 1.0}, 2)


def build_vh(n: int) -> np.ndarray:
    """1-d central-difference divergence: (0, -1, ..., 1)/(2h) circulant."""
    return _circulant(n, {1: -0.5, -1: 0.5}, 1)


def build_dh3(n: int) -> np.ndarray:
    """1-d third-derivative stencil (∓1/2, ±1 at offsets ±2, ±1)/h³.

    At n = 4 the ±2 bands wrap onto each other and cancel; the closed-form
    eigenvalues remain valid there because sin(4kπ/n) vanishes identically.
    """
    return _circulant(n, {1: 1.0, 2: -0.5, -1: -1.0, -2: 0.5}, 3)


def build_dh4(n: int) -> np.ndarray:
    """1-d fourth-derivative stencil (1, -4, 6, -4, 1)/h⁴, periodic wrap."""
    return _circulant(n, {0: 6.0, 1: -4.0, 2: 1.0, -1: -4.0, -2: 1.0}, 4)


def dh_eigenvalues(n: int) -> np.ndarray:
    k = np.arange(n)
    return -4.0 * n ** 2 * np.sin(k * np.pi / n) ** 2


def vh_eigenvalues(n: int) -> np.ndarray:
    k = np.arange(n)
    return 1j * n * np.sin(2.0 * k * np.pi / n)


def dh3_eigenvalues(n: int) -> np.ndarray:
    k = np.arange(n)
    return -4j * n ** 3 * np.sin(2.0 * k * np.pi / n) * np.sin(k * np.pi / n) ** 2


def dh4_eigenvalues(n: int) -> np.ndarray:
    k = np.arange(n)
    return (16.0 * n ** 4 * np.sin(k * np.pi / n) ** 4).astype(complex)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT with entries ω^{jk}/√n, ω = e^{2πi/n}."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


def dft_tensor(n: int, d: int) -> np.ndarray:
    f = dft_matrix(n)
    out = f
    for _ in range(d - 1):
        out = np.kron(out, f)
    return out


# ---------------------------------------------------------------------------
# benchmark problem description

#: the sampling grids and the operators' measured eigensystems, by value;
#: at most 256 MiB of arrays are kept
_MEMO = Memo(256 * 2 ** 20)


@_MEMO.cached(key=lambda n, d: (n, d))
def _grid(n: int, d: int) -> np.ndarray:
    axes = [np.arange(n) / n] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class PdeSpec:
    """A periodic PDE benchmark instance on [0,1]^d with n points per axis.

    Each sampler is called on every grid point at once: x is the read-only
    (d, N) array of points in [0,1)^d (x[j] is coordinate j).  ``u0`` and
    ``w0`` return (N,), once per field.  The source ``b`` takes (x, t) with
    t a read-only (M, 1) column of times and returns (M, N), one row per
    time, once per batch of times.  A result need only broadcast to its
    shape, so a constant sampler may return a scalar.

    The shape of b's result declares its time dependence: a result with no
    time axis (a scalar or an (N,) field) declares b constant in time, and
    the solvers take the constant-source route; any other result, even one
    whose rows agree, is sampled on the Riemann path.  ``b_dt`` is the time
    derivative of ``b``, needed for quadrature error bounds on that path.
    T, a, a′, c and the square of the mass must be finite.
    """

    kind: str
    d: int
    n: int
    T: float
    a: np.ndarray | None = None        # diffusion coefficients, length d
    a_prime: np.ndarray | None = None  # advection coefficients, length d
    c: float = 0.0                     # zeroth-order coefficient, c ≤ 0
    mass: float = 0.0                  # Klein-Gordon mass
    u0: Callable[[np.ndarray], np.ndarray] | None = None
    w0: Callable[[np.ndarray], np.ndarray] | None = None
    b: Callable[[np.ndarray, float], np.ndarray] | None = None
    b_dt: Callable[[np.ndarray, float], np.ndarray] | None = None
    #: (w0, n, d, samples): w0 sampled on first use, reused while the
    #: sampler and the grid it was sampled on stay the spec's
    _w0_samples: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown PDE kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        min_n = 4 if self.kind in ("airy", "beam") else 3
        if self.n < min_n:
            raise ValueError(f"{self.kind} needs n ≥ {min_n}")
        if self.kind in ("airy", "beam") and self.d != 1:
            raise ValueError(f"{self.kind} is one-dimensional")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if self.a is None:
            default = 1.0 if self.kind not in ("transport",) else 0.0
            self.a = np.full(self.d, default)
        self.a = np.asarray(self.a, dtype=float).ravel()
        if self.a.size != self.d:
            raise ValueError("diffusion vector length must equal d")
        if np.any(self.a < 0):
            raise ValueError("diffusion coefficients must be nonnegative")
        if self.a_prime is None:
            fill = 1.0 if self.kind == "transport" else 0.0
            self.a_prime = np.full(self.d, fill)
        self.a_prime = np.asarray(self.a_prime, dtype=float).ravel()
        if self.a_prime.size != self.d:
            raise ValueError("advection vector length must equal d")
        for name in ("T", "a", "a_prime", "c", "mass"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.c > 0:
            raise ValueError("zeroth-order coefficient must be nonpositive")
        if self.kind == "klein-gordon":
            if self.mass <= 0:
                raise ValueError("klein-gordon needs a positive mass")
            if not math.isfinite(self.mass * self.mass):
                raise ValueError(f"mass must have a finite square, got "
                                 f"{self.mass}")
            self.c = -self.mass ** 2
        if self.kind in HYPERBOLIC_KINDS:
            if self.w0 is None:
                raise ValueError(f"{self.kind} needs the velocity sampler w0")
            if self.c == 0.0 and self.kind != "klein-gordon":
                total = np.sum(self.w0_vector())
                if abs(total) > 1e-10:
                    raise ValueError(
                        f"with c = 0 the initial velocity must be mean-zero "
                        f"(sum = {total:.3e})")

    @property
    def N(self) -> int:
        return self.n ** self.d

    def grid(self) -> np.ndarray:
        """All grid points j/n for j in [n]^d, row-major in j (k₀ major).

        Built once per (n, d) and shared read-only, kept in ``_MEMO``."""
        return _grid(self.n, self.d)

    def _sample(self, f, *t) -> np.ndarray:
        """f(x, *t) in one call on the read-only (d, N) grid array x, as a
        new complex array of the shape f returns."""
        return np.array(f(self.grid().T, *t), dtype=complex)

    def _sampled(self, f, *t) -> np.ndarray:
        """``_sample``, broadcast to a new array when f's result has
        another shape: (N,) without t, (M, N) for an (M, 1) column t of
        times."""
        shape = (t[0].shape[0], self.N) if t else (self.N,)
        sample = self._sample(f, *t)
        if sample.shape == shape:
            return sample
        return np.array(np.broadcast_to(sample, shape))

    def u0_vector(self) -> np.ndarray:
        if self.u0 is None:
            raise ValueError("no initial data sampler")
        return self._sampled(self.u0)

    def w0_vector(self) -> np.ndarray:
        if self.w0 is None:
            raise ValueError("no velocity sampler")
        cached = self._w0_samples
        if cached is None or cached[0] is not self.w0 or cached[1:3] != (
                self.n, self.d):
            cached = self._w0_samples = (self.w0, self.n, self.d,
                                         self._sampled(self.w0))
        return cached[3].copy()

    def b_vector(self, t: np.ndarray) -> np.ndarray:
        """b on the grid at each time of the (M, 1) column t, as (M, N)."""
        if self.b is None:
            raise ValueError("no source sampler")
        return self._sampled(self.b, t)

    def b_dt_vector(self, t: np.ndarray) -> np.ndarray:
        """db/dt on the grid at each time of the (M, 1) column t, as (M, N)."""
        if self.b_dt is None:
            raise ValueError("no source time-derivative sampler")
        return self._sampled(self.b_dt, t)

    def _source(self, lead: int = 0):
        """The source as an ``OdeProblem`` takes it, after ``lead`` zeros (a
        lifted u block): None, a constant vector, or a SampledSource whose
        rows are [0, b(t)].

        One call of b on the read-only (1, 1) column t = 0 decides: a result
        with fewer than two dimensions has no time axis, so b is constant
        and that call supplies it; any other result makes b sampled."""
        if self.b is None:
            return None
        t = np.zeros((1, 1))
        t.setflags(write=False)
        first = self._sample(self.b, t)
        if first.ndim < 2:
            return np.concatenate([np.zeros(lead, dtype=complex),
                                   np.broadcast_to(first, (self.N,))])

        def after_lead(sample):
            if not lead:
                return sample

            def rows(t):
                return np.concatenate(
                    [np.zeros((t.shape[0], lead), dtype=complex), sample(t)],
                    axis=1)
            return rows

        b_dt = None if self.b_dt is None else after_lead(self.b_dt_vector)
        return SampledSource(after_lead(self.b_vector), derivative=b_dt)


def _axis_operators(spec: PdeSpec, part: int) -> tuple[float, list]:
    """The one description of a kind's operator, shift·I + Σ_j S_j along axis
    j (A for parabolic kinds, B² for hyperbolic ones): the shift and each S_j
    as its n×n stencil (part 0) or its closed-form spectrum (part 1).  It and
    the helpers below read only kind, d, n, a, a′ and c."""
    def one_d(stencil, spectrum) -> np.ndarray:
        return (stencil, spectrum)[part](spec.n)
    if spec.kind == "airy":
        return spec.c, [-one_d(build_dh3, dh3_eigenvalues)]
    if spec.kind == "beam":
        return -spec.c, [one_d(build_dh4, dh4_eigenvalues)]
    dh = one_d(build_dh, dh_eigenvalues)
    if spec.kind in HYPERBOLIC_KINDS:
        return -spec.c, [-a * dh for a in spec.a]
    vh = one_d(build_vh, vh_eigenvalues)
    return spec.c, [a * dh + ap * vh for a, ap in zip(spec.a, spec.a_prime)]


def _axis_stencils(spec: PdeSpec) -> tuple[float, list]:
    """(shift, [(S_j, spectrum_j)]) of ``_axis_operators``: built once per
    operator by ``_operator_validation``, and by ``dense_operator``."""
    shift, stencils = _axis_operators(spec, 0)
    return shift, list(zip(stencils, _axis_operators(spec, 1)[1]))


def _on_axis(spec: PdeSpec, one_d: np.ndarray, axis: int) -> np.ndarray:
    """A 1-d spectrum along k-grid axis ``axis``, flattened k₀ major."""
    shape = [1] * spec.d
    shape[axis] = spec.n
    return np.broadcast_to(one_d.reshape(shape), (spec.n,) * spec.d).ravel()


def _on_grid(spec: PdeSpec, shift: float, spectra) -> np.ndarray:
    """shift + Σ_j spectra[j] along axis j, on the flattened k-grid."""
    return shift + sum(_on_axis(spec, one_d, j)
                       for j, one_d in enumerate(spectra))


def _spectrum(spec: PdeSpec) -> np.ndarray:
    """Closed-form eigenvalues of A (parabolic) or B² (hyperbolic)."""
    return _on_grid(spec, *_axis_operators(spec, 1))


def _root_spectrum(spec: PdeSpec) -> np.ndarray:
    """Eigenvalues of the Hermitian B = √(B²) of a hyperbolic kind:
    B² ≥ 0 by c ≤ 0."""
    return np.sqrt(_spectrum(spec).real)


def dense_operator(spec: PdeSpec) -> np.ndarray:
    """The dense first-order coefficient matrix, built from the stencils.

    Parabolic kinds give shift·I + Σ_j I ⊗ S_j ⊗ I of ``_axis_stencils``;
    hyperbolic kinds give the lifted 2N block matrix [[0, iB], [iB, 0]].
    """
    if spec.kind in PARABOLIC_KINDS:
        shift, stencils = _axis_stencils(spec)
        n, d = spec.n, spec.d
        mat = shift * np.eye(spec.N, dtype=complex)
        for j, (stencil, _) in enumerate(stencils):
            mat += np.kron(np.kron(np.eye(n ** j), stencil),
                           np.eye(n ** (d - 1 - j)))
        return mat
    b_op = hyperbolic_sqrt_operator(spec)
    zero = np.zeros_like(b_op)
    return np.block([[zero, 1j * b_op], [1j * b_op, zero]])


def hyperbolic_sqrt_operator(spec: PdeSpec) -> np.ndarray:
    """Hermitian B with B² = -(A_L^a + cI) (beam: B² = D_{h,4} - cI)."""
    if spec.kind not in HYPERBOLIC_KINDS:
        raise ValueError("square-root operator only exists for hyperbolic kinds")
    f = dft_tensor(spec.n, spec.d)
    return (f * _root_spectrum(spec)) @ f.conj().T


def _probe_axes(spec, stencils, basis: FourierBasis) -> tuple:
    """One seeded x and one FFT pair for all axes: U applied to the (N, d)
    stack of spectrum_j·U†x against each S_j applied along axis j of x.

    Returns (residual_j, scale_j) per axis: the relative residual
    ‖S_j x − U(spectrum_j·U†x)‖/‖x‖ and max(1, max|spectrum_j|), the rounding
    floor it is held to (``_Validation.checked``)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(spec.N) + 1j * rng.standard_normal(spec.N)
    symbols = [_on_axis(spec, sp, j) for j, (_, sp) in enumerate(stencils)]
    by_fft = basis.apply((np.stack(symbols) * basis.apply_adjoint(x)).T)
    measured = []
    for j, (stencil, spectrum) in enumerate(stencils):
        grid = x.reshape(spec.n ** j, spec.n, -1)
        # the last axis as one (N/n × n)·(n × n) GEMM, not N/n mat-vecs;
        # the others are already GEMMs of n × n by n × n^(d−1−j) blocks
        by_stencil = (grid[:, :, 0] @ stencil.T if j == spec.d - 1
                      else stencil @ grid).ravel()
        err = np.linalg.norm(by_stencil - by_fft[:, j]) / np.linalg.norm(x)
        measured.append((float(err),
                         max(1.0, float(np.max(np.abs(spectrum))))))
    return tuple(measured)


class _Validation(NamedTuple):
    """The measurements that validate an operator's Fourier eigensystem: its
    eigenvalues, each axis's probe (residual, scale), the residual
    max|λ − target| and, for a lifted kind, the root spectrum s.  It stores
    no verdict; ``checked`` compares them with TOL.reconstruction as it
    stands at each call."""

    eigenvalues: np.ndarray
    probe: tuple                   # ((residual_j, scale_j), ...) per axis
    residual: float
    root: np.ndarray | None = None  # the lift's root spectrum s

    def checked(self, spec: PdeSpec) -> EigenSystem:
        """The eigensystem on the spec's Fourier basis (lifted when there is
        a root spectrum), once every measurement is within tolerance."""
        for j, (err, scale) in enumerate(self.probe):
            if not err <= TOL.reconstruction * scale:
                raise ValueError(f"axis-{j} stencil probe fails against the "
                                 f"FFT apply: relative residual "
                                 f"{err / scale:.3e}")
        lifted = self.root is not None
        if not self.residual <= TOL.reconstruction:
            raise ValueError(f"{'lifted' if lifted else 'closed-form'} "
                             f"eigensystem fails cross-validation: residual "
                             f"{self.residual:.3e}")
        return EigenSystem(FourierBasis(spec.n, spec.d, lifted=lifted),
                           self.eigenvalues)


def _cross_validated(spec, lam, axes, root=None) -> _Validation:
    """The eigenvalues ``lam`` on the Fourier basis U and their measurements
    against the stencil operator A: the axis probe and the residual
    ‖UΛU† − A‖₂, which is exact as max|λ − target|.  It caches nothing and
    judges nothing; ``_Validation.checked`` holds them to TOL.reconstruction.

    ``axes`` is ``_axis_stencils(spec)``; a lifted kind passes its root
    spectrum s.  For parabolic kinds U = F^{⊗d} diagonalizes A, and the target
    μ is ``_on_grid`` of the FFT of each 1-d stencil's first column.  The
    lifted basis leaves one 2×2 block per mode, D_k = M·diag(λ_k, λ_{N+k})·M
    − i·s_k·X = p·I + q·X with p = (λ_k + λ_{N+k})/2 and q = (λ_k − λ_{N+k})/2
    − i·s_k.  D_k is normal with eigenvalues p ± q, so ‖D_k‖₂ =
    max(|λ_k − i·s_k|, |λ_{N+k} + i·s_k|) and the target is (i·s, −i·s).

    ``_operator_validation`` passes the closed-form λ; for a lifted kind it is
    (i·s, −i·s) built from the same s it passes as ``root``, so the lifted
    residual is exactly 0 there: that check can only catch a direct caller's
    λ.  A wrong s in the lift is caught by ``_probe_axes`` (a wrong stencil)
    and by the modal reference of ``reference.second_order_problem`` (a wrong
    root spectrum).
    """
    lam = as_vector(lam)
    shift, stencils = axes
    probe = _probe_axes(spec, stencils, FourierBasis(spec.n, spec.d))
    if spec.kind in PARABOLIC_KINDS:
        target = _on_grid(spec, shift, [np.fft.fft(stencil[:, 0])
                                        for stencil, _ in stencils])
    else:
        target = np.concatenate([1j * root, -1j * root])
    residual = float(np.max(np.abs(lam - target)))
    return _Validation(lam, probe, residual, root)


def _operator_key(spec: PdeSpec) -> tuple:
    """(kind, d, n, a, a′, c) read from the spec at call time, the mass
    already folded into c.  The floats enter as their bytes, so a change of
    one ulp, or of the sign of a zero, is another operator."""
    return (spec.kind, int(spec.d), int(spec.n),
            np.asarray(spec.a, dtype=float).tobytes(),
            np.asarray(spec.a_prime, dtype=float).tobytes(),
            np.float64(spec.c).tobytes())


@_MEMO.cached(key=_operator_key)
def _operator_validation(spec: PdeSpec) -> _Validation:
    """The measured eigensystem of the spec's operator, built and probed
    once per operator and process: the closed-form eigenvalues of a
    parabolic kind, or the lifted ones (i·s, −i·s) with the root spectrum s
    of a hyperbolic kind.  Kept in ``_MEMO`` under ``_operator_key``, its
    arrays read-only; callers ``checked`` it on every use."""
    shift, stencils = axes = _axis_stencils(spec)
    if spec.kind in PARABOLIC_KINDS:
        return _cross_validated(spec, _on_grid(spec, shift, [
            spectrum for _, spectrum in stencils]), axes)
    s = _root_spectrum(spec)
    return _cross_validated(spec, np.concatenate([1j * s, -1j * s]), axes, s)


def eigensystem_of(spec: PdeSpec) -> EigenSystem:
    """Closed-form eigensystem F^{⊗d} / μ(k) of a parabolic-family operator.

    Its cross-validation against the stencil operator is measured once per
    operator and process (``_operator_validation``, keyed on the spec's
    values now) and compared with TOL.reconstruction on every call, so a
    tightened tolerance fails the next call.  The eigenvalues are read-only
    and shared by every call on the same operator.
    """
    if spec.kind not in PARABOLIC_KINDS:
        raise ValueError(f"{spec.kind} is not in the parabolic family; "
                         "use lift_hyperbolic")
    return _operator_validation(spec).checked(spec)


def fast_inversion(eigen: EigenSystem, w0) -> tuple[np.ndarray, float]:
    """Solve O v = w0 by per-mode division for O = U diag(λ) U†.

    Requires w0 to have no weight (≤ 1e-10) on the zero modes when O is
    singular; a mode is zero when |λ| ≤ TOL.zero·max(1, max|λ|).  Returns
    (v, ‖w0‖/‖v‖); the cost factor multiplies the query count of any
    algorithm consuming |v> instead of |w0>.
    """
    w0 = as_vector(w0)
    lam = eigen.eigenvalues
    w_hat = eigen.apply_adjoint(w0)
    scale = max(1.0, float(np.max(np.abs(lam))))
    singular = np.abs(lam) <= TOL.zero * scale
    if np.any(singular):
        overlap = float(np.linalg.norm(w_hat[singular]))
        if overlap > 1e-10:
            raise ValueError(
                f"right-hand side has weight {overlap:.3e} on the zero modes")
    v_hat = np.zeros_like(w_hat)
    v_hat[~singular] = w_hat[~singular] / lam[~singular]
    v = eigen.apply(v_hat)
    nv = float(np.linalg.norm(v))
    if nv <= 0:
        raise ValueError("inversion produced the zero vector")
    residual = float(np.linalg.norm(eigen.apply(lam * v_hat) - w0))
    if residual > 1e-9 * max(1.0, float(np.linalg.norm(w0))):
        raise ValueError(f"fast inversion residual too large: {residual:.3e}")
    return v, float(np.linalg.norm(w0)) / nv


def lift_hyperbolic(spec: PdeSpec) -> tuple[OdeProblem, float]:
    """First-order 2N system for a hyperbolic kind.

    Coefficient [[0, iB], [iB, 0]] with eigenvalues ±i·sqrt(-μ(k)) in the
    basis (F^{⊗d} ⊕ F^{⊗d}) followed by the Hadamard block mixer; the second
    component's initial data solves iB v(0) = w0 by fast inversion, and the
    source enters only the second block as (0, b(t)).  The root spectrum s
    and the lifted eigensystem are built and measured once per operator and
    process, like ``eigensystem_of``'s, and checked against TOL.reconstruction
    on every call.  Returns the problem and the inversion cost factor of
    ``fast_inversion``.
    """
    if spec.kind not in HYPERBOLIC_KINDS:
        raise ValueError(f"{spec.kind} is not hyperbolic")
    validation = _operator_validation(spec)
    # eigen data of iB in the plain Fourier basis, for the initial data solve
    v0, cost = fast_inversion(
        EigenSystem(FourierBasis(spec.n, spec.d), 1j * validation.root),
        spec.w0_vector())

    eigen = validation.checked(spec)
    u_full = np.concatenate([spec.u0_vector(), v0])
    return OdeProblem(eigen, u_full, spec.T, spec._source(lead=spec.N)), cost


def _gate_model(spec: PdeSpec, eps: float) -> dict:
    """Reported gate-model terms: the d·log²(n) QFT cost and an
    oracle-arithmetic polylog term (analytic model numbers, not simulated)."""
    logn = max(1, math.ceil(math.log2(spec.n)))
    qft = spec.d * logn ** 2
    top = max(spec.T, 2.0)
    bits = math.log2(top / eps) if top / eps < math.inf \
        else math.log2(top) - math.log2(eps)  # T/ε past the float range
    oracle = spec.d * max(1, math.ceil(bits))
    return {"qft_gates": qft, "oracle_arithmetic_gates": oracle}


def _post_select_u_block(spec: PdeSpec, eps: float) -> SolveReport:
    """Solve the lifted system and post-select on its u block, measured
    against the per-axis modal reference of the spec's second-order form."""
    problem, inversion_cost = lift_hyperbolic(spec)
    full = solve_eigen(problem, eps)

    n_total = spec.N
    u_part = full.output_state[:n_total]
    v_part = full.output_state[n_total:]
    nu_part = float(np.linalg.norm(u_part))
    if nu_part <= 1e-14:
        raise ValueError("u block vanished; cannot post-select")
    post_factor = 1.0 / nu_part  # = sqrt(‖u‖²+‖v‖²)/‖u‖ on the unit state

    ref_u = solve_reference(second_order_problem(spec))
    # renormalizing the u block inflates the full-state error by at most
    # 2/‖u block‖
    claimed = min(MAX_PHASE_DISTANCE,
                  2.0 * max(full.claimed_eps, eps) * post_factor
                  + TOL.exact_solver)
    report = post_selected_report(u_part, full.success_probability, ref_u,
                                  full.ledger, claimed)
    report.extras.update(full.extras)
    report.extras.update({
        "u_block_norm": nu_part,
        "v_block_norm": float(np.linalg.norm(v_part)),
        "post_selection_factor": post_factor,
        "inversion_cost": inversion_cost,
        "full_system_report": {
            "success_probability": full.success_probability,
            "error_vs_reference": full.error_vs_reference,
        },
    })
    return report


def solve_pde(spec: PdeSpec, eps: float) -> SolveReport:
    """Solve a PDE benchmark with the eigen solver ``solve_eigen`` picks.

    Parabolic and higher-order first-order-in-time kinds are solved
    directly; hyperbolic kinds are lifted, solved on the doubled system and
    post-selected on the u block (charging the extra repeat factor
    sqrt(‖u‖² + ‖v‖²)/‖u‖).  The report carries the analytic gate-model
    terms alongside the oracle ledger.
    """
    if spec.u0 is None:
        raise ValueError("the problem needs initial data u0")
    if spec.kind in PARABOLIC_KINDS:
        report = solve_eigen(OdeProblem(eigensystem_of(spec), spec.u0_vector(),
                                        spec.T, spec._source()), eps)
    else:
        report = _post_select_u_block(spec, eps)
    report.extras["gate_model"] = _gate_model(spec, eps)
    return report
