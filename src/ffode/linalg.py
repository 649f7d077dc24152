"""Dense complex linear algebra shared by every other module.

Norms, distances, matrix exponentials, non-normality and the small
renormalization/fidelity perturbation lemmas, plus the ``EigenSystem``
container for unitarily diagonalizable matrices, whose basis is either a
dense unitary or a :class:`FourierBasis` applied by ``numpy.fft``.
"""

from __future__ import annotations

import numpy as np

from .config import TOL


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    w = np.asarray(v, dtype=complex).ravel()
    if w.size == 0:
        raise ValueError("empty vector")
    return w


def as_state(v, tol: float = 1e-9) -> np.ndarray:
    """Validate that ``v`` is unit norm and return it as a flat array."""
    w = as_vector(v)
    nrm = np.linalg.norm(w)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"expected a unit-norm vector, got norm {nrm}")
    return w


def unitary_with_first_column(psi) -> np.ndarray:
    """Deterministic Householder completion: U|0> = psi for a unit vector."""
    psi = as_state(psi)
    d = psi.size
    ph = psi[0] / abs(psi[0]) if abs(psi[0]) > 1e-14 else 1.0
    v = psi.copy()
    v[0] += ph
    h = np.eye(d) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    return -ph * h


def spectral_norm(m) -> float:
    """Largest singular value (the matrix 2-norm)."""
    return float(np.linalg.norm(as_matrix(m), 2))


def schatten1_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False).sum())


def schatten1_distance(p, q) -> float:
    """Trace distance (1/2)·‖P - Q‖₁ between two same-shape matrices."""
    pm, qm = as_matrix(p), as_matrix(q)
    if pm.shape != qm.shape:
        raise ValueError(f"shape mismatch: {pm.shape} vs {qm.shape}")
    return 0.5 * schatten1_norm(pm - qm)


def pure_state_trace_distance(psi, phi) -> tuple[float, float]:
    """Trace distance between two pure states and its 2-norm upper bound.

    Returns ``(sqrt(1 - |<psi|phi>|^2), ‖psi - phi‖)``; the first entry never
    exceeds the second.  Both inputs must be unit norm.
    """
    a = as_state(psi)
    b = as_state(phi)
    overlap = abs(np.vdot(a, b))
    dist = float(np.sqrt(max(0.0, 1.0 - min(overlap, 1.0) ** 2)))
    bound = float(np.linalg.norm(a - b))
    return dist, bound


def global_phase_distance(psi, phi) -> float:
    """2-norm distance between unit vectors minimized over a global phase."""
    a = as_state(psi)
    b = as_state(phi)
    ov = np.vdot(a, b)
    if abs(ov) < 1e-14:
        return float(np.sqrt(2.0))
    # the minimizing phase aligns b with a; the difference is formed directly
    # so exactly-equal states measure ~1e-16 instead of the sqrt(eps) floor
    return float(np.linalg.norm(a - (np.conj(ov) / abs(ov)) * b))


def non_normality(a) -> float:
    """μ(A) = ‖A†A - AA†‖^(1/2); zero exactly when A is normal."""
    m = as_square(a)
    comm = m.conj().T @ m - m @ m.conj().T
    return float(np.sqrt(spectral_norm(comm)))


def logarithmic_norm(a) -> float:
    """Largest eigenvalue of the Hermitian part (A + A†)/2."""
    m = as_square(a)
    herm = (m + m.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[-1])


def hermitian_eigh(a):
    """``eigh`` eigenpairs (w, v) of a Hermitian or skew-Hermitian a, or None.

    The test is O(N²): ‖a ∓ a†‖_F ≤ TOL.normality·max(1, ‖a‖_F).  A
    skew-Hermitian a is diagonalized as i·(a/i), so w is imaginary and v
    unitary in both cases.
    """
    scale = TOL.normality * max(1.0, float(np.linalg.norm(a)))
    for phase in (1.0, 1j):
        h = a / phase
        if np.linalg.norm(h - h.conj().T) <= scale:
            w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
            return phase * w, v
    return None


def matrix_exponential(a, t: float = 1.0) -> np.ndarray:
    """e^{At}.

    Hermitian and skew-Hermitian matrices go through ``hermitian_eigh``;
    everything else through scipy's scaling-and-squaring Padé.
    """
    m = as_square(a)
    pair = hermitian_eigh(m)
    if pair is None:
        import scipy.linalg as sla
        return sla.expm(m * t)
    w, v = pair
    return (v * np.exp(w * t)) @ v.conj().T


def renormalization_error_bounds(a, a_tilde) -> tuple[float, float]:
    """Bounds relating an unnormalized perturbation to the normalized states.

    For nonzero vectors with ``eps = ‖a - ã‖`` returns the pair
    ``(‖a‖ - eps, 2 eps / ‖a‖)``: a lower bound on ``‖ã‖`` and an upper bound
    on ``‖a/‖a‖ - ã/‖ã‖‖``.  Both are re-verified numerically before
    returning; a bound that fails raises ``ValueError``.
    """
    av = as_vector(a)
    tv = as_vector(a_tilde)
    na, nt = np.linalg.norm(av), np.linalg.norm(tv)
    if na <= 0 or nt <= 0:
        raise ValueError("renormalization bounds need two nonzero vectors")
    eps = float(np.linalg.norm(av - tv))
    lower = float(na - eps)
    bound = float(2.0 * eps / na)
    gap = float(np.linalg.norm(av / na - tv / nt))
    if not (nt >= lower - 1e-12 and gap <= bound + 1e-12):  # NaN fails too
        raise ValueError(f"renormalization bounds fail: ‖ã‖ {nt:.6g} vs "
                         f"{lower:.6g}, distance {gap:.6g} vs {bound:.6g}")
    return lower, bound


def fidelity_perturbation_bound(psi, phi, psi_tilde, phi_tilde) -> bool:
    """Check |<ψ̃|φ̃>| ≤ |<ψ|φ>| + ‖ψ̃-ψ‖ + ‖φ̃-φ‖ for four unit vectors."""
    a, b = as_state(psi), as_state(phi)
    at, bt = as_state(psi_tilde), as_state(phi_tilde)
    lhs = abs(np.vdot(at, bt))
    rhs = abs(np.vdot(a, b)) + np.linalg.norm(at - a) + np.linalg.norm(bt - b)
    return bool(lhs <= rhs + 1e-12)


class FourierBasis:
    """The unitary F^{⊗d} on n points per axis, applied by FFT.

    F[j,k] = ω^{jk}/√n with ω = e^{2πi/n}, so U x = ifftn(x) and
    U† x = fftn(x) (orthonormal scaling) on the row-major n×…×n grid.
    ``lifted`` gives the 2n^d basis blockdiag(F^{⊗d}, F^{⊗d})·M with the
    block mixer M = [[I, I], [I, -I]]/√2.  Unitary by construction, so its
    defect ‖U†U − I‖ is taken as 0.
    """

    def __init__(self, n: int, d: int, lifted: bool = False):
        self.n, self.d, self.lifted = int(n), int(d), bool(lifted)

    @property
    def dim(self) -> int:
        return (2 if self.lifted else 1) * self.n ** self.d

    def _fft(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        grid = x.reshape((self.n,) * self.d + x.shape[1:])
        fft = np.fft.fftn if adjoint else np.fft.ifftn
        out = fft(grid, axes=tuple(range(self.d)), norm="ortho")
        return out.reshape(x.shape)

    def _apply(self, x, adjoint: bool) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if not self.lifted:
            return self._fft(x, adjoint)
        half = self.n ** self.d
        top, bottom = x[:half], x[half:]
        if adjoint:
            top, bottom = self._fft(top, True), self._fft(bottom, True)
        root2 = np.sqrt(2.0)
        top, bottom = (top + bottom) / root2, (top - bottom) / root2
        if not adjoint:
            top, bottom = self._fft(top, False), self._fft(bottom, False)
        return np.concatenate([top, bottom])

    def apply(self, x) -> np.ndarray:
        """U x for one vector or for each column of a matrix."""
        return self._apply(x, False)

    def apply_adjoint(self, x) -> np.ndarray:
        """U† x for one vector or for each column of a matrix."""
        return self._apply(x, True)

    def dense(self) -> np.ndarray:
        """U as a dense matrix, from one batched apply of the identity."""
        return self.apply(np.eye(self.dim))


class EigenSystem:
    """Unitary eigenbasis plus eigenvalue list: A = U Λ U†.

    ``basis`` is a dense matrix, whose gram defect ``‖U†U − I‖`` is measured
    and bounded by ``TOL.unitarity``, or a :class:`FourierBasis`.  ``apply``
    and ``apply_adjoint`` act with U and U† on a vector or on the columns of
    a matrix; the dense ``basis`` and ``matrix`` of a Fourier basis are built
    only on demand.
    """

    def __init__(self, basis, eigenvalues):
        self.eigenvalues = as_vector(eigenvalues)
        if isinstance(basis, FourierBasis):
            self._fourier, self._dense = basis, None
            n = basis.dim
        else:
            self._fourier, self._dense = None, as_square(basis)
            n = self._dense.shape[0]
        if self.eigenvalues.size != n:
            raise ValueError("eigenvalue count does not match basis dimension")
        #: measured ‖U†U − I‖₂ (0 for a Fourier basis)
        self.unitarity_defect = 0.0
        if self._dense is not None:
            gram = self._dense.conj().T @ self._dense - np.eye(n)
            self.unitarity_defect = spectral_norm(gram)
            if self.unitarity_defect > TOL.unitarity:
                raise ValueError("eigenbasis is not unitary: "
                                 f"‖U†U-I‖ = {self.unitarity_defect:.3e}")

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def basis(self) -> np.ndarray:
        """The dense unitary U."""
        return self._dense if self._fourier is None else self._fourier.dense()

    def apply(self, x) -> np.ndarray:
        """U x; x may hold one vector per column."""
        if self._fourier is not None:
            return self._fourier.apply(x)
        return self._dense @ x

    def apply_adjoint(self, x) -> np.ndarray:
        """U† x; x may hold one vector per column."""
        if self._fourier is not None:
            return self._fourier.apply_adjoint(x)
        return self._dense.conj().T @ x

    @property
    def matrix(self) -> np.ndarray:
        """Reconstruct the dense matrix U Λ U†."""
        return self.apply_function(lambda w: w)

    def apply_function(self, f) -> np.ndarray:
        """U f(Λ) U† for a scalar function applied to the eigenvalues."""
        u = self.basis
        return (u * f(self.eigenvalues)) @ u.conj().T

    @classmethod
    def from_matrix(cls, a) -> "EigenSystem":
        """Diagonalize a normal matrix; raises for non-normal input."""
        m = as_square(a)
        norm = spectral_norm(m)
        import scipy.linalg as sla
        tmat, q = sla.schur(m, output="complex")
        off = tmat - np.diag(np.diag(tmat))
        if spectral_norm(off) > TOL.normality * max(1.0, norm):
            raise ValueError("matrix is not normal; no unitary eigenbasis exists")
        es = cls(q, np.diag(tmat))
        recon = spectral_norm(es.matrix - m)
        if recon > TOL.reconstruction:
            raise ValueError(f"eigendecomposition residual too large: {recon:.3e}")
        return es
