"""Dense complex linear algebra shared by every other module.

Norms, distances, matrix exponentials, non-normality and the small
renormalization/fidelity perturbation lemmas, plus the ``EigenSystem``
container for unitarily diagonalizable matrices, whose basis is either a
dense unitary or a :class:`FourierBasis` applied by ``numpy.fft``.
"""

from __future__ import annotations

import math

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
    """e^{At} of a square matrix, or of each matrix of a (K, n, n) stack.

    A Hermitian or skew-Hermitian matrix goes through ``hermitian_eigh``.
    Any other matrix, and every matrix of a stack, goes through
    ``_pade_exponential``, numpy scaling and squaring with the [13/13] Padé
    approximant and a number of squarings chosen per matrix.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim == 3 and m.shape[1] == m.shape[2]:
        return _pade_exponential(m * t)
    m = as_square(m)
    pair = hermitian_eigh(m)
    if pair is None:
        return _pade_exponential((m * t)[None])[0]
    w, v = pair
    return (v * np.exp(w * t)) @ v.conj().T


#: θ_13 and the coefficients b_0..b_13 of the [13/13] Padé numerator p(x)
#: (the denominator is p(-x)), from Al-Mohy & Higham (2009), Table 3.1 and
#: Algorithm 3.1, which lowers θ_13 to 4.25
_THETA13 = 4.25
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0)
#: |c_27| = (13!)²/(26!·27!), the leading coefficient of the [13/13]
#: backward error
_C27 = math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27))


def _onenorm(x: np.ndarray) -> np.ndarray:
    """The exact 1-norm (largest column sum) of each matrix of a stack."""
    return np.abs(x).sum(axis=-2).max(axis=-1)


def _ell(mag: np.ndarray) -> np.ndarray:
    """ℓ(A, 13) of Al-Mohy & Higham (2009), eq. (3.13), for each matrix of a
    stack, given |A| entrywise: the extra squarings that keep the [13/13]
    backward error's leading term |c_27|·‖|A|^27‖₁/‖A‖₁ within the unit
    roundoff 2⁻⁵³ when A is non-normal.  ‖|A|^27‖₁ is the largest entry of
    1ᵀ|A|^27, exact from 27 row-vector products."""
    row = np.ones(mag.shape[:-1])
    for _ in range(27):
        row = np.matmul(row[:, None, :], mag)[:, 0]
    power_norm = row.max(axis=-1)
    ell = np.zeros(mag.shape[0], dtype=int)
    live = power_norm > 0.0  # ℓ = 0 once |A|^27 vanishes
    alpha = _C27 * power_norm[live] / mag[live].sum(axis=-2).max(axis=-1)
    ell[live] = np.maximum(np.ceil(np.log2(alpha / 2.0 ** -53) / 26), 0)
    return ell


def _pade_exponential(a: np.ndarray) -> np.ndarray:
    """e^A for each matrix of a (K, n, n) complex stack.

    The degree-13 branch of Al-Mohy & Higham (2009), Algorithm 3.1, with
    exact 1-norms d_k = ‖A^k‖₁^{1/k} of A⁶, A⁸ = A⁴A⁴ and A¹⁰ = A⁴A⁶:
    η₅ = min(max(d₆, d₈), max(d₈, d₁₀)) and s = max(0, ⌈log2(η₅/θ_13)⌉) +
    ℓ(2^{-s}A, 13) squarings per matrix.  [13/13] scaling and squaring is
    backward stable for every η₅ ≤ θ_13, so every matrix takes it; the
    algorithm's lower degrees would only save work at small norms.
    r_13 = q⁻¹p is one ``solve`` of the stack, squared s times per matrix.
    """
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d6 = _onenorm(a6) ** (1 / 6)
    d8 = _onenorm(a4 @ a4) ** 0.125
    d10 = _onenorm(a4 @ a6) ** 0.1
    eta5 = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    with np.errstate(divide="ignore"):  # a nilpotent A has η₅ = 0
        first = np.ceil(np.log2(eta5 / _THETA13))
    first = np.maximum(first, 0).astype(int)
    s = first + _ell(np.abs(a) * (2.0 ** -first)[:, None, None])
    f = (2.0 ** -s)[:, None, None]
    x, x2, x4, x6 = (p * f ** k
                     for p, k in ((a, 1), (a2, 2), (a4, 4), (a6, 6)))
    b = _B13
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    for i in range(s.max(initial=0)):
        pick = _rows(s > i)
        out[pick] = out[pick] @ out[pick]
    return out


def _rows(mask: np.ndarray):
    """An index for the stack's matrices where ``mask`` holds: a basic slice
    (views, no copies) when it holds for all of them."""
    return slice(None) if mask.all() else mask


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
        """Diagonalize a normal matrix; raises for non-normal input.

        A Hermitian or skew-Hermitian matrix is diagonalized by
        ``hermitian_eigh`` (eigenvalues in ascending order of their real or
        imaginary part).  Any other matrix takes U from the QR factorization
        of its ``numpy.linalg.eig`` eigenvectors and Λ = diag(U†AU), in the
        order ``eig`` returns; the off-diagonal of U†AU must vanish to
        ``TOL.normality``.  Both keep the ``TOL.reconstruction`` check on
        ‖UΛU† − A‖.
        """
        m = as_square(a)
        pair = hermitian_eigh(m)
        if pair is None:
            q = np.linalg.qr(np.linalg.eig(m)[1])[0]
            tmat = q.conj().T @ m @ q
            off = tmat - np.diag(np.diag(tmat))
            if spectral_norm(off) > TOL.normality * max(1.0, spectral_norm(m)):
                raise ValueError(
                    "matrix is not normal; no unitary eigenbasis exists")
            pair = np.diag(tmat), q
        es = cls(pair[1], pair[0])
        recon = spectral_norm(es.matrix - m)
        if recon > TOL.reconstruction:
            raise ValueError(f"eigendecomposition residual too large: {recon:.3e}")
        return es
