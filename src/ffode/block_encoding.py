"""Block-encodings on one eigenbasis, with query accounting.

A block-encoding is a unitary whose top-left ``system_dim`` × ``system_dim``
block, scaled by the normalization ``alpha``, approximates a target matrix to
within ``epsilon_claim``.  Every lemma of the calculus (linear combination,
product, inverse, bounded polynomial) is a statement about that block, so the
block is all that is represented: the calculus maps blocks to blocks while a
:class:`QueryLedger` tracks how many times each underlying oracle would be
queried by the corresponding circuit.

Conventions
-----------
* The calculus has one representation.  A :class:`DiagonalEncoding` holds a
  block U diag(f) U† as the eigenbasis U of an :class:`EigenSystem`, the
  factors f and the target's diagonal g (target = U diag(g) U†).  Each rule
  (``lcu_combine``, ``multiply``, ``invert``, ``polynomial_transform``, and
  the methods ``reattached`` and ``padded``) combines the factor and target
  diagonals entrywise and checks them in O(N).  Every operand must be a
  DiagonalEncoding, and all operands of one rule must share one
  EigenSystem; a dense operand, or operands on different eigensystems,
  raise ``ValueError``.
* ``exact_dilation`` of a Hermitian or skew-Hermitian matrix is the usual
  source of operands; it raises for any other matrix.
* The stored block is a contraction, which always has a unitary dilation
  with one ancilla qubit.  ``ancilla_qubits`` is accounting: the ancilla
  count of the circuit the lemma describes.  With zero ancillas the block is
  the whole circuit and must itself be unitary.
* :attr:`BlockEncoding.unitary` materializes one valid dilation on demand,
  of dimension ``2**ancilla_qubits * system_dim``: the one-ancilla dilation
  of the block with identity on the other ancillas.  Ancilla registers are
  prepended (most significant), so the block is its leading block.
* Polynomial eigenvalue transforms are simulated by exact spectral calculus
  while the ledger charges the query cost of the corresponding circuit.
* :class:`BlockEncoding`, a dense block, is the base class: it holds the
  scalar construction checks, ``encoded`` and ``unitary``, which
  DiagonalEncoding inherits, and dense SVD checks of its own block, which
  DiagonalEncoding replaces with bounds on its diagonals.  It is the form in
  which a test writes down an encoding the calculus cannot make, such as one
  whose error does not commute with its block.  No rule accepts it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import INVERSE_QUERY_CONSTANT, TOL
from .linalg import (
    EigenSystem, as_square, as_vector, hermitian_eigh, spectral_norm,
    unitary_with_first_column,
)

# Canonical ledger keys.
U_A = "U_A"
O_U = "O_u"
O_B = "O_b"
O_T = "O_T"
O_LAMBDA = "O_lambda"
O_LAMBDA_R = "O_lambda_r"
O_LAMBDA_I = "O_lambda_i"
O_EXP = "O_exp"
O_F = "O_f"
O_G = "O_g"
O_PROD = "O_prod"
O_BT = "O_bt"
O_BNORM = "O_bnorm"
U_EIG = "U_eig"
PREP_PAIR = "prep_pair"
GATES = "one_qubit_gates"

#: fixed column order used by the CLI when flattening ledgers
LEDGER_KEYS = (
    U_A, O_U, O_B, O_T, O_LAMBDA, O_LAMBDA_R, O_LAMBDA_I, O_EXP,
    O_F, O_G, O_PROD, O_BT, O_BNORM, U_EIG, PREP_PAIR, GATES,
)


class QueryLedger:
    """Additive map from oracle name to nonnegative use count.

    Instances are treated as immutable: every operation returns a new ledger,
    so counts compose additively and never decrease.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts=None):
        c = Counter()
        if counts:
            for name, n in dict(counts).items():
                n = int(n)
                if n < 0:
                    raise ValueError("ledger counts must be nonnegative")
                if n:
                    c[name] = n
        self._counts = c

    def charge(self, name: str, n: int = 1) -> "QueryLedger":
        out = Counter(self._counts)
        out[name] += int(n)
        return QueryLedger(out)

    def merged(self, *others: "QueryLedger") -> "QueryLedger":
        out = Counter(self._counts)
        for o in others:
            out.update(o._counts)
        return QueryLedger(out)

    def scaled(self, k: int) -> "QueryLedger":
        if k < 0:
            raise ValueError("ledger scale factor must be nonnegative")
        return QueryLedger({name: n * int(k) for name, n in self._counts.items()})

    def total(self, include_gates: bool = False) -> int:
        return sum(n for name, n in self._counts.items()
                   if include_gates or name != GATES)

    @property
    def counts(self) -> dict:
        return dict(sorted(self._counts.items()))

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __add__(self, other: "QueryLedger") -> "QueryLedger":
        return self.merged(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, QueryLedger) and self._counts == other._counts

    def __repr__(self) -> str:
        return f"QueryLedger({self.counts})"


@dataclass(eq=False, repr=False)
class BlockEncoding:
    """An (alpha, ancilla_qubits, epsilon_claim)-block-encoding.

    ``block`` is the leading ``system_dim`` × ``system_dim`` block of the
    circuit's unitary, so ``alpha * block`` approximates ``target`` to within
    ``epsilon_claim``.  Construction checks that a unitary with this block and
    ancilla count exists: the block must be a contraction, or unitary when
    there are no ancillas.  ``target`` is the analytic matrix the encoding
    claims to represent; when present it is re-verified at construction time.
    No calculus rule accepts this dense form (see the module docstring).
    Encodings compare by identity; repr reads the scalars and the ledger.
    """

    block: np.ndarray
    alpha: float
    epsilon_claim: float
    ancilla_qubits: int
    ledger: QueryLedger = field(default_factory=QueryLedger)
    target: np.ndarray | None = None

    def __post_init__(self):
        self.block = as_square(self.block)
        if self.target is not None:
            self.target = as_square(self.target)
        self._validate()

    def _validate(self) -> None:
        if self.ancilla_qubits < 0:
            raise ValueError("ancilla count must be nonnegative")
        if not self.alpha > 0:
            raise ValueError("normalization alpha must be positive")
        if not self.epsilon_claim >= 0:
            raise ValueError("claimed error must be nonnegative")
        self._check_block()

    def _check_block(self) -> None:
        """The dense checks: a unitary block with no ancillas, else a
        contraction, each by SVD, then the claim against ``target``."""
        if self.ancilla_qubits == 0:
            gram = self.block.conj().T @ self.block - np.eye(self.system_dim)
            err = spectral_norm(gram)
            if not err <= TOL.unitarity:
                raise ValueError(
                    f"encoding matrix is not unitary: ‖U†U-I‖ = {err:.3e}")
        else:
            norm = spectral_norm(self.block)
            if not norm <= 1.0 + 1e-12:
                raise ValueError(
                    f"block is not a contraction: ‖block‖ = {norm:.6g}")
        if self.target is not None:
            verify_block_encoding(self, self.target)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(system_dim={self.system_dim}, "
                f"alpha={self.alpha!r}, epsilon_claim={self.epsilon_claim!r}, "
                f"ancilla_qubits={self.ancilla_qubits}, ledger={self.ledger!r})")

    def apply(self, v) -> np.ndarray:
        """block · v."""
        return self.block @ v

    @property
    def system_dim(self) -> int:
        return self.block.shape[0]

    @property
    def encoded(self) -> np.ndarray:
        """alpha times the block."""
        return self.alpha * self.block

    @property
    def unitary(self) -> np.ndarray:
        """One unitary of dimension 2^ancilla_qubits · system_dim with this block.

        The standard dilation [[M, sqrt(I-MM†)], [sqrt(I-M†M), -M†]] of the
        block M on the least significant ancilla, identity on the others.
        Built on demand; nothing in the calculus reads it.
        """
        if self.ancilla_qubits == 0:
            return self.block.copy()
        m = self.block
        w, s, vh = np.linalg.svd(m)
        # sqrt(1-s²) amplifies rounding near s = 1 (unitary blocks); snap it
        # to 0 there so the complement blocks vanish exactly
        comp = np.clip(1.0 - s ** 2, 0.0, None)
        comp[comp < 1e-12] = 0.0
        sc = np.sqrt(comp)
        top_right = (w * sc) @ w.conj().T
        bottom_left = (vh.conj().T * sc) @ vh
        dil = np.block([[m, top_right], [bottom_left, -m.conj().T]])
        return np.kron(np.eye(2 ** (self.ancilla_qubits - 1)), dil)


def verify_block_encoding(be: BlockEncoding, target) -> float:
    """Measured spectral-norm error ‖target - alpha * block‖.

    Raises if the measurement exceeds the claimed error (plus a rounding
    slack proportional to alpha).
    """
    tgt = as_square(target)
    if tgt.shape != (be.system_dim, be.system_dim):
        raise ValueError(
            f"target shape {tgt.shape} does not match system dim {be.system_dim}")
    err = spectral_norm(tgt - be.alpha * be.block)
    slack = TOL.verify_slack * max(1.0, be.alpha)
    if not err <= be.epsilon_claim + slack:
        raise ValueError(
            f"block-encoding violates its claim: measured {err:.3e} > "
            f"claimed {be.epsilon_claim:.3e}")
    return float(err)


class DiagonalEncoding(BlockEncoding):
    """An encoding whose block is U diag(factors) U†.

    Holds the eigensystem's basis U, the factors and the target's diagonal g
    (target = U diag(g) U†) instead of two dense N×N products; ``block``,
    ``target`` and ``unitary`` are built on demand, and ``apply`` costs two
    basis applications.  Every check reads the diagonals alone, in O(N):
    ‖U diag(x) U†‖₂ ≤ (1+δ_U)·max|x| with δ_U the basis's measured defect
    ‖U†U − I‖ (0 for a Fourier basis), so the block is a contraction when
    (1+δ_U)·max|factors| ≤ 1 and meets its claim when
    (1+δ_U)·max|g − alpha·factors| does.  No check builds a dense matrix.
    """

    def __init__(self, eigen: EigenSystem, factors, alpha: float,
                 epsilon_claim: float, ancilla_qubits: int,
                 ledger: QueryLedger, target_diagonal):
        self.eigen = eigen
        self.factors = as_vector(factors)
        self.target_diagonal = as_vector(target_diagonal)
        if not self.factors.size == self.target_diagonal.size == eigen.dim:
            raise ValueError("factors and target diagonal need one entry per "
                             "eigenvalue")
        self.alpha = float(alpha)
        self.epsilon_claim = float(epsilon_claim)
        self.ancilla_qubits = int(ancilla_qubits)
        self.ledger = ledger
        self._validate()

    def _widened_max(self, values: np.ndarray) -> float:
        """(1+δ_U)·max|values|, a bound on ‖U diag(values) U†‖₂ (NaN when
        a value is NaN, which then fails every check that reads it)."""
        widen = 1.0 + self.eigen.unitarity_defect
        return widen * float(np.max(np.abs(values)))

    def _check_block(self) -> None:
        f, defect = self.factors, self.eigen.unitarity_defect
        if self.ancilla_qubits == 0:
            # with M = U diag(f) U† and ‖UU† − I‖ = ‖U†U − I‖ = δ_U:
            # M†M − I = U(|f|² − 1)U† + (UU† − I) + U f̄ (U†U − I) f U†
            err = (self._widened_max(1.0 - np.abs(f) ** 2) + defect
                   + defect * self._widened_max(np.abs(f) ** 2))
            if not err <= TOL.unitarity:
                raise ValueError(
                    f"encoding matrix is not unitary: ‖U†U-I‖ ≤ {err:.3e}")
        else:
            norm = self._widened_max(f)
            if not norm <= 1.0 + 1e-12:
                raise ValueError(
                    f"block is not a contraction: ‖block‖ ≤ {norm:.6g}")
        err = self._widened_max(self.target_diagonal - self.alpha * f)
        slack = TOL.verify_slack * max(1.0, self.alpha)
        if not err <= self.epsilon_claim + slack:
            raise ValueError(
                f"block-encoding violates its claim: bound {err:.3e} > "
                f"claimed {self.epsilon_claim:.3e}")

    def eigenvalue_spread(self) -> float:
        """δ_U·max|g|: every eigenvalue of the target lies this close to an
        entry of g (Bauer–Fike on diag(g)·U†U, which shares its spectrum)."""
        return self.eigen.unitarity_defect * float(
            np.max(np.abs(self.target_diagonal)))

    @property
    def block(self) -> np.ndarray:
        return self.eigen.apply_function(lambda _: self.factors)

    @property
    def target(self) -> np.ndarray:
        return self.eigen.apply_function(lambda _: self.target_diagonal)

    @property
    def system_dim(self) -> int:
        return self.eigen.dim

    def apply(self, v) -> np.ndarray:
        return self.eigen.apply(self.factors * self.eigen.apply_adjoint(v))

    def reattached(self, target, epsilon_claim: float,
                   alpha: float | None = None) -> "DiagonalEncoding":
        """Same circuit, new claim (e.g. reinterpreting a scaled encoding):
        ``target`` is the new target's diagonal on this eigenbasis."""
        target = np.asarray(target, dtype=complex)
        if target.ndim != 1:
            raise ValueError(
                "reattached takes the target's diagonal on the encoding's "
                f"eigenbasis, a 1-d array; got {target.ndim}-d")
        return DiagonalEncoding(self.eigen, self.factors,
                                self.alpha if alpha is None else float(alpha),
                                float(epsilon_claim), self.ancilla_qubits,
                                self.ledger, target)

    def padded(self, extra_ancillas: int) -> "DiagonalEncoding":
        """Add identity ancillas; the block is unchanged."""
        if extra_ancillas < 0:
            raise ValueError("cannot remove ancillas")
        if extra_ancillas == 0:
            return self
        return DiagonalEncoding(self.eigen, self.factors, self.alpha,
                                self.epsilon_claim,
                                self.ancilla_qubits + extra_ancillas,
                                self.ledger, self.target_diagonal)


def _shared_eigen(rule: str, encodings) -> EigenSystem:
    """The one :class:`EigenSystem` of ``rule``'s operands.

    Raises unless every operand is a DiagonalEncoding and all of them sit on
    the same EigenSystem: the calculus has no other representation."""
    first = encodings[0]
    if all(isinstance(e, DiagonalEncoding) and e.eigen is first.eigen
           for e in encodings):
        return first.eigen
    dense = [e for e in encodings if not isinstance(e, DiagonalEncoding)]
    why = (f"got a dense {type(dense[0]).__name__}" if dense
           else "the operands sit on different eigensystems")
    raise ValueError(f"{rule} takes DiagonalEncodings on one EigenSystem only "
                     "(exact_dilation of a Hermitian or skew-Hermitian "
                     f"matrix); {why}")


def require_hermitian_target(be: DiagonalEncoding, not_hermitian: str) -> None:
    """Raise ``ValueError(not_hermitian)`` unless (1+δ_U)·max|g − ḡ|, a bound
    on ‖target − target†‖, is at most 1e-10."""
    g = be.target_diagonal
    if not be._widened_max(g - g.conj()) <= 1e-10:
        raise ValueError(not_hermitian)


def ry(theta: float) -> np.ndarray:
    """Single-qubit y-rotation, R_y(θ)|0> = (cos(θ/2), sin(θ/2))."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def exact_dilation(a, alpha: float) -> DiagonalEncoding:
    """One-ancilla (alpha, 1, 0)-block-encoding of ``a``: the block a/alpha.

    Requires ‖a‖ ≤ alpha, so that a/alpha is a contraction and has the
    one-ancilla dilation of :attr:`BlockEncoding.unitary`.  The ledger
    charges a single use of U_A: the dilation *is* the primitive oracle.

    ``a`` must be Hermitian or skew-Hermitian.  It is diagonalized once, by
    ``linalg.hermitian_eigh``, into a :class:`DiagonalEncoding` on that
    dense :class:`EigenSystem` (factors Λ/alpha, target diagonal Λ), on
    which the calculus runs.  Its zero claim is measured, not assumed:
    ‖UΛU† − a‖_F must be within ``TOL.verify_slack``·max(1, alpha).  Any
    other ``a``, or one that misses that bound, raises ``ValueError`` with
    the measured residual: the calculus has no dense representation.
    """
    m = as_square(a)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    pair = hermitian_eigh(m)
    if pair is None:
        residual = min(np.linalg.norm(m - m.conj().T),
                       np.linalg.norm(m + m.conj().T))
        raise ValueError(
            "exact_dilation needs a Hermitian or skew-Hermitian matrix, the "
            "one kind the calculus diagonalizes: min ‖a ∓ a†‖_F = "
            f"{residual:.3e}")
    w, v = pair
    eigen = EigenSystem(v, w)
    slack = TOL.verify_slack * max(1.0, alpha)
    residual = np.linalg.norm(eigen.matrix - m)
    if residual > slack:
        raise ValueError(
            "exact_dilation: the eigendecomposition misses its slack, "
            f"‖UΛU† − a‖_F = {residual:.3e} > {slack:.3e}")
    return DiagonalEncoding(eigen, w / alpha, float(alpha), 0.0, 1,
                            QueryLedger({U_A: 1}), w)


@dataclass
class StatePreparationPair:
    """Unitaries (P_L, P_R) whose first columns encode LCU weights.

    With first columns c and d, the represented coefficient vector is
    ``y_j = beta * conj(c_j) * d_j`` and ‖y‖₁ ≤ beta.
    """

    left: np.ndarray
    right: np.ndarray
    beta: float

    def __post_init__(self):
        self.left = as_square(self.left)
        self.right = as_square(self.right)
        if self.left.shape != self.right.shape:
            raise ValueError("P_L and P_R must act on the same register")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        for name, u in (("P_L", self.left), ("P_R", self.right)):
            err = spectral_norm(u.conj().T @ u - np.eye(u.shape[0]))
            if err > TOL.unitarity:
                raise ValueError(f"{name} is not unitary ({err:.3e})")
        y = self.target_vector
        if np.abs(y).sum() > self.beta * (1.0 + 1e-10):
            raise ValueError("‖y‖₁ exceeds beta")

    @property
    def size(self) -> int:
        return self.left.shape[0]

    @property
    def target_vector(self) -> np.ndarray:
        c = self.left[:, 0]
        d = self.right[:, 0]
        return self.beta * c.conj() * d

    @classmethod
    def from_vector(cls, y) -> "StatePreparationPair":
        """Build a (‖y‖₁, k, 0)-pair for a length-2^k coefficient vector."""
        yv = np.asarray(y, dtype=complex).ravel()
        k = yv.size.bit_length() - 1
        if 2 ** k != yv.size:
            raise ValueError("coefficient vector length must be a power of two")
        beta = float(np.abs(yv).sum())
        if beta <= 0:
            raise ValueError("cannot prepare the zero vector")
        c = np.sqrt(np.abs(yv) / beta)
        d = np.zeros_like(yv)
        nz = np.abs(yv) > 0
        d[nz] = yv[nz] / (beta * c[nz])
        return cls(unitary_with_first_column(c), unitary_with_first_column(d),
                   beta)


def lcu_combine(prep: StatePreparationPair,
                blocks: list[DiagonalEncoding]) -> DiagonalEncoding:
    """Linear combination Σ y_j A_j of identically-shaped block-encodings.

    All blocks must be DiagonalEncodings on one EigenSystem and share
    ancilla layout and normalization alpha; the result is an
    (alpha*beta, n_a+k, alpha*beta*max_eps)-encoding.  The circuit
    (P_L† ⊗ I) (Σ_j |j><j| ⊗ U_j) (P_R ⊗ I) has the leading block
    Σ_j conj(c_j) d_j · block_j, with c and d the first columns of P_L and
    P_R.  The ledger adds one use of every block and one of the preparation
    pair.
    """
    if len(blocks) != prep.size:
        raise ValueError(f"need {prep.size} blocks, got {len(blocks)}")
    eigen = _shared_eigen("lcu_combine", blocks)
    first = blocks[0]
    for b in blocks[1:]:
        if b.ancilla_qubits != first.ancilla_qubits:
            raise ValueError("blocks disagree on ancilla layout")
        if abs(b.alpha - first.alpha) > 1e-12 * max(1.0, first.alpha):
            raise ValueError("LCU requires a common normalization alpha")
    k = prep.size.bit_length() - 1
    weights = prep.left[:, 0].conj() * prep.right[:, 0]
    y = prep.target_vector
    alpha = first.alpha * prep.beta
    eps = alpha * max(b.epsilon_claim for b in blocks)
    ledger = QueryLedger().merged(*[b.ledger for b in blocks]).charge(PREP_PAIR, 1)
    return DiagonalEncoding(
        eigen, sum(w * b.factors for w, b in zip(weights, blocks)), alpha,
        eps, first.ancilla_qubits + k, ledger,
        sum(yj * b.target_diagonal for yj, b in zip(y, blocks)))


def multiply(u_a: DiagonalEncoding, u_b: DiagonalEncoding) -> DiagonalEncoding:
    """(alpha*beta, n_a+n_b, alpha*eps_b + beta*eps_a)-encoding of A·B.

    The circuit applies U_B, then U_A on separate ancilla registers; with
    both registers post-selected on zero its leading block is the product of
    the two blocks.  Both must be DiagonalEncodings on one EigenSystem.
    """
    eigen = _shared_eigen("multiply", [u_a, u_b])
    alpha = u_a.alpha * u_b.alpha
    eps = u_a.alpha * u_b.epsilon_claim + u_b.alpha * u_a.epsilon_claim
    return DiagonalEncoding(eigen, u_a.factors * u_b.factors, alpha, eps,
                            u_a.ancilla_qubits + u_b.ancilla_qubits,
                            u_a.ledger + u_b.ledger,
                            u_a.target_diagonal * u_b.target_diagonal)


def invert(u_a: DiagonalEncoding, delta: float,
           epsilon: float) -> DiagonalEncoding:
    """(4/(3δ), n_A+1, ε)-encoding of A⁻¹ for a gapped Hermitian target.

    Needs 0 < δ ≤ 1 and 0 < ε < 1, so that δε < 1.  The inverse itself is
    computed exactly on the target diagonal, whose gap is checked on the
    diagonal widened by its ``eigenvalue_spread``; the ledger charges
    ceil(c·(1/δ)·ln(1/(δε))) uses of the input encoding with
    c = INVERSE_QUERY_CONSTANT.
    """
    _shared_eigen("invert", [u_a])
    require_hermitian_target(u_a, "inversion target must be Hermitian")
    if not (0 < delta <= 1):
        raise ValueError("need 0 < delta <= 1")
    if not (0 < epsilon < 1):
        raise ValueError(f"need 0 < epsilon < 1, got {epsilon}")
    w = u_a.target_diagonal.real
    spread = u_a.eigenvalue_spread()
    if not (np.min(np.abs(w)) - spread >= delta * (1.0 - 1e-12)
            and np.max(np.abs(w)) + spread <= 1.0 + 1e-12):
        raise ValueError(
            f"spectrum {w} violates the gap [-1,-δ]∪[δ,1] with δ = {delta}")
    alpha = 4.0 / (3.0 * delta)
    queries = max(1, math.ceil(
        INVERSE_QUERY_CONSTANT * (1.0 / delta) * math.log(1.0 / (delta * epsilon))))
    inv = (1.0 / w).astype(complex)
    return DiagonalEncoding(u_a.eigen, inv / alpha, alpha, float(epsilon),
                            u_a.ancilla_qubits + 1, u_a.ledger.scaled(queries),
                            inv)


def _assert_poly_bounded(p, degree: int, bound: float = 0.5) -> None:
    grid = max(4 * degree, 8)
    x = np.cos(np.pi * (np.arange(grid) + 0.5) / grid)
    vals = p(x)
    if np.max(np.abs(np.imag(vals))) > 1e-12:
        raise ValueError("polynomial transform requires a real polynomial")
    worst = float(np.max(np.abs(np.real(vals))))
    if worst > bound + 1e-12:
        raise ValueError(
            f"polynomial exceeds the sup-norm bound: max |p| = {worst:.6g} > {bound}")


def polynomial_transform(u_a: DiagonalEncoding, p) -> DiagonalEncoding:
    """(1, n_A+2, 4d·sqrt(ε/α))-encoding of P(A/α) for |P| ≤ 1/2 on [-1,1].

    ``p`` may be any callable polynomial exposing ``degree()`` (numpy
    polynomial classes and ApproxPolynomial both do).  The sup-norm
    requirement is certified on a Chebyshev grid of 4·deg points; the
    transform is applied by exact spectral calculus on the factor and target
    diagonals (whose Hermitian parts are their real parts), and the ledger
    charges deg applications of the encoding plus one controlled use and
    O((n_A+1)·d) one/two-qubit gates.
    """
    _shared_eigen("polynomial_transform", [u_a])
    require_hermitian_target(u_a,
                             "polynomial transform target must be Hermitian")
    d = int(p.degree())
    _assert_poly_bounded(p, d)

    def apply_poly(w):
        return np.real(p(np.clip(w, -1.0, 1.0))).astype(complex)

    claim = 4.0 * d * math.sqrt(u_a.epsilon_claim / u_a.alpha)
    gates = (u_a.ancilla_qubits + 1) * d
    return DiagonalEncoding(
        u_a.eigen, apply_poly(u_a.factors.real), 1.0, claim,
        u_a.ancilla_qubits + 2, u_a.ledger.scaled(d + 1).charge(GATES, gates),
        apply_poly(u_a.target_diagonal.real / u_a.alpha))
