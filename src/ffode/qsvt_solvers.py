"""Quadratically fast-forwarded solvers and the shared LCS driver.

Two solver families: bounded negative-definite Hermitian coefficients
(spectrum in [-1, -δ]) and negative semi-definite A = -H² given through a
block-encoding of H.  Both produce block-encodings of e^{AT} and of the
Duhamel integral ∫₀ᵀ e^{A(T-s)} ds, then run an amplitude-level simulation of
the linear-combination-of-states circuit with exact success probabilities and
per-run query ledgers.  Both take a DiagonalEncoding, the eigenbasis
``exact_dilation`` makes of a Hermitian matrix, and reject any other encoding
at entry, as every calculus rule of ``block_encoding`` does: the calculus has
one, diagonal, path.  ``_solve_lcs`` is the one constant-source LCS driver,
also of ``eigen_solvers.solve_eigen_constant``.  Every solver ends in
``post_selected_report``, and every two-branch circuit in ``lcs_branches``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import AA_CONSTANT, TOL
from .block_encoding import (
    GATES, O_B, O_U, BlockEncoding, DiagonalEncoding, QueryLedger,
    StatePreparationPair, exact_dilation, invert, lcu_combine, multiply,
    polynomial_transform, require_hermitian_target, ry,
)
from .linalg import as_vector, global_phase_distance, spectral_norm
from .poly_approx import approx_exp_shifted, approx_gaussian, \
    approx_gaussian_integral
from .reference import OdeProblem, SampledSource, exp_integral, solve_reference


def repeat_estimates(success_probability: float) -> tuple[int, int]:
    """(without, with) amplitude amplification: ceil(1/p) and ceil(c/sqrt(p))."""
    p = success_probability
    return math.ceil(1.0 / p), math.ceil(AA_CONSTANT / math.sqrt(p))


@dataclass
class SolveReport:
    """Outcome of one simulated solver run.

    The ledger counts oracle uses of a *single* circuit execution; multiply by
    a repeat estimate for end-to-end counts.  ``error_vs_reference`` is the
    global-phase-quotiented 2-norm distance to the normalized reference.  A
    success probability within ``TOL.zero`` of 1 is reported as exactly 1,
    and the repeat estimates are derived from the reported probability.
    """

    output_state: np.ndarray
    success_probability: float
    ledger: QueryLedger
    error_vs_reference: float
    claimed_eps: float
    extras: dict = field(default_factory=dict)
    repeats_no_aa: int = field(init=False)
    repeats_aa: int = field(init=False)

    def __post_init__(self):
        if abs(self.success_probability - 1.0) <= TOL.zero:
            self.success_probability = 1.0
        if not 0.0 < self.success_probability <= 1.0:
            raise ValueError(
                f"success probability {self.success_probability} out of range")
        if not self.error_vs_reference <= self.claimed_eps + TOL.verify_slack:
            raise ValueError(
                f"solver error {self.error_vs_reference:.3e} exceeds its claim "
                f"{self.claimed_eps:.3e}")
        self.repeats_no_aa, self.repeats_aa = repeat_estimates(
            self.success_probability)


def _hermitian_diagonal(be: BlockEncoding, name: str) -> np.ndarray:
    """The real target diagonal of ``be``: the one entry check of the QSVT
    solvers, which raises unless ``be`` is a DiagonalEncoding (the
    ``exact_dilation`` of a Hermitian matrix) with a Hermitian target."""
    if not isinstance(be, DiagonalEncoding):
        raise ValueError(
            f"{name} needs a DiagonalEncoding, the exact_dilation of a "
            f"Hermitian matrix; got a dense {type(be).__name__}")
    require_hermitian_target(be, f"{name} must be Hermitian")
    return be.target_diagonal.real


def _check_negdef(u_a: BlockEncoding, delta: float) -> None:
    """Raise unless u_a is a DiagonalEncoding of a Hermitian target with its
    spectrum in [-1, -δ]: its target diagonal, each eigenvalue within its
    ``eigenvalue_spread``."""
    w = _hermitian_diagonal(u_a, "coefficient")
    spread = u_a.eigenvalue_spread()
    if not (np.max(w) + spread <= -delta + 1e-12
            and np.min(w) - spread >= -1.0 - 1e-12):
        raise ValueError(
            f"spectrum {w} is not inside [-1, -δ] with δ = {delta}")


def _half_shift(u_a: DiagonalEncoding) -> DiagonalEncoding:
    """(1, n_A+1, 0)-encoding of (I+A)/2 from the (1, n_A, 0)-encoding of A.

    The circuit (H ⊗ I) c-U_A (H ⊗ I) has the leading block (I + block)/2.
    """
    return DiagonalEncoding(u_a.eigen, (1.0 + u_a.factors) / 2.0, 1.0, 0.0,
                            u_a.ancilla_qubits + 1,
                            u_a.ledger.charge(GATES, 2),
                            (1.0 + u_a.target_diagonal) / 2.0)


def be_exp_negdef(u_a: DiagonalEncoding, T: float, delta: float,
                  eps: float) -> DiagonalEncoding:
    """(3, n_A+4, ε)-block-encoding of e^{AT} for negative-definite A.

    Pipeline: Hadamard-pair LCU turns the (1, n_A, 0)-encoding of A into a
    (1, n_A+1, 0)-encoding of (I+A)/2; uniform singular-value amplification
    (simulated exactly, charged at ceil((1/δ)·ln(1/ε₁)) uses) lifts it to a
    (1, n_A+2, ε₁)-encoding of I+A; a degree-d Chebyshev approximant of
    e^{-T(1-x)}/3 is then applied by QSVT.  Error split: the approximant gets
    ε/2 and the amplification ε₁ = (ε/(24d))² so the QSVT term 12d·sqrt(ε₁)
    also stays below ε/2.  ``u_a`` must be a DiagonalEncoding
    (``exact_dilation`` of a Hermitian A); any other encoding raises.
    """
    _check_negdef(u_a, delta)
    return _exp_negdef(u_a, T, delta, eps)


def _exp_negdef(u_a: DiagonalEncoding, T: float, delta: float,
                eps: float) -> DiagonalEncoding:
    """``be_exp_negdef`` on an encoding ``_check_negdef`` has passed."""
    if abs(u_a.alpha - 1.0) > 1e-12:
        raise ValueError("the negative-definite pipeline expects alpha = 1")
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    v2 = _half_shift(u_a)

    # uniform amplification to (1, n_A+2, ε₁)-encoding of I+A; the block is
    # amplified exactly, the ledger charges the advertised query cost
    poly = approx_exp_shifted(T, eps / 2.0)
    d = poly.degree()
    eps1 = (eps / (24.0 * max(d, 1))) ** 2
    q_amp = max(1, math.ceil((1.0 / delta) * math.log(1.0 / eps1)))
    amplified = DiagonalEncoding(v2.eigen, 2.0 * v2.alpha * v2.factors, 1.0,
                                 eps1, v2.ancilla_qubits + 1,
                                 v2.ledger.scaled(q_amp),
                                 1.0 + u_a.target_diagonal)

    out = polynomial_transform(amplified, poly.scaled(1.0 / 3.0))
    return out.reattached(np.exp(u_a.target_diagonal.real * T), eps,
                          alpha=3.0)


def be_duhamel_negdef(u_a: DiagonalEncoding, T: float, delta: float,
                      eps: float) -> DiagonalEncoding:
    """(16/(3δ), 2n_A+6, ε)-block-encoding of ∫₀ᵀ e^{A(T-s)} ds.

    Combines e^{AT} and -I through the (4,1,0)-state-preparation pair of
    (3,-1) realized by R_y(±π/3), then multiplies by the inverse encoding.
    The error budget puts ε/2 on each factor of the product rule
    4ε″ + 16ε′/(9δ), i.e. ε′ = 9δε/32 and ε″ = ε/8.  ``u_a`` must be a
    DiagonalEncoding, as for ``be_exp_negdef``.
    """
    _check_negdef(u_a, delta)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    eps_exp = 9.0 * delta * eps / 32.0
    eps_inv = eps / 8.0
    w = u_a.target_diagonal.real

    u_exp = _exp_negdef(u_a, T, delta, eps_exp)
    # view the (3,·,ε′)-encoding of e^{AT} as a (1,·,ε′/3)-encoding of e^{AT}/3
    u_exp_unit = u_exp.reattached(np.exp(w * T) / 3.0, eps_exp / 3.0,
                                  alpha=1.0)
    ones = np.ones(u_a.system_dim, dtype=complex)
    ident = DiagonalEncoding(u_a.eigen, ones, 1.0, 0.0, u_exp.ancilla_qubits,
                             QueryLedger(), ones)
    pair = StatePreparationPair(ry(math.pi / 3.0), ry(-math.pi / 3.0), 4.0)
    shifted = lcu_combine(pair, [u_exp_unit, ident])

    u_inv = invert(u_a, delta, eps_inv)
    prod = multiply(shifted, u_inv)
    return prod.reattached(exp_integral(w, T), eps)


def lcs_branches(w0: float, w1: float,
                 weighted_sum: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The two-branch LCS measurement: (amplitudes, θ, ‖w‖) for the control
    angle θ = -2·arcsin(w₁/‖w‖) and the final Hadamard, which leaves
    (w₀v₀ + w₁v₁)/(√2‖w‖) on |0> for ``weighted_sum`` = w₀v₀ + w₁v₁."""
    weight = math.hypot(w0, w1)
    theta = -2.0 * math.asin(w1 / weight)
    return weighted_sum / (math.sqrt(2.0) * weight), theta, weight


def post_selected_report(amplitudes: np.ndarray, prior_p: float,
                         reference: np.ndarray, ledger: QueryLedger,
                         claimed_eps: float) -> SolveReport:
    """Post-selected amplitudes as a :class:`SolveReport`: p =
    ``prior_p``·‖amplitudes‖² (``prior_p`` of an earlier post-selection, else
    1; p ≤ 1e-28 raises), the normalized output and its global-phase distance
    to the normalized reference."""
    norm = np.linalg.norm(amplitudes)
    prob = prior_p * float(norm ** 2)
    if prob <= 1e-28:
        raise ValueError("degenerate instance: success probability is zero "
                         "(u(T) vanishes within tolerance)")
    out = amplitudes / norm
    err = global_phase_distance(out, reference / np.linalg.norm(reference))
    return SolveReport(out, prob, ledger, err, claimed_eps)


def lcs_combine_and_measure(u0, b, be0: BlockEncoding,
                            be1: BlockEncoding | None,
                            reference: np.ndarray, eps: float) -> SolveReport:
    """Amplitude-level simulation of the linear-combination-of-states circuit.

    A control qubit is rotated to weights (α₀‖u0‖, α₁‖b‖), the controlled
    state preparations and controlled encodings are applied, a final Hadamard
    recombines the branches (``lcs_branches``), and control+ancilla are
    post-selected on zero (``post_selected_report``).  Returns the exact
    post-selected state and success probability.

    With b absent (or zero) the control qubit degenerates to the
    homogeneous post-selection with probability (‖ũ(T)‖/(α₀‖u0‖))².
    """
    u0 = as_vector(u0)
    nu = float(np.linalg.norm(u0))
    if nu <= 0:
        raise ValueError("u0 must be nonzero")
    nb = 0.0 if b is None else float(np.linalg.norm(as_vector(b)))

    # U·|0>|v̂> post-selected on the all-zero ancillas leaves block·v̂, which
    # every encoding computes through apply
    if nb == 0.0:
        # degenerate θ = 0 branch: the control stays |0> and only U₀ acts
        success = be0.apply(u0 / nu)
        ancillas = be0.ancilla_qubits
        ledger = be0.ledger.charge(O_U, 1)
        alpha1 = 0.0
        theta = 0.0
        weight = be0.alpha * nu
    else:
        if be1 is None:
            raise ValueError("an inhomogeneous run needs the integral encoding")
        # both encodings act on one ancilla register, plus the control qubit
        ancillas = max(be0.ancilla_qubits, be1.ancilla_qubits) + 1
        w0 = be0.alpha * nu
        w1 = be1.alpha * nb
        v0 = be0.apply(u0 / nu)
        v1 = be1.apply(as_vector(b) / nb)
        success, theta, weight = lcs_branches(w0, w1, w0 * v0 + w1 * v1)
        ledger = (be0.ledger + be1.ledger).charge(O_U, 1).charge(O_B, 1) \
            .charge(GATES, 4)
        alpha1 = be1.alpha

    report = post_selected_report(success, 1.0, reference, ledger, eps)
    report.extras.update({
        "alpha0": be0.alpha, "alpha1": alpha1, "theta": theta,
        "branch_weight": weight, "ancilla_qubits": ancillas,
    })
    return report


def _solve_lcs(p: OdeProblem, eps: float, encode_exp,
               encode_duhamel) -> SolveReport:
    """The constant-source LCS solve of every family (negdef, sqrt, eigen).

    Checks that u(T) does not vanish, splits ε into the component budgets
    ε₀ = ε‖u(T)‖/(2‖u0‖) without b, or ε₀ = ε‖u(T)‖/(4‖u0‖) and
    ε₁ = ε‖u(T)‖/(4‖b‖) with b, and runs the LCS circuit on
    ``encode_exp(min(ε₀, 0.24))`` and ``encode_duhamel(ε₁)``; each Duhamel
    encoder applies its own cap to ε₁.
    """
    b = p.inhomogeneous
    if isinstance(b, SampledSource):
        raise ValueError("the constant-source LCS solve needs a constant b "
                         "or none")
    reference = solve_reference(p)
    norm_uT = float(np.linalg.norm(reference))
    if norm_uT <= TOL.zero:
        raise ValueError("u(T) vanishes; nothing to post-select")
    nu = float(np.linalg.norm(p.u0))
    split = 2.0 if b is None else 4.0
    be0 = encode_exp(min(norm_uT * eps / (split * nu), 0.24))
    be1 = None if b is None else encode_duhamel(
        norm_uT * eps / (4.0 * float(np.linalg.norm(b))))
    return lcs_combine_and_measure(p.u0, b, be0, be1, reference, eps)


def solve_negdef(p: OdeProblem, delta: float, eps: float) -> SolveReport:
    """End-to-end fast-forwarded solve for negative-definite Hermitian A.

    Builds the e^{AT} and Duhamel encodings at the LCS error budgets, then
    simulates the combination circuit.  The per-run ledger follows the
    sqrt(T)/δ · polylog shape of the underlying constructions.  A Hermitian
    A is diagonalized once by ``exact_dilation``, and every construction
    and check stays on that eigenbasis.
    """
    u_a = exact_dilation(p.matrix, 1.0)
    T = p.horizon
    return _solve_lcs(
        p, eps, lambda eps0: be_exp_negdef(u_a, T, delta, eps0),
        lambda eps1: be_duhamel_negdef(u_a, T, delta, min(eps1, 0.49)))


def solve_sqrt_access(p: OdeProblem, u_h: DiagonalEncoding,
                      eps: float) -> SolveReport:
    """Fast-forwarded solve for A = -H² through a block-encoding of H.

    e^{AT} comes from the even gaussian approximant of e^{-βx²} with
    β = T·α_H² (normalization 3); the Duhamel integral from the integrated
    gaussian (normalization 3T).  Constant b or none.  ``u_h`` must be a
    DiagonalEncoding (``exact_dilation`` of a Hermitian H; any other
    encoding raises), and every transform, and -H², stays on its eigenbasis.
    """
    hw = _hermitian_diagonal(u_h, "H")
    # ‖X‖₂ ≤ ‖X‖_F, so the Frobenius norm proves the 1e-9 check without an
    # SVD; only when it does not, the spectral norm decides
    defect = u_h.eigen.apply_function(lambda _: -hw * hw) - p.matrix
    if np.linalg.norm(defect) > 1e-9 and spectral_norm(defect) > 1e-9:
        raise ValueError("problem coefficient does not equal -H²")

    T = p.horizon
    beta = T * u_h.alpha ** 2
    exp_target = np.exp(-T * hw ** 2)
    fits = []

    def encode(poly, target, tol, alpha):
        fits.append(poly)
        out = polynomial_transform(u_h, poly.scaled(1.0 / 3.0))
        return out.reattached(target, tol, alpha=alpha)

    def encode_duhamel(eps1):
        eps1 = min(eps1, 0.24)
        return encode(approx_gaussian_integral(beta, eps1 / T),
                      exp_integral(-hw ** 2, T), eps1, 3.0 * T)

    rep = _solve_lcs(p, eps, lambda eps0: encode(
        approx_gaussian(beta, eps0), exp_target, eps0, 3.0), encode_duhamel)
    rep.extras["beta"] = beta
    rep.extras["gaussian_degree"] = fits[0].degree()
    return rep
