"""Exponentially fast-forwarded solvers for known eigensystems.

When A = U Λ U† with an implementable eigenbasis and classically computable
eigenvalues, e^{AT} and the Duhamel integral are zero-error block-encodings
built from constant numbers of oracle queries (6 in the real nonpositive
case, 10 in the general complex case, plus 2 uses of U), independent of T,
‖A‖ and the dimension.  A Riemann-sum linear combination of states extends
this to time-dependent inhomogeneous terms.  ``solve_eigen`` is the one
place that picks between the two solvers: ``solve_eigen_constant`` for no
source or a constant one, ``solve_eigen_timedep`` for a sampled source; both
end in ``qsvt_solvers``' LCS measurement and post-selection steps.

Every solver takes the :class:`OdeProblem` alone: its coefficient is the
eigensystem (a dense normal matrix is diagonalized by
``EigenSystem.from_matrix``), and each normalization is a function of the
spectrum fixed by the circuit that runs: e^{αT} and C(α,β,T) for the
constant-source circuit (``_shift``, ``_beta_floor``), e^{α̃T} with
α̃ = max(0, max Re λ) for the Riemann sum (``_alpha_tilde``).

Register-level binary encodings of eigenvalue data are simulated as exact
real-valued tags attached to each eigenindex: the compute / controlled
rotation / uncompute sandwich nets to exact per-index amplitude and phase
factors, which is how the block matrices below are assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_RIEMANN_NODES, TOL
from .block_encoding import (
    GATES, O_BNORM, O_BT, O_EXP, O_F, O_G, O_LAMBDA, O_LAMBDA_I, O_LAMBDA_R,
    O_PROD, O_T, O_U, U_EIG, BlockEncoding, DiagonalEncoding, QueryLedger,
)
from .linalg import EigenSystem
from .qsvt_solvers import SolveReport, _solve_lcs, lcs_branches, \
    post_selected_report
from .reference import (
    OdeProblem, SampledSource, exp_integral, kernel_C, solve_reference,
    source_rows, time_batches,
)

_DRIVE_SAMPLES = 4097  # grid points of the sup drive term


def _eigensystem(p: OdeProblem) -> EigenSystem:
    """The eigen oracles of p's coefficient: its own :class:`EigenSystem`, or
    the unitary eigensystem of a dense normal matrix, whose reconstruction
    ‖UΛU†−A‖ ≤ TOL.reconstruction ``EigenSystem.from_matrix`` checks."""
    if isinstance(p.coefficient, EigenSystem):
        return p.coefficient
    return EigenSystem.from_matrix(p.coefficient)


def _real_nonpositive(lam: np.ndarray) -> bool:
    return bool(np.all(np.abs(lam.imag) <= TOL.zero)
                and np.all(lam.real <= TOL.zero))


def _shift(lam: np.ndarray) -> float:
    """α of the constant-source circuit: 0 for a real nonpositive spectrum
    (the 6-query lemmas apply unshifted), otherwise the largest real part."""
    return 0.0 if _real_nonpositive(lam) else float(np.max(lam.real))


def _alpha_tilde(lam: np.ndarray) -> float:
    """α̃ = max(0, largest real part) of the Riemann-sum circuit."""
    return max(0.0, float(np.max(lam.real)))


def _beta_floor(lam: np.ndarray) -> float:
    """β of C(α,β,T): min |Im λ| when the whole spectrum is purely imaginary
    and nonzero (the Hamiltonian-like case where C = 2/β pays off), else 0,
    which keeps C valid for mixed spectra."""
    all_imag = np.all(np.abs(lam.real) <= TOL.zero)
    none_zero = np.all(np.abs(lam) > TOL.zero)
    if all_imag and none_zero:
        return float(np.min(np.abs(lam.imag)))
    return 0.0


def _dilate_diagonal(eigen: EigenSystem, factors: np.ndarray, alpha: float,
                     target: np.ndarray,
                     ledger: QueryLedger) -> DiagonalEncoding:
    """U diag(factors) U† encoding U diag(target) U†, both as diagonals.

    A factor within ``TOL.zero`` above 1 in magnitude is clamped to 1, and
    the claim grows by the clamp's displacement alpha·(max|f| − 1)₊.
    """
    mags = np.abs(factors)
    excess = max(0.0, float(np.max(mags)) - 1.0)
    if excess > TOL.zero:
        raise ValueError(f"diagonal factor exceeds 1: {np.max(mags)}")
    factors = factors / np.where(mags > 1.0, mags, 1.0)
    claim = TOL.verify_slack * max(1.0, alpha) + alpha * excess
    return DiagonalEncoding(eigen, factors, float(alpha), claim, 1, ledger,
                            target)


def be_exp_eigen(eigen: EigenSystem, T: float) -> BlockEncoding:
    """(e^{αT}, ·, 0)-block-encoding of e^{AT} from the eigen oracles, α the
    spectrum's ``_shift``.

    Real nonpositive spectra use the 6-query circuit (O_T, O_Λ, O_exp
    computed and uncomputed); anything else uses the 10-query complex
    circuit with separate real/imaginary eigenvalue registers and a phase
    gate.  Both charge exactly 2 uses of U.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    lam = eigen.eigenvalues
    alpha = _shift(lam)
    factors = np.exp((lam - alpha) * T)
    target = np.exp(lam * T)
    if _real_nonpositive(lam):
        ledger = QueryLedger({O_T: 2, O_LAMBDA: 2, O_EXP: 2, U_EIG: 2, GATES: 1})
    else:
        ledger = QueryLedger({O_T: 2, O_LAMBDA_R: 2, O_EXP: 2, O_LAMBDA_I: 2,
                              O_PROD: 2, U_EIG: 2, GATES: 4})
    return _dilate_diagonal(eigen, factors, math.exp(alpha * T), target, ledger)


def be_duhamel_eigen(eigen: EigenSystem, T: float) -> BlockEncoding:
    """Zero-error block-encoding of ∫₀ᵀ e^{A(T-s)} ds.

    Factors ``exp_integral`` over T for real nonpositive spectra (f, at
    min(Re λ, 0)), else over C(α,β,T) (f+ig; α the largest real part, β the
    spectrum's ``_beta_floor``).  |f+ig| > 1 + ``TOL.zero`` raises.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    lam = eigen.eigenvalues
    target = exp_integral(lam, T)
    if _real_nonpositive(lam):
        norm = T
        factors = exp_integral(np.minimum(lam.real, 0.0), T) / T
        ledger = QueryLedger({O_T: 2, O_LAMBDA: 2, O_F: 2, U_EIG: 2, GATES: 1})
    else:
        norm = kernel_C(float(np.max(lam.real)), _beta_floor(lam), T)
        factors = target / norm
        ledger = QueryLedger({O_T: 2, O_LAMBDA_R: 2, O_LAMBDA_I: 2, O_F: 2,
                              O_G: 2, U_EIG: 2, GATES: 4})
    mag = float(np.max(np.abs(factors)))
    if mag > 1.0 + TOL.zero:
        raise ValueError(f"|f+ig| = {mag:.6g} > 1: normalization C is "
                         "inconsistent with the eigenvalue")
    return _dilate_diagonal(eigen, factors, norm, target, ledger)


def solve_eigen_constant(p: OdeProblem) -> SolveReport:
    """The shared LCS driver ``qsvt_solvers._solve_lcs`` on the e^{AT} and,
    for a constant b, the Duhamel encoding.

    Both are zero-error, so the encoders ignore their ε budget and the output
    equals the normalized reference, claimed to ``TOL.exact_solver``.  With
    b None the circuit is the homogeneous post-selection, with success
    probability exactly (‖u(T)‖/(e^{αT}‖u0‖))².
    """
    eigen = _eigensystem(p)
    rep = _solve_lcs(p, TOL.exact_solver,
                     lambda eps0: be_exp_eigen(eigen, p.horizon),
                     lambda eps1: be_duhamel_eigen(eigen, p.horizon))
    rep.extras["alpha_shift"] = _shift(eigen.eigenvalues)
    return rep


@dataclass
class RiemannPlan:
    """Left-Riemann discretization of the Duhamel integral over M nodes."""

    nodes: int
    integral: np.ndarray     # (T/M) Σ_k e^{A(T-t_k)} b(t_k)
    avg_square_norm: float   # (1/M) Σ_k ‖b(t_k)‖²


def riemann_plan(b, T: float, M: int, eigen: EigenSystem) -> RiemannPlan:
    """Stream b over the M left-Riemann nodes t_k = kT/M in batches of
    ``reference.time_batches`` rows, keeping only the running
    Σ_k e^{Λ(T-t_k)} U†b(t_k) and Σ_k ‖b(t_k)‖²."""
    if M < 1:
        raise ValueError("need at least one node")
    src = b if isinstance(b, SampledSource) else SampledSource(b)
    lam = eigen.eigenvalues
    eigen_sum, square_sum = 0.0, 0.0
    for t in time_batches(np.arange(M) * (T / M), eigen.dim):
        rows = source_rows(src, t, eigen.dim)
        b_hat = eigen.apply_adjoint(rows.T)
        eigen_sum = eigen_sum + (np.exp(np.outer(lam, T - t[:, 0]))
                                 * b_hat).sum(axis=1)
        square_sum += float(np.sum(np.linalg.norm(rows, axis=1) ** 2))
    return RiemannPlan(M, eigen.apply(eigen_sum) * (T / M), square_sum / M)


def _sup_drive_term(p: OdeProblem, lam: np.ndarray) -> float:
    """sup over [0,T] of ‖A‖·‖b(t)‖ + ‖db/dt‖ on a grid of _DRIVE_SAMPLES,
    sampled in batches of ``reference.time_batches`` rows."""
    src = p.inhomogeneous
    if not isinstance(src, SampledSource):
        raise ValueError("quadrature bounds need a sampled source")
    if src.derivative is None:
        raise ValueError("quadrature bounds need the source's derivative")
    norm_a = float(np.max(np.abs(lam)))
    best = 0.0
    for t in time_batches(np.linspace(0.0, p.horizon, _DRIVE_SAMPLES), p.dim):
        terms = (norm_a * np.linalg.norm(source_rows(src, t, p.dim), axis=1)
                 + np.linalg.norm(source_rows(src.derivative, t, p.dim),
                                  axis=1))
        best = max(best, float(np.max(terms)))
    return best


def _bound_from_sup(T: float, alpha_t: float, M: int, sup: float) -> float:
    if M < 1:
        raise ValueError("need at least one node")
    return (T ** 2) * math.exp(alpha_t * T) / (2.0 * M) * sup


def _nodes_from_sup(T: float, alpha_t: float, eps_prime: float,
                    sup: float) -> int:
    if eps_prime <= 0:
        raise ValueError("eps_prime must be positive")
    return max(1, math.ceil(
        (T ** 2) * math.exp(alpha_t * T) * sup / (2.0 * eps_prime)))


def quadrature_error_bound(p: OdeProblem, M: int) -> float:
    """Riemann-sum error bound T²e^{α̃T}/(2M) · sup(‖A‖‖b‖ + ‖db/dt‖)."""
    lam = _eigensystem(p).eigenvalues
    return _bound_from_sup(p.horizon, _alpha_tilde(lam), M,
                           _sup_drive_term(p, lam))


def quadrature_nodes_for(p: OdeProblem, eps_prime: float) -> int:
    """Node count M making the Riemann error bound at most eps_prime."""
    lam = _eigensystem(p).eigenvalues
    return _nodes_from_sup(p.horizon, _alpha_tilde(lam), eps_prime,
                           _sup_drive_term(p, lam))


def _timedep_ledger(M: int) -> QueryLedger:
    # one controlled run of the proof circuit: homogeneous branch (10 oracle
    # queries + 2 U), b branch (8 factor queries + 2 U, no O_T), the two b
    # input oracles, and the Hadamard collapse of the time register
    n_t = max(1, math.ceil(math.log2(M))) if M > 1 else 1
    return QueryLedger({
        O_T: 2, O_LAMBDA_R: 4, O_LAMBDA_I: 4, O_EXP: 4, O_PROD: 4,
        U_EIG: 4, O_BT: 1, O_BNORM: 1, GATES: n_t + 2,
    })


def solve_eigen_timedep(p: OdeProblem, eps: float,
                        M: int | None = None) -> SolveReport:
    """Riemann-sum LCS solve for a time-dependent inhomogeneous term.

    Simulates the full circuit at amplitude level: a control rotation with
    weights e^{α̃T}‖u0‖ versus e^{α̃T}·T‖b‖_avg, a ‖b‖-weighted superposition
    over the M nodes, per-node application of the e^{A(T-kT/M)} diagonal
    factors, a Hadamard collapse of the time register and the final control
    Hadamard.  The success probability is exactly
    (‖ũ(T)‖ / (e^{α̃T} sqrt(2(‖u0‖² + T²‖b‖²_avg))))², α̃ = max(0, max Re λ).

    M defaults to the quadrature bound's choice for ε′ = ε‖u(T)‖/2 and is
    capped at MAX_RIEMANN_NODES (the required M is reported on failure).
    """
    if not isinstance(p.inhomogeneous, SampledSource):
        raise ValueError("needs a sampled (callable) inhomogeneous term")

    T = p.horizon
    eigen = _eigensystem(p)
    lam = eigen.eigenvalues
    alpha_t = _alpha_tilde(lam)
    reference = solve_reference(p)
    norm_uT = float(np.linalg.norm(reference))
    if norm_uT <= TOL.zero:
        raise ValueError("u(T) vanishes; nothing to post-select")

    # one drive sweep serves node count and bound; a given M with no
    # derivative skips it and reports no bound
    sup = None
    if M is None or p.inhomogeneous.derivative is not None:
        sup = _sup_drive_term(p, lam)
    if M is None:
        M = _nodes_from_sup(T, alpha_t, eps * norm_uT / 2.0, sup)
        if M > MAX_RIEMANN_NODES:
            raise ValueError(
                f"required Riemann node count M = {M} exceeds the configured "
                f"cap {MAX_RIEMANN_NODES}")
    bound = None if sup is None else _bound_from_sup(T, alpha_t, M, sup)

    plan = riemann_plan(p.inhomogeneous, T, M, eigen)
    hom = eigen.apply(np.exp(lam * T) * eigen.apply_adjoint(p.u0))
    u_tilde = hom + plan.integral

    scale = math.exp(alpha_t * T)
    success, theta, weight = lcs_branches(
        scale * float(np.linalg.norm(p.u0)),
        scale * T * math.sqrt(plan.avg_square_norm), u_tilde)
    claimed = eps
    if bound is not None:
        claimed = max(eps, 2.0 * bound / norm_uT + TOL.exact_solver)
    report = post_selected_report(success, 1.0, reference,
                                  _timedep_ledger(M).charge(O_U, 1),
                                  min(1.0, claimed))
    report.extras.update({
        "nodes": M, "avg_square_norm": plan.avg_square_norm,
        "alpha_tilde": alpha_t, "quadrature_bound": bound, "theta": theta,
        "branch_weight": weight,
    })
    return report


def solve_eigen(p: OdeProblem, eps: float,
                M: int | None = None) -> SolveReport:
    """The one router to the eigen solvers: a :class:`SampledSource` takes
    the Riemann sum (the only path reading ``eps`` and ``M``), no source or a
    constant one ``solve_eigen_constant``."""
    if isinstance(p.inhomogeneous, SampledSource):
        return solve_eigen_timedep(p, eps, M=M)
    return solve_eigen_constant(p)
