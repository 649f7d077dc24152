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

The Riemann sum takes M = min(M_paper, M_Φ) nodes for its quadrature budget
ε′ = ε‖u(T)‖/2.  With g(s) = e^{A(T−s)}b(s) and h = T/M, the left-Riemann
error is ‖Σ_k ∫_{t_k}^{t_k+h} (g(s) − g(t_k)) ds‖ ≤ h∫₀ᵀ‖g′‖, and
g′(s) = −Ae^{A(T−s)}b(s) + e^{A(T−s)}b′(s).  Two bounds on that follow:

- the paper's, T²e^{α̃T}/(2M)·sup(‖A‖‖b‖ + ‖b′‖), whose M grows linearly
  in ‖A‖ (``quadrature_error_bound`` and ``quadrature_nodes_for`` keep it);
- for normal A, where ‖Ae^{Aτ}‖ = φ(τ) = max_k |λ_k|e^{Re λ_k τ} and
  ‖e^{Aτ}‖ ≤ e^{α̃τ}, the bound (T/M)·[sup‖b‖·Φ + T·e^{α̃T}·sup‖b′‖], with
  Φ ≥ ∫₀ᵀφ from ``phi_bound``.  For heat Φ grows like log(T‖A‖).

The reported ``quadrature_bound`` is the smaller of the two at the M used.

Register-level binary encodings of eigenvalue data are simulated as exact
real-valued tags attached to each eigenindex: the compute / controlled
rotation / uncompute sandwich nets to exact per-index amplitude and phase
factors, which is how the block matrices below are assembled.
"""

from __future__ import annotations

import math
import sys
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
_LOG_MAX = math.log(sys.float_info.max)  # the largest x with e^x finite


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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """‖row‖ of each row of a complex (m, dim) array; on narrow rows a third
    of the time of ``np.linalg.norm(rows, axis=1)``."""
    return np.sqrt(np.einsum("ij,ij->i", rows.real, rows.real)
                   + np.einsum("ij,ij->i", rows.imag, rows.imag))


def _drive_sweep(p: OdeProblem, lam: np.ndarray) -> tuple[float, float,
                                                            float]:
    """sup over [0,T] of ‖A‖·‖b(t)‖ + ‖db/dt‖, of ‖b(t)‖ and of ‖db/dt‖, on
    one grid of _DRIVE_SAMPLES times sampled in batches of
    ``reference.time_batches`` rows."""
    src = p.inhomogeneous
    if not isinstance(src, SampledSource):
        raise ValueError("quadrature bounds need a sampled source")
    if src.derivative is None:
        raise ValueError("quadrature bounds need the source's derivative")
    norm_a = float(np.max(np.abs(lam)))
    drive = source = slope = 0.0
    for t in time_batches(np.linspace(0.0, p.horizon, _DRIVE_SAMPLES), p.dim):
        b = _row_norms(source_rows(src, t, p.dim))
        db = _row_norms(source_rows(src.derivative, t, p.dim))
        drive = max(drive, float(np.max(norm_a * b + db)))
        source = max(source, float(np.max(b)))
        slope = max(slope, float(np.max(db)))
    return drive, source, slope


def _bound_from_sup(T: float, alpha_t: float, M: int, sup: float) -> float:
    if M < 1:
        raise ValueError("need at least one node")
    return (T ** 2) * math.exp(alpha_t * T) / (2.0 * M) * sup


def _nodes_from_sup(T: float, alpha_t: float, eps_prime: float,
                    sup: float) -> int | float:
    if eps_prime <= 0:
        raise ValueError("eps_prime must be positive")
    return _node_count(
        (T ** 2) * math.exp(alpha_t * T) * sup / (2.0 * eps_prime))


def _node_count(need: float) -> int | float:
    """The least M ≥ 1 with M ≥ need; inf when need is not finite."""
    return max(1, math.ceil(need)) if math.isfinite(need) else math.inf


def quadrature_error_bound(p: OdeProblem, M: int) -> float:
    """Riemann-sum error bound T²e^{α̃T}/(2M) · sup(‖A‖‖b‖ + ‖db/dt‖)."""
    lam = _eigensystem(p).eigenvalues
    return _bound_from_sup(p.horizon, _alpha_tilde(lam), M,
                           _drive_sweep(p, lam)[0])


def quadrature_nodes_for(p: OdeProblem, eps_prime: float) -> int | float:
    """Node count M making the Riemann error bound at most eps_prime (inf
    when that count overflows a float)."""
    lam = _eigensystem(p).eigenvalues
    return _nodes_from_sup(p.horizon, _alpha_tilde(lam), eps_prime,
                           _drive_sweep(p, lam)[0])


def _decay_integral(rate: float, s: float, t: float) -> float:
    """∫_s^t rate·e^{−rate·τ} dτ, without cancellation."""
    return math.exp(-rate * s) * -math.expm1(-rate * (t - s))


def _decaying_phi(mags: np.ndarray, rates: np.ndarray, T: float) -> float:
    """An upper bound on ∫₀ᵀ max_k mags_k·e^{−rates_k τ} dτ, rates > 0.

    With L = max mags and ρ = max mags_k/rates_k, every term is at most
    min(L, ρ·m(τ)), where m(τ) = max over a in [min rates, max rates] of
    a·e^{−aτ}: the top rate's a_hi·e^{−a_hi τ} up to τ = 1/a_hi, then
    1/(eτ) up to 1/a_lo, then a_lo·e^{−a_lo τ}.  m decreases, so the
    integral is L up to the crossing τ_c of ρ·m with L, then ρ·∫m in
    closed form.  For a real spectrum (ρ = 1, L = a_hi) that is
    1 + ln(min(T, 1/a_lo)·a_hi)/e at most: logarithmic in ‖A‖.
    """
    top = float(np.max(mags))
    a_lo, a_hi = float(np.min(rates)), float(np.max(rates))
    with np.errstate(over="ignore"):  # an infinite ρ gives L·T below
        rho = float(np.max(mags / rates))
    if not math.isfinite(rho * a_hi):
        return top * T
    # ρ·m(τ) = L: in the first piece, the second or the third
    if rho * a_hi <= top * math.e:
        cross = max(0.0, math.log(rho * a_hi / top)) / a_hi
    elif rho / (math.e * top) <= 1.0 / a_lo:
        cross = rho / (math.e * top)
    else:
        cross = math.log(rho * a_lo / top) / a_lo
    if cross >= T:
        return top * T
    tail = 0.0
    first, second = 1.0 / a_hi, 1.0 / a_lo
    if cross < first:
        tail += _decay_integral(a_hi, cross, min(T, first))
    lo, hi = max(cross, first), min(T, second)
    if lo < hi:
        tail += math.log1p((hi - lo) / lo) / math.e
    if T > second:
        tail += _decay_integral(a_lo, max(cross, second), T)
    return top * cross + rho * tail


def phi_bound(lam: np.ndarray, T: float) -> float:
    """An upper bound on Φ = ∫₀ᵀ φ(τ) dτ, φ(τ) = max_k |λ_k|e^{Re λ_k τ},
    in O(N) closed forms: the sum of one bound per group of modes.

    - Re λ > 0: max|λ|·expm1(aT)/a with a = max Re λ (at least max|λ|·T).
    - Re λ < 0: ``_decaying_phi``; a tiny rate such as Re λ = −1e-17 makes
      ρ huge and the group's bound max|λ|·T.
    - Re λ = 0: T·max|λ|.
    """
    lam = np.asarray(lam)
    mags, rates = np.abs(lam), -lam.real
    total = 0.0
    growing = rates < 0.0
    if np.any(growing):
        a = float(np.max(-rates[growing]))
        total += float(np.max(mags[growing])) * max(T, math.expm1(a * T) / a)
    decaying = rates > 0.0
    if np.any(decaying):
        total += _decaying_phi(mags[decaying], rates[decaying], T)
    flat = rates == 0.0
    if np.any(flat):
        total += float(np.max(mags[flat])) * T
    return total


def _phi_quadrature_bound(T: float, alpha_t: float, M: int, phi: float,
                          source: float, slope: float) -> float:
    """(T/M)·[sup‖b‖·Φ + T·e^{α̃T}·sup‖b′‖]."""
    return T / M * (source * phi + T * math.exp(alpha_t * T) * slope)


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

    M defaults to the smaller of two node counts for ε′ = ε‖u(T)‖/2, both
    from one sweep of the drive: the paper's (``quadrature_nodes_for``),
    T²e^{α̃T}·sup(‖A‖‖b‖ + ‖b′‖)/(2ε′), and the spectral one,
    T·[sup‖b‖·Φ + T·e^{α̃T}·sup‖b′‖]/ε′ with Φ = ``phi_bound`` (see the
    module docstring for the derivation).  It is capped at
    MAX_RIEMANN_NODES; the error names both counts.  A given M is used as
    is.  ``extras`` reports M as ``nodes``, the paper's count as
    ``nodes_paper`` (None for a given M), both bounds at M, their minimum as
    ``quadrature_bound`` (which sets the claimed ε), and Φ as
    ``phi_bound``.  An α̃T whose e^{α̃T} overflows raises before the
    reference runs.
    """
    if not isinstance(p.inhomogeneous, SampledSource):
        raise ValueError("needs a sampled (callable) inhomogeneous term")

    T = p.horizon
    eigen = _eigensystem(p)
    lam = eigen.eigenvalues
    alpha_t = _alpha_tilde(lam)
    if alpha_t * T > _LOG_MAX:
        raise ValueError(f"e^(α̃T) overflows: α̃T = {alpha_t * T:.6g} "
                         f"exceeds {_LOG_MAX:.6g}")
    reference = solve_reference(p)
    norm_uT = float(np.linalg.norm(reference))
    if norm_uT <= TOL.zero:
        raise ValueError("u(T) vanishes; nothing to post-select")

    # one drive sweep serves both node counts and bounds; a given M with no
    # derivative skips it and reports no bound
    phi = phi_bound(lam, T)
    bound = bound_paper = nodes_paper = None
    if M is None or p.inhomogeneous.derivative is not None:
        drive, source, slope = _drive_sweep(p, lam)
        if M is None:
            eps_prime = eps * norm_uT / 2.0
            nodes_paper = _nodes_from_sup(T, alpha_t, eps_prime, drive)
            nodes_phi = _node_count(_phi_quadrature_bound(
                T, alpha_t, 1, phi, source, slope) / eps_prime)
            M = min(nodes_paper, nodes_phi)
            if M > MAX_RIEMANN_NODES:
                raise ValueError(
                    f"required Riemann node count M = {M} (paper bound "
                    f"{nodes_paper}, Φ bound {nodes_phi}) exceeds the "
                    f"configured cap {MAX_RIEMANN_NODES}")
        bound_paper = _bound_from_sup(T, alpha_t, M, drive)
        bound = min(bound_paper, _phi_quadrature_bound(T, alpha_t, M, phi,
                                                       source, slope))

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
        "nodes": M, "nodes_paper": nodes_paper,
        "avg_square_norm": plan.avg_square_norm, "alpha_tilde": alpha_t,
        "quadrature_bound": bound, "quadrature_bound_paper": bound_paper,
        "phi_bound": phi, "theta": theta, "branch_weight": weight,
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
