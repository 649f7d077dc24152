"""Query-complexity lower-bound witnesses, certified numerically.

Each witness constructor builds the concrete instance used in the
corresponding hardness argument (a coefficient matrix, two nearly identical
initial states and an evolution time), evolves it with the independent
Duhamel reference, and certifies every inequality the argument rests on:
initial overlap, final-fidelity ceiling, and the displayed Ω(1) trace
distances; both real-part-gap witnesses are built by ``_realpart_gap_pair``
and both 3×3 non-normal ones by ``_nonnormal_pair``.  The amplifier
framework (worst-case prepare-oracle pairs and the 2q·sqrt(2ε) circuit
bound) and the equilibrium reduction are certified the same way; an
amplifier circuit applies each oracle slot to the state and never forms a
2^a·d slot matrix.  A pass/fail spectral-norm threshold passes on the
Frobenius norm, as ‖X‖₂ ≤ ‖X‖_F, and takes an SVD only when that norm
exceeds it (``_norm_exceeds``).  The asymptotic statements themselves are
not "tested"; what is checked is every concrete inequality they rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .linalg import (
    as_square, as_state, as_vector, global_phase_distance, logarithmic_norm,
    matrix_exponential, non_normality, spectral_norm, unitary_with_first_column,
)
from .reference import OdeProblem, solve_reference


def inequality_holds(measured: float, bound: float, direction: str) -> bool:
    """measured <=, >= or == bound (by ``direction``), up to 1e-10."""
    return {"<=": measured <= bound + 1e-10, ">=": measured >= bound - 1e-10,
            "==": abs(measured - bound) <= 1e-10}[direction]


@dataclass
class WitnessPair:
    """A certified hard instance: one ODE, two nearby initial states.

    ``certified`` maps inequality names to (measured, bound) pairs; every
    measured value satisfies its bound at construction time or the
    constructor raises.
    """

    family: str
    coefficient: np.ndarray
    u0: np.ndarray
    w0: np.ndarray
    horizon: float
    b: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    certified: dict = field(default_factory=dict)

    def check(self, name: str, measured: float, bound: float,
              direction: str = "<=") -> None:
        if not inequality_holds(measured, bound, direction):
            raise ValueError(
                f"witness {self.family}: {name} fails ({measured:.8g} "
                f"{direction} {bound:.8g})")
        self.certified[name] = (float(measured), float(bound), direction)


def _norm_exceeds(x: np.ndarray, bound: float) -> bool:
    """‖x‖₂ > bound: False when ‖x‖_F ≤ bound, as ‖x‖₂ ≤ ‖x‖_F, and
    otherwise (a NaN included) decided by the SVD."""
    return not np.linalg.norm(x) <= bound and spectral_norm(x) > bound


def _fidelity(x, y) -> float:
    xv, yv = as_vector(x), as_vector(y)
    return abs(np.vdot(xv, yv)) / (np.linalg.norm(xv) * np.linalg.norm(yv))


def _evolved_pair(pair: WitnessPair) -> tuple[np.ndarray, np.ndarray]:
    pu = OdeProblem(pair.coefficient, pair.u0, pair.horizon, pair.b)
    pw = OdeProblem(pair.coefficient, pair.w0, pair.horizon, pair.b)
    return solve_reference(pu), solve_reference(pw)


def _realpart_gap_pair(family: str, basis: np.ndarray, eigenvalues,
                       eps: float, horizon, driven: bool = False) -> WitnessPair:
    """Both real-part-gap witnesses: A = VΛV⁻¹ for an invertible basis V of
    unit columns, the eigenvectors v1, v2 of the largest and smallest real
    parts α1, α2 (not parallel; v2's phase rotated so g = <v1|v2> ≥ 0),
    u(0) = v2, w(0) = sqrt(eps)·v1 + ξ·v2 with ξ the normalizing root, b = v2
    when ``driven``, and (T, extra params) = horizon(α1, α2), which raises
    when the family's condition on α1, α2 fails.  Certifies unit initial
    states, |ξ| ≤ 1+sqrt(2) and the initial overlap ≥ sqrt(1-eps).
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    v = as_square(basis)
    lam = as_vector(eigenvalues)
    if np.linalg.cond(v) > 1e12:
        raise ValueError("eigenbasis must be invertible")
    if np.max(np.abs(np.linalg.norm(v, axis=0) - 1.0)) > 1e-10:
        raise ValueError("eigenvector columns must be unit norm")
    i_hi = int(np.argmax(lam.real))
    i_lo = int(np.argmin(lam.real))
    T, extra = horizon(float(lam.real[i_hi]), float(lam.real[i_lo]))
    v1 = v[:, i_hi]
    v2 = v[:, i_lo]
    g_raw = np.vdot(v1, v2)
    if abs(g_raw) >= 1.0 - 1e-12:
        raise ValueError("v1 and v2 are parallel; normalization is insolvable")
    phase = g_raw / abs(g_raw) if abs(g_raw) > 1e-14 else 1.0
    v2 = v2 * np.conj(phase)
    g = float(np.real(np.vdot(v1, v2)))

    xi = -math.sqrt(eps) * g + math.sqrt(eps * g * g + 1.0 - eps)
    u0 = v2.copy()
    w0 = math.sqrt(eps) * v1 + xi * v2
    a = (v * lam) @ np.linalg.inv(v)
    pair = WitnessPair(family, a, u0, w0, T, b=v2.copy() if driven else None,
                       params={"eps": eps, **extra, "xi": xi, "overlap": g})
    pair.check("initial_norm_u", abs(np.linalg.norm(u0) - 1.0), 1e-12)
    pair.check("initial_norm_w", abs(np.linalg.norm(w0) - 1.0), 1e-12)
    pair.check("xi_bound", abs(xi), 1.0 + math.sqrt(2.0))
    pair.check("initial_overlap", _fidelity(u0, w0), math.sqrt(1.0 - eps), ">=")
    return pair


def witness_realpart_gap(basis: np.ndarray, eigenvalues, eps: float) -> WitnessPair:
    """Homogeneous hard pair for a coefficient with an eigenvalue real-part gap.

    The ``_realpart_gap_pair`` states evolve to T = log(1/eps)/(2·gap), where
    sqrt(eps)·e^{gap·T} = 1 exactly.  Also certifies that identity and the
    final-fidelity ceiling, which depends only on g = <v1|v2>.
    """
    def horizon(top, bottom):
        gap = top - bottom
        if gap <= TOL.zero:
            raise ValueError("no real-part gap: all eigenvalues share a real part")
        return math.log(1.0 / eps) / (2.0 * gap), {"gap": gap}

    pair = _realpart_gap_pair("realpart-gap", basis, eigenvalues, eps, horizon)
    gap, g, T = pair.params["gap"], pair.params["overlap"], pair.horizon
    # the implied query floor: sqrt(eps)·e^{gap·T} = 1 at the constructed T
    pair.check("query_floor_identity",
               abs(math.sqrt(eps) * math.exp(gap * T) - 1.0), 1e-10)
    uT, wT = _evolved_pair(pair)
    shift = 2.0 * (3.0 + 2.0 * math.sqrt(2.0))
    ceiling = math.sqrt((2.0 * g * g + shift) / (1.0 + g * g + shift))
    pair.check("final_fidelity", _fidelity(uT, wT), ceiling)
    pair.params["implied_queries"] = 1.0 / math.sqrt(eps)
    pair.params["fidelity_bound"] = ceiling
    return pair


def _nonnormal_pair(family: str, delta: float, a: np.ndarray, b,
                    closed: dict, ceiling: float, margin: float,
                    floor_bound: float) -> WitnessPair:
    """Both 3×3 non-normal witnesses: u(0) = e₃, w(0) = (0, δ, sqrt(1-δ²)),
    T = 1.  Certifies μ(A) = (1+δ²)^{1/4}/δ, the initial overlap, u(T) and
    w(T) against the two ``closed`` forms (by name), the fidelity
    ``ceiling``, the floor 2·sqrt(1 - (ceiling + margin)²) ≥ ``floor_bound``
    on the Schatten-1 distance of outputs within margin/2 of the true
    states, and the exact distance above that floor.
    """
    u0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    w0 = np.array([0.0, delta, math.sqrt(1.0 - delta ** 2)], dtype=complex)
    pair = WitnessPair(family, a, u0, w0, 1.0, b=b, params={"delta": delta})
    mu = non_normality(a)
    mu_closed = (1.0 + delta ** 2) ** 0.25 / delta
    pair.check("mu_closed_form", abs(mu - mu_closed), 1e-10)
    pair.check("initial_overlap", _fidelity(u0, w0),
               math.sqrt(1.0 - delta ** 2) - 1e-12, ">=")
    uT, wT = _evolved_pair(pair)
    for (name, want), got in zip(closed.items(), (uT, wT)):
        pair.check(name, float(np.linalg.norm(got - want)), 1e-10)
    fid = _fidelity(uT, wT)
    pair.check("final_fidelity", fid, ceiling)
    worst = min(1.0, ceiling + margin)
    floor = 2.0 * math.sqrt(1.0 - worst ** 2)
    pair.check("perturbed_trace_distance_floor", floor, floor_bound, ">=")
    exact_dist = 2.0 * math.sqrt(1.0 - fid ** 2)
    pair.check("exact_trace_distance", exact_dist, floor, ">=")
    pair.params.update({"mu": mu, "fidelity_bound": ceiling,
                        "trace_distance_floor": floor})
    return pair


def witness_nonnormal_homogeneous(delta: float) -> WitnessPair:
    """The ``_nonnormal_pair`` with purely imaginary spectrum,
    A = [[i, i/δ, 0], [0, 2i, 0], [0, 0, 3i]]: the proof's closed forms, the
    ceiling 1/sqrt(|e^{2i}-e^{i}|² + 1) and the 0.77 floor for outputs
    within 1/10 of the true states."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    a = np.array([[1j, 1j / delta, 0.0], [0.0, 2j, 0.0], [0.0, 0.0, 3j]])
    closed = {
        "evolved_u_matches_proof": np.array([0.0, 0.0, np.exp(3j)]),
        "evolved_w_matches_proof": np.array([
            np.exp(2j) - np.exp(1j),
            np.exp(2j) * delta,
            np.exp(3j) * math.sqrt(1.0 - delta ** 2),
        ]),
    }
    ceiling = 1.0 / math.sqrt(abs(np.exp(2j) - np.exp(1j)) ** 2 + 1.0)
    return _nonnormal_pair("nonnormal-homogeneous", delta, a, None, closed,
                           ceiling, 0.2, 0.77)


def witness_realpart_gap_inhomogeneous(basis: np.ndarray, eigenvalues,
                                       eps: float) -> WitnessPair:
    """Inhomogeneous hard pair; needs a positive top real part.

    The ``_realpart_gap_pair`` states with b = v2; T solves
    sqrt(eps)·e^{γ'T} = 1 + sqrt(2) + T with γ' = min(α1, α1-α2), found by
    bisection (the proof's monotonicity argument makes the root unique).
    Also certifies the root residual and the ceiling sqrt((2g²+2)/(3+g²)).
    """
    def root_fn(t, gamma):
        return math.sqrt(eps) * math.exp(gamma * t) - (1.0 + math.sqrt(2.0) + t)

    def horizon(top, bottom):
        if top <= 0 or top - bottom <= 0:
            raise ValueError("needs a positive top real part and a real-part gap")
        gamma = min(top, top - bottom)
        lo, hi = 0.0, (math.log(1.0 / eps) + 10.0) / gamma
        if root_fn(hi, gamma) <= 0:
            raise ValueError("bisection bracket failed to contain the root")
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if root_fn(mid, gamma) > 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2.0, {"gamma": gamma}

    pair = _realpart_gap_pair("realpart-gap-inhomogeneous", basis, eigenvalues,
                              eps, horizon, driven=True)
    gamma, g, T = pair.params["gamma"], pair.params["overlap"], pair.horizon
    pair.check("bisection_residual", abs(root_fn(T, gamma)), 1e-9)
    uT, wT = _evolved_pair(pair)
    ceiling = math.sqrt((2.0 * g * g + 2.0) / (3.0 + g * g))
    pair.check("final_fidelity", _fidelity(uT, wT), ceiling)
    pair.params["implied_queries"] = math.exp(gamma * T) / (T + 1 + math.sqrt(2))
    pair.params["fidelity_bound"] = ceiling
    return pair


def witness_nonnormal_inhomogeneous(delta: float) -> WitnessPair:
    """The inhomogeneous ``_nonnormal_pair``, A = [[-1, -1/δ, 0], [0, -2, 0],
    [0, 0, -1/2]] and b = e₃: the Duhamel closed forms (u₃(1) = 2 - e^{-1/2}),
    the ceiling 1/sqrt(1 + (e-1)²/(4e⁴)) and the 0.19 floor for outputs
    within 1/1000 of the true states."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    a = np.array([[-1.0, -1.0 / delta, 0.0], [0.0, -2.0, 0.0],
                  [0.0, 0.0, -0.5]], dtype=complex)
    b = np.array([0.0, 0.0, 1.0], dtype=complex)
    closed = {
        "evolved_u_matches_duhamel": np.array([0.0, 0.0, 2.0 - math.exp(-0.5)]),
        "evolved_w_matches_duhamel": np.array([
            -math.exp(-1.0) + math.exp(-2.0),
            math.exp(-2.0) * delta,
            2.0 - (2.0 - math.sqrt(1.0 - delta ** 2)) * math.exp(-0.5),
        ]),
    }
    e = math.e
    ceiling = 1.0 / math.sqrt(1.0 + (e - 1.0) ** 2 / (4.0 * e ** 4))
    return _nonnormal_pair("nonnormal-inhomogeneous", delta, a, b, closed,
                           ceiling, 2.0 / 1000.0, 0.19)


def witness_imaginary_time(h: np.ndarray, T: float) -> WitnessPair:
    """Imaginary-time decay witness for PSD Hermitian H with λ_min = 0.

    u(0) is the top eigenstate, so ξ = ‖e^{-HT}|u(0)>‖ = e^{-‖H‖T} and the
    gap identity e^{T·gap}·ξ = 1 holds exactly.
    """
    hm = as_square(h)
    if _norm_exceeds(hm - hm.conj().T, 1e-10):
        raise ValueError("H must be Hermitian")
    w, v = np.linalg.eigh(hm)
    if w[0] < -1e-10 or abs(w[0]) > 1e-10:
        raise ValueError("H must be PSD with smallest eigenvalue 0")
    if T <= 0:
        raise ValueError("T must be positive")
    top = v[:, -1]
    xi = math.exp(-float(w[-1]) * T)
    pair = WitnessPair("imaginary-time", -hm, top, top, T,
                       params={"xi": xi, "norm_h": float(w[-1])})
    decayed = solve_reference(OdeProblem(-hm, top, T))
    pair.check("xi_matches_decay", abs(np.linalg.norm(decayed) - xi), 1e-12)
    gap = float(w[-1] - w[0])
    pair.check("gap_identity", abs(math.exp(T * gap) * xi - 1.0), 1e-12)
    pair.params["implied_queries"] = 1.0 / xi
    return pair


def shifting_equivalence_check(a: np.ndarray, shift: float, u0,
                               T: float) -> bool:
    """A and A + cI (real c) give the same normalized solution.

    Also checks that the real-part gap and μ are invariant under the shift.
    Returns True when all three hold to 1e-10.
    """
    am = as_square(a)
    u0 = as_vector(u0)
    shifted = am + shift * np.eye(am.shape[0])
    out_a = matrix_exponential(am, T) @ u0
    out_b = matrix_exponential(shifted, T) @ u0
    na, nb = np.linalg.norm(out_a), np.linalg.norm(out_b)
    if na <= TOL.zero or nb <= TOL.zero:
        raise ValueError("u(T) vanishes; states are undefined")
    state_ok = global_phase_distance(out_a / na, out_b / nb) <= 1e-10
    mu_a, mu_b = non_normality(am), non_normality(shifted)
    # normal matrices measure mu at the sqrt(roundoff) floor; below that the
    # two noisy zeros count as equal (the floor's SVD is taken only when the
    # first test fails)
    mu_ok = (abs(mu_a - mu_b) <= 1e-10 * max(1.0, mu_a)
             or max(mu_a, mu_b) <= 3e-7 * max(1.0, spectral_norm(am)))
    lam_a = np.linalg.eigvals(am)
    lam_b = np.linalg.eigvals(shifted)
    gap = lam_a.real.max() - lam_a.real.min()
    gap_shift = lam_b.real.max() - lam_b.real.min()
    gap_ok = abs(gap - gap_shift) <= 1e-8 * max(1.0, abs(gap))
    return bool(state_ok and mu_ok and gap_ok)


def equilibrium_reduction_check(a: np.ndarray, b, u0, T_grid) -> list[dict]:
    """Dissipative solutions approach the linear-system solution A x = -b.

    For each T, checks min over sign s of ‖|u(T)> - s|A⁻¹b>‖ against the
    bound 2(‖A‖ + κ(A))·e^{-|l(A)|T}.  Requires l(A) < 0 and unit ‖b‖, ‖u0‖.
    """
    am = as_square(a)
    bv = as_state(b)
    u0v = as_state(u0)
    l_a = logarithmic_norm(am)
    if l_a >= 0:
        raise ValueError("equilibrium reduction needs a negative logarithmic norm")
    x = np.linalg.solve(am, bv)
    x = x / np.linalg.norm(x)
    norm_a = spectral_norm(am)
    kappa = norm_a * spectral_norm(np.linalg.inv(am))
    rows = []
    for T in T_grid:
        uT = solve_reference(OdeProblem(am, u0v, float(T), bv))
        uT = uT / np.linalg.norm(uT)
        dist = min(float(np.linalg.norm(uT - s * x)) for s in (1.0, -1.0))
        bound = 2.0 * (norm_a + kappa) * math.exp(-abs(l_a) * float(T))
        if dist > bound + 1e-10:
            raise ValueError(
                f"equilibrium bound fails at T={T}: {dist:.6g} > {bound:.6g}")
        rows.append({"T": float(T), "distance": dist, "bound": bound,
                     "passed": True})
    return rows


def worst_case_oracle_pair(psi, phi) -> tuple[np.ndarray, np.ndarray]:
    """Prepare oracles with ‖O_ψ - O_φ‖ = ‖ψ - φ‖ (the worst case).

    O_φ = e^{iθM} O_ψ with θ = arccos <φ|ψ> and M the rotation generator in
    span{ψ, ψ⊥}; requires a real overlap in (0, 1).  The distance equality,
    its inverse-pair version, and O_φ|0> = φ are certified before returning.
    """
    psi = as_state(psi)
    phi = as_state(phi)
    ov = np.vdot(phi, psi)
    if abs(ov.imag) > 1e-12:
        raise ValueError("worst-case pair needs a real overlap")
    ov = float(ov.real)
    if not (0.0 < ov < 1.0):
        raise ValueError("worst-case pair needs an overlap strictly in (0, 1)")
    o_psi = unitary_with_first_column(psi)
    residual = phi - ov * psi
    perp = residual / np.linalg.norm(residual)
    theta = math.acos(ov)
    # e^{iθM} restricted to span{ψ, ψ⊥} is the plane rotation by θ
    proj = np.outer(psi, psi.conj()) + np.outer(perp, perp.conj())
    rot = (np.eye(psi.size) - proj
           + math.cos(theta) * proj
           + math.sin(theta) * (np.outer(perp, psi.conj())
                                - np.outer(psi, perp.conj())))
    o_phi = rot @ o_psi

    if np.linalg.norm(o_phi[:, 0] - phi) > 1e-10:
        raise ValueError("oracle construction failed to prepare phi")
    dist = spectral_norm(o_psi - o_phi)
    if abs(dist - np.linalg.norm(psi - phi)) > 1e-10:
        raise ValueError("oracle distance does not match the state distance")
    inv_dist = spectral_norm(np.linalg.inv(o_psi) - np.linalg.inv(o_phi))
    if abs(inv_dist - dist) > 1e-10:
        raise ValueError("inverse-pair distance equality fails")
    return o_psi, o_phi


@dataclass
class AmplifierCircuit:
    """An alternating oracle-query circuit U_{q+1} V_q U_q ... V_1 U_1.

    ``interleavers`` are q+1 unitaries on the full space (``ancilla_qubits``
    control/work qubits tensored with the oracle dimension, oracle register
    least significant); ``slots`` lists each V_j's kind: "oracle", "inverse",
    "controlled" or "controlled-inverse" (controlled slots condition on the
    most significant qubit).
    """

    interleavers: list
    slots: list
    ancilla_qubits: int = 0

    @property
    def queries(self) -> int:
        return len(self.slots)

    def __post_init__(self):
        if len(self.interleavers) != len(self.slots) + 1:
            raise ValueError("need exactly one more interleaver than slots")
        for kind in self.slots:
            if kind not in ("oracle", "inverse", "controlled",
                            "controlled-inverse"):
                raise ValueError(f"unknown slot kind {kind!r}")
        if any(k.startswith("controlled") for k in self.slots) \
                and self.ancilla_qubits < 1:
            raise ValueError("controlled slots need at least one ancilla qubit")

    def run(self, oracle: np.ndarray) -> np.ndarray:
        """Pre-measurement state on input |0...0>.

        Slots act on the state held as a (2^a, d) array, one row per ancilla
        basis state; controlled slots act only on the bottom half of the
        rows, where the most significant qubit is 1.
        """
        d = oracle.shape[0]
        rows = 2 ** self.ancilla_qubits
        # a row r becomes O r, i.e. r @ O.T (r @ O.conj() for O†)
        forward, inverse = oracle.T, oracle.conj()
        # U₁|0…0⟩ is the first column of U₁
        state = np.array(self.interleavers[0][:, 0], dtype=complex)
        for inter, kind in zip(self.interleavers[1:], self.slots):
            grid = state.reshape(rows, d)
            first = rows // 2 if kind.startswith("controlled") else 0
            grid[first:] = grid[first:] @ (
                inverse if "inverse" in kind else forward)
            state = inter @ state
        return state


def amplifier_bound_check(pair: tuple[np.ndarray, np.ndarray],
                          circuit: AmplifierCircuit) -> float:
    """Ratio of the pre-measurement Schatten-1 distance to 2q·sqrt(2ε).

    Runs the circuit with both oracles of a worst-case pair and asserts
    ‖ |a><a| - |b><b| ‖₁ ≤ 2q·sqrt(2ε) with ε = 1 - <ψ|φ>.  Returns the
    measured ratio (0 for q = 0, where the distance must vanish).
    """
    o_psi, o_phi = pair
    eps = 1.0 - float(np.real(np.vdot(o_phi[:, 0], o_psi[:, 0])))
    a = circuit.run(o_psi)
    b = circuit.run(o_phi)
    overlap = min(1.0, abs(np.vdot(a, b)))
    dist = 2.0 * math.sqrt(max(0.0, 1.0 - overlap ** 2))
    if circuit.queries == 0:
        if dist > 1e-10:
            raise ValueError("a zero-query circuit separated the oracles")
        return 0.0
    bound = 2.0 * circuit.queries * math.sqrt(max(2.0 * eps, 0.0))
    ratio = dist / bound if bound > 0 else 0.0
    if ratio > 1.0 + 1e-9:
        raise ValueError(f"amplifier bound violated: ratio = {ratio:.6g}")
    return float(ratio)


def witness_linear_system(kappa: float, u_basis: np.ndarray,
                          v_basis: np.ndarray) -> WitnessPair:
    """Linear-system hard pair |b₂> = sqrt(1-1/κ²)|u₁> + (1/κ)|u_N>.

    A = U D V† with singular values from 1 down to 1/κ; certifies the input
    overlap sqrt(1-1/κ²) and the solution overlap
    sqrt(1-1/κ²)/sqrt(2-1/κ²) ≤ 1/sqrt(2), both against a dense solve.
    """
    if kappa <= 1:
        raise ValueError("kappa must exceed 1")
    u = as_square(u_basis)
    v = as_square(v_basis)
    n = u.shape[0]
    for name, m in (("U", u), ("V", v)):
        if _norm_exceeds(m.conj().T @ m - np.eye(n), TOL.unitarity):
            raise ValueError(f"{name} must be unitary")
    d = np.linspace(1.0, 1.0 / kappa, n)
    a = (u * d) @ v.conj().T
    b1 = u[:, 0]
    b2 = math.sqrt(1.0 - 1.0 / kappa ** 2) * u[:, 0] + (1.0 / kappa) * u[:, -1]
    pair = WitnessPair("linear-system", a, b1, b2, 1.0,
                       params={"kappa": kappa})
    pair.check("input_overlap_closed_form",
               abs(_fidelity(b1, b2) - math.sqrt(1.0 - 1.0 / kappa ** 2)), 1e-12)
    x1 = np.linalg.solve(a, b1)
    x2 = np.linalg.solve(a, b2)
    overlap = _fidelity(x1, x2)
    closed = math.sqrt(1.0 - 1.0 / kappa ** 2) / math.sqrt(2.0 - 1.0 / kappa ** 2)
    pair.check("solution_overlap_ceiling", overlap, 1.0 / math.sqrt(2.0))
    pair.params["implied_queries"] = kappa
    pair.check("solution_overlap", overlap, closed, "==")
    return pair
