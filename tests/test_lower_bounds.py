"""Lower-bound witnesses and the amplifier framework."""

import math

import numpy as np
import pytest

from ffode import (
    AmplifierCircuit, OdeProblem, WitnessPair, amplifier_bound_check,
    equilibrium_reduction_check, matrix_exponential,
    shifting_equivalence_check, solve_reference, spectral_norm,
    unitary_with_first_column, witness_imaginary_time, witness_linear_system,
    witness_nonnormal_homogeneous, witness_nonnormal_inhomogeneous,
    witness_realpart_gap, witness_realpart_gap_inhomogeneous,
    worst_case_oracle_pair,
)
from ffode.lower_bounds import inequality_holds


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def certified(pair, name):
    measured, bound, direction = pair.certified[name]
    return measured, bound


# ---------------------------------------------------------------------------
# real-part-gap witnesses

def test_realpart_gap_orthonormal():
    basis = np.eye(3, dtype=complex)
    lam = np.array([0.5, -0.5, 0.0])
    eps = 0.01
    pair = witness_realpart_gap(basis, lam, eps)
    assert pair.params["xi"] == pytest.approx(math.sqrt(0.99))
    overlap, _ = certified(pair, "initial_overlap")
    assert overlap == pytest.approx(math.sqrt(0.99), abs=1e-12)
    # exact final fidelity sqrt((1-eps)/(2-eps)) for an orthonormal pair
    fid, bound = certified(pair, "final_fidelity")
    assert fid == pytest.approx(math.sqrt(0.99 / 1.99), abs=1e-9)
    assert bound == pytest.approx(
        math.sqrt((2 * 0 + 2 * (3 + 2 * math.sqrt(2)))
                  / (1 + 0 + 2 * (3 + 2 * math.sqrt(2)))))
    assert bound == pytest.approx(0.95972, abs=1e-4)


def test_realpart_gap_eps_limit():
    basis = np.eye(2, dtype=complex)
    lam = np.array([0.3, -0.7])
    prev_T = 0.0
    for eps in (0.1, 0.01, 0.001):
        pair = witness_realpart_gap(basis, lam, eps)
        assert pair.horizon > prev_T
        prev_T = pair.horizon
        overlap, _ = certified(pair, "initial_overlap")
        assert overlap >= math.sqrt(1 - eps)
    # overlap approaches 1 as eps shrinks
    assert overlap > 0.999


def test_realpart_gap_xi_bound_random_nonorthogonal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v1 = random_unit(rng, 4)
        v2 = random_unit(rng, 4)
        if abs(np.vdot(v1, v2)) > 0.95:
            continue
        basis = np.column_stack(
            [v1, v2, np.eye(4)[:, 2], np.eye(4)[:, 3]])
        if np.linalg.cond(basis) > 1e6:
            continue
        basis = basis / np.linalg.norm(basis, axis=0)
        lam = np.array([1.0, -1.0, 0.1j, -0.1j])
        pair = witness_realpart_gap(basis, lam, 0.05)
        assert abs(pair.params["xi"]) <= 1 + math.sqrt(2) + 1e-12


def test_realpart_gap_requires_gap():
    with pytest.raises(ValueError):
        witness_realpart_gap(np.eye(2, dtype=complex), [1j, -1j], 0.01)


def test_realpart_gap_inhomogeneous_orthonormal():
    basis = np.eye(2, dtype=complex)
    lam = np.array([1.0, -1.0])
    pair = witness_realpart_gap_inhomogeneous(basis, lam, 0.01)
    res, _ = certified(pair, "bisection_residual")
    assert res <= 1e-9
    _, bound = certified(pair, "final_fidelity")
    assert bound == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    # evolved pair actually satisfies the ceiling (checked in constructor)
    fid, _ = certified(pair, "final_fidelity")
    assert fid <= bound


def test_realpart_gap_inhomogeneous_preconditions():
    with pytest.raises(ValueError):
        witness_realpart_gap_inhomogeneous(
            np.eye(2, dtype=complex), [-0.5, -1.0], 0.01)


@pytest.mark.parametrize("witness", [witness_realpart_gap,
                                     witness_realpart_gap_inhomogeneous])
def test_realpart_gap_witnesses_validate_the_basis(witness):
    lam = [1.0, -1.0]
    # 2·I gave the inhomogeneous witness a "pair" with ‖u0‖ = ‖w0‖ = 2
    with pytest.raises(ValueError, match="unit norm"):
        witness(2.0 * np.eye(2), lam, 0.01)
    ill = np.array([[1.0, 1.0], [0.0, 1e-13]])
    ill = ill / np.linalg.norm(ill, axis=0)
    with pytest.raises(ValueError, match="invertible"):
        witness(ill, lam, 0.01)
    pair = witness(np.eye(2, dtype=complex), lam, 0.01)
    for name in ("initial_norm_u", "initial_norm_w"):
        assert pair.certified[name][0] <= 1e-12


# ---------------------------------------------------------------------------
# non-normal witnesses

def test_nonnormal_homogeneous_delta_half():
    pair = witness_nonnormal_homogeneous(0.5)
    assert pair.params["mu"] == pytest.approx(2.1147425268811284, abs=1e-9)
    _, fid_bound = certified(pair, "final_fidelity")
    expected = 1.0 / math.sqrt(4 * math.sin(0.5) ** 2 + 1.0)
    assert fid_bound == pytest.approx(expected, abs=1e-12)
    floor, displayed_floor = certified(pair, "perturbed_trace_distance_floor")
    assert floor >= 0.77
    err, _ = certified(pair, "evolved_u_matches_proof")
    assert err <= 1e-10


def test_nonnormal_homogeneous_sweep():
    for delta in (0.5, 0.1):
        pair = witness_nonnormal_homogeneous(delta)
        assert pair.params["mu"] == pytest.approx(
            (1 + delta ** 2) ** 0.25 / delta, abs=1e-9)
    with pytest.raises(ValueError):
        witness_nonnormal_homogeneous(1.5)


def test_nonnormal_inhomogeneous():
    pair = witness_nonnormal_inhomogeneous(0.5)
    # Duhamel value of the third component at T = 1 (stationary target 2)
    uT = solve_reference(OdeProblem(pair.coefficient, pair.u0, 1.0, pair.b))
    assert uT[2] == pytest.approx(2.0 - math.exp(-0.5), abs=1e-12)
    floor, _ = certified(pair, "perturbed_trace_distance_floor")
    assert floor >= 0.19
    assert pair.params["mu"] == pytest.approx(
        (1 + 0.25) ** 0.25 / 0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# imaginary time, shifting, equilibrium

def test_imaginary_time_witness():
    pair = witness_imaginary_time(np.diag([0.0, 1.0]).astype(complex), 1.0)
    assert pair.params["xi"] == pytest.approx(math.exp(-1.0))
    pair2 = witness_imaginary_time(np.diag([0.0, 2.0]).astype(complex), 3.0)
    assert pair2.params["xi"] == pytest.approx(math.exp(-6.0))
    gap_err, _ = certified(pair2, "gap_identity")
    assert gap_err <= 1e-12
    with pytest.raises(ValueError):
        witness_imaginary_time(np.diag([0.5, 1.0]).astype(complex), 1.0)


def test_shifting_equivalence_trivial_and_antihermitian():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u0 = random_unit(rng, 4)
    assert shifting_equivalence_check(a, 0.0, u0, 1.0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    anti = (g - g.conj().T) / 2
    c, T = 0.8, 1.3
    assert shifting_equivalence_check(anti, c, u0, T)
    # norms differ by exactly e^{cT}
    na = np.linalg.norm(matrix_exponential(anti, T) @ u0)
    nb = np.linalg.norm(matrix_exponential(anti + c * np.eye(4), T) @ u0)
    assert nb / na == pytest.approx(math.exp(c * T), abs=1e-10)


def test_shifting_equivalence_is_quantum_dynamics():
    # A = U(aI + J)U† evolves like e^{-iHt} with H = iUJU†
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 4)
    j = 1j * np.diag(rng.uniform(-2, 2, 4))
    a_scalar = 0.6
    a = u @ (a_scalar * np.eye(4) + j) @ u.conj().T
    h = 1j * u @ j @ u.conj().T
    assert spectral_norm(h - h.conj().T) < 1e-12
    u0 = random_unit(rng, 4)
    t = 0.9
    lhs = matrix_exponential(a, t) @ u0
    lhs = lhs / np.linalg.norm(lhs)
    rhs = matrix_exponential(-1j * h, t) @ u0
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_equilibrium_reduction_simple():
    a = -np.eye(3).astype(complex)
    b = np.array([1.0, 0.0, 0.0])
    u0 = np.array([0.0, 1.0, 0.0])
    rows = equilibrium_reduction_check(a, b, u0, [0.5, 1, 2, 5, 10])
    for row in rows:
        assert row["distance"] <= row["bound"] + 1e-12
        assert row["bound"] == pytest.approx(4 * math.exp(-row["T"]))
    # late times land on |A⁻¹ b> up to sign
    assert rows[-1]["distance"] < 1e-3


def test_equilibrium_reduction_random():
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = g - (0.3 + spectral_norm(g + g.conj().T) / 2) * np.eye(8)
        b = random_unit(rng, 8)
        u0 = random_unit(rng, 8)
        rows = equilibrium_reduction_check(a, b, u0, range(1, 41, 4))
        assert all(r["passed"] for r in rows)


def test_equilibrium_requires_negative_log_norm():
    with pytest.raises(ValueError):
        equilibrium_reduction_check(np.eye(2), [1, 0], [0, 1], [1.0])


# ---------------------------------------------------------------------------
# amplifier framework

def test_oracle_pair_equal_states():
    rng = np.random.default_rng(17)
    psi = random_unit(rng, 4)
    o_psi = unitary_with_first_column(psi)
    assert np.linalg.norm(o_psi[:, 0] - psi) < 1e-12
    assert spectral_norm(o_psi.conj().T @ o_psi - np.eye(4)) < 1e-12


def test_oracle_pair_distance_sqrt_2eps():
    eps = 0.03
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    phi = (1 - eps) * psi
    phi[1] = math.sqrt(1 - (1 - eps) ** 2)
    o_psi, o_phi = worst_case_oracle_pair(psi, phi)
    assert spectral_norm(o_psi - o_phi) == pytest.approx(
        math.sqrt(2 * eps), abs=1e-12)


def test_oracle_pair_prepares_phi_random():
    rng = np.random.default_rng(19)
    for _ in range(10):
        psi = random_unit(rng, 4)
        other = random_unit(rng, 4)
        # rotate so the overlap is real positive
        ov = np.vdot(psi, other)
        if abs(ov) < 1e-3:
            continue
        phi = other * np.conj(ov / abs(ov))
        o_psi, o_phi = worst_case_oracle_pair(psi, phi)
        assert np.linalg.norm(o_phi[:, 0] - phi) < 1e-10
        assert np.linalg.norm(o_psi[:, 0] - psi) < 1e-10


def test_amplifier_single_query_identity_interleavers():
    eps = 0.02
    psi = np.array([1.0, 0.0], dtype=complex)
    phi = np.array([1 - eps, math.sqrt(1 - (1 - eps) ** 2)], dtype=complex)
    pair = worst_case_oracle_pair(psi, phi)
    circ = AmplifierCircuit([np.eye(2), np.eye(2)], ["oracle"])
    ratio = amplifier_bound_check(pair, circ)
    assert ratio <= 1.0


def test_amplifier_zero_queries():
    psi = np.array([1.0, 0.0], dtype=complex)
    phi = np.array([0.995, math.sqrt(1 - 0.995 ** 2)], dtype=complex)
    pair = worst_case_oracle_pair(psi, phi)
    rng = np.random.default_rng(23)
    circ = AmplifierCircuit([random_unitary(rng, 2)], [])
    assert amplifier_bound_check(pair, circ) == 0.0


def test_amplifier_growth_with_repeated_queries():
    eps = 0.01
    psi = np.array([1.0, 0.0], dtype=complex)
    phi = np.array([1 - eps, math.sqrt(1 - (1 - eps) ** 2)], dtype=complex)
    pair = worst_case_oracle_pair(psi, phi)
    rng = np.random.default_rng(29)
    prev = 0.0
    for q in range(1, 9):
        inter = [random_unitary(rng, 4) for _ in range(q + 1)]
        circ = AmplifierCircuit(inter, ["oracle"] * q, ancilla_qubits=1)
        ratio = amplifier_bound_check(pair, circ)
        assert ratio <= 1.0


def _dense_slot(kind, oracle, ancilla_qubits):
    """The slot as an explicit 2^a·d matrix: kron(I, O) (O† for inverse
    kinds), with identity on the half where the top qubit is 0 for
    controlled kinds."""
    o = oracle.conj().T if "inverse" in kind else oracle
    full = np.kron(np.eye(2 ** ancilla_qubits), o)
    if kind.startswith("controlled"):
        half = full.shape[0] // 2
        full[:half, :half] = np.eye(half)
    return full


@pytest.mark.parametrize("ancilla_qubits", [0, 1, 2, 3])
def test_amplifier_run_matches_dense_circuit(ancilla_qubits, monkeypatch):
    rng = np.random.default_rng(47 + ancilla_qubits)
    d = 3
    dim = 2 ** ancilla_qubits * d
    oracle = random_unitary(rng, d)
    kinds = ["oracle", "inverse"]
    if ancilla_qubits:
        kinds += ["controlled", "controlled-inverse"]
    slot_lists = [[k] for k in kinds] + [list(rng.permutation(kinds * 2))]
    circuits, dense = [], []
    for slots in slot_lists:
        inter = [random_unitary(rng, dim) for _ in range(len(slots) + 1)]
        circuits.append(AmplifierCircuit(inter, slots, ancilla_qubits))
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        for u, kind in zip(inter, slots):
            state = _dense_slot(kind, oracle, ancilla_qubits) @ (u @ state)
        dense.append(inter[-1] @ state)

    def no_kron(*args):
        raise AssertionError("AmplifierCircuit.run formed a Kronecker product")

    monkeypatch.setattr(np, "kron", no_kron)
    for circ, expected in zip(circuits, dense):
        assert np.linalg.norm(circ.run(oracle) - expected) <= 1e-14


def test_amplifier_random_circuits():
    rng = np.random.default_rng(31)
    kinds = ["oracle", "inverse", "controlled", "controlled-inverse"]
    for trial in range(100):
        dim = int(rng.choice([2, 4, 8, 16]))
        eps = float(rng.uniform(0.001, 0.2))
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        phi = psi.copy() * (1 - eps)
        phi[1] = math.sqrt(1 - (1 - eps) ** 2)
        pair = worst_case_oracle_pair(psi, phi)
        q = int(rng.integers(1, 9))
        inter = [random_unitary(rng, 2 * dim) for _ in range(q + 1)]
        slots = [str(rng.choice(kinds)) for _ in range(q)]
        circ = AmplifierCircuit(inter, slots, ancilla_qubits=1)
        assert amplifier_bound_check(pair, circ) <= 1.0


# ---------------------------------------------------------------------------
# linear-system witness

def test_linear_system_witness_kappa_10():
    rng = np.random.default_rng(37)
    u = random_unitary(rng, 6)
    v = random_unitary(rng, 6)
    pair = witness_linear_system(10.0, u, v)
    overlap, closed = pair.certified["solution_overlap"][:2]
    assert overlap == pytest.approx(math.sqrt(0.99) / math.sqrt(1.99),
                                    abs=1e-10)
    assert overlap == pytest.approx(0.70534, abs=1e-4)
    assert overlap <= 1 / math.sqrt(2)


def test_linear_system_witness_large_kappa_limit():
    rng = np.random.default_rng(41)
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 4)
    prev = 0.0
    for kappa in (2.0, 10.0, 100.0, 10000.0):
        pair = witness_linear_system(kappa, u, v)
        overlap = pair.certified["solution_overlap"][0]
        assert overlap >= prev
        prev = overlap
    assert overlap == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    with pytest.raises(ValueError):
        witness_linear_system(0.5, u, v)


def test_thresholds_take_an_svd_only_past_the_frobenius_bound(monkeypatch):
    # ‖X‖₂ ≤ ‖X‖_F: inputs that pass are decided without an SVD, and inputs
    # that fail still raise; the shifting check's μ noise floor takes its
    # SVD only when the μ values differ
    import ffode.lower_bounds as lb
    svds = []
    monkeypatch.setattr(lb, "spectral_norm",
                        lambda m: svds.append(m.shape) or spectral_norm(m))
    rng = np.random.default_rng(53)
    u, v = random_unitary(rng, 6), random_unitary(rng, 6)
    h = np.diag(np.linspace(0.0, 1.0, 6)).astype(complex)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u0 = random_unit(rng, 6)
    witness_linear_system(10.0, u, v)
    witness_imaginary_time(h, 1.0)
    assert shifting_equivalence_check(a, 0.7, u0, 1.0)
    assert svds == []
    lam = rng.uniform(-3.0, 3.0, 6) + 1j * rng.uniform(-3.0, 3.0, 6)
    normal = (u * lam) @ u.conj().T  # μ is roundoff noise, unequal after
    assert shifting_equivalence_check(normal, 5.0, u0, 1.0)  # the shift
    assert svds == [(6, 6)]
    svds.clear()
    with pytest.raises(ValueError, match="U must be unitary"):
        witness_linear_system(10.0, (1.0 + 1e-9) * u, v)
    with pytest.raises(ValueError, match="V must be unitary"):
        witness_linear_system(10.0, u, v + 1e-9 * np.eye(6))
    skewed = h.copy()
    skewed[0, 1] = 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        witness_imaginary_time(skewed, 1.0)
    assert len(svds) == 3  # one per failing input


def test_equality_entries_are_checked_both_ways():
    assert inequality_holds(1.0, 1.0 + 5e-11, "==")
    assert not inequality_holds(1.0 + 1e-6, 1.0, "==")  # passed as >= before
    assert not inequality_holds(1.0 - 1e-6, 1.0, "==")
    assert inequality_holds(2.0, 1.0, ">=") and not inequality_holds(2.0, 1.0,
                                                                     "<=")
    with pytest.raises(KeyError):
        inequality_holds(1.0, 1.0, "<")
    pair = WitnessPair("demo", np.eye(1), np.ones(1), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="fails"):
        pair.check("overlap", 1.0 + 1e-6, 1.0, "==")
    pair.check("overlap", 1.0, 1.0, "==")
    assert pair.certified["overlap"] == (1.0, 1.0, "==")
    # the linear-system witness certifies its equality at construction
    rng = np.random.default_rng(43)
    lin = witness_linear_system(10.0, random_unitary(rng, 4),
                                random_unitary(rng, 4))
    assert lin.certified["solution_overlap"][2] == "=="
    assert inequality_holds(*lin.certified["solution_overlap"])
