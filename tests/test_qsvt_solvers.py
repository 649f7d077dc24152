"""Quadratically fast-forwarded solvers: encodings, LCS circuit, reports."""

import math

import numpy as np
import pytest

from ffode import (
    BlockEncoding, OdeProblem, QueryLedger, SampledSource, eigen_solvers,
    exact_dilation, lcs_combine_and_measure, matrix_exponential,
    qsvt_solvers, solve_eigen, solve_negdef, solve_reference,
    solve_sqrt_access, spectral_norm, verify_block_encoding,
)
from ffode.block_encoding import U_A
from ffode.config import TOL
from ffode.qsvt_solvers import be_duhamel_negdef, be_exp_negdef, repeat_estimates
from ffode.reference import exp_integral


def duhamel_integral_negdef(a, T):
    """Exact ∫₀ᵀ e^{A(T-s)} ds for Hermitian A, via eigendecomposition."""
    w, v = np.linalg.eigh(a)
    return (v * exp_integral(w, T)) @ v.conj().T


def random_negdef(rng, n, delta=0.1):
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    w = rng.uniform(-1.0, -delta, n)
    return (q * w) @ q.conj().T


def test_be_exp_negdef_zero_horizon():
    a = np.diag([-0.5]).astype(complex)
    be = be_exp_negdef(exact_dilation(a, 1.0), 1e-12, 0.25, 1e-6)
    # P ≡ 1/3 branch: the raw block is I/3, reported at alpha = 3
    assert np.allclose(be.block, np.eye(1) / 3.0, atol=1e-9)
    assert be.alpha == pytest.approx(3.0)


def test_be_exp_negdef_matches_exponential():
    a = np.diag([-0.5, -0.9]).astype(complex)
    be = be_exp_negdef(exact_dilation(a, 1.0), 3.0, 0.1, 1e-6)
    target = np.diag([math.exp(-1.5), math.exp(-2.7)])
    assert verify_block_encoding(be, target) < 1e-6
    assert be.ancilla_qubits == 1 + 4


def test_be_exp_negdef_edge_spectrum():
    a = np.diag([-0.1, -1.0]).astype(complex)
    be = be_exp_negdef(exact_dilation(a, 1.0), 2.0, 0.1, 1e-6)
    assert verify_block_encoding(be, matrix_exponential(a, 2.0)) < 1e-6


def test_be_exp_negdef_rejects_bad_spectrum():
    a = np.diag([-0.5, 0.1]).astype(complex)
    with pytest.raises(ValueError):
        be_exp_negdef(exact_dilation(a, 1.0), 1.0, 0.25, 1e-6)


def test_be_duhamel_negdef_closed_forms():
    a = np.diag([-1.0]).astype(complex)
    be = be_duhamel_negdef(exact_dilation(a, 1.0), 1.0, 0.5, 1e-5)
    assert verify_block_encoding(be, np.array([[1 - math.exp(-1.0)]])) < 1e-5
    assert be.alpha == pytest.approx(16.0 / (3.0 * 0.5))
    assert be.ancilla_qubits == 2 * 1 + 6

    a2 = np.diag([-0.25, -1.0]).astype(complex)
    be2 = be_duhamel_negdef(exact_dilation(a2, 1.0), 8.0, 0.25, 1e-5)
    target = np.diag([(1 - math.exp(-2.0)) / 0.25, 1 - math.exp(-8.0)])
    assert verify_block_encoding(be2, target) < 1e-5


def test_be_duhamel_negdef_short_horizon_vanishes():
    a = np.diag([-0.5, -0.7]).astype(complex)
    T = 1e-9
    be = be_duhamel_negdef(exact_dilation(a, 1.0), T, 0.25, 1e-6)
    # e^{AT} - I = O(T): the encoded integral is essentially 0
    assert spectral_norm(be.encoded) < 1e-6


def test_lcs_hand_checked_quarter_probability():
    a = np.array([[-1.0 + 0j]])
    e0 = exact_dilation(matrix_exponential(a, 1.0), 1.0)
    e1 = exact_dilation(duhamel_integral_negdef(a, 1.0), 1.0)
    ref = solve_reference(OdeProblem(a, [1.0], 1.0, [1.0]))
    assert ref[0] == pytest.approx(1.0)  # stationary: Au0 + b = 0
    rep = lcs_combine_and_measure([1.0], [1.0], e0, e1, ref, 1e-9)
    assert rep.success_probability == pytest.approx(0.25, abs=1e-12)
    assert rep.error_vs_reference < 1e-12
    assert rep.extras["theta"] == pytest.approx(-2 * math.asin(1 / math.sqrt(2)))


def test_lcs_homogeneous_degenerate_branch():
    rng = np.random.default_rng(61)
    a = random_negdef(rng, 4, 0.3)
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    T = 1.2
    e0 = exact_dilation(matrix_exponential(a, T), 1.0)
    ref = solve_reference(OdeProblem(a, u0, T))
    rep = lcs_combine_and_measure(u0, None, e0, None, ref, 1e-9)
    expected = (np.linalg.norm(ref) / (1.0 * np.linalg.norm(u0))) ** 2
    assert rep.success_probability == pytest.approx(expected, abs=1e-12)
    assert rep.extras["theta"] == 0.0


def test_lcs_exact_encodings_match_reference_random():
    rng = np.random.default_rng(67)
    for _ in range(10):
        a = random_negdef(rng, 8, 0.2)
        u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        T = rng.uniform(0.5, 4.0)
        e0 = exact_dilation(matrix_exponential(a, T), 1.0)
        integ = duhamel_integral_negdef(a, T)
        e1 = exact_dilation(integ, spectral_norm(integ) * 1.0001)
        ref = solve_reference(OdeProblem(a, u0, T, b))
        rep = lcs_combine_and_measure(u0, b, e0, e1, ref, 1e-10)
        assert rep.error_vs_reference < 1e-10
        # exact probability formula
        w = math.hypot(e0.alpha * np.linalg.norm(u0),
                       e1.alpha * np.linalg.norm(b))
        expected = (np.linalg.norm(ref) / (math.sqrt(2) * w)) ** 2
        assert rep.success_probability == pytest.approx(expected, abs=1e-12)


def test_lcs_error_contract_with_perturbed_encodings():
    rng = np.random.default_rng(71)
    for _ in range(5):
        a = random_negdef(rng, 4, 0.3)
        u0 = rng.standard_normal(4)
        b = rng.standard_normal(4)
        T = 1.0
        exp_t = matrix_exponential(a, T)
        integ = duhamel_integral_negdef(a, T)
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e_0 = 1e-4 * (g1 + g1.conj().T) / spectral_norm(g1 + g1.conj().T)
        e_1 = 2e-4 * (g2 + g2.conj().T) / spectral_norm(g2 + g2.conj().T)
        # the block encodes the perturbed matrix; the attached target is
        # the TRUE operator, so the claimed error is the perturbation size.
        # The errors do not commute with the operators, which no calculus
        # rule can make: the encodings are written down as dense blocks,
        # and the LCS circuit reads only their apply
        be0 = BlockEncoding(exp_t + e_0, 1.0, spectral_norm(e_0) * 1.0001, 1,
                            QueryLedger({U_A: 1}), exp_t)
        alpha1 = spectral_norm(integ + e_1) * 1.0001
        be1 = BlockEncoding((integ + e_1) / alpha1, alpha1,
                            spectral_norm(e_1) * 1.0001, 1,
                            QueryLedger({U_A: 1}), integ)
        ref = solve_reference(OdeProblem(a, u0, T, b))
        budget = 2.0 * (np.linalg.norm(u0) * be0.epsilon_claim
                        + np.linalg.norm(b) * be1.epsilon_claim) \
            / np.linalg.norm(ref)
        rep = lcs_combine_and_measure(u0, b, be0, be1, ref, budget)
        assert rep.error_vs_reference <= budget


def test_solve_negdef_stationary_instance():
    a = np.array([[-1.0 + 0j]])
    p = OdeProblem(a, [1.0], 1.0, [1.0])
    rep = solve_negdef(p, 0.5, 1e-6)
    assert rep.error_vs_reference < 1e-6
    assert abs(rep.output_state[0]) == pytest.approx(1.0)


def test_solve_negdef_error_across_horizons():
    rng = np.random.default_rng(73)
    a = random_negdef(rng, 2, 0.5)
    u0 = rng.standard_normal(2)
    b = rng.standard_normal(2)
    for T in (1.0, 4.0, 16.0):
        p = OdeProblem(a, u0, T, b)
        rep = solve_negdef(p, 0.5, 1e-5)
        assert rep.error_vs_reference <= 1e-5


def test_solve_negdef_decaying_eigenvector_probability():
    # u0 along the most negative eigenvalue, b = 0: probability decays e^{2λT}
    a = np.diag([-0.2, -0.9]).astype(complex)
    u0 = np.array([0.0, 1.0])
    T = 2.0
    p = OdeProblem(a, u0, T)
    rep = solve_negdef(p, 0.2, 1e-6)
    expected = math.exp(2 * (-0.9) * T) / 9.0  # alpha0 = 3 squared
    assert rep.success_probability == pytest.approx(expected, rel=1e-4)


def test_solve_negdef_ledger_grows_like_sqrt_T():
    rng = np.random.default_rng(79)
    a = random_negdef(rng, 2, 0.5)
    u0 = rng.standard_normal(2)
    b = rng.standard_normal(2)
    counts = []
    horizons = [4.0, 16.0, 64.0, 256.0]
    for T in horizons:
        rep = solve_negdef(OdeProblem(a, u0, T, b), 0.5, 1e-4)
        counts.append(rep.ledger[U_A])
    slope = np.polyfit(np.log(horizons), np.log(counts), 1)[0]
    assert 0.4 <= slope <= 0.65, f"fitted exponent {slope}"


def test_stationarity_property():
    rng = np.random.default_rng(83)
    a = random_negdef(rng, 4, 0.3)
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = -(a @ u0)
    p = OdeProblem(a, u0, 5.0, b)
    rep = solve_negdef(p, 0.3, 1e-6)
    fid = abs(np.vdot(rep.output_state, u0 / np.linalg.norm(u0)))
    assert 1.0 - fid < 1e-9


def test_solve_sqrt_access_homogeneous_hand_check():
    h = np.diag([0.0, 1.0]).astype(complex)
    u0 = np.array([1.0, 1.0]) / math.sqrt(2)
    T = math.log(2.0)
    p = OdeProblem(-(h @ h), u0, T)
    rep = solve_sqrt_access(p, exact_dilation(h, 1.0), 1e-8)
    expected_state = np.array([2.0, 1.0]) / math.sqrt(5.0)
    assert abs(np.vdot(rep.output_state, expected_state)) == pytest.approx(
        1.0, abs=1e-8)
    # e^{-T H²} u0 = (1, 1/2)/sqrt2: probability (5/8) · (1/3)²
    assert rep.success_probability == pytest.approx(5 / 8 / 9, rel=1e-6)


def test_solve_sqrt_access_zero_mode_probability_t_independent():
    h = np.diag([0.0, 0.8]).astype(complex)
    u0 = np.array([1.0, 0.0])
    probs = []
    for T in (0.5, 2.0, 8.0):
        rep = solve_sqrt_access(OdeProblem(-(h @ h), u0, T),
                                exact_dilation(h, 1.0), 1e-7)
        probs.append(rep.success_probability)
    assert np.allclose(probs, 1.0 / 9.0, atol=1e-8)


def test_solve_sqrt_access_source_growth():
    # b aligned with the zero mode: ‖u(T)‖ ~ T and repeats stay bounded
    # while the polynomial degree grows ~ sqrt(T alpha_H²)
    h = np.diag([0.0, 1.0]).astype(complex)
    u0 = np.array([1.0, 1.0]) / math.sqrt(2)
    b = np.array([1.0, 0.0])
    repeats, degrees = [], []
    for T in (4.0, 16.0, 64.0):
        p = OdeProblem(-(h @ h), u0, T, b)
        rep = solve_sqrt_access(p, exact_dilation(h, 1.0), 1e-5)
        assert rep.error_vs_reference <= 1e-5
        ref = solve_reference(p)
        assert np.linalg.norm(ref) >= 0.9 * T  # linear growth
        repeats.append(rep.repeats_aa)
        degrees.append(rep.extras["gaussian_degree"])
    assert max(repeats) <= 2 * min(repeats) + 4
    slope = np.polyfit(np.log([4.0, 16.0, 64.0]), np.log(degrees), 1)[0]
    assert 0.3 <= slope <= 0.7


def test_repeat_estimates_formulas():
    rep_no, rep_aa = repeat_estimates(0.25)
    assert rep_no == 4
    assert rep_aa == math.ceil(2.0 / 0.5)
    rep_no, _ = repeat_estimates(0.3)
    assert rep_no == math.ceil(1 / 0.3)


@pytest.mark.parametrize("p, reported, repeats", [
    (1.0 - 4.4e-16, 1.0, (1, 2)), (1.0 + 5e-13, 1.0, (1, 2)),
    (1.0 - 1e-9, 1.0 - 1e-9, (2, 3)),
])
def test_report_snaps_a_unit_probability(p, reported, repeats):
    from ffode.block_encoding import QueryLedger
    rep = qsvt_solvers.SolveReport(np.ones(1), p, QueryLedger(), 0.0, 1e-9)
    assert rep.success_probability == reported
    assert (rep.repeats_no_aa, rep.repeats_aa) == repeats


def test_report_rejects_a_nan_error():
    from ffode.block_encoding import QueryLedger
    with pytest.raises(ValueError, match="solver error nan exceeds"):
        qsvt_solvers.SolveReport(np.ones(1), 1.0, QueryLedger(), math.nan,
                                 1e-9)


def test_solve_negdef_scales_to_n16_with_source():
    # the calculus holds N×N blocks, so 9 ancillas cost no 2^9·N matrices
    rng = np.random.default_rng(16)
    n = 16
    a = random_negdef(rng, n, delta=0.25)
    a = (a + a.conj().T) / 2
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rep = solve_negdef(OdeProblem(a, u0, 10.0, b), 0.25, 1e-6)
    assert rep.error_vs_reference <= 1e-6
    assert rep.extras["ancilla_qubits"] == 9


# ---------------------------------------------------------------------------
# one constant-source solve in every family: no source is b = None

SOLVER_SOURCES = {
    "none": lambda b: None,
    "below-zero-tol": lambda b: np.full(b.size, 1e-13),
    "constant": lambda b: b,
}


def _shared_instance():
    """A = Q diag(-s²) Q† with s in [0.5, 1]: negative definite, -H² for
    H = Q diag(s) Q†, and normal, so the eigen solver diagonalizes it."""
    rng = np.random.default_rng(29)
    q = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    s = rng.uniform(0.5, 1.0, 4)
    h = (q * s) @ q.conj().T
    h = (h + h.conj().T) / 2.0
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return h, u0, b


def _family_solvers(h):
    """Per family: (solve(problem), module, name of its Duhamel builder)."""
    return {
        "eigen": (lambda p: solve_eigen(p, 1e-6), eigen_solvers,
                  "be_duhamel_eigen"),
        "negdef": (lambda p: solve_negdef(p, 0.25, 1e-4), qsvt_solvers,
                   "be_duhamel_negdef"),
        "sqrt": (lambda p: solve_sqrt_access(p, exact_dilation(h, 1.0), 1e-4),
                 qsvt_solvers, "approx_gaussian_integral"),
    }


@pytest.mark.parametrize("solver", ["eigen", "negdef", "sqrt"])
@pytest.mark.parametrize("source", list(SOLVER_SOURCES))
def test_constant_source_solve_in_every_family(solver, source, monkeypatch):
    h, u0, b = _shared_instance()
    solve, module, duhamel = _family_solvers(h)[solver]
    builds = []
    original = getattr(module, duhamel)

    def counted(*args):
        builds.append(args)
        return original(*args)
    monkeypatch.setattr(module, duhamel, counted)

    p = OdeProblem(-(h @ h), u0, 2.0, SOLVER_SOURCES[source](b))
    has_b = source == "constant"
    if has_b:
        assert np.array_equal(p.inhomogeneous, b)
    else:
        assert p.inhomogeneous is None
    rep = solve(p)
    assert len(builds) == int(has_b)
    assert rep.ledger["O_b"] == int(has_b)
    assert (rep.extras["alpha1"] > 0.0) == has_b
    if solver == "eigen":  # real spectrum: the kernel oracle is O_f alone
        assert (rep.ledger["O_f"] > 0) == has_b
    if source == "below-zero-tol":
        want = solve(OdeProblem(-(h @ h), u0, 2.0))
        assert np.array_equal(rep.output_state, want.output_state)
        assert rep.success_probability == want.success_probability
        assert rep.ledger == want.ledger


@pytest.mark.parametrize("solver", ["eigen", "negdef", "sqrt"])
def test_every_constant_source_family_runs_the_shared_lcs_checks(solver):
    # the eigen, negdef and sqrt constant-source solves share one LCS driver,
    # so each rejects a sampled b and a vanishing u(T) the same way
    h, u0, b = _shared_instance()
    solve = {
        "eigen": eigen_solvers.solve_eigen_constant,
        "negdef": lambda p: solve_negdef(p, 0.25, 1e-4),
        "sqrt": lambda p: solve_sqrt_access(p, exact_dilation(h, 1.0), 1e-4),
    }[solver]
    src = SampledSource(lambda t: np.cos(t) * b,
                        derivative=lambda t: -np.sin(t) * b)
    with pytest.raises(ValueError, match="constant b or none"):
        solve(OdeProblem(-(h @ h), u0, 2.0, src))
    tiny = OdeProblem(-(h @ h), 1e-13 * u0 / np.linalg.norm(u0), 0.1)
    assert 5e-14 < np.linalg.norm(solve_reference(tiny)) <= TOL.zero
    with pytest.raises(ValueError, match=r"u\(T\) vanishes"):
        solve(tiny)


def test_qsvt_solves_make_a_fixed_number_of_dense_norms(monkeypatch):
    # every construction is checked on the diagonals of the one EigenSystem
    # exact_dilation builds: the only N×N spectral norm is its basis
    # defect; the sqrt access's input check ‖−H² − A‖ ≤ 1e-9 passes on the
    # Frobenius norm
    import ffode.block_encoding as bem
    import ffode.linalg as linalg
    n = 64
    shapes = []

    def counted(m):
        shapes.append(np.shape(m))
        return spectral_norm(m)
    for module in (linalg, bem, qsvt_solvers):
        monkeypatch.setattr(module, "spectral_norm", counted)

    rng = np.random.default_rng(64)
    a = random_negdef(rng, n, delta=0.25)
    a = (a + a.conj().T) / 2
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for source in (None, b):
        shapes.clear()
        rep = solve_negdef(OdeProblem(a, u0, 10.0, source), 0.25, 1e-6)
        assert rep.error_vs_reference <= 1e-6
        assert shapes.count((n, n)) == 1

    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    h = (q * rng.uniform(0.0, 1.0, n)) @ q.conj().T
    h = (h + h.conj().T) / 2
    shapes.clear()
    rep = solve_sqrt_access(OdeProblem(-(h @ h), u0, 100.0, b),
                            exact_dilation(h, 1.0), 1e-6)
    assert rep.error_vs_reference <= 1e-6
    assert shapes.count((n, n)) == 1


def test_sqrt_access_check_falls_back_to_the_spectral_norm(monkeypatch):
    # X = −H² − A = 0.6e-9·I at N = 64: ‖X‖_F = 4.8e-9 misses 1e-9, so the
    # SVD decides, and ‖X‖₂ = 0.6e-9 passes
    n = 64
    rng = np.random.default_rng(65)
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    h = (q * rng.uniform(0.0, 1.0, n)) @ q.conj().T
    u_h = exact_dilation((h + h.conj().T) / 2, 1.0)
    hw = u_h.target_diagonal.real
    minus_h2 = u_h.eigen.apply_function(lambda _: -hw * hw)
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shapes = []
    monkeypatch.setattr(qsvt_solvers, "spectral_norm",
                        lambda m: shapes.append(np.shape(m)) or spectral_norm(m))
    shift = 0.6e-9 * np.eye(n)
    assert np.linalg.norm(shift) == pytest.approx(4.8e-9)
    rep = solve_sqrt_access(OdeProblem(minus_h2 - shift, u0, 1.0), u_h, 1e-6)
    assert rep.error_vs_reference <= 1e-6
    assert shapes == [(n, n)]
    # a rank-one X with ‖X‖₂ = ‖X‖_F = 2e-9 is rejected
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rank_one = 2e-9 * np.outer(v, v.conj())
    with pytest.raises(ValueError, match="does not equal -H²"):
        solve_sqrt_access(OdeProblem(minus_h2 - rank_one, u0, 1.0), u_h, 1e-6)
