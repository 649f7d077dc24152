"""Eigen-oracle solvers: exactness, constant ledgers, Riemann-sum path."""

import math

import numpy as np
import pytest

from ffode import (
    BlockEncoding, DiagonalEncoding, EigenSystem, OdeProblem,
    QueryLedger, SampledSource, be_duhamel_eigen, be_exp_eigen,
    matrix_exponential, quadrature_error_bound, quadrature_nodes_for,
    riemann_plan, solve_eigen, solve_eigen_constant, solve_eigen_timedep,
    solve_reference, spectral_norm, verify_block_encoding,
)
from ffode import eigen_solvers, reference
from ffode.block_encoding import U_EIG
from ffode.config import MAX_RIEMANN_NODES, TOL


def random_eigensystem(rng, n, re_range=(-1.0, 0.0), im_range=(-2.0, 2.0)):
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    lam = rng.uniform(*re_range, n) + 1j * rng.uniform(*im_range, n)
    return EigenSystem(q, lam)


def oracle_query_total(ledger):
    return ledger.total() - ledger[U_EIG]


def test_be_exp_eigen_real_case_diagonal():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    be = be_exp_eigen(es, math.log(2.0))
    assert be.alpha == pytest.approx(1.0)
    assert np.allclose(be.encoded, np.diag([1.0, 0.5]), atol=1e-13)


def test_be_exp_eigen_antihermitian_is_unitary():
    rng = np.random.default_rng(5)
    es = random_eigensystem(rng, 4, re_range=(0.0, 0.0))
    be = be_exp_eigen(es, 2.0)
    assert be.alpha == 1.0  # a purely imaginary spectrum needs no shift
    u = be.block
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    p = OdeProblem(es, np.array([1.0, 0, 0, 0]), 2.0)
    rep = solve_eigen_constant(p)
    assert rep.success_probability == pytest.approx(1.0, abs=1e-12)


def test_be_exp_eigen_positive_shift():
    es = EigenSystem(np.eye(2), [0.5, -1.0])
    be = be_exp_eigen(es, 2.0)
    assert be.alpha == pytest.approx(math.exp(1.0))
    assert verify_block_encoding(be, matrix_exponential(es.matrix, 2.0)) < 1e-10


def test_be_duhamel_eigen_values():
    # λ = 0 contributes T through f = 1
    es0 = EigenSystem(np.eye(2), [0.0, -2.0])
    T = 3.0
    be0 = be_duhamel_eigen(es0, T)
    assert be0.alpha == pytest.approx(T)
    assert be0.encoded[0, 0] == pytest.approx(T)

    es1 = EigenSystem(np.eye(1), [-1.0])
    be1 = be_duhamel_eigen(es1, 1.0)
    assert be1.encoded[0, 0] == pytest.approx(1.0 - math.exp(-1.0))

    # βT = 2π: the integral of a pure phase cancels exactly
    es2 = EigenSystem(np.eye(1), [1j * math.pi])
    be2 = be_duhamel_eigen(es2, 2.0)
    assert abs(be2.encoded[0, 0]) < 1e-12
    assert be2.alpha == pytest.approx(2.0 / math.pi)


def test_ledger_constants_real_and_complex():
    # 6 oracle queries (real case) / 10 (complex case) and 2 uses of U,
    # independent of T and of the dimension: exact integer equality
    rng = np.random.default_rng(7)
    for n in (4, 8, 16):
        real_es = random_eigensystem(rng, n, im_range=(0.0, 0.0))
        cplx_es = random_eigensystem(rng, n)
        for T in (1.0, 10.0, 100.0):
            for builder in (be_exp_eigen, be_duhamel_eigen):
                led = builder(real_es, T).ledger
                assert oracle_query_total(led) == 6
                assert led[U_EIG] == 2
            for builder in (be_exp_eigen, be_duhamel_eigen):
                led = builder(cplx_es, T).ledger
                assert oracle_query_total(led) == 10
                assert led[U_EIG] == 2


def test_solve_eigen_homogeneous_hand_check():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = solve_eigen_constant(OdeProblem(es, u0, math.log(2.0)))
    assert rep.success_probability == pytest.approx(5.0 / 8.0, abs=1e-12)
    expected = np.array([2.0, 1.0]) / math.sqrt(5.0)
    assert np.allclose(rep.output_state, expected, atol=1e-12)


def test_solve_eigen_homogeneous_zero_mode():
    es = EigenSystem(np.eye(2), [0.0, -3.0])
    u0 = np.array([1.0, 0.0])
    for T in (0.5, 5.0, 50.0):
        rep = solve_eigen_constant(OdeProblem(es, u0, T))
        assert rep.success_probability == pytest.approx(1.0, abs=1e-12)


def test_solve_eigen_inhomogeneous_hand_check():
    es = EigenSystem(np.eye(1), [0.0])
    rep = solve_eigen_constant(OdeProblem(es, [1.0], 5.0, [1.0]))
    assert rep.success_probability == pytest.approx(36.0 / 52.0, abs=1e-12)
    assert rep.error_vs_reference < 1e-12


def test_solve_eigen_inhomogeneous_zero_mode_source():
    # b on the zero mode: ‖u(T)‖ ~ T keeps the repeat count O(1)
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([1.0, 1.0]) / math.sqrt(2)
    b = np.array([1.0, 0.0])
    repeats = []
    for T in (10.0, 40.0, 160.0):
        rep = solve_eigen_constant(OdeProblem(es, u0, T, b))
        ref = solve_reference(OdeProblem(es, u0, T, b))
        assert np.linalg.norm(ref) >= 0.9 * T
        repeats.append(rep.repeats_aa)
    assert max(repeats) <= min(repeats) + 2


def test_solve_eigen_stationary():
    rng = np.random.default_rng(11)
    es = random_eigensystem(rng, 4, re_range=(-1.0, -0.2))
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = -(es.matrix @ u0)
    rep = solve_eigen_constant(OdeProblem(es, u0, 7.0, b))
    fid = abs(np.vdot(rep.output_state, u0 / np.linalg.norm(u0)))
    assert 1.0 - fid < 1e-9


@pytest.mark.parametrize("alpha", [3e-9, 1e-8, 1e-6, 4e-5])
def test_constant_source_small_positive_top_real_part(alpha):
    # C(α,0,T) must not cancel below the top mode's own Duhamel kernel
    es = EigenSystem(np.eye(2), [alpha, -1.0 + 1j])
    for T in (0.5, 1.0, 3.0):
        rep = solve_eigen_constant(OdeProblem(es, [1.0, 1.0], T, [1.0, 0.0]))
        assert rep.error_vs_reference < 1e-12
        assert rep.extras["alpha_shift"] == alpha


def test_eigen_solvers_match_reference_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        es = random_eigensystem(rng, 8)
        u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        T = rng.uniform(0.2, 3.0)
        hom = solve_eigen_constant(OdeProblem(es, u0, T))
        assert hom.error_vs_reference < 1e-10
        inh = solve_eigen_constant(OdeProblem(es, u0, T, b))
        assert inh.error_vs_reference < 1e-10


def test_shift_covariance():
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    lam = rng.uniform(-1, 0, 4) + 1j * rng.uniform(-1, 1, 4)
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    T = 1.3
    base = EigenSystem(q, lam)
    rep0 = solve_eigen_constant(OdeProblem(base, u0, T))
    for c in (0.7, -0.4, 2.0):
        shifted = EigenSystem(q, lam + c)
        rep1 = solve_eigen_constant(OdeProblem(shifted, u0, T))
        ov = abs(np.vdot(rep0.output_state, rep1.output_state))
        assert np.linalg.norm(
            rep0.output_state - rep1.output_state * np.sign(ov)) < 1e-10 or \
            math.sqrt(2 - 2 * min(ov, 1.0)) < 1e-10
        # the shift is absorbed into the normalization: identical probability
        assert rep1.success_probability == pytest.approx(
            rep0.success_probability, abs=1e-10)


def test_riemann_plan():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    const = riemann_plan(lambda t: np.array([3.0, 4.0]), 2.0, 7, es)
    assert const.nodes == 7
    assert const.avg_square_norm == pytest.approx(25.0)
    # λ = 0 sums b over the left nodes exactly: (T/M)·Σ_k 3 = 3T
    assert const.integral[0] == pytest.approx(6.0)
    # nodes 0 and π/2: ‖b‖² is 0 and 1, and the λ = 0 sum is (π/2)·1
    plan = riemann_plan(lambda t: np.sin(t) * [1.0, 0.0], math.pi, 2, es)
    assert plan.avg_square_norm == pytest.approx(0.5)
    assert plan.integral[0] == pytest.approx(math.pi / 2.0)
    # one node, at t = 0: T·e^{ΛT}·b(0)
    single = riemann_plan(lambda t: np.cos(t) * [1.0, 1.0], 5.0, 1, es)
    assert np.allclose(single.integral, 5.0 * np.exp([0.0, -5.0]),
                       rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        riemann_plan(lambda t: np.array([1.0, 0.0]), 1.0, 0, es)


def test_quadrature_error_bound_values():
    # constant b with A = 0: the drive term vanishes
    es0 = EigenSystem(np.eye(1), [0.0])
    src0 = SampledSource(lambda t: np.array([1.0]),
                         derivative=lambda t: np.array([0.0]))
    p0 = OdeProblem(es0, [1.0], 1.0, src0)
    assert quadrature_error_bound(p0, 10) == pytest.approx(0.0, abs=1e-15)

    # A = diag(-1), b = sin t on [0,1]: sup(|sin| + |cos|) = sqrt(2) at π/4
    es1 = EigenSystem(np.eye(1), [-1.0])
    src1 = SampledSource(np.sin, derivative=np.cos)
    p1 = OdeProblem(es1, [0.0], 1.0, src1)
    bound = quadrature_error_bound(p1, 100)
    assert bound == pytest.approx(math.sqrt(2.0) / 200.0, rel=1e-6)
    # doubling M halves the bound
    assert quadrature_error_bound(p1, 200) == pytest.approx(
        bound / 2.0, rel=1e-12)


def test_quadrature_bound_requires_derivative():
    es = EigenSystem(np.eye(1), [-1.0])
    src = SampledSource(np.sin)
    p = OdeProblem(es, [0.0], 1.0, src)
    with pytest.raises(ValueError):
        quadrature_error_bound(p, 100)


def test_timedep_without_a_derivative_raises_with_M_given():
    # no derivative, no bound: a given M no longer claims ε unbacked
    es = EigenSystem(np.eye(2), [-1.0, -2.0])

    def b(t):
        return np.cos(5 * t) * [1.0, 1.0]

    p = OdeProblem(es, [1.0, 1.0], 1.0, SampledSource(b))
    for M in (None, 3):
        with pytest.raises(ValueError, match="source's derivative"):
            solve_eigen_timedep(p, 0.5, M=M)
    # with it, M = 3 claims what its bound backs, at any ε
    p = OdeProblem(es, [1.0, 1.0], 1.0, SampledSource(
        b, derivative=lambda t: -5 * np.sin(5 * t) * [1.0, 1.0]))
    norm_uT = np.linalg.norm(solve_reference(p))
    for eps in (0.5, 0.1):
        rep = solve_eigen_timedep(p, eps, M=3)
        bound = rep.extras["quadrature_bound"]
        assert bound <= quadrature_error_bound(p, 3)
        assert rep.claimed_eps == min(math.sqrt(2.0), max(
            eps, 2.0 * bound / norm_uT + TOL.exact_solver))


def test_timedep_matches_constant_solver():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([1.0, 1.0]) / math.sqrt(2)
    bvec = np.array([1.0, 0.5])
    src = SampledSource(lambda t: bvec, derivative=lambda t: 0.0 * bvec)
    T = 2.0
    td = solve_eigen_timedep(OdeProblem(es, u0, T, src), 1e-3, M=400_000)
    const = solve_eigen_constant(OdeProblem(es, u0, T, bvec))
    fid = abs(np.vdot(td.output_state, const.output_state))
    assert 1.0 - fid < 1e-9


def test_timedep_error_within_quadrature_budget():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([1.0, 1.0]) / math.sqrt(2)
    src = SampledSource(lambda t: np.cos(t) * [1.0, 0.0],
                        derivative=lambda t: -np.sin(t) * [1.0, 0.0])
    T = math.pi / 2.0
    p = OdeProblem(es, u0, T, src)
    eps = 1e-4
    rep = solve_eigen_timedep(p, eps)
    ref = solve_reference(p)
    # unnormalized quadrature deviation obeys the bound and the ε target
    m = rep.extras["nodes"]
    bound = quadrature_error_bound(p, m)
    assert bound <= eps * np.linalg.norm(ref) / 2.0
    assert rep.error_vs_reference <= eps


def test_timedep_shift_is_a_positive_top_real_part():
    es = EigenSystem(np.eye(2), [0.3 + 1j, -1.0])
    src = SampledSource(lambda t: np.hstack([np.cos(t), np.ones_like(t)]),
                        derivative=lambda t: -np.sin(t) * [1.0, 0.0])
    rep = solve_eigen_timedep(OdeProblem(es, [1.0, 0.5], 1.0, src), 1e-2)
    assert rep.extras["alpha_tilde"] == 0.3
    assert rep.error_vs_reference <= 1e-2


def test_timedep_zero_source_reduces_to_homogeneous():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([0.6, 0.8])
    p = OdeProblem(es, u0, 1.5)
    # the router sends a missing b to the constant-source solver; the
    # Riemann-sum solver itself takes only a sampled source
    td = solve_eigen(p, 1e-6)
    hom = solve_eigen_constant(p)
    assert np.allclose(td.output_state, hom.output_state, atol=1e-12)
    assert td.success_probability == pytest.approx(hom.success_probability)
    with pytest.raises(ValueError, match="sampled"):
        solve_eigen_timedep(p, 1e-6)


def test_timedep_node_cap():
    es = EigenSystem(np.eye(1), [-1.0])
    src = SampledSource(np.sin, derivative=np.cos)
    p = OdeProblem(es, [1.0], 4.0, src)
    with pytest.raises(ValueError, match="exceeds the configured cap"):
        solve_eigen_timedep(p, 1e-12)
    assert quadrature_nodes_for(p, 1e-12) > MAX_RIEMANN_NODES


def test_timedep_ledger_independent_of_T_and_M():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([1.0, 0.0])
    src = SampledSource(lambda t: np.array([1.0, 0.0]),
                        derivative=lambda t: np.zeros(2))
    led_keys = None
    for T, M in ((1.0, 1024), (10.0, 1024)):
        rep = solve_eigen_timedep(OdeProblem(es, u0, T, src), 1e-2, M=M)
        oracle_total = rep.ledger.total() - rep.ledger[U_EIG] \
            - rep.ledger["O_u"] - rep.ledger["O_bt"] - rep.ledger["O_bnorm"]
        assert oracle_total == 18  # 10 homogeneous-branch + 8 node-branch
        assert rep.ledger[U_EIG] == 4
        if led_keys is None:
            led_keys = rep.ledger.counts
        else:
            assert rep.ledger.counts == led_keys


def test_riemann_convergence_order():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([0.3, 0.4])
    src = SampledSource(lambda t: np.hstack([np.cos(t), np.sin(2 * t)]),
                        derivative=lambda t: np.hstack([-np.sin(t),
                                                        2 * np.cos(2 * t)]))
    T = 1.0
    p = OdeProblem(es, u0, T, src)
    ref = solve_reference(p)
    errors = []
    grids = [100, 1000, 10000]
    for m in grids:
        rep = solve_eigen_timedep(p, 1.0, M=m)
        # reconstruct the unnormalized Riemann error from the report
        out = rep.output_state
        scale = math.exp(rep.extras["alpha_tilde"] * T) * math.sqrt(
            2 * (np.linalg.norm(u0) ** 2 + T ** 2 * rep.extras["avg_square_norm"]))
        u_tilde = out * math.sqrt(rep.success_probability) * scale
        err = np.linalg.norm(u_tilde - ref)
        assert err <= quadrature_error_bound(p, m)
        errors.append(err)
    slope = np.polyfit(np.log(grids), np.log(errors), 1)[0]
    assert -1.15 <= slope <= -0.85


def test_duhamel_auto_floor_normalizations():
    # a purely imaginary, nonzero spectrum: C = 2/β with β = min |Im λ|
    T = 3.0
    imag = be_duhamel_eigen(EigenSystem(np.eye(2), [2j, -2j]), T)
    assert imag.alpha == pytest.approx(1.0)
    # a zero eigenvalue forces the conservative floor β = 0, so C = T
    mixed = be_duhamel_eigen(EigenSystem(np.eye(2), [0.0, 2j]), T)
    assert mixed.alpha == T


def test_timedep_sweeps_the_drive_term_once():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    sampled = []

    def b_dt(t):
        sampled.append(t.size)
        return -np.sin(t) * [1.0, 0.0]

    src = SampledSource(lambda t: np.cos(t) * [1.0, 0.0], derivative=b_dt)
    p = OdeProblem(es, np.array([1.0, 1.0]) / math.sqrt(2), math.pi / 2.0, src)
    rep = solve_eigen_timedep(p, 1e-4)
    assert sum(sampled) == 4097
    # the shared sweep reproduces the public node count and bound exactly
    eps_prime = 1e-4 * np.linalg.norm(solve_reference(p)) / 2.0
    assert rep.extras["nodes"] == quadrature_nodes_for(p, eps_prime)
    assert rep.extras["quadrature_bound"] == quadrature_error_bound(
        p, rep.extras["nodes"])


def test_timedep_samples_each_node_once():
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    sampled = []

    def b(t):
        sampled.append(t.copy())
        return np.cos(t) * [1.0, 0.0]

    src = SampledSource(b, derivative=lambda t: -np.sin(t) * [1.0, 0.0])
    p = OdeProblem(es, np.array([1.0, 1.0]) / math.sqrt(2), 1.0, src)
    counts = []
    for M in (25, 50):
        sampled.clear()
        solve_eigen_timedep(p, 1.0, M=M)
        counts.append(sum(t.size for t in sampled))
    # the sup sweep and the reference sample the same times at both M; each
    # extra node costs one sampled time of b
    assert counts[1] - counts[0] == 25
    sampled.clear()
    riemann_plan(src, 1.0, 4, es)
    assert [t.shape for t in sampled] == [(4, 1)]
    assert np.array_equal(sampled[0][:, 0], [0.0, 0.25, 0.5, 0.75])


@pytest.mark.parametrize("M", [49, 50])
def test_timedep_streams_the_nodes_in_batches(monkeypatch, M):
    # batches of 7 rows: the Riemann sum calls b ⌈M/7⌉ times, each on a
    # read-only (m, 1) column with m ≤ 7, covering every node once; only
    # the plan's calls are recorded, not the drive sweep's or the reference's
    monkeypatch.setattr(reference, "_BATCH_ENTRIES", 7 * 2)
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    recording, columns = [False], []

    def b(t):
        if recording[0]:
            assert not t.flags.writeable
            columns.append(t.copy())
        return np.cos(t) * [1.0, 0.0]

    def recorded_plan(*args):
        recording[0] = True
        try:
            return riemann_plan(*args)
        finally:
            recording[0] = False

    monkeypatch.setattr(eigen_solvers, "riemann_plan", recorded_plan)
    p = OdeProblem(es, np.array([1.0, 1.0]) / math.sqrt(2), 1.0,
                   SampledSource(b, derivative=lambda t: -np.sin(t)
                                 * [1.0, 0.0]))
    solve_eigen_timedep(p, 1.0, M=M)
    assert len(columns) == math.ceil(M / 7)
    assert all(t.shape[1] == 1 and t.shape[0] <= 7 for t in columns)
    assert np.array_equal(np.vstack(columns)[:, 0], np.arange(M) * (1.0 / M))


def _advdiff_eigensystem():
    from ffode import PdeSpec, eigensystem_of
    spec = PdeSpec("advection-diffusion", 2, 8, 1.0, a=[1.0, 0.5],
                   a_prime=[1.0, -0.5], c=-0.2,
                   u0=lambda x: 1.0 + np.cos(2 * np.pi * x[0]))
    return eigensystem_of(spec)


def test_diagonal_encodings_match_dense_construction():
    # the dense N×N products the encodings used to store, at n = 8, d = 2
    from ffode.pde import dft_tensor
    es = _advdiff_eigensystem()
    u = dft_tensor(8, 2)
    lam = es.eigenvalues
    T = 0.03
    for be in (be_exp_eigen(es, T), be_duhamel_eigen(es, T)):
        assert isinstance(be, DiagonalEncoding) and be.system_dim == 64
        dense = BlockEncoding((u * be.factors) @ u.conj().T, be.alpha,
                              be.epsilon_claim, 1, be.ledger,
                              (u * be.target_diagonal) @ u.conj().T)
        assert np.max(np.abs(be.block - dense.block)) < 1e-12
        assert np.max(np.abs(be.target - dense.target)) < 1e-12
        assert np.max(np.abs(be.unitary - dense.unitary)) < 1e-12
        v = np.linspace(0.0, 1.0, 64) + 0.5j
        assert np.allclose(be.apply(v), dense.block @ v, atol=1e-13)
    assert np.allclose(be_exp_eigen(es, T).target_diagonal, np.exp(lam * T))


def test_diagonal_encoding_checks_need_no_svd(monkeypatch):
    import ffode.block_encoding as bem
    es = _advdiff_eigensystem()
    calls = []
    monkeypatch.setattr(bem, "spectral_norm",
                        lambda m: calls.append(1) or spectral_norm(m))
    be_exp_eigen(es, 0.03)
    be_duhamel_eigen(es, 0.03)
    assert calls == []


def test_diagonal_encodings_reject_bad_factors_and_claims():
    from ffode.eigen_solvers import _dilate_diagonal
    es = _advdiff_eigensystem()
    n = es.dim
    ones = np.ones(n, dtype=complex)
    big = ones.copy()
    big[3] = 1.0 + 2e-10
    with pytest.raises(ValueError, match="exceeds 1"):
        _dilate_diagonal(es, big, 1.0, big, QueryLedger())
    # the construction reads max|factor| alone: 1 + 1e-9 is not a contraction
    big[3] = 1.0 + 1e-9
    with pytest.raises(ValueError, match="contraction"):
        DiagonalEncoding(es, big, 1.0, 0.0, 1, QueryLedger(), big)
    # a target off by 1e-6 in one mode violates a 1e-9 claim
    off = 2.0 * ones
    off[5] += 1e-6
    with pytest.raises(ValueError, match="violates its claim"):
        DiagonalEncoding(es, ones, 2.0, 1e-9, 1, QueryLedger(), off)
    # the same check on a dense basis with a measured defect
    dense = EigenSystem(es.basis, es.eigenvalues)
    assert 0.0 < dense.unitarity_defect < 1e-13
    with pytest.raises(ValueError, match="violates its claim"):
        DiagonalEncoding(dense, ones, 2.0, 1e-9, 1, QueryLedger(), off)
    DiagonalEncoding(dense, ones, 2.0, 1e-9, 1, QueryLedger(), 2.0 * ones)
    with pytest.raises(ValueError, match="one entry per eigenvalue"):
        DiagonalEncoding(dense, ones[1:], 2.0, 1e-9, 1, QueryLedger(),
                         ones[1:])


def test_clamped_factor_widens_the_claim(monkeypatch):
    # with TOL.zero raised to 1e-10, be_duhamel_eigen admits the factor
    # T/C = 1 + 5e-12; the clamp to 1 moves alpha·factor by C·5e-12 ≈ 1e-11,
    # which the claim must cover instead of failing its own check
    from ffode import TOL, verify_block_encoding
    T = 2.0
    C = T / (1.0 + 5e-12)
    monkeypatch.setattr(eigen_solvers, "kernel_C", lambda alpha, beta, T: C)
    monkeypatch.setattr(TOL, "zero", 1e-10)
    be = be_duhamel_eigen(EigenSystem(np.eye(2), np.array([0.0, 1j])), T)
    assert abs(be.factors[0]) == 1.0
    displacement = C * 5e-12
    assert be.epsilon_claim == pytest.approx(
        TOL.verify_slack * C + displacement, rel=1e-3)
    assert verify_block_encoding(be, be.target) == pytest.approx(
        displacement, rel=1e-3)


def test_timedep_raises_on_a_broken_derivative_with_M_given():
    # the drive sweep runs with or without M: a derivative whose rows do not
    # broadcast to (M, N) raises either way
    es = EigenSystem(np.eye(2), [-1.0, -2.0])
    src = SampledSource(lambda t: np.cos(t) * [1.0, 0.0],
                        derivative=lambda t: np.zeros((t.shape[0], 3)))
    p = OdeProblem(es, [1.0, 1.0], 1.0, src)
    for M in (None, 5000):
        with pytest.raises(ValueError, match="broadcast"):
            solve_eigen_timedep(p, 1e-2, M=M)


def _degenerate_problem(source):
    # ‖u(T)‖ = 1e7·e^{-40} ≈ 4e-11 > TOL.zero, but p ≈ (e^{-40})² ≤ 1e-28
    return OdeProblem(EigenSystem(np.eye(2), [-40.0, -41.0]), [1e7, 0.0], 1.0,
                      source)


@pytest.mark.parametrize("source", [
    None,
    SampledSource(lambda t: 1e-30 * np.cos(t) * [1.0, 1.0],
                  derivative=lambda t: -1e-30 * np.sin(t) * [1.0, 1.0]),
], ids=["constant", "riemann"])
def test_degenerate_probability_raises_from_the_shared_step(source):
    p = _degenerate_problem(source)
    assert np.linalg.norm(solve_reference(p)) > 1e-12
    with pytest.raises(ValueError, match="success probability is zero") as exc:
        solve_eigen(p, 1e-3)
    assert exc.traceback[-1].name == "post_selected_report"
