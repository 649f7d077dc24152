"""Matrix-core utilities: norms, distances, exponentials, perturbation lemmas."""

import math
import os

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ffode import (
    TOL, EigenSystem, FourierBasis, fidelity_perturbation_bound,
    global_phase_distance, logarithmic_norm, matrix_exponential,
    non_normality, pure_state_trace_distance, renormalization_error_bounds,
    schatten1_distance, spectral_norm,
)
from ffode.lower_bounds import (witness_nonnormal_homogeneous,
                                witness_nonnormal_inhomogeneous)
from ffode.pde import build_dh, dft_tensor

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def nonnormal_witness(delta):
    return np.array([[1j, 1j / delta, 0], [0, 2j, 0], [0, 0, 3j]])


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([-2.0, 1.0])) == pytest.approx(2.0)


def test_spectral_norm_discrete_laplacian():
    # SVD of the explicit 4x4 stencil; max_k 4n² sin²(kπ/n) = 64 at n = 4
    dh = build_dh(4)
    svd_max = np.linalg.svd(dh, compute_uv=False)[0]
    assert spectral_norm(dh) == pytest.approx(svd_max)
    assert spectral_norm(dh) == pytest.approx(64.0, abs=1e-10)


def test_schatten1_distance_identical():
    m = np.array([[1.0, 2j], [0.5, -1.0]])
    assert schatten1_distance(m, m) == pytest.approx(0.0, abs=1e-14)


def test_schatten1_distance_orthogonal_pure_states():
    rho0 = np.diag([1.0, 0.0])
    rho1 = np.diag([0.0, 1.0])
    assert schatten1_distance(rho0, rho1) == pytest.approx(1.0)


def test_schatten1_distance_plus_state():
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho_plus = np.outer(plus, plus.conj())
    assert schatten1_distance(rho0, rho_plus) == pytest.approx(1 / math.sqrt(2))


def test_schatten1_distance_shape_mismatch():
    with pytest.raises(ValueError):
        schatten1_distance(np.eye(2), np.eye(3))


def test_trace_distance_equal_and_orthogonal():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    dist, _ = pure_state_trace_distance(e0, e0)
    assert dist == pytest.approx(0.0, abs=1e-12)
    dist, bound = pure_state_trace_distance(e0, e1)
    assert dist == pytest.approx(1.0)
    assert dist <= bound


def test_trace_distance_known_overlap():
    # |<psi|phi>| = 0.99499 gives sqrt(1 - 0.99) (overlap² = 0.99)
    ov = math.sqrt(0.99)
    phi = np.array([ov, math.sqrt(1 - ov ** 2)])
    psi = np.array([1.0, 0.0])
    dist, _ = pure_state_trace_distance(psi, phi)
    assert dist == pytest.approx(math.sqrt(1 - 0.99), abs=1e-10)
    # cross-check against the density-matrix trace distance
    rho = np.outer(psi, psi.conj())
    sig = np.outer(phi, phi.conj())
    assert dist == pytest.approx(schatten1_distance(rho, sig), abs=1e-10)


def test_trace_distance_requires_unit_norm():
    with pytest.raises(ValueError):
        pure_state_trace_distance(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_trace_distance_two_norm_bound_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        psi, phi = random_unit(rng, 6), random_unit(rng, 6)
        dist, bound = pure_state_trace_distance(psi, phi)
        assert dist <= bound + 1e-12


def test_matrix_exponential_zero_and_scalar():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))
    out = matrix_exponential(np.array([[-1.0]]), 1.0)
    assert out[0, 0] == pytest.approx(math.exp(-1.0))


def test_matrix_exponential_nonnormal_witness():
    # compare against V e^{D} V^{-1} with the explicit eigendecomposition
    delta = 0.5
    a = nonnormal_witness(delta)
    v = np.array([[1.0, 1.0, 0.0], [0.0, delta, 0.0], [0.0, 0.0, 1.0]])
    d = np.diag([1j, 2j, 3j])
    direct = v @ matrix_exponential(d, 1.0) @ np.linalg.inv(v)
    assert np.allclose(matrix_exponential(a, 1.0), direct, atol=1e-12)


def test_matrix_exponential_eigh_only_for_hermitian_or_skew(monkeypatch):
    import ffode.linalg
    calls = []
    pade = ffode.linalg._pade_exponential

    def counted(m):
        calls.append(m)
        return pade(m)
    monkeypatch.setattr(ffode.linalg, "_pade_exponential", counted)
    rng = np.random.default_rng(19)
    q = random_unitary(rng, 6)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cases = {
        "hermitian": ((q * rng.uniform(-2, 1, 6)) @ q.conj().T, False),
        "skew": ((x - x.conj().T) / 2.0, False),
        "normal": ((q * (rng.uniform(-2, 1, 6) + 1j * rng.uniform(-2, 2, 6)))
                   @ q.conj().T, True),
        "nonnormal": (nonnormal_witness(0.5), True),
    }
    for name, (a, by_pade) in cases.items():
        calls.clear()
        out = matrix_exponential(a, 0.8)
        assert bool(calls) == by_pade, name
        assert spectral_norm(out - sla.expm(0.8 * a)) < 1e-12, name


#: relative Frobenius distance allowed between the Padé exponential and
#: scipy.linalg.expm, which run the same Al-Mohy & Higham (2009) algorithm
EXPM_RTOL = 1e-12

#: the Padé degrees of Al-Mohy & Higham (2009) and their θ_m
PADE_THETAS = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}


def assert_matches_expm(out, want):
    assert np.all(np.isfinite(out))
    assert np.linalg.norm(out - want) <= EXPM_RTOL * np.linalg.norm(want)


def pade_input(rng, n, kind, norm1):
    """An n×n matrix of 1-norm ``norm1``: a dense complex Gaussian, its upper
    triangle, or a cyclic permutation with unit-modulus entries, whose every
    power keeps 1-norm 1, so d_k = ‖A^k‖₁^{1/k} equals ‖A‖₁."""
    if kind == "phase-permutation":
        a = np.roll(np.eye(n), 1, axis=0) * np.exp(2j * np.pi * rng.random(n))
    else:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "triangular":
            a = np.triu(a)
    return a * (norm1 / np.abs(a).sum(axis=0).max())


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64),
       kind=st.sampled_from(["dense", "triangular", "phase-permutation"]),
       log_scale=st.floats(-3.0, 3.0))
def test_matrix_exponential_matches_scipy_expm(seed, n, kind, log_scale):
    # scipy squares triangular input by its own Code Fragment 2.1, which
    # drifts from e^A by up to 5e-11 at ‖A‖₁ = 10^2.5..10^3 (against 40-digit
    # mpmath, where this exponential stays within 1.3e-15); above 10² a
    # triangular matrix has no reference here at 1e-12
    assume(kind != "triangular" or log_scale <= 2.0)
    rng = np.random.default_rng(seed)
    a = pade_input(rng, n, kind, 10.0 ** log_scale)
    # shift the spectral abscissa to 0 so that e^A stays finite at 1e3
    a = a - np.linalg.eigvals(a).real.max() * np.eye(n)
    assert_matches_expm(matrix_exponential(a), sla.expm(a))


@pytest.mark.parametrize("m", sorted(PADE_THETAS))
@pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9],
                         ids=["below", "above"])
@pytest.mark.parametrize("kind", ["dense", "phase-permutation"])
def test_matrix_exponential_at_each_pade_threshold(m, side, kind):
    rng = np.random.default_rng([m, int(side > 1), len(kind)])
    for n in (2, 5, 16, 64):
        a = pade_input(rng, n, kind, PADE_THETAS[m] * side)
        assert_matches_expm(matrix_exponential(a), sla.expm(a))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
@pytest.mark.parametrize("c", [1e-3, 1.0, 1e2, 1e3])
def test_matrix_exponential_nilpotent_jordan_block(n, c):
    # e^{cJ} is the finite series Σ_k (cJ)^k/k!: c^k/k! on superdiagonal k
    a = c * np.eye(n, k=1)
    exact = sum(np.eye(n, k=k) * (c ** k / math.factorial(k))
                for k in range(n))
    out = matrix_exponential(a)
    assert_matches_expm(out, exact)
    if c <= 1e2:
        # at c = 1e3, n = 16 scipy's own error reaches 1.8e-12
        assert_matches_expm(out, sla.expm(a))


@pytest.mark.parametrize("delta", [0.5, 0.1, 1e-3])
@pytest.mark.parametrize("t", [0.3, 1.0, 7.0])
def test_matrix_exponential_nonnormal_witnesses_match_scipy(delta, t):
    for pair in (witness_nonnormal_homogeneous(delta),
                 witness_nonnormal_inhomogeneous(delta)):
        a = pair.coefficient
        assert_matches_expm(matrix_exponential(a, t), sla.expm(a * t))


def test_matrix_exponential_triangular_large_offdiagonal():
    a = np.array([[0.3 + 1j, 1e4, 0.1, 0.0],
                  [0.0, -0.5, 2.0, 1.0],
                  [0.0, 0.0, 0.2j, -3.0],
                  [0.0, 0.0, 0.0, -1.0 + 0.5j]])
    for t in (1e-3, 0.1, 1.0, 3.0):
        assert_matches_expm(matrix_exponential(a, t), sla.expm(a * t))


def test_matrix_exponential_stack_matches_each_matrix():
    # per-matrix scaling: the stack spans norms from no squaring to many
    rng = np.random.default_rng(41)
    scales = np.logspace(-3, 2, 12)
    stack = np.stack([pade_input(rng, 8, "dense", c) for c in scales])
    stack[3] = np.eye(8, k=1)  # a nilpotent member
    out = matrix_exponential(stack, 0.9)
    assert out.shape == stack.shape
    for k in range(len(scales)):
        assert_matches_expm(out[k], sla.expm(0.9 * stack[k]))
        assert_matches_expm(out[k], matrix_exponential(stack[k], 0.9))


def test_matrix_exponential_semigroup_normal():
    rng = np.random.default_rng(3)
    for seed in range(5):
        q = random_unitary(rng, 8)
        w = rng.uniform(-1, 0, 8) + 1j * rng.uniform(-2, 2, 8)
        a = (q * w) @ q.conj().T
        s, t = rng.uniform(0.1, 2.0, 2)
        lhs = matrix_exponential(a, s + t)
        rhs = matrix_exponential(a, s) @ matrix_exponential(a, t)
        assert spectral_norm(lhs - rhs) < 1e-9


def test_non_normality_hermitian_and_unitary():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    herm = (g + g.conj().T) / 2
    assert non_normality(herm) < 1e-7
    assert non_normality(random_unitary(rng, 5)) < 1e-7


def test_non_normality_witness_closed_form():
    delta = 0.5
    mu = non_normality(nonnormal_witness(delta))
    assert mu == pytest.approx((1 + delta ** 2) ** 0.25 / delta, abs=1e-10)
    assert mu == pytest.approx(2.1147425268, abs=1e-6)


def test_non_normality_shift_invariant():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for c in (-2.0, 0.3, 10.0):
        shifted = a + c * np.eye(6)
        assert abs(non_normality(a) - non_normality(shifted)) < 1e-10


def test_logarithmic_norm_antihermitian_and_diagonal():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    anti = (g - g.conj().T) / 2
    assert logarithmic_norm(anti) == pytest.approx(0.0, abs=1e-12)
    assert logarithmic_norm(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)


def test_logarithmic_norm_appendix_witness():
    delta = 0.5
    a = np.array([[-1, -1 / delta, 0], [0, -2, 0], [0, 0, -0.5]])
    herm = (a + a.conj().T) / 2
    expected = np.linalg.eigvalsh(herm)[-1]
    assert logarithmic_norm(a) == pytest.approx(expected)
    # explicit 2x2 block eigenvalue (-3 + sqrt(5))/2 dominates -1/2
    assert logarithmic_norm(a) == pytest.approx((-3 + math.sqrt(5)) / 2)


def test_logarithmic_norm_bounds_decay():
    rng = np.random.default_rng(17)
    for seed in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = a - 2.0 * np.eye(8)
        la = logarithmic_norm(a)
        for t in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert spectral_norm(matrix_exponential(a, t)) <= \
                math.exp(la * t) + 1e-8


def test_renormalization_bounds_identity():
    a = np.array([3.0, 4.0])
    lower, bound = renormalization_error_bounds(a, a)
    assert lower == pytest.approx(5.0)
    assert bound == pytest.approx(0.0, abs=1e-14)


def test_renormalization_bounds_small_perturbation():
    a = np.array([1.0, 0.0])
    at = np.array([1.0, 0.1])
    lower, bound = renormalization_error_bounds(a, at)
    assert bound == pytest.approx(0.2)
    actual = np.linalg.norm(a / np.linalg.norm(a) - at / np.linalg.norm(at))
    assert actual == pytest.approx(0.0995, abs=1e-3)
    assert actual <= bound


def test_renormalization_bounds_collinear():
    lower, bound = renormalization_error_bounds([2.0, 0.0], [1.9, 0.0])
    assert lower == pytest.approx(1.9)
    assert bound == pytest.approx(0.1)


def test_renormalization_bounds_zero_vector():
    with pytest.raises(ValueError):
        renormalization_error_bounds([0.0, 0.0], [1.0, 0.0])


def test_renormalization_bounds_check_survives_optimized_mode():
    # a NaN bound fails the re-verification, also under python -O, which
    # strips assert statements
    import subprocess
    import sys
    code = ("import warnings; warnings.simplefilter('ignore')\n"
            "from ffode import renormalization_error_bounds as r\n"
            "try:\n"
            "    r([float('nan'), 0.0], [1.0, 0.0])\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", code],
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert done.returncode == 0, flags


def test_fidelity_perturbation_identity_and_swap():
    rng = np.random.default_rng(19)
    psi, phi = random_unit(rng, 4), random_unit(rng, 4)
    assert fidelity_perturbation_bound(psi, phi, psi, phi)
    assert fidelity_perturbation_bound(psi, phi, phi, psi)


def test_fidelity_perturbation_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        vs = [random_unit(rng, 4) for _ in range(4)]
        assert fidelity_perturbation_bound(*vs)


def test_unitary_invariance_of_spectral_norm():
    rng = np.random.default_rng(29)
    for _ in range(20):
        u = random_unitary(rng, 6)
        v = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert abs(spectral_norm(u @ v) - spectral_norm(v)) < 1e-10


def test_eigensystem_roundtrip_and_validation():
    rng = np.random.default_rng(31)
    q = random_unitary(rng, 6)
    w = rng.uniform(-1, 0, 6) + 1j * rng.uniform(-1, 1, 6)
    a = (q * w) @ q.conj().T
    es = EigenSystem.from_matrix(a)
    assert spectral_norm(es.matrix - a) < 1e-8
    assert spectral_norm(es.basis.conj().T @ es.basis - np.eye(6)) < 1e-10
    # non-normal input is rejected
    with pytest.raises(ValueError):
        EigenSystem.from_matrix(nonnormal_witness(0.5))
    # non-unitary basis is rejected
    with pytest.raises(ValueError):
        EigenSystem(np.array([[1.0, 1.0], [0.0, 1.0]]), [1.0, 2.0])


def test_eigensystem_from_hermitian_or_skew_matrix_by_eigh():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    herm = (x + x.conj().T) / 2.0
    for a, phase in ((herm, 1.0), (1j * herm, 1j)):
        es = EigenSystem.from_matrix(a)
        assert spectral_norm(es.matrix - a) < 1e-12
        assert spectral_norm(es.basis.conj().T @ es.basis - np.eye(6)) < 1e-12
        # eigh order: ascending real part, or imaginary part for skew input
        assert np.allclose(es.eigenvalues / phase, np.linalg.eigvalsh(herm),
                           rtol=0.0, atol=1e-12)


#: a spectrum in the square |Re λ|, |Im λ| ≤ 0.7 (so ‖A‖ < 1): drawn
#: continuously, or from the lattice {(j + ik)/2 : j, k ∈ {-1, 0, 1}}, whose
#: nine values repeat at every N > 9
SPECTRA = {
    "continuous": lambda rng, n: (rng.uniform(-0.7, 0.7, n)
                                  + 1j * rng.uniform(-0.7, 0.7, n)),
    "lattice": lambda rng, n: (rng.integers(-1, 2, n)
                               + 1j * rng.integers(-1, 2, n)) / 2.0,
}


@pytest.mark.parametrize("t", [0.0, 1e-12, 3e-11, 3e-10, 1e-9])
@pytest.mark.parametrize("n", [4, 16, 64, 256])
@pytest.mark.parametrize("spectrum", list(SPECTRA))
def test_eigensystem_from_normal_matrix_agrees_with_schur(spectrum, n, t):
    # A = QΛQ† + tE with ‖E‖₂ = 1: scipy's complex Schur form is the oracle
    # of the normality verdict, ‖T − diag T‖₂ ≤ TOL.normality·max(1, ‖A‖)
    rng = np.random.default_rng([n, int(t * 1e12),
                                 list(SPECTRA).index(spectrum)])
    lam = SPECTRA[spectrum](rng, n)
    lam[0] = 0.5 + 0.5j  # neither Hermitian nor skew-Hermitian
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = random_unitary(rng, n)
    a = (q * lam) @ q.conj().T + t * e / spectral_norm(e)
    norm = spectral_norm(a)
    tmat = sla.schur(a, output="complex")[0]
    schur_normal = (spectral_norm(np.triu(tmat, 1))
                    <= TOL.normality * max(1.0, norm))
    assert schur_normal == (t < 1e-10)
    if not schur_normal:
        with pytest.raises(ValueError, match="not normal"):
            EigenSystem.from_matrix(a)
        return
    es = EigenSystem.from_matrix(a)
    assert spectral_norm(es.matrix - a) <= TOL.reconstruction
    cost = np.abs(es.eigenvalues[:, None] - np.diag(tmat)[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-12 * norm


def test_global_phase_distance():
    rng = np.random.default_rng(37)
    v = random_unit(rng, 5)
    assert global_phase_distance(v, np.exp(1.3j) * v) < 1e-12
    w = random_unit(rng, 5)
    assert global_phase_distance(v, w) <= np.linalg.norm(v - w) + 1e-12


def test_fourier_basis_matches_dense_dft():
    rng = np.random.default_rng(41)
    for n, d in [(4, 1), (5, 2), (3, 3), (8, 2)]:
        f = dft_tensor(n, d)
        big = n ** d
        mixer = np.block([[np.eye(big), np.eye(big)],
                          [np.eye(big), -np.eye(big)]]) / math.sqrt(2.0)
        zero = np.zeros_like(f)
        lifted = np.block([[f, zero], [zero, f]]) @ mixer
        for dense, basis in ((f, FourierBasis(n, d)),
                             (lifted, FourierBasis(n, d, lifted=True))):
            assert basis.dim == dense.shape[0]
            assert np.max(np.abs(basis.dense() - dense)) < 1e-14
            # one vector and a batch of columns
            x = (rng.standard_normal((basis.dim, 3))
                 + 1j * rng.standard_normal((basis.dim, 3)))
            assert np.allclose(basis.apply(x), dense @ x, atol=1e-13)
            assert np.allclose(basis.apply_adjoint(x), dense.conj().T @ x,
                               atol=1e-13)
            assert np.allclose(basis.apply(x[:, 0]), dense @ x[:, 0],
                               atol=1e-13)


def test_eigensystem_fourier_basis_on_demand():
    lam = np.linspace(-3.0, 0.0, 16) + 1j * np.linspace(0.0, 1.0, 16)
    es = EigenSystem(FourierBasis(4, 2), lam)
    dense = EigenSystem(dft_tensor(4, 2), lam)
    assert es.unitarity_defect == 0.0 and es.dim == 16
    assert dense.unitarity_defect < 1e-14
    assert np.max(np.abs(es.basis - dense.basis)) < 1e-14
    assert np.max(np.abs(es.matrix - dense.matrix)) < 1e-13
    x = np.arange(16.0) + 1j
    assert np.allclose(es.apply(lam * es.apply_adjoint(x)), dense.matrix @ x,
                       atol=1e-12)
    with pytest.raises(ValueError, match="count"):
        EigenSystem(FourierBasis(4, 2), lam[:8])
