"""The Duhamel reference oracle, its kernel ``exp_integral`` and the
eigen-oracle Duhamel factors f and f+ig, which ``be_duhamel_eigen`` takes
from it."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ffode import (
    EigenSystem, OdeProblem, SampledSource, be_duhamel_eigen, kernel_C,
    matrix_exponential, solve_reference,
)
from ffode import eigen_solvers, reference
from ffode.block_encoding import O_G
from ffode.reference import exp_integral


def _duhamel(lam, t):
    """``be_duhamel_eigen`` of the spectrum lam in the standard basis."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    return be_duhamel_eigen(EigenSystem(np.eye(lam.size), lam), t)


def _factors(lam, t):
    return _duhamel(lam, t).factors


def test_kernel_f_zero_eigenvalue():
    for t in (0.1, 1.0, 50.0):
        assert _factors(0.0, t)[0] == 1.0


def test_kernel_f_closed_form_vs_quadrature():
    val = _factors(-1.0, 1.0)[0]
    assert val.imag == 0.0
    assert val.real == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    # independent quadrature of (1/t)∫₀ᵗ e^{λ(t-s)} ds
    numeric, _ = quad(lambda s: math.exp(-(1.0 - s)), 0.0, 1.0)
    assert val.real == pytest.approx(numeric, abs=1e-10)


def test_kernel_f_series_branch():
    lam = -1e-9
    val = _factors(lam, 1.0)[0].real
    assert val == pytest.approx(1.0 - 5e-10, abs=1e-15)
    numeric, _ = quad(lambda s: math.exp(lam * (1.0 - s)), 0.0, 1.0)
    assert val == pytest.approx(numeric, abs=1e-13)


def _taylor_exp_integral(lam, t):
    """t·Σ_{k<20} (λt)^k/(k+1)!, by Horner in plain float arithmetic."""
    z = lam * t
    acc = 0.0
    for k in range(19, -1, -1):
        acc = acc * z + 1.0 / math.factorial(k + 1)
    return t * acc


@pytest.mark.parametrize("direction", [
    1.0, -1.0, 1j, (1 + 1j) / math.sqrt(2), (-1 + 1j) / math.sqrt(2),
    (-2 - 1j) / math.sqrt(5)])
def test_exp_integral_accurate_above_series_switch(direction):
    # (e^z - 1)/λ cancelled to ~5e-11 relative just above |z| = 1e-6
    mags = np.geomspace(1.1e-6, 1e-2, 40)
    for t in (0.5, 1.0, 2.0):  # powers of two keep z = λt exact
        lam = mags * direction / t
        got = exp_integral(lam, t)
        assert got.shape == lam.shape
        for lj, gj in zip(lam, got):
            ref = _taylor_exp_integral(lj, t)
            assert abs(gj - ref) <= 4e-16 * abs(ref)
            assert exp_integral(lj, t) == gj  # scalar and array agree


def test_kernel_f_rejects_bad_args():
    with pytest.raises(ValueError, match="T must be positive"):
        _duhamel(-1.0, 0.0)
    # the real kernel cannot be handed a positive λ: ``_real_nonpositive``
    # routes such a spectrum to the complex split, and clamps one within
    # TOL.zero of 0 to f = 1
    assert O_G in _duhamel(1e-6, 1.0).ledger.counts
    assert O_G not in _duhamel(5e-13, 1.0).ledger.counts
    assert _factors(5e-13, 1.0)[0] == 1.0


def test_kernel_C_cases():
    assert kernel_C(0.0, 0.0, 3.7) == pytest.approx(3.7)
    assert kernel_C(0.0, 2.0, 100.0) == pytest.approx(1.0)
    assert kernel_C(-1.0, 0.3, 1.0) == pytest.approx(1.0 - math.exp(-1.0))


@pytest.mark.parametrize("alpha", [1e-11, 1e-8, 1e-6, 4e-5, -1e-8])
def test_kernel_C_does_not_cancel_at_small_alpha(alpha):
    # (e^{αT}-1)/α loses ~|log10(αT)| digits; the series is exact to
    # rounding for |αT| ≤ 1.2e-4
    for T in (0.5, 1.0, 3.0):
        z = alpha * T
        want = T * (1.0 + z / 2.0 + z ** 2 / 6.0 + z ** 3 / 24.0
                    + z ** 4 / 120.0)
        assert abs(kernel_C(alpha, 0.0, T) / want - 1.0) < 1e-14
        # C bounds the kernel of its own top eigenvalue, which the second
        # eigenvalue sends through the complex split
        enc = _duhamel([alpha, alpha + 1j], T)
        assert enc.alpha == kernel_C(alpha, 0.0, T)
        assert np.max(np.abs(enc.factors)) <= 1.0 + 1e-12


def test_kernel_fg_complex_cases():
    # C = T: top real part 0, and the -1+i mode keeps β at 0
    enc = _duhamel([0.0, -1.0 + 1j], 2.0)
    assert enc.alpha == kernel_C(0.0, 0.0, 2.0)
    assert enc.factors[0] == pytest.approx(1.0)
    # e^{iβT} - 1 vanishes at βT = 2π; C = 2/β on a purely imaginary spectrum
    enc = _duhamel(1j * math.pi, 2.0)
    assert enc.alpha == kernel_C(0.0, math.pi, 2.0)
    assert abs(enc.factors[0]) == pytest.approx(0.0, abs=1e-12)
    # C = 1 - e^{-1}: top real part -1
    enc = _duhamel([-1.0, -1.0 + 1j], 1.0)
    assert enc.alpha == pytest.approx(1.0 - math.exp(-1.0))
    assert enc.factors[0].real == pytest.approx(1.0)
    assert enc.factors[0].imag == pytest.approx(0.0, abs=1e-12)


def _inconsistent_C(monkeypatch, value):
    monkeypatch.setattr(eigen_solvers, "kernel_C", lambda a, b, T: value)


def test_kernel_fg_flags_inconsistent_normalization(monkeypatch):
    _inconsistent_C(monkeypatch, 1.0)  # integral T = 10 with C = 1
    with pytest.raises(ValueError, match="inconsistent"):
        _duhamel([0.0, 1j], 10.0)


def test_kernels_elementwise_match_scalar_calls(monkeypatch):
    rng = np.random.default_rng(47)
    lam = np.concatenate([[0.0, 5e-13, -1e-9], rng.uniform(-50.0, 0.0, 64)])
    f = _factors(lam, 0.7)
    assert np.array_equal(f, [_factors(z, 0.7)[0] for z in lam])
    assert f[0] == f[1] == 1.0
    # a positive λ cannot reach the real kernel: see
    # test_kernel_f_rejects_bad_args
    lam = lam + 1j * rng.uniform(-20.0, 20.0, lam.size)
    enc = _duhamel(lam, 0.7)
    assert enc.alpha == kernel_C(0.0, 0.0, 0.7)
    assert np.array_equal(enc.factors,
                          [exp_integral(z, 0.7) / 0.7 for z in lam])
    _inconsistent_C(monkeypatch, 1.0)
    with pytest.raises(ValueError, match="inconsistent"):
        _duhamel(np.append(lam, 0.0), 10.0)


def test_kernel_magnitudes_bounded_randomized():
    # 200 spectra of 50 eigenvalues each; a complex spectrum shares one real
    # part, so its C is the tightest C of each of its eigenvalues
    rng = np.random.default_rng(41)
    for _ in range(200):
        t = rng.uniform(0.01, 20.0)
        f = _factors(rng.uniform(-3.0, 0.0, 50), t)
        assert np.all(f.imag == 0.0)
        assert np.all((0.0 < f.real) & (f.real <= 1.0))
    for _ in range(200):
        alpha = rng.uniform(-2.0, 1.0)
        t = rng.uniform(0.05, 5.0)
        f = _factors(alpha + 1j * rng.uniform(-3.0, 3.0, 50), t)
        assert np.max(np.abs(f)) <= 1.0 + 1e-12


def test_solve_reference_degenerate_duhamel():
    p = OdeProblem(np.zeros((2, 2)), [1.0, 2.0], 3.0, [0.5, 0.5])
    out = solve_reference(p)
    assert np.allclose(out, [1.0 + 1.5, 2.0 + 1.5], atol=1e-12)


def test_solve_reference_scalar_decay():
    p = OdeProblem(np.array([[-1.0]]), [1.0], 1.0)
    assert solve_reference(p)[0] == pytest.approx(math.exp(-1.0))


def test_solve_reference_closed_form_kernels():
    a = np.diag([-0.5, -1.0]).astype(complex)
    p = OdeProblem(a, [0.0, 1.0], 4.0, [1.0, 0.0])
    out = solve_reference(p)
    assert out[0] == pytest.approx((1 - math.exp(-2.0)) / 0.5, abs=1e-12)
    assert out[1] == pytest.approx(math.exp(-4.0), abs=1e-12)


def test_solve_reference_matches_expm_homogeneous():
    rng = np.random.default_rng(43)
    for _ in range(5):
        q = np.linalg.qr(rng.standard_normal((6, 6))
                         + 1j * rng.standard_normal((6, 6)))[0]
        w = rng.uniform(-1, 0, 6) + 1j * rng.uniform(-1, 1, 6)
        a = (q * w) @ q.conj().T
        u0 = rng.standard_normal(6)
        t = rng.uniform(0.5, 3.0)
        out = solve_reference(OdeProblem(a, u0, t))
        assert np.linalg.norm(out - matrix_exponential(a, t) @ u0) < 1e-10


def test_solve_reference_linearity():
    rng = np.random.default_rng(47)
    a = np.diag(rng.uniform(-1, 0, 4)).astype(complex)
    u1, u2 = rng.standard_normal(4), rng.standard_normal(4)
    b1, b2 = rng.standard_normal(4), rng.standard_normal(4)
    T = 1.7
    lhs = solve_reference(OdeProblem(a, u1 + u2, T, b1 + b2))
    rhs = solve_reference(OdeProblem(a, u1, T, b1)) + \
        solve_reference(OdeProblem(a, u2, T, b2))
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_solve_reference_sampled_source():
    # A = diag(0), b(t) = cos(t): u(T) = u0 + sin(T)
    src = SampledSource(np.cos)
    p = OdeProblem(np.zeros((1, 1)), [0.25], math.pi / 2, src)
    out = solve_reference(p)
    assert out[0] == pytest.approx(0.25 + 1.0, abs=1e-11)


def test_solve_reference_sampled_source_decay():
    # A = diag(-1), b(t) = (sin t): u(T) = ∫ e^{-(T-s)} sin(s) ds
    src = SampledSource(np.sin)
    T = 2.0
    p = OdeProblem(np.array([[-1.0]]), [0.0], T, src)
    out = solve_reference(p)
    exact, _ = quad(lambda s: math.exp(-(T - s)) * math.sin(s), 0.0, T)
    assert out[0] == pytest.approx(exact, abs=1e-11)


def test_reference_quadrature_halving_stable():
    # the reference integrator's own refinement: halving the panel width
    # moves the sampled-b result by less than 1e-10 at converged resolution
    from ffode.reference import _gauss_panels
    a = np.diag([-0.4, -1.1]).astype(complex)
    src = SampledSource(lambda t: np.hstack([np.sin(2 * t), np.cos(t)]))
    T = 1.3
    w, v = np.linalg.eigh(a)
    vinv = v.conj().T

    def g(s):
        # one row per node of the (m, 1) column s
        return (v @ (np.exp(np.outer(w, T - s[:, 0])) * (vinv @ src(s).T))).T

    nodes, weights = np.polynomial.legendre.leggauss(12)

    def panels(m):
        total = 0.0
        width = T / m
        for k in range(m):
            s = k * width + (nodes + 1.0) * width / 2.0
            total = total + (weights * width / 2.0) @ g(s[:, None])
        return total

    assert np.linalg.norm(panels(16) - panels(32)) < 1e-10
    assert np.linalg.norm(_gauss_panels(g, T, 2) - panels(32)) < 1e-10



def test_reference_samples_whole_panels_per_batch(monkeypatch):
    # shrunk to 7 rows, a batch still holds one whole 12-node panel: every
    # call gets a read-only (12, 1) column, and the result keeps its digits
    shapes = []

    def b(t):
        assert not t.flags.writeable
        shapes.append(t.shape)
        return np.hstack([np.sin(2 * t), np.cos(t)])

    p = OdeProblem(np.diag([-0.4, -1.1 + 2j]), [0.3, 0.2], 1.3,
                   SampledSource(b))
    default = solve_reference(p)
    monkeypatch.setattr(reference, "_BATCH_ENTRIES", 7 * 2)
    shapes.clear()
    batched = solve_reference(p)
    assert shapes and set(shapes) == {(12, 1)}
    assert np.linalg.norm(batched - default) <= 1e-12 * np.linalg.norm(default)


def test_solve_reference_quadrature_self_consistency():
    # explicit Riemann refinement of the sampled-b integral converges to it
    src = SampledSource(lambda t: np.hstack([np.sin(3 * t), np.cos(t)]))
    a = np.diag([-0.3, -0.8]).astype(complex)
    T = 1.5
    ref = solve_reference(OdeProblem(a, [0.1, 0.2], T, src))

    def riemann(m):
        out = matrix_exponential(a, T) @ np.array([0.1, 0.2])
        for k in range(m):
            s = k * T / m
            b_s = src(np.full((1, 1), s))[0]
            out = out + (T / m) * (matrix_exponential(a, T - s) @ b_s)
        return out

    err_coarse = np.linalg.norm(riemann(200) - ref)
    err_fine = np.linalg.norm(riemann(400) - ref)
    assert err_fine < err_coarse
    assert err_fine < 0.01


def test_solve_reference_eigensystem_path():
    rng = np.random.default_rng(53)
    q = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    w = rng.uniform(-1, 0, 4) + 1j * rng.uniform(-2, 2, 4)
    es = EigenSystem(q, w)
    u0 = rng.standard_normal(4)
    b = rng.standard_normal(4)
    via_eigen = solve_reference(OdeProblem(es, u0, 2.0, b))
    via_dense = solve_reference(OdeProblem(es.matrix, u0, 2.0, b))
    assert np.linalg.norm(via_eigen - via_dense) < 1e-9


def test_solve_reference_nonnormal_fallback_warns():
    # a Jordan-type block is not diagonalizable: sampled b forces quadrature
    a = np.array([[-1.0, 1.0], [0.0, -1.0]])
    src = SampledSource(lambda t: np.sin(t) * [0.0, 1.0])
    with pytest.warns(UserWarning):
        out = solve_reference(OdeProblem(a, [1.0, 0.0], 1.0, src))
    exact, _ = quad(
        lambda s: (1.0 - s) * math.exp(-(1.0 - s)) * math.sin(s), 0.0, 1.0)
    # first component picks up the Jordan coupling term (T-s)e^{-(T-s)}b₂(s)
    assert out[0] == pytest.approx(math.exp(-1.0) * 1.0 + exact, abs=1e-9)


def test_ode_problem_validation():
    with pytest.raises(ValueError):
        OdeProblem(np.eye(2), [1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        OdeProblem(np.eye(2), [1.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        OdeProblem(np.eye(2), [1.0, 0.0], 1.0, [1.0, 2.0, 3.0])


def test_reference_diagonalizes_hermitian_and_skew_with_eigh(monkeypatch):
    from scipy.linalg import expm
    called = []
    for name in ("eig", "eigh"):
        def spy(a, _name=name, _original=getattr(np.linalg, name)):
            called.append(_name)
            return _original(a)
        monkeypatch.setattr(np.linalg, name, spy)
    rng = np.random.default_rng(43)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    herm = -(x @ x.conj().T) / 6.0          # Hermitian, spectrum ≤ 0
    skew = (x - x.conj().T) / 2.0           # skew-Hermitian
    nearly_skew = skew + 1e-6 * np.diag(np.arange(6.0))
    nonnormal = np.triu(x) - 3.0 * np.eye(6)
    u0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 0j
    for a, route in ((herm, "eigh"), (skew, "eigh"), (nearly_skew, "eig"),
                     (nonnormal, "eig")):
        called.clear()
        out = solve_reference(OdeProblem(a, u0, 0.7, b))
        assert called == [route]
        aug = np.zeros((7, 7), dtype=complex)
        aug[:6, :6], aug[:6, 6] = a, b
        want = (expm(0.7 * aug) @ np.append(u0, 1.0))[:6]
        assert np.linalg.norm(out - want) <= 1e-10 * np.linalg.norm(want)
