"""The calculus on DiagonalEncodings against the dense calculus.

Every operand here is ``exact_dilation`` of a random Hermitian matrix, so
each rule combines factor and target diagonals on one ``EigenSystem``.  The
same rule of the dense oracle in ``dense_calculus.py``, applied to the
operands as plain ``BlockEncoding``s, works on the dense blocks; block,
target, alpha, claim, ancillas and ledger must agree to 1e-12.  The QSVT
solver steps take a DiagonalEncoding only, so they are checked against
independent dense targets of the matrix instead, and a dense encoding must
be rejected at their entry.  Spectra include zero modes,
repeated eigenvalues and the edges of [−1, −δ] (and of the inversion gap
±[δ, 1]).  The second half pins the O(N) checks: no rule calls
``spectral_norm`` on the way, a factor pushed 1e-9 past its claim in
any construction a rule makes raises, and every failing check raises its
own message with no dense block, target, Fourier basis or ``eigvalsh``
within reach, at N = 2¹⁶ too.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import Chebyshev

import ffode.block_encoding as bem
from ffode import (
    DiagonalEncoding, EigenSystem, OdeProblem, QueryLedger,
    StatePreparationPair, exact_dilation, invert, lcu_combine,
    matrix_exponential, multiply, polynomial_transform, solve_sqrt_access,
    spectral_norm, verify_block_encoding,
)
from ffode.config import TOL
from ffode.linalg import FourierBasis
from ffode.qsvt_solvers import _half_shift, be_duhamel_negdef, be_exp_negdef

import dense_calculus as oracle

DELTA = 0.25


def _eigenvalues(lo, hi, edges):
    value = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
    return st.lists(value, min_size=1, max_size=8)


#: spectra by the rules that need them: any contraction, [−1, −δ], ±[δ, 1]
SPECTRA = {
    "hermitian": _eigenvalues(-1.0, 1.0, [-1.0, 0.0, 1.0, 0.5]),
    "negdef": _eigenvalues(-1.0, -DELTA, [-1.0, -DELTA]),
    "gapped": st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.one_of(
        st.sampled_from([DELTA, 1.0]), st.floats(DELTA, 1.0))),
        min_size=1, max_size=8).map(lambda pairs: [s * m for s, m in pairs]),
}


def _matrix(eigenvalues, seed):
    """(a Hermitian matrix with these eigenvalues, the rng after drawing it)"""
    n = len(eigenvalues)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    a = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (a + a.conj().T) / 2.0, rng


def _operand(eigenvalues, seed):
    a, rng = _matrix(eigenvalues, seed)
    u = exact_dilation(a, 1.0)
    assert isinstance(u, DiagonalEncoding)
    return u, rng


def _bounded_poly(rng):
    """A real Chebyshev series with Σ|c| = 1/2, so |p| ≤ 1/2 on [−1, 1]."""
    c = rng.standard_normal(int(rng.integers(1, 7)))
    return Chebyshev(0.5 * c / np.abs(c).sum())


def _pair(rng):
    return StatePreparationPair.from_vector(
        rng.standard_normal(2) + 1j * rng.standard_normal(2))


#: the library's rules and the dense oracle's, called the same way
DIAGONAL = SimpleNamespace(
    wrap=lambda be: be, lcu_combine=lcu_combine, multiply=multiply,
    invert=invert, polynomial_transform=polynomial_transform,
    reattached=lambda be, *args, **kw: be.reattached(*args, **kw),
    padded=lambda be, k: be.padded(k))
DENSE = SimpleNamespace(
    wrap=oracle.dense, lcu_combine=oracle.lcu_combine,
    multiply=oracle.multiply, invert=oracle.invert,
    polynomial_transform=oracle.polynomial_transform,
    reattached=oracle.reattached, padded=oracle.padded)


def _rule_polynomial(u, rng, calc):
    return calc.polynomial_transform(calc.wrap(u), _bounded_poly(rng))


def _rule_lcu(u, rng, calc):
    pair = _pair(rng)
    v = polynomial_transform(u, _bounded_poly(rng))
    return calc.lcu_combine(pair, [calc.padded(calc.wrap(u), 2),
                                   calc.wrap(v)])


def _rule_multiply(u, rng, calc):
    v = polynomial_transform(u, _bounded_poly(rng))
    return calc.multiply(calc.wrap(u), calc.wrap(v))


def _rule_invert(u, rng, calc):
    return calc.invert(calc.wrap(u), DELTA, 10.0 ** rng.uniform(-8, -2))


def _rule_reattached(u, rng, calc):
    # a target off the block by a known diagonal error, within the claim
    err = 1e-3 * rng.uniform(-1.0, 1.0, u.system_dim)
    target = u.target_diagonal + err
    claim = float(np.max(np.abs(err))) + 1e-12
    if calc is DENSE:
        target = u.eigen.apply_function(lambda _: target)
    return calc.reattached(calc.wrap(u), target, claim, alpha=1.0)


def _rule_padded(u, rng, calc):
    return calc.padded(calc.wrap(u), int(rng.integers(1, 4)))


#: rule -> (spectrum of its operand, the rule of a calculus on its operands)
RULES = {
    "polynomial_transform": ("hermitian", _rule_polynomial),
    "lcu_combine": ("hermitian", _rule_lcu),
    "multiply": ("hermitian", _rule_multiply),
    "invert": ("gapped", _rule_invert),
    "reattached": ("hermitian", _rule_reattached),
    "padded": ("hermitian", _rule_padded),
}


def _close(x, y) -> bool:
    return np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))


@pytest.mark.parametrize("rule", list(RULES))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_diagonal_rule_matches_the_dense_rule(rule, data, seed):
    spectrum, apply_rule = RULES[rule]
    u, rng = _operand(data.draw(SPECTRA[spectrum]), seed)
    draws = int(rng.integers(2 ** 32))
    diag = apply_rule(u, np.random.default_rng(draws), DIAGONAL)
    full = apply_rule(u, np.random.default_rng(draws), DENSE)
    assert isinstance(diag, DiagonalEncoding)
    assert not isinstance(full, DiagonalEncoding)
    assert _close(diag.block, full.block)
    assert _close(diag.target, full.target)
    assert diag.alpha == pytest.approx(full.alpha, rel=1e-12, abs=0.0)
    assert diag.epsilon_claim == pytest.approx(full.epsilon_claim, rel=1e-12,
                                               abs=0.0)
    assert diag.ancilla_qubits == full.ancilla_qubits
    assert diag.ledger == full.ledger


# --- the QSVT solver steps, on a DiagonalEncoding only ---------------------

def _step_half_shift(u, a, rng):
    return _half_shift(u), (np.eye(len(a)) + a) / 2.0


def _step_exp(u, a, rng):
    T, eps = rng.uniform(0.5, 20.0), 10.0 ** rng.uniform(-8, -2)
    return be_exp_negdef(u, T, DELTA, eps), matrix_exponential(a, T)


def _step_duhamel(u, a, rng):
    T, eps = rng.uniform(0.5, 20.0), 10.0 ** rng.uniform(-8, -2)
    duhamel = np.linalg.solve(a, matrix_exponential(a, T) - np.eye(len(a)))
    return be_duhamel_negdef(u, T, DELTA, eps), duhamel


#: step -> (spectrum of its operand, step(u, a, rng) -> (encoding of a's
#: function, that function of the dense a), alpha, ancillas for n_A = 1)
STEPS = {
    "half_shift": ("hermitian", _step_half_shift, 1.0, 2),
    "exp_negdef": ("negdef", _step_exp, 3.0, 5),
    "duhamel_negdef": ("negdef", _step_duhamel, 16.0 / (3.0 * DELTA), 8),
}


@pytest.mark.parametrize("step", list(STEPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_solver_step_meets_its_claim_on_the_dense_target(step, data, seed):
    spectrum, apply_step, alpha, ancillas = STEPS[step]
    a, rng = _matrix(data.draw(SPECTRA[spectrum]), seed)
    u = exact_dilation(a, 1.0)
    be, target = apply_step(u, a, rng)
    assert isinstance(be, DiagonalEncoding)
    assert be.alpha == pytest.approx(alpha, rel=1e-12, abs=0.0)
    assert be.ancilla_qubits == ancillas
    verify_block_encoding(be, target)


def test_solver_steps_reject_a_dense_encoding():
    a, rng = _matrix([-1.0, -0.5, -DELTA], 5)
    u = exact_dilation(a, 1.0)
    u0 = rng.standard_normal(3) + 0j
    entries = [
        lambda be: be_exp_negdef(be, 1.0, DELTA, 1e-6),
        lambda be: be_duhamel_negdef(be, 1.0, DELTA, 1e-6),
        lambda be: solve_sqrt_access(OdeProblem(-(a @ a), u0, 1.0), be, 1e-6),
    ]
    for entry in entries:
        entry(u)  # the same matrix as a DiagonalEncoding passes
        with pytest.raises(ValueError, match="DiagonalEncoding.*exact_dilation"
                           ".*Hermitian"):
            entry(oracle.dense(u))
    # a non-Hermitian matrix has no encoding to pass: it does not dilate
    with pytest.raises(ValueError, match="Hermitian or skew-Hermitian"):
        exact_dilation(a + 0.1 * np.triu(np.ones((3, 3)), 1), 1.5)


# --- the O(N) checks ------------------------------------------------------

_PINNED = {"hermitian": [0.0, 0.0, -1.0, 0.5, 0.5, 1.0],
           "negdef": [-1.0, -DELTA, -0.5, -0.5, -0.3, -0.9],
           "gapped": [-1.0, -DELTA, DELTA, 0.5, 0.5, 1.0]}


def _pinned_operand(rule):
    if rule in STEPS:
        spectrum, apply_step = STEPS[rule][:2]
        a, _ = _matrix(_PINNED[spectrum], 7)
        u = exact_dilation(a, 1.0)
        return u, lambda: apply_step(u, a, np.random.default_rng(8))[0]
    spectrum, apply_rule = RULES[rule]
    u, _ = _operand(_PINNED[spectrum], 7)
    return u, lambda: apply_rule(u, np.random.default_rng(8), DIAGONAL)


def _pushing(original, index, made):
    """DiagonalEncoding.__init__ that moves one factor of its index-th call
    so that |g_k − alpha·f_k| = claim + slack + 1e-9."""
    def init(self, eigen, factors, alpha, epsilon_claim, ancillas, ledger,
             target):
        if len(made) == index:
            f = np.array(factors, dtype=complex)
            g = np.asarray(target, dtype=complex)
            k = int(np.argmax(np.abs(f)))
            phase = f[k] / abs(f[k]) if abs(f[k]) > 0 else 1.0
            past = epsilon_claim + TOL.verify_slack * max(1.0, alpha) + 1e-9
            f[k] = (g[k] - past * phase) / alpha
            factors = f
        made.append(1)
        original(self, eigen, factors, alpha, epsilon_claim, ancillas, ledger,
                 target)
    return init


def _forbid_dense(monkeypatch):
    """Make every dense path raise: the block or target of a
    DiagonalEncoding (``EigenSystem.apply_function``), a Fourier basis as a
    matrix, and ``eigvalsh``.  AssertionError is no ValueError, so a check
    that reaches one of them fails its ``pytest.raises``."""
    def dense(*args, **kwargs):
        raise AssertionError("a diagonal check went dense")
    monkeypatch.setattr(EigenSystem, "apply_function", dense)
    monkeypatch.setattr(FourierBasis, "dense", dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)


@pytest.mark.parametrize("rule", list(STEPS) + list(RULES))
def test_every_diagonal_construction_is_checked_in_O_N(rule, monkeypatch):
    u, run = _pinned_operand(rule)
    _forbid_dense(monkeypatch)
    norms = []
    monkeypatch.setattr(bem, "spectral_norm",
                        lambda m: norms.append(np.shape(m)) or spectral_norm(m))
    made = []
    original = DiagonalEncoding.__init__
    monkeypatch.setattr(DiagonalEncoding, "__init__",
                        _pushing(original, -1, made))
    run()
    # only the 2×2 state-preparation unitaries are checked by SVD
    assert set(norms) <= {(2, 2)} and made
    for index in range(len(made)):
        monkeypatch.setattr(DiagonalEncoding, "__init__",
                            _pushing(original, index, []))
        with pytest.raises(ValueError, match="violates its claim"):
            run()


def test_diagonal_hermitian_and_gap_checks_raise(monkeypatch):
    u, _ = _operand([-0.5, 0.5, 1.0], 3)
    negdef = exact_dilation(np.diag([-0.5, -0.25 + 1e-9]), 1.0)
    _forbid_dense(monkeypatch)
    skewed = u.reattached(u.target_diagonal + [1e-9j, 0.0, 0.0], 1e-8)
    with pytest.raises(ValueError, match="must be Hermitian"):
        polynomial_transform(skewed, Chebyshev([0.0, 0.5]))
    with pytest.raises(ValueError, match="must be Hermitian"):
        invert(skewed, 0.5, 1e-6)
    # one eigenvalue 1e-9 inside the gap
    with pytest.raises(ValueError, match="violates the gap"):
        invert(u, 0.5 + 1e-9, 1e-6)
    with pytest.raises(ValueError, match="not inside"):
        be_exp_negdef(negdef, 1.0, 0.25, 1e-6)


def _bumped(x, k, by):
    y = np.array(x, dtype=complex)
    y[k] += by
    return y


def _failing_checks(n):
    """check -> (its message, a call that fails it) on a FourierBasis of
    dimension n.  Each moves one entry or δ by 1e-9 (the claim's target by
    1e-6), or makes one entry NaN."""
    es = EigenSystem(FourierBasis(n, 1), np.zeros(n))
    w = -np.linspace(0.25, 1.0, n)  # spectrum in [−1, −δ] for δ = 1/4
    ones = np.ones(n, dtype=complex)

    def encoding(factors, target=None, claim=0.0, ancillas=1):
        return DiagonalEncoding(es, factors, 1.0, claim, ancillas,
                                QueryLedger(),
                                factors if target is None else target)
    u = encoding(w)
    nan = _bumped(w, 2, np.nan)
    return {
        "contraction": ("not a contraction",
                        lambda: encoding(_bumped(w, -1, -1e-9))),
        "claim": ("violates its claim",
                  lambda: encoding(w, _bumped(w, 5, 1e-6), claim=1e-9)),
        "unitarity": ("not unitary",
                      lambda: encoding(_bumped(ones, 3, -1e-9), ancillas=0)),
        "hermitian": ("must be Hermitian", lambda: polynomial_transform(
            u.reattached(_bumped(w, 1, 1e-9j), 1e-8), Chebyshev([0.0, 0.5]))),
        "gap": ("violates the gap", lambda: invert(u, 0.25 + 1e-9, 1e-6)),
        "negdef": ("not inside",
                   lambda: be_exp_negdef(u, 1.0, 0.25 + 1e-9, 1e-6)),
        "nan-factor": ("not a contraction", lambda: encoding(nan, w)),
        "nan-target": ("violates its claim", lambda: encoding(w, nan)),
    }


@pytest.mark.parametrize("check", list(_failing_checks(4)))
def test_failing_checks_at_N_2_16_build_nothing_dense(check, monkeypatch):
    # a dense 2¹⁶ × 2¹⁶ basis would take 64 GiB: every check raises within
    # a few vectors of N entries
    message, call = _failing_checks(2 ** 16)[check]
    _forbid_dense(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("bad, message", [
    ("factors", "not a contraction"), ("target", "violates its claim"),
    ("alpha", "alpha must be positive"),
    ("claim", "claimed error must be nonnegative")])
def test_nan_is_rejected(bad, message):
    # on a dense eigh basis, whose defect δ_U is measured and nonzero
    a, _ = _matrix([-0.5, 0.25, 1.0], 11)
    es = exact_dilation(a, 1.0).eigen
    assert es.unitarity_defect > 0.0
    f = np.array([0.5, -0.25, 0.0], dtype=complex)
    args = {"factors": f, "alpha": 1.0, "claim": 0.0, "target": f}
    args[bad] = _bumped(f, 2, np.nan) if bad in ("factors", "target") \
        else np.nan
    with pytest.raises(ValueError, match=message):
        DiagonalEncoding(es, args["factors"], args["alpha"], args["claim"], 1,
                         QueryLedger(), args["target"])
