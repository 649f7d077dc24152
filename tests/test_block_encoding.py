"""Block-encoding calculus: constructors, verification, ledger accounting.

The calculus runs on DiagonalEncodings on one EigenSystem only, so every
composition here takes its operands from one ``exact_dilation``, from
``polynomial_transform`` of it, or as diagonals on one random eigenbasis; a
dense or mixed-basis operand must raise.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.polynomial import Polynomial

from ffode import (
    BlockEncoding, DiagonalEncoding, EigenSystem, QueryLedger,
    StatePreparationPair, exact_dilation, invert, lcu_combine,
    matrix_exponential, multiply, polynomial_transform, spectral_norm,
    verify_block_encoding,
)
from ffode.block_encoding import GATES, PREP_PAIR, U_A, ry
from ffode.poly_approx import approx_exp_shifted
from ffode.qsvt_solvers import _half_shift

import dense_calculus as oracle


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def random_hermitian_contraction(rng, n, scale=0.9):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return scale * h / spectral_norm(h)


def on_eigenbasis(eigen, factors, ancillas=1, target=None, claim=0.0):
    """A (1, ancillas, claim)-DiagonalEncoding with these factors on eigen;
    the target diagonal defaults to the factors."""
    factors = np.asarray(factors, dtype=complex)
    return DiagonalEncoding(eigen, factors, 1.0, claim, ancillas,
                            QueryLedger(),
                            factors if target is None else target)


def identity_on(be, ancillas):
    """(1, ancillas, 0)-encoding of I on ``be``'s eigenbasis."""
    return on_eigenbasis(be.eigen, np.ones(be.system_dim), ancillas)


def matrix_of(be, diagonal):
    """U diag(diagonal) U† on ``be``'s eigenbasis."""
    return be.eigen.apply_function(lambda _: np.asarray(diagonal))


def test_dilation_scaled_identity():
    be = exact_dilation(0.5 * np.eye(2), 1.0)
    assert np.allclose(be.block, 0.5 * np.eye(2))
    assert verify_block_encoding(be, 0.5 * np.eye(2)) < 1e-14
    assert be.ancilla_qubits == 1


def test_dilation_of_unitary_has_zero_offdiagonals():
    rng = np.random.default_rng(0)
    q = random_unitary(rng, 4)
    u = (q * np.array([1.0, -1.0, 1.0, -1.0])) @ q.conj().T
    be = exact_dilation((u + u.conj().T) / 2, 1.0)
    assert np.allclose(be.unitary[:4, 4:], 0.0, atol=1e-12)
    assert np.allclose(be.unitary[4:, :4], 0.0, atol=1e-12)


def test_dilation_closed_form_offdiagonal():
    a = np.diag([-0.3, -0.9]).astype(complex)
    be = exact_dilation(a, 1.0)
    expected = np.diag([math.sqrt(1 - 0.09), math.sqrt(1 - 0.81)])
    assert np.allclose(be.unitary[:2, 2:], expected, atol=1e-12)
    gram = be.unitary.conj().T @ be.unitary
    assert spectral_norm(gram - np.eye(4)) < 1e-12


def test_dilation_rejects_oversized_matrix():
    with pytest.raises(ValueError):
        exact_dilation(2.0 * np.eye(2), 1.0)


def test_dilation_isometry_on_zero_ancilla_subspace():
    rng = np.random.default_rng(1)
    a = random_hermitian_contraction(rng, 4)
    be = exact_dilation(a, 1.0)
    cols = be.unitary[:, :4]
    assert spectral_norm(cols.conj().T @ cols - np.eye(4)) < 1e-10


def test_verify_detects_attached_error():
    a = np.diag([0.3, -0.4]).astype(complex)
    be = exact_dilation(a, 1.0)
    e = np.array([0.01, 0.0])
    perturbed = be.reattached(be.target_diagonal + e, 0.0100001)
    err = verify_block_encoding(perturbed, a + matrix_of(be, e))
    assert err == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(ValueError):
        be.reattached(be.target_diagonal + e, 0.001)


def test_verify_shape_mismatch():
    be = exact_dilation(np.eye(2) * 0.5, 1.0)
    with pytest.raises(ValueError):
        verify_block_encoding(be, np.eye(3))


def test_prep_pair_from_vector_and_selector():
    pair = StatePreparationPair.from_vector([1.0, 0.0])
    assert np.allclose(pair.target_vector, [1.0, 0.0])
    rng = np.random.default_rng(2)
    a = random_hermitian_contraction(rng, 2)
    be = exact_dilation(a, 1.0)
    # a second operand on a's eigenbasis: (2a² − 1)/2
    other = polynomial_transform(be, Chebyshev([0.0, 0.0, 0.5]))
    lcu = lcu_combine(pair, [be.padded(2), other])
    assert verify_block_encoding(lcu, a) < 1e-12


def test_lcu_rotation_pair_exp_minus_identity():
    # the (4,1,0)-pair of (3,-1) built from R_y(±π/3)
    pair = StatePreparationPair(ry(math.pi / 3), ry(-math.pi / 3), 4.0)
    assert np.allclose(pair.target_vector, [3.0, -1.0], atol=1e-12)
    a = np.diag([-0.5, -0.8]).astype(complex)
    expm = matrix_exponential(a, 2.0)
    third = exact_dilation(expm / 3.0, 1.0)
    ident = identity_on(third, 1)
    lcu = lcu_combine(pair, [third, ident])
    assert lcu.alpha == pytest.approx(4.0)
    assert verify_block_encoding(lcu, expm - np.eye(2)) < 1e-12


def test_lcu_cancellation():
    pair = StatePreparationPair.from_vector([0.5, -0.5])
    ident = identity_on(exact_dilation(0.5 * np.eye(2), 1.0), 0)
    lcu = lcu_combine(pair, [ident, ident])
    assert spectral_norm(lcu.encoded) < 1e-12


def test_lcu_requires_matching_alpha():
    a = np.diag([0.2, 0.1]).astype(complex)
    be = exact_dilation(a, 1.0)
    # the same block read as a (2, 1, 0)-encoding of 2a
    doubled = be.reattached(2.0 * be.target_diagonal, 0.0, alpha=2.0)
    with pytest.raises(ValueError, match="common normalization"):
        lcu_combine(StatePreparationPair.from_vector([1.0, 1.0]),
                    [be, doubled])


def test_multiply_identity_and_diagonals():
    a = np.diag([0.5, -0.25]).astype(complex)
    be_a = exact_dilation(a, 1.0)
    prod = multiply(be_a, identity_on(be_a, 0))
    assert verify_block_encoding(prod, a) < 1e-12
    assert prod.alpha == pytest.approx(1.0)
    half = exact_dilation(0.5 * np.eye(2), 1.0)
    sq = multiply(half, half)
    assert verify_block_encoding(sq, 0.25 * np.eye(2)) < 1e-12
    assert sq.ancilla_qubits == 2


def test_invert_involution_and_closed_form():
    a = np.diag([1.0, -1.0]).astype(complex)
    be = exact_dilation(a, 1.0)
    inv = invert(be, 1.0, 1e-8)
    assert verify_block_encoding(inv, a) < 1e-12

    a2 = np.diag([0.5, -0.25]).astype(complex)
    be2 = exact_dilation(a2, 1.0)
    inv2 = invert(be2, 0.25, 1e-8)
    assert inv2.alpha == pytest.approx(4 / (3 * 0.25))
    assert verify_block_encoding(inv2, np.diag([2.0, -4.0])) < 1e-11
    assert inv2.ancilla_qubits == be2.ancilla_qubits + 1


def test_invert_rejects_gapless_spectrum():
    a = np.diag([0.5, 0.0]).astype(complex)
    be = exact_dilation(a, 1.0)
    with pytest.raises(ValueError):
        invert(be, 0.25, 1e-8)


def test_polynomial_transform_linear_and_chebyshev():
    a = np.diag([0.8, -0.6]).astype(complex)
    be = exact_dilation(a, 1.0)
    half_x = Polynomial([0.0, 0.5])
    out = polynomial_transform(be, half_x)
    assert verify_block_encoding(out, a / 2.0) < 1e-12
    assert out.ancilla_qubits == be.ancilla_qubits + 2

    t2 = Chebyshev([0.0, 0.0, 0.5])  # (2x² - 1)/2
    proj = exact_dilation(np.diag([1.0, 0.0]).astype(complex), 1.0)
    out2 = polynomial_transform(proj, t2)
    assert verify_block_encoding(out2, np.diag([0.5, -0.5])) < 1e-12


def test_polynomial_transform_exp_approx():
    T = 3.0
    a = np.diag([-0.5, -0.9]).astype(complex)
    be = exact_dilation((np.eye(2) + a), 1.0)
    approx = approx_exp_shifted(T, 1e-8)
    out = polynomial_transform(be, approx.scaled(1.0 / 3.0))
    target = matrix_exponential(a, T) / 3.0
    assert spectral_norm(out.encoded - target) < 1e-8


def test_polynomial_transform_rejects_unbounded():
    be = exact_dilation(np.diag([0.9, -0.9]).astype(complex), 1.0)
    with pytest.raises(ValueError):
        polynomial_transform(be, Polynomial([0.0, 1.0]))  # |x| reaches 1 > 1/2


def test_ledger_additivity_exact():
    a = np.diag([0.5, -0.5]).astype(complex)
    be = exact_dilation(a, 1.0)
    assert be.ledger == QueryLedger({U_A: 1})
    prod = multiply(be, be)
    assert prod.ledger == QueryLedger({U_A: 2})
    pair = StatePreparationPair.from_vector([0.5, 0.5])
    lcu = lcu_combine(pair, [be, be])
    assert lcu.ledger == QueryLedger({U_A: 2, PREP_PAIR: 1})

    d = 3
    p = Chebyshev([0.0, 0.25, 0.0, 0.125])
    out = polynomial_transform(be, p)
    expected = QueryLedger({U_A: d + 1, GATES: (be.ancilla_qubits + 1) * d})
    assert out.ledger == expected

    inv = invert(be, 0.5, 1e-6)
    q = math.ceil((1 / 0.5) * math.log(1 / (0.5 * 1e-6)))
    assert inv.ledger == QueryLedger({U_A: q})


def test_ledger_scaling_and_merge():
    led = QueryLedger({U_A: 2, GATES: 5})
    assert led.scaled(3)[U_A] == 6
    merged = led + QueryLedger({U_A: 1, "O_u": 4})
    assert merged[U_A] == 3 and merged["O_u"] == 4
    assert led.total() == 2
    assert led.total(include_gates=True) == 7
    with pytest.raises(ValueError):
        QueryLedger({U_A: -1})


def test_lcu_error_scaling_random():
    # the targets are off the blocks by errors diagonal on their eigenbasis
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_hermitian_contraction(rng, 4, scale=0.8)
        be_exact = exact_dilation(a, 1.0)
        e = 1e-3 * rng.uniform(-1.0, 1.0, 4)
        be_err = be_exact.reattached(be_exact.target_diagonal + e,
                                     np.max(np.abs(e)))
        y = rng.uniform(0.2, 1.0, 2)
        pair = StatePreparationPair.from_vector(y)
        lcu = lcu_combine(pair, [be_err, be_exact])
        target = y[0] * (a + matrix_of(be_exact, e)) + y[1] * a
        measured = spectral_norm(target - lcu.encoded)
        assert measured <= lcu.alpha * np.max(np.abs(e)) + 1e-12


def test_multiply_error_scaling_random():
    rng = np.random.default_rng(4)
    eigen = EigenSystem(random_unitary(rng, 4), np.zeros(4))
    for _ in range(10):
        a, b = rng.uniform(-0.7, 0.7, (2, 4))
        ea = 1e-3 * rng.uniform(-1.0, 1.0, 4)
        eb = 2e-3 * rng.uniform(-1.0, 1.0, 4)
        be_a = on_eigenbasis(eigen, a, target=a + ea,
                             claim=np.max(np.abs(ea)))
        be_b = on_eigenbasis(eigen, b, target=b + eb,
                             claim=np.max(np.abs(eb)))
        prod = multiply(be_a, be_b)
        exact = matrix_of(be_a, a + ea) @ matrix_of(be_a, b + eb)
        measured = spectral_norm(exact - prod.encoded)
        bound = be_a.alpha * be_b.epsilon_claim + be_b.alpha * be_a.epsilon_claim
        assert measured <= bound + 1e-12


def test_padding_preserves_block():
    a = np.diag([0.5, -0.5]).astype(complex)
    be = exact_dilation(a, 1.0).padded(2)
    assert be.ancilla_qubits == 3
    assert verify_block_encoding(be, a) < 1e-12


# --- the block calculus against the explicit circuits --------------------

def random_encoding(rng, eigen, ancillas):
    """A random complex contraction U diag(f) U†, |f| ≤ 0.9, on ``eigen``."""
    n = eigen.dim
    f = 0.9 * rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(
        0.0, 1.0, n))
    return on_eigenbasis(eigen, f, ancillas)


def random_eigensystem(rng, n):
    return EigenSystem(random_unitary(rng, n), np.zeros(n))


def test_lcu_block_matches_selector_circuit():
    rng = np.random.default_rng(10)
    for n, anc, k in [(1, 1, 1), (2, 2, 1), (3, 1, 2), (4, 3, 1)]:
        eigen = random_eigensystem(rng, n)
        blocks = [random_encoding(rng, eigen, anc) for _ in range(2 ** k)]
        # complex first columns on both sides, so conj(c_j) matters
        prep = StatePreparationPair(random_unitary(rng, 2 ** k),
                                    random_unitary(rng, 2 ** k), 1.5)
        inner = blocks[0].unitary.shape[0]
        selector = sla.block_diag(*[b.unitary for b in blocks])
        circuit = (np.kron(prep.left.conj().T, np.eye(inner)) @ selector
                   @ np.kron(prep.right, np.eye(inner)))
        lcu = lcu_combine(prep, blocks)
        assert lcu.ancilla_qubits == anc + k
        assert circuit.shape[0] == 2 ** lcu.ancilla_qubits * n
        assert np.max(np.abs(circuit[:n, :n] - lcu.block)) < 1e-14


def test_multiply_block_matches_embedded_product():
    rng = np.random.default_rng(11)
    for n, anc_a, anc_b in [(1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 1, 1)]:
        eigen = random_eigensystem(rng, n)
        u_a = random_encoding(rng, eigen, anc_a)
        u_b = random_encoding(rng, eigen, anc_b)
        da, db = 2 ** anc_a, 2 ** anc_b
        # U_A on [anc_a, system] with identity on anc_b (middle register)
        ua4 = u_a.unitary.reshape(da, n, da, n)
        ua_emb = np.einsum("asbt,ef->aesbft", ua4, np.eye(db)).reshape(
            da * db * n, da * db * n)
        circuit = ua_emb @ np.kron(np.eye(da), u_b.unitary)
        prod = multiply(u_a, u_b)
        assert prod.ancilla_qubits == anc_a + anc_b
        assert np.max(np.abs(circuit[:n, :n] - prod.block)) < 1e-14


def test_half_shift_matches_hadamard_controlled_circuit():
    rng = np.random.default_rng(12)
    for n, anc in [(1, 1), (2, 2), (3, 1), (4, 3)]:
        a = random_hermitian_contraction(rng, n)
        u_a = exact_dilation(a, 1.0).padded(anc - 1)
        dim = u_a.unitary.shape[0]
        c_u = np.block([[np.eye(dim), np.zeros((dim, dim))],
                        [np.zeros((dim, dim)), u_a.unitary]])
        had = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0), np.eye(dim))
        circuit = had @ c_u @ had
        half = _half_shift(u_a)
        assert half.ancilla_qubits == anc + 1
        assert np.max(np.abs(circuit[:n, :n] - half.block)) < 1e-14
        assert verify_block_encoding(half, (np.eye(n) + a) / 2.0) < 1e-14


def test_construction_rejects_non_contraction_and_non_unitary():
    with pytest.raises(ValueError, match="contraction"):
        BlockEncoding(1.01 * np.eye(2), 1.0, 0.0, 1)
    with pytest.raises(ValueError, match="contraction"):
        BlockEncoding(np.diag([0.5, 1.0 + 1e-9]), 1.0, 0.0, 3)
    with pytest.raises(ValueError, match="not unitary"):
        BlockEncoding(0.5 * np.eye(2), 1.0, 0.0, 0)
    rng = np.random.default_rng(13)
    u = random_unitary(rng, 3)
    assert np.allclose(BlockEncoding(u, 1.0, 0.0, 0).unitary, u)


def test_unitary_of_padded_encoding_is_a_dilation():
    rng = np.random.default_rng(14)
    for n in (1, 2, 4):
        be = random_encoding(rng, random_eigensystem(rng, n), 1).padded(2)
        assert be.ancilla_qubits == 3
        u = be.unitary
        assert u.shape == (2 ** 3 * n, 2 ** 3 * n)
        assert spectral_norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-12
        assert np.array_equal(u[:n, :n], be.block)


# --- one representation: dense and mixed-basis operands raise ------------

def _rules(be, other):
    """Each calculus rule applied to ``be`` (and ``other`` where it takes
    two operands)."""
    return {
        "lcu_combine": lambda: lcu_combine(
            StatePreparationPair.from_vector([0.5, 0.5]), [be, other]),
        "multiply": lambda: multiply(be, other),
        "invert": lambda: invert(be, 0.25, 1e-6),
        "polynomial_transform": lambda: polynomial_transform(
            be, Chebyshev([0.0, 0.5])),
    }


def test_every_rule_rejects_a_dense_operand():
    diag = exact_dilation(np.diag([0.5, -0.25]).astype(complex), 1.0)
    for run in _rules(diag, diag).values():
        run()  # the same operand as a DiagonalEncoding passes
    for dense_first in (True, False):
        dense = oracle.dense(diag)
        be, other = (dense, diag) if dense_first else (diag, dense)
        for rule, run in _rules(be, other).items():
            if not dense_first and rule in ("invert", "polynomial_transform"):
                continue  # one operand: already covered
            with pytest.raises(ValueError, match=f"{rule} takes Diagonal"
                               "Encodings on one EigenSystem only.*got a "
                               "dense BlockEncoding"):
                run()


def test_two_operand_rules_reject_two_eigensystems():
    # two dilations of one matrix still sit on two EigenSystems
    a = np.diag([0.5, -0.25]).astype(complex)
    be, other = exact_dilation(a, 1.0), exact_dilation(a, 1.0)
    for rule in ("lcu_combine", "multiply"):
        _rules(be, be)[rule]()
        with pytest.raises(ValueError, match=f"{rule} takes .* the operands "
                           "sit on different eigensystems"):
            _rules(be, other)[rule]()


def test_reattached_rejects_a_matrix_target():
    a = np.diag([0.3, -0.4]).astype(complex)
    be = exact_dilation(a, 1.0)
    with pytest.raises(ValueError, match="1-d array; got 2-d"):
        be.reattached(a, 0.0)


def test_exact_dilation_rejects_a_matrix_it_cannot_diagonalize():
    # a nilpotent Jordan block is neither Hermitian nor skew-Hermitian
    with pytest.raises(ValueError, match=r"Hermitian or skew-Hermitian.*"
                       r"‖a ∓ a†‖_F = 7\.071e-01"):
        exact_dilation(np.array([[0.0, 0.5], [0.0, 0.0]]), 1.0)
    # a skew-Hermitian matrix dilates, onto imaginary eigenvalues
    skew = exact_dilation(np.array([[0.0, 0.5], [-0.5, 0.0]]), 1.0)
    assert np.allclose(np.sort(skew.target_diagonal.imag), [-0.5, 0.5])


def test_exact_dilation_raises_when_the_reconstruction_misses(monkeypatch):
    import ffode.block_encoding as bem
    eigh = bem.hermitian_eigh
    monkeypatch.setattr(bem, "hermitian_eigh",
                        lambda m: (eigh(m)[0] + 1e-9, eigh(m)[1]))
    with pytest.raises(ValueError, match=r"misses its slack, ‖UΛU† − a‖_F = "
                       r"1\.414e-09"):
        exact_dilation(np.diag([0.5, -0.25]), 1.0)


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, 1.0, 5.0])
def test_invert_requires_epsilon_in_the_open_unit_interval(epsilon):
    be = exact_dilation(np.diag([0.5, -0.25]).astype(complex), 1.0)
    with pytest.raises(ValueError, match="need 0 < epsilon < 1"):
        invert(be, 0.25, epsilon)
    assert invert(be, 0.25, 0.999).epsilon_claim == 0.999
