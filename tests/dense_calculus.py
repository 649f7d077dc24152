"""The block-encoding calculus on dense blocks: the test oracle.

``ffode.block_encoding`` runs every rule on the factor and target diagonals
of DiagonalEncodings on one eigenbasis.  These are the same rules written
on the dense N×N block and target of a plain ``BlockEncoding``, by matrix
products and ``eigh``, so the diagonal rules can be compared against an
implementation that shares none of their entrywise arithmetic.  Each
function has the signature of the library rule (``reattached`` and
``padded`` take the encoding first).
"""

import math

import numpy as np

from ffode import BlockEncoding, spectral_norm
from ffode.block_encoding import GATES, PREP_PAIR, QueryLedger
from ffode.block_encoding import _assert_poly_bounded, _chebyshev_coefficients
from ffode.config import INVERSE_QUERY_CONSTANT


def dense(be):
    """``be`` as a plain BlockEncoding of its dense block and target."""
    return BlockEncoding(be.block, be.alpha, be.epsilon_claim,
                         be.ancilla_qubits, be.ledger, be.target)


def _hermitian_target(be, what):
    tgt = be.target
    if tgt is None or spectral_norm(tgt - tgt.conj().T) > 1e-10:
        raise ValueError(f"{what} target must be Hermitian")
    return tgt


def reattached(be, target, epsilon_claim, alpha=None):
    return BlockEncoding(be.block, be.alpha if alpha is None else float(alpha),
                         float(epsilon_claim), be.ancilla_qubits, be.ledger,
                         np.asarray(target, dtype=complex))


def padded(be, extra_ancillas):
    return BlockEncoding(be.block, be.alpha, be.epsilon_claim,
                         be.ancilla_qubits + extra_ancillas, be.ledger,
                         be.target)


def lcu_combine(prep, blocks):
    first = blocks[0]
    if len(blocks) != prep.size:
        raise ValueError(f"need {prep.size} blocks, got {len(blocks)}")
    for b in blocks[1:]:
        if b.ancilla_qubits != first.ancilla_qubits:
            raise ValueError("blocks disagree on ancilla layout")
        if abs(b.alpha - first.alpha) > 1e-12 * max(1.0, first.alpha):
            raise ValueError("LCU requires a common normalization alpha")
    k = prep.size.bit_length() - 1
    weights = prep.left[:, 0].conj() * prep.right[:, 0]
    y = prep.target_vector
    alpha = first.alpha * prep.beta
    return BlockEncoding(
        sum(w * b.block for w, b in zip(weights, blocks)), alpha,
        alpha * max(b.epsilon_claim for b in blocks),
        first.ancilla_qubits + k,
        QueryLedger().merged(*[b.ledger for b in blocks]).charge(PREP_PAIR, 1),
        sum(yj * b.target for yj, b in zip(y, blocks)))


def multiply(u_a, u_b):
    return BlockEncoding(
        u_a.block @ u_b.block, u_a.alpha * u_b.alpha,
        u_a.alpha * u_b.epsilon_claim + u_b.alpha * u_a.epsilon_claim,
        u_a.ancilla_qubits + u_b.ancilla_qubits, u_a.ledger + u_b.ledger,
        u_a.target @ u_b.target)


def invert(u_a, delta, epsilon):
    w, v = np.linalg.eigh(_hermitian_target(u_a, "inversion"))
    if not (np.min(np.abs(w)) >= delta * (1.0 - 1e-12)
            and np.max(np.abs(w)) <= 1.0 + 1e-12):
        raise ValueError(
            f"spectrum {w} violates the gap [-1,-δ]∪[δ,1] with δ = {delta}")
    alpha = 4.0 / (3.0 * delta)
    queries = max(1, math.ceil(INVERSE_QUERY_CONSTANT * (1.0 / delta)
                               * math.log(1.0 / (delta * epsilon))))
    inv = (v * (1.0 / w)) @ v.conj().T
    return BlockEncoding(inv / alpha, alpha, float(epsilon),
                         u_a.ancilla_qubits + 1, u_a.ledger.scaled(queries),
                         inv)


def polynomial_transform(u_a, p):
    target = _hermitian_target(u_a, "polynomial transform")
    d = int(p.degree())
    _assert_poly_bounded(_chebyshev_coefficients(p), d)

    def apply_poly(mat):
        w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
        return (v * np.real(p(np.clip(w, -1.0, 1.0)))) @ v.conj().T

    return BlockEncoding(
        apply_poly(u_a.block), 1.0,
        4.0 * d * math.sqrt(u_a.epsilon_claim / u_a.alpha),
        u_a.ancilla_qubits + 2,
        u_a.ledger.scaled(d + 1).charge(GATES, (u_a.ancilla_qubits + 1) * d),
        apply_poly(target / u_a.alpha))
