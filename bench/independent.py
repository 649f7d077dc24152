"""Reference solutions computed apart from the program under test.

Nothing here imports ``ffode``.  ODE cases are solved by one matrix
exponential of an augmented matrix; PDE cases rebuild their stencils from the
finite-difference formulas with ``scipy.sparse`` and apply them with
``expm_multiply``.  A time-dependent source whose time factor obeys a small
linear ODE (an oscillator for cos(wt), a chain for a cubic) is folded into the
augmented matrix, so one exponential gives the exact Duhamel solution.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply


def phase_distance(psi, phi) -> float:
    """‖a - e^{iθ} b‖ minimised over θ, for a and b the normalised inputs."""
    a = np.asarray(psi, dtype=complex).ravel()
    b = np.asarray(phi, dtype=complex).ravel()
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    overlap = np.vdot(b, a)
    if abs(overlap) == 0.0:
        return float(np.sqrt(2.0))
    return float(np.linalg.norm(a - (overlap / abs(overlap)) * b))


def fidelity(x, y) -> float:
    """|<x|y>| / (‖x‖‖y‖)."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    return float(abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y)))


def ode_final_state(a, u0, T: float, b=None) -> np.ndarray:
    """u(T) for du/dt = A u + b with constant b, from expm([[A, b], [0, 0]] T)."""
    a = np.asarray(a, dtype=complex)
    u0 = np.asarray(u0, dtype=complex).ravel()
    n = u0.size
    if b is None:
        return sla.expm(a * T) @ u0
    aug = np.zeros((n + 1, n + 1), dtype=complex)
    aug[:n, :n] = a
    aug[:n, n] = np.asarray(b, dtype=complex).ravel()
    return (sla.expm(aug * T) @ np.append(u0, 1.0))[:n]


# ---------------------------------------------------------------------------
# periodic finite-difference stencils, h = 1/n, rebuilt from their formulas

#: offset -> weight (times h^-order) of each centred stencil
STENCILS = {
    1: {1: 0.5, -1: -0.5},                          # (u[i+1] - u[i-1]) / 2h
    2: {1: 1.0, 0: -2.0, -1: 1.0},                  # second difference
    3: {2: 0.5, 1: -1.0, -1: 1.0, -2: -0.5},        # centred third difference
    4: {2: 1.0, 1: -4.0, 0: 6.0, -1: -4.0, -2: 1.0},
}


def stencil(order: int, n: int) -> sp.csr_matrix:
    """Periodic n-point derivative stencil of the given order (coinciding
    wrapped offsets add up)."""
    rows, cols, vals = [], [], []
    for offset, weight in STENCILS[order].items():
        i = np.arange(n)
        rows.append(i)
        cols.append((i + offset) % n)
        vals.append(np.full(n, weight * float(n) ** order))
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n), dtype=complex)


def on_axis(one_d, axis: int, n: int, d: int) -> sp.csr_matrix:
    """Act with a 1-d operator on one axis of the row-major n^d grid."""
    left = sp.identity(n ** axis, format="csr")
    right = sp.identity(n ** (d - axis - 1), format="csr")
    return sp.kron(sp.kron(left, one_d), right, format="csr")


def grid(n: int, d: int) -> np.ndarray:
    """(d, n^d) coordinates j/n, row-major with axis 0 most significant."""
    axes = np.meshgrid(*([np.arange(n) / n] * d), indexing="ij")
    return np.stack([g.ravel() for g in axes])


def parabolic_operator(kind: str, n: int, d: int, a, a_prime,
                       c: float) -> sp.csr_matrix:
    """Σ_j a_j D2 + a'_j D1 on axis j, plus c·I; Airy is -D3."""
    if kind == "airy":
        return (-stencil(3, n)).tocsr()
    op = c * sp.identity(n ** d, dtype=complex, format="csr")
    for j in range(d):
        op = op + a[j] * on_axis(stencil(2, n), j, n, d)
        op = op + a_prime[j] * on_axis(stencil(1, n), j, n, d)
    return op.tocsr()


def second_order_operator(kind: str, n: int, d: int, a,
                          c: float) -> sp.csr_matrix:
    """L in u'' = L u: Σ_j a_j D2 + c·I (wave, Klein-Gordon), -D4 + c·I (beam)."""
    op = c * sp.identity(n ** d, dtype=complex, format="csr")
    if kind == "beam":
        return (op - stencil(4, n)).tocsr()
    for j in range(d):
        op = op + a[j] * on_axis(stencil(2, n), j, n, d)
    return op.tocsr()


def first_order_form(lap: sp.spmatrix) -> sp.csr_matrix:
    """[[0, I], [L, 0]], the generator of (u, u_t) for u'' = L u."""
    n = lap.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    return sp.bmat([[None, eye], [lap, None]], format="csr", dtype=complex)


def evolve(op: sp.spmatrix, v, T: float) -> np.ndarray:
    """e^{op·T} v."""
    return expm_multiply(op * T, np.asarray(v, dtype=complex))


# ---------------------------------------------------------------------------
# time factors as linear systems: the source is g·(c · z(t)) with z' = Z z

def oscillator(omega: float):
    """z = (cos ωt, sin ωt); returns (Z, z0)."""
    return np.array([[0.0, -omega], [omega, 0.0]]), np.array([1.0, 0.0])


def monomials(degree: int):
    """z = (1, t, t², ..., t^degree); returns (Z, z0)."""
    z = np.diag(np.arange(1.0, degree + 1.0), -1)
    z0 = np.zeros(degree + 1)
    z0[0] = 1.0
    return z, z0


def driven(op: sp.spmatrix, v0, T: float, g, coeffs, z, z0) -> np.ndarray:
    """State part of e^{MT}(v0, z0), M = [[op, g·coeffsᵀ], [0, Z]]: the exact
    solution of v' = op·v + g·(coeffs · z(t))."""
    n = op.shape[0]
    k = len(z0)
    coupling = sp.csr_matrix(np.outer(np.asarray(g, dtype=complex),
                                      np.asarray(coeffs, dtype=complex)))
    aug = sp.bmat([[op, coupling],
                   [sp.csr_matrix((k, n)), sp.csr_matrix(np.asarray(z, complex))]],
                  format="csr", dtype=complex)
    start = np.concatenate([np.asarray(v0, dtype=complex), np.asarray(z0, complex)])
    return evolve(aug, start, T)[:n]
