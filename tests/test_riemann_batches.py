"""The streamed Riemann sum equals the per-node sum, across batch edges.

``riemann_plan`` samples b in batches of ``reference.time_batches`` rows and
keeps only running sums.  With the batch shrunk to 7 rows, random normal
spectra (real and complex), dimensions 1-6 and node counts on both sides of
the batch edges must reproduce a plain per-node loop to 1e-12 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffode import EigenSystem, SampledSource, reference, riemann_plan

ROWS = 7


def _instance(seed: int, dim: int, complex_spectrum: bool):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim)))[0]
    lam = rng.uniform(-3.0, 1.0, dim)
    if complex_spectrum:
        lam = lam + 1j * rng.uniform(-5.0, 5.0, dim)
    omega = rng.uniform(0.5, 4.0, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    modes = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))

    def b(t):
        return np.cos(omega * t + phase) @ modes

    return EigenSystem(q, lam), b


def _per_node(es: EigenSystem, b, T: float, M: int):
    """(T/M) Σ_k e^{A(T-t_k)} b(t_k), (1/M) Σ_k ‖b(t_k)‖² and the scale
    (T/M) Σ_k ‖e^{A(T-t_k)} b(t_k)‖ of the rounding, one node at a time."""
    u, lam = es.basis, es.eigenvalues
    total, squares, scale = np.zeros(es.dim, dtype=complex), 0.0, 0.0
    for k in range(M):
        t = k * T / M
        b_k = b(np.full((1, 1), t))[0]
        term = u @ (np.exp(lam * (T - t)) * (u.conj().T @ b_k))
        total += term
        squares += float(np.linalg.norm(b_k)) ** 2
        scale += float(np.linalg.norm(term))
    return total * (T / M), squares / M, scale * (T / M)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 6),
       complex_spectrum=st.booleans(), M=st.integers(1, 4 * ROWS + 1),
       T=st.floats(0.1, 2.0))
def test_streamed_riemann_sum_matches_the_per_node_sum(seed, dim,
                                                       complex_spectrum, M, T):
    es, b = _instance(seed, dim, complex_spectrum)
    calls = []

    def counted(t):
        calls.append(t.size)
        return b(t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "_BATCH_ENTRIES", ROWS * dim)
        plan = riemann_plan(SampledSource(counted), T, M, es)
    assert calls == [min(ROWS, M - start) for start in range(0, M, ROWS)]
    integral, avg_square_norm, scale = _per_node(es, b, T, M)
    assert plan.nodes == M
    assert np.linalg.norm(plan.integral - integral) <= 1e-12 * scale
    assert plan.avg_square_norm == pytest.approx(avg_square_norm,
                                                 rel=1e-12, abs=0.0)
