"""The reference's factorization cache: ``_modes`` and ``_diagonalize`` keep
read-only measurements keyed on the values factorized, within a byte budget,
threads that miss one key together measure it once, and the Gauss-Legendre
rule is computed once, on first use."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffode import OdeProblem, PdeSpec, SampledSource, memo, reference
from ffode import solve_pde, solve_reference


def _d2(n):
    return reference._periodic_difference(n, reference._SECOND_DIFFERENCE, 2)


def _same_bits(cached, fresh):
    assert len(cached) == len(fresh)
    for got, want in zip(cached, fresh):
        if want is None:
            assert got is None
        else:
            got, want = np.asarray(got), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@st.composite
def stencils(draw):
    """A wave/Klein-Gordon axis stencil −a·D2, the beam's D2, or a random
    real symmetric matrix."""
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["wave", "beam", "symmetric"]))
    if kind == "wave":
        return -draw(st.floats(0.01, 4.0)) * _d2(n)
    if kind == "beam":
        return _d2(n)
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))) \
        .standard_normal((n, n))
    return (x + x.T) / 2.0


@st.composite
def dense_coefficients(draw):
    """A Hermitian, skew-Hermitian, general or ill-conditioned (a perturbed
    Jordan block, whose eigenvector matrix has cond > 1e8) coefficient."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["hermitian", "skew", "general", "ill"]))
    if kind == "ill":
        return np.eye(n, k=1) - np.eye(n) + 1e-13 * np.diag(np.arange(n)) + 0j
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return {"hermitian": (x + x.conj().T) / 2.0,
            "skew": (x - x.conj().T) / 2.0, "general": x}[kind]


@settings(max_examples=40, deadline=None)
@given(matrix=st.one_of(stencils(), dense_coefficients()))
def test_cached_factors_are_the_fresh_ones(matrix):
    factorize = (reference._modes if matrix.dtype == float
                 else reference._diagonalize)
    reference._FACTORS.clear()
    first = factorize(matrix)
    assert factorize(matrix.copy()) is first  # keyed on values, not identity
    _same_bits(first, factorize.__wrapped__(matrix.copy()))
    if factorize is reference._diagonalize and first[2] is None:
        assert first[3] > 1e8
    assert matrix.flags.writeable  # the caller's matrix is not frozen


def test_cached_arrays_are_read_only():
    x = np.random.default_rng(3).standard_normal((5, 5))
    parts = [*reference._modes(-_d2(6)),
             *reference._diagonalize(x + 0j)[:3],
             *reference._diagonalize((x + x.T) + 0j)[:3],
             *reference._gauss_rule()]
    for part in parts:
        with pytest.raises(ValueError, match="read-only"):
            part[(0,) * part.ndim] = 0.0


def test_matrix_mutated_in_place_gets_a_new_entry():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = -(x @ x.conj().T) / 6.0
    p = OdeProblem(a, rng.standard_normal(6) + 0j, 0.7, np.ones(6))
    solve_reference(p)
    assert len(reference._FACTORS) == 1
    p.coefficient[0, 0] -= 0.5  # still Hermitian, another coefficient
    p.coefficient[1, 2] += 1e-300
    mutated = solve_reference(p)
    assert len(reference._FACTORS) == 2
    reference._FACTORS.clear()
    assert solve_reference(p).tobytes() == mutated.tobytes()


def test_second_identical_hyperbolic_solve_calls_no_eigh(monkeypatch):
    def u0(x):
        return 1.0 + np.cos(2 * np.pi * x[0])

    def w0(x):
        return np.sin(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[1])
    spec = PdeSpec("wave", 2, 8, 1.0, u0=u0, w0=w0)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape) or eigh(a))
    first = solve_pde(spec, 1e-6)
    assert calls == [(8, 8)]  # both axes share one stencil
    calls.clear()
    second = solve_pde(spec, 1e-6)
    assert calls == []
    assert second.error_vs_reference == first.error_vs_reference
    assert second.output_state.tobytes() == first.output_state.tobytes()


def test_gauss_rule_is_computed_once_on_first_use(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda k: calls.append(k) or leggauss(k))
    src = SampledSource(lambda t: np.hstack([np.sin(2 * t), np.cos(t)]))
    for T in (1.3, 0.4):
        solve_reference(OdeProblem(np.diag([-0.4, -1.1]), [1.0, 0.0], T, src))
    assert calls == [reference._GAUSS_ORDER]
    nodes, weights = reference._gauss_rule()
    want_nodes, want_weights = leggauss(reference._GAUSS_ORDER)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()


def test_threads_measure_each_factorization_once(monkeypatch):
    # campaign threads (``ffode solve --jobs``) share the cache: more threads
    # than cores, switching often, must each get the serial factors, and
    # threads that miss one key together (eigh slowed down so that they do)
    # factorize it once
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))
    jobs = [(reference._modes, -a * _d2(n)) for n in (6, 8)
            for a in (0.5, 1.0)]
    jobs += [(reference._diagonalize, (m + m.conj().T) / 2.0) for m in x]
    serial = [factorize(m) for factorize, m in jobs]
    reference._FACTORS.clear()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape)
                        or time.sleep(0.02) or eigh(a))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(jobs[k % len(jobs)][0],
                                   jobs[k % len(jobs)][1].copy())
                       for k in range(64)]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, factors in enumerate(got):
        _same_bits(factors, serial[k % len(jobs)])
    assert len(calls) == len(jobs) == len(reference._FACTORS)
    assert memo._held == {}  # each key's lock is dropped


def test_byte_budget_holds(monkeypatch):
    stencils = [-a * _d2(8) for a in (0.5, 1.0, 2.0)]
    size = sum(part.nbytes for part in reference._modes(stencils[0]))
    reference._FACTORS.clear()
    monkeypatch.setattr(reference._FACTORS, "budget", 2 * size + size // 2)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(1) or eigh(a))
    first = reference._modes(stencils[0])
    reference._modes(stencils[1])
    assert reference._modes(stencils[0]) is first  # now the most recent
    reference._modes(stencils[2])  # evicts stencils[1], the least recent
    assert len(reference._FACTORS) == 2
    assert reference._FACTORS.nbytes == 2 * size
    assert reference._modes(stencils[0]) is first and len(calls) == 3
    reference._modes(stencils[1])
    assert len(calls) == 4 and reference._FACTORS.nbytes == 2 * size

    # an entry larger than the whole budget is computed and not kept
    monkeypatch.setattr(reference._FACTORS, "budget", size - 1)
    reference._FACTORS.clear()
    lam, v = reference._modes(stencils[0])
    _same_bits((lam, v), first)
    assert not v.flags.writeable
    assert len(reference._FACTORS) == 0 and reference._FACTORS.nbytes == 0
