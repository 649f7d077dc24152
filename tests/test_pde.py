"""Stencils, closed-form spectra, hyperbolic lifting, end-to-end PDE solves."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ffode import eigen_solvers
from ffode import (
    OdeProblem, PdeSpec, build_dh, build_dh3, build_dh4, build_vh,
    dense_operator, eigensystem_of, fast_inversion, lift_hyperbolic,
    solve_pde, solve_reference, spectral_norm,
)
from ffode.pde import KINDS as PDE_KINDS
from ffode.pde import (
    dft_matrix, dh3_eigenvalues, dh4_eigenvalues, dh_eigenvalues,
    hyperbolic_sqrt_operator, vh_eigenvalues,
)


def spectra_match(computed, closed_form, tol=1e-8):
    """Match two multisets of eigenvalues by optimal assignment."""
    a = np.asarray(computed).ravel()
    b = np.asarray(closed_form).ravel()
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) <= tol


def smooth_u0(x):
    return 1.0 + np.cos(2 * np.pi * x[0])


def mean_zero_w0(x):
    return np.cos(2 * np.pi * x[0])


def test_stencil_row_sums():
    for builder in (build_dh, build_vh):
        assert np.allclose(builder(6).sum(axis=1), 0.0, atol=1e-9)
    for builder in (build_dh3,):
        assert np.allclose(builder(6).sum(axis=1), 0.0, atol=1e-9)
    # the fourth-derivative stencil also annihilates constants
    assert np.allclose(build_dh4(6).sum(axis=1), 0.0, atol=1e-8)


def test_dh_spectrum_n4():
    eigs = np.linalg.eigvalsh(build_dh(4).real)
    assert spectra_match(eigs, [0.0, -32.0, -64.0, -32.0])


def test_vh_spectrum_n4():
    eigs = np.linalg.eigvals(build_vh(4))
    assert spectra_match(eigs, [0.0, 4j, 0.0, -4j])


def test_stencil_minimum_sizes():
    with pytest.raises(ValueError):
        build_dh(2)
    with pytest.raises(ValueError):
        build_dh3(3)
    with pytest.raises(ValueError):
        build_dh4(3)


def test_one_dimensional_closed_forms_across_n():
    for n in range(4, 17):
        assert spectra_match(np.linalg.eigvals(build_dh(n)), dh_eigenvalues(n))
        assert spectra_match(np.linalg.eigvals(build_vh(n)), vh_eigenvalues(n))
        assert spectra_match(np.linalg.eigvals(build_dh3(n)),
                             dh3_eigenvalues(n))
        assert spectra_match(np.linalg.eigvals(build_dh4(n)),
                             dh4_eigenvalues(n))


def test_dft_diagonalization():
    for n in (5, 8, 12):
        f = dft_matrix(n)
        diag = f.conj().T @ build_dh(n) @ f
        assert spectral_norm(diag - np.diag(dh_eigenvalues(n))) < 1e-8
        diag_v = f.conj().T @ build_vh(n) @ f
        assert spectral_norm(diag_v - np.diag(vh_eigenvalues(n))) < 1e-8


def test_heat_eigensystem_n4():
    spec = PdeSpec("heat", 1, 4, 1.0, u0=smooth_u0)
    es = eigensystem_of(spec)
    assert spectra_match(es.eigenvalues, [0, -32, -64, -32])
    assert eigen_solvers._shift(es.eigenvalues) == 0.0


def test_transport_eigensystem_n4():
    spec = PdeSpec("transport", 1, 4, 1.0, a_prime=[1.0], u0=smooth_u0)
    es = eigensystem_of(spec)
    assert spectra_match(es.eigenvalues, [0, 4j, 0, -4j])
    assert eigen_solvers._shift(es.eigenvalues) == 0.0


def test_advection_diffusion_2d_eigensystem():
    spec = PdeSpec("advection-diffusion", 2, 4, 1.0, a=[1.0, 1.0],
                   a_prime=[1.0, 0.0], u0=smooth_u0)
    es = eigensystem_of(spec)
    dense = dense_operator(spec)
    assert spectra_match(es.eigenvalues, np.linalg.eigvals(dense))
    assert spectral_norm(es.matrix - dense) < 1e-8


def test_tensorized_closed_forms_sweep():
    # d = 2 across the full n range; d = 3 on moderate n (dense eig cost)
    cases = [(2, n) for n in range(4, 17)] + [(3, n) for n in (4, 5, 6, 8)]
    for d, n in cases:
        spec = PdeSpec("advection-diffusion", d, n, 1.0,
                       a=np.linspace(0.5, 1.0, d),
                       a_prime=np.linspace(-0.5, 0.5, d), c=-0.3,
                       u0=smooth_u0)
        es = eigensystem_of(spec)  # cross-validates internally at 1e-8
        dense = dense_operator(spec)
        assert spectral_norm(es.matrix - dense) < 1e-8


def test_airy_eigenvalues_n8():
    assert spectra_match(np.linalg.eigvals(build_dh3(8)), dh3_eigenvalues(8))
    spec = PdeSpec("airy", 1, 8, 1.0, u0=smooth_u0)
    assert spectra_match(eigensystem_of(spec).eigenvalues, -dh3_eigenvalues(8))


def test_beam_eigenvalues_and_sqrt():
    n = 8
    assert spectra_match(np.linalg.eigvals(build_dh4(n)), dh4_eigenvalues(n))
    spec = PdeSpec("beam", 1, n, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    b4 = hyperbolic_sqrt_operator(spec)
    assert spectral_norm(b4 @ b4 - build_dh4(n)) < 1e-8


def test_hyperbolic_sqrt_identity():
    spec = PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    b = hyperbolic_sqrt_operator(spec)
    lap = dense_operator(PdeSpec("heat", 1, 8, 1.0, u0=smooth_u0))
    assert spectral_norm(b @ b + lap) < 1e-8


def test_wave_lifted_spectrum_n4():
    spec = PdeSpec("wave", 1, 4, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    problem, _ = lift_hyperbolic(spec)
    expected = [0.0, 1j * math.sqrt(32), 8j, 1j * math.sqrt(32),
                0.0, -1j * math.sqrt(32), -8j, -1j * math.sqrt(32)]
    assert spectra_match(problem.coefficient.eigenvalues, expected)
    dense = dense_operator(spec)
    assert spectra_match(np.linalg.eigvals(dense), expected)


def test_klein_gordon_spectrum_gap():
    spec = PdeSpec("klein-gordon", 1, 8, 1.0, mass=1.0, u0=smooth_u0,
                   w0=mean_zero_w0)
    lam = lift_hyperbolic(spec)[0].coefficient.eigenvalues
    assert np.all(np.abs(lam.imag) >= 1.0 - 1e-12)
    assert np.all(np.abs(lam) > 1e-12)


def test_lifted_spectra_sweep():
    for d, n in [(1, 4), (1, 9), (1, 12), (2, 4), (2, 6), (3, 4)]:
        spec = PdeSpec("wave", d, n, 1.0, c=-0.5, u0=smooth_u0,
                       w0=mean_zero_w0)
        problem, _ = lift_hyperbolic(spec)
        dense = dense_operator(spec)
        assert spectra_match(problem.coefficient.eigenvalues,
                             np.linalg.eigvals(dense))


def test_fast_inversion_residual_and_cost():
    spec = PdeSpec("klein-gordon", 1, 8, 1.0, mass=1.0, u0=smooth_u0,
                   w0=lambda x: 1.0 + np.sin(2 * np.pi * x[0]))
    from ffode.pde import dft_tensor, _root_spectrum
    from ffode import EigenSystem
    f = dft_tensor(8, 1)
    s = _root_spectrum(spec)
    ib = EigenSystem(f, 1j * s)
    w0 = spec.w0_vector()
    v0, cost = fast_inversion(ib, w0)
    assert np.linalg.norm((f * (1j * s)) @ (f.conj().T @ v0) - w0) < 1e-9
    assert cost == pytest.approx(np.linalg.norm(w0) / np.linalg.norm(v0))


def test_fast_inversion_zero_mode_rejection():
    spec = PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    from ffode.pde import dft_tensor, _root_spectrum
    from ffode import EigenSystem
    f = dft_tensor(8, 1)
    s = _root_spectrum(spec)
    ib = EigenSystem(f, 1j * s)
    with pytest.raises(ValueError, match="zero modes"):
        fast_inversion(ib, np.ones(8))


def test_fast_inversion_single_mode():
    from ffode import EigenSystem
    f = dft_matrix(8)
    s = np.arange(1.0, 9.0)
    mode = f[:, 3]
    v0, cost = fast_inversion(EigenSystem(f, 1j * s), mode)
    assert np.allclose(v0, mode / (1j * s[3]), atol=1e-12)
    assert cost == pytest.approx(abs(s[3]))


def test_raised_zero_tolerance_moves_both_zero_checks(monkeypatch):
    # be_duhamel_eigen allows |f+ig| ≤ 1 + TOL.zero, and fast_inversion
    # treats |λ| ≤ TOL.zero·max(1, max|λ|) as a zero mode
    from ffode import EigenSystem, TOL, be_duhamel_eigen
    from ffode import eigen_solvers
    T = 2.0
    # the zero mode's factor is T/C = 1 + 1.5e-12: above 1 + TOL.zero, and
    # clamped to 1 its claim error T - C stays within the encoding's slack
    monkeypatch.setattr(eigen_solvers, "kernel_C",
                        lambda alpha, beta, T: T / (1.0 + 1.5e-12))
    duh = EigenSystem(np.eye(2), np.array([0.0, 1j]))
    inv = EigenSystem(dft_matrix(4), np.array([1e-11j, 1j, 2j, 3j]))
    w0 = dft_matrix(4)[:, 0] + dft_matrix(4)[:, 1]
    with pytest.raises(ValueError, match="inconsistent"):
        be_duhamel_eigen(duh, T)
    fast_inversion(inv, w0)
    monkeypatch.setattr(TOL, "zero", 1e-10)
    assert be_duhamel_eigen(duh, T).factors[0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero modes"):
        fast_inversion(inv, w0)


def test_mean_zero_velocity_enforced():
    with pytest.raises(ValueError, match="mean-zero"):
        PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0,
                w0=lambda x: 1.0 + np.cos(2 * np.pi * x[0]))


def test_solve_pde_heat():
    spec = PdeSpec("heat", 1, 8, 0.05, u0=smooth_u0)
    rep = solve_pde(spec, 1e-9)
    assert rep.error_vs_reference < 1e-9
    ref = solve_reference(OdeProblem(dense_operator(spec), spec.u0_vector(),
                                     spec.T))
    fid = abs(np.vdot(rep.output_state, ref / np.linalg.norm(ref)))
    assert 1.0 - fid < 1e-9


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "the closed-form cross-validation compares eigenvalues of size ~4/h² "
    "against the absolute TOL.reconstruction = 1e-8, and both sides carry "
    "rounding of about eps·max|λ|: heat d=1 n=4096 gives residual 3.0e-8"))
def test_solve_pde_heat_n4096_passes_cross_validation():
    spec = PdeSpec("heat", 1, 4096, 0.05, u0=smooth_u0)
    assert solve_pde(spec, 1e-6).error_vs_reference < 1e-6


def test_solve_pde_transport_unit_probability():
    spec = PdeSpec("transport", 1, 8, 1.0, a_prime=[1.0], u0=smooth_u0)
    rep = solve_pde(spec, 1e-9)
    assert rep.success_probability == pytest.approx(1.0, abs=1e-10)


def test_solve_pde_wave_u_block():
    spec = PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    rep = solve_pde(spec, 1e-8)
    # the error is already measured against the per-axis modal reference
    assert rep.error_vs_reference < 1e-7
    assert rep.extras["u_block_norm"] > 0
    assert rep.extras["post_selection_factor"] >= 1.0
    fid_defect = rep.error_vs_reference ** 2 / 2.0
    assert fid_defect < 1e-8


def test_solve_pde_samples_w0_once():
    calls = []

    def w0(x):
        calls.append(x)
        return mean_zero_w0(x)
    spec = PdeSpec("wave", 1, 8, 0.5, u0=smooth_u0, w0=w0)
    assert len(calls) == 1  # the mean-zero check at construction
    solve_pde(spec, 1e-6)
    assert len(calls) == 1


def test_solve_pde_heat_conservation():
    # with c = 0 and b = 0 the zero-mode amplitude (total mass) is conserved
    spec = PdeSpec("heat", 1, 8, 0.7, u0=smooth_u0)
    dense = dense_operator(spec)
    u0 = spec.u0_vector()
    for t in (0.1, 0.4, 0.7):
        ut = solve_reference(OdeProblem(dense, u0, t))
        assert np.sum(ut) == pytest.approx(np.sum(u0), abs=1e-9)


def test_solve_pde_source_growth():
    # heat source aligned with the zero mode: ‖u(T)‖ ≳ 0.9 T <ψ₀|b>
    spec = PdeSpec("heat", 1, 8, 10.0, u0=smooth_u0,
                   b=lambda x, t: 1.0, b_dt=lambda x, t: 0.0)
    dense = dense_operator(spec)
    b = spec.b_vector(np.zeros((1, 1)))[0]
    psi0 = np.ones(8) / math.sqrt(8)
    for T in (10.0, 20.0):
        ut = solve_reference(OdeProblem(dense, spec.u0_vector(), T, b))
        assert np.linalg.norm(ut) >= 0.9 * T * abs(np.vdot(psi0, b))


def test_solve_pde_time_dependent_source():
    spec = PdeSpec("heat", 1, 8, 0.5, u0=smooth_u0,
                   b=lambda x, t: np.cos(2 * np.pi * x[0]) * np.cos(3 * t),
                   b_dt=lambda x, t: -3 * np.cos(2 * np.pi * x[0])
                   * np.sin(3 * t))
    rep = solve_pde(spec, 1e-3)
    assert rep.error_vs_reference <= 1e-3
    assert rep.extras["nodes"] >= 1


def _heat_with_polynomial_drive(coeffs, eps):
    """Heat d=1 n=8, T=1 under b = cos(2πx)·Σ_k coeffs[k]·t^k: the report
    and u(T) from one expm of the system augmented by the monomials
    z_k = t^k (z_k' = k·z_{k-1}), with the Laplacian built here."""
    n, T, K = 8, 1.0, len(coeffs)
    spec = PdeSpec("heat", 1, n, T, u0=smooth_u0,
                   b=lambda x, t: np.cos(2 * np.pi * x[0])
                   * np.polynomial.polynomial.polyval(t, coeffs),
                   b_dt=lambda x, t: np.cos(2 * np.pi * x[0])
                   * np.polynomial.polynomial.polyval(
                       t, np.polynomial.polynomial.polyder(coeffs)))
    rep = solve_pde(spec, eps)
    x = np.arange(n) / n
    aug = np.zeros((n + K, n + K))
    aug[:n, :n] = n ** 2 * (np.roll(np.eye(n), 1, axis=0)
                            + np.roll(np.eye(n), -1, axis=0) - 2 * np.eye(n))
    aug[:n, n:] = np.outer(np.cos(2 * np.pi * x), coeffs)
    for k in range(1, K):
        aug[n + k, n + k - 1] = k
    start = np.concatenate([1.0 + np.cos(2 * np.pi * x), [1.0], np.zeros(K - 1)])
    uT = (sla.expm(aug * T) @ start)[:n]
    want = uT / np.linalg.norm(uT)
    ov = np.vdot(want, rep.output_state)
    return rep, float(np.linalg.norm(rep.output_state * abs(ov) / ov - want))


@pytest.mark.parametrize("coeffs, eps", [
    # 20·τ(τ−0.37)(τ−0.71): zero at t = 0, 0.37 and 0.71
    (20 * np.polynomial.polynomial.polyfromroots([0.0, 0.37, 0.71]), 1e-2),
    # every row within 1e-5 relative of b(0)
    (np.array([1.0, 1e-5]), 1e-3),
], ids=["vanishing-at-probe-times", "slow-drift"])
def test_time_dependent_source_takes_the_riemann_path(coeffs, eps):
    # the source returns one row per time, so it is sampled, however its
    # rows compare
    rep, err = _heat_with_polynomial_drive(coeffs, eps)
    assert rep.extras["nodes"] >= 1
    assert err <= rep.claimed_eps
    assert rep.error_vs_reference <= rep.claimed_eps


def test_riemann_path_memory_is_bounded_by_the_batch():
    # M = 181,011 nodes, the paper bound's count at ε = 1e-3: the sum
    # streams b in batches of ≤ 2¹⁵ entries
    import tracemalloc
    spec = PdeSpec("heat", 1, 8, 1.0, u0=smooth_u0,
                   b=lambda x, t: np.cos(2 * np.pi * x[0]) * np.cos(t),
                   b_dt=lambda x, t: -np.cos(2 * np.pi * x[0]) * np.sin(t))
    problem = OdeProblem(eigensystem_of(spec), spec.u0_vector(), spec.T,
                         spec._source())
    tracemalloc.start()
    try:
        rep = eigen_solvers.solve_eigen(problem, 1e-3, M=181_011)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.extras["nodes"] > 10 ** 5
    assert rep.error_vs_reference <= 1e-3
    assert peak < 8 * 2 ** 20


def test_solve_pde_wave_with_source():
    spec = PdeSpec("wave", 1, 4, 0.5, u0=smooth_u0, w0=mean_zero_w0,
                   b=lambda x, t: np.sin(2 * np.pi * x[0]),
                   b_dt=lambda x, t: 0.0)
    rep = solve_pde(spec, 1e-6)
    assert rep.error_vs_reference <= 1e-6
    assert "v_block_norm" in rep.extras


def test_gate_model_reported():
    spec = PdeSpec("heat", 2, 8, 0.1, u0=smooth_u0)
    rep = solve_pde(spec, 1e-9)
    gm = rep.extras["gate_model"]
    assert gm["qft_gates"] == 2 * 3 ** 2
    assert gm["oracle_arithmetic_gates"] >= 1


def test_pde_spec_validation():
    with pytest.raises(ValueError):
        PdeSpec("heat", 1, 8, 1.0, a=[-1.0], u0=smooth_u0)
    with pytest.raises(ValueError):
        PdeSpec("heat", 1, 8, 1.0, c=0.5, u0=smooth_u0)
    with pytest.raises(ValueError):
        PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0)  # missing w0
    with pytest.raises(ValueError):
        PdeSpec("klein-gordon", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    with pytest.raises(ValueError):
        PdeSpec("airy", 2, 8, 1.0, u0=smooth_u0)
    with pytest.raises(ValueError):
        PdeSpec("unknown", 1, 8, 1.0)


@pytest.mark.parametrize("bad", [
    {"T": math.nan}, {"T": math.inf}, {"a": [math.nan]}, {"a": [math.inf]},
    {"a_prime": [math.nan]}, {"a_prime": [-math.inf]}, {"c": math.nan},
    {"c": -math.inf}, {"mass": math.inf},
    {"kind": "klein-gordon", "mass": math.nan, "w0": mean_zero_w0},
], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()
                            if k != "w0"))
def test_pde_spec_rejects_non_finite_values(bad):
    fields = dict({"kind": "heat", "d": 1, "n": 8, "T": 1.0, "u0": smooth_u0},
                  **bad)
    name = next(k for k in bad if k not in ("kind", "w0"))
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        PdeSpec(**fields)


@pytest.mark.parametrize("probe, residual, message", [
    (((math.nan, 1.0),), 0.0, "axis-0 stencil probe fails"),
    (((0.0, 1.0),), math.nan, "closed-form eigensystem fails"),
], ids=["probe", "residual"])
def test_nan_measurement_fails_validation(probe, residual, message):
    import ffode.pde as pde
    validation = pde._Validation(np.zeros(4, dtype=complex), probe, residual)
    with pytest.raises(ValueError, match=message):
        validation.checked(PdeSpec("heat", 1, 4, 1.0))


def test_grid_is_built_once_per_shape():
    spec = PdeSpec("heat", 2, 5, 1.0, u0=smooth_u0)
    other = PdeSpec("heat", 2, 5, 2.0, u0=smooth_u0)
    grid = spec.grid()
    assert grid is other.grid() and not grid.flags.writeable
    mesh = np.meshgrid(np.arange(5) / 5, np.arange(5) / 5, indexing="ij")
    assert np.array_equal(grid, np.stack([m.ravel() for m in mesh], axis=1))
    assert np.array_equal(spec.u0_vector(), [smooth_u0(x) for x in grid])


#: one spec per kind family, with its count of modal reference solves
SOLVE_CASES = [
    (PdeSpec("heat", 2, 6, 0.1, u0=smooth_u0), 0),
    (PdeSpec("advection-diffusion", 2, 6, 0.1, a_prime=[1.0, -0.5],
             u0=smooth_u0), 0),
    (PdeSpec("transport", 1, 8, 0.1, u0=smooth_u0), 0),
    (PdeSpec("airy", 1, 8, 0.001, u0=smooth_u0), 0),
    (PdeSpec("wave", 2, 6, 0.1, u0=smooth_u0, w0=mean_zero_w0), 1),
    (PdeSpec("klein-gordon", 2, 6, 0.1, mass=1.0, u0=smooth_u0,
             w0=mean_zero_w0), 1),
    (PdeSpec("beam", 1, 8, 0.001, u0=smooth_u0, w0=mean_zero_w0), 1),
]


@pytest.mark.parametrize("spec, calls", SOLVE_CASES)
def test_solve_pde_builds_dense_operator_only_for_the_reference(
        monkeypatch, spec, calls):
    # no kind builds a dense operator, root or DFT any more: the hyperbolic
    # kinds are checked by ``calls`` per-axis modal reference solves.  The
    # solver builds the stencils once, for the eigenvalues, the probe and the
    # residual; the modal reference builds its own.
    import ffode.pde as pde
    from ffode.reference import SecondOrderProblem
    built = []
    for name in ("dense_operator", "hyperbolic_sqrt_operator", "dft_tensor"):
        monkeypatch.setattr(pde, name,
                            lambda *args, name=name: built.append(name))
    stencil_builds = []
    stencils = pde._axis_stencils
    monkeypatch.setattr(pde, "_axis_stencils", lambda spec: (
        stencil_builds.append(spec.kind) or stencils(spec)))
    modal = []
    original = pde.solve_reference
    monkeypatch.setattr(pde, "solve_reference", lambda p: modal.append(
        isinstance(p, SecondOrderProblem)) or original(p))
    solve_pde(spec, 1e-8)
    assert built == []
    assert stencil_builds == [spec.kind]
    assert sum(modal) == calls
    # another T and ε on the same operator reuse its measured eigensystem
    solve_pde(dataclasses.replace(spec, T=2.0 * spec.T), 1e-6)
    assert stencil_builds == [spec.kind]
    assert sum(modal) == 2 * calls


def _advdiff_spec(a_prime):
    return PdeSpec("advection-diffusion", 2, 8, 1.0, a=[1.0, 0.7],
                   a_prime=a_prime, c=-0.2, u0=smooth_u0)


def test_cross_validation_rejects_wrong_parabolic_eigenvalues():
    from ffode.pde import _axis_stencils, _cross_validated, _spectrum
    spec = _advdiff_spec([1.0, -0.5])
    axes = _axis_stencils(spec)
    lam = _spectrum(spec)
    _cross_validated(spec, lam, axes).checked(spec)
    bumped = lam.copy()
    bumped[11] += 1e-6
    with pytest.raises(ValueError, match="residual"):
        _cross_validated(spec, bumped, axes).checked(spec)
    swapped = _spectrum(_advdiff_spec([-0.5, 1.0]))
    with pytest.raises(ValueError, match="residual"):
        _cross_validated(spec, swapped, axes).checked(spec)
    airy = PdeSpec("airy", 1, 16, 1.0, u0=smooth_u0)
    lam = -dh3_eigenvalues(16)
    lam[3] += 1e-6
    with pytest.raises(ValueError, match="residual"):
        _cross_validated(airy, lam, _axis_stencils(airy)).checked(airy)


def test_cross_validation_probe_catches_swapped_symbol_axes(monkeypatch):
    # with the k-grid axes swapped both spectra move together, so only the
    # stencil probe can tell
    import ffode.pde as pde
    original = pde._on_axis
    monkeypatch.setattr(pde, "_on_axis", lambda spec, one_d, axis: original(
        spec, one_d, spec.d - 1 - axis))
    with pytest.raises(ValueError, match="probe"):
        eigensystem_of(_advdiff_spec([1.0, -0.5]))


def test_cross_validation_rejects_wrong_lifted_eigenvalues():
    from ffode.pde import _axis_stencils, _cross_validated, _root_spectrum
    for spec in (PdeSpec("wave", 2, 6, 1.0, c=-0.5, u0=smooth_u0,
                         w0=mean_zero_w0),
                 PdeSpec("beam", 1, 16, 1.0, u0=smooth_u0, w0=mean_zero_w0)):
        s = _root_spectrum(spec)
        axes = _axis_stencils(spec)
        lam = np.concatenate([1j * s, -1j * s])
        eigen = _cross_validated(spec, lam, axes, s).checked(spec)
        assert np.allclose(eigen.matrix, dense_operator(spec), atol=1e-8)
        with pytest.raises(ValueError, match="residual"):
            _cross_validated(spec, np.concatenate([-1j * s, 1j * s]), axes,
                             s).checked(spec)
        bumped = lam.copy()
        bumped[spec.N + 2] += 1e-6
        with pytest.raises(ValueError, match="residual"):
            _cross_validated(spec, bumped, axes, s).checked(spec)


def test_cross_validation_takes_one_grid_fft_pair(monkeypatch):
    # the probe takes U†x once and applies U once to every axis's symbol
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, name=name, original=getattr(np.fft, name),
                    **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    spec = PdeSpec("advection-diffusion", 3, 6, 1.0, a=[1.0, 1e-3, 0.5],
                   a_prime=[1.0, -0.5, 0.25], u0=smooth_u0)
    eigensystem_of(spec)
    assert sorted(calls) == ["fftn", "ifftn"]


@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_probe_names_the_axis_of_a_wrong_stencil_tap(monkeypatch, kind, d):
    # one tap off by 1e-6 relative, off the first column the parabolic
    # residual reads, with the closed-form spectrum untouched: only the probe
    # sees it.  On the a = 1e-3 axis that tap moves S_j x by ~4.5e-8·‖x‖,
    # above that axis's bound 1e-8·max(1, 0.256) but below the 2.56e-6 of
    # the a = 1 axis, so each axis must be held to its own scale.
    import ffode.pde as pde
    spec = PdeSpec(kind, d, 8, 1.0, a=[1.0, 1e-3, 0.5][:d], u0=smooth_u0,
                   w0=mean_zero_w0 if kind == "wave" else None)
    check = pde.eigensystem_of if kind == "heat" else pde.lift_hyperbolic
    check(spec)
    original = pde._axis_stencils
    for axis in range(d):
        def bumped(spec, axis=axis):
            shift, stencils = original(spec)
            stencil, spectrum = stencils[axis]
            stencil = stencil.copy()
            stencil[1, 1] *= 1.0 + 1e-6
            stencils[axis] = (stencil, spectrum)
            return shift, stencils
        monkeypatch.setattr(pde, "_axis_stencils", bumped)
        pde._MEMO.clear()  # measure the bumped stencil
        with pytest.raises(ValueError, match=f"axis-{axis} stencil probe"):
            check(spec)


def _block_norms(pairs, s):
    """The former lifted residual, kept here as the oracle: the SVD 2-norm of
    each mode's 2×2 block M·diag(λ_k, λ_{N+k})·M − i·s_k·X."""
    mixer = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    claimed = mixer @ (pairs[:, :, None] * mixer)
    wanted = 1j * s[:, None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.linalg.norm(claimed - wanted, 2, axis=(1, 2))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 9),
       log_scale=st.floats(-3.0, 4.0))
def test_lifted_residual_is_the_largest_block_norm(seed, n, log_scale):
    # the check's closed form max(|λ_k − i·s_k|, |λ_{N+k} + i·s_k|) against
    # the 2×2 block norms, to 4·eps·max(1, max s): with TOL.reconstruction
    # that far below the oracle the check must fail, that far above it must
    # pass.  Each λ pair is (i·s_k, −i·s_k) moved by up to 0, 1e-12, 1e-6 or
    # 0.5 times max s in a random direction, and about a third of the s_k are
    # zero.  The SVD oracle rounds at ~eps·‖block‖, so the moves stop at
    # max s/2, where |λ| ≤ 1.5·max s (at moves of max s it reaches 3.6 eps).
    import ffode.pde as pde
    rng = np.random.default_rng(seed)
    s = 10.0 ** log_scale * rng.random(n)
    s[rng.random(n) < 1 / 3] = 0.0
    steps = rng.choice([0.0, 1e-12, 1e-6, 0.5], size=(2, n))
    moves = steps * rng.random((2, n)) * np.exp(2j * np.pi
                                                * rng.random((2, n)))
    lam = (np.stack([1j * s, -1j * s]) + moves * s.max()).ravel()
    oracle = float(np.max(_block_norms(lam.reshape(2, n).T, s)))
    slack = 4 * np.finfo(float).eps * max(1.0, float(s.max()))
    spec = PdeSpec("wave", 1, n, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    axes = pde._axis_stencils(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "_probe_axes", lambda *args: ())  # no axis probed
        mp.setattr(pde.TOL, "reconstruction", oracle + slack)
        pde._cross_validated(spec, lam, axes, s).checked(spec)
        mp.setattr(pde.TOL, "reconstruction", oracle - slack)
        with pytest.raises(ValueError, match="lifted .* residual"):
            pde._cross_validated(spec, lam, axes, s).checked(spec)


@pytest.mark.parametrize("spec", [spec for spec, calls in SOLVE_CASES
                                  if calls], ids=lambda spec: spec.kind)
def test_lift_runs_no_svd(monkeypatch, spec):
    # the lifted residual is a vector expression; np.linalg.norm(..., 2) of a
    # matrix stack calls the svd of numpy's linalg module, patched here too
    import importlib
    import ffode.pde as pde

    def no_svd(*args, **kwargs):
        raise AssertionError("the lift ran an SVD")
    inner = importlib.import_module("numpy.linalg._linalg"
                                    if hasattr(np.linalg, "_linalg")
                                    else "numpy.linalg.linalg")
    for module in (np.linalg, inner):
        monkeypatch.setattr(module, "svd", no_svd)
    pde.lift_hyperbolic(spec)


def test_heat_d3_n16_without_dense_matrices():
    # N = 4096: one dense N×N complex matrix would take 256 MiB
    import tracemalloc
    from scipy.sparse import csr_matrix, hstack, identity, kron, vstack
    from scipy.sparse.linalg import expm_multiply

    def u0(x):
        return (1.0 + 0.5 * np.cos(2 * np.pi * x[0]) * np.sin(2 * np.pi * x[1])
                + 0.25 * np.cos(4 * np.pi * x[2]))

    def b(x, t):
        return 0.5 + np.sin(2 * np.pi * (x[0] + x[2]))

    n, T = 16, 0.01
    spec = PdeSpec("heat", 3, n, T, u0=u0, b=b, b_dt=lambda x, t: 0.0)
    tracemalloc.start()
    try:
        rep = solve_pde(spec, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.error_vs_reference <= 1e-9
    assert peak < 32 * 2 ** 20

    # independent: the sparse stencil, with b carried by one extra row
    dh, eye = csr_matrix(build_dh(n).real), identity(n, format="csr")
    lap = (kron(kron(dh, eye), eye) + kron(kron(eye, dh), eye)
           + kron(kron(eye, eye), dh))
    bvec = spec.b_vector(np.zeros((1, 1)))[0].real
    aug = vstack([hstack([lap, csr_matrix(bvec[:, None])]),
                  csr_matrix((1, n ** 3 + 1))]).tocsr()
    uT = expm_multiply(aug * T, np.append(spec.u0_vector().real, 1.0))[:-1]
    ov = np.vdot(uT / np.linalg.norm(uT), rep.output_state)
    assert np.linalg.norm(rep.output_state * abs(ov) / ov
                          - uT / np.linalg.norm(uT)) <= 1e-9


def _advdiff_with_source(c, b, b_dt, d=2, n=8, T=1.0):
    return PdeSpec("advection-diffusion", d, n, T, a=[1.0, 0.7][:d],
                   a_prime=[1.0, -0.5][:d], c=c, u0=smooth_u0,
                   b=b, b_dt=b_dt)


def test_constant_source_shift_is_the_top_real_part():
    # a complex spectrum whose largest real part is -0.2: the constant-source
    # circuit normalizes by e^{αT} with α = -0.2, not by a clamped α = 0
    spec = _advdiff_with_source(-0.2, lambda x, t: mean_zero_w0(x),
                                lambda x, t: 0.0)
    top = float(np.max(eigensystem_of(spec).eigenvalues.real))
    assert top == pytest.approx(-0.2)
    report = solve_pde(spec, 1e-6)
    assert "nodes" not in report.extras
    assert report.extras["alpha_shift"] == top
    assert report.error_vs_reference < 1e-12


@pytest.mark.parametrize("c", [-0.2, 0.0])
def test_riemann_shift_is_clamped_at_zero(c):
    # the Riemann sum normalizes by e^{α̃T}, α̃ = max(0, max Re λ)
    spec = _advdiff_with_source(
        c, lambda x, t: mean_zero_w0(x) * np.cos(t),
        lambda x, t: -mean_zero_w0(x) * np.sin(t), d=1, n=4, T=0.2)
    top = float(np.max(eigensystem_of(spec).eigenvalues.real))
    report = solve_pde(spec, 1e-2)
    assert "nodes" in report.extras
    assert report.extras["alpha_tilde"] == max(0.0, top)


def test_airy_keeps_its_zeroth_order_term():
    # u_t = -u_xxx + c·u + b against an expm of the augmented system built
    # here from the central third difference (½, -1, 0, 1, -½)/h³
    n, T, c = 8, 1.0, -1.0

    def b(x, t):
        return np.sin(2 * np.pi * x[0]) + 0.5
    spec = PdeSpec("airy", 1, n, T, c=c, u0=smooth_u0, b=b,
                   b_dt=lambda x, t: 0.0)
    rep = solve_pde(spec, 1e-9)
    d3 = np.zeros((n, n))
    for i in range(n):
        for offset, weight in ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)):
            d3[i, (i + offset) % n] += weight * n ** 3
    aug = np.zeros((n + 1, n + 1), dtype=complex)
    aug[:n, :n] = c * np.eye(n) - d3
    aug[:n, n] = [b(np.array([j / n]), 0.0) for j in range(n)]
    u0 = np.array([smooth_u0(np.array([j / n])) for j in range(n)])
    uT = sla.expm(aug * T) @ np.append(u0, 1.0)
    want = uT[:n] / np.linalg.norm(uT[:n])
    ov = np.vdot(want, rep.output_state)
    assert np.linalg.norm(rep.output_state * abs(ov) / ov - want) <= 1e-9
    assert rep.error_vs_reference <= 1e-9


def test_wrong_root_eigenvalue_is_caught_by_the_reference(monkeypatch):
    # the lifted cross-validation derives its target from _root_spectrum
    # too, so a root eigenvalue off by 1e-6 passes it; the modal reference
    # builds its own spectrum from the stencil and must catch it
    import ffode.pde as pde
    original = pde._root_spectrum

    def bumped(spec):
        s = original(spec)
        s[1] += 1e-6  # k = 1 carries both u0 and w0
        return s
    monkeypatch.setattr(pde, "_root_spectrum", bumped)
    spec = PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    pde.lift_hyperbolic(spec)  # the cross-validation passes
    try:
        report = solve_pde(spec, 1e-8)
    except ValueError as exc:
        assert "exceeds its claim" in str(exc)
    else:
        assert report.error_vs_reference > report.claimed_eps


@pytest.mark.parametrize("kind, d, n, kwargs", [
    ("wave", 2, 64, {"a": [1.0, 0.5]}),
    ("wave", 3, 32, {}),
    ("klein-gordon", 2, 64, {"mass": 2.0}),
])
def test_hyperbolic_scale_without_dense_matrices(kind, d, n, kwargs):
    # wave d=2 n=64 has 2N = 8192: the dense lifted matrix alone would take
    # 1 GiB, and wave d=3 n=32 (2N = 65,536) 64 GiB
    import tracemalloc

    def u0(x):
        return 1.0 + 0.5 * np.cos(2 * np.pi * x[0]) * np.sin(2 * np.pi * x[1])

    def w0(x):
        return np.sin(2 * np.pi * (x[0] + x[-1]))

    spec = PdeSpec(kind, d, n, 1.0, u0=u0, w0=w0, **kwargs)
    tracemalloc.start()
    try:
        rep = solve_pde(spec, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.error_vs_reference <= 1e-9
    assert peak < 32 * 2 ** 20


def test_reassigned_velocity_is_sampled_again():
    # the w0 samples belong to the sampler and grid they came from: a spec
    # whose w0 (or n) is reassigned after construction samples again, and
    # the solver and the modal reference both read the new field
    def new_w0(x):
        return np.sin(2 * np.pi * x[0]) + 0.5 * np.cos(4 * np.pi * x[0])
    spec = PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    spec.w0 = new_w0
    fresh = PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0, w0=new_w0)
    assert np.array_equal(spec.w0_vector(), fresh.w0_vector())
    assert np.array_equal(solve_pde(spec, 1e-8).output_state,
                          solve_pde(fresh, 1e-8).output_state)
    spec.n = 6
    assert np.array_equal(spec.w0_vector(), PdeSpec(
        "wave", 1, 6, 1.0, u0=smooth_u0, w0=new_w0).w0_vector())


@st.composite
def _operators(draw):
    """A PdeSpec of any kind with d ≤ 3, n ≤ 8 and random coefficients."""
    kind = draw(st.sampled_from(PDE_KINDS))
    d = 1 if kind in ("airy", "beam") else draw(st.integers(1, 3))
    n = draw(st.integers(4 if kind in ("airy", "beam") else 3,
                         8 if d < 3 else 5))
    kwargs = {"a": draw(st.lists(st.floats(0.0, 2.0), min_size=d,
                                 max_size=d)),
              "a_prime": draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                       max_size=d))}
    if kind == "klein-gordon":
        kwargs["mass"] = draw(st.floats(0.1, 2.0))
    else:
        kwargs["c"] = draw(st.floats(-2.0, 0.0))
    return PdeSpec(kind, d, n, 1.0, u0=smooth_u0, w0=mean_zero_w0, **kwargs)


def _fresh_validation(spec):
    """The spec's measured eigensystem, built from the spec now, uncached."""
    import ffode.pde as pde
    axes = pde._axis_stencils(spec)
    if spec.kind in pde.PARABOLIC_KINDS:
        return pde._cross_validated(spec, pde._spectrum(spec), axes)
    s = pde._root_spectrum(spec)
    return pde._cross_validated(spec, np.concatenate([1j * s, -1j * s]), axes,
                                s)


def _same_bits(cached, fresh):
    assert cached.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
    assert (cached.probe, cached.residual) == (fresh.probe, fresh.residual)
    if fresh.root is None:
        assert cached.root is None
    else:
        assert cached.root.tobytes() == fresh.root.tobytes()


@settings(max_examples=60, deadline=None)
@given(spec=_operators(), data=st.data())
def test_operator_cache_holds_a_fresh_validation(spec, data):
    import ffode.pde as pde
    pde._MEMO.clear()
    probes = []
    with pytest.MonkeyPatch.context() as mp:
        probe = pde._probe_axes
        mp.setattr(pde, "_probe_axes",
                   lambda *args: probes.append(1) or probe(*args))
        cached = pde._operator_validation(spec)
        assert len(probes) == 1
        # one measurement per operator, its eigenvalues wrapped, uncopied,
        # in the spec's Fourier basis (by the public entry point, if parabolic)
        assert pde._operator_validation(spec) is cached
        eigen = (eigensystem_of(spec) if spec.kind in pde.PARABOLIC_KINDS
                 else cached.checked(spec))
        assert np.shares_memory(eigen.eigenvalues, cached.eigenvalues)
        assert vars(eigen._fourier) == {
            "n": spec.n, "d": spec.d, "lifted": cached.root is not None}
        assert len(probes) == 1
    _same_bits(cached, _fresh_validation(spec))
    with pytest.raises(ValueError, match="read-only"):
        cached.eigenvalues[0] = 0.0
    if cached.root is not None:
        with pytest.raises(ValueError, match="read-only"):
            cached.root[0] = 0.0

    # one ulp on one coefficient, a and a′ mutated in place, is a new
    # operator: a new entry, measured again
    which = data.draw(st.sampled_from(
        [("a", j) for j in range(spec.d)]
        + [("a_prime", j) for j in range(spec.d)] + [("c", None)]))
    name, j = which
    if name == "c":
        spec.c = float(np.nextafter(spec.c, -np.inf))
    else:
        getattr(spec, name)[j] = np.nextafter(getattr(spec, name)[j], np.inf)
    entries = len(pde._MEMO)
    bumped = pde._operator_validation(spec)
    assert len(pde._MEMO) == entries + 1
    assert bumped is not cached
    _same_bits(bumped, _fresh_validation(spec))


def test_tightened_tolerance_fails_the_next_solve(monkeypatch):
    # the cache holds measurements, not verdicts: each solve compares them
    # with TOL.reconstruction as it stands, and never measures again
    import ffode.pde as pde
    probes = []
    probe = pde._probe_axes
    monkeypatch.setattr(pde, "_probe_axes",
                        lambda *args: probes.append(1) or probe(*args))
    spec = PdeSpec("heat", 1, 8, 0.05, u0=smooth_u0)
    solve_pde(spec, 1e-9)
    stored = pde._operator_validation(spec)
    (err, scale), = stored.probe
    assert 0.0 < err / scale < stored.residual
    monkeypatch.setattr(pde.TOL, "reconstruction", stored.residual / 2)
    with pytest.raises(ValueError, match=f"closed-form eigensystem fails "
                                         f"cross-validation: residual "
                                         f"{stored.residual:.3e}"):
        solve_pde(spec, 1e-9)
    monkeypatch.setattr(pde.TOL, "reconstruction", err / scale / 2)
    with pytest.raises(ValueError, match="axis-0 stencil probe"):
        solve_pde(dataclasses.replace(spec, T=1.0), 1e-6)
    wave = PdeSpec("wave", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    with pytest.raises(ValueError, match="axis-0 stencil probe"):
        solve_pde(wave, 1e-8)
    monkeypatch.undo()
    monkeypatch.setattr(pde, "_probe_axes",
                        lambda *args: probes.append(1) or probe(*args))
    solve_pde(spec, 1e-9)
    solve_pde(wave, 1e-8)
    assert len(probes) == 2  # heat once, wave once


def test_operator_that_fails_validation_fails_on_every_call(monkeypatch):
    import ffode.pde as pde
    probes = []
    probe = pde._probe_axes
    monkeypatch.setattr(pde, "_probe_axes",
                        lambda *args: probes.append(1) or probe(*args))
    original = pde._on_axis
    monkeypatch.setattr(pde, "_on_axis", lambda spec, one_d, axis: original(
        spec, one_d, spec.d - 1 - axis))
    spec = _advdiff_spec([1.0, -0.5])
    for T in (1.0, 2.0, 1.0):
        with pytest.raises(ValueError, match="stencil probe"):
            solve_pde(dataclasses.replace(spec, T=T), 1e-6)
    assert len(probes) == 1


def test_threads_share_one_measurement_per_operator(monkeypatch):
    # campaign threads (``ffode solve --jobs``) share the cache: more threads
    # than cores, switching often, must each get the serial eigensystem, and
    # threads that miss one operator together (its probe slowed down so that
    # they do) measure it once
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor
    import ffode.pde as pde
    specs = [PdeSpec("heat", 2, n, 1.0, a=[1.0, a], u0=smooth_u0)
             for n in (6, 8) for a in (0.5, 1.0)]
    serial = [eigensystem_of(spec).eigenvalues.tobytes() for spec in specs]
    pde._MEMO.clear()
    probes = []
    probe = pde._probe_axes
    monkeypatch.setattr(pde, "_probe_axes", lambda *args: probes.append(
        args[0].n) or time.sleep(0.02) or probe(*args))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(eigensystem_of, specs[k % len(specs)])
                       for k in range(64)]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, eigen in enumerate(got):
        assert eigen.eigenvalues.tobytes() == serial[k % len(specs)]
    assert len(pde._MEMO) == len(specs)
    assert len(probes) == len(specs)
    from ffode import memo
    assert memo._held == {}  # each operator's lock is dropped


def test_operator_larger_than_the_budget_is_measured_and_not_kept(
        monkeypatch):
    # a lifted entry holds 40 B per grid point: 2N complex eigenvalues and
    # the N real root spectrum
    import ffode.pde as pde
    spec = PdeSpec("wave", 1, 16, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    fresh = _fresh_validation(spec)
    assert fresh.eigenvalues.nbytes + fresh.root.nbytes == 40 * spec.N
    monkeypatch.setattr(pde._MEMO, "budget", 40 * spec.N - 1)
    probes = []
    probe = pde._probe_axes
    monkeypatch.setattr(pde, "_probe_axes",
                        lambda *args: probes.append(1) or probe(*args))
    for calls in (1, 2):
        problem, _ = lift_hyperbolic(spec)
        assert len(probes) == calls  # measured again on every call
        eigenvalues = problem.coefficient.eigenvalues
        assert eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert not eigenvalues.flags.writeable
    # only the grid, 8 B per point, is kept
    assert len(pde._MEMO) == 1 and pde._MEMO.nbytes == 8 * spec.N
    (err, scale), = fresh.probe
    monkeypatch.setattr(pde.TOL, "reconstruction", err / scale / 2)
    with pytest.raises(ValueError, match="axis-0 stencil probe"):
        lift_hyperbolic(spec)  # and checked on every call


def test_operator_and_grid_entries_share_one_byte_budget(monkeypatch):
    # heat d=2 holds 16 B per grid point in either entry: N complex
    # eigenvalues, or N points of 2 coordinates
    import ffode.pde as pde
    small, large = (PdeSpec("heat", 2, n, 1.0, u0=smooth_u0) for n in (6, 8))
    budget = 16 * (2 * large.N + small.N)
    monkeypatch.setattr(pde._MEMO, "budget", budget)
    probes = []
    probe = pde._probe_axes
    monkeypatch.setattr(pde, "_probe_axes", lambda *args: probes.append(
        args[0].n) or probe(*args))
    first = eigensystem_of(small).eigenvalues
    for call in (small.grid, lambda: eigensystem_of(large),
                 large.grid):  # evicts small's operator, the least recent
        call()
        assert pde._MEMO.nbytes <= budget
    remeasured = eigensystem_of(small).eigenvalues  # evicts small's grid
    assert probes == [6, 8, 6]
    assert len(pde._MEMO) == 3 and pde._MEMO.nbytes == budget
    assert remeasured.tobytes() == first.tobytes()
