"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion is checked at its stated tolerance; runtime-limited criteria
assert their wall-clock budget as well.
"""

import json
import math
import time

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.optimize import linear_sum_assignment

from ffode import (
    AmplifierCircuit, DiagonalEncoding, EigenSystem, OdeProblem, PdeSpec,
    QueryLedger, SampledSource, amplifier_bound_check, build_dh, build_dh3,
    build_dh4, build_vh, certified_degree_scan, dense_operator, eigensystem_of,
    equilibrium_reduction_check, exact_dilation, invert, lcu_combine,
    lift_hyperbolic, matrix_exponential, multiply,
    polynomial_transform, quadrature_error_bound, shifting_equivalence_check,
    solve_eigen_constant, solve_eigen_timedep, solve_pde, solve_reference,
    spectral_norm, verify_block_encoding,
    witness_imaginary_time, witness_linear_system,
    witness_nonnormal_homogeneous, witness_nonnormal_inhomogeneous,
    witness_realpart_gap, witness_realpart_gap_inhomogeneous,
    worst_case_oracle_pair,
)
from ffode.block_encoding import StatePreparationPair
from ffode.cli import EXIT_OK, main
from ffode.pde import (
    dh3_eigenvalues, dh4_eigenvalues, dh_eigenvalues,
    hyperbolic_sqrt_operator, vh_eigenvalues,
)


def report(criterion, detail):
    print(f"[acceptance criterion {criterion}] PASS  {detail}")


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def random_hermitian(rng, n, scale=0.9):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return scale * h / spectral_norm(h)


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def spectra_match(computed, closed_form, tol=1e-8):
    a = np.asarray(computed).ravel()
    b = np.asarray(closed_form).ravel()
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) <= tol


def fidelity_defect(state, reference):
    ref = reference / np.linalg.norm(reference)
    return 1.0 - min(1.0, abs(np.vdot(state, ref)))


def smooth_u0(x):
    return 1.0 + np.cos(2 * np.pi * x[0])


def mean_zero_w0(x):
    return np.cos(2 * np.pi * x[0])


def bounded_random_poly(rng, degree):
    coef = rng.standard_normal(degree + 1)
    p = Chebyshev(coef)
    xs = np.cos(np.pi * (np.arange(8 * degree + 64) + 0.5)
                / (8 * degree + 64))
    return Chebyshev(coef * (0.45 / np.max(np.abs(p(xs)))))


def test_criterion_1_block_encoding_calculus():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    checked = 0
    for _ in range(50):  # 4 constructor checks per round = 200 instances
        n = int(rng.integers(2, 17))

        # the calculus composes on one eigenbasis: a1 and every error are
        # diagonal on the one exact_dilation of a0
        a0 = random_hermitian(rng, n, 0.8)
        base = exact_dilation(a0, 1.0)

        def on_a0(diagonal):
            return base.eigen.apply_function(lambda _: diagonal)

        # linear combination: alpha*beta*eps error scaling
        w1 = rng.uniform(-0.8, 0.8, n).astype(complex)
        a1 = on_a0(w1)
        eps0 = float(rng.uniform(0.0, 1e-4))
        e0 = eps0 * rng.uniform(-1.0, 1.0, n)
        e_mat = on_a0(e0)
        be0 = base.reattached(base.target_diagonal + e0, eps0 + 1e-15)
        be1 = DiagonalEncoding(base.eigen, w1, 1.0, 0.0, 1, QueryLedger(), w1)
        y = rng.uniform(0.2, 1.0, 2)
        pair = StatePreparationPair.from_vector(y)
        lcu = lcu_combine(pair, [be0, be1])
        target = y[0] * (a0 + e_mat) + y[1] * a1
        measured = verify_block_encoding(lcu, target)
        assert measured <= lcu.alpha * max(be0.epsilon_claim, 0.0) + 1e-11
        checked += 1

        # multiplication: alpha*eps_b + beta*delta_a
        prod = multiply(be0, be1)
        measured = verify_block_encoding(prod, (a0 + e_mat) @ a1)
        assert measured <= be1.alpha * be0.epsilon_claim + 1e-11
        checked += 1

        # inverse on a gapped spectrum
        delta = float(rng.uniform(0.15, 0.5))
        w = rng.uniform(delta, 1.0, n) * rng.choice([-1.0, 1.0], n)
        q = random_unitary(rng, n)
        gapped = (q * w) @ q.conj().T
        gapped = (gapped + gapped.conj().T) / 2
        inv = invert(exact_dilation(gapped, 1.0), delta, 1e-8)
        assert verify_block_encoding(inv, np.linalg.inv(gapped)) <= 1e-8
        checked += 1

        # polynomial transform: 4 d sqrt(eps/alpha)
        d = int(rng.integers(1, 9))
        poly = bounded_random_poly(rng, d)
        eps_in = float(rng.uniform(1e-8, 1e-5))
        e2 = eps_in * rng.uniform(-1.0, 1.0, n)
        be_p = base.reattached(base.target_diagonal + e2, eps_in + 1e-15)
        out = polynomial_transform(be_p, poly)
        wt, vt = np.linalg.eigh(a0 + on_a0(e2))
        target = (vt * poly(np.clip(wt, -1, 1))) @ vt.conj().T
        measured = verify_block_encoding(out, target)
        assert measured <= 4 * d * math.sqrt(be_p.epsilon_claim) + 1e-11
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, f"{checked} constructor instances verified in {elapsed:.1f}s")


def test_criterion_2_eigen_solvers_match_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(200)
    instances = 0

    # random eigensystem instances across the three solver paths
    for n in (4, 8, 16, 64):
        for _ in range(3):
            q = random_unitary(rng, n)
            lam = rng.uniform(-1, 0, n) + 1j * rng.uniform(-2, 2, n)
            es = EigenSystem(q, lam)
            u0 = random_unit(rng, n)
            b = random_unit(rng, n)
            T = float(rng.uniform(0.2, 2.0))
            rep = solve_eigen_constant(OdeProblem(es, u0, T))
            ref = solve_reference(OdeProblem(es.matrix, u0, T))
            assert fidelity_defect(rep.output_state, ref) <= 1e-9
            instances += 1
            rep = solve_eigen_constant(OdeProblem(es, u0, T, b))
            ref = solve_reference(OdeProblem(es.matrix, u0, T, b))
            assert fidelity_defect(rep.output_state, ref) <= 1e-9
            instances += 1

    # time-dependent instances at fine quadrature
    for n in (4, 8):
        for trial in range(3):
            q = random_unitary(rng, n)
            lam = rng.uniform(-1, 0, n) + 1j * rng.uniform(-1, 1, n)
            es = EigenSystem(q, lam)
            u0 = random_unit(rng, n)
            g = random_unit(rng, n)
            src = SampledSource(
                lambda t, g=g: np.cos(1.3 * t) * g,
                derivative=lambda t, g=g: -1.3 * np.sin(1.3 * t) * g)
            T = 0.5
            p = OdeProblem(es, u0, T, src)
            rep = solve_eigen_timedep(p, 1e-4, M=120_000)
            ref = solve_reference(OdeProblem(es.matrix, u0, T, src))
            assert fidelity_defect(rep.output_state, ref) <= 1e-9
            instances += 1

    # PDE builds: parabolic kinds through solve_pde
    for kind, dims in (("heat", (1, 2)), ("transport", (1, 2)),
                       ("advection-diffusion", (1, 2)), ("airy", (1,))):
        for d in dims:
            for n in (4, 8):
                spec = PdeSpec(kind, d, n, 0.05, u0=smooth_u0)
                rep = solve_pde(spec, 1e-9)
                assert fidelity_defect(
                    rep.output_state,
                    solve_reference(OdeProblem(dense_operator(spec),
                                               spec.u0_vector(), spec.T))
                ) <= 1e-9
                instances += 1

    # hyperbolic kinds: u-block against the per-axis modal reference
    for kind, kwargs, dims in (
            ("wave", {}, (1, 2)),
            ("klein-gordon", {"mass": 1.0}, (1, 2)),
            ("beam", {}, (1,))):
        for d in dims:
            for n in (4, 8):
                spec = PdeSpec(kind, d, n, 0.3, u0=smooth_u0,
                               w0=mean_zero_w0, **kwargs)
                rep = solve_pde(spec, 1e-9)
                assert rep.error_vs_reference ** 2 / 2 <= 1e-9
                instances += 1

    elapsed = time.perf_counter() - started
    assert instances >= 50
    assert elapsed < 60.0
    report(2, f"{instances} instances matched the reference "
              f"(defect ≤ 1e-9) in {elapsed:.1f}s")


def test_criterion_3_ledger_constants():
    from ffode import be_duhamel_eigen, be_exp_eigen
    from ffode.block_encoding import U_EIG
    checked = 0
    for n in (4, 8, 16):
        heat = eigensystem_of(PdeSpec("heat", 1, n, 1.0, u0=smooth_u0))
        advdiff = eigensystem_of(PdeSpec(
            "advection-diffusion", 1, n, 1.0, a=[1.0], a_prime=[1.0],
            u0=smooth_u0))
        for T in (1.0, 10.0, 100.0):
            for builder in (be_exp_eigen, be_duhamel_eigen):
                led = builder(heat, T).ledger
                assert led.total() - led[U_EIG] == 6
                assert led[U_EIG] == 2
                led = builder(advdiff, T).ledger
                assert led.total() - led[U_EIG] == 10
                assert led[U_EIG] == 2
                checked += 2
    report(3, f"6/10-query and 2-U constants exact on {checked} builds")


def test_criterion_4_success_probability_formulas():
    from ffode import lcs_combine_and_measure
    rng = np.random.default_rng(400)
    checked = 0

    # hand-checked value 5/8
    es = EigenSystem(np.eye(2), [0.0, -1.0])
    u0 = np.array([1.0, 1.0]) / math.sqrt(2)
    rep = solve_eigen_constant(OdeProblem(es, u0, math.log(2.0)))
    assert abs(rep.success_probability - 5.0 / 8.0) <= 1e-10
    checked += 1

    # hand-checked value 1/4
    a = np.array([[-1.0 + 0j]])
    e0 = exact_dilation(matrix_exponential(a, 1.0), 1.0)
    e1 = exact_dilation(np.array([[1.0 - math.exp(-1.0)]]), 1.0)
    ref = solve_reference(OdeProblem(a, [1.0], 1.0, [1.0]))
    rep = lcs_combine_and_measure([1.0], [1.0], e0, e1, ref, 1e-9)
    assert abs(rep.success_probability - 0.25) <= 1e-10
    checked += 1

    for _ in range(9):
        n = int(rng.integers(2, 9))
        q = random_unitary(rng, n)
        lam = rng.uniform(-1, 0, n) + 1j * rng.uniform(-1, 1, n)
        es = EigenSystem(q, lam)
        u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        T = float(rng.uniform(0.3, 2.0))
        rep = solve_eigen_constant(OdeProblem(es, u0, T))
        ref = solve_reference(OdeProblem(es, u0, T))
        expected = (np.linalg.norm(ref) / (math.exp(
            rep.extras["alpha_shift"] * T) * np.linalg.norm(u0))) ** 2
        assert abs(rep.success_probability - expected) <= 1e-10
        checked += 1

        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rep = solve_eigen_constant(OdeProblem(es, u0, T, b))
        ref = solve_reference(OdeProblem(es, u0, T, b))
        w = math.hypot(rep.extras["alpha0"] * np.linalg.norm(u0),
                       rep.extras["alpha1"] * np.linalg.norm(b))
        expected = (np.linalg.norm(ref) / (math.sqrt(2) * w)) ** 2
        assert abs(rep.success_probability - expected) <= 1e-10
        checked += 1
    assert checked >= 20
    report(4, f"probability closed forms exact (1e-10) on {checked} instances "
              "incl. 5/8 and 1/4")


def test_criterion_5_degree_law():
    started = time.perf_counter()
    grid = [16.0, 64.0, 256.0, 1024.0]
    exponents = {}
    for target in ("exp-shifted", "gaussian"):
        scan = certified_degree_scan(target, grid, 1e-6)
        assert 0.40 <= scan.fitted_exponent <= 0.65
        exponents[target] = scan.fitted_exponent
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(5, f"log-log slopes {exponents} within [0.40, 0.65] "
              f"in {elapsed:.1f}s")


def test_criterion_6_quadrature_bound():
    rng = np.random.default_rng(600)
    grids = [100, 1000, 10000]
    checked = 0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        q = random_unitary(rng, n)
        lam = rng.uniform(-1, 0, n) + 1j * rng.uniform(-1, 1, n)
        es = EigenSystem(q, lam)
        u0 = random_unit(rng, n)
        g1, g2 = random_unit(rng, n), random_unit(rng, n)
        om = float(rng.uniform(0.5, 2.0))
        src = SampledSource(
            lambda t, g1=g1, g2=g2, om=om: np.cos(om * t) * g1
            + np.sin(om * t) * g2,
            derivative=lambda t, g1=g1, g2=g2, om=om: -om * np.sin(om * t) * g1
            + om * np.cos(om * t) * g2)
        T = float(rng.uniform(0.5, 1.5))
        p = OdeProblem(es, u0, T, src)
        ref = solve_reference(p)
        errors = []
        for m in grids:
            rep = solve_eigen_timedep(p, 1.0, M=m)
            scale = math.exp(rep.extras["alpha_tilde"] * T) * math.sqrt(
                2 * (np.linalg.norm(u0) ** 2
                     + T ** 2 * rep.extras["avg_square_norm"]))
            u_tilde = rep.output_state * math.sqrt(
                rep.success_probability) * scale
            err = np.linalg.norm(u_tilde - ref)
            assert err <= quadrature_error_bound(p, m)
            errors.append(err)
        slope = np.polyfit(np.log(grids), np.log(errors), 1)[0]
        assert -1.15 <= slope <= -0.85
        checked += 1
    report(6, f"Riemann error under the bound with slope -1±0.15 on "
              f"{checked} instances")


def test_criterion_7_lower_bound_certifications():
    started = time.perf_counter()
    rng = np.random.default_rng(700)
    lines = 0

    for eps in (0.1, 0.01, 0.001):
        basis = np.eye(3, dtype=complex)
        pair = witness_realpart_gap(basis, [0.6, -0.4, 0.1j - 0.4], eps)
        overlap = pair.certified["initial_overlap"][0]
        assert overlap >= math.sqrt(1 - eps) - 1e-12
        assert abs(pair.params["xi"]) <= 1 + math.sqrt(2)
        lines += len(pair.certified)

    for delta in (0.5, 0.1):
        pair = witness_nonnormal_homogeneous(delta)
        assert pair.certified["perturbed_trace_distance_floor"][0] > 0.77
        lines += len(pair.certified)

    pair = witness_realpart_gap_inhomogeneous(
        np.eye(2, dtype=complex), [1.0, -1.0], 0.01)
    lines += len(pair.certified)
    for delta in (0.5, 0.1):
        pair = witness_nonnormal_inhomogeneous(delta)
        assert pair.certified["perturbed_trace_distance_floor"][0] >= 0.19
        lines += len(pair.certified)

    pair = witness_imaginary_time(np.diag([0.0, 0.5, 2.0]).astype(complex),
                                  3.0)
    lines += len(pair.certified)

    pair = witness_linear_system(10.0, random_unitary(rng, 5),
                                 random_unitary(rng, 5))
    lines += len(pair.certified)

    # worst-case oracle distance equality at overlap 1 - eps
    for eps in (0.05, 0.005):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        phi = (1 - eps) * psi
        phi[1] = math.sqrt(1 - (1 - eps) ** 2)
        o_psi, o_phi = worst_case_oracle_pair(psi, phi)
        assert abs(spectral_norm(o_psi - o_phi)
                   - math.sqrt(2 * eps)) <= 1e-10
        lines += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(7, f"{lines} witness inequalities certified in {elapsed:.1f}s")


def test_criterion_8_amplifier_bound():
    rng = np.random.default_rng(800)
    kinds = ["oracle", "inverse", "controlled", "controlled-inverse"]
    worst = 0.0
    for _ in range(100):
        dim = int(rng.choice([2, 4, 8, 16]))
        eps = float(rng.uniform(0.005, 0.25))
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        phi = (1 - eps) * psi
        phi[1] = math.sqrt(1 - (1 - eps) ** 2)
        pair = worst_case_oracle_pair(psi, phi)
        q = int(rng.integers(1, 9))
        inter = [random_unitary(rng, 2 * dim) for _ in range(q + 1)]
        circ = AmplifierCircuit(inter,
                                [str(rng.choice(kinds)) for _ in range(q)],
                                ancilla_qubits=1)
        worst = max(worst, amplifier_bound_check(pair, circ))
    assert worst <= 1.0
    report(8, f"amplifier ratio ≤ 1 on 100 circuits (max {worst:.4f})")


def test_criterion_9_shifting_equivalence():
    rng = np.random.default_rng(900)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = float(rng.uniform(-2.0, 2.0))
        u0 = random_unit(rng, n)
        T = float(rng.uniform(0.2, 2.0))
        assert shifting_equivalence_check(a, c, u0, T)
    report(9, "normalized solutions and hardness measures shift-invariant "
              "on 50 instances")


def test_criterion_10_pde_eigenvalue_formulas():
    for n in range(4, 17):
        assert spectra_match(np.linalg.eigvals(build_dh(n)),
                             dh_eigenvalues(n))
        assert spectra_match(np.linalg.eigvals(build_vh(n)),
                             vh_eigenvalues(n))
        assert spectra_match(np.linalg.eigvals(build_dh3(n)),
                             dh3_eigenvalues(n))
        assert spectra_match(np.linalg.eigvals(build_dh4(n)),
                             dh4_eigenvalues(n))

    cases = [(1, n) for n in range(4, 17)] \
        + [(2, n) for n in (4, 6, 8, 12, 16)] + [(3, n) for n in (4, 6, 8)]
    for d, n in cases:
        spec = PdeSpec("advection-diffusion", d, n, 1.0,
                       a=np.linspace(0.4, 1.0, d),
                       a_prime=np.linspace(-0.6, 0.6, d), c=-0.2,
                       u0=smooth_u0)
        es = eigensystem_of(spec)
        assert spectral_norm(es.matrix - dense_operator(spec)) <= 1e-8

    for d, n in [(1, 4), (1, 8), (1, 12), (2, 4), (2, 8), (3, 4)]:
        spec = PdeSpec("wave", d, n, 1.0, c=-0.4, u0=smooth_u0,
                       w0=mean_zero_w0)
        problem, _ = lift_hyperbolic(spec)
        dense = dense_operator(spec)
        assert spectra_match(problem.coefficient.eigenvalues,
                             np.linalg.eigvals(dense))
        b = hyperbolic_sqrt_operator(spec)
        lap = dense_operator(PdeSpec("heat", d, n, 1.0,
                                     a=np.ones(d), c=-0.4, u0=smooth_u0))
        assert spectral_norm(b @ b + lap) <= 1e-8

    # beam square root
    spec = PdeSpec("beam", 1, 8, 1.0, u0=smooth_u0, w0=mean_zero_w0)
    b4 = hyperbolic_sqrt_operator(spec)
    assert spectral_norm(b4 @ b4 - build_dh4(8)) <= 1e-8
    report(10, "closed-form spectra within 1e-8 of dense eigendecompositions"
               " incl. lifted systems and B² identities")


def test_criterion_11_equilibrium_reduction():
    rng = np.random.default_rng(1100)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g - (0.2 + spectral_norm(g + g.conj().T) / 2) * np.eye(n)
        rows = equilibrium_reduction_check(a, random_unit(rng, n),
                                           random_unit(rng, n), range(1, 41))
        assert all(r["passed"] for r in rows)
    report(11, "equilibrium inequality holds on 20 instances, T = 1..40")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    demo = {
        "version": 1, "campaign": "acceptance-demo", "solver": "eigen",
        "seed": 2026,
        "sweep": {"T": [0.01, 0.1, 1.0]},
        "problems": [
            {"id": "heat", "type": "pde", "kind": "heat", "n": 8,
             "u0": {"name": "one-plus-cos"}},
            {"id": "rand", "type": "ode", "family": "random-normal", "N": 8},
        ],
    }
    outputs = {"selftest": [], "demo": []}
    for run in ("first", "second"):
        sub = tmp_path / run
        sub.mkdir()
        assert main(["selftest", "--out", str(sub), "--seed", "9"]) == EXIT_OK
        outputs["selftest"].append(
            (sub / "selftest.csv").read_text(encoding="utf-8"))
        cfg = sub / "demo.json"
        cfg.write_text(json.dumps(demo), encoding="utf-8")
        assert main(["solve", "--config", str(cfg), "--out", str(sub)]) \
            == EXIT_OK
        outputs["demo"].append(
            (sub / "acceptance-demo.csv").read_text(encoding="utf-8"))
    capsys.readouterr()

    def strip_wall(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.strip().split("\n"))

    for name, (first, second) in outputs.items():
        assert strip_wall(first) == strip_wall(second), f"{name} differs"
    report(12, "selftest and demo campaign byte-identical across runs "
               "(wall_time_ms aside)")
