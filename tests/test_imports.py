"""numpy is the only runtime dependency.

The subprocess below makes scipy unimportable before it imports ffode, so
any scipy import on the paths it runs raises: the solvers, the witnesses,
the matrix exponential of any matrix, the ill-conditioned fallback of
``solve_reference`` and ``EigenSystem.from_matrix`` of every normal matrix.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg as sla

from ffode import build_dh, build_dh3, build_dh4, build_vh

NO_SCIPY = textwrap.dedent("""
    import sys
    sys.modules['scipy'] = None  # every scipy import now raises ImportError

    import warnings

    import numpy as np
    import ffode
    from ffode.lower_bounds import (
        AmplifierCircuit, amplifier_bound_check, equilibrium_reduction_check,
        shifting_equivalence_check, witness_imaginary_time,
        witness_linear_system, witness_nonnormal_homogeneous,
        witness_nonnormal_inhomogeneous, witness_realpart_gap,
        witness_realpart_gap_inhomogeneous, worst_case_oracle_pair)


    def unitary(rng, n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(g)[0]


    def u0(x):
        return 1.0 + np.cos(2 * np.pi * x[0])


    def w0(x):
        return np.cos(2 * np.pi * x[0])


    rng = np.random.default_rng(5)

    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = (g + g.conj().T) / (2.0 * np.linalg.norm(g, 2))
    a = -(h @ h) - 0.5 * np.eye(16)
    v = rng.standard_normal(16)
    ffode.solve_negdef(ffode.OdeProblem(a, v, 4.0, v), 0.5, 1e-6)
    ffode.solve_sqrt_access(ffode.OdeProblem(-(h @ h), v, 4.0, v),
                            ffode.exact_dilation(h, 1.0), 1e-6)

    specs = {
        'heat-constant': ffode.PdeSpec('heat', 2, 4, 0.1, u0=u0,
                                       b=lambda x, t: w0(x)),
        'heat-riemann': ffode.PdeSpec(
            'heat', 2, 4, 0.01, u0=u0, b=lambda x, t: w0(x) * np.cos(t),
            b_dt=lambda x, t: -w0(x) * np.sin(t)),
        'advection-diffusion': ffode.PdeSpec(
            'advection-diffusion', 2, 4, 0.1, a=[1.0, 0.7],
            a_prime=[1.0, -0.5], u0=u0),
        'wave': ffode.PdeSpec('wave', 1, 8, 1.0, u0=u0, w0=w0),
        'beam': ffode.PdeSpec('beam', 1, 8, 1.0, u0=u0, w0=w0),
        'airy': ffode.PdeSpec('airy', 1, 8, 1.0, u0=u0),
    }
    for name, spec in specs.items():
        ffode.solve_pde(spec, 1e-2 if name == 'heat-riemann' else 1e-6)

    n = 4
    gap = np.linspace(1.0, -1.0, n) + 0j
    for basis in (np.eye(n, dtype=complex), unitary(rng, n)):
        witness_realpart_gap(basis, gap, 0.01)
        witness_realpart_gap_inhomogeneous(basis, gap, 0.01)
    witness_nonnormal_homogeneous(0.5)
    witness_nonnormal_inhomogeneous(0.5)
    witness_imaginary_time(np.diag(np.linspace(0.0, 1.0, n)).astype(complex),
                           1.0)
    witness_linear_system(10.0, unitary(rng, n), unitary(rng, n))
    equilibrium_reduction_check(-np.eye(3).astype(complex), [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0], [0.5, 1.0, 2.0])

    psi = np.eye(n, dtype=complex)[0]
    phi = 0.99 * psi
    phi[1] = np.sqrt(1.0 - 0.99 ** 2)
    circuit = AmplifierCircuit([unitary(rng, 2 * n) for _ in range(3)],
                               ['oracle', 'controlled-inverse'],
                               ancilla_qubits=1)
    amplifier_bound_check(worst_case_oracle_pair(psi, phi), circuit)

    ffode.certified_degree_scan('exp-shifted', [16, 64, 256, 1024], 1e-6)

    # the shifting check takes e^{At} of a generic complex A
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    shifting_equivalence_check(g, 0.7, rng.standard_normal(n) + 0j, 1.0)

    # a Jordan block has no usable eigenbasis: one propagator per node
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    drive = ffode.SampledSource(lambda t: np.sin(t) * [0.0, 1.0])
    for b in ([0.0, 1.0], drive):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter('always')
            ffode.solve_reference(ffode.OdeProblem(jordan, [1.0, 0.0], 1.0, b))
        assert any('ill-conditioned' in str(w.message) for w in caught)

    ffode.EigenSystem.from_matrix(h)
    ffode.EigenSystem.from_matrix(1j * h)

    # a normal matrix that is neither: eig and QR
    q = unitary(rng, n)
    ffode.EigenSystem.from_matrix((q * np.array([1.0, 1j, -1.0, 2.0]))
                                  @ q.conj().T)
""")


def test_solve_paths_do_not_import_scipy_linalg():
    subprocess.run([sys.executable, "-c", NO_SCIPY], check=True)


#: each stencil's taps {offset: weight} and derivative order, from its docstring
STENCILS = [(build_dh, {0: -2.0, 1: 1.0, -1: 1.0}, 2),
            (build_vh, {1: -0.5, -1: 0.5}, 1),
            (build_dh3, {1: 1.0, 2: -0.5, -1: -1.0, -2: 0.5}, 3),
            (build_dh4, {0: 6.0, 1: -4.0, 2: 1.0, -1: -4.0, -2: 1.0}, 4)]


@pytest.mark.parametrize("build, taps, order", STENCILS,
                         ids=["dh", "vh", "dh3", "dh4"])
@pytest.mark.parametrize("n", ["reach+2", 8, 17, 64, 512])
def test_circulant_matches_scipy(build, taps, order, n):
    reach = max(abs(offset) for offset in taps)
    n = reach + 2 if n == "reach+2" else n
    col = np.zeros(n)
    for offset, weight in taps.items():
        col[offset % n] += weight
    want = sla.circulant((col * n ** order).astype(complex))
    assert np.array_equal(build(n), want)
    with pytest.raises(ValueError):
        build(reach + 1)
