"""Spectrally discretized PDEs: heat, transport, wave, Airy, beam.

All the periodic central-difference stencils share the Fourier eigenbasis,
so each PDE becomes an ODE with a known eigensystem and inherits the
exponentially fast-forwarded solvers.  Parabolic runs are compared against
the Duhamel reference on their eigensystem.  Hyperbolic problems are lifted
to first order and post-selected on the u block, which is compared against a
per-axis modal reference: each stencil rebuilt from its formula and
diagonalized by ``eigh``, every mode evolved in closed form, with no dense
2N×2N matrix.
"""

import numpy as np

from ffode import PdeSpec, solve_pde


def u0(x):
    return 1.0 + np.cos(2 * np.pi * x[0])


def w0(x):
    return np.cos(2 * np.pi * x[0])


print("=" * 70)
print("parabolic family")
print("=" * 70)
print(f"{'kind':>22} {'d':>2} {'n':>3} {'error':>11} {'p_success':>10}")
for kind, d in (("heat", 1), ("heat", 2), ("transport", 1),
                ("advection-diffusion", 2), ("airy", 1)):
    spec = PdeSpec(kind, d, 8, 0.05, u0=u0)
    rep = solve_pde(spec, 1e-9)
    print(f"{kind:>22} {d:2d} {spec.n:3d} {rep.error_vs_reference:11.2e} "
          f"{rep.success_probability:10.4f}")
print("transport is a Hamiltonian-simulation case: its probability is 1.")

print()
print("=" * 70)
print("hyperbolic family (lifted to [[0, iB], [iB, 0]])")
print("=" * 70)
print(f"{'kind':>22} {'error':>11} {'p_success':>10} {'u-block norm':>13}")
for kind, kwargs in (("wave", {}), ("klein-gordon", {"mass": 1.0}),
                     ("beam", {})):
    spec = PdeSpec(kind, 1, 8, 0.5, u0=u0, w0=w0, **kwargs)
    rep = solve_pde(spec, 1e-9)
    print(f"{kind:>22} {rep.error_vs_reference:11.2e} "
          f"{rep.success_probability:10.4f} "
          f"{rep.extras['u_block_norm']:13.4f}")

print()
print("=" * 70)
print("inhomogeneous heat with a time-dependent source")
print("=" * 70)
spec = PdeSpec("heat", 1, 8, 0.5, u0=u0,
               b=lambda x, t: np.cos(2 * np.pi * x[0]) * np.cos(3 * t),
               b_dt=lambda x, t: -3 * np.cos(2 * np.pi * x[0]) * np.sin(3 * t))
rep = solve_pde(spec, 1e-3)
print(f"error {rep.error_vs_reference:.2e} with M = {rep.extras['nodes']} "
      "Riemann nodes")
print("gate model terms:", rep.extras["gate_model"])
