"""Exponential fast-forwarding when the eigensystem is known.

With A = U diag(lambda) U' for an implementable U and classically computable
eigenvalues, e^{AT} becomes a zero-error block-encoding built from a CONSTANT
number of oracle queries: 6 (real nonpositive spectra) or 10 (complex
spectra) plus 2 uses of U, independent of T, the norm of A and the dimension.
The script shows the constant ledgers, exact success probabilities from
``solve_eigen_constant`` (no source is b = None, the same LCS circuit without
its Duhamel branch), and the Riemann-sum path for a time-dependent source.
Every solver takes the problem alone; its normalizations follow from the
spectrum and the circuit that runs.
"""

import math

import numpy as np

from ffode import (
    EigenSystem, OdeProblem, SampledSource, be_duhamel_eigen,
    be_exp_eigen, solve_eigen_constant, solve_eigen_timedep,
)

print("=" * 70)
print("constant query counts, whatever the horizon")
print("=" * 70)
es = EigenSystem(np.eye(4), [0.0, -100.0, -2500.0, -10000.0])
for T in (1.0, 100.0):
    led = be_exp_eigen(es, T).ledger
    print(f"T = {T:6.0f}: exp ledger {led.counts}")
    led = be_duhamel_eigen(es, T).ledger
    print(f"           duhamel ledger {led.counts}")
print("norm(A) = 1e4 never enters the counts: that is the exponential")
print("fast-forwarding in both T and the norm.")

print()
print("=" * 70)
print("exact success probabilities")
print("=" * 70)
es2 = EigenSystem(np.eye(2), [0.0, -1.0])
u0 = np.array([1.0, 1.0]) / math.sqrt(2)
rep = solve_eigen_constant(OdeProblem(es2, u0, math.log(2.0)))
print("diag(0,-1), T = ln 2: probability", rep.success_probability,
      "(closed form 5/8)")
es1 = EigenSystem(np.eye(1), [0.0])
rep = solve_eigen_constant(OdeProblem(es1, [1.0], 5.0, [1.0]))
print("lambda = 0, u0 = b = 1, T = 5: probability", rep.success_probability,
      "(closed form 36/52)")

print()
print("=" * 70)
print("time-dependent source via the Riemann-sum combination of states")
print("=" * 70)
# a batched source: t is an (M, 1) column of times, one row b(t_k) each
src = SampledSource(lambda t: np.cos(t) * [1.0, 0.0],
                    derivative=lambda t: -np.sin(t) * [1.0, 0.0])
p = OdeProblem(es2, u0, math.pi / 2, src)
stiff = OdeProblem(es, np.full(4, 0.5), math.pi / 2, SampledSource(
    lambda t: np.cos(t) * [1.0, 1.0, 0.0, 1.0],
    derivative=lambda t: -np.sin(t) * [1.0, 1.0, 0.0, 1.0]))
print("M = min(paper bound's count, Phi bound's count) for eps = 1e-4; Phi")
print("bounds the integral of max_k |lambda_k| e^{Re lambda_k t} over [0, T]")
for name, problem in (("diag(0,-1)", p), ("diag(0,-1e2,-2.5e3,-1e4)", stiff)):
    rep = solve_eigen_timedep(problem, 1e-4)
    x = rep.extras
    print(f"{name}: M = {x['nodes']} (paper {x['nodes_paper']}), "
          f"Phi = {x['phi_bound']:.4f}")
    print(f"  bound at M {x['quadrature_bound']:.3e} (paper "
          f"{x['quadrature_bound_paper']:.3e}), measured state error "
          f"{rep.error_vs_reference:.3e}")
print("note: M only affects classical planning; the per-run ORACLE ledger is")
print("M-independent:", rep.ledger.counts)
