"""Shared numerical tolerances.

``TOL``, a module-level mutable instance, holds the thresholds named by its
fields below: unitarity, eigensystem reconstruction, verification slack,
normality, the kernel series switch, the exact-solver claim, numerical zero
and the reference quadrature target.  Changing a field changes every check
that reads it.

Not every threshold lives here.  Local checks keep literal ones and do not
follow ``TOL``: among them ``pde.fast_inversion`` (zero-mode weight 1e-10
and residual 1e-9; its zero-mode test reads ``TOL.zero``), the input checks
of the block-encoding and QSVT constructions, the lower-bound certificate
comparisons, and the rounding allowance of ``poly_approx``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Tolerances:
    #: spectral-norm bound on ``U†U - I`` for anything claimed unitary
    unitarity: float = 1e-10
    #: absolute bound on ``‖UΛU† - A‖`` for eigensystem reconstructions
    reconstruction: float = 1e-8
    #: absolute slack added to block-encoding error claims during verification
    #: (scaled by the normalization factor, which sets the rounding floor)
    verify_slack: float = 1e-12
    #: relative threshold of the Hermitian/skew-Hermitian test
    #: (``linalg.hermitian_eigh``, on ‖A ∓ A†‖_F) and of the normality test
    #: of ``EigenSystem.from_matrix``, on the off-diagonal of Q†AQ (Q the
    #: QR factor of A's ``eig`` eigenvectors)
    normality: float = 1e-10
    #: |λt| below which (e^{λt}-1)/(λt) switches to its Taylor series
    kernel_series_switch: float = 1e-6
    #: claimed error attached to zero-error (exact) solver constructions
    exact_solver: float = 1e-9
    #: generic "numerically zero" threshold; also the |f + ig| ≤ 1 allowance
    #: of ``eigen_solvers.be_duhamel_eigen`` and of the factor clamp in
    #: ``eigen_solvers._dilate_diagonal``, the relative zero-mode tests of
    #: ``pde.fast_inversion`` and of the second-order reference (which
    #: takes such a mode as s = 0), and the distance from 1 within which
    #: ``SolveReport`` reports a success probability as exactly 1
    zero: float = 1e-12
    #: absolute refinement target of the reference quadrature
    quadrature: float = 1e-12


TOL = Tolerances()

#: amplitude-amplification repeat constant: repeats ≈ AA_CONSTANT / sqrt(p).
#: Reported in solve reports, never asserted (the boost is only Ω(1)).
AA_CONSTANT = 2.0

#: documented constant hidden in the O(·) query count of block-encoded
#: matrix inversion: queries = ceil(INVERSE_QUERY_CONSTANT * (1/δ) * ln(1/(δε)))
INVERSE_QUERY_CONSTANT = 1.0

#: cap on Riemann-sum node counts for the time-dependent solver
MAX_RIEMANN_NODES = 10**6
