"""Classical simulation and verification of fast-forwarded quantum ODE solvers.

A numpy library that constructs and verifies block-encodings, simulates
fast-forwarded linear-ODE solvers at the amplitude level with exact query
accounting, certifies query-complexity lower-bound witness instances, and
benchmarks spectrally discretized PDE problems against an exact Duhamel
reference.  numpy is the one runtime dependency: ``matrix_exponential`` is a
numpy scaling-and-squaring Padé exponential, and ``EigenSystem.from_matrix``
diagonalizes a normal matrix with ``eigh`` or with ``eig`` and QR.
"""

from .config import TOL, Tolerances
from .linalg import (
    EigenSystem,
    FourierBasis,
    fidelity_perturbation_bound,
    global_phase_distance,
    logarithmic_norm,
    matrix_exponential,
    non_normality,
    pure_state_trace_distance,
    renormalization_error_bounds,
    schatten1_distance,
    spectral_norm,
)
from .block_encoding import (
    BlockEncoding,
    DiagonalEncoding,
    QueryLedger,
    StatePreparationPair,
    exact_dilation,
    invert,
    lcu_combine,
    multiply,
    polynomial_transform,
    verify_block_encoding,
)
from .poly_approx import (
    ApproxPolynomial,
    approx_exp_shifted,
    approx_gaussian,
    approx_gaussian_integral,
    certified_degree_scan,
)
from .reference import (
    OdeProblem,
    SampledSource,
    kernel_C,
    solve_reference,
)
from .qsvt_solvers import (
    SolveReport,
    be_duhamel_negdef,
    be_exp_negdef,
    lcs_combine_and_measure,
    solve_negdef,
    solve_sqrt_access,
)
from .eigen_solvers import (
    RiemannPlan,
    be_duhamel_eigen,
    be_exp_eigen,
    quadrature_error_bound,
    quadrature_nodes_for,
    riemann_plan,
    solve_eigen,
    solve_eigen_constant,
    solve_eigen_timedep,
)
from .pde import (
    PdeSpec,
    build_dh,
    build_dh3,
    build_dh4,
    build_vh,
    dense_operator,
    eigensystem_of,
    fast_inversion,
    lift_hyperbolic,
    solve_pde,
)
from .lower_bounds import (
    AmplifierCircuit,
    WitnessPair,
    amplifier_bound_check,
    equilibrium_reduction_check,
    shifting_equivalence_check,
    unitary_with_first_column,
    witness_imaginary_time,
    witness_linear_system,
    witness_nonnormal_homogeneous,
    witness_nonnormal_inhomogeneous,
    witness_realpart_gap,
    witness_realpart_gap_inhomogeneous,
    worst_case_oracle_pair,
)

__version__ = "0.1.0"
