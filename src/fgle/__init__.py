"""Solver for the 1-D fractional Ginzburg-Landau equation.

Second-order weighted-shifted Grunwald discretization of the fractional
Laplacian in space, implicit midpoint rule in time, with built-in
verification of the operator's discrete spectral properties and the
scheme's energy balance.
"""

from .experiments import (
    ConvergenceRow,
    ExactReference,
    FineGridReference,
    RefinementOrders,
    convergence_study,
    error_norms,
    inviscid_limit_study,
    norm_decay_study,
    operator_refinement_orders,
    sech_soliton_coefficients,
    sech_soliton_model_params,
    sech_soliton_solution,
)
from .linalg import (
    ComplexField,
    FactorizedSystem,
    SingularMatrixError,
    cholesky,
    l2_h,
    linf_h,
    lu_factor,
)
from .spectral import (
    sobolev_norm,
    sobolev_seminorm,
    verify_interpolation,
)
from .stepper import (
    GridSpec,
    ModelParams,
    NonConvergence,
    SolverSettings,
    StepDiagnostics,
    TimeGrid,
    Trajectory,
    build_system_matrix,
    fixed_point_step,
    run_simulation,
)
from .wsgd import (
    LEADING_PAIR_ALPHA_THRESHOLD,
    OperatorMatrix,
    WsgdWeights,
    assemble_operator,
    c_alpha,
    check_weight_properties,
    grunwald_coeffs,
    h_function,
    symbol_f,
    wsgd_weights,
)

__version__ = "0.1.0"
