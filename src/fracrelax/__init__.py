"""fracrelax: numerical toolkit for fractional relaxation kinetics.

Evaluates Mittag-Leffler functions on the real line, applies
Riemann-Liouville fractional operators analytically (power-law rules) and
numerically (product quadrature for the weakly singular kernel), produces
the closed-form solutions of fractional decay equations, and verifies them
against an independent implicit Volterra time-stepping oracle.
"""

from .gammafn import (
    GammaDomainError,
    GammaOverflowError,
    gamma,
    reciprocal_gamma,
)
from .grids import DomainError, GridFunction, GridMismatchError, UniformGrid
from .kinetics import (
    KineticProblem,
    RelaxationInvariantError,
    SolutionCurve,
    closed_form_curve,
    differential_equation_residual,
    integral_equation_residual,
    neumann_curve,
    neumann_partial_sum,
    power_source_solution,
    power_source_solution_origin,
    relaxation_solution,
    relaxation_solution_origin,
)
from .mittag_leffler import (
    MLOverflowError,
    MLParams,
    MLResult,
    SeriesConvergenceError,
    ml_eval,
    ml_eval_detailed,
    ml_series,
)
from .riemann_liouville import (
    QuadratureWeights,
    UnsupportedOrderError,
    build_weights,
    rl_derivative_constant,
    rl_derivative_numeric,
    rl_derivative_power,
    rl_integral_numeric,
    rl_integral_power,
)
from .verification import (
    VerificationReport,
    default_oracle_tolerance,
    run_sweep,
    run_verification,
)
from .volterra import (
    OracleConfig,
    PicardDivergenceError,
    StepSingularError,
    UnstableResolventError,
    picard_iterate,
    solve_volterra,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GammaDomainError",
    "GammaOverflowError",
    "gamma",
    "reciprocal_gamma",
    "DomainError",
    "GridMismatchError",
    "UniformGrid",
    "GridFunction",
    "MLParams",
    "MLResult",
    "SeriesConvergenceError",
    "MLOverflowError",
    "ml_series",
    "ml_eval",
    "ml_eval_detailed",
    "QuadratureWeights",
    "UnsupportedOrderError",
    "build_weights",
    "rl_integral_power",
    "rl_derivative_power",
    "rl_derivative_constant",
    "rl_integral_numeric",
    "rl_derivative_numeric",
    "KineticProblem",
    "RelaxationInvariantError",
    "SolutionCurve",
    "relaxation_solution",
    "relaxation_solution_origin",
    "power_source_solution",
    "power_source_solution_origin",
    "neumann_partial_sum",
    "closed_form_curve",
    "neumann_curve",
    "integral_equation_residual",
    "differential_equation_residual",
    "OracleConfig",
    "StepSingularError",
    "UnstableResolventError",
    "PicardDivergenceError",
    "solve_volterra",
    "picard_iterate",
    "VerificationReport",
    "default_oracle_tolerance",
    "run_verification",
    "run_sweep",
]
