"""Risk-sensitive LQG control and major-minor mean-field games.

Solvers for the risk-sensitive Riccati/offset equations and the
major-minor consistency fixed point, plus Monte Carlo machinery that
verifies the optimality identities and the finite-population ε-Nash
behavior of the computed laws.
"""

__version__ = "0.1.0"

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    FiniteEscape,
    NonFiniteState,
    NotConverged,
    OutOfRange,
    ParseError,
    RsmfgError,
)
from .mfg import (
    MfgEquilibrium,
    agent_problem,
    equilibrium_laws,
    mean_field_trajectory,
    solve_consistency,
)
from .model import (
    LqgProblem,
    MajorMinorSpec,
    MajorParams,
    MinorTypeParams,
    scalar_problem,
    validate_game,
    validate_single,
)
from .montecarlo import (
    ControlLaw,
    check_martingale_quotient,
    check_normalization,
    check_optimal_cost,
    estimate_cost,
    estimate_gateaux,
    log_mean_exp,
    sampled_convexity,
    simulate,
)
from .numerics import MatrixTrajectory, TimeGrid
from .population import (
    FinitePopulationRun,
    NashGapReport,
    apportion,
    exact_cost,
    exact_nash_gap,
    finite_cost,
    fluctuation_statistics,
    nash_gap,
    simulate_population,
    simulate_population_laws,
)
from .riccati import RiccatiSolution, solve, solve_offset, solve_riccati

__all__ = [
    "AssumptionViolated",
    "ControlLaw",
    "DimensionMismatch",
    "FiniteEscape",
    "FinitePopulationRun",
    "LqgProblem",
    "MajorMinorSpec",
    "MajorParams",
    "MatrixTrajectory",
    "MfgEquilibrium",
    "MinorTypeParams",
    "NashGapReport",
    "NonFiniteState",
    "NotConverged",
    "OutOfRange",
    "ParseError",
    "RiccatiSolution",
    "RsmfgError",
    "TimeGrid",
    "agent_problem",
    "apportion",
    "check_martingale_quotient",
    "check_normalization",
    "check_optimal_cost",
    "equilibrium_laws",
    "estimate_cost",
    "estimate_gateaux",
    "exact_cost",
    "exact_nash_gap",
    "finite_cost",
    "fluctuation_statistics",
    "log_mean_exp",
    "mean_field_trajectory",
    "nash_gap",
    "sampled_convexity",
    "scalar_problem",
    "simulate",
    "simulate_population",
    "simulate_population_laws",
    "solve",
    "solve_consistency",
    "solve_offset",
    "solve_riccati",
    "validate_game",
    "validate_single",
    "__version__",
]
