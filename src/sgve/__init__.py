"""Zero-sum stochastic game values and positive-cone growth rates.

Solver library for finite-state zero-sum stochastic games over compact
action boxes: gap-certified matrix games, the per-state dynamic programming
operator (whose tagged forms only declare the game class), n-stage and
discounted values, their common vanishing-discount limit with power-law
extrapolation, parametric one-shot games, and geometric growth rates of
order-preserving maps through log/exp conjugation.
"""
from .errors import (EvalDomainError, ExprSyntaxError, GameSpecError,
                     IterationBudgetError, MatrixGameError, PositivityError,
                     SgveError, UnknownVariableError)
from .expr import evaluate, parse, to_string
from .game import (DiscretizedGame, GameSpec, MatrixGameSolution, discretize,
                   matrix_game_bruteforce, solve_matrix_game, uniform_grid)
from .parametric import (ConvexGameSpec, SeparableSpec, convex_value,
                         mckinsey_grid_value, mckinsey_value, separable_value)
from .pf import (MonotoneMap, check_cone_properties, explicit_map, growth_rate,
                 log_glasses_apply, max_linear, min_linear, risk_sensitive_apply)
from .shapley import PropertyReport, ShapleyOperator, check_properties
from .values import (DeviationCheck, PowerLawFit, RateFit, SimulationResult,
                     discounted_value, discounted_value_detailed,
                     iterate_deviation_check, n_stage_series, operator_distance,
                     rate_fit, simulate, value_iteration, vanishing_discount)

__version__ = "0.1.0"

__all__ = [
    "SgveError", "ExprSyntaxError", "UnknownVariableError", "EvalDomainError",
    "GameSpecError", "MatrixGameError", "IterationBudgetError", "PositivityError",
    "parse", "evaluate", "to_string",
    "GameSpec", "DiscretizedGame", "MatrixGameSolution", "uniform_grid",
    "discretize", "solve_matrix_game", "matrix_game_bruteforce",
    "ShapleyOperator", "PropertyReport", "check_properties",
    "value_iteration", "n_stage_series", "discounted_value",
    "discounted_value_detailed", "vanishing_discount", "PowerLawFit",
    "rate_fit", "RateFit", "operator_distance", "iterate_deviation_check",
    "DeviationCheck", "simulate", "SimulationResult",
    "SeparableSpec", "separable_value", "ConvexGameSpec", "convex_value",
    "mckinsey_value", "mckinsey_grid_value",
    "MonotoneMap", "min_linear", "max_linear", "explicit_map",
    "log_glasses_apply", "risk_sensitive_apply", "growth_rate",
    "check_cone_properties",
    "__version__",
]
