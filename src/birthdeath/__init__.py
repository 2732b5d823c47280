"""Extinction probabilities and expected extinction times for
birth-and-death processes.

The textbook forward recursions for these quantities are badly
ill-conditioned; this package computes them by direct series evaluation
instead, keeps the naive recursions around for side-by-side comparison,
and ships a Monte Carlo simulator as an independent cross-check.
"""

from .arithmetic import (
    EXTENDED,
    MACHINE,
    Real,
    RealContext,
    constant_e,
    make_context,
)
from .errors import (
    ContextMismatchError,
    ExprEvalError,
    ExprSyntaxError,
    InconclusiveSeriesError,
    NonPositiveRateError,
    PrecisionError,
)
from .extinction import (
    extinction_probabilities,
    extinction_probabilities_naive,
    extinction_sum,
    pi_product,
)
from .hitting_time import (
    delta_residual,
    delta_series,
    omega_naive,
    omega_stable,
    recurrence_residual,
)
from .rate_expr import RateExpr, eval_expr, parse, pretty
from .rates import RateModel, constant_model, expr_model
from .reports import (
    CERTAIN,
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    NAIVE_RECURSION,
    NOT_CERTAIN_EXTINCTION,
    STABLE_SERIES,
    UNCERTAIN,
    ExtinctionReport,
    HittingTimeReport,
    Violation,
    first_violation,
)
from .series import Converged, Diverged, SeriesOutcome, SeriesPolicy
from .simulate import TrajectoryStats, simulate

__version__ = "0.1.0"

__all__ = [
    "MACHINE", "EXTENDED", "Real", "RealContext", "make_context", "constant_e",
    "ContextMismatchError", "PrecisionError", "ExprSyntaxError", "ExprEvalError",
    "NonPositiveRateError", "InconclusiveSeriesError",
    "RateExpr", "parse", "eval_expr", "pretty",
    "RateModel", "constant_model", "expr_model",
    "SeriesPolicy", "Converged", "Diverged", "SeriesOutcome",
    "pi_product", "extinction_sum", "extinction_probabilities",
    "extinction_probabilities_naive",
    "delta_series", "omega_stable", "omega_naive", "recurrence_residual",
    "delta_residual",
    "TrajectoryStats", "simulate",
    "ExtinctionReport", "HittingTimeReport", "Violation", "first_violation",
    "CERTAIN", "UNCERTAIN", "FINITE", "INFINITE", "NOT_CERTAIN_EXTINCTION",
    "INCONCLUSIVE", "STABLE_SERIES", "NAIVE_RECURSION",
    "__version__",
]
