"""Accelerated composite convex minimization with verifiable certificates.

Minimize phi = f + h for a smooth convex f (known gradient and curvature
bound, optionally strongly convex) and a proximable convex h.  The solver is
an accelerated proximal-gradient method whose coefficient recursion exploits
all available strong convexity; every run can emit computable certificates
(a stationarity residual and an approximate-subgradient pair) together with
a priori bounds and closed-form iteration predictors for five stopping
criteria.
"""

from .bounds import (BoundReport, Criterion, abar_relative,
                     coefficient_sum_lower, growth_factor, log_plus_one,
                     predicted_iterations)
from .certificates import (LowerModel, ResidualPair, StationarityResidual,
                           check_eps_subgradient, lower_model_gap,
                           lower_model_violation, lower_models, residual_pair,
                           sample_points, stationarity_residual)
from .classic import (ClassicState, alpha_next, classic_init, classic_step,
                      equivalence_check, t_next)
from .engine import (CoefficientSchedule, IterateState, RunResult,
                     SolverConfig, Trace, TraceRecord, coefficient_schedule,
                     init, iterate, run, step)
from .errors import (CertificateUndefinedError, ConfigError,
                     GrowthOverflowError, InvalidStartError, NumericFailure)
from .harness import (BoundsRow, CheckResult, RunCapture, VerificationReport,
                      bounds_suite, capture_run, invariant_report, write_trace)
from .problems import (CompositeProblem, InstanceSpec, ProxOracle,
                       ReferenceOptimum, SmoothOracle, box_indicator, eval_phi,
                       l1_norm, least_squares, load_instance, logistic_loss,
                       make_instance, power_iteration, prox_box,
                       prox_scaled_quadratic, prox_soft_threshold, quadratic,
                       reference_solve, save_instance, scaled_quadratic,
                       zero_function)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "BoundsRow", "CertificateUndefinedError", "CheckResult",
    "ClassicState", "CoefficientSchedule", "CompositeProblem",
    "ConfigError", "Criterion", "GrowthOverflowError", "InstanceSpec",
    "InvalidStartError", "IterateState", "LowerModel", "NumericFailure",
    "ProxOracle", "ReferenceOptimum", "ResidualPair", "RunCapture",
    "RunResult", "SmoothOracle", "SolverConfig", "StationarityResidual",
    "Trace", "TraceRecord", "VerificationReport", "abar_relative",
    "alpha_next", "bounds_suite", "box_indicator", "capture_run",
    "check_eps_subgradient", "classic_init", "classic_step",
    "coefficient_schedule", "coefficient_sum_lower", "equivalence_check",
    "eval_phi", "growth_factor", "init", "invariant_report", "iterate",
    "l1_norm", "least_squares", "load_instance", "log_plus_one",
    "logistic_loss", "lower_model_gap", "lower_model_violation",
    "lower_models", "make_instance", "power_iteration", "predicted_iterations",
    "prox_box", "prox_scaled_quadratic", "prox_soft_threshold", "quadratic",
    "reference_solve", "residual_pair", "run", "sample_points",
    "save_instance", "scaled_quadratic", "stationarity_residual", "step",
    "t_next", "write_trace", "zero_function",
]
