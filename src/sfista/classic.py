"""Classical accelerated proximal gradient (no strong convexity).

With both moduli set to zero the two-sequence solver collapses to the
familiar momentum method: one proximal-gradient step followed by an
extrapolation y + beta (y - y_prev).  Two equivalent schedules drive the
momentum weight, the t-recursion

    t_next = (1 + sqrt(1 + 4 t^2)) / 2,   beta = (t - 1) / t_next,

and its reciprocal alpha = 1/t with

    alpha_next^2 = (1 - alpha_next) alpha^2,
    beta = alpha (1 - alpha) / (alpha^2 + alpha_next).

Both are tied back to the two-sequence coefficients by t_k = a_k / lam
= A_{k+1} / a_k, which `equivalence_check` verifies numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import engine as _engine
from .errors import ConfigError
from .problems import CompositeProblem, vector_norm

Array = np.ndarray


def t_next(t: float) -> float:
    """Advance the t-schedule: the positive root of t'^2 - t' - t^2 = 0."""
    if t < 1.0:
        raise ValueError("t-schedule values never drop below 1")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def alpha_next(alpha: float) -> float:
    """Advance the alpha-schedule via the cancellation-free root form."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha-schedule values live in (0, 1]")
    a2 = alpha * alpha
    return 2.0 * a2 / (a2 + math.sqrt(a2 * a2 + 4.0 * a2))


def beta_t(t: float, t_advanced: float) -> float:
    """Extrapolation weight of the t-schedule between t and its advance."""
    return (t - 1.0) / t_advanced


def beta_alpha(alpha: float, alpha_advanced: float) -> float:
    """Extrapolation weight of the alpha-schedule between alpha and its advance."""
    return alpha * (1.0 - alpha) / (alpha * alpha + alpha_advanced)


# momentum form -> (advance, extrapolation weight)
_FORMS = {"t": (t_next, beta_t), "alpha": (alpha_next, beta_alpha)}


@dataclass
class ClassicState:
    """y_k, the extrapolated point and the momentum value after k steps."""

    k: int
    y: Array
    x_tilde: Array
    form: str  # "t" | "alpha"
    value: float


def classic_init(x0: Array, form: str = "t") -> ClassicState:
    if form not in _FORMS:
        raise ConfigError(f"unknown momentum form {form!r}")
    x0 = np.asarray(x0, dtype=float).copy()
    return ClassicState(k=0, y=x0.copy(), x_tilde=x0.copy(), form=form,
                        value=1.0)


def classic_step(state: ClassicState, problem: CompositeProblem,
                 lf: float) -> ClassicState:
    """One proximal-gradient step plus momentum extrapolation."""
    if lf <= problem.f.curvature:
        raise ConfigError("lf must strictly exceed the curvature bound")
    g = problem.f.grad(state.x_tilde)
    y_new = problem.h.prox(state.x_tilde - g / lf, 1.0 / lf)
    advance, beta = _FORMS[state.form]
    value = advance(state.value)
    x_tilde = y_new + beta(state.value, value) * (y_new - state.y)
    return ClassicState(k=state.k + 1, y=y_new, x_tilde=x_tilde,
                        form=state.form, value=value)


def equivalence_check(problem: CompositeProblem, x0: Array, lf: float,
                      k_max: int) -> float:
    """Maximum relative deviation between the three equivalent formulations.

    Steps the t-form and alpha-form classical methods alongside the first
    k_max steps of `engine.iterate` with zero moduli and returns the largest
    relative gap over the proximal iterates of both forms, the schedule
    consistency t_k = a_k / lam = A_{k+1} / a_k, and alpha_k * t_k = 1.  The
    reformulation holds only without strong convexity, so both moduli are 0.
    A negative k_max raises ConfigError.
    """
    if k_max < 0:
        raise ConfigError(f"step count {k_max} must be nonnegative")
    config = _engine.SolverConfig(lf=lf)
    states = _engine.iterate(problem, config, x0)
    t_state = classic_init(x0, "t")
    a_state = classic_init(x0, "alpha")
    worst = 0.0
    for state in islice(states, 1, k_max + 1):
        t_k = t_state.value
        t_state = classic_step(t_state, problem, lf)
        a_state = classic_step(a_state, problem, lf)
        scale = max(1.0, vector_norm(state.y))
        dev_t = vector_norm(state.y - t_state.y) / scale
        dev_a = vector_norm(state.y - a_state.y) / scale
        # the schedule value before the step equals both coefficient ratios
        dev_sched = max(abs(state.a_prev / config.lam - t_k),
                        abs(state.A / state.a_prev - t_k)) / max(1.0, t_k)
        alpha_t = a_state.value * t_state.value
        dev_recip = abs(alpha_t - 1.0)
        worst = max(worst, dev_t, dev_a, dev_sched, dev_recip)
    return worst
