"""Accelerated proximal solver for phi = f + h exploiting strong convexity.

Each step extrapolates between two running sequences with weights produced by
a scalar coefficient recursion and takes one proximal-gradient step from the
extrapolated point: one gradient and one prox per step.  With no strong
convexity the scheme reduces to the familiar O(1/k^2) accelerated method; any
positive total modulus mu turns the coefficient growth geometric and the rate
linear.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from . import bounds as _bounds
from . import certificates as _cert
from .errors import (ConfigError, GrowthOverflowError, InvalidStartError,
                     NumericFailure)
from .problems import CompositeProblem

Array = np.ndarray

# Halting threshold for the coefficient sum; beyond this the geometric growth
# would overflow double precision a few iterations later.
OVERFLOW_LIMIT = 1e300

DEFAULT_CURVATURE_MARGIN = 1.25


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.

    lf must strictly dominate the curvature bound of f; mu_f and mu_h are the
    strong-convexity moduli the solver is allowed to exploit and may be any
    values in [0, modulus of f] and [0, modulus of h].
    """

    lf: float
    mu_f: float = 0.0
    mu_h: float = 0.0
    max_iter: int = 10000
    criterion: Optional["_bounds.Criterion"] = None
    trace_every: int = 1

    @property
    def mu(self) -> float:
        return self.mu_f + self.mu_h

    @property
    def lam(self) -> float:
        return 1.0 / (self.lf - self.mu_f)

    @classmethod
    def for_problem(cls, problem: CompositeProblem, lf: Optional[float] = None,
                    mu_f: Optional[float] = None, mu_h: Optional[float] = None,
                    **kwargs) -> "SolverConfig":
        """Defaults derived from the problem's oracle constants."""
        if lf is None:
            lf = DEFAULT_CURVATURE_MARGIN * problem.f.curvature
        if mu_f is None:
            mu_f = problem.f.mu
        if mu_h is None:
            mu_h = problem.h.mu
        return cls(lf=float(lf), mu_f=float(mu_f), mu_h=float(mu_h), **kwargs)


@dataclass(slots=True)
class IterateState:
    """Full state after k steps.

    x_tilde_prev is the extrapolated point the latest proximal step was taken
    from and grad_tilde_prev the gradient of f there (both None before the
    first step); a_prev is the coefficient that advanced the state to k.
    config is the SolverConfig the run was started with.
    """

    k: int
    config: SolverConfig
    a_prev: Optional[float]
    A: float
    tau: float
    x: Array
    y: Array
    x_tilde_prev: Optional[Array]
    grad_tilde_prev: Optional[Array]
    x0: Array


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace row; certificate fields are None where not computed."""

    k: int
    a: float
    A: float
    tau: float
    phi_y: float
    gap: Optional[float]
    norm_u: Optional[float]
    norm_v: Optional[float]
    eta_residual: Optional[float]
    elapsed_ns: int


@dataclass
class RunResult:
    state: IterateState
    reason: str  # "converged" | "max_iter" | "growth_overflow" | "numeric_failure"
    trace: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return self.state.k


def init(problem: CompositeProblem, config: SolverConfig, x0: Array) -> IterateState:
    """Validated initial state (k = 0, zero coefficient sum, unit tau)."""
    if not math.isfinite(config.lf):
        raise ConfigError(f"lf = {config.lf:g} must be finite")
    if config.lf <= problem.f.curvature:
        raise ConfigError(
            f"lf = {config.lf:g} must strictly exceed the curvature bound "
            f"{problem.f.curvature:g}"
        )
    if not 0.0 <= config.mu_f <= problem.f.mu:
        raise ConfigError(
            f"mu_f = {config.mu_f:g} outside [0, {problem.f.mu:g}]"
        )
    if not 0.0 <= config.mu_h <= problem.h.mu:
        raise ConfigError(
            f"mu_h = {config.mu_h:g} outside [0, {problem.h.mu:g}]"
        )
    if config.max_iter < 0:
        raise ConfigError("max_iter must be nonnegative")
    if config.trace_every < 1:
        raise ConfigError("trace_every must be a positive integer")
    if config.criterion is not None:
        config.criterion.validate(problem)
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (problem.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise InvalidStartError("x0 has a non-finite entry")
    if math.isinf(problem.h.value(x0)):
        raise InvalidStartError("x0 lies outside the effective domain of h")
    return IterateState(
        k=0,
        config=config,
        a_prev=None,
        A=0.0,
        tau=1.0,
        x=x0,
        y=x0.copy(),
        x_tilde_prev=None,
        grad_tilde_prev=None,
        x0=x0.copy(),
    )


def _next_coefficients(lam: float, tau: float, A: float, mu: float):
    """Advance the scalar recursion by one step.

    a solves a^2 / (lam * tau) - a - A = 0; the root formula is factored so
    nothing overflows before A itself approaches the halting limit.
    """
    lt = lam * tau
    a = 0.5 * lt * (1.0 + math.sqrt(1.0 + 4.0 * A / lt))
    A_next = A + a
    if A_next > OVERFLOW_LIMIT:
        raise GrowthOverflowError(
            f"coefficient sum exceeded {OVERFLOW_LIMIT:g} (geometric growth)"
        )
    tau_next = 1.0 + mu * A_next
    return a, A_next, tau_next


def step_coefficients(state: IterateState):
    """Coefficients (a, A_next, tau_next) the next step will use."""
    config = state.config
    return _next_coefficients(config.lam, state.tau, state.A, config.mu)


def step(state: IterateState, problem: CompositeProblem) -> IterateState:
    """One accelerated step; returns the new state.

    The step's coefficient, extrapolated point and gradient there are the new
    state's a_prev, x_tilde_prev and grad_tilde_prev.  The vector updates
    run in place on fresh arrays but keep the floating-point operations of
    x_tilde = (A y + a x) / A_next and
    x_next = ((a / lam)(y_next - x_tilde) + mu a y_next + tau x) / tau_next,
    operands and order included, so the iterates are the same bit for bit.
    """
    config = state.config
    lf, lam, mu = config.lf, config.lam, config.mu
    a, A_next, tau_next = _next_coefficients(lam, state.tau, state.A, mu)
    if state.A == 0.0:
        x_tilde = state.x.copy()
    else:
        x_tilde = state.A * state.y
        x_tilde += a * state.x
        x_tilde /= A_next
    g = problem.f.grad(x_tilde)
    y_next = problem.h.prox(x_tilde - g / lf, 1.0 / lf)
    x_next = y_next - x_tilde
    x_next *= a / lam
    x_next += mu * a * y_next
    x_next += state.tau * state.x
    x_next /= tau_next
    return IterateState(
        k=state.k + 1,
        config=config,
        a_prev=a,
        A=A_next,
        tau=tau_next,
        x=x_next,
        y=y_next,
        x_tilde_prev=x_tilde,
        grad_tilde_prev=g,
        x0=state.x0,
    )


def trace_record(certs: _cert.Certificates, started_ns: int) -> TraceRecord:
    """The trace row of one state, elapsed_ns counted from started_ns.

    Rows after k = 0 carry both certificates; gap is None without a
    reference optimum.
    """
    state, problem = certs.state, certs.problem
    # the recorded a is the coefficient the NEXT step would use, so a single
    # row checks tau * (A + a) / a^2 = 1 / lam on its own
    try:
        a, _, _ = step_coefficients(state)
    except GrowthOverflowError:
        a = math.inf
    gap = None
    if problem.reference_optimum is not None:
        gap = certs.phi_y - problem.reference_optimum.phi_star
    norm_u = norm_v = eta = None
    if state.k >= 1:
        norm_u = certs.stationarity.norm
        norm_v, eta = certs.pair.norm, certs.pair.eta
    return TraceRecord(k=state.k, a=a, A=state.A, tau=state.tau,
                       phi_y=certs.phi_y, gap=gap, norm_u=norm_u, norm_v=norm_v,
                       eta_residual=eta,
                       elapsed_ns=time.perf_counter_ns() - started_ns)


def iterate(problem: CompositeProblem, config: SolverConfig,
            x0: Array) -> Iterator[IterateState]:
    """Yield init's state, then each step's, until the growth halts.

    init runs when the first state is taken, and the end is quiet where step
    would raise GrowthOverflowError.  Each later state costs one step call.
    """
    state = init(problem, config, x0)
    yield state
    while True:
        try:
            state = step(state, problem)
        except GrowthOverflowError:
            return
        yield state


def stop_reason(criterion: Optional["_bounds.Criterion"],
                certs: _cert.Certificates,
                row: Optional[TraceRecord]) -> Optional[str]:
    """Stop reason the criterion gives this record, or None.

    "converged" when it holds and "numeric_failure" when the quantity it
    tests is NaN; None when it does not hold.  Without a criterion the
    record stops the run only when y has a non-finite entry or the row built
    for it, if any, holds a NaN phi_y; the row costs no further oracle call.
    The k = 0 record is tested only by function_gap: every other criterion,
    and no criterion, gives None there.
    """
    if certs.state.k == 0 and (criterion is None
                               or criterion.variant != "function_gap"):
        return None
    if criterion is None:
        nan_row = row is not None and math.isnan(row.phi_y)
        if nan_row or not np.isfinite(certs.state.y).all():
            return "numeric_failure"
        return None
    try:
        return "converged" if _bounds.check(criterion, certs) else None
    except NumericFailure:
        return "numeric_failure"


def run(problem: CompositeProblem, config: SolverConfig, x0: Array) -> RunResult:
    """Take states from `iterate` until the criterion fires or a cap is reached.

    Each state gets one Certificates record, whose pieces are computed only
    when the criterion or the trace reads them; an untraced stationarity run
    forms u only at states its oracle-free lower bound cannot rule out.
    Every trace_every-th state appends a TraceRecord, and so does the final
    one; rows after the first carry both certificates.  `stop_reason`
    tests the criterion from k = 1 on, and at k = 0 too for function_gap.  A
    NaN in the quantity it tests stops the run with "numeric_failure"; a run
    without a criterion stops so at the first y with a non-finite entry, or
    at the first row, the final one included, whose phi_y is NaN.
    """
    started_ns = time.perf_counter_ns()
    criterion = config.criterion
    trace = []
    states = iterate(problem, config, x0)
    # max(., 0) so that init runs, and rejects, a negative max_iter
    for state in islice(states, max(config.max_iter, 0) + 1):
        certs = _cert.Certificates(state, problem)
        row = None
        if state.k % config.trace_every == 0:
            row = trace_record(certs, started_ns)
            trace.append(row)
        reason = stop_reason(criterion, certs, row)
        if reason is not None:
            break
    if reason is None:
        reason = "max_iter" if state.k == config.max_iter else "growth_overflow"
    if trace[-1].k != state.k:
        trace.append(trace_record(certs, started_ns))
        if criterion is None:
            reason = stop_reason(None, certs, trace[-1]) or reason
    return RunResult(state=state, reason=reason, trace=trace)


@dataclass(frozen=True)
class CoefficientSchedule:
    """Coefficient recursion run in isolation (no oracle calls).

    a[k] is the coefficient taken from state k, so A[k + 1] = A[k] + a[k];
    tau[k] = 1 + mu * A[k].  `overflowed` marks an early halt at the
    floating-point safety limit.
    """

    a: Array
    A: Array
    tau: Array
    overflowed: bool


def coefficient_schedule(lf: float, mu_f: float, mu_h: float,
                         k_max: int) -> CoefficientSchedule:
    if lf <= mu_f:
        raise ConfigError("lf must strictly exceed mu_f")
    lam = 1.0 / (lf - mu_f)
    mu = mu_f + mu_h
    a_list: list[float] = []
    A_list = [0.0]
    tau_list = [1.0]
    overflowed = False
    for _ in range(k_max):
        try:
            a, A_next, tau_next = _next_coefficients(lam, tau_list[-1],
                                                     A_list[-1], mu)
        except GrowthOverflowError:
            overflowed = True
            break
        a_list.append(a)
        A_list.append(A_next)
        tau_list.append(tau_next)
    return CoefficientSchedule(a=np.array(a_list), A=np.array(A_list),
                               tau=np.array(tau_list), overflowed=overflowed)
