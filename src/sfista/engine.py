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
import struct
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import islice, starmap
from typing import Iterator, Optional

import numpy as np

from . import bounds as _bounds
from . import certificates as _cert
from .errors import (ConfigError, GrowthOverflowError, InvalidStartError,
                     NumericFailure)
from .problems import REAL_FORMAT, CompositeProblem, eval_phi, eval_phi_and_grad

Array = np.ndarray

# Halting threshold for the coefficient sum and tau; beyond this the geometric
# growth would overflow double precision a few iterations later.
OVERFLOW_LIMIT = 1e300

DEFAULT_CURVATURE_MARGIN = 1.25


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.

    lf must strictly dominate the curvature bound of f; mu_f and mu_h are the
    strong-convexity moduli the solver is allowed to exploit and may be any
    values in [0, modulus of f] and [0, modulus of h].

    mu = mu_f + mu_h, lam = 1 / (lf - mu_f) and plain_fista, which every
    step reads, are decided once, when the config is made (and again by
    dataclasses.replace).  plain_fista holds at mu = +0.0 alone, where
    S-FISTA is plain FISTA (the paper's Section 3); mu = -0.0 keeps the
    general form, whose dropped zero would have the other sign.  They are
    plain attributes, not fields, so repr and == see the fields alone.  A
    config that `init` rejects is still made: lf == mu_f gives lam = inf,
    and a constant that is not a number gives NaN for mu and lam.
    """

    lf: float
    mu_f: float = 0.0
    mu_h: float = 0.0
    max_iter: int = 10000
    criterion: Optional["_bounds.Criterion"] = None
    trace_every: int = 1

    def __post_init__(self):
        try:
            mu = self.mu_f + self.mu_h
            lf_gap = self.lf - self.mu_f
            lam = 1.0 / lf_gap if lf_gap else math.inf
            plain = mu == 0.0 and math.copysign(1.0, mu) > 0.0
        except (TypeError, ValueError):
            mu = lam = math.nan
            plain = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "plain_fista", plain)

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
    first step); a_prev is the coefficient that advanced the state to k, and
    a_next the one the step from k takes, inf once that step's coefficient
    sum or tau would pass OVERFLOW_LIMIT.  config is the SolverConfig the
    run was started with.
    """

    k: int
    config: SolverConfig
    a_prev: Optional[float]
    a_next: float
    A: float
    tau: float
    x: Array
    y: Array
    x_tilde_prev: Optional[Array]
    grad_tilde_prev: Optional[Array]
    x0: Array


@dataclass(slots=True)
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


# the trace file's header: one column per TraceRecord field, in field order
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))

# the doubles a Trace stores a row: A, phi_y, norm_u, norm_v, eta_residual
# and elapsed_ns
_STORED = 6
_STORED_ROW = struct.Struct(f"{_STORED}d")


class Trace(Sequence):
    """The trace rows of one `run`, six doubles a row: 48 B.

    A row stores what the run cannot form again: A, phi_y, norm_u, norm_v,
    eta_residual and elapsed_ns (exact below 2**53).  Row 0 is the k = 0
    state's, whose three certificate slots hold 0.0 and read back as None.
    The other four fields are formed when a row is read, by the expressions
    the run forms them with, so they carry the run's bits: k is
    min(i * trace_every, the final row's k), tau = 1 + mu A, a is
    `_next_coefficient(lam, mu, tau, A)`, the coefficient the NEXT step
    takes (inf at a growth halt), and gap = phi_y - phi*, None without a
    reference optimum.  So a single row checks tau (A + a) / a^2 = 1 / lam
    on its own.  Reading a row, by index (negative too) or by iterating,
    builds its TraceRecord; a slice is a list of them.
    """

    __slots__ = ("_data", "_lam", "_mu", "_every", "_phi_star", "_last_k")

    def __init__(self, config: SolverConfig, phi_star: Optional[float]):
        self._data = array("d")
        self._lam, self._mu = config.lam, config.mu
        self._every = config.trace_every
        self._phi_star = phi_star
        self._last_k = 0

    def _add(self, state: IterateState, certs: list, started_ns: int) -> None:
        """Store state's row; certs is its `row_certificates`, and
        elapsed_ns counts from started_ns."""
        phi_y, u, pair = certs
        norms = (0.0, 0.0, 0.0) if u is None else (u.norm, pair.norm, pair.eta)
        # fromlist adds the whole row or, on a bad field, nothing
        self._data.fromlist([state.A, phi_y, *norms,
                             time.perf_counter_ns() - started_ns])
        self._last_k = state.k

    def _values(self, rows: range) -> Iterator[tuple]:
        """The ten values of each row in rows, in field order."""
        lam, mu, every, last_k = self._lam, self._mu, self._every, self._last_k
        phi_star, data = self._phi_star, self._data
        unpack, size = _STORED_ROW.unpack_from, _STORED_ROW.size
        for i in rows:
            A, phi_y, norm_u, norm_v, eta, elapsed = unpack(data, size * i)
            tau = 1.0 + mu * A
            gap = None if phi_star is None else phi_y - phi_star
            if not i:
                norm_u = norm_v = eta = None
            yield (min(i * every, last_k), _next_coefficient(lam, mu, tau, A),
                   A, tau, phi_y, gap, norm_u, norm_v, eta, int(elapsed))

    def __len__(self) -> int:
        return len(self._data) // _STORED

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return list(starmap(TraceRecord, self._values(rows)))
        return TraceRecord(*next(self._values((rows,))))

    def __iter__(self) -> Iterator[TraceRecord]:
        return starmap(TraceRecord, self._values(range(len(self))))


def trace_lines(trace: Trace, meta: Optional[dict] = None) -> Iterator[str]:
    """The lines of a trace file, one at a time, each ending in a newline.

    A `# key = value` line per item of meta, the TRACE_COLUMNS header, then
    each row's ten fields comma-delimited in field order, formed with no
    TraceRecord built: k and elapsed_ns as integers, a real as format_real
    prints it.  Row 0 leaves its three certificate columns empty, and every
    row leaves gap empty without a reference optimum: the only None fields
    a Trace holds, so two %-formats, fixed once, print every row.
    """
    for key, value in (meta or {}).items():
        yield f"# {key} = {value}\n"
    yield ",".join(TRACE_COLUMNS) + "\n"
    real, empty = f"%{REAL_FORMAT}", "%.0s"
    columns = ["%d", real, real, real, real,
               empty if trace._phi_star is None else real,
               real, real, real, "%d"]
    later = ",".join(columns) + "\n"
    columns[6:9] = [empty] * 3
    line = ",".join(columns) + "\n"
    for values in trace._values(range(len(trace))):
        yield line % values
        line = later


@dataclass
class RunResult:
    """Final state, stop reason and trace rows of one `run`.

    state.k is the iteration count.  trace is the run's Trace: a sequence
    of TraceRecords, each built when read from its row's six stored doubles.
    """

    state: IterateState
    reason: str  # "converged" | "max_iter" | "growth_overflow" | "numeric_failure"
    trace: Trace


def init(problem: CompositeProblem, config: SolverConfig, x0: Array) -> IterateState:
    """Validated initial state (k = 0, zero coefficient sum, unit tau)."""
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
    _bounds._validate_constants(config.lf, config.mu_f, config.mu)
    # an integer numpy scalar too
    if not isinstance(config.max_iter, (int, np.integer)):
        raise ConfigError("max_iter must be an integer")
    if config.max_iter < 0:
        raise ConfigError("max_iter must be nonnegative")
    # an int: a Trace forms each row's k as a multiple of it
    if not (isinstance(config.trace_every, int) and config.trace_every >= 1):
        raise ConfigError("trace_every must be a positive integer")
    if config.criterion is not None:
        config.criterion.validate(problem)
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (problem.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise InvalidStartError("x0 has a non-finite entry")
    # +inf alone marks a point outside dom h; any other non-finite h is a fault
    h0 = problem.h.value(x0)
    if h0 == math.inf:
        raise InvalidStartError("x0 lies outside the effective domain of h")
    if not math.isfinite(h0):
        raise InvalidStartError(f"h(x0) = {h0} is neither finite nor +inf")
    return IterateState(
        k=0,
        config=config,
        a_prev=None,
        a_next=_next_coefficient(config.lam, config.mu, 1.0, 0.0),
        A=0.0,
        tau=1.0,
        x=x0,
        y=x0.copy(),
        x_tilde_prev=None,
        grad_tilde_prev=None,
        x0=x0.copy(),
    )


def _next_coefficient(lam: float, mu: float, tau: float, A: float) -> float:
    """The coefficient a of the step from a state with tau and A, or inf.

    a solves a^2 / (lam * tau) - a - A = 0; the root formula is factored so
    nothing overflows before A itself approaches the halting limit.  inf
    marks a step whose coefficient sum A + a, or whose tau = 1 + mu (A + a),
    would pass OVERFLOW_LIMIT: a mu far above 1 takes tau past the largest
    double while A is still small.
    """
    lt = lam * tau
    a = 0.5 * lt * (1.0 + math.sqrt(1.0 + 4.0 * A / lt))
    A_next = A + a
    if A_next > OVERFLOW_LIMIT or 1.0 + mu * A_next > OVERFLOW_LIMIT:
        return math.inf
    return a


def step(state: IterateState, problem: CompositeProblem) -> IterateState:
    """One accelerated step; returns the new state.

    Its coefficient a is state.a_next; an inf one raises GrowthOverflowError
    before any oracle call.  a, the extrapolated point and the gradient there
    are the new state's a_prev, x_tilde_prev and grad_tilde_prev.  The vector
    updates run in place on fresh arrays but keep the floating-point
    operations of x_tilde = (A y + a x) / A_next and
    x_next = ((a / lam)(y_next - x_tilde) + mu a y_next + tau x) / tau_next,
    operands and order included, so the iterates are the same bit for bit.

    Where config.plain_fista holds the step is plain FISTA: tau stays 1,
    and x_next = x + (a / lam)(y_next - x_tilde), three vector operations in
    place of seven.  The bits are the same: 1.0 * x and / 1.0 are exact,
    and the dropped term (0 a) y_next is a zero with y_next's sign.  Adding
    it changes t = (a / lam)(y_next - x_tilde) only where t is -0.0 and the
    zero is +0.0; but a / lam >= 1, so t is -0.0 only where y_next - x_tilde
    is, that is where y_next is -0.0, and there the zero is -0.0 too.  The
    one difference is at an infinite entry of y_next, where the dropped term
    is NaN: x_next is +-inf (or NaN) there in place of NaN, and the run ends
    "numeric_failure" either way.
    """
    config = state.config
    lf, lam, mu = config.lf, config.lam, config.mu
    a = state.a_next
    if a == math.inf:
        raise GrowthOverflowError(
            f"coefficient sum or tau would exceed {OVERFLOW_LIMIT:g} "
            "(geometric growth)"
        )
    A_next = state.A + a
    tau_next = 1.0 + mu * A_next
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
    if config.plain_fista:
        x_next += state.x
    else:
        x_next += mu * a * y_next
        x_next += state.tau * state.x
        x_next /= tau_next
    # the fields in field order: k, config, a_prev, a_next, A, tau, x, y,
    # x_tilde_prev, grad_tilde_prev, x0
    return IterateState(state.k + 1, config, a, _next_coefficient(
        lam, mu, tau_next, A_next), A_next, tau_next, x_next, y_next, x_tilde,
        g, state.x0)


def row_certificates(state: IterateState, problem: CompositeProblem,
                     fused, held: Optional[list] = None) -> list:
    """[phi(y), u, (v, eta)] of state: the certificates of its trace row.

    The one place a state's full set of certificates is formed: `run`'s
    trace rows and `harness.invariant_sweep`, once per state, call it.  u
    and the pair are None at k = 0, before the first step.  held, when
    given, is such a list with None for each certificate not yet formed, as
    a `bounds.stop_test` test leaves it: the rest are kept, not formed
    again.  fused is `problem.f.fused()`: while it is not None, phi(y) and
    the gradient u needs come from one value_and_grad call when neither is
    held; else from f.value and f.grad.  The residuals are looked up on the
    certificates module at each call.
    """
    phi_y, u, pair = held or (None, None, None)
    if not state.k:
        return [eval_phi(problem, state.y) if phi_y is None else phi_y,
                None, None]
    if phi_y is None and u is None and fused is not None:
        phi_y, grad_y = eval_phi_and_grad(problem, state.y, fused)
        u = _cert.stationarity_residual(state, problem, grad_y)
    if phi_y is None:
        phi_y = eval_phi(problem, state.y)
    if u is None:
        u = _cert.stationarity_residual(state, problem)
    if pair is None:
        pair = _cert.residual_pair(state)
    return [phi_y, u, pair]


def iterate(problem: CompositeProblem, config: SolverConfig,
            x0: Array) -> Iterator[IterateState]:
    """Yield init's state, then each step's, until the growth halts.

    init runs when the first state is taken.  The last state is the first
    whose a_next is inf, from which step would raise GrowthOverflowError;
    no such step is attempted.  Each later state costs one step call.
    """
    state = init(problem, config, x0)
    yield state
    while state.a_next < math.inf:
        state = step(state, problem)
        yield state


def run(problem: CompositeProblem, config: SolverConfig, x0: Array) -> RunResult:
    """Take states from `iterate` until the criterion fires or a cap is reached.

    Everything the run reads is bound once: the criterion's test
    (`bounds.stop_test`, which validates the criterion), phi* and
    `problem.f.fused()`.  A state keeps no record: it costs its step, the
    certificates its row and its test read, each formed at most once, and
    its row's six doubles, stored straight into the result's Trace, which
    the run hands lam, mu, trace_every and phi* to form the rest.  Every
    trace_every-th state gets a row, and so does the final one; a row's
    certificates are `row_certificates`', and rows after the first carry
    both residuals.  Every state is tested by one call of the test: a
    traced one on what its row formed, an untraced one on nothing, so the
    test forms what it reads (an untraced stationarity state forms u only
    where the test's oracle-free screen cannot rule it out).  The final row
    keeps what the final state's test formed.  One rule holds for every
    row the run builds, row 0 and the final row included: a
    phi_y that is NaN or infinite stops the run with "numeric_failure",
    whatever the criterion and the spacing, so a non-finite phi(x0) ends
    it at k = 0.  A NaN or infinite quantity the
    test reads stops the run the same way, and so does, in a run without a
    criterion, the first y with a non-finite entry.  The final state's y is
    tested in every run, so a run that ends on a y with a non-finite entry
    ends with "numeric_failure" at any spacing.
    """
    started_ns = time.perf_counter_ns()
    test = _bounds.stop_test(config.criterion, problem, config)
    fused = problem.f.fused()
    ref = problem.reference_optimum
    phi_star = None if ref is None else ref.phi_star
    every = config.trace_every
    trace = Trace(config, phi_star)
    add_row = trace._add
    max_iter = config.max_iter
    # init, at the first state, rejects a max_iter that is not an int >= 0
    for state in iterate(problem, config, x0):
        k = state.k
        if k % every == 0:
            held = row_certificates(state, problem, fused)
            add_row(state, held, started_ns)
            if not math.isfinite(held[0]):
                reason = "numeric_failure"
                break
        else:
            held = [None, None, None]
        try:
            if test(state, held):
                reason = "converged"
                break
        except NumericFailure:
            reason = "numeric_failure"
            break
        if k == max_iter:
            reason = "max_iter"
            break
    else:
        reason = "growth_overflow"
    if k % every:
        # the final row, with what the test formed
        held = row_certificates(state, problem, fused, held)
        add_row(state, held, started_ns)
    # the final row's test, and the last y's, spaced or not
    if not (math.isfinite(held[0]) and np.isfinite(state.y).all()):
        reason = "numeric_failure"
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


def _coefficients(config: SolverConfig) -> Iterator[tuple]:
    """(a, A, tau) of each step from init's A = 0 and tau = 1, by the
    scalar recursion `step` runs on config's lam and mu, operations and
    order included: a = `_next_coefficient(lam, mu, tau, A)`, then A + a
    and 1 + mu (A + a).  It ends where a is inf, at the growth halt that
    ends `iterate`."""
    lam, mu, A = config.lam, config.mu, 0.0
    a = _next_coefficient(lam, mu, 1.0, A)
    while a < math.inf:
        A += a
        tau = 1.0 + mu * A
        yield a, A, tau
        a = _next_coefficient(lam, mu, tau, A)


def coefficient_schedule(lf: float, mu_f: float, mu_h: float,
                         k_max: int) -> CoefficientSchedule:
    """k_max steps from A = 0 on SolverConfig(lf, mu_f, mu_h)'s lam and mu;
    ConfigError on a negative k_max or constants no predictor takes."""
    if k_max < 0:
        raise ConfigError(f"step count {k_max} must be nonnegative")
    config = SolverConfig(lf, mu_f, mu_h)
    _bounds._validate_constants(lf, mu_f, config.mu)
    steps = list(islice(_coefficients(config), k_max))
    a, A, tau = zip(*steps) if steps else ((), (), ())
    return CoefficientSchedule(a=np.array(a, dtype=float),
                               A=np.array((0.0, *A)), tau=np.array((1.0, *tau)),
                               overflowed=len(steps) < k_max)
