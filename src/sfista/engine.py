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
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import islice
from operator import attrgetter
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


# a record's fields in field order, and the positions of its int fields
_row_values = attrgetter(*(f.name for f in fields(TraceRecord)))
_INT_FIELDS = tuple(j for j, f in enumerate(fields(TraceRecord))
                   if f.type in (int, "int"))
# doubles a packed row takes: the fields, with a None as 0.0
_ROW = len(fields(TraceRecord))
_PACKED_ROW = struct.Struct(f"{_ROW}d")


def _none_mask(values: Sequence) -> int:
    """The bit mask of the fields, given in field order, that are None."""
    if None not in values:
        return 0
    return sum(1 << j for j, v in enumerate(values) if v is None)


def _unpack(values: list, mask: int) -> TraceRecord:
    """The TraceRecord of one packed row, given as a list of its doubles."""
    for j in _INT_FIELDS:
        values[j] = int(values[j])
    if mask:
        for j in range(_ROW):
            if mask >> j & 1:
                values[j] = None
    return TraceRecord(*values)


@lru_cache(maxsize=None)
def _line_format(mask: int) -> str:
    """The %-format of the trace line of a row with this None mask.

    An int field prints with %d, as str prints an int; a real one with
    %.17g, as format_real does; a None field with %.0s, which prints
    nothing, whether it is given as None or as a packed 0.0.
    """
    return ",".join(
        "%.0s" if mask >> j & 1
        else "%d" if j in _INT_FIELDS else f"%{REAL_FORMAT}"
        for j in range(_ROW)) + "\n"


class Trace(Sequence):
    """Trace rows packed as doubles in one array, 80 B a row.

    A row is the ten TraceRecord fields in field order, a None stored as
    0.0.  Which fields are None is kept once per run of consecutive rows
    that share it, as the run's first row index and bit mask, 10 B a run;
    `run`'s trace has at most two runs, its k = 0 row and the rest.  k and
    elapsed_ns are exact while below 2**53.
    Reading a row, by index or by iterating, bisects the run starts for its
    mask and rebuilds its TraceRecord field for field; a slice is a list of
    them.  A Trace equals a Trace or a list that holds the same records.
    `trace_lines` prints each run's rows straight from their packed doubles.
    """

    __slots__ = ("_data", "_run_starts", "_run_masks")

    def __init__(self, records=()):
        self._data = array("d")
        self._run_starts = array("q")
        self._run_masks = array("H")
        for record in records:
            self.append(record)

    def append(self, record: TraceRecord) -> None:
        self._add(list(_row_values(record)))

    def _add(self, values: list) -> None:
        """Append one row given as a list of its ten values in field order;
        a row with no None is packed as given."""
        mask = _none_mask(values)
        # fromlist adds the whole row or, on a bad field, nothing
        self._data.fromlist([0.0 if v is None else v for v in values] if mask
                            else values)
        if not self._run_masks or self._run_masks[-1] != mask:
            self._run_starts.append(len(self) - 1)
            self._run_masks.append(mask)

    def __len__(self) -> int:
        return len(self._data) // _ROW

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return [self[i] for i in rows]
        start = rows * _ROW
        mask = self._run_masks[bisect_right(self._run_starts, rows) - 1]
        return _unpack(self._data[start:start + _ROW].tolist(), mask)

    def __eq__(self, other):
        if isinstance(other, (Trace, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


def trace_lines(records) -> Iterator[str]:
    """Each record's trace line, one at a time, ending in a newline.

    The fields comma-delimited in field order: an int as an integer, a real
    as format_real prints it, a None as nothing.  A Trace picks the line
    format once per run of rows sharing a None mask and prints that run's
    rows straight from their packed doubles, with no TraceRecord rebuilt;
    any other iterable prints from each record's own fields, a record at a
    time, with no Trace built for it.
    """
    if not isinstance(records, Trace):
        for record in records:
            values = _row_values(record)
            yield _line_format(_none_mask(values)) % values
        return
    rows = _PACKED_ROW.iter_unpack(records._data)
    ends = [*records._run_starts[1:], len(records)]
    for start, end, mask in zip(records._run_starts, ends, records._run_masks):
        line = _line_format(mask)
        for row in islice(rows, end - start):
            yield line % row


@dataclass
class RunResult:
    """Final state, stop reason and trace rows of one `run`.

    state.k is the iteration count.  trace is a Trace: a sequence of
    TraceRecords kept packed as doubles and rebuilt on access.
    """

    state: IterateState
    reason: str  # "converged" | "max_iter" | "growth_overflow" | "numeric_failure"
    trace: Trace = field(default_factory=Trace)


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
    `StopTest.apply` leaves it: the rest are kept, not formed again.  fused
    is `problem.f.fused()`: while it is not None, phi(y) and the gradient u
    needs come from one value_and_grad call when neither is held; else from
    f.value and f.grad.  The residuals are looked up on the certificates
    module at each call.
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


def _row(state: IterateState, certs: list, phi_star: Optional[float],
         started_ns: int) -> list:
    """The ten values of a state's trace row, in field order.

    certs is the state's `row_certificates`.  The row's a is state.a_next,
    the coefficient the NEXT step takes (inf at a growth halt), so a single
    row checks tau * (A + a) / a^2 = 1 / lam on its own.  gap is
    phi_y - phi_star, None without a reference optimum; norm_u, norm_v and
    eta_residual are None before the first step.  elapsed_ns counts from
    started_ns.
    """
    phi_y, u, pair = certs
    gap = None if phi_star is None else phi_y - phi_star
    norm_u = norm_v = eta = None
    if u is not None:
        norm_u, norm_v, eta = u.norm, pair.norm, pair.eta
    return [state.k, state.a_next, state.A, state.tau, phi_y, gap, norm_u,
            norm_v, eta, time.perf_counter_ns() - started_ns]


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
    its row's ten doubles, packed straight into the result's Trace.  Every
    trace_every-th state gets a row, and so does the final one; a row's
    certificates are `row_certificates`', and rows after the first carry
    both residuals.  Each state from the test's first_k on (k = 1, or k = 0
    for function_gap) is tested by `StopTest.apply`: a traced one on what
    its row formed, an untraced stationarity state only where the
    oracle-free screen cannot rule it out, so u is formed only there.  The
    final row keeps what the final state's test formed.  One rule holds
    for every row the run builds, row 0 and the final row included: a
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
    apply, first_k, screen = test.apply, test.first_k, test.screen
    fused = problem.f.fused()
    ref = problem.reference_optimum
    phi_star = None if ref is None else ref.phi_star
    every = config.trace_every
    trace = Trace()
    add_row = trace._add
    # max(., 0) so that init runs, and rejects, a negative max_iter
    for state in islice(iterate(problem, config, x0),
                        max(config.max_iter, 0) + 1):
        k = state.k
        if k % every == 0:
            held = row_certificates(state, problem, fused)
            add_row(_row(state, held, phi_star, started_ns))
            if not math.isfinite(held[0]):
                reason = "numeric_failure"
                break
        # an untraced state meets first_k and the screen, which apply also
        # tests, ahead of the call, so a state they rule out costs no call
        elif k < first_k or screen is not None and screen(test, state):
            held = None
            continue
        else:
            held = [None, None, None]
        try:
            if apply(state, problem, held):
                reason = "converged"
                break
        except NumericFailure:
            reason = "numeric_failure"
            break
    else:
        reason = "max_iter" if state.k == config.max_iter else "growth_overflow"
    if k % every:
        # the final row, with what the test formed
        held = row_certificates(state, problem, fused, held)
        add_row(_row(state, held, phi_star, started_ns))
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


def coefficient_schedule(lf: float, mu_f: float, mu_h: float,
                         k_max: int) -> CoefficientSchedule:
    """k_max steps from A = 0 on SolverConfig(lf, mu_f, mu_h)'s lam and mu;
    ConfigError on a negative k_max or constants no predictor takes."""
    if k_max < 0:
        raise ConfigError(f"step count {k_max} must be nonnegative")
    config = SolverConfig(lf, mu_f, mu_h)
    lam, mu = config.lam, config.mu
    _bounds._validate_constants(lf, mu_f, mu)
    a_list: list[float] = []
    A_list = [0.0]
    tau_list = [1.0]
    for _ in range(k_max):
        a = _next_coefficient(lam, mu, tau_list[-1], A_list[-1])
        if a == math.inf:
            break
        a_list.append(a)
        A_list.append(A_list[-1] + a)
        tau_list.append(1.0 + mu * A_list[-1])
    return CoefficientSchedule(a=np.array(a_list), A=np.array(A_list),
                               tau=np.array(tau_list),
                               overflowed=len(a_list) < k_max)
