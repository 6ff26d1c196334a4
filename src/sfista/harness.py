"""Verification harness: recorded runs, invariant sweeps, and trace files.

`capture_run` keeps every state `engine.iterate` yields and its trace row,
which the invariant sweep and the test suite interrogate.  `invariant_report`
evaluates the identities and a priori bounds the method guarantees on a
recorded run, folding the lower model as far as its sampled checks reach,
and reports the worst violation of each.  `bounds_suite` measures observed
criterion-firing iterations against the closed-form predictors on a seeded
instance family, with one pass of `engine.iterate` per instance tested
against every criterion at once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate, islice, takewhile
from typing import Optional

import numpy as np

from . import bounds as _bounds
from . import certificates as _cert
from . import engine as _engine
from .errors import ConfigError
from .problems import (REAL_FORMAT, CompositeProblem, make_instance,
                       vector_norm)

Array = np.ndarray

# Rounding-noise gates.  Once tau amplifies the floating-point noise of x - y
# past the quantities being compared, identity checks measure noise rather
# than the recursion, so they are restricted to iterates below these limits.
CERT_TAU_LIMIT = 1e10
MOVEMENT_A_LIMIT = 1e12

IDENTITY_TOL = 1e-10
COEFF_LOWER_TOL = 1e-10
CERT_IDENTITY_TOL = 1e-8
ETA_FLOOR = -1e-12
MODEL_TOL_SCALE = 1e-8
RATE_SLACK_SCALE = 1e-9
INEQ_REL_SLACK = 1e-9
SAMPLE_SEED = 2718  # of the sample points the minorant checks draw


@dataclass
class RunCapture:
    """Every state of a recorded run and its trace row."""

    problem: CompositeProblem
    config: _engine.SolverConfig
    states: list
    rows: list  # engine.trace_record of each state, as run traces it
    overflowed: bool = False

    @property
    def iterations(self) -> int:
        return len(self.states) - 1

    def d0(self) -> float:
        """||x0 - x*|| by `ReferenceOptimum.distance`; ValueError without one."""
        ref = self.problem.reference_optimum
        if ref is None:
            raise ValueError("d0 needs a problem with a reference optimum")
        return ref.distance(self.states[0].x0)


def capture_run(problem: CompositeProblem, config: _engine.SolverConfig,
                x0: Array, iters: int) -> RunCapture:
    """The first `iters + 1` states of `engine.iterate` and their rows.

    Fewer states when the coefficient growth halts the run first, which
    `overflowed` marks.  Each state's row is the one `engine.run` traces at
    trace_every = 1, so `write_trace(path, capture.rows)` writes what
    `solve --trace` would.  No lower model is folded here:
    `lower_models(capture.states, problem)` folds it.  A negative `iters`
    raises ConfigError.
    """
    if iters < 0:
        raise ConfigError(f"step count {iters} must be nonnegative")
    started_ns = time.perf_counter_ns()
    states = list(islice(_engine.iterate(problem, config, x0), iters + 1))
    overflowed = len(states) <= iters
    rows = [_engine.trace_record(_cert.Certificates(state, problem), started_ns)
            for state in states]
    return RunCapture(problem=problem, config=config, states=states, rows=rows,
                      overflowed=overflowed)


def checkpoints(k_max: int) -> list:
    """Log-spaced iterate indices 1 .. k_max for sampled checks."""
    return sorted({min(k_max, k) for k in
                   (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000)
                   if k_max >= 1})


@dataclass(frozen=True)
class CheckResult:
    """The worst value of one check; `skipped` when it looked at nothing."""

    name: str
    passed: bool
    worst: float
    limit: float
    location: Optional[int] = None
    note: str = ""
    skipped: bool = False

    def line(self) -> str:
        if self.skipped:
            return f"{self.name} = skipped ({self.note})"
        status = "pass" if self.passed else "FAIL"
        where = f", k = {self.location}" if self.location is not None else ""
        note = f", {self.note}" if self.note else ""
        return (f"{self.name} = {status} (worst {self.worst:.3e}, "
                f"limit {self.limit:.3e}{where}{note})")


@dataclass
class VerificationReport:
    """Check results; `overall` holds when some check ran and none failed."""

    checks: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        ran = [c for c in self.checks if not c.skipped]
        return bool(ran) and all(c.passed for c in ran)

    def lines(self) -> list:
        status = ("skipped" if all(c.skipped for c in self.checks)
                  else "pass" if self.overall else "FAIL")
        return [c.line() for c in self.checks] + [f"overall = {status}"]


def _worst_result(name, values, limit, ks, note=""):
    """The check's result at the worst of values, taken at the iterates ks."""
    values = list(values)
    if not values:
        return CheckResult(name=name, passed=True, worst=-math.inf, limit=limit,
                           note=note or "no applicable iterates", skipped=True)
    idx = int(np.argmax(values))
    worst = float(values[idx])
    return CheckResult(name=name, passed=worst <= limit, worst=worst,
                       limit=limit, location=ks[idx], note=note)


def _gated(ks, past, K):
    """The iterates of ks before the first with past(k), and their note."""
    kept = list(takewhile(lambda k: not past(k), ks))
    return kept, f"checked {len(kept)} of {K}"


def _excess(value, bound):
    """value - bound, less the slack every a priori bound check allows."""
    return value - bound * (1.0 + INEQ_REL_SLACK) - 1e-12


def _pair_excess(row, bounds) -> float:
    """The larger excess of a row's ||v|| and eta over their (v, eta) bounds."""
    v_bound, eta_bound = bounds
    return max(_excess(row.norm_v, v_bound),
               _excess(row.eta_residual, eta_bound))


def _squared_norm(v: Array) -> float:
    return float(v @ v)


def invariant_report(capture: RunCapture,
                     sample_count: int = 200) -> VerificationReport:
    """Evaluate every identity and bound the method guarantees on a run.

    The checks form one table: name, limit, the iterates checked with a
    note, and the value at iterate k, of which the report keeps the worst.
    A check behind a rounding-noise gate keeps the iterates before the first
    one past it, and its note says `checked N of K`.  A check left with no
    iterate, or a sampled check with no samples, is `skipped` and stays out
    of `overall`.  A negative sample_count raises ConfigError.
    """
    if sample_count < 0:
        raise ConfigError(f"sample count {sample_count} must be nonnegative")
    problem, config, states = capture.problem, capture.config, capture.states
    rows = capture.rows
    K = capture.iterations
    lf, mu_f, mu, lam = config.lf, config.mu_f, config.mu, config.lam
    lf_bar = problem.f.curvature
    ref = problem.reference_optimum
    a = [st.a_prev for st in states]
    A = [st.A for st in states]
    tau = [st.tau for st in states]
    ks = range(1, K + 1)
    every = (ks, "")
    cert = _gated(ks, lambda k: tau[k] > CERT_TAU_LIMIT, K)

    # sampled model checks at the log-spaced iterates the tau gate keeps, a
    # prefix since tau grows with k; taken before the per-state lists below
    # exist, so the samples set the report's peak memory on their own; the
    # lower model is folded up to the last sampled k, and not without samples
    sample_ks = [k for k in checkpoints(K) if k <= len(cert[0])]
    at_samples = (sample_ks if sample_count else [],
                  f"{sample_count} samples at k in {sample_ks}")
    rng = np.random.Generator(np.random.PCG64(SAMPLE_SEED))
    models = _cert.lower_models(states, problem)
    sampled = {}
    for k in at_samples[0]:
        st, phi_y = states[k], rows[k].phi_y
        model = next(model for j, model in models if j == k)
        pair = _cert.residual_pair(st)
        tol = MODEL_TOL_SCALE * (1.0 + abs(phi_y))
        samples, phi_at = _cert.sample_points(st, problem, sample_count, rng)
        model_at = [model(x) for x in samples]
        sampled[k] = [value - tol for value in (
            _cert.lower_model_gap(model_at, phi_at),
            _cert.lower_model_violation(pair, st, phi_y, samples, model_at),
            _cert.check_eps_subgradient(pair, st, phi_y, samples, phi_at))]

    # ||y_k - x0||^2 and ||y_k - x_tilde_{k-1}||^2, formed once per state
    dist_sq = [math.nan] + [_squared_norm(st.y - st.x0) for st in states[1:]]
    move_sq = [math.nan] + [_squared_norm(st.y - st.x_tilde_prev)
                            for st in states[1:]]

    def sum_lower(k):
        lower = _bounds.coefficient_sum_lower(k, lf, mu_f, mu)
        return (lower - A[k]) / lower

    checks = [
        # coefficient recursion tau_{k-1} A_k / a_{k-1}^2 = lf - mu_f, as a
        # ratio of ratios: tau, A and a all reach ~1e300 under geometric
        # growth, so tau * A would overflow
        ("coefficient_identity", IDENTITY_TOL, every,
         lambda k: abs((tau[k - 1] / a[k]) * (A[k] / a[k]) - 1.0 / lam) * lam),
        # tau_k = 1 + mu A_k
        ("tau_identity", IDENTITY_TOL, every,
         lambda k: abs(tau[k] - (1.0 + mu * A[k])) / max(1.0, tau[k])),
        # A_k >= max(k^2/4, c^(2(k-1))) / (lf - mu_f)
        ("coefficient_sum_lower", COEFF_LOWER_TOL, every, sum_lower),
    ]

    if ref is not None:
        d0, phi_star = capture.d0(), ref.phi_star
        c = _bounds.growth_factor(lf, mu_f, mu)
        slack = RATE_SLACK_SCALE * (1.0 + abs(phi_star))
        # at index k: the sum over i = 1 .. k of A_i ||y_i - x_tilde_{i-1}||^2,
        # the least ||u_i||^2 (np.minimum keeps a NaN, which min would drop),
        # and the min-norm bound, which divides by the sum of A_i
        moved = list(accumulate((A[k] * move_sq[k] for k in ks), initial=0.0))
        best_sq = np.minimum.accumulate(
            [math.inf] + [rows[k].norm_u ** 2 for k in ks]).tolist()
        min_norm_rhs = [math.nan] + [8.0 * lf**2 * d0**2 / ((lf - lf_bar) * A_sum)
                                     for A_sum in accumulate(A[1:])]
        floor = (1e-9 * lf * (1.0 + d0)) ** 2

        def movement(k):
            lhs = 0.5 * (lf - lf_bar) * moved[k]
            rhs = d0**2 - A[k] * rows[k].gap
            # the A_k term amplifies the objective's evaluation noise
            noise = A[k] * 1e-13 * (1.0 + abs(phi_star))
            return lhs - rhs - slack * (1.0 + d0**2) - noise

        checks += [
            # phi(y_k) - phi* <= (lf - mu_f) d0^2 / 2 * min(4/k^2, c^(2(1-k)))
            ("function_gap_rate", 0.0, every,
             lambda k: rows[k].gap - 0.5 * (lf - mu_f) * d0**2
             * min(4.0 / k**2, c ** (2.0 * (1.0 - k))) - slack),
            # (lf - lf_bar)/2 sum A_i ||y_i - x_tilde_{i-1}||^2
            #     <= d0^2 - A_k (phi(y_k) - phi*)
            ("movement_bound", 0.0,
             _gated(ks, lambda k: A[k] > MOVEMENT_A_LIMIT, K), movement),
            # min_i ||u_i||^2 <= 8 lf^2 d0^2 / ((lf - lf_bar) sum A_i)
            ("min_norm_bound", 0.0,
             _gated(ks, lambda k: min_norm_rhs[k] < floor, K),
             lambda k: best_sq[k] - min_norm_rhs[k] * (1.0 + INEQ_REL_SLACK)),
            # ||x_k - x0|| <= (1/sqrt(tau_k) + 1) d0
            ("distance_x_bound", 0.0, every,
             lambda k: _excess(vector_norm(states[k].x - states[k].x0),
                               _bounds.distance_bound_x(tau[k], d0))),
        ]
        if mu > 0:
            checks += [
                ("distance_y_bound", 0.0, every,
                 lambda k: _excess(math.sqrt(dist_sq[k]),
                                   _bounds.distance_bound_y(A[k], mu, d0))),
                ("pair_absolute_bounds", 0.0, cert,
                 lambda k: _pair_excess(
                     rows[k], _bounds.pair_absolute_bounds(A[k], mu, d0))),
            ]

    def cert_identity(k):
        st = states[k]
        pair = _cert.residual_pair(st)
        shifted = st.A * pair.v + st.y - st.x0
        lhs = _squared_norm(shifted) / st.tau + 2.0 * st.A * pair.eta
        return abs(lhs - dist_sq[k]) / max(1.0, dist_sq[k])

    checks += [
        # ||u_k|| <= 2 lf ||y_k - x_tilde_{k-1}||
        ("residual_envelope", 0.0, every,
         lambda k: (rows[k].norm_u - 2.0 * lf * math.sqrt(move_sq[k])
                    * (1.0 + INEQ_REL_SLACK) - 1e-12 * lf)),
        # ||A v + y - x0||^2 / tau + 2 A eta = ||y - x0||^2
        ("certificate_identity", CERT_IDENTITY_TOL, cert, cert_identity),
        # eta_k >= 0 up to rounding
        ("eta_nonnegative", -ETA_FLOOR, every,
         lambda k: -rows[k].eta_residual),
        # ||v_k|| and eta_k against their ||y_k - x0|| envelopes
        ("pair_norm_bounds", 0.0, cert,
         lambda k: _pair_excess(rows[k], _bounds.pair_norm_bounds(
             A[k], tau[k], math.sqrt(dist_sq[k])))),
        ("lower_model_minorizes", 0.0, at_samples, lambda k: sampled[k][0]),
        ("model_subgradient", 0.0, at_samples, lambda k: sampled[k][1]),
        ("eps_subgradient", 0.0, at_samples, lambda k: sampled[k][2]),
    ]
    return VerificationReport([
        _worst_result(name, map(value, over), limit, over, note)
        for name, limit, (over, note), value in checks])


# ---------------------------------------------------------------------------
# Predictor validity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsRow:
    label: str
    variant: str
    predicted_k: int
    observed_k: Optional[int]
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        observed = self.observed_k if self.observed_k is not None else "none"
        return (f"{self.label} {self.variant} = {status} "
                f"(observed {observed}, predicted {self.predicted_k})")


def _suite_instances(seed_base: int):
    recipes = [
        ("elastic_net", dict(m=30, n=50, reg=0.05, ridge=1.0)),
        ("logistic_l2", dict(m=40, n=25, ridge=1.0)),
        ("box_qp", dict(m=30, n=30, diag=True)),
    ]
    for i in range(10):
        kind, kw = recipes[i % len(recipes)]
        kw = dict(kw)
        m = kw.pop("m")
        n = kw.pop("n")
        seed = seed_base + i
        yield f"{kind}[seed={seed}]", make_instance(kind, seed, m, n, **kw)


def suite_criteria(problem: CompositeProblem, d0: float):
    """Scale-aware tolerances for the five criteria on one instance."""
    phi_star = problem.reference_optimum.phi_star
    lf = _engine.SolverConfig.for_problem(problem).lf
    return [
        _bounds.Criterion.function_gap(1e-6 * (1.0 + abs(phi_star))),
        _bounds.Criterion.stationarity(1e-3 * (1.0 + lf * d0)),
        _bounds.Criterion.relative(0.1),
        _bounds.Criterion.alternate_relative(0.5),
        _bounds.Criterion.absolute(1e-2 * (1.0 + d0), 1e-2 * (1.0 + d0**2)),
    ]


def suite_rows(label: str, problem: CompositeProblem, criteria) -> list:
    """One BoundsRow per criterion, all tested on one pass of `engine.iterate`.

    Each criterion goes through `engine.stop_reason`, with no row, until it
    holds, its quantity is NaN or infinite, or k reaches its predicted
    count.  On a finite objective, as every suite instance has, observed k
    is where `engine.run` with that criterion and max_iter = predicted_k
    stops "converged", else None.  The criteria share one Certificates
    record per state, and the pass ends once none is still tested.
    """
    x0 = np.zeros(problem.dimension)
    d0 = problem.reference_optimum.distance(x0)
    config = _engine.SolverConfig.for_problem(problem)
    predicted = []
    for criterion in criteria:
        predicted.append(_bounds.predicted_iterations(
            criterion, config.lf, problem.f.curvature, config.mu_f, config.mu,
            d0=d0).predicted_k)
        criterion.validate(problem)
    observed = [None] * len(criteria)
    pending = list(range(len(criteria)))
    for state in islice(_engine.iterate(problem, config, x0), max(predicted) + 1):
        certs = _cert.Certificates(state, problem)
        for i in pending[:]:
            reason = _engine.stop_reason(criteria[i], certs, None)
            if reason == "converged":
                observed[i] = state.k
            if reason is not None or state.k == predicted[i]:
                pending.remove(i)
        if not pending:
            break
    return [BoundsRow(label=label, variant=criterion.variant, predicted_k=k_pred,
                      observed_k=k_obs,
                      passed=k_obs is not None and k_obs <= k_pred)
            for criterion, k_pred, k_obs in zip(criteria, predicted, observed)]


def bounds_suite(seed_base: int = 0) -> list:
    """Five criteria against their predictors on ten seeded instances.

    One `suite_rows` pass per instance tests all five criteria on the same
    iterates; the rows are those of five separate runs, one per criterion.
    """
    rows = []
    for label, problem in _suite_instances(seed_base):
        d0 = problem.reference_optimum.distance(np.zeros(problem.dimension))
        rows += suite_rows(label, problem, suite_criteria(problem, d0))
    return rows


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

# one column per TraceRecord field, in field order
TRACE_COLUMNS = tuple(f.name for f in fields(_engine.TraceRecord))


@lru_cache(maxsize=None)
def _line_format(mask: float) -> str:
    """The %-format of the line of a packed row with this None mask.

    A packed row is the ten fields then the mask (`engine.packed_rows`).
    An int field prints with %d, as str prints an int; a real one with
    %.17g (REAL_FORMAT), as format_real does; a None field, and the mask
    itself, with %.0s, which prints nothing.
    """
    bits = int(mask)
    return ",".join(
        "%.0s" if bits >> j & 1
        else "%d" if j in _engine.INT_FIELDS else f"%{REAL_FORMAT}"
        for j in range(len(TRACE_COLUMNS))) + "%.0s\n"


def _trace_lines(records, meta: Optional[dict]):
    """The trace text one line at a time, each ending in a newline.

    Each row's line is one % of its None mask's format on its packed row,
    whether the records are a Trace or a list of TraceRecords.
    """
    for key, value in (meta or {}).items():
        yield f"# {key} = {value}\n"
    yield ",".join(TRACE_COLUMNS) + "\n"
    for row in _engine.packed_rows(records):
        yield _line_format(row[-1]) % row


def format_trace(records, meta: Optional[dict] = None) -> str:
    """Comma-delimited trace with `# key = value` provenance lines on top.

    The same lines, byte for byte, that `write_trace` writes.  An int field
    prints as an integer, a real one as format_real prints it, and a None
    as an empty field.
    """
    return "".join(_trace_lines(records, meta))


def write_trace(path, records, meta: Optional[dict] = None) -> None:
    """Write `format_trace(records, meta)` to path, one row at a time.

    records is an `engine.Trace` or any iterable of TraceRecords.  Each
    line is printed straight from the row's packed doubles, with no
    TraceRecord rebuilt, and the file's bytes equal that text's.  Neither
    the whole text nor a list of its lines is ever built.
    """
    with open(path, "w") as out:
        out.writelines(_trace_lines(records, meta))
