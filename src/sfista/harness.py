"""Verification harness: recorded runs, invariant sweeps, and trace files.

`capture_run` keeps every state `engine.iterate` yields, which the test
suite interrogates.  `invariant_sweep` evaluates the identities and a
priori bounds the method guarantees on any stream of a run's states,
reading each state once as it passes and keeping only the latest: it forms
each state's certificates once, folds each check's value there into that
check's worst violation, and folds the lower model and takes the sampled
checks on the way, so its memory does not grow with the states.
`invariant_report` sweeps a capture's states.
`bounds_suite` measures observed criterion-firing iterations against the
closed-form predictors on a seeded instance family, with one pass of
`engine.iterate` per instance tested against every criterion at once.
`format_trace` and `write_trace` put the provenance lines and the header
over `engine.trace_lines`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Optional

import numpy as np

from . import bounds as _bounds
from . import certificates as _cert
from . import engine as _engine
from .errors import ConfigError, NumericFailure
from .problems import _NORMAL_MIN, CompositeProblem, make_instance, vector_norm

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
    """The states of a recorded run, as `engine.iterate` yields them.

    A capture forms no certificate: `invariant_report` forms each state's
    once, as it checks them.  The trace rows of these states are those of
    `engine.run(problem, dataclasses.replace(config, criterion=None,
    max_iter=capture.iterations, trace_every=1), x0).trace`.
    """

    problem: CompositeProblem
    config: _engine.SolverConfig
    states: list
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
    """The first `iters + 1` states of `engine.iterate`.

    Fewer states when the coefficient growth halts the run first, which
    `overflowed` marks.  Each state costs its step alone: no certificate,
    trace row or lower model is formed here (`lower_models(capture.states,
    problem)` folds the model).  A negative `iters` raises ConfigError.
    """
    if iters < 0:
        raise ConfigError(f"step count {iters} must be nonnegative")
    states = list(islice(_engine.iterate(problem, config, x0), iters + 1))
    return RunCapture(problem=problem, config=config, states=states,
                      overflowed=len(states) <= iters)


_CHECKPOINTS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000)


def checkpoints(k_max: int) -> list:
    """Log-spaced iterate indices 1 .. k_max for sampled checks."""
    return sorted({min(k_max, k) for k in _CHECKPOINTS if k_max >= 1})


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
    """Check results over `iterations` iterates; `overall` holds when some
    check ran and none failed."""

    checks: list = field(default_factory=list)
    iterations: int = 0

    @property
    def overall(self) -> bool:
        ran = [c for c in self.checks if not c.skipped]
        return bool(ran) and all(c.passed for c in ran)

    def lines(self) -> list:
        status = ("skipped" if all(c.skipped for c in self.checks)
                  else "pass" if self.overall else "FAIL")
        return [c.line() for c in self.checks] + [f"overall = {status}"]


class _Worst:
    """One check's fold: the worst of the values fed to it, and its k.

    The worst is the first NaN, else the first largest value, the entry
    np.argmax picks over the values in the order they came; `count` is how
    many came.
    """

    __slots__ = ("name", "limit", "worst", "at", "count")

    def __init__(self, name: str, limit: float = 0.0):
        self.name, self.limit = name, limit
        self.worst, self.at, self.count = -math.inf, None, 0

    def add(self, value: float, k: int) -> None:
        worst = self.worst
        if value > worst or not self.count or (value != value
                                                and worst == worst):
            self.worst, self.at = value, k
        self.count += 1

    def result(self, note: str = "") -> CheckResult:
        """The check's result; `skipped` when no value came."""
        if not self.count:
            return CheckResult(name=self.name, passed=True, worst=-math.inf,
                               limit=self.limit, skipped=True,
                               note=note or "no applicable iterates")
        return CheckResult(name=self.name, passed=self.worst <= self.limit,
                           worst=self.worst, limit=self.limit,
                           location=self.at, note=note)

    def gated(self, K: int) -> CheckResult:
        """The result of a check behind a rounding-noise gate, which kept
        the iterates before the first one past it."""
        return self.result(f"checked {self.count} of {K}")


def _excess(value, bound):
    """value - bound, less the slack every a priori bound check allows."""
    return value - bound * (1.0 + INEQ_REL_SLACK) - 1e-12


def _pair_excess(norm_v, eta, bounds):
    """The larger excess of ||v|| and eta over their (v, eta) bounds.

    A NaN in either excess is the excess, so the check fails on it, where
    Python's max would drop a NaN second argument.
    """
    v_excess = _excess(norm_v, bounds[0])
    eta_excess = _excess(eta, bounds[1])
    return (eta_excess if eta_excess > v_excess or eta_excess != eta_excess
            else v_excess)


def _squared_norm(v: Array) -> float:
    return float(v.dot(v))


def invariant_report(capture: RunCapture,
                     sample_count: int = 200) -> VerificationReport:
    """`invariant_sweep` over the capture's states."""
    return invariant_sweep(capture.problem, capture.config, capture.states,
                           sample_count)


def invariant_sweep(problem: CompositeProblem, config: _engine.SolverConfig,
                    states, sample_count: int = 200) -> VerificationReport:
    """Evaluate every identity and bound the method guarantees on a run.

    states is any iterable of a run's states from init's on, as
    `engine.iterate` yields them; each is read once, as it passes, and only
    the latest is kept; an empty stream, or one that starts after init's
    state, raises ConfigError.  c and lf - mu_f are bound once per sweep.
    Each state's certificates [phi(y), u, (v, eta)] are formed once
    (`engine.row_certificates`), and each check's value at the state, on
    Python floats, is folded into that check's worst and its k right away,
    so the sweep's memory does not grow with the states.
    While tau is within its gate, and only with samples, the pass folds the
    lower model and takes the sampled checks at each checkpoint.  The gap
    is phi(y) - phi* of the problem given.  A check behind a rounding-noise
    gate reads the iterates before the first one past it, its note
    `checked N of K`.  A check left with no iterate, or a sampled check
    with no samples, is `skipped` and stays out of `overall`.  A negative
    sample_count raises ConfigError.
    """
    if sample_count < 0:
        raise ConfigError(f"sample count {sample_count} must be nonnegative")
    states = iter(states)
    st = next(states, None)
    if st is None:
        raise ConfigError("no states to sweep: they start at init's, k = 0")
    if st.k != 0:
        raise ConfigError(f"the states start at k = {st.k}, not at init's")
    lf, mu_f, mu, lam = config.lf, config.mu_f, config.mu, config.lam
    lf_bar = problem.f.curvature
    ref = problem.reference_optimum
    fused = problem.f.fused()
    rng = np.random.Generator(np.random.PCG64(SAMPLE_SEED))
    sampled = [_Worst("lower_model_minorizes"), _Worst("model_subgradient"),
               _Worst("eps_subgradient")]

    def sampled_checks(k, st, model, pair, phi):
        tol = MODEL_TOL_SCALE * (1.0 + abs(phi))
        samples, phi_at = _cert.sample_points(st, problem, sample_count, rng)
        model_at = [model(x) for x in samples]
        for check, value in zip(sampled, (
                _cert.lower_model_gap(model_at, phi_at),
                _cert.lower_model_violation(pair, st, phi, samples, model_at),
                _cert.check_eps_subgradient(pair, st, phi, samples, phi_at))):
            check.add(value - tol, k)

    # one fold per check, in report order
    coefficient_identity = _Worst("coefficient_identity", IDENTITY_TOL)
    tau_identity = _Worst("tau_identity", IDENTITY_TOL)
    coefficient_sum_lower = _Worst("coefficient_sum_lower", COEFF_LOWER_TOL)
    function_gap_rate = _Worst("function_gap_rate")
    movement_bound = _Worst("movement_bound")
    min_norm_bound = _Worst("min_norm_bound")
    distance_x_bound = _Worst("distance_x_bound")
    distance_y_bound = _Worst("distance_y_bound")
    pair_absolute_bounds = _Worst("pair_absolute_bounds")
    residual_envelope = _Worst("residual_envelope")
    certificate_identity = _Worst("certificate_identity", CERT_IDENTITY_TOL)
    eta_nonnegative = _Worst("eta_nonnegative", -ETA_FLOOR)
    pair_norm_bounds = _Worst("pair_norm_bounds")

    # per-sweep constants, each with the operands and order of the check's
    # whole expression
    inv_lam, two_lf, lf_noise = 1.0 / lam, 2.0 * lf, 1e-12 * lf
    rel_slack = 1.0 + INEQ_REL_SLACK
    c, lf_gap = _bounds.growth_factor(lf, mu_f, mu), lf - mu_f
    x0, tau_prev = st.x0, st.tau
    if ref is not None:
        d0, phi_star = ref.distance(x0), ref.phi_star
        slack = RATE_SLACK_SCALE * (1.0 + abs(phi_star))
        d0_sq, phi_noise = d0**2, 1.0 + abs(phi_star)
        gap_scale = 0.5 * lf_gap * d0_sq
        half_curv_gap, move_slack = 0.5 * (lf - lf_bar), slack * (1.0 + d0_sq)
        # the divisor (lf - lf_bar) sum A_i is about 2^-53 at least, never
        # 0.0: init keeps lf > lf_bar, so lf - lf_bar is 2^-53 lf or more (or
        # the least subnormal, where 1 / lf passes 2^1022), and
        # sum A_i >= A_1 = lam = 1 / (lf - mu_f) >= 1 / lf
        norm_top, curv_gap = _bounds.scaled_square(8.0, lf, d0), lf - lf_bar
        floor = _bounds.square(1e-9 * lf * (1.0 + d0))
    # the rounding-noise gates, each shut for good at the first iterate
    # past it
    cert_open = move_open = norm_open = True
    moved = a_sum = -0.0  # -0.0 + x is x, to the sign of a zero
    least_sq = math.inf  # min_i ||u_i||^2, keeping a NaN as np.minimum does
    model = None
    for st in states:
        k, a, A, tau = st.k, st.a_prev, st.A, st.tau
        phi, u, pair = _engine.row_certificates(st, problem, fused)
        norm_u, eta = u.norm, pair.eta
        to_y = st.y - x0
        dist_sq = _squared_norm(to_y)
        move_sq = _squared_norm(st.y - st.x_tilde_prev)
        # a square below the smallest normal double has lost its digits
        # (iterates near 1e-300 at a huge modulus): vector_norm rescales
        dist_y = vector_norm(to_y) if dist_sq < _NORMAL_MIN else math.sqrt(
            dist_sq)
        # coefficient recursion tau_{k-1} A_k / a_{k-1}^2 = lf - mu_f, as a
        # ratio of ratios: tau, A and a all reach ~1e300 under geometric
        # growth, so tau * A would overflow
        coefficient_identity.add(
            abs((tau_prev / a) * (A / a) - inv_lam) * lam, k)
        tau_prev = tau
        # tau_k = 1 + mu A_k
        tau_identity.add(abs(tau - (1.0 + mu * A)) / max(1.0, tau), k)
        # A_k >= max(k^2/4, c^(2(k-1))) / (lf - mu_f)
        lower = _bounds._sum_lower(k, c, lf_gap)
        coefficient_sum_lower.add((lower - A) / lower, k)
        cert_open = cert_open and not tau > CERT_TAU_LIMIT
        if cert_open:
            norm_v = pair.norm
        if ref is not None:
            gap = phi - phi_star
            # phi(y_k) - phi* <= (lf - mu_f) d0^2 / 2 * min(4/k^2, c^(2(1-k)))
            function_gap_rate.add(gap - gap_scale * min(
                4.0 / k**2, c ** (2.0 * (1.0 - k))) - slack, k)
            # (lf - lf_bar)/2 sum A_i ||y_i - x_tilde_{i-1}||^2
            #     <= d0^2 - A_k (phi(y_k) - phi*),
            # less the A_k term's share of the objective's evaluation noise
            move_open = move_open and not A > MOVEMENT_A_LIMIT
            if move_open:
                moved += A * move_sq
                movement_bound.add(half_curv_gap * moved - (d0_sq - A * gap)
                                   - move_slack - A * 1e-13 * phi_noise, k)
            # min_i ||u_i||^2 <= 8 lf^2 d0^2 / ((lf - lf_bar) sum A_i)
            if norm_open:
                a_sum += A
                rhs = norm_top / (curv_gap * a_sum)
                norm_open = not rhs < floor
            if norm_open:
                sq = _bounds.square(norm_u)
                if sq < least_sq or sq != sq:
                    least_sq = sq
                min_norm_bound.add(least_sq - rhs * rel_slack, k)
            # ||x_k - x0|| <= (1/sqrt(tau_k) + 1) d0
            distance_x_bound.add(_excess(vector_norm(st.x - x0),
                                         _bounds.distance_bound_x(tau, d0)), k)
            if mu > 0:
                distance_y_bound.add(_excess(
                    dist_y, _bounds.distance_bound_y(A, mu, d0)), k)
                if cert_open:
                    pair_absolute_bounds.add(_pair_excess(
                        norm_v, eta, _bounds.pair_absolute_bounds(A, mu, d0)),
                        k)
        # ||u_k|| <= 2 lf ||y_k - x_tilde_{k-1}||
        residual_envelope.add(norm_u - two_lf * math.sqrt(move_sq) * rel_slack
                              - lf_noise, k)
        # eta_k >= 0 up to rounding
        eta_nonnegative.add(-eta, k)
        if cert_open:
            # ||A v + y - x0||^2 / tau + 2 A eta = ||y - x0||^2
            shifted = A * pair.v + st.y - x0
            lhs = _squared_norm(shifted) / tau + 2.0 * A * eta
            certificate_identity.add(abs(lhs - dist_sq) / max(1.0, dist_sq),
                                     k)
            # ||v_k|| and eta_k against their ||y_k - x0|| envelopes
            pair_norm_bounds.add(_pair_excess(
                norm_v, eta, _bounds.pair_norm_bounds(A, tau, dist_y)), k)
            if sample_count and k <= _CHECKPOINTS[-1]:
                model = _cert.lower_model_update(model, st, problem)
                if k in _CHECKPOINTS:
                    sampled_checks(k, st, model, pair, phi)
    K = st.k
    # the sampled checks' log-spaced iterates the tau gate keeps; the last,
    # K, is known only now, when the latest state, model and pair are its
    sample_ks = [k for k in checkpoints(K) if k <= certificate_identity.count]
    if sample_count and sample_ks[-1:] == [K] and K not in _CHECKPOINTS:
        sampled_checks(K, st, model, pair, phi)
    checks = [coefficient_identity.result(), tau_identity.result(),
              coefficient_sum_lower.result()]
    if ref is not None:
        checks += [function_gap_rate.result(), movement_bound.gated(K),
                   min_norm_bound.gated(K), distance_x_bound.result()]
        if mu > 0:
            checks += [distance_y_bound.result(), pair_absolute_bounds.gated(K)]
    checks += [residual_envelope.result(), certificate_identity.gated(K),
               eta_nonnegative.result(), pair_norm_bounds.gated(K)]
    sample_note = f"{sample_count} samples at k in {sample_ks}"
    return VerificationReport(
        checks + [check.result(sample_note) for check in sampled], K)


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
        seed = seed_base + i
        yield f"{kind}[seed={seed}]", make_instance(kind, seed, **kw)


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

    Each criterion's test is built once (`bounds.stop_test`, which
    validates it) and called on each state, test(state, held), until it
    holds, its quantity is NaN or infinite, or k reaches its predicted
    count.  On a finite objective, as every suite instance has, observed k
    is where `engine.run` with that criterion and max_iter = predicted_k
    stops "converged", else None.  The criteria still tested at a state
    share its certificates, each formed by the first test that reads it,
    and the pass ends once none is still tested.
    """
    x0 = np.zeros(problem.dimension)
    d0 = problem.reference_optimum.distance(x0)
    config = _engine.SolverConfig.for_problem(problem)
    predicted, tests = [], []
    for criterion in criteria:
        predicted.append(_bounds.predicted_iterations(
            criterion, config.lf, problem.f.curvature, config.mu_f, config.mu,
            d0=d0).predicted_k)
        tests.append(_bounds.stop_test(criterion, problem, config))
    observed = [None] * len(criteria)
    pending = list(range(len(criteria)))
    for state in islice(_engine.iterate(problem, config, x0), max(predicted) + 1):
        held = [None, None, None]
        for i in pending[:]:
            try:
                stopped = tests[i](state, held)
                if stopped:
                    observed[i] = state.k
            except NumericFailure:
                stopped = True
            if stopped or state.k == predicted[i]:
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


def _trace_lines(records, meta: Optional[dict]):
    """The `# key = value` lines, the header, then `engine.trace_lines`."""
    for key, value in (meta or {}).items():
        yield f"# {key} = {value}\n"
    yield ",".join(TRACE_COLUMNS) + "\n"
    yield from _engine.trace_lines(records)


def format_trace(records, meta: Optional[dict] = None) -> str:
    """Comma-delimited trace with `# key = value` provenance lines on top.

    The same lines, byte for byte, that `write_trace` writes.
    """
    return "".join(_trace_lines(records, meta))


def write_trace(path, records, meta: Optional[dict] = None) -> None:
    """Write `format_trace(records, meta)` to path, one row at a time.

    records is an `engine.Trace` or any iterable of TraceRecords, whose
    lines `engine.trace_lines` prints one row at a time; the file's bytes
    equal that text's.  Neither the whole text nor a list of its lines is
    ever built.
    """
    with open(path, "w") as out:
        out.writelines(_trace_lines(records, meta))
