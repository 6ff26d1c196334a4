"""Verification harness: recorded runs, invariant sweeps, and trace files.

`capture_run` keeps every state `engine.iterate` yields, which the
invariant sweep and the test suite interrogate.  `invariant_report`
evaluates the identities and a priori bounds the method guarantees on a
recorded run: one pass over its states forms each state's certificates
once, and each check runs over all its iterates in one array pass, folding
the lower model as far as its sampled checks reach; it reports the worst
violation of each.  `bounds_suite` measures observed criterion-firing
iterations against the closed-form predictors on a seeded instance family,
with one pass of `engine.iterate` per instance tested against every
criterion at once.  `format_trace` and `write_trace` put the provenance
lines and the header over `engine.trace_lines`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import accumulate, islice
from typing import Optional

import numpy as np

from . import bounds as _bounds
from . import certificates as _cert
from . import engine as _engine
from .errors import ConfigError, NumericFailure
from .problems import CompositeProblem, make_instance, vector_norm

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
    """The check's result at the worst of values, taken at the iterates ks.

    The worst is the first largest value, or the first NaN, where np.argmax
    finds it.
    """
    if not len(values):
        return CheckResult(name=name, passed=True, worst=-math.inf, limit=limit,
                           note=note or "no applicable iterates", skipped=True)
    idx = int(np.argmax(values))
    worst = float(values[idx])
    return CheckResult(name=name, passed=worst <= limit, worst=worst,
                       limit=limit, location=ks[idx], note=note)


def _kept(past: Array) -> int:
    """How many iterates a gate keeps: those before the first past it."""
    hits = np.flatnonzero(past)
    return int(hits[0]) if hits.size else len(past)


def _gated(name, values, limit, kept, K):
    """The result over the first `kept` of the K iterates, and its note."""
    return _worst_result(name, values[:kept], limit, range(1, kept + 1),
                         f"checked {kept} of {K}")


def _excess(value, bound):
    """value - bound, less the slack every a priori bound check allows."""
    return value - bound * (1.0 + INEQ_REL_SLACK) - 1e-12


# a (v, eta) bound pair, one row of a two-column array
_PAIR = np.dtype((float, 2))


def _pair_excess(norm_v, eta, bounds) -> Array:
    """The larger excess of ||v|| and eta over their (v, eta) bounds.

    A NaN in either excess is the entry's excess, so the check fails on it.
    """
    v_excess = _excess(norm_v, bounds[:, 0])
    eta_excess = _excess(eta, bounds[:, 1])
    # max(v_excess, eta_excess) entry by entry, as Python's max takes it,
    # save that a NaN eta_excess wins too (a NaN v_excess already does)
    return np.where((eta_excess > v_excess) | np.isnan(eta_excess),
                    eta_excess, v_excess)


def _squared_norm(v: Array) -> float:
    return float(v.dot(v))


# a state's phi(y), ||u||, ||v||, eta and certificate-identity left side
_STATE_CERTS = np.dtype((float, 5))


def _state_certificates(states, problem: CompositeProblem, n_cert: int):
    """The scalars of each state's certificates, a state at a time.

    Each state's [phi(y), u, (v, eta)] is formed once, by
    `engine.row_certificates`, as `engine.run` forms a trace row's, and
    only its scalars are kept: phi(y), ||u||, ||v||, eta, and, for the
    first n_cert states, ||A v + y - x0||^2 / tau + 2 A eta (NaN past them).
    """
    fused = problem.f.fused()
    for k, st in enumerate(states, 1):
        phi_y, u, pair = _engine.row_certificates(st, problem, fused)
        lhs = math.nan
        if k <= n_cert:
            shifted = st.A * pair.v + st.y - st.x0
            lhs = _squared_norm(shifted) / st.tau + 2.0 * st.A * pair.eta
        yield phi_y, u.norm, pair.norm, pair.eta, lhs


def invariant_report(capture: RunCapture,
                     sample_count: int = 200) -> VerificationReport:
    """Evaluate every identity and bound the method guarantees on a run.

    Each check keeps the worst of its values over the iterates it looks at.
    One pass over the states forms each state's certificates [phi(y), u,
    (v, eta)] once (`_state_certificates`), and the checks read their
    scalars as columns; every check is one array expression over all its
    iterates; the bounds module's scalar bounds and the vector norms are
    taken per iterate.  The gap is phi(y) - phi* of the capture's problem,
    so a reference optimum attached after the capture serves.  A check
    behind a rounding-noise gate keeps the iterates before the first one
    past it, and its note says `checked N of K`.  A check left with no
    iterate, or a sampled check with no samples, is `skipped` and stays
    out of `overall`.  A negative sample_count raises ConfigError.
    """
    if sample_count < 0:
        raise ConfigError(f"sample count {sample_count} must be nonnegative")
    problem, config, states = capture.problem, capture.config, capture.states
    K = capture.iterations
    lf, mu_f, mu, lam = config.lf, config.mu_f, config.mu, config.lam
    lf_bar = problem.f.curvature
    ref = problem.reference_optimum
    # one entry per iterate k = 1 .. K, at index k - 1; tau_prev is tau_{k-1}
    a = np.fromiter((st.a_prev for st in states[1:]), float, K)
    A = np.fromiter((st.A for st in states[1:]), float, K)
    tau_all = np.fromiter((st.tau for st in states), float, K + 1)
    tau, tau_prev = tau_all[1:], tau_all[:-1]
    ks = range(1, K + 1)
    n_cert = _kept(tau > CERT_TAU_LIMIT)
    phi_y, norm_u, norm_v, eta, cert_lhs = np.fromiter(
        _state_certificates(states[1:], problem, n_cert), _STATE_CERTS, K).T

    # sampled model checks at the log-spaced iterates the tau gate keeps, a
    # prefix since tau grows with k; taken before the other per-state arrays
    # below exist, so the samples set the report's peak memory on their
    # own; the lower model is folded up to the last sampled k, and not
    # without samples
    sample_ks = [k for k in checkpoints(K) if k <= n_cert]
    sampled_at = sample_ks if sample_count else []
    sample_note = f"{sample_count} samples at k in {sample_ks}"
    rng = np.random.Generator(np.random.PCG64(SAMPLE_SEED))
    models = _cert.lower_models(states, problem)
    sampled = []
    for k in sampled_at:
        st, phi = states[k], float(phi_y[k - 1])
        model = next(model for j, model in models if j == k)
        pair = _cert.residual_pair(st)
        tol = MODEL_TOL_SCALE * (1.0 + abs(phi))
        samples, phi_at = _cert.sample_points(st, problem, sample_count, rng)
        model_at = [model(x) for x in samples]
        sampled.append([value - tol for value in (
            _cert.lower_model_gap(model_at, phi_at),
            _cert.lower_model_violation(pair, st, phi, samples, model_at),
            _cert.check_eps_subgradient(pair, st, phi, samples, phi_at))])
    minorizes, model_subgradient, eps_subgradient = (
        np.array(sampled).reshape(-1, 3).T)

    # ||y_k - x0||^2 and ||y_k - x_tilde_{k-1}||^2, formed once per state
    dist_sq = np.fromiter((_squared_norm(st.y - st.x0) for st in states[1:]),
                          float, K)
    move_sq = np.fromiter((_squared_norm(st.y - st.x_tilde_prev)
                           for st in states[1:]), float, K)
    dist_y = np.sqrt(dist_sq)
    # the bounds module's bounds, and every power of a float, are taken per
    # iterate with Python's **: numpy squares an array by x * x, which is
    # not always pow(x, 2) to the last bit
    lower = np.fromiter((_bounds.coefficient_sum_lower(k, lf, mu_f, mu)
                         for k in ks), float, K)
    pair_norm = np.fromiter(
        (_bounds.pair_norm_bounds(st.A, st.tau, dist)
         for st, dist in zip(states[1:n_cert + 1], map(float, dist_y))),
        _PAIR, n_cert)

    # as with Python floats, an overflow or an invalid operation gives an
    # inf or a NaN, which the check then reports as its worst
    with np.errstate(over="ignore", invalid="ignore"):
        checks = [
            # coefficient recursion tau_{k-1} A_k / a_{k-1}^2 = lf - mu_f, as
            # a ratio of ratios: tau, A and a all reach ~1e300 under geometric
            # growth, so tau * A would overflow
            _worst_result("coefficient_identity",
                          np.abs((tau_prev / a) * (A / a) - 1.0 / lam) * lam,
                          IDENTITY_TOL, ks),
            # tau_k = 1 + mu A_k
            _worst_result("tau_identity",
                          np.abs(tau - (1.0 + mu * A)) / np.fmax(1.0, tau),
                          IDENTITY_TOL, ks),
            # A_k >= max(k^2/4, c^(2(k-1))) / (lf - mu_f)
            _worst_result("coefficient_sum_lower", (lower - A) / lower,
                          COEFF_LOWER_TOL, ks),
        ]

        if ref is not None:
            d0, phi_star = capture.d0(), ref.phi_star
            gap = phi_y - phi_star
            c = _bounds.growth_factor(lf, mu_f, mu)
            slack = RATE_SLACK_SCALE * (1.0 + abs(phi_star))
            rate = np.fromiter((min(4.0 / k**2, c ** (2.0 * (1.0 - k)))
                                for k in ks), float, K)
            # at index k - 1: the sum over i = 1 .. k of
            # A_i ||y_i - x_tilde_{i-1}||^2, summed in order, the least
            # ||u_i||^2 (np.minimum keeps a NaN, which min would drop), and
            # the min-norm bound, which divides by the sum of A_i
            moved = np.fromiter(accumulate(map(float, A * move_sq)), float, K)
            best_sq = np.minimum.accumulate(
                np.fromiter((u ** 2 for u in map(float, norm_u)), float, K))
            min_norm_rhs = 8.0 * lf**2 * d0**2 / ((lf - lf_bar) * np.fromiter(
                accumulate(st.A for st in states[1:]), float, K))
            floor = (1e-9 * lf * (1.0 + d0)) ** 2
            dist_x = np.fromiter((vector_norm(st.x - st.x0)
                                  for st in states[1:]), float, K)
            checks += [
                # phi(y_k) - phi* <= (lf - mu_f) d0^2 / 2 * min(4/k^2, c^(2(1-k)))
                _worst_result("function_gap_rate",
                              gap - 0.5 * (lf - mu_f) * d0**2 * rate - slack,
                              0.0, ks),
                # (lf - lf_bar)/2 sum A_i ||y_i - x_tilde_{i-1}||^2
                #     <= d0^2 - A_k (phi(y_k) - phi*),
                # less the A_k term's share of the objective's evaluation noise
                _gated("movement_bound",
                       0.5 * (lf - lf_bar) * moved - (d0**2 - A * gap)
                       - slack * (1.0 + d0**2)
                       - A * 1e-13 * (1.0 + abs(phi_star)),
                       0.0, _kept(A > MOVEMENT_A_LIMIT), K),
                # min_i ||u_i||^2 <= 8 lf^2 d0^2 / ((lf - lf_bar) sum A_i)
                _gated("min_norm_bound",
                       best_sq - min_norm_rhs * (1.0 + INEQ_REL_SLACK),
                       0.0, _kept(min_norm_rhs < floor), K),
                # ||x_k - x0|| <= (1/sqrt(tau_k) + 1) d0
                _worst_result("distance_x_bound", _excess(dist_x, np.fromiter(
                    (_bounds.distance_bound_x(st.tau, d0)
                     for st in states[1:]), float, K)), 0.0, ks),
            ]
            if mu > 0:
                checks += [
                    _worst_result("distance_y_bound", _excess(
                        dist_y, np.fromiter(
                            (_bounds.distance_bound_y(st.A, mu, d0)
                             for st in states[1:]), float, K)), 0.0, ks),
                    _gated("pair_absolute_bounds", _pair_excess(
                        norm_v[:n_cert], eta[:n_cert], np.fromiter(
                            (_bounds.pair_absolute_bounds(st.A, mu, d0)
                             for st in states[1:n_cert + 1]), _PAIR, n_cert)),
                        0.0, n_cert, K),
                ]

        checks += [
            # ||u_k|| <= 2 lf ||y_k - x_tilde_{k-1}||
            _worst_result("residual_envelope",
                          norm_u - 2.0 * lf * np.sqrt(move_sq)
                          * (1.0 + INEQ_REL_SLACK) - 1e-12 * lf, 0.0, ks),
            # ||A v + y - x0||^2 / tau + 2 A eta = ||y - x0||^2
            _gated("certificate_identity",
                   np.abs(cert_lhs[:n_cert] - dist_sq[:n_cert])
                   / np.fmax(1.0, dist_sq[:n_cert]),
                   CERT_IDENTITY_TOL, n_cert, K),
            # eta_k >= 0 up to rounding
            _worst_result("eta_nonnegative", -eta, -ETA_FLOOR, ks),
            # ||v_k|| and eta_k against their ||y_k - x0|| envelopes
            _gated("pair_norm_bounds", _pair_excess(
                norm_v[:n_cert], eta[:n_cert], pair_norm), 0.0, n_cert, K),
            _worst_result("lower_model_minorizes", minorizes, 0.0,
                          sampled_at, sample_note),
            _worst_result("model_subgradient", model_subgradient, 0.0,
                          sampled_at, sample_note),
            _worst_result("eps_subgradient", eps_subgradient, 0.0,
                          sampled_at, sample_note),
        ]
    return VerificationReport(checks)


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
    validates it) and applied to each state (`StopTest.apply`) until it
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
                stopped = tests[i].apply(state, problem, held)
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
