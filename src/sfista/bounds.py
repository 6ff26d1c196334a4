"""Stopping criteria and closed-form iteration predictors.

Every criterion is a cheap test on the current iterate and its
certificates: `stop_test` validates the criterion and binds its constants
once per run, `StopTest.apply` tests one state, forming the one certificate
the test reads unless the caller holds it, and `check` builds and applies a
test on a single state.  `predicted_iterations` holds the
matching worst-case predictor of each of the five variants: an explicit
iteration count by which the criterion is guaranteed to fire, derived from
the lower bound on the coefficient sum

    A_k >= max(k^2 / 4, c^(2 (k - 1))) / (lf - mu_f),
    c = 1 + sqrt(mu / (lf - mu_f)) / 2.

The predictors of the variants in D0_VARIANTS also need an upper bound d0
on ||x0 - x*||.  Predictors never run the solver; they evaluate closed forms
and round up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import certificates as _cert
from .errors import CertificateUndefinedError, ConfigError, NumericFailure
from .problems import CompositeProblem, eval_phi, vector_norm

if TYPE_CHECKING:  # pragma: no cover
    from .engine import IterateState, SolverConfig

# variant -> names of its tolerances, in the order its factory takes them
TOLERANCES = {"function_gap": ("eps_bar",), "stationarity": ("rho",),
              "relative": ("sigma_tilde",), "alternate_relative": ("sigma",),
              "absolute": ("eps", "eta_tol")}
VARIANTS = tuple(TOLERANCES)
# the variants whose predictor needs d0 >= ||x0 - x*||
D0_VARIANTS = ("function_gap", "stationarity", "absolute")

# Slop subtracted before ceil so closed forms that land exactly on an integer
# are not bumped up by the last bit of rounding.
_CEIL_SLOP = 1e-9

# Relative margin by which the oracle-free lower bound on ||u|| must exceed
# rho before a stationarity test skips forming u; it covers the rounding of
# both the bound and the computed norm.
_SCREEN_SLACK = 1e-9


@dataclass(frozen=True)
class Criterion:
    """Stopping rule selector with its tolerance(s).

    tol carries the first of the variant's tolerances in TOLERANCES, and
    eta_tol the second, which only the absolute variant has.
    """

    variant: str
    tol: float
    eta_tol: Optional[float] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown criterion variant {self.variant!r}")
        if not self.tol > 0:
            raise ConfigError("criterion tolerance must be positive")
        if math.isinf(self.tol):
            raise ConfigError(f"criterion tolerance = {self.tol:g} must be finite")
        if self.variant == "absolute":
            if self.eta_tol is None or not self.eta_tol > 0:
                raise ConfigError("absolute criterion needs a positive eta_tol")
            if math.isinf(self.eta_tol):
                raise ConfigError(f"eta_tol = {self.eta_tol:g} must be finite")
        elif self.eta_tol is not None:
            raise ConfigError(f"eta_tol does not apply to {self.variant!r}")

    def validate(self, problem: CompositeProblem) -> None:
        if self.variant == "function_gap" and problem.reference_optimum is None:
            raise ConfigError(
                "function_gap criterion needs a problem with a reference optimum"
            )

    @classmethod
    def function_gap(cls, eps_bar: float) -> "Criterion":
        return cls("function_gap", eps_bar)

    @classmethod
    def stationarity(cls, rho: float) -> "Criterion":
        return cls("stationarity", rho)

    @classmethod
    def relative(cls, sigma_tilde: float) -> "Criterion":
        return cls("relative", sigma_tilde)

    @classmethod
    def alternate_relative(cls, sigma: float) -> "Criterion":
        return cls("alternate_relative", sigma)

    @classmethod
    def absolute(cls, eps: float, eta_tol: float) -> "Criterion":
        return cls("absolute", eps, eta_tol)


def _tested(value: float, name: str) -> float:
    """value itself; NumericFailure when it is NaN or infinite.

    No test can pass a NaN.  An infinite quantity says nothing about the
    iterate either: a gap of -inf would pass its test and +inf would fail
    every later one.
    """
    if not math.isfinite(value):
        shown = "NaN" if math.isnan(value) else f"{value:g}"
        raise NumericFailure(f"{name} is {shown}, not finite")
    return value


@dataclass(frozen=True, slots=True)
class StopTest:
    """One criterion's test with its constants bound, as `stop_test` builds it.

    reads is the position of the one certificate the test reads in a
    state's certificates [phi(y), u, (v, eta)], as `engine.row_certificates`
    forms them: 0, 1 or 2; None without a criterion, whose test reads y
    alone.  The test starts at first_k: 1 when it reads a residual, which
    needs a step, else 0.  holds(test, state, certificate) is the
    criterion's formula, on the criterion's tolerances and phi*; it raises
    NumericFailure when the quantity tested is NaN or infinite.
    screen(test, state), stationarity's alone, says whether the oracle-free
    bound lf_gap ||y - x_tilde_prev|| on ||u|| exceeds screen_bound =
    rho (1 + slack), which rules the state out before u's gradient; None for
    the others.  The formulas are module functions and the constants
    fields, so a run's test holds no closure.
    """

    criterion: Optional[Criterion]
    reads: Optional[int]
    first_k: int
    holds: Callable
    screen: Optional[Callable] = None
    phi_star: Optional[float] = None
    lf_gap: float = math.nan
    screen_bound: float = math.nan

    def apply(self, state: "IterateState", problem: CompositeProblem,
              held: list) -> bool:
        """Whether the test holds at state.

        held is the state's certificates formed so far, [phi(y), u,
        (v, eta)] with None for each one not formed.  False before first_k
        and where the screen rules the state out; the screen runs only when
        u is not held.  Else the certificate the test reads is formed into
        its place in held, unless it is there already, and the formula
        applied to it, so the caller keeps what the test formed even when
        the formula raises NumericFailure.
        """
        if state.k < self.first_k:
            return False
        reads = self.reads
        if reads is None:
            return self.holds(self, state, None)
        read = held[reads]
        if read is None:
            if self.screen is not None and self.screen(self, state):
                return False
            # the residuals are looked up on the certificates module here
            if reads == 0:
                read = eval_phi(problem, state.y)
            elif reads == 1:
                read = _cert.stationarity_residual(state, problem)
            else:
                read = _cert.residual_pair(state)
            held[reads] = read
        return self.holds(self, state, read)


def _y_is_finite(test, state, _) -> bool:
    """The test without a criterion: never holds, fails on a non-finite y."""
    if not np.isfinite(state.y).all():
        raise NumericFailure("y has an entry that is NaN or infinite")
    return False


def _gap_holds(test, state, phi_y) -> bool:
    return _tested(phi_y - test.phi_star, "phi(y) gap") <= test.criterion.tol


def _stationarity_holds(test, state, u) -> bool:
    return _tested(u.norm, "||u||") <= test.criterion.tol


def _stationarity_screen(test, state) -> bool:
    # u = grad f(y) - grad f(x_tilde) + lf (x_tilde - y) and grad f is
    # lf_bar-Lipschitz, so ||u|| >= (lf - lf_bar) ||y - x_tilde||
    return (test.lf_gap * vector_norm(state.y - state.x_tilde_prev)
            > test.screen_bound)


def _absolute_holds(test, state, pair) -> bool:
    norm, eta = _tested(pair.norm, "||v||"), _tested(pair.eta, "eta")
    return norm <= test.criterion.tol and eta <= test.criterion.eta_tol


def square(x: float) -> float:
    """x**2 as Python's float ** takes it, or inf past the largest double.

    ** raises OverflowError where its result would pass the largest
    double; this gives inf there, as float * does, and ** to the last bit
    everywhere else.
    """
    try:
        return x**2
    except OverflowError:
        return math.inf


def scaled_square(c: float, x: float, y: float) -> float:
    """c x^2 y^2, for a positive c, as c * x**2 * y**2 takes it wherever
    that is finite.

    Where x**2 passes the largest double while y**2 underflows, that form
    reads inf * 0 = NaN (or ** raises); c (x y)^2 is taken there instead,
    so a c of modest size gives inf only where the value overflows.
    """
    try:
        value = c * x**2 * y**2
    except OverflowError:
        value = math.nan
    if math.isfinite(value) or not (math.isfinite(x) and math.isfinite(y)):
        return value
    return c * square(x * y)


def _pair_lhs(pair) -> float:
    return _tested(pair.norm**2 + 2.0 * pair.eta, "||v||^2 + 2 eta")


def _relative_holds(test, state, pair) -> bool:
    lhs = _pair_lhs(pair)
    dist = vector_norm(state.y - state.x0)
    return lhs <= test.criterion.tol * dist**2


def _alternate_relative_holds(test, state, pair) -> bool:
    lhs = _pair_lhs(pair)
    shifted = vector_norm(pair.v + state.y - state.x0)
    return lhs <= test.criterion.tol * shifted**2


# variant -> (the position of the certificate its test reads, its formula)
_FORMULAS = {"function_gap": (0, _gap_holds),
             "stationarity": (1, _stationarity_holds),
             "relative": (2, _relative_holds),
             "alternate_relative": (2, _alternate_relative_holds),
             "absolute": (2, _absolute_holds)}


def stop_test(criterion: Optional[Criterion], problem: CompositeProblem,
              config: "SolverConfig") -> StopTest:
    """criterion's test on a run of config on problem, built once per run.

    The criterion is validated against the problem here, once: a
    function_gap criterion without a reference optimum raises ConfigError.
    phi* is bound in, and for stationarity lf - lf_bar and rho (1 + slack)
    too.
    """
    if criterion is None:
        return StopTest(None, None, 0, _y_is_finite)
    criterion.validate(problem)
    reads, holds = _FORMULAS[criterion.variant]
    first_k = 0 if reads == 0 else 1
    if criterion.variant == "stationarity":
        return StopTest(criterion, reads, first_k, holds, _stationarity_screen,
                        lf_gap=config.lf - problem.f.curvature,
                        screen_bound=criterion.tol * (1.0 + _SCREEN_SLACK))
    ref = problem.reference_optimum
    return StopTest(criterion, reads, first_k, holds,
                    phi_star=None if ref is None else ref.phi_star)


def check(criterion: Criterion, state: "IterateState",
          problem: CompositeProblem) -> bool:
    """Whether the criterion holds at state, a state of a run on problem.

    `stop_test(criterion, problem, state.config).apply` on a state with no
    certificate formed yet: a stationarity test forms u only when its screen
    cannot rule the state out.  Raises ConfigError for function_gap without
    a reference optimum, CertificateUndefinedError before the test's
    first_k, and NumericFailure when the quantity tested is NaN or infinite.
    """
    test = stop_test(criterion, problem, state.config)
    if state.k < test.first_k:
        raise CertificateUndefinedError(
            f"the {criterion.variant} test needs at least one step")
    return test.apply(state, problem, [None, None, None])


@dataclass(frozen=True)
class BoundReport:
    """Predicted iteration count plus the constants behind it."""

    predicted_k: int
    branch: str  # "polynomial" | "logarithmic"
    constants: dict = field(default_factory=dict)


def log_plus_one(x: float) -> float:
    """max(ln x, 1), the clamped logarithm used by the geometric predictors."""
    if x <= 0:
        raise ValueError("log_plus_one needs a positive argument")
    return max(math.log(x), 1.0)


def growth_factor(lf: float, mu_f: float, mu: float) -> float:
    """Per-iteration geometric factor c of the coefficient sum."""
    _validate_constants(lf, mu_f, mu)
    return 1.0 + 0.5 * math.sqrt(mu / (lf - mu_f))


def _validate_constants(lf: float, mu_f: float, mu: float) -> None:
    for name, value in (("lf", lf), ("mu_f", mu_f), ("mu", mu)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} = {value:g} must be finite")
    if mu_f < 0 or mu < 0:
        raise ConfigError("strong-convexity moduli must be nonnegative")
    if lf <= mu_f:
        raise ConfigError("lf must strictly exceed mu_f")
    if mu < mu_f:
        raise ConfigError(f"mu = {mu:g} must be at least mu_f = {mu_f:g}")


def _validate_d0(d0: float) -> None:
    if not math.isfinite(d0):
        raise ConfigError(f"d0 = {d0:g} must be finite")
    if d0 < 0:
        raise ConfigError("d0 must be nonnegative")


def _ceil_clamped(value: float) -> int:
    # NaN comes of an intermediate past the largest double, as inf * 0
    if math.isinf(value):
        raise ConfigError("predictor evaluated to infinity")
    if math.isnan(value):
        raise ConfigError("predictor evaluated to NaN")
    return max(1, math.ceil(value - _CEIL_SLOP))


def _branches(a_target: float, lf: float, mu_f: float, mu: float):
    """(polynomial, logarithmic) iteration branches guaranteeing A_k >= a_target."""
    if not a_target > 0:
        return 0.0, math.inf
    scaled = (lf - mu_f) * a_target
    poly = 2.0 * math.sqrt(scaled)
    if mu > 0 and scaled > 0:
        return poly, _log_branch(scaled, lf, mu_f, mu)
    return poly, math.inf


def _log_branch(scaled: float, lf: float, mu_f: float, mu: float) -> float:
    """Logarithmic iteration branch for a positive scaled target and mu > 0."""
    return (0.5 + math.sqrt((lf - mu_f) / mu)) * log_plus_one(scaled) + 1.0


def _report(poly, logb, constants) -> BoundReport:
    """Report on the smaller of the polynomial and logarithmic branches."""
    return BoundReport(predicted_k=_ceil_clamped(min(poly, logb)),
                       branch="polynomial" if poly <= logb else "logarithmic",
                       constants={**constants, "log_base": math.e})


def abar_relative(mu: float, sigma_tilde: float) -> float:
    """Coefficient-sum threshold for the relative criterion.

    The positive root of sigma_tilde A^2 - (2 mu + 1) A - 4 = 0: once the
    coefficient sum reaches it, ||v||^2 + 2 eta <= sigma_tilde ||y - x0||^2.
    """
    if mu < 0:
        raise ConfigError("mu must be nonnegative")
    if not sigma_tilde > 0:
        raise ConfigError("sigma_tilde must be positive")
    b = 2.0 * mu + 1.0
    disc = b**2 + 16.0 * sigma_tilde
    if disc < math.inf:
        return (b + math.sqrt(disc)) / (2.0 * sigma_tilde)
    # sigma_tilde past about 1.1e307: the same root, through no
    # intermediate past the largest double
    return 0.5 * ((b + math.hypot(b, 4.0 * math.sqrt(sigma_tilde)))
                  / sigma_tilde)


def predicted_iterations(criterion: Criterion, lf: float, lf_bar: float,
                         mu_f: float, mu: float,
                         d0: Optional[float] = None) -> BoundReport:
    """Iterations by which the criterion is guaranteed to hold.

    d0 >= ||x0 - x*|| is needed by the variants in D0_VARIANTS, and lf_bar
    (the certified curvature of f, below lf) by stationarity only.  The
    absolute bound requires mu > 0; with no strong convexity its closed
    form does not exist.  Constants whose closed form squares a number past
    about 1e154 raise ConfigError, as a count that evaluates to infinity
    does.
    """
    try:
        return _closed_form(criterion, lf, lf_bar, mu_f, mu, d0)
    except OverflowError:  # float ** past the largest double
        raise ConfigError("predictor overflowed double precision") from None


def _closed_form(criterion: Criterion, lf: float, lf_bar: float, mu_f: float,
                 mu: float, d0: Optional[float]) -> BoundReport:
    """predicted_iterations, save that a ** may raise OverflowError."""
    v, tol = criterion.variant, criterion.tol
    if v in D0_VARIANTS and d0 is None:
        raise ConfigError(f"the {v} predictor needs d0")
    _validate_constants(lf, mu_f, mu)
    if v == "function_gap":
        # phi(y_k) - phi* <= eps_bar
        _validate_d0(d0)
        a_target = d0**2 / (2.0 * tol)
        return _report(*_branches(a_target, lf, mu_f, mu), {"abar": a_target})
    if v == "stationarity":
        # min_i ||u_i|| <= rho
        if not math.isfinite(lf_bar):
            raise ConfigError(f"lf_bar = {lf_bar:g} must be finite")
        if lf <= lf_bar:
            raise ConfigError("lf must strictly exceed the curvature bound lf_bar")
        _validate_d0(d0)
        zeta = 8.0 * lf**2 * (lf - mu_f) / (lf - lf_bar)
        c = growth_factor(lf, mu_f, mu)
        if tol**2 == 0.0:
            raise ConfigError(f"rho = {tol:g} is too small: rho**2 is 0")
        ratio = zeta * d0**2 / tol**2
        poly = (12.0 * ratio) ** (1.0 / 3.0)
        logb = math.inf
        if mu > 0:
            logb = (1.0 + 2.0 * math.sqrt((lf - mu_f) / mu)) \
                * math.log(1.0 + ratio * (c**2 - 1.0))
        return _report(poly, logb, {"zeta": zeta, "c": c})
    if v == "relative":
        a_target = abar_relative(mu, tol)
        return _report(*_branches(a_target, lf, mu_f, mu), {"abar": a_target})
    if v == "alternate_relative":
        shrink = (1.0 + math.sqrt(tol)) ** 2
        sigma_tilde = tol / shrink
        cal_a = (2.0 * mu + 3.0) * shrink / tol
        # the alternate threshold dominates the plain relative one
        abar = abar_relative(mu, sigma_tilde)
        if not abar <= cal_a * (1.0 + 1e-12):
            raise NumericFailure(f"alternate relative threshold {cal_a:g} fell "
                                 f"below the relative threshold {abar:g}")
        return _report(*_branches(cal_a, lf, mu_f, mu),
                       {"cal_a": cal_a, "sigma_tilde": sigma_tilde})
    # absolute: ||v_k|| <= eps and eta_k <= eta_tol
    if mu == 0:
        raise ConfigError("the absolute-criterion bound requires mu > 0")
    _validate_d0(d0)
    if tol**2 == 0.0:
        raise ConfigError(f"eps = {tol:g} is too small: eps**2 is 0")
    eta_tol = criterion.eta_tol
    big_b = 1.0 + 8.0 * (lf - mu_f) / mu
    big_m = big_b**2 * (lf - mu_f)
    if d0 == 0:
        return _report(0.0, math.inf, {"big_m": big_m})
    poly = 8.0 * (
        1.0 / math.sqrt(tol)
        + math.sqrt(mu * d0) / tol
        + math.sqrt(d0) / math.sqrt(eta_tol)
    ) * math.sqrt(big_m * d0)
    inner = 16.0 * (1.0 / tol + mu * d0 / tol**2 + d0 / eta_tol) * big_m * d0
    # a d0 near the smallest double can take inner to 0: then, as for a zero
    # target in _branches, there is no logarithmic branch
    logb = _log_branch(inner, lf, mu_f, mu) if inner > 0 else math.inf
    return _report(poly, logb, {"big_m": big_m})


# ---------------------------------------------------------------------------
# Per-iterate a priori bounds (used by the verification harness and tests)
# ---------------------------------------------------------------------------

def coefficient_sum_lower(k: int, lf: float, mu_f: float, mu: float) -> float:
    """Proven lower bound on the coefficient sum after k steps."""
    return _sum_lower(k, growth_factor(lf, mu_f, mu), lf - mu_f)


def _sum_lower(k: int, c: float, lf_gap: float) -> float:
    """coefficient_sum_lower on a run's checked c and lf_gap = lf - mu_f."""
    if k < 1:
        return 0.0
    poly = k * k / 4.0
    geo = c ** (2.0 * (k - 1.0))
    return max(poly, geo) / lf_gap


def distance_bound_x(tau: float, d0: float) -> float:
    """Bound on ||x_k - x0|| in terms of tau_k and d0."""
    return (1.0 / math.sqrt(tau) + 1.0) * d0


def distance_bound_y(a_sum: float, mu: float, d0: float) -> float:
    """Bound on ||y_k - x0|| for mu > 0."""
    if mu <= 0 or a_sum <= 0:
        raise ConfigError("distance bound on y needs mu > 0 and a positive A")
    return 2.0 * (1.0 + 2.0 / (a_sum * mu)) * d0


def pair_norm_bounds(a_sum: float, tau: float, dist_y_x0: float):
    """Bounds (on ||v||, on eta) in terms of the distance ||y - x0||."""
    if a_sum <= 0:
        raise ConfigError("pair bounds need a positive coefficient sum")
    v_bound = (1.0 + math.sqrt(tau)) * dist_y_x0 / a_sum
    eta_bound = square(dist_y_x0) / (2.0 * a_sum)
    return v_bound, eta_bound


def pair_absolute_bounds(a_sum: float, mu: float, d0: float):
    """d0-only bounds (on ||v||, on eta) for mu > 0."""
    if mu <= 0 or a_sum <= 0:
        raise ConfigError("absolute pair bounds need mu > 0 and a positive A")
    inflate = 1.0 + 2.0 / (a_sum * mu)
    v_bound = (2.0 / a_sum) * (2.0 + math.sqrt(mu * a_sum)) * inflate * d0
    eta_bound = scaled_square(2.0 / a_sum, inflate, d0)
    return v_bound, eta_bound
