"""Stopping rules and the closed-form iteration predictors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sfista import bounds, certificates, engine
from sfista.bounds import Criterion
from sfista.errors import CertificateUndefinedError, ConfigError, NumericFailure


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _one_step(quad1d):
    state = engine.init(quad1d, engine.SolverConfig(lf=2.0), np.array([1.0]))
    state = engine.step(state, quad1d)
    return state


# ---------------------------------------------------------------------------
# criterion construction and checks
# ---------------------------------------------------------------------------

def test_criterion_validation():
    with pytest.raises(ConfigError):
        Criterion("no_such_rule", 1.0)
    with pytest.raises(ConfigError):
        Criterion("stationarity", 0.0)
    with pytest.raises(ConfigError):
        Criterion("absolute", 1.0)  # missing eta_tol
    with pytest.raises(ConfigError):
        Criterion("absolute", 1.0, eta_tol=-1.0)
    with pytest.raises(ConfigError):
        Criterion("relative", 1.0, eta_tol=1.0)  # stray eta_tol
    with pytest.raises(ConfigError, match="must be finite"):
        Criterion("relative", math.inf)
    with pytest.raises(ConfigError, match="must be finite"):
        Criterion("absolute", 1.0, eta_tol=math.inf)


def test_criterion_validate_needs_reference(quad1d):
    problem = type(quad1d)(f=quad1d.f, h=quad1d.h, dimension=1,
                           reference_optimum=None)
    with pytest.raises(ConfigError):
        Criterion.function_gap(1.0).validate(problem)
    Criterion.stationarity(1.0).validate(problem)  # fine without reference


def _counting(problem):
    """problem whose f.value and f.grad append their name to a list, and it."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper
    f = dataclasses.replace(problem.f, value=counted("f.value", problem.f.value),
                            grad=counted("f.grad", problem.f.grad))
    return dataclasses.replace(problem, f=f), calls


def test_check_function_gap(quad1d):
    # phi(y_1) = 0.125, phi* = 0
    state = _one_step(quad1d)
    assert bounds.check(Criterion.function_gap(0.2), state, quad1d)
    assert not bounds.check(Criterion.function_gap(0.1), state, quad1d)
    bare = type(quad1d)(f=quad1d.f, h=quad1d.h, dimension=1,
                        reference_optimum=None)
    with pytest.raises(ConfigError):
        bounds.check(Criterion.function_gap(0.2), state, bare)


def test_check_stationarity(quad1d):
    # ||u_1|| = 0.5
    state = _one_step(quad1d)
    assert bounds.check(Criterion.stationarity(0.6), state, quad1d)
    assert not bounds.check(Criterion.stationarity(0.4), state, quad1d)


def test_check_stationarity_screen(quad1d):
    # the step bound (lf - lf_bar) ||y_1 - x_tilde_0|| = (2 - 1) * 0.5 is
    # tight here, and rules rho = 0.4 out without forming u
    state = _one_step(quad1d)
    problem, calls = _counting(quad1d)
    assert not bounds.check(Criterion.stationarity(0.4), state, problem)
    assert calls == []
    assert bounds.check(Criterion.stationarity(0.6), state, problem)
    assert calls == ["f.grad"]


def test_apply_tests_a_held_u_with_no_screen(quad1d):
    # a state whose u is held is tested on u: the screen is never run
    state = _one_step(quad1d)

    def refuse(test, state):
        raise AssertionError("screened a state whose u is held")

    test = dataclasses.replace(
        bounds.stop_test(Criterion.stationarity(0.4), quad1d, state.config),
        screen=refuse)
    u = certificates.stationarity_residual(state, quad1d)
    assert u.norm == 0.5
    held = [None, u, None]
    assert not test.apply(state, quad1d, held)
    assert held == [None, u, None]
    with pytest.raises(AssertionError, match="screened"):
        test.apply(state, quad1d, [None, None, None])


def test_stop_test_validates_the_criterion_once(quad1d, monkeypatch):
    bare = type(quad1d)(f=quad1d.f, h=quad1d.h, dimension=1,
                        reference_optimum=None)
    config = engine.SolverConfig(lf=2.0)
    with pytest.raises(ConfigError, match="reference optimum"):
        bounds.stop_test(Criterion.function_gap(1.0), bare, config)
    validated = []
    real = Criterion.validate
    monkeypatch.setattr(Criterion, "validate",
                        lambda self, problem: validated.append(self)
                        or real(self, problem))
    criterion = Criterion.stationarity(1e-6)
    test = bounds.stop_test(criterion, quad1d, config)
    state = engine.init(quad1d, config, np.array([1.0]))
    validated.clear()
    for _ in range(5):
        state = engine.step(state, quad1d)
        test.apply(state, quad1d, [None, None, None])
    assert validated == []


def test_check_nan_raises(quad1d):
    state = dataclasses.replace(_one_step(quad1d), y=np.array([math.nan]))
    for criterion in (Criterion.function_gap(1.0), Criterion.stationarity(1.0),
                      Criterion.relative(1.0), Criterion.alternate_relative(1.0),
                      Criterion.absolute(1.0, 1.0)):
        with pytest.raises(NumericFailure, match="NaN"):
            bounds.check(criterion, state, quad1d)


@pytest.mark.parametrize("value", [-math.inf, math.inf])
def test_check_infinite_gap_raises(quad1d, value):
    problem = dataclasses.replace(quad1d, f=dataclasses.replace(
        quad1d.f, value=lambda x: value))
    with pytest.raises(NumericFailure, match="not finite"):
        bounds.check(Criterion.function_gap(1.0), _one_step(quad1d), problem)


def test_check_infinite_stationarity_norm_raises(quad1d):
    # grad f(y) = inf after a finite step: u = inf - 1 + 2 (1 - 0.5); the
    # oracle-free bound (lf - lf_bar) |y - x_tilde| = 0.5 cannot rule it out
    state = _one_step(quad1d)
    problem = dataclasses.replace(quad1d, f=dataclasses.replace(
        quad1d.f, grad=lambda x: np.full_like(x, math.inf)))
    with pytest.raises(NumericFailure, match="not finite"):
        bounds.check(Criterion.stationarity(1.0), state, problem)
    # apply leaves the u it formed in held, though its formula raised
    test = bounds.stop_test(Criterion.stationarity(1.0), problem, state.config)
    held = [None, None, None]
    with pytest.raises(NumericFailure, match="not finite"):
        test.apply(state, problem, held)
    assert held[1].norm == math.inf


def test_check_residual_criteria(quad1d):
    # v_1 = 1, eta_1 = 1/4: lhs = 1.5; ||y - x0||^2 = ||v + y - x0||^2 = 1/4
    state = _one_step(quad1d)
    assert bounds.check(Criterion.relative(7.0), state, quad1d)
    assert not bounds.check(Criterion.relative(5.0), state, quad1d)
    assert bounds.check(Criterion.alternate_relative(7.0), state, quad1d)
    assert not bounds.check(Criterion.alternate_relative(5.0), state, quad1d)
    assert bounds.check(Criterion.absolute(1.5, 0.3), state, quad1d)
    assert not bounds.check(Criterion.absolute(0.5, 0.3), state, quad1d)
    assert not bounds.check(Criterion.absolute(1.5, 0.2), state, quad1d)


def test_check_requires_certificates(quad1d):
    # before the first step neither residual exists
    state = engine.init(quad1d, engine.SolverConfig(lf=2.0), np.array([1.0]))
    with pytest.raises(CertificateUndefinedError):
        bounds.check(Criterion.stationarity(1.0), state, quad1d)
    with pytest.raises(CertificateUndefinedError):
        bounds.check(Criterion.relative(1.0), state, quad1d)


def test_apply_at_start_only_for_function_gap(quad1d):
    # at k = 0 the residuals are undefined; only the gap test reads the
    # start, and no test without a criterion holds
    state = engine.init(quad1d, engine.SolverConfig(lf=2.0), np.array([1.0]))
    loose = [Criterion.stationarity(10.0), Criterion.relative(10.0),
             Criterion.alternate_relative(10.0), Criterion.absolute(10.0, 10.0),
             None]
    for criterion in loose:
        held = [None, None, None]
        test = bounds.stop_test(criterion, quad1d, state.config)
        assert not test.apply(state, quad1d, held)
        assert held == [None, None, None]
    test = bounds.stop_test(Criterion.function_gap(10.0), quad1d, state.config)
    assert test.apply(state, quad1d, [None, None, None])


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def test_log_plus_one():
    assert bounds.log_plus_one(math.e) == 1.0
    assert abs(bounds.log_plus_one(math.e**3) - 3.0) <= 1e-15
    assert bounds.log_plus_one(0.5) == 1.0  # clamped from below
    with pytest.raises(ValueError):
        bounds.log_plus_one(0.0)


def test_growth_factor():
    assert bounds.growth_factor(2.0, 1.0, 1.0) == 1.5
    assert bounds.growth_factor(5.0, 0.0, 0.0) == 1.0
    with pytest.raises(ConfigError):
        bounds.growth_factor(1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        bounds.growth_factor(2.0, -1.0, 0.0)


def _iters_for_target(a_target, lf, mu_f, mu):
    """Iterations guaranteeing A_k >= a_target >= 0: the function_gap
    predictor at eps_bar = 0.5, whose coefficient target is d0^2."""
    return bounds.predicted_iterations(Criterion.function_gap(0.5), lf, 0.0,
                                       mu_f, mu, d0=math.sqrt(a_target)).predicted_k


def test_coefficient_target_frozen_values():
    assert _iters_for_target(1.0, 1.0, 0.0, 0.0) == 2
    assert _iters_for_target(4.0, 1.0, 0.0, 0.0) == 4
    # logarithmic branch wins: 1.5 * ln(e^2) + 1 = 4 < 2e
    assert _iters_for_target(math.e**2, 1.0, 0.0, 1.0) == 4
    assert _iters_for_target(0.0, 1.0, 0.0, 0.0) == 1
    # a negative target takes the same `not a_target > 0` branch as d0 = 0
    assert _iters_for_target(0.0, 1.0, 0.0, 1.0) == 1


def test_coefficient_target_monotone():
    rng = _rng(21)
    for _ in range(50):
        lf = float(10.0 ** rng.uniform(-1, 2))
        mu_f = float(rng.uniform(0, lf * 0.9))
        mu = mu_f + float(rng.uniform(0, 2))
        targets = np.sort(10.0 ** rng.uniform(-3, 6, size=20))
        ks = [_iters_for_target(float(t), lf, mu_f, mu) for t in targets]
        assert all(k2 >= k1 for k1, k2 in zip(ks, ks[1:]))


def test_coefficient_sum_lower():
    assert bounds.coefficient_sum_lower(0, 2.0, 0.0, 0.0) == 0.0
    # k = 4, mu = 0: max(4, 1) / 2
    assert bounds.coefficient_sum_lower(4, 2.0, 0.0, 0.0) == 2.0
    # mu = 4, lf - mu_f = 1: c = 2, geometric term wins from k = 3 on
    assert bounds.coefficient_sum_lower(3, 1.0, 0.0, 4.0) == 16.0


# ---------------------------------------------------------------------------
# predictors: frozen examples
# ---------------------------------------------------------------------------

def test_function_gap_predictor():
    predict, gap = bounds.predicted_iterations, Criterion.function_gap
    report = predict(gap(1.0), 2.0, 0.0, 0.0, 0.0, d0=0.0)
    assert report.predicted_k == 1
    report = predict(gap(0.5), 1.0, 0.0, 0.0, 0.0, d0=1.0)
    assert report.predicted_k == 2
    assert report.branch == "polynomial"
    assert report.constants["abar"] == 1.0
    assert report.constants["log_base"] == math.e
    assert predict(gap(0.125), 1.0, 0.0, 0.0, 0.0, d0=1.0).predicted_k == 4
    with pytest.raises(ConfigError):
        predict(gap(1.0), 1.0, 0.0, 0.0, 0.0, d0=-1.0)


def test_stationarity_predictor():
    predict, rho = bounds.predicted_iterations, Criterion.stationarity(1.0)
    report = predict(rho, 2.0, 1.0, 0.0, 0.0, d0=1.0)
    assert report.constants["zeta"] == 64.0
    assert report.constants["c"] == 1.0
    assert report.branch == "polynomial"
    assert report.predicted_k == 10  # ceil((12 * 64)^(1/3)) = ceil(9.158...)
    with pytest.raises(ConfigError):
        predict(rho, 2.0, 2.0, 0.0, 0.0, d0=1.0)
    with pytest.raises(ConfigError):
        predict(rho, 2.0, 1.0, 0.0, 0.0, d0=-1.0)


def test_stationarity_predictor_exact_cube():
    # ratio = 144 so the closed form is exactly 12; the ceil slop must not
    # bump a value that lands on an integer up to 13
    report = bounds.predicted_iterations(Criterion.stationarity(1.0), 2.0, 1.0,
                                         0.0, 0.0, d0=1.5)
    assert report.predicted_k == 12


def test_abar_relative_frozen_values():
    assert bounds.abar_relative(1.0, 1.0) == 4.0
    assert abs(bounds.abar_relative(0.0, 1.0) - (1 + math.sqrt(17)) / 2) <= 1e-15
    with pytest.raises(ConfigError):
        bounds.abar_relative(1.0, 0.0)
    with pytest.raises(ConfigError):
        bounds.abar_relative(-1.0, 1.0)


def test_abar_relative_is_quadratic_root():
    rng = _rng(22)
    for _ in range(300):
        mu = float(rng.uniform(0, 10))
        sigma_tilde = float(10.0 ** rng.uniform(-4, 4))
        abar = bounds.abar_relative(mu, sigma_tilde)
        residual = sigma_tilde * abar**2 - (2 * mu + 1) * abar - 4.0
        scale = sigma_tilde * abar**2 + (2 * mu + 1) * abar + 4.0
        assert abs(residual) <= 1e-12 * scale


def test_relative_predictor():
    report = bounds.predicted_iterations(Criterion.relative(1.0), 2.0, 0.0,
                                         1.0, 1.0)
    assert report.constants["abar"] == 4.0
    assert report.predicted_k == _iters_for_target(4.0, 2.0, 1.0, 1.0)


def test_alternate_relative_predictor():
    predict, alternate = bounds.predicted_iterations, Criterion.alternate_relative
    report = predict(alternate(1.0), 2.0, 0.0, 1.0, 1.0)
    assert report.constants["cal_a"] == 20.0
    assert report.constants["sigma_tilde"] == 0.25
    # for large sigma the threshold approaches 2 mu + 3
    report = predict(alternate(1e12), 2.0, 0.0, 1.0, 1.0)
    assert abs(report.constants["cal_a"] - 5.0) <= 1e-5 * 5.0
    with pytest.raises(ConfigError):
        predict(alternate(0.0), 2.0, 0.0, 1.0, 1.0)


def test_alternate_threshold_dominates_relative():
    rng = _rng(23)
    for _ in range(1000):
        mu = float(rng.uniform(0, 10))
        sigma = float(10.0 ** rng.uniform(-6, 6))
        shrink = (1.0 + math.sqrt(sigma)) ** 2
        cal_a = (2.0 * mu + 3.0) * shrink / sigma
        abar = bounds.abar_relative(mu, sigma / shrink)
        assert abar <= cal_a * (1.0 + 1e-12)


def test_alternate_threshold_failure_raises(monkeypatch):
    # an explicit check, not an assert, so it survives python -O
    monkeypatch.setattr(bounds, "abar_relative", lambda mu, sigma_tilde: math.inf)
    with pytest.raises(NumericFailure):
        bounds.predicted_iterations(Criterion.alternate_relative(1.0), 2.0, 0.0,
                                    1.0, 1.0)


def test_absolute_predictor():
    predict, absolute = bounds.predicted_iterations, Criterion.absolute(1.0, 1.0)
    report = predict(absolute, 2.0, 0.0, 0.0, 1.0, d0=1.0)
    assert report.constants["big_m"] == 578.0  # (1 + 16)^2 * 2
    assert predict(absolute, 2.0, 0.0, 0.0, 1.0, d0=0.0).predicted_k == 1
    with pytest.raises(ConfigError):
        predict(absolute, 2.0, 0.0, 0.0, 0.0, d0=1.0)
    with pytest.raises(ConfigError):
        predict(absolute, 2.0, 0.0, 0.0, 1.0, d0=-1.0)


def test_absolute_predictor_rejects_a_vanishing_eps_at_every_d0():
    # eps**2 underflows to 0 whatever d0 is, so d0 = 0 is no way round it
    absolute = Criterion.absolute(1e-300, 1e-3)
    messages = []
    for d0 in (0.0, 1.0):
        with pytest.raises(ConfigError) as caught:
            bounds.predicted_iterations(absolute, 2.0, 0.0, 0.0, 1.0, d0=d0)
        messages.append(str(caught.value))
    assert messages == ["eps = 1e-300 is too small: eps**2 is 0"] * 2


def test_absolute_predictor_reaches_sufficient_sum():
    # by the predicted iteration the guaranteed coefficient sum must clear
    # the threshold that forces ||v|| <= eps and eta <= eta_tol
    rng = _rng(24)
    for _ in range(200):
        mu_f = float(rng.uniform(0, 2))
        lf = mu_f + float(10.0 ** rng.uniform(-1, 1))
        mu = mu_f + float(rng.uniform(0.01, 5))
        d0 = float(10.0 ** rng.uniform(-2, 1))
        eps = float(10.0 ** rng.uniform(-6, 0))
        eta_tol = float(10.0 ** rng.uniform(-6, 0))
        report = bounds.predicted_iterations(Criterion.absolute(eps, eta_tol),
                                             lf, 0.0, mu_f, mu, d0=d0)
        big_b = 1.0 + 8.0 * (lf - mu_f) / mu
        needed = (8.0 / eps) * big_b * d0 \
            + (16.0 * mu / eps**2 + 2.0 / eta_tol) * big_b**2 * d0**2
        reached = bounds.coefficient_sum_lower(report.predicted_k, lf, mu_f, mu)
        assert reached >= needed * (1.0 - 1e-9)


def test_predictor_out_of_range_is_a_config_error():
    # constants whose closed form leaves the doubles fail as ConfigError, as
    # a count that evaluates to infinity does; none is a bare arithmetic error
    absolute = Criterion.absolute(1.0, 1.0)
    cases = [
        # big_b**2 = (1 + 8 / 1e-300)**2 raises OverflowError
        (absolute, (1.0, 0.0, 0.0, 1e-300, 1.0), "overflowed"),
        # d0**2 raises OverflowError
        (Criterion.function_gap(1.0), (1.0, 0.0, 0.0, 1.0, 1e200),
         "overflowed"),
        # zeta = 8 lf^2 (lf - mu_f) / (lf - lf_bar) is inf, inf * d0**2 NaN
        (Criterion.stationarity(1.0), (1e103, 0.0, 0.0, 0.0, 0.0), "NaN"),
    ]
    for criterion, (lf, lf_bar, mu_f, mu, d0), message in cases:
        with pytest.raises(ConfigError, match=message):
            bounds.predicted_iterations(criterion, lf, lf_bar, mu_f, mu, d0=d0)
    # the smallest subnormal d0 takes the logarithmic term's argument to 0:
    # one step, as for d0 = 0
    report = bounds.predicted_iterations(absolute, 0.015625, 0.0, 0.0, 1.0,
                                         d0=5e-324)
    assert report.predicted_k == 1 and report.branch == "polynomial"


def test_predicted_iterations_dispatch():
    # the relative variants predict the iterations for their coefficient
    # thresholds abar and cal_a
    crit = Criterion.relative(0.5)
    report = bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 1.0)
    assert report.constants["abar"] == bounds.abar_relative(1.0, 0.5)
    assert report.predicted_k == _iters_for_target(report.constants["abar"],
                                                   2.0, 0.0, 1.0)
    crit = Criterion.alternate_relative(0.5)
    report = bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 1.0)
    assert report.predicted_k == _iters_for_target(report.constants["cal_a"],
                                                   2.0, 0.0, 1.0)
    crit = Criterion.stationarity(1.0)
    assert bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 0.0,
                                       d0=1.0).predicted_k == 10
    for crit in (Criterion.function_gap(1.0), Criterion.stationarity(1.0),
                 Criterion.absolute(1.0, 1.0)):
        with pytest.raises(ConfigError):
            bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# predictors: properties over random constants
# ---------------------------------------------------------------------------

# the ends of a predictor's range: a count or an intermediate past the
# largest double, and a tolerance whose square underflows
_OUT_OF_RANGE = ("evaluated to infinity", "evaluated to NaN",
                 "overflowed double precision", "is too small")

# positive doubles spread evenly over their magnitudes, the smallest
# subnormal and the largest double included
_POSITIVE = (st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
             | st.sampled_from([5e-324, 1.7976931348623157e308]))
_FRACTION = st.floats(0.0, 1.0, exclude_max=True)

# the properties run on a fixed sequence of examples, so a pass or a
# failure repeats from run to run; over the whole range of the doubles many
# draws leave a predictor's range and are filtered out
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def _constants(draw, mu_zero=False, mu_equal=False):
    """(lf, lf_bar, mu_f, mu, d0) with lf_bar, mu_f < lf and mu >= mu_f."""
    lf = draw(_POSITIVE)
    lf_bar = lf * draw(_FRACTION)
    mu_f = 0.0 if mu_zero else lf * draw(_FRACTION)
    mu = mu_f if mu_zero or mu_equal else mu_f + draw(st.just(0.0) | _POSITIVE)
    assume(lf_bar < lf and mu_f < lf and mu < math.inf)
    return lf, lf_bar, mu_f, mu, draw(st.just(0.0) | _POSITIVE)


def _out_of_range(exc):
    return any(end in str(exc) for end in _OUT_OF_RANGE)


def _predict(variant, tols, constants):
    lf, lf_bar, mu_f, mu, d0 = constants
    return bounds.predicted_iterations(bounds.Criterion(variant, *tols), lf,
                                       lf_bar, mu_f, mu, d0=d0)


def _predict_in_range(variant, tols, constants):
    """_predict's report, or None where the count is out of range."""
    try:
        return _predict(variant, tols, constants)
    except ConfigError as exc:
        assert _out_of_range(exc)
        return None


# The relative thresholds abar and cal_a divide two quantities that both
# grow with the tolerance, so their rounding can move them the wrong way by
# an ulp; once the count is large enough, ceil passes that on.  Found by
# the property below; the examples pin one case of each.
_ROUNDING = pytest.mark.xfail(strict=True, reason=(
    "rounding in abar / cal_a can lower the count as the tolerance shrinks"))


@pytest.mark.parametrize("variant", [
    "function_gap", "stationarity", "absolute",
    pytest.param("relative", marks=_ROUNDING),
    pytest.param("alternate_relative", marks=_ROUNDING)])
@_PROPERTY
@given(constants=_constants(), tols=st.tuples(_POSITIVE, _POSITIVE),
       shrink=st.floats(0.0, 1.0, exclude_min=True), which=st.integers(0, 1))
@example(constants=(3.240987157387946e+68, 0.0, 0.0, 1.0, 1.0),
         tols=(10.00000000127306, 1.0), shrink=1 - 2**-52, which=0)
@example(constants=(2.508785951229428e+28, 0.0, 0.0, 0.0, 1.0),
         tols=(2.0000000000530305, 1.0), shrink=1 - 2**-52, which=0)
def test_predictor_never_decreases_as_a_tolerance_shrinks(variant, constants,
                                                          tols, shrink, which):
    # absolute shrinks eps or eta_tol, every other variant its one tolerance
    if variant != "absolute":
        tols, which = tols[:1], 0
    tight = list(tols)
    tight[which] *= shrink
    assume(tight[which] > 0)
    try:
        loose = _predict(variant, tols, constants).predicted_k
    except ConfigError as exc:
        # out of range, or constants the variant does not take (mu = 0)
        assert _out_of_range(exc) or "requires mu > 0" in str(exc)
        assume(False)
    report = _predict_in_range(variant, tuple(tight), constants)
    # a tighter count past what a double holds is not a smaller one
    assert report is None or report.predicted_k >= loose


# the variants that predict the iterations for a coefficient-sum target
_TARGETS = {"function_gap": "abar", "relative": "abar",
            "alternate_relative": "cal_a"}


def _reaches_target(variant, report, constants):
    """The proven coefficient-sum bound at predicted_k clears the target.

    The bound is max(k^2 / 4, c^(2 (k - 1))) / (lf - mu_f), its geometric
    term compared in logarithms, where it may pass the largest double.
    """
    lf, _, mu_f, mu, _ = constants
    k, target = float(report.predicted_k), report.constants[_TARGETS[variant]]
    # ceil first takes off _CEIL_SLOP = 1e-9 iterations: a relative 1e-9
    # of the target at k >= 1
    needed = target * (1.0 - 1e-9)
    if k * k / 4.0 / (lf - mu_f) >= needed:
        return True
    log_c = math.log1p(0.5 * math.sqrt(mu / (lf - mu_f)))
    return 2.0 * (k - 1) * log_c - math.log(lf - mu_f) >= math.log(needed)


@pytest.mark.parametrize("variant", sorted(_TARGETS))
@_PROPERTY
@given(constants=_constants(mu_zero=True), tol=_POSITIVE)
@example(constants=(2.0, 1.0, 0.0, 0.0, 1.0), tol=1e308)
def test_branches_without_strong_convexity(variant, constants, tol):
    # mu = 0 (so mu_f = 0 too): no logarithmic branch, and the polynomial
    # one reaches the target
    report = _predict_in_range(variant, (tol,), constants)
    assume(report is not None)
    lf = constants[0]
    poly = 2.0 * math.sqrt(lf * report.constants[_TARGETS[variant]])
    assert report.branch == "polynomial"
    assert report.predicted_k == max(1, math.ceil(poly - 1e-9))
    assert _reaches_target(variant, report, constants)


@pytest.mark.parametrize("variant", sorted(_TARGETS))
@_PROPERTY
@given(constants=_constants(mu_equal=True), tol=_POSITIVE)
@example(constants=(2.0, 1.0, 0.5, 0.5, 1.0), tol=1e308)
def test_branches_with_mu_f_equal_to_mu(variant, constants, tol):
    # mu_h = 0: the logarithmic branch stands on mu_f alone, and exists
    # unless the scaled target (lf - mu_f) abar underflows to 0 or
    # (lf - mu_f) / mu overflows; whichever branch is smaller still reaches
    # the target
    lf, _, mu_f, mu, _ = constants
    report = _predict_in_range(variant, (tol,), constants)
    assume(report is not None)
    target = report.constants[_TARGETS[variant]]
    poly, logb = bounds._branches(target, lf, mu_f, mu)
    exists = (mu > 0 and (lf - mu_f) * target > 0
              and (lf - mu_f) / mu < math.inf)
    assert (logb < math.inf) == exists
    assert report.predicted_k == max(1, math.ceil(min(poly, logb) - 1e-9))
    assert _reaches_target(variant, report, constants)


@_PROPERTY
@given(constants=_constants(), gap=st.floats(1e-15, 1e-3),
       closer=st.floats(0.0, 1.0), rho=_POSITIVE)
def test_stationarity_predictor_with_lf_just_above_lf_bar(constants, gap,
                                                          closer, rho):
    # lf = lf_bar (1 + gap): zeta grows as 1 / (lf - lf_bar), and the count
    # never falls as lf_bar moves closer to lf
    lf, _, mu_f, mu, d0 = constants
    far = lf / (1.0 + gap)
    near = far + closer * (lf - far)
    assume(far <= near < lf)
    counts = []
    for lf_bar in (far, near):
        report = _predict_in_range("stationarity", (rho,),
                                   (lf, lf_bar, mu_f, mu, d0))
        counts.append(math.inf if report is None else report.predicted_k)
    assume(counts[0] < math.inf)
    assert counts[1] >= counts[0]


def test_relative_threshold_is_finite_for_any_tolerance():
    # the positive root of sigma A^2 - (2 mu + 1) A - 4 = 0 is finite and
    # positive for every finite sigma > 0; it tends to 2 / sqrt(sigma),
    # also where b**2 + 16 sigma passes the largest double
    for sigma in (1e307, 1.2e307, 1e308, 1.7976931348623157e308):
        abar = bounds.abar_relative(0.0, sigma)
        assert abar == pytest.approx(2.0 / math.sqrt(sigma), rel=1e-15)
    assert bounds.abar_relative(0.0, 1e308) == 2e-154


# ---------------------------------------------------------------------------
# relative criterion fires at the predicted coefficient threshold
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name", ["lasso42_capture", "elastic_capture"])
def test_relative_threshold_first_crossing(request, fixture_name):
    capture = request.getfixturevalue(fixture_name)
    rows = request.getfixturevalue(fixture_name.replace("_capture", "_rows"))
    sigma_tilde = 0.1
    abar = bounds.abar_relative(capture.config.mu, sigma_tilde)
    crossing = next(k for k in range(1, capture.iterations + 1)
                    if capture.states[k].A >= abar)
    state = capture.states[crossing]
    row = rows[crossing]
    lhs = row.norm_v**2 + 2.0 * row.eta_residual
    dist2 = float((state.y - state.x0) @ (state.y - state.x0))
    assert lhs <= sigma_tilde * dist2 * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# per-iterate distance and pair bounds
# ---------------------------------------------------------------------------

def test_distance_bound_helpers():
    assert bounds.distance_bound_x(1.0, 3.0) == 6.0
    assert bounds.distance_bound_y(2.0, 1.0, 1.0) == 4.0
    with pytest.raises(ConfigError):
        bounds.distance_bound_y(2.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        bounds.distance_bound_y(0.0, 1.0, 1.0)


def test_pair_bound_helpers():
    assert bounds.pair_norm_bounds(2.0, 4.0, 1.0) == (1.5, 0.25)
    v_bound, eta_bound = bounds.pair_absolute_bounds(2.0, 1.0, 1.0)
    assert abs(v_bound - 2.0 * (2.0 + math.sqrt(2.0))) <= 1e-15
    assert eta_bound == 4.0
    with pytest.raises(ConfigError):
        bounds.pair_norm_bounds(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        bounds.pair_absolute_bounds(2.0, 0.0, 1.0)
