"""Stopping rules and the closed-form iteration predictors."""

import dataclasses
import math

import numpy as np
import pytest

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


def test_check_function_gap(quad1d):
    # phi(y_1) = 0.125, phi* = 0
    state = _one_step(quad1d)
    certs = certificates.Certificates(state, quad1d)
    assert bounds.check(Criterion.function_gap(0.2), certs)
    assert not bounds.check(Criterion.function_gap(0.1), certs)
    bare = type(quad1d)(f=quad1d.f, h=quad1d.h, dimension=1,
                        reference_optimum=None)
    with pytest.raises(ConfigError):
        bounds.check(Criterion.function_gap(0.2),
                     certificates.Certificates(state, bare))


def test_check_stationarity(quad1d):
    # ||u_1|| = 0.5
    state = _one_step(quad1d)
    certs = certificates.Certificates(state, quad1d)
    assert bounds.check(Criterion.stationarity(0.6), certs)
    assert not bounds.check(Criterion.stationarity(0.4), certs)


def test_check_stationarity_screen(quad1d):
    # the step bound (lf - lf_bar) ||y_1 - x_tilde_0|| = (2 - 1) * 0.5 is
    # tight here, and rules rho = 0.4 out without forming u
    certs = certificates.Certificates(_one_step(quad1d), quad1d)
    assert certs.stationarity_lower == 0.5
    assert not bounds.check(Criterion.stationarity(0.4), certs)
    assert "stationarity" not in vars(certs)
    # a record that already holds u is tested on u, with no bound
    held = certificates.Certificates(_one_step(quad1d), quad1d)
    assert held.stationarity.norm == 0.5
    assert not bounds.check(Criterion.stationarity(0.4), held)
    assert "stationarity_lower" not in vars(held)


def test_check_nan_raises(quad1d):
    state = dataclasses.replace(_one_step(quad1d), y=np.array([math.nan]))
    for criterion in (Criterion.function_gap(1.0), Criterion.stationarity(1.0),
                      Criterion.relative(1.0), Criterion.alternate_relative(1.0),
                      Criterion.absolute(1.0, 1.0)):
        with pytest.raises(NumericFailure, match="NaN"):
            bounds.check(criterion, certificates.Certificates(state, quad1d))


def test_check_residual_criteria(quad1d):
    # v_1 = 1, eta_1 = 1/4: lhs = 1.5; ||y - x0||^2 = ||v + y - x0||^2 = 1/4
    state = _one_step(quad1d)
    certs = certificates.Certificates(state, quad1d)
    assert bounds.check(Criterion.relative(7.0), certs)
    assert not bounds.check(Criterion.relative(5.0), certs)
    assert bounds.check(Criterion.alternate_relative(7.0), certs)
    assert not bounds.check(Criterion.alternate_relative(5.0), certs)
    assert bounds.check(Criterion.absolute(1.5, 0.3), certs)
    assert not bounds.check(Criterion.absolute(0.5, 0.3), certs)
    assert not bounds.check(Criterion.absolute(1.5, 0.2), certs)


def test_check_requires_certificates(quad1d):
    # before the first step neither residual exists
    state = engine.init(quad1d, engine.SolverConfig(lf=2.0), np.array([1.0]))
    certs = certificates.Certificates(state, quad1d)
    with pytest.raises(CertificateUndefinedError):
        bounds.check(Criterion.stationarity(1.0), certs)
    with pytest.raises(CertificateUndefinedError):
        bounds.check(Criterion.relative(1.0), certs)


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


def test_iters_for_a_frozen_values():
    assert bounds.iters_for_a(1.0, 1.0, 0.0, 0.0) == 2
    assert bounds.iters_for_a(4.0, 1.0, 0.0, 0.0) == 4
    # logarithmic branch wins: 1.5 * ln(e^2) + 1 = 4 < 2e
    assert bounds.iters_for_a(math.e**2, 1.0, 0.0, 1.0) == 4
    assert bounds.iters_for_a(0.0, 1.0, 0.0, 0.0) == 1
    assert bounds.iters_for_a(-3.0, 1.0, 0.0, 1.0) == 1


def test_iters_for_a_monotone_in_target():
    rng = _rng(21)
    for _ in range(50):
        lf = float(10.0 ** rng.uniform(-1, 2))
        mu_f = float(rng.uniform(0, lf * 0.9))
        mu = mu_f + float(rng.uniform(0, 2))
        targets = np.sort(10.0 ** rng.uniform(-3, 6, size=20))
        ks = [bounds.iters_for_a(float(t), lf, mu_f, mu) for t in targets]
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
    report = bounds.bound_function_gap(0.0, 1.0, 2.0, 0.0, 0.0)
    assert report.predicted_k == 1
    report = bounds.bound_function_gap(1.0, 0.5, 1.0, 0.0, 0.0)
    assert report.predicted_k == 2
    assert report.branch == "polynomial"
    assert report.constants["abar"] == 1.0
    assert report.constants["log_base"] == math.e
    assert bounds.bound_function_gap(1.0, 0.125, 1.0, 0.0, 0.0).predicted_k == 4
    with pytest.raises(ConfigError):
        bounds.bound_function_gap(-1.0, 1.0, 1.0, 0.0, 0.0)


def test_stationarity_predictor():
    report = bounds.bound_stationarity(1.0, 1.0, 2.0, 1.0, 0.0, 0.0)
    assert report.constants["zeta"] == 64.0
    assert report.constants["c"] == 1.0
    assert report.branch == "polynomial"
    assert report.predicted_k == 10  # ceil((12 * 64)^(1/3)) = ceil(9.158...)
    with pytest.raises(ConfigError):
        bounds.bound_stationarity(1.0, 1.0, 2.0, 2.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        bounds.bound_stationarity(-1.0, 1.0, 2.0, 1.0, 0.0, 0.0)


def test_stationarity_predictor_exact_cube():
    # ratio = 144 so the closed form is exactly 12; the ceil slop must not
    # bump a value that lands on an integer up to 13
    report = bounds.bound_stationarity(1.5, 1.0, 2.0, 1.0, 0.0, 0.0)
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
    report = bounds.bound_relative(1.0, 2.0, 1.0, 1.0)
    assert report.constants["abar"] == 4.0
    assert report.predicted_k == bounds.iters_for_a(4.0, 2.0, 1.0, 1.0)


def test_alternate_relative_predictor():
    report = bounds.bound_alternate_relative(1.0, 1.0, 2.0, 1.0)
    assert report.constants["cal_a"] == 20.0
    assert report.constants["sigma_tilde"] == 0.25
    # for large sigma the threshold approaches 2 mu + 3
    report = bounds.bound_alternate_relative(1.0, 1e12, 2.0, 1.0)
    assert abs(report.constants["cal_a"] - 5.0) <= 1e-5 * 5.0
    with pytest.raises(ConfigError):
        bounds.bound_alternate_relative(1.0, 0.0, 2.0, 1.0)


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
        bounds.bound_alternate_relative(1.0, 1.0, 2.0, 1.0)


def test_absolute_predictor():
    report = bounds.bound_absolute(1.0, 1.0, 1.0, 2.0, 0.0, 1.0)
    assert report.constants["big_m"] == 578.0  # (1 + 16)^2 * 2
    assert bounds.bound_absolute(0.0, 1.0, 1.0, 2.0, 0.0, 1.0).predicted_k == 1
    with pytest.raises(ConfigError):
        bounds.bound_absolute(1.0, 1.0, 1.0, 2.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        bounds.bound_absolute(-1.0, 1.0, 1.0, 2.0, 0.0, 1.0)


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
        report = bounds.bound_absolute(d0, eps, eta_tol, lf, mu_f, mu)
        big_b = 1.0 + 8.0 * (lf - mu_f) / mu
        needed = (8.0 / eps) * big_b * d0 \
            + (16.0 * mu / eps**2 + 2.0 / eta_tol) * big_b**2 * d0**2
        reached = bounds.coefficient_sum_lower(report.predicted_k, lf, mu_f, mu)
        assert reached >= needed * (1.0 - 1e-9)


def test_predicted_iterations_dispatch():
    crit = Criterion.relative(0.5)
    via_dispatch = bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 1.0)
    direct = bounds.bound_relative(0.5, 2.0, 0.0, 1.0)
    assert via_dispatch.predicted_k == direct.predicted_k
    crit = Criterion.alternate_relative(0.5)
    assert bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 1.0).predicted_k \
        == bounds.bound_alternate_relative(1.0, 0.5, 2.0, 0.0).predicted_k
    crit = Criterion.stationarity(1.0)
    assert bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 0.0,
                                       d0=1.0).predicted_k == 10
    for crit in (Criterion.function_gap(1.0), Criterion.stationarity(1.0),
                 Criterion.absolute(1.0, 1.0)):
        with pytest.raises(ConfigError):
            bounds.predicted_iterations(crit, 2.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# relative criterion fires at the predicted coefficient threshold
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name", ["lasso42_capture", "elastic_capture"])
def test_relative_threshold_first_crossing(request, fixture_name):
    capture = request.getfixturevalue(fixture_name)
    sigma_tilde = 0.1
    abar = bounds.abar_relative(capture.config.mu, sigma_tilde)
    crossing = next(k for k in range(1, capture.iterations + 1)
                    if capture.states[k].A >= abar)
    state = capture.states[crossing]
    row = capture.rows[crossing]
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
