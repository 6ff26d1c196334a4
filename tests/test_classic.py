"""Momentum schedules and the zero-modulus reformulations."""

import math

import numpy as np
import pytest

from sfista import classic, engine, problems
from sfista.errors import ConfigError


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# t-schedule
# ---------------------------------------------------------------------------

def test_t_next_closed_form():
    assert classic.t_next(1.0) == (1.0 + math.sqrt(5.0)) / 2.0
    with pytest.raises(ValueError):
        classic.t_next(0.5)


def test_t_quadratic_residual():
    rng = _rng(31)
    ts = [1.0] + [float(10.0 ** rng.uniform(0, 6)) for _ in range(50)]
    for t in ts:
        for _ in range(100):
            t2 = classic.t_next(t)
            residual = t2 * t2 - t2 - t * t
            assert abs(residual) <= 1e-12 * max(1.0, t2 * t2)
            t = t2


def test_t_grows_linearly():
    t = 1.0
    for k in range(200):
        assert t >= (k + 2) / 2.0 - 1e-9 * t
        t_new = classic.t_next(t)
        assert t_new >= t + 0.5 - 1e-9 * t
        t = t_new


# ---------------------------------------------------------------------------
# alpha-schedule
# ---------------------------------------------------------------------------

def test_alpha_next_closed_form():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert abs(classic.alpha_next(1.0) - golden) <= 1e-15
    with pytest.raises(ValueError):
        classic.alpha_next(0.0)
    with pytest.raises(ValueError):
        classic.alpha_next(1.5)


def test_alpha_quadratic_relation():
    rng = _rng(32)
    for _ in range(1000):
        a = float(rng.uniform(1e-6, 1.0))
        a2 = classic.alpha_next(a)
        assert 0.0 < a2 < a  # momentum weight grows as alpha shrinks
        residual = a2 * a2 - (1.0 - a2) * a * a
        assert abs(residual) <= 1e-12 * max(a * a, a2 * a2)


def test_alpha_is_reciprocal_t():
    for t in (1.0, 2.0, 10.0):
        assert abs(classic.alpha_next(1.0 / t) - 1.0 / classic.t_next(t)) <= 1e-12


def test_schedules_stay_reciprocal_in_lockstep():
    t = 1.0
    a = 1.0
    for _ in range(100):
        t = classic.t_next(t)
        a = classic.alpha_next(a)
        assert abs(a * t - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# classical steps
# ---------------------------------------------------------------------------

def test_init_and_form_validation():
    state = classic.classic_init(np.ones(3))
    assert state.k == 0
    assert state.value == 1.0
    np.testing.assert_array_equal(state.x_tilde, np.ones(3))
    with pytest.raises(ConfigError):
        classic.classic_init(np.ones(3), form="gamma")


@pytest.mark.parametrize("form", ["t", "alpha"])
def test_first_step_has_no_momentum(quad1d, form):
    # the initial schedule value 1 zeroes the extrapolation weight
    state = classic.classic_init(np.array([1.0]), form)
    state = classic.classic_step(state, quad1d, 2.0)
    np.testing.assert_array_equal(state.x_tilde, state.y)
    assert state.y[0] == 0.5


def test_stagnation_pins_extrapolation(quad1d):
    # starting at the minimizer every prox step returns it, so x_tilde = y
    state = classic.classic_init(np.zeros(1))
    for _ in range(5):
        state = classic.classic_step(state, quad1d, 2.0)
        assert state.y[0] == 0.0
        assert state.x_tilde[0] == 0.0


def test_step_rejects_loose_curvature(quad1d):
    state = classic.classic_init(np.array([1.0]))
    with pytest.raises(ConfigError):
        classic.classic_step(state, quad1d, 0.5)


def test_run_returns_all_states(quad1d):
    states = [classic.classic_init(np.array([1.0]))]
    for _ in range(5):
        states.append(classic.classic_step(states[-1], quad1d, 2.0))
    assert len(states) == 6
    assert [s.k for s in states] == list(range(6))


def test_t_and_alpha_forms_agree(lasso_norm):
    lf = 1.25 * lasso_norm.f.curvature
    x0 = np.zeros(lasso_norm.dimension)
    t_states = [classic.classic_init(x0, "t")]
    a_states = [classic.classic_init(x0, "alpha")]
    for _ in range(100):
        t_states.append(classic.classic_step(t_states[-1], lasso_norm, lf))
        a_states.append(classic.classic_step(a_states[-1], lasso_norm, lf))
    for ts, alphas in zip(t_states[1:], a_states[1:]):
        scale = max(1.0, float(np.linalg.norm(ts.x_tilde)))
        assert float(np.linalg.norm(ts.x_tilde - alphas.x_tilde)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# agreement with the two-sequence solver
# ---------------------------------------------------------------------------

def test_equivalence_trivial_first_step(quad1d):
    worst = classic.equivalence_check(quad1d, np.array([1.0]), 2.0, 1)
    assert worst <= 1e-12


def test_equivalence_on_seeded_instance(lasso_norm):
    lf = 1.25 * lasso_norm.f.curvature
    worst = classic.equivalence_check(lasso_norm, np.zeros(lasso_norm.dimension),
                                      lf, 100)
    assert worst <= 1e-9


def test_equivalence_rejects_negative_step_count(quad1d):
    with pytest.raises(ConfigError):
        classic.equivalence_check(quad1d, np.array([1.0]), 2.0, -1)


def test_t_recovered_from_coefficients(lasso_norm):
    # within a zero-modulus run, t_k = a_k / lam = A_{k+1} / a_k
    lf = 1.25 * lasso_norm.f.curvature
    config = engine.SolverConfig(lf=lf)
    state = engine.init(lasso_norm, config, np.zeros(lasso_norm.dimension))
    t = 1.0
    for _ in range(100):
        state = engine.step(state, lasso_norm)
        assert abs(state.a_prev / config.lam - t) <= 1e-10 * t
        assert abs(state.A / state.a_prev - t) <= 1e-10 * t
        t = classic.t_next(t)
