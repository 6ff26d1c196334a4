"""Coefficient recursion, single steps, and the run loop."""

import dataclasses
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfista import bounds, certificates, engine, harness, problems
from sfista.errors import (ConfigError, GrowthOverflowError, InvalidStartError,
                           NumericFailure)


def _quad_config(lf=2.0, **kwargs):
    return engine.SolverConfig(lf=lf, **kwargs)


# ---------------------------------------------------------------------------
# configuration and initialization
# ---------------------------------------------------------------------------

def test_config_derived_quantities():
    config = engine.SolverConfig(lf=2.0, mu_f=0.0, mu_h=0.0)
    assert config.lam == 0.5
    assert config.mu == 0.0
    config = engine.SolverConfig(lf=3.0, mu_f=1.0, mu_h=0.25)
    assert config.lam == 0.5
    assert config.mu == 1.25


def test_config_derived_quantities_computed_once():
    # stored on the instance when it is made, not recomputed per read
    config = engine.SolverConfig(lf=3.0, mu_f=1.0, mu_h=0.25)
    assert {"lam", "mu"} <= set(vars(config))
    assert not hasattr(engine.SolverConfig, "lam")
    assert not hasattr(engine.SolverConfig, "mu")
    # replace makes a new config, which computes them anew
    moved = dataclasses.replace(config, lf=5.0, mu_h=0.5)
    assert moved.lam == 0.25 and moved.mu == 1.5
    assert (config.lam, config.mu) == (0.5, 1.25)


def test_config_repr_and_equality_see_the_fields_alone():
    config = engine.SolverConfig(lf=3.0, mu_f=1.0, mu_h=0.25)
    assert repr(config) == ("SolverConfig(lf=3.0, mu_f=1.0, mu_h=0.25, "
                            "max_iter=10000, criterion=None, trace_every=1)")
    assert [f.name for f in dataclasses.fields(config)] == [
        "lf", "mu_f", "mu_h", "max_iter", "criterion", "trace_every"]
    assert config == engine.SolverConfig(lf=3.0, mu_f=1.0, mu_h=0.25)
    assert config != engine.SolverConfig(lf=3.0, mu_f=1.0)
    assert hash(config) == hash(engine.SolverConfig(lf=3.0, mu_f=1.0,
                                                    mu_h=0.25))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.lam = 1.0


def test_config_that_init_rejects_is_still_made(quad1d):
    # lf == mu_f has no lam; the config is made, and init rejects it with
    # a ConfigError, not a ZeroDivisionError
    for lf in (1.0, 0.0):
        config = engine.SolverConfig(lf=lf, mu_f=lf)
        assert config.lam == math.inf
        with pytest.raises(ConfigError):
            engine.init(quad1d, config, np.array([1.0]))
    f = problems.SmoothOracle(value=lambda x: float(x @ x),
                              grad=lambda x: 2 * x, mu=2.0, curvature=1.0)
    steep = problems.CompositeProblem(f=f, h=problems.zero_function(),
                                      dimension=1)
    with pytest.raises(ConfigError, match="lf must strictly exceed mu_f"):
        engine.init(steep, engine.SolverConfig(lf=1.5, mu_f=1.5), np.ones(1))
    # non-finite and non-numeric constants are made too
    assert math.isnan(engine.SolverConfig(lf=math.nan).lam)
    assert engine.SolverConfig(lf=math.inf).lam == 0.0
    odd = engine.SolverConfig(lf="2")
    assert math.isnan(odd.lam) and math.isnan(odd.mu)


def test_config_for_problem_defaults(lasso42):
    config = engine.SolverConfig.for_problem(lasso42)
    assert config.lf == 1.25 * lasso42.f.curvature
    assert config.mu_f == 0.0
    assert config.mu_h == 0.0
    explicit = engine.SolverConfig.for_problem(lasso42, lf=1000.0, max_iter=5)
    assert explicit.lf == 1000.0
    assert explicit.max_iter == 5


def test_subproblem_weight_consistency():
    # 1/(2 lam) + mu_f / 2 must reconstruct lf / 2
    for lf, mu_f in [(2.0, 0.0), (3.5, 1.25), (746.0, 0.5)]:
        config = engine.SolverConfig(lf=lf, mu_f=mu_f)
        recon = 0.5 / config.lam + 0.5 * mu_f
        assert abs(recon - 0.5 * lf) <= 1e-12 * lf


def test_init_state(quad1d):
    state = engine.init(quad1d, _quad_config(), np.array([1.0]))
    assert state.k == 0
    assert state.A == 0.0
    assert state.tau == 1.0
    assert state.config.lam == 0.5
    assert state.config.mu == 0.0
    np.testing.assert_array_equal(state.x, [1.0])
    np.testing.assert_array_equal(state.y, [1.0])
    assert state.a_prev is None and state.x_tilde_prev is None


def test_init_validation(quad1d):
    x0 = np.array([1.0])
    with pytest.raises(ConfigError):
        engine.init(quad1d, _quad_config(lf=1.0), x0)  # not strictly above 1
    for lf in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            engine.init(quad1d, _quad_config(lf=lf), x0)
    with pytest.raises(ConfigError):
        engine.init(quad1d, _quad_config(mu_f=1.5), x0)  # above the modulus of f
    with pytest.raises(ConfigError):
        engine.init(quad1d, _quad_config(mu_h=0.1), x0)  # h is not strongly convex
    with pytest.raises(ConfigError):
        engine.init(quad1d, _quad_config(mu_f=-0.1), x0)
    with pytest.raises(ConfigError, match="max_iter must be nonnegative"):
        engine.init(quad1d, _quad_config(max_iter=-1), x0)
    # a float, whole or not, is refused by name, in init and in run
    for max_iter in (3.0, 2.5):
        with pytest.raises(ConfigError, match="max_iter must be an integer"):
            engine.init(quad1d, _quad_config(max_iter=max_iter), x0)
        with pytest.raises(ConfigError, match="max_iter must be an integer"):
            engine.run(quad1d, _quad_config(max_iter=max_iter), x0)
    # an integer numpy scalar runs
    result = engine.run(quad1d, _quad_config(max_iter=np.int64(3)), x0)
    assert (result.state.k, result.reason) == (3, "max_iter")
    for every in (0, 2.5, 2.0):
        with pytest.raises(ConfigError, match="trace_every must be a positive"):
            engine.init(quad1d, _quad_config(trace_every=every), x0)
    with pytest.raises(ValueError):
        engine.init(quad1d, _quad_config(), np.zeros(2))
    # mu_f within the modulus of f but not below lf: lam = 1 / (lf - mu_f)
    # has no positive value, so init rejects it before run takes a step
    f = problems.SmoothOracle(value=lambda x: float(x @ x),
                              grad=lambda x: 2 * x, mu=2.0, curvature=1.0)
    steep = problems.CompositeProblem(f=f, h=problems.zero_function(),
                                      dimension=3)
    for mu_f in (2.0, 1.5):
        with pytest.raises(ConfigError, match="lf must strictly exceed mu_f"):
            engine.run(steep, _quad_config(lf=1.5, mu_f=mu_f, max_iter=5),
                       np.ones(3))


def test_init_rejects_start_outside_domain():
    problem = problems.make_instance("box_qp", 0, 4, 4, diag=True,
                                     with_reference=False)
    with pytest.raises(InvalidStartError):
        engine.init(problem, engine.SolverConfig.for_problem(problem),
                    np.full(4, 3.0))
    # h is finite everywhere here, so only the finiteness check catches these
    net = problems.make_instance("elastic_net", 1, 20, 30, with_reference=False)
    config = engine.SolverConfig.for_problem(net)
    for bad in (np.full(30, math.nan), np.r_[math.inf, np.zeros(29)]):
        with pytest.raises(InvalidStartError):
            engine.init(net, config, bad)
    # only h(x0) = +inf means outside dom h: a NaN or -inf there is named,
    # where a NaN used to pass and -inf to read as outside the domain
    for value in (math.nan, -math.inf):
        def h_value(x, value=value):
            return value if not x.any() else net.h.value(x)

        faulty = dataclasses.replace(
            net, h=dataclasses.replace(net.h, value=h_value))
        with pytest.raises(InvalidStartError, match=(
                f"^h\\(x0\\) = {value} is neither finite nor \\+inf$")):
            engine.init(faulty, config, np.zeros(30))


def test_init_function_gap_needs_reference():
    problem = problems.make_instance("lasso", 0, 8, 10, with_reference=False)
    config = engine.SolverConfig.for_problem(
        problem, criterion=bounds.Criterion.function_gap(1e-3))
    with pytest.raises(ConfigError):
        engine.init(problem, config, np.zeros(10))


# ---------------------------------------------------------------------------
# coefficient recursion
# ---------------------------------------------------------------------------

def test_first_coefficients_mu_zero():
    # lam = 0.5, tau = 1, A = 0 -> a = lam
    sched = engine.coefficient_schedule(2.0, 0.0, 0.0, 1)
    assert sched.a[0] == 0.5
    assert sched.A[1] == 0.5
    assert sched.tau[1] == 1.0


def test_first_coefficients_mu_one():
    # lam = 1, tau = 1, A = 0, mu = 1 -> a = 1, A = 1, tau = 2
    sched = engine.coefficient_schedule(1.5, 0.5, 0.5, 1)
    assert sched.a[0] == 1.0
    assert sched.A[1] == 1.0
    assert sched.tau[1] == 2.0


def test_tau_stays_one_without_strong_convexity():
    sched = engine.coefficient_schedule(2.0, 0.0, 0.0, 500)
    assert np.all(sched.tau == 1.0)
    assert not sched.overflowed


def test_coefficient_root_property():
    # a solves a^2 / (lam tau) - a - A = 0
    for lf, mu_f, mu_h in [(2.0, 0.0, 0.0), (2.0, 1.0, 0.0), (5.0, 0.5, 1.5)]:
        lam = 1.0 / (lf - mu_f)
        sched = engine.coefficient_schedule(lf, mu_f, mu_h, 200)
        for k in range(len(sched.a)):
            a, A, tau = sched.a[k], sched.A[k], sched.tau[k]
            resid = a * a / (lam * tau) - a - A
            assert abs(resid) <= 1e-9 * (a + A + 1.0)


def test_factored_root_matches_display_form():
    # same root as (lam tau + sqrt((lam tau)^2 + 4 lam tau A)) / 2
    sched = engine.coefficient_schedule(2.0, 1.0, 0.0, 300)
    lam = 1.0
    for k in range(0, len(sched.a), 17):
        lt = lam * sched.tau[k]
        display = 0.5 * (lt + math.sqrt(lt * lt + 4.0 * lt * sched.A[k]))
        assert abs(sched.a[k] - display) <= 1e-12 * display


def test_schedule_overflow_halts():
    sched = engine.coefficient_schedule(2.0, 1.0, 0.0, 10**6)
    assert sched.overflowed
    assert sched.A[-1] <= engine.OVERFLOW_LIMIT
    assert len(sched.A) < 10**6
    with pytest.raises(ConfigError):
        engine.coefficient_schedule(1.0, 1.0, 0.0, 10)


@pytest.mark.parametrize("lf,mu_f,mu_h", [
    (math.nan, 0.0, 0.0), (2.0, 0.0, math.nan), (math.inf, 0.0, 0.0),
    (2.0, -1.0, 0.0), (2.0, 0.0, -0.5)])
def test_schedule_rejects_impossible_constants(lf, mu_f, mu_h):
    # unchecked, a NaN gave an all-NaN schedule, lf = inf a
    # ZeroDivisionError and a negative modulus a math domain error
    with pytest.raises(ConfigError):
        engine.coefficient_schedule(lf, mu_f, mu_h, 5)


def test_schedule_rejects_a_negative_step_count():
    # the rule and message of capture_run and equivalence_check
    with pytest.raises(ConfigError, match="step count -1 must be nonnegative"):
        engine.coefficient_schedule(2.0, 0.0, 0.0, -1)
    empty = engine.coefficient_schedule(2.0, 0.0, 0.0, 0)
    assert empty.a.size == 0 and not empty.overflowed


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_hand_step_one_dimensional(quad1d):
    state = engine.init(quad1d, _quad_config(), np.array([1.0]))
    state = engine.step(state, quad1d)
    assert state.y[0] == 0.5
    assert state.x[0] == 0.5
    assert state.A == 0.5
    assert state.k == 1
    assert state.a_prev == 0.5
    np.testing.assert_array_equal(state.x_tilde_prev, [1.0])
    # alternate expression: y_1 = (A_0 y_0 + a_0 x_1) / A_1 = x_1
    assert state.y[0] == state.x[0]


def test_affine_objective_reduces_to_gradient_shift():
    c = np.array([1.0, -2.0, 0.5])
    f = problems.SmoothOracle(value=lambda x: float(c @ x), grad=lambda x: c,
                              mu=0.0, curvature=0.0)
    problem = problems.CompositeProblem(f=f, h=problems.zero_function(),
                                        dimension=3)
    state = engine.init(problem, engine.SolverConfig(lf=1.0), np.zeros(3))
    for _ in range(5):
        state = engine.step(state, problem)
        np.testing.assert_array_equal(state.y, state.x_tilde_prev - c)


def test_alternate_y_expression_mu_zero(lasso42_capture):
    # y_{k+1} = (A_k y_k + a_k x_{k+1}) / A_{k+1} when mu = 0
    states = lasso42_capture.states
    for k in range(100):
        nxt = states[k + 1]
        blended = (states[k].A * states[k].y + nxt.a_prev * nxt.x) / nxt.A
        scale = max(1.0, float(np.linalg.norm(nxt.y)))
        assert float(np.linalg.norm(nxt.y - blended)) <= 1e-10 * scale


def _general_x_next(state, nxt):
    """The x of nxt, the step from state, by the general update's seven
    operations in their order:
    ((a / lam)(y_next - x_tilde) + mu a y_next + tau x) / tau_next."""
    config, a = state.config, nxt.a_prev
    x = nxt.y - nxt.x_tilde_prev
    x *= a / config.lam
    x += config.mu * a * nxt.y
    x += state.tau * state.x
    x /= nxt.tau
    return x


def test_mu_zero_step_is_the_general_update_bit_for_bit(lasso42_capture):
    # at mu = 0 step forms x + (a / lam)(y_next - x_tilde) alone
    states = lasso42_capture.states
    assert states[0].config.mu == 0.0
    for state, nxt in zip(states, states[1:]):
        assert nxt.tau == 1.0
        assert nxt.x.tobytes() == _general_x_next(state, nxt).tobytes()


# signed zeros, both signs of a subnormal and some finite reals
_SIGNED = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.75,
                           -3.5, 1e300, -1e300])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.lists(_SIGNED, min_size=8, max_size=8),
       y=st.lists(_SIGNED, min_size=8, max_size=8),
       y_next=st.lists(_SIGNED, min_size=8, max_size=8),
       A=st.sampled_from([0.0, 0.5, 3.0]), mu=st.sampled_from([0.0, -0.0]))
def test_mu_zero_step_keeps_the_sign_of_every_zero(x, y, y_next, A, mu):
    # f has a zero gradient, so the prox is handed x_tilde itself, and the
    # prox returns y_next whatever it is handed: x, y and y_next set every
    # sign the update sees, x_tilde = +0.0 where x = -0.0 and y = +0.0
    # included.  mu = -0.0 (both moduli -0.0) takes the general form.
    f = problems.SmoothOracle(value=lambda v: 0.0,
                              grad=lambda v: np.zeros_like(v), curvature=0.0)
    h = problems.ProxOracle(value=lambda v: 0.0,
                            prox=lambda v, t: np.array(y_next))
    problem = problems.CompositeProblem(f=f, h=h, dimension=8)
    config = engine.SolverConfig(lf=2.0, mu_f=mu, mu_h=mu)
    state = engine.IterateState(
        k=1, config=config, a_prev=0.5,
        a_next=engine._next_coefficient(config.lam, config.mu, 1.0, A), A=A,
        tau=1.0, x=np.array(x), y=np.array(y), x_tilde_prev=None,
        grad_tilde_prev=None, x0=np.zeros(8))
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = engine.step(state, problem)
        general = _general_x_next(state, nxt)
    assert nxt.x.tobytes() == general.tobytes()


def test_step_keeps_iterates_in_domain():
    problem = problems.make_instance("box_qp", 1, 6, 6, diag=True,
                                     with_reference=False)
    config = engine.SolverConfig.for_problem(problem)
    state = engine.init(problem, config, np.zeros(6))
    for _ in range(50):
        state = engine.step(state, problem)
        assert not math.isinf(problem.h.value(state.y))


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def test_run_max_iter_zero(quad1d):
    result = engine.run(quad1d, _quad_config(max_iter=0), np.array([1.0]))
    assert result.reason == "max_iter"
    assert result.state.k == 0
    assert len(result.trace) == 1 and result.trace[0].k == 0


def test_run_until_stationarity(lasso_small):
    rho = 1e-5 * (1.0 + lasso_small.f.curvature)
    config = engine.SolverConfig.for_problem(
        lasso_small, criterion=bounds.Criterion.stationarity(rho))
    result = engine.run(lasso_small, config, np.zeros(lasso_small.dimension))
    assert result.reason == "converged"
    final_u = certificates.stationarity_residual(result.state, lasso_small)
    assert final_u.norm <= rho
    # the certificate fired at the final iterate, not before
    assert result.trace[-1].k == result.state.k
    assert result.trace[-1].norm_u <= rho


def test_tiny_stationarity_stops_alike_at_every_spacing(quad1d):
    # ||u|| falls past 1e-162, where v.dot(v) underflows: the screen's lower
    # bound and ||u|| must still agree, so no spacing of the rows moves the
    # stop
    ends = []
    for every in (1, 5, 1000):
        config = engine.SolverConfig(
            lf=1.0 + 1e-7, mu_f=1.0, trace_every=every,
            criterion=bounds.Criterion.stationarity(1e-300))
        result = engine.run(quad1d, config, np.array([1.0]))
        ends.append((result.state.k, result.reason))
        assert result.trace[-1].norm_u > 0.0
    assert ends == [ends[0]] * 3


def test_run_function_gap_can_stop_at_start(quad1d):
    config = _quad_config(criterion=bounds.Criterion.function_gap(10.0))
    result = engine.run(quad1d, config, np.array([1.0]))
    assert result.reason == "converged"
    assert result.state.k == 0


def test_stop_reason_at_start_only_for_function_gap(quad1d):
    # at k = 0 the residuals are undefined; only the gap test reads the start
    loose = [bounds.Criterion.stationarity(10.0), bounds.Criterion.relative(10.0),
             bounds.Criterion.alternate_relative(10.0),
             bounds.Criterion.absolute(10.0, 10.0), None]
    for criterion in loose + [bounds.Criterion.function_gap(10.0)]:
        config = _quad_config(criterion=criterion, max_iter=0)
        result = engine.run(quad1d, config, np.array([1.0]))
        assert result.state.k == 0
        assert result.reason == ("max_iter" if criterion in loose
                                 else "converged")


def test_stop_reason_tests_the_objective_of_row_zero(quad1d):
    # the k = 0 exemption covers the certificates, not the row's phi_y:
    # a non-finite phi(x0) stops every run there, traced or not
    criteria = [None, bounds.Criterion.function_gap(10.0),
                bounds.Criterion.stationarity(10.0),
                bounds.Criterion.relative(10.0),
                bounds.Criterion.alternate_relative(10.0),
                bounds.Criterion.absolute(10.0, 10.0)]
    for value in NON_FINITE:
        f = dataclasses.replace(quad1d.f, value=lambda x, value=value: value)
        bad = dataclasses.replace(quad1d, f=f)
        for criterion, every in itertools.product(criteria, (1, 1000)):
            config = _quad_config(criterion=criterion, max_iter=5,
                                  trace_every=every)
            result = engine.run(bad, config, np.array([1.0]))
            assert (result.state.k, result.reason) == (0, "numeric_failure")
    config = _quad_config(max_iter=0)
    assert engine.run(quad1d, config, np.array([1.0])).reason == "max_iter"


def test_iterate_yields_init_then_each_step(elastic_mu1):
    config = engine.SolverConfig.for_problem(elastic_mu1)
    x0 = np.zeros(elastic_mu1.dimension)
    states = list(itertools.islice(engine.iterate(elastic_mu1, config, x0), 6))
    state = engine.init(elastic_mu1, config, x0)
    for k, got in enumerate(states):
        assert got.k == k
        np.testing.assert_array_equal(got.x, state.x)
        np.testing.assert_array_equal(got.y, state.y)
        state = engine.step(state, elastic_mu1)


def test_iterate_ends_at_growth_overflow(quad1d):
    config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0)
    states = list(engine.iterate(quad1d, config, np.array([1.0])))
    assert 0 < states[-1].k < 100
    assert [s.k for s in states] == list(range(len(states)))
    with pytest.raises(GrowthOverflowError):
        engine.step(states[-1], quad1d)


def test_states_carry_the_coefficient_their_next_step_takes(quad1d, run_rows):
    # the quad1d halt: 42 steps, then a coefficient sum past the limit; each
    # state's a_next is the next state's a_prev, bit for bit, and the
    # schedule run in isolation gives the same a, A and tau
    lf = 1.0 + 1e-7
    states = list(engine.iterate(quad1d, engine.SolverConfig(lf=lf, mu_f=1.0),
                                 np.array([1.0])))
    assert len(states) == 43
    bits = lambda values: np.array(values, dtype=float).tobytes()
    a = bits([s.a_next for s in states[:-1]])
    assert a == bits([s.a_prev for s in states[1:]])
    assert states[-1].a_next == math.inf
    capture = harness.capture_run(quad1d, engine.SolverConfig(lf=lf, mu_f=1.0),
                                  np.array([1.0]), 100)
    assert capture.overflowed and run_rows(capture)[-1].a == math.inf
    sched = engine.coefficient_schedule(lf, 1.0, 0.0, 10**4)
    assert sched.overflowed
    assert bits(sched.a) == a
    assert bits(sched.A) == bits([s.A for s in states])
    assert bits(sched.tau) == bits([s.tau for s in states])


def test_run_rejects_negative_max_iter(quad1d):
    for max_iter in (-1, -5):
        with pytest.raises(ConfigError):
            engine.run(quad1d, _quad_config(max_iter=max_iter), np.array([1.0]))


def test_run_growth_overflow():
    f = problems.quadratic(np.array([[1.0]]), np.zeros(1), mu=1.0,
                           curvature=1.0)
    problem = problems.CompositeProblem(f=f, h=problems.zero_function(),
                                        dimension=1)
    config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0, max_iter=1000)
    result = engine.run(problem, config, np.array([1.0]))
    assert result.reason == "growth_overflow"
    assert 0 < result.state.k < 100
    assert result.state.A <= engine.OVERFLOW_LIMIT


def test_run_stops_on_nan_gradient(nan_gradient_net):
    problem = nan_gradient_net
    config = engine.SolverConfig.for_problem(
        problem, max_iter=500, criterion=bounds.Criterion.stationarity(1e-6))
    result = engine.run(problem, config, np.zeros(problem.dimension))
    assert result.reason == "numeric_failure"
    assert result.state.k == 1
    assert [r.k for r in result.trace] == [0, 1]


def test_run_without_criterion_stops_on_nan_iterate(nan_gradient_net):
    problem = nan_gradient_net
    config = engine.SolverConfig.for_problem(problem, max_iter=500)
    result = engine.run(problem, config, np.zeros(problem.dimension))
    assert result.reason == "numeric_failure"
    assert result.state.k == 1
    assert [r.k for r in result.trace] == [0, 1]


# what f.value returns in the runs whose objective stops being finite
NON_FINITE = (math.nan, math.inf, -math.inf)


def _with_value(problem, value, spared=None):
    """problem with an f.value that returns value everywhere but at spared.

    At the point spared, if any, f.value keeps its own value, so phi(x0)
    stays finite in a run that starts there.
    """
    own = problem.f.value
    faulty = (lambda x: value) if spared is None else (
        lambda x: own(x) if np.array_equal(x, spared) else value)
    return dataclasses.replace(
        problem, f=dataclasses.replace(problem.f, value=faulty))


def test_run_without_criterion_stops_on_nan_traced_objective(
        elastic_net_20x30):
    # every traced row holds phi(y), so a NaN or infinite one stops the run
    # at no extra oracle call; y itself stays finite
    for value in NON_FINITE:
        problem = _with_value(elastic_net_20x30, value,
                              spared=np.zeros(elastic_net_20x30.dimension))
        config = engine.SolverConfig.for_problem(problem, max_iter=500)
        result = engine.run(problem, config, np.zeros(problem.dimension))
        assert result.reason == "numeric_failure", value
        assert result.state.k == 1
        assert np.isfinite(result.state.y).all()
        assert [r.k for r in result.trace] == [0, 1]
        np.testing.assert_equal(result.trace[-1].phi_y, value)


@pytest.mark.parametrize("trace_every", [50, 1000])
def test_run_without_criterion_tests_final_objective(elastic_net_20x30,
                                                     trace_every):
    # the final row is tested too, so the stop reason does not depend on
    # whether trace_every divides max_iter; phi(x0) is finite, so row 0
    # passes
    for value in NON_FINITE:
        problem = _with_value(elastic_net_20x30, value,
                              spared=np.zeros(elastic_net_20x30.dimension))
        config = engine.SolverConfig.for_problem(problem, max_iter=50,
                                                 trace_every=trace_every)
        result = engine.run(problem, config, np.zeros(problem.dimension))
        assert result.reason == "numeric_failure", value
        assert result.state.k == 50
        assert [r.k for r in result.trace] == [0, 50]
        np.testing.assert_equal(result.trace[-1].phi_y, value)


@pytest.mark.parametrize("value", [-math.inf, math.inf])
def test_function_gap_run_stops_on_infinite_objective(value):
    # a gap of -inf would pass the test and +inf fail every later one:
    # both stop the run at k = 0, where function_gap is first tested
    problem = _with_value(problems.make_instance("elastic_net", 1, 20, 30),
                          value)
    config = engine.SolverConfig.for_problem(
        problem, max_iter=500, criterion=bounds.Criterion.function_gap(1e-6))
    result = engine.run(problem, config, np.zeros(problem.dimension))
    assert result.reason == "numeric_failure"
    assert result.state.k == 0
    assert result.trace[-1].gap == value


@pytest.mark.parametrize("trace_every", [1, 1000])
@pytest.mark.parametrize("max_iter", [0, 500])
def test_run_tests_the_objective_of_row_zero(nan_at_origin_net, max_iter,
                                             trace_every):
    # row 0, which every run builds, holds phi(x0) = NaN and stops the run
    # under a criterion that tests only from k = 1 on
    problem = nan_at_origin_net
    config = engine.SolverConfig.for_problem(
        problem, max_iter=max_iter, trace_every=trace_every,
        criterion=bounds.Criterion.stationarity(1e-6))
    result = engine.run(problem, config, np.zeros(problem.dimension))
    assert (result.reason, result.state.k) == ("numeric_failure", 0)
    assert [r.k for r in result.trace] == [0]
    assert math.isnan(result.trace[-1].phi_y)


def test_run_without_criterion_tests_final_objective_at_overflow(quad1d):
    # the same rule when the coefficient growth, not max_iter, ends the run
    for value in NON_FINITE:
        problem = _with_value(quad1d, value, spared=np.array([1.0]))
        config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0, max_iter=1000,
                                     trace_every=1000)
        result = engine.run(problem, config, np.array([1.0]))
        assert result.reason == "numeric_failure", value
        assert 0 < result.state.k < 100
        assert [r.k for r in result.trace] == [0, result.state.k]
        np.testing.assert_equal(result.trace[-1].phi_y, value)


@pytest.mark.parametrize("trace_every", [1, 1000])
def test_run_tests_the_last_y_at_every_spacing(trace_every):
    # f.value ignores the NaN of y and f.grad is NaN everywhere: after one
    # step y is all NaN while phi(y) = 0 = phi*, so function_gap holds at
    # k = 1; the last y is tested whether or not its row is traced
    f = problems.SmoothOracle(value=lambda x: float(np.sum(np.nan_to_num(x))),
                              grad=lambda x: np.full_like(x, math.nan),
                              curvature=1.0)
    problem = problems.CompositeProblem(
        f=f, h=problems.zero_function(), dimension=3,
        reference_optimum=problems.ReferenceOptimum(0.0, np.zeros(3)))
    config = engine.SolverConfig(
        lf=2.0, max_iter=5, trace_every=trace_every,
        criterion=bounds.Criterion.function_gap(1e-3))
    result = engine.run(problem, config, np.ones(3))
    assert (result.reason, result.state.k) == ("numeric_failure", 1)
    assert np.isnan(result.state.y).all()
    assert _run_eagerly(problem, config, np.ones(3))[:2] == (
        1, "numeric_failure")


def test_states_and_records_have_no_instance_dict(quad1d):
    result = engine.run(quad1d, _quad_config(max_iter=3), np.array([1.0]))
    for obj in (result.state, result.trace[-1]):
        assert not hasattr(obj, "__dict__")
    # replace still works on both
    assert dataclasses.replace(result.state, k=7).k == 7
    assert dataclasses.replace(result.trace[-1], k=7).k == 7


def test_run_trace_spacing(quad1d):
    config = _quad_config(max_iter=23, trace_every=7)
    result = engine.run(quad1d, config, np.array([1.0]))
    assert [r.k for r in result.trace] == [0, 7, 14, 21, 23]
    config = _quad_config(max_iter=21, trace_every=7)
    result = engine.run(quad1d, config, np.array([1.0]))
    assert [r.k for r in result.trace] == [0, 7, 14, 21]


def test_final_row_independent_of_trace_spacing(elastic_mu1):
    # a converged run off a trace step still records both certificates
    x0 = np.zeros(elastic_mu1.dimension)
    finals = []
    for every in (1, 1000):
        config = engine.SolverConfig.for_problem(
            elastic_mu1, criterion=bounds.Criterion.stationarity(1e-6),
            trace_every=every)
        result = engine.run(elastic_mu1, config, x0)
        assert result.reason == "converged"
        finals.append(dataclasses.replace(result.trace[-1], elapsed_ns=0))
    assert finals[1].k == 205 and finals[1].norm_v is not None
    assert finals[0] == finals[1]


@pytest.mark.parametrize("trace_every", [1, 7, 1000])
def test_final_row_holds_the_final_state_certificates(trace_every):
    # the final row is formed at the final state, from its own certificates
    # or those its test formed, never from an earlier state's
    problem = problems.make_instance("lasso", 3, 20, 30, with_reference=False)
    config = engine.SolverConfig.for_problem(
        problem, criterion=bounds.Criterion.stationarity(1e-12),
        max_iter=100, trace_every=trace_every)
    result = engine.run(problem, config, np.zeros(problem.dimension))
    state, final = result.state, result.trace[-1]
    assert result.reason == "max_iter" and final.k == state.k == 100
    pair = certificates.residual_pair(state)
    got = (final.phi_y, final.norm_u, final.norm_v, final.eta_residual)
    expected = (problems.eval_phi(problem, state.y),
                certificates.stationarity_residual(state, problem).norm,
                pair.norm, pair.eta)
    assert struct.pack("4d", *got) == struct.pack("4d", *expected)


def test_trace_records_are_monotone(lasso_small):
    config = engine.SolverConfig.for_problem(lasso_small, max_iter=40)
    result = engine.run(lasso_small, config, np.zeros(lasso_small.dimension))
    ks = [r.k for r in result.trace]
    As = [r.A for r in result.trace]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    assert all(b > a for a, b in zip(As, As[1:]))
    assert result.trace[0].norm_u is None
    assert result.trace[1].norm_u is not None
    assert all(r.gap is not None for r in result.trace)


def test_strongly_convex_iteration_growth(elastic_mu1):
    """With mu = 1 the iterations to a gap tolerance grow like log(1/eps)."""
    x0 = np.zeros(elastic_mu1.dimension)
    counts = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        config = engine.SolverConfig.for_problem(
            elastic_mu1, criterion=bounds.Criterion.function_gap(eps))
        result = engine.run(elastic_mu1, config, x0)
        assert result.reason == "converged"
        counts.append(result.state.k)
    increments = [b - a for a, b in zip(counts, counts[1:])]
    assert all(inc >= 0 for inc in increments)
    positive = [inc for inc in increments if inc > 0]
    assert positive
    # roughly constant increments per factor 100, never blowing up like 1/sqrt(eps)
    assert max(increments) <= 2.0 * min(positive) + 5


def test_sign_flips_keep_every_iterate_on_a_tall_design():
    # a tall design takes the Gram-form gradient; negation stays exact
    # through G = A^T A and c = A^T b, so each flipped iterate is exact too
    problem = problems.make_instance("elastic_net", seed=5, m=60, n=40,
                                     ridge=0.5, with_reference=False)
    A, b = problem.spec.data["A"], problem.spec.data["b"]
    rng = np.random.default_rng(11)
    rows = rng.choice((-1.0, 1.0), size=60)
    cols = rng.choice((-1.0, 1.0), size=40)
    f = problems.least_squares((rows[:, None] * A) * cols[None, :], rows * b,
                               ridge=0.5, curvature=problem.f.curvature)
    flipped = dataclasses.replace(problem, f=f)
    config = engine.SolverConfig.for_problem(
        problem, criterion=bounds.Criterion.stationarity(1e-8))
    base = engine.run(problem, config, np.zeros(40))
    moved = engine.run(flipped, config, np.zeros(40))
    assert base.reason == "converged" and moved.state.k == base.state.k
    assert np.array_equal(cols * moved.state.y, base.state.y)
    assert np.array_equal(cols * moved.state.x, base.state.x)
    assert [r.phi_y for r in moved.trace] == [r.phi_y for r in base.trace]


# ---------------------------------------------------------------------------
# run against an eager reference
# ---------------------------------------------------------------------------

def _run_eagerly(problem, config, x0):
    """(k, reason, rows) of `run`, rebuilt eagerly.

    phi(y), u and (v, eta) are formed at every state straight from the
    problem and the certificates module, each row is built here, and the
    criterion's test is handed all three, so it forms nothing and, with u
    held, runs no screen: `run`'s screen, its lazy forming and its row
    former are checked against code that shares none of them.
    """
    ref = problem.reference_optimum
    test = bounds.stop_test(config.criterion, problem, config)
    rows = []
    for state in itertools.islice(engine.iterate(problem, config, x0),
                                  config.max_iter + 1):
        k = state.k
        phi_y = problems.eval_phi(problem, state.y)
        u = pair = None
        if k:
            u = certificates.stationarity_residual(state, problem)
            pair = certificates.residual_pair(state)
        row = engine.TraceRecord(
            k, state.a_next, state.A, state.tau, phi_y,
            None if ref is None else phi_y - ref.phi_star,
            None if u is None else u.norm, None if pair is None else pair.norm,
            None if pair is None else pair.eta, 0)
        traced = k % config.trace_every == 0
        if traced:
            rows.append(row)
        reason = None
        if traced and not math.isfinite(phi_y):
            reason = "numeric_failure"
        else:
            try:
                if test(state, [phi_y, u, pair]):
                    reason = "converged"
            except NumericFailure:
                reason = "numeric_failure"
        if reason is not None:
            break
    else:
        reason = ("max_iter" if state.k == config.max_iter
                  else "growth_overflow")
    if not traced:
        rows.append(row)
    # the final row's objective and the last y, at any spacing
    if not (math.isfinite(phi_y) and np.isfinite(state.y).all()):
        reason = "numeric_failure"
    return state.k, reason, rows


Criterion = bounds.Criterion
# a reference optimum and mu = 1: each criterion converges, and without one
# the run goes to max_iter
WITH_REFERENCE = [
    (None, 300, "max_iter"),
    (Criterion.function_gap(1e-8), 136, "converged"),
    (Criterion.stationarity(1e-6), 205, "converged"),
    (Criterion.relative(1e-6), 196, "converged"),
    (Criterion.alternate_relative(1e-6), 196, "converged"),
    (Criterion.absolute(1e-5, 1e-8), 267, "converged"),
]
# no reference optimum: no gap in any row, and no function_gap run
WITHOUT_REFERENCE = [
    (None, 300, "max_iter"),
    (Criterion.stationarity(1e-3), 107, "converged"),
    (Criterion.relative(1e-2), 20, "converged"),
    (Criterion.alternate_relative(1e-2), 20, "converged"),
    (Criterion.absolute(0.1, 0.1), 167, "converged"),
]


def _untimed(rows):
    """_bits of each row, elapsed_ns set to 0."""
    return [_bits(dataclasses.replace(r, elapsed_ns=0)) for r in rows]


def _at(runs, k, reason):
    """runs with every stop replaced by (k, reason)."""
    return [(criterion, k, reason) for criterion, _, _ in runs]


@pytest.mark.parametrize("trace_every", [1, 3])
@pytest.mark.parametrize("fixture_name, runs", [
    ("elastic_mu1", WITH_REFERENCE),
    ("lasso_norm", WITHOUT_REFERENCE),
    # phi(x0) is NaN: row 0 stops every run
    ("nan_at_origin_net", _at(WITH_REFERENCE, 0, "numeric_failure")),
    # the first step's gradient is NaN: every run stops at k = 1
    ("nan_gradient_net", _at(WITHOUT_REFERENCE, 1, "numeric_failure")),
])
def test_run_rows_are_the_record_rows(request, fixture_name, runs,
                                      trace_every):
    # the run keeps no record per state and forms only what its rows and
    # test read, yet each of its rows equals the eager reference's row of
    # the same state bit for bit, elapsed_ns aside, and it stops where the
    # reference first gives a reason; under trace_every = 3 most final
    # rows fall off the spacing
    problem = request.getfixturevalue(fixture_name)
    x0 = np.zeros(problem.dimension)
    for criterion, k, reason in runs:
        config = engine.SolverConfig.for_problem(
            problem, criterion=criterion, max_iter=300,
            trace_every=trace_every)
        result = engine.run(problem, config, x0)
        assert (result.state.k, result.reason) == (k, reason), criterion
        expected = _run_eagerly(problem, config, x0)
        assert expected[:2] == (k, reason)
        assert [r.k for r in result.trace] == sorted(
            {*range(0, k + 1, trace_every), k})
        assert _untimed(result.trace) == _untimed(expected[2]), criterion


def test_run_rows_are_the_record_rows_at_a_growth_halt(quad1d):
    # the quad1d halt after 42 steps, which every criterion but function_gap
    # and stationarity reaches; 8 and 42 are off a spacing of 5
    runs = [(None, 42), (Criterion.function_gap(1e-100), 8),
            (Criterion.stationarity(1e-100), 15),
            (Criterion.relative(1e-300), 42),
            (Criterion.alternate_relative(1e-300), 42),
            (Criterion.absolute(1e-300, 1e-300), 42)]
    for trace_every in (1, 5):
        for criterion, k in runs:
            config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0,
                                         max_iter=1000, criterion=criterion,
                                         trace_every=trace_every)
            result = engine.run(quad1d, config, np.array([1.0]))
            reason = "growth_overflow" if k == 42 else "converged"
            assert (result.state.k, result.reason) == (k, reason)
            expected = _run_eagerly(quad1d, config, np.array([1.0]))
            assert expected[:2] == (k, reason)
            assert _untimed(result.trace) == _untimed(expected[2])


# ---------------------------------------------------------------------------
# trace rows
# ---------------------------------------------------------------------------

def _bits(record):
    """Each field's bytes as a double, None kept, and the int fields' types."""
    values = dataclasses.astuple(record)
    return ([None if v is None else struct.pack("<d", v) for v in values],
            type(record.k), type(record.elapsed_ns))


def _state_rows(problem, config, x0, last_k):
    """The rows of a run that ends at last_k, each formed from the state
    `iterate` yields: its own k, a_next, A and tau, its `row_certificates`
    and phi*; elapsed_ns is 0."""
    ref = problem.reference_optimum
    phi_star = None if ref is None else ref.phi_star
    fused = problem.f.fused()
    rows = []
    for state in itertools.islice(engine.iterate(problem, config, x0),
                                  last_k + 1):
        if state.k % config.trace_every and state.k != last_k:
            continue
        phi_y, u, pair = engine.row_certificates(state, problem, fused)
        rows.append(engine.TraceRecord(
            state.k, state.a_next, state.A, state.tau, phi_y,
            None if phi_star is None else phi_y - phi_star,
            None if u is None else u.norm, None if pair is None else pair.norm,
            None if pair is None else pair.eta, 0))
    return rows


def _box_halt():
    # the 2x2 diagonal box_qp, whose coefficients overflow at k = 869
    return problems.make_instance("box_qp", 3, 2, 2, diag=True)


def _logistic():
    return problems.make_instance("logistic_l2", 4, 60, 40)


@pytest.mark.parametrize("make, every, rho, stop", [
    # max_iter ends the lasso off the spacing of 7
    ("lasso42", 1, 1e-6, (300, "max_iter")),
    ("lasso42", 7, 1e-6, (300, "max_iter")),
    ("elastic_mu1", 1, 1e-6, (205, "converged")),
    ("elastic_mu1", 13, 1e-6, (205, "converged")),
    # the last row's a is inf
    (_box_halt, 1, None, (869, "growth_overflow")),
    # no reference: gap None on every row
    ("lasso_norm", 3, 1e-3, (107, "converged")),
    (_logistic, 3, None, (793, "growth_overflow")),
    # phi_y NaN on row 0, the one row
    ("nan_value_net", 1, 1e-6, (0, "numeric_failure")),
], ids=["lasso-1", "lasso-7", "net-1", "net-13", "box-halt", "no-reference",
        "logistic-3", "nan-value"])
def test_trace_rows_are_formed_from_the_states(request, make, every, rho,
                                               stop, trace_printed_by_columns):
    # a Trace stores A, phi_y, the certificates and elapsed_ns, and forms k,
    # a, tau and gap when a row is read: each equals the state's own bit
    # for bit, and so does the rest of the row
    problem = request.getfixturevalue(make) if isinstance(make, str) \
        else make()
    config = engine.SolverConfig.for_problem(
        problem, max_iter=300 if rho else 2000, trace_every=every,
        criterion=rho and bounds.Criterion.stationarity(rho))
    x0 = np.zeros(problem.dimension)
    result = engine.run(problem, config, x0)
    assert (result.state.k, result.reason) == stop
    trace = result.trace
    assert _untimed(trace) == _untimed(
        _state_rows(problem, config, x0, result.state.k))
    # the k = 0 row reads its certificates back as None, later rows hold both
    assert trace[0].norm_u is trace[0].norm_v is trace[0].eta_residual is None
    assert all(r.norm_u is not None and r.eta_residual is not None
               for r in trace[1:])
    assert (trace[-1].a == math.inf) == (result.reason == "growth_overflow")
    assert all((r.gap is None) == (problem.reference_optimum is None)
               for r in trace)
    assert math.isnan(trace[-1].phi_y) == (make == "nan_value_net")
    trace_printed_by_columns(trace)


def test_trace_is_read_by_index_and_slice(lasso_small):
    # rows k = 0, 3, ..., 18 and the final row, k = 20
    config = engine.SolverConfig.for_problem(lasso_small, max_iter=20,
                                             trace_every=3)
    trace = engine.run(lasso_small, config,
                       np.zeros(lasso_small.dimension)).trace
    records = list(trace)
    assert len(trace) == 8 and [r.k for r in records] == [*range(0, 19, 3), 20]
    for index in (0, 1, 7, -1, -2, -8):
        assert trace[index] == records[index]
    assert trace[1:3] == records[1:3] and trace[-3::-2] == records[-3::-2]
    assert trace[::-1] == records[::-1] and trace[8:] == []
    assert isinstance(trace[1:3], list)
    for index in (8, -9, 100):
        with pytest.raises(IndexError):
            trace[index]


def test_trace_keeps_elapsed_ns_exact_to_2_53(monkeypatch, lasso_small):
    # elapsed_ns is stored as a double: every int below 2**53 reads back
    # as the same int
    ticks = itertools.chain([0], itertools.repeat(2**53 - 1))
    config = engine.SolverConfig.for_problem(lasso_small, max_iter=3)
    with monkeypatch.context() as patch:
        patch.setattr(engine.time, "perf_counter_ns", lambda: next(ticks))
        trace = engine.run(lasso_small, config,
                           np.zeros(lasso_small.dimension)).trace
    assert [r.elapsed_ns for r in trace] == [2**53 - 1] * 4
    assert {type(r.elapsed_ns) for r in trace} == {int}
    assert harness.format_trace(trace).endswith(",9007199254740991\n")


def test_traced_run_keeps_under_128_bytes_a_row(lasso42):
    # a row stores six doubles, 48 B, and the whole run peaks under 72 B a
    # row; ten packed doubles peaked at 94.5 B, a list of TraceRecords at
    # about 360 B
    config = engine.SolverConfig.for_problem(
        lasso42, max_iter=2000, criterion=bounds.Criterion.stationarity(1e-6))
    x0 = np.zeros(lasso42.dimension)
    engine.run(lasso42, config, x0)
    tracemalloc.start()
    try:
        result = engine.run(lasso42, config, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.trace) == 2001
    assert peak < 72 * len(result.trace)
