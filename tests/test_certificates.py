"""Stationarity residual, approximate-subgradient pair, and lower model."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sfista import bounds, certificates, engine, harness, problems
from sfista.errors import CertificateUndefinedError
from sfista.problems import eval_phi


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _one_step(quad1d):
    state = engine.init(quad1d, engine.SolverConfig(lf=2.0), np.array([1.0]))
    state = engine.step(state, quad1d)
    return state


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------

def test_residuals_undefined_at_start(quad1d):
    state = engine.init(quad1d, engine.SolverConfig(lf=2.0), np.array([1.0]))
    with pytest.raises(CertificateUndefinedError):
        certificates.stationarity_residual(state, quad1d)
    with pytest.raises(CertificateUndefinedError):
        certificates.residual_pair(state)


def test_hand_stationarity_residual(quad1d):
    # y_1 = 0.5, u_1 = f'(y_1) - f'(1) + 2 (1 - y_1) = 0.5 = f'(y_1)
    state = _one_step(quad1d)
    stat = certificates.stationarity_residual(state, quad1d)
    assert stat.u[0] == 0.5
    assert stat.norm == 0.5
    # h = 0, so the residual must equal the gradient at y exactly
    np.testing.assert_array_equal(stat.u, quad1d.f.grad(state.y))


def test_fixed_point_gives_zero_residual(quad1d):
    state = _one_step(quad1d)
    state.x_tilde_prev = state.y.copy()
    state.grad_tilde_prev = quad1d.f.grad(state.y)
    stat = certificates.stationarity_residual(state, quad1d)
    assert stat.norm == 0.0


def test_residual_lies_in_l1_subdifferential(lasso42, lasso42_capture):
    # u - grad f(y) must be a subgradient of reg * ||.||_1 at y
    reg = lasso42.spec.params["reg"]
    for k in (1, 10, 100, 1000):
        state = lasso42_capture.states[k]
        stat = certificates.stationarity_residual(state, lasso42)
        w = stat.u - lasso42.f.grad(state.y)
        for wi, yi in zip(w, state.y):
            if yi == 0.0:
                assert abs(wi) <= reg + 1e-9
            else:
                assert abs(wi - reg * np.sign(yi)) <= 1e-9


def test_residual_envelope(lasso42_capture, lasso42_rows):
    # ||u_k|| <= 2 lf ||y_k - x_tilde_{k-1}||
    lf = lasso42_capture.config.lf
    for k in range(1, lasso42_capture.iterations + 1):
        state = lasso42_capture.states[k]
        gap = float(np.linalg.norm(state.y - state.x_tilde_prev))
        assert lasso42_rows[k].norm_u <= 2.0 * lf * gap * (1 + 1e-9) + 1e-12 * lf


@pytest.mark.parametrize("kind", problems.INSTANCE_KINDS)
@pytest.mark.parametrize("margin", [1.25, 1.0 + 1e-6])
def test_stationarity_screen_is_sound(run_rows, kind, margin):
    # (lf - lf_bar) ||y - x_tilde|| never exceeds ||u||, so a state the
    # screen rules out really has ||u|| > rho; lf just above lf_bar makes the
    # bound weak, 1.25 lf_bar makes it rule out most states
    problem = problems.make_instance(kind, 5, 20, 30, with_reference=False)
    rho = 1e-6
    config = engine.SolverConfig.for_problem(
        problem, lf=margin * problem.f.curvature)
    capture = harness.capture_run(problem, config, np.zeros(problem.dimension),
                                  1000)
    rows = run_rows(capture)
    test = bounds.stop_test(bounds.Criterion.stationarity(rho), problem,
                            config)
    screened = 0
    for k in range(1, capture.iterations + 1):
        state = capture.states[k]
        norm = rows[k].norm_u
        lower = (config.lf - problem.f.curvature) * problems.vector_norm(
            state.y - state.x_tilde_prev)
        assert lower <= norm * (1 + 1e-12)
        held = [None, None, None]
        if not test.apply(state, problem, held) and held[1] is None:
            screened += 1
            assert norm > rho
    if margin == 1.25:
        assert screened > 0
    assert min(row.norm_u for row in rows[1:]) <= rho  # crosses rho


def test_residuals_match_expressions_bit_for_bit(elastic_mu1, elastic_capture):
    # the in-place forms keep the operations of the one-line expressions,
    # and the norms are np.linalg.norm's
    config = elastic_capture.config
    screen = bounds.stop_test(bounds.Criterion.stationarity(1.0), elastic_mu1,
                              config)
    for state in elastic_capture.states[1:400:37]:
        u = (elastic_mu1.f.grad(state.y) - state.grad_tilde_prev
             + config.lf * (state.x_tilde_prev - state.y))
        stat = certificates.stationarity_residual(state, elastic_mu1)
        assert stat.u.tobytes() == u.tobytes()
        assert stat.norm == float(np.linalg.norm(u))
        v = config.mu * (state.y - state.x) + (state.x0 - state.x) / state.A
        pair = certificates.residual_pair(state)
        assert pair.v.tobytes() == v.tobytes()
        assert pair.norm == float(np.linalg.norm(v))
        dist0, diff = state.x0 - state.y, state.y - state.x
        assert pair.eta == ((float(dist0 @ dist0) - state.tau * float(diff @ diff))
                            / (2.0 * state.A))
        # the stationarity screen's bound on ||u||
        lower = screen.lf_gap * problems.vector_norm(
            state.y - state.x_tilde_prev)
        assert lower == ((config.lf - elastic_mu1.f.curvature)
                         * float(np.linalg.norm(state.y - state.x_tilde_prev)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
       n=st.integers(1, 8), reg=st.floats(0.0, 2.0),
       ridge=st.sampled_from([0.0, 0.1, 1.0]),
       margin=st.floats(1e-6, 10.0), steps=st.integers(1, 40))
def test_stationarity_sandwich(seed, m, n, reg, ridge, margin, steps):
    # u = grad f(y) - grad f(x_tilde) + lf (x_tilde - y) and grad f is
    # lf_bar-Lipschitz, so with d = ||y - x_tilde||
    # (lf - lf_bar) d <= ||u|| <= (lf + lf_bar) d, up to the rounding of
    # the two gradients
    rng = _rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    # dense eigenvalues, so lf_bar certainly bounds the curvature
    lf_bar = ((np.linalg.eigvalsh(A.T @ A).max() + ridge)
              * problems.CURVATURE_INFLATION)
    problem = problems.CompositeProblem(
        f=problems.least_squares(A, b, ridge=ridge, curvature=lf_bar),
        h=problems.l1_norm(reg), dimension=n)
    lf = lf_bar * (1.0 + margin)
    config = engine.SolverConfig(lf=lf, mu_f=ridge)
    state = engine.init(problem, config, rng.standard_normal(n))
    # the stationarity screen's bound is this lower side
    assert bounds.stop_test(bounds.Criterion.stationarity(1.0), problem,
                            config).lf_gap == lf - lf_bar
    for _ in range(steps):
        state = engine.step(state, problem)
        # vector_norm: below about 1.5e-154 np.linalg.norm loses digits
        d = problems.vector_norm(state.y - state.x_tilde_prev)
        norm = certificates.stationarity_residual(state, problem).norm
        noise = 1e-12 * (lf + 1.0) * (1.0 + float(np.linalg.norm(state.y))
                                      + float(np.linalg.norm(b)))
        assert (lf - lf_bar) * d <= norm * (1 + 1e-9) + noise
        assert norm <= (lf + lf_bar) * d * (1 + 1e-9) + noise


# ---------------------------------------------------------------------------
# residual pair
# ---------------------------------------------------------------------------

def test_hand_residual_pair(quad1d):
    # x_1 = y_1 = 0.5, A_1 = 0.5, tau_1 = 1, x0 = 1
    state = _one_step(quad1d)
    pair = certificates.residual_pair(state)
    assert pair.v[0] == 1.0
    assert pair.eta == 0.25
    assert pair.norm == 1.0


def test_pair_vanishes_at_stationary_start(quad1d):
    state = _one_step(quad1d)
    state.x = state.x0.copy()
    state.y = state.x0.copy()
    pair = certificates.residual_pair(state)
    assert pair.norm == 0.0
    assert pair.eta == 0.0


def test_pair_mu_zero_form(lasso42_capture):
    state = lasso42_capture.states[10]
    pair = certificates.residual_pair(state)
    assert state.tau == 1.0
    np.testing.assert_allclose(pair.v, (state.x0 - state.x) / state.A,
                               rtol=1e-14)
    d0y = state.x0 - state.y
    dxy = state.x - state.y
    eta = (float(d0y @ d0y) - float(dxy @ dxy)) / (2.0 * state.A)
    np.testing.assert_allclose(pair.eta, eta, rtol=1e-14)


def test_mu_zero_pair_is_the_pull_alone_bit_for_bit(lasso42_capture):
    # at mu = 0 v is formed as (x0 - x) / A alone; the general form adds
    # mu (y - x) = 0 (y - x), which changes no entry but a zero's sign
    for state in lasso42_capture.states[1:]:
        pair = certificates.residual_pair(state)
        pull = (state.x0 - state.x) / state.A
        assert pair.v.tobytes() == pull.tobytes()
        general = state.config.mu * (state.y - state.x) + pull
        assert np.array_equal(pair.v, general)
        assert pair.norm == problems.vector_norm(general)
        dist0, diff = state.x0 - state.y, state.y - state.x
        assert pair.eta == ((float(dist0 @ dist0)
                             - state.tau * float(diff @ diff))
                            / (2.0 * state.A))


def test_plain_fista_is_mu_plus_zero_alone():
    # step and residual_pair drop the mu terms where the config says so: at
    # mu = +0.0 alone
    config = engine.SolverConfig(lf=2.0)
    assert config.plain_fista
    assert not engine.SolverConfig(lf=2.0, mu_f=-0.0, mu_h=-0.0).plain_fista
    for mu_f, mu_h in [(5e-324, 0.0), (0.0, 5e-324), (1.0, 0.0), (0.0, 1.0)]:
        assert not engine.SolverConfig(lf=2.0, mu_f=mu_f,
                                       mu_h=mu_h).plain_fista
    assert not engine.SolverConfig(lf=2.0, mu_f=math.nan).plain_fista
    assert not engine.SolverConfig(lf=2.0, mu_h=math.nan).plain_fista
    # derived, as mu and lam are: no field, and replace recomputes it
    assert "plain_fista" not in {f.name for f in dataclasses.fields(config)}
    assert "plain_fista" not in repr(config)
    assert config == engine.SolverConfig(lf=2.0)
    assert not dataclasses.replace(config, mu_h=1.0).plain_fista
    assert dataclasses.replace(
        engine.SolverConfig(lf=2.0, mu_f=1.0), mu_f=0.0).plain_fista


def test_pair_identity_on_iterates(lasso42_capture):
    # ||A v + y - x0||^2 / tau + 2 A eta = ||y - x0||^2
    for k in (1, 10, 100):
        state = lasso42_capture.states[k]
        pair = certificates.residual_pair(state)
        shifted = state.A * pair.v + state.y - state.x0
        lhs = float(shifted @ shifted) / state.tau + 2.0 * state.A * pair.eta
        rhs = float((state.y - state.x0) @ (state.y - state.x0))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# lower model
# ---------------------------------------------------------------------------

def test_first_model_is_single_minorant(quad1d):
    # after one step: Gamma_1(x) = x - 1/2, tight at the extrapolation point
    capture = harness.capture_run(quad1d, engine.SolverConfig(lf=2.0),
                                  np.array([1.0]), 1)
    [(_, model)] = certificates.lower_models(capture.states, quad1d)
    assert model.constant == -0.5
    np.testing.assert_array_equal(model.linear, [1.0])
    assert model.curvature == 0.0
    assert model.weight == 0.5
    assert model(np.array([1.0])) == 0.5  # touches phi at x = 1
    assert model(np.array([0.5])) == 0.0


def test_model_matches_explicit_summation():
    problem = problems.make_instance("lasso", 13, 20, 30, with_reference=False)
    config = engine.SolverConfig.for_problem(problem)
    state = engine.init(problem, config, np.zeros(30))
    states = [state]
    stored = []  # (a, constant, linear) per step
    for _ in range(20):
        state = engine.step(state, problem)
        states.append(state)
        constant, linear = certificates.gamma_coefficients(
            state, problem.f.value(state.x_tilde_prev), problem.h.value(state.y))
        stored.append((state.a_prev, constant, linear))
    for k, model in certificates.lower_models(states, problem):
        total = sum(a for a, _, _ in stored[:k])
        rng = _rng(k)
        for _ in range(5):
            q = rng.standard_normal(30)
            direct = sum(a * (c + float(l @ q)) for a, c, l in stored[:k]) / total
            got = model(q)
            assert abs(got - direct) <= 1e-10 * (1.0 + abs(direct))


def test_model_curvature_never_drifts(elastic_mu1, elastic_capture):
    final = elastic_capture.states[-1]
    *_, (_, model) = certificates.lower_models(elastic_capture.states,
                                               elastic_mu1)
    assert model.curvature == elastic_capture.config.mu
    assert model.weight == final.A


def test_model_minorizes_objective(lasso42, lasso42_capture, lasso42_rows,
                                   lasso42_models):
    rng = _rng(7)
    for k in (1, 10, 100):
        state = lasso42_capture.states[k]
        tol = 1e-8 * (1.0 + abs(lasso42_rows[k].phi_y))
        samples, phi_at = certificates.sample_points(state, lasso42, 100, rng)
        assert certificates.lower_model_gap(
            [lasso42_models[k](x) for x in samples], phi_at) <= tol


def test_model_dominates_recursion_bound(lasso42, lasso42_capture,
                                         lasso42_rows, lasso42_models):
    # Gamma_k(x) >= phi(y_k) + (tau ||x_k - x||^2 - ||x0 - x||^2) / (2 A_k)
    rng = _rng(8)
    for k in (5, 50):
        state = lasso42_capture.states[k]
        phi_y = lasso42_rows[k].phi_y
        tol = 1e-8 * (1.0 + abs(phi_y))
        samples, _ = certificates.sample_points(state, lasso42, 50, rng)
        for x in samples:
            quad = (state.tau * float((state.x - x) @ (state.x - x))
                    - float((state.x0 - x) @ (state.x0 - x))) / (2.0 * state.A)
            assert lasso42_models[k](x) >= phi_y + quad - tol


# ---------------------------------------------------------------------------
# approximate subgradient inequality
# ---------------------------------------------------------------------------

def test_eps_subgradient_at_center_is_minus_eta(lasso42, lasso42_capture,
                                                lasso42_rows):
    state = lasso42_capture.states[10]
    pair = certificates.residual_pair(state)
    phi_y = lasso42_rows[10].phi_y
    worst = certificates.check_eps_subgradient(pair, state, phi_y,
                                               state.y[None, :], [phi_y])
    np.testing.assert_allclose(worst, -pair.eta, atol=1e-12)
    assert worst <= 0.0


def test_eps_subgradient_sampled(lasso42, lasso42_capture, lasso42_rows):
    rng = _rng(9)
    state = lasso42_capture.states[100]
    pair = certificates.residual_pair(state)
    phi_y = lasso42_rows[100].phi_y
    tol = 1e-8 * (1.0 + abs(phi_y))
    samples, phi_at = certificates.sample_points(state, lasso42, 200, rng)
    assert certificates.check_eps_subgradient(pair, state, phi_y, samples,
                                              phi_at) <= tol


def test_model_subgradient_inequality(lasso42, lasso42_capture, lasso42_rows,
                                      lasso42_models):
    rng = _rng(10)
    state = lasso42_capture.states[100]
    pair = certificates.residual_pair(state)
    phi_y = lasso42_rows[100].phi_y
    tol = 1e-8 * (1.0 + abs(phi_y))
    samples, _ = certificates.sample_points(state, lasso42, 200, rng)
    assert certificates.lower_model_violation(
        pair, state, phi_y, samples,
        [lasso42_models[100](x) for x in samples]) <= tol


def test_sample_points_respect_domain():
    problem = problems.make_instance("box_qp", 2, 5, 5, diag=True,
                                     with_reference=False)
    config = engine.SolverConfig.for_problem(problem)
    state = engine.init(problem, config, np.zeros(5))
    state = engine.step(state, problem)
    samples, phi_at = certificates.sample_points(state, problem, 64, _rng(11))
    assert samples.shape == (64, 5)
    assert all(np.isfinite(problem.h.value(s)) for s in samples)
    assert phi_at == [eval_phi(problem, s) for s in samples]


def test_sample_points_are_y_plus_scaled_draws(lasso42, lasso42_capture):
    # the points are built in place; from the same generator state they are
    # y + (1 + ||y||) z to the bit (h = l1 is finite, so none is projected)
    state = lasso42_capture.states[10]
    samples, _ = certificates.sample_points(state, lasso42, 64, _rng(12))
    draws = _rng(12).standard_normal((64, state.y.size))
    expected = state.y + (1.0 + problems.vector_norm(state.y)) * draws
    assert samples.tobytes() == expected.tobytes()


def test_lower_model_gap_reads_infinite_phi():
    # a +inf phi (off dom h) gives -inf, which never sets the worst; a -inf
    # phi gives +inf, a failure
    assert certificates.lower_model_gap([0.0], [-math.inf]) == math.inf
    assert certificates.lower_model_gap([0.0, 1.0], [math.inf, 2.0]) == -1.0


def test_eps_subgradient_reads_infinite_values(quad1d):
    state = _one_step(quad1d)
    pair = certificates.residual_pair(state)
    samples = np.stack([state.y, state.y])
    # at x = y the excess is phi(y) - eta - value, here -eta
    assert certificates.check_eps_subgradient(
        pair, state, 0.0, samples, [math.inf, 0.0]) == -pair.eta
    assert certificates.check_eps_subgradient(
        pair, state, 0.0, samples, [-math.inf, 0.0]) == math.inf


# ---------------------------------------------------------------------------
# a row's gap and the stationarity screen
# ---------------------------------------------------------------------------

def test_gap_is_each_traced_rows_gap(lasso_small, lasso_norm, run_rows):
    config = engine.SolverConfig.for_problem(lasso_small)
    capture = harness.capture_run(lasso_small, config,
                                  np.zeros(lasso_small.dimension), 20)
    phi_star = lasso_small.reference_optimum.phi_star
    for state, row in zip(capture.states, run_rows(capture), strict=True):
        assert row.gap == eval_phi(lasso_small, state.y) - phi_star
        assert row.gap == row.phi_y - phi_star
    # no reference optimum: no gap in any row
    capture = harness.capture_run(
        lasso_norm, engine.SolverConfig.for_problem(lasso_norm),
        np.zeros(lasso_norm.dimension), 5)
    assert [row.gap for row in run_rows(capture)] == [None] * 6


def _counting(problem, calls):
    """problem whose four oracles append their name to calls."""
    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper
    f = dataclasses.replace(problem.f, value=counted("f.value", problem.f.value),
                            grad=counted("f.grad", problem.f.grad))
    h = dataclasses.replace(problem.h, value=counted("h.value", problem.h.value),
                            prox=counted("h.prox", problem.h.prox))
    return dataclasses.replace(problem, f=f, h=h)


def test_rules_out_stationarity_calls_no_oracle(quad1d):
    calls = []
    problem = _counting(quad1d, calls)
    state = _one_step(quad1d)
    # ||u_1|| = 0.5 = (lf - lf_bar) ||y_1 - x_tilde_0||, a tight bound
    tests = {rho: bounds.stop_test(bounds.Criterion.stationarity(rho), problem,
                                   state.config) for rho in (0.4, 0.5)}
    assert tests[0.4].screen(tests[0.4], state)
    assert not tests[0.5].screen(tests[0.5], state)
    assert calls == []
    # once u is held its norm is read instead: the screen is not run
    held = [None, None, None]
    assert tests[0.5].apply(state, problem, held)
    assert held[1].norm == 0.5
    assert calls == ["f.grad"]
    assert not tests[0.4].apply(state, problem, held)
    assert calls == ["f.grad"]
