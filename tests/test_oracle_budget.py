"""Exact oracle-call budgets of a step, a certificate record and a run.

Counting wrappers sit on a problem's four oracles (f.value, f.grad, h.value,
h.prox).  The counts are deterministic, so a change that brings a second
gradient, a function value or a lower-model update back into the solver's
hot path fails here.  A counter on `engine.step` itself checks that each
driver of the recursion steps exactly as often as the states it reports.
"""

import collections
import dataclasses
import math
from itertools import islice

import numpy as np
import pytest

from sfista import bounds, certificates, classic, engine, harness, problems


def _counted(problem):
    """The problem with call counters on its oracles, and the counter."""
    counts = collections.Counter()

    def wrap(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    f = dataclasses.replace(problem.f, value=wrap("f.value", problem.f.value),
                            grad=wrap("f.grad", problem.f.grad))
    h = dataclasses.replace(problem.h, value=wrap("h.value", problem.h.value),
                            prox=wrap("h.prox", problem.h.prox))
    return dataclasses.replace(problem, f=f, h=h), counts


def _run(problem, criterion, trace_every):
    counted, counts = _counted(problem)
    config = engine.SolverConfig.for_problem(
        problem, criterion=criterion, trace_every=trace_every)
    result = engine.run(counted, config, np.zeros(problem.dimension))
    assert result.reason == "converged"
    return result.state.k, counts


def test_step_budget(elastic_mu1):
    problem, counts = _counted(elastic_mu1)
    state = engine.init(problem, engine.SolverConfig.for_problem(problem),
                        np.zeros(problem.dimension))
    for _ in range(5):
        counts.clear()
        state = engine.step(state, problem)
        assert counts == {"f.grad": 1, "h.prox": 1}


def test_certificates_computed_once_on_demand(elastic_mu1):
    # each piece is computed when first read and kept in the record's
    # __dict__, which the stationarity screen tests; the pair needs no
    # oracle at all
    problem, counts = _counted(elastic_mu1)
    state = engine.init(problem, engine.SolverConfig.for_problem(problem),
                        np.zeros(problem.dimension))
    certs = certificates.Certificates(engine.step(state, problem), problem)
    counts.clear()
    pieces = ("pair", "stationarity_lower", "stationarity", "phi_y")
    assert not set(pieces) & set(vars(certs))
    assert certs.pair is certs.pair
    assert certs.stationarity_lower == certs.stationarity_lower
    assert counts == {}
    assert set(pieces) & set(vars(certs)) == {"pair", "stationarity_lower"}
    assert certs.stationarity is certs.stationarity
    assert counts == {"f.grad": 1}
    assert "stationarity" in vars(certs) and "phi_y" not in vars(certs)
    assert certs.phi_y == certs.phi_y
    assert counts == {"f.grad": 1, "f.value": 1, "h.value": 1}
    assert set(pieces) <= set(vars(certs))


def test_lower_model_update_budget(elastic_mu1):
    # f at the step's extrapolated point, h at its proximal output, and no
    # gradient: the step's own is reused; the same with and without a model
    calls = []

    def logged(name, fn):
        def wrapper(x, *rest):
            calls.append((name, x))
            return fn(x, *rest)
        return wrapper

    problem = elastic_mu1
    f = dataclasses.replace(problem.f, value=logged("f.value", problem.f.value),
                            grad=logged("f.grad", problem.f.grad))
    h = dataclasses.replace(problem.h, value=logged("h.value", problem.h.value),
                            prox=logged("h.prox", problem.h.prox))
    logged_problem = dataclasses.replace(problem, f=f, h=h)
    state = engine.init(problem, engine.SolverConfig.for_problem(problem),
                        np.zeros(problem.dimension))
    model = None
    for _ in range(2):
        state = engine.step(state, problem)
        calls.clear()
        model = certificates.lower_model_update(model, state, logged_problem)
        assert [name for name, _ in calls] == ["f.value", "h.value"]
        np.testing.assert_array_equal(calls[0][1], state.x_tilde_prev)
        np.testing.assert_array_equal(calls[1][1], state.y)
    assert model.weight == state.A


def test_untraced_run_budget(elastic_mu1):
    # one gradient in the step; the residual's gradient at y only on the 23
    # steps whose lower bound (lf - lf_bar) ||y - x_tilde|| does not exceed
    # rho (the last one among them, so the final row reuses it); phi only in
    # the first and the final trace row
    k, counts = _run(elastic_mu1, bounds.Criterion.stationarity(1e-6),
                     trace_every=10000)
    assert k == 205
    assert counts["f.grad"] == k + 23
    assert counts["h.prox"] == k
    assert counts["f.value"] == 2


def test_traced_run_budget(elastic_mu1):
    # a trace row per step forms u and adds phi(y), and nothing else calls f
    k, counts = _run(elastic_mu1, bounds.Criterion.stationarity(1e-6),
                     trace_every=1)
    assert k == 205
    assert counts["f.grad"] == 2 * k
    assert counts["f.value"] == k + 1


@pytest.mark.parametrize("trace_every", [1, 10000])
def test_function_gap_run_budget(elastic_mu1, trace_every):
    # phi(y) once per state: the check and the trace row share it
    k, counts = _run(elastic_mu1, bounds.Criterion.function_gap(1e-8),
                     trace_every)
    assert k == 136
    assert counts["f.value"] == k + 1


# ---------------------------------------------------------------------------
# step calls per driver
# ---------------------------------------------------------------------------

@pytest.fixture
def step_calls(monkeypatch):
    """k of each state engine.step was called on, patched where it is looked up.

    A driver that bound step at import, or pulled one state more than it
    reports, would miss or overshoot the count.
    """
    calls = []
    real_step = engine.step

    def counted(state, problem):
        calls.append(state.k)
        return real_step(state, problem)

    monkeypatch.setattr(engine, "step", counted)
    return calls


@pytest.mark.parametrize("criterion, max_iter, reason", [
    (None, 40, "max_iter"),
    (bounds.Criterion.stationarity(1e-6), 10000, "converged"),
])
def test_run_steps_once_per_iteration(elastic_mu1, step_calls, criterion,
                                      max_iter, reason):
    config = engine.SolverConfig.for_problem(elastic_mu1, criterion=criterion,
                                             max_iter=max_iter)
    result = engine.run(elastic_mu1, config, np.zeros(elastic_mu1.dimension))
    assert result.reason == reason
    assert step_calls == list(range(result.state.k))


def test_run_steps_once_per_iteration_to_overflow(quad1d, step_calls):
    # the step from the last state raises before any oracle call, so the
    # run's k steps succeed and one more is attempted
    config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0, max_iter=1000)
    result = engine.run(quad1d, config, np.array([1.0]))
    assert result.reason == "growth_overflow"
    assert step_calls == list(range(result.state.k + 1))


def test_capture_run_steps_iters_times(elastic_mu1, step_calls):
    config = engine.SolverConfig.for_problem(elastic_mu1)
    capture = harness.capture_run(elastic_mu1, config,
                                  np.zeros(elastic_mu1.dimension), 30)
    assert capture.iterations == 30
    assert step_calls == list(range(30))


def test_equivalence_check_steps_k_max_times(lasso_norm, step_calls):
    lf = 1.25 * lasso_norm.f.curvature
    classic.equivalence_check(lasso_norm, np.zeros(lasso_norm.dimension), lf,
                              25)
    assert step_calls == list(range(25))


def test_lower_models_update_once_per_state(elastic_mu1, monkeypatch):
    # looked up as the module's global on every state, as a counter that
    # wraps the module attribute sees it
    calls = []
    real_update = certificates.lower_model_update

    def counted(model, state, problem):
        calls.append(state.k)
        return real_update(model, state, problem)

    monkeypatch.setattr(certificates, "lower_model_update", counted)
    config = engine.SolverConfig.for_problem(elastic_mu1)
    states = list(islice(engine.iterate(elastic_mu1, config,
                                        np.zeros(elastic_mu1.dimension)), 8))
    models = list(certificates.lower_models(states, elastic_mu1))
    assert calls == [k for k, _ in models] == list(range(1, 8))


# ---------------------------------------------------------------------------
# the invariant sweep
# ---------------------------------------------------------------------------

def test_invariant_sweep_budget(elastic_mu1, monkeypatch):
    # the capture evaluates phi once per row and folds no model; the report
    # folds the model up to its last sampled k and evaluates phi and the
    # model once per sample (every sample lies in dom h, so its domain test
    # is the h inside phi), and the three checks work on those values alone
    problem, counts = _counted(elastic_mu1)
    updates = []
    model_calls = []
    real_update = certificates.lower_model_update
    real_model = certificates.LowerModel.__call__

    def counted_update(model, state, problem):
        updates.append(state.k)
        return real_update(model, state, problem)

    def counted_model(model, x):
        model_calls.append(model.weight)
        return real_model(model, x)

    def oracle_free(fn):
        def check(*args):
            before = counts.copy()
            out = fn(*args)
            assert counts == before, fn.__name__
            return out
        return check

    monkeypatch.setattr(certificates, "lower_model_update", counted_update)
    monkeypatch.setattr(certificates.LowerModel, "__call__", counted_model)
    for name in ("lower_model_gap", "lower_model_violation",
                 "check_eps_subgradient"):
        monkeypatch.setattr(certificates, name,
                            oracle_free(getattr(certificates, name)))
    capture = harness.capture_run(problem, engine.SolverConfig.for_problem(problem),
                                  np.zeros(problem.dimension), 30)
    assert counts["f.value"] == 31 and updates == []

    counts.clear()
    harness.invariant_report(capture, sample_count=0)
    assert counts == {} and updates == [] and model_calls == []

    report = harness.invariant_report(capture, sample_count=5)
    assert {c.note for c in report.checks if c.name == "eps_subgradient"} == {
        "5 samples at k in [1, 2, 5, 10, 20, 30]"}
    assert updates == list(range(1, 31))
    assert counts["f.value"] == 30 + 6 * 5
    assert counts["h.value"] == 30 + 6 * 5
    # 5 calls on each sampled k's model, told apart by its weight A_k
    weights = [capture.states[k].A for k in (1, 2, 5, 10, 20, 30)]
    assert model_calls == [w for w in weights for _ in range(5)]


def test_sample_points_budget_with_projection():
    # a sample outside the box costs the domain test, the projection and h
    # at the projected point; one inside it costs h once, shared with phi
    problem = problems.make_instance("box_qp", 2, 2, 2, diag=True,
                                     with_reference=False)
    state = engine.init(problem, engine.SolverConfig.for_problem(problem),
                        np.zeros(2))
    state = engine.step(state, problem)
    count = 40
    draws = state.y + (1.0 + problems.vector_norm(state.y)) * (
        np.random.Generator(np.random.PCG64(11)).standard_normal((count, 2)))
    outside = sum(math.isinf(problem.h.value(x)) for x in draws)
    assert 0 < outside < count
    counted, counts = _counted(problem)
    certificates.sample_points(state, counted, count,
                               np.random.Generator(np.random.PCG64(11)))
    assert counts == {"h.value": count + outside, "h.prox": outside,
                      "f.value": count}


def test_bounds_suite_steps_once_per_instance(step_calls):
    # each instance's one pass ends when its last criterion stops being
    # tested: at the largest min(observed_k, predicted_k) of its five rows
    rows = harness.bounds_suite(0)
    last = {}
    for row in rows:
        k = row.predicted_k if row.observed_k is None else row.observed_k
        last[row.label] = max(last.get(row.label, 0), min(k, row.predicted_k))
    assert len(last) == 10
    assert len(step_calls) == sum(last.values()) == 513
