"""Exact oracle-call budgets of a step, a state's certificates and a run.

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
    # a state's tests share one list of its certificates: each test forms
    # the one it reads, when first read, into its place, and a later test
    # that reads it forms nothing; the pair needs no oracle at all
    problem, counts = _counted(elastic_mu1)
    state = engine.init(problem, engine.SolverConfig.for_problem(problem),
                        np.zeros(problem.dimension))
    state = engine.step(state, problem)
    counts.clear()
    held = [None, None, None]
    loose = [bounds.Criterion.relative(1e9), bounds.Criterion.absolute(1e9, 1e9),
             bounds.Criterion.stationarity(1e9),
             bounds.Criterion.function_gap(1e9)]
    expected = [{}, {}, {"f.grad": 1},
                {"f.grad": 1, "f.value": 1, "h.value": 1}]
    # where each test's certificate sits in held: the pair, u, phi(y)
    reads = [2, 2, 1, 0]
    formed = []
    for criterion, budget, read in zip(loose, expected, reads):
        test = bounds.stop_test(criterion, problem, state.config)
        assert test(state, held)
        assert counts == budget
        formed.append(held[read])
    assert formed[0] is formed[1] is held[2]
    assert formed[2] is held[1] and formed[3] == held[0]
    for criterion in loose:
        bounds.stop_test(criterion, problem, state.config)(state, held)
    assert counts == expected[-1]


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


def test_untraced_run_screens_each_state_once(elastic_mu1, monkeypatch):
    # the screen's one vector_norm at each state from k = 1 on: a state it
    # cannot rule out is not screened again before u is formed
    calls = []
    real_norm = bounds.vector_norm

    def counted(v):
        calls.append(v.size)
        return real_norm(v)

    monkeypatch.setattr(bounds, "vector_norm", counted)
    problem = dataclasses.replace(elastic_mu1, reference_optimum=None)
    config = engine.SolverConfig.for_problem(
        problem, criterion=bounds.Criterion.stationarity(1e-6),
        trace_every=10000)
    result = engine.run(problem, config, np.zeros(problem.dimension))
    assert (result.reason, result.state.k) == ("converged", 205)
    assert len(calls) == result.state.k


def test_traced_run_budget(elastic_mu1):
    # a trace row per step forms u and adds phi(y), and nothing else calls f
    k, counts = _run(elastic_mu1, bounds.Criterion.stationarity(1e-6),
                     trace_every=1)
    assert k == 205
    assert counts["f.grad"] == 2 * k
    assert counts["f.value"] == k + 1


def _fused_calls(problem):
    """The problem with a counter on f's value_and_grad, and the counter.

    Set anew with f's own value and grad, so `f.fused()` hands it out.
    """
    calls = []
    fused = problem.f.value_and_grad

    def counted(x):
        calls.append(x)
        return fused(x)

    f = dataclasses.replace(problem.f, value_and_grad=counted)
    assert f.fused() is counted
    return dataclasses.replace(problem, f=f), calls


def _rows_but_elapsed(trace):
    return [line.rsplit(",", 1)[0] for line in engine.trace_lines(trace)]


@pytest.mark.parametrize("trace_every", [1, 4])
def test_traced_rows_fuse_value_and_grad_unless_wrapped(lasso_small,
                                                        trace_every):
    # a raw wide lasso takes each traced row's phi(y) and grad f(y) from one
    # value_and_grad call; wrapped in counters, value and grad are no longer
    # the functions it was set with, so every row makes both calls; a
    # value_and_grad set anew on the wrapped oracle takes one value and one
    # grad call off per fused row; and the trace is the same bytes each way
    raw, fused_calls = _fused_calls(lasso_small)
    counted, counts = _counted(lasso_small)
    recounted, refused_calls = _fused_calls(counted)
    config = engine.SolverConfig.for_problem(
        lasso_small, criterion=bounds.Criterion.stationarity(1e-6),
        trace_every=trace_every)
    x0 = np.zeros(lasso_small.dimension)
    result = engine.run(raw, config, x0)
    k = result.state.k
    assert result.reason == "converged"
    # once per row at k = trace_every, 2 trace_every, ..., <= k; a final
    # row off that spacing makes its two calls
    fused_rows = k // trace_every
    assert len(fused_calls) == fused_rows
    wrapped = engine.run(counted, config, x0)
    wrapped_counts = dict(counts)
    assert wrapped_counts["f.value"] == len(wrapped.trace)
    counts.clear()
    refused = engine.run(recounted, config, x0)
    assert len(refused_calls) == fused_rows
    assert counts == {**wrapped_counts,
                      "f.value": wrapped_counts["f.value"] - fused_rows,
                      "f.grad": wrapped_counts["f.grad"] - fused_rows}
    assert len(fused_calls) == fused_rows  # neither wrapped run called it
    rows = _rows_but_elapsed(result.trace)
    assert _rows_but_elapsed(wrapped.trace) == rows
    assert _rows_but_elapsed(refused.trace) == rows


@pytest.mark.parametrize("trace_every", [1, 4])
def test_traced_logistic_rows_call_value_and_grad(monkeypatch, trace_every):
    # a logistic loss has no value_and_grad: each traced row after k = 0
    # makes one f.value and one f.grad call, for phi(y) and u, and no fused
    # call; row 0 makes the f.value alone, and the rows are those of the
    # same run under counting wrappers
    problem = problems.make_instance("logistic_l2", seed=4, m=30, n=20)
    assert problem.f.value_and_grad is None and problem.f.fused() is None
    counted, counts = _counted(problem)
    per_row = []
    real_row = engine.row_certificates

    def row(state, problem, fused, held=None):
        assert fused is None
        before = counts.copy()
        out = real_row(state, problem, fused, held)
        per_row.append((state.k, dict(counts - before)))
        return out

    def no_fused_call(*args):
        raise AssertionError("a fused call")

    monkeypatch.setattr(engine, "row_certificates", row)
    monkeypatch.setattr(engine, "eval_phi_and_grad", no_fused_call)
    # no criterion, so the final row, off the spacing at k = 10, gets no
    # certificate from a test
    config = engine.SolverConfig.for_problem(problem, max_iter=10,
                                             trace_every=trace_every)
    x0 = np.zeros(problem.dimension)
    wrapped = engine.run(counted, config, x0)
    assert wrapped.reason == "max_iter"
    ks = [*range(0, 11, trace_every), *([10] if 10 % trace_every else [])]
    assert per_row == [(k, {"f.value": 1, "h.value": 1} if k == 0 else
                        {"f.value": 1, "f.grad": 1, "h.value": 1})
                       for k in ks]
    assert counts["f.grad"] == 10 + len(ks) - 1
    assert _rows_but_elapsed(engine.run(problem, config, x0).trace) == (
        _rows_but_elapsed(wrapped.trace))


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
    # the last state's a_next is inf, so iterate ends there and no step
    # from it is attempted: the run's k states cost k steps
    config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0, max_iter=1000)
    result = engine.run(quad1d, config, np.array([1.0]))
    assert result.reason == "growth_overflow"
    assert step_calls == list(range(result.state.k))


def test_capture_run_steps_iters_times(elastic_mu1, step_calls):
    # capture_run counts its steps on the coefficient recursion and takes
    # none: it costs init's h(x0) alone.  The first read of `states`
    # replays the run, one step per state after init's, and a second read
    # takes the kept list
    problem, counts = _counted(elastic_mu1)
    config = engine.SolverConfig.for_problem(problem)
    capture = harness.capture_run(problem, config,
                                  np.zeros(problem.dimension), 30)
    assert capture.iterations == 30
    assert step_calls == [] and counts == {"h.value": 1}
    for _ in range(2):
        assert len(capture.states) == 31
    assert step_calls == list(range(30))
    assert counts == {"h.value": 2, "f.grad": 30, "h.prox": 30}


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

def test_invariant_sweep_budget(elastic_mu1, monkeypatch, certificate_calls,
                                step_calls):
    # the capture costs init's h(x0) alone; each report replays the run,
    # init's h(x0) and the 30 steps, forms each state's certificates once,
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
    assert counts == {"h.value": 1} and step_calls == []
    assert updates == [] and certificate_calls == {
        "stationarity_residual": [], "residual_pair": []}

    # the replay's init and 30 steps; phi(y) and the gradient u needs at
    # each state after k = 0, unfused on the counted oracle, and each
    # residual once
    counts.clear()
    harness.invariant_report(capture, sample_count=0)
    assert step_calls == list(range(30))
    assert counts == {"f.value": 30, "h.value": 1 + 30, "f.grad": 30 + 30,
                      "h.prox": 30}
    assert updates == [] and model_calls == []
    assert certificate_calls == {"stationarity_residual": list(range(1, 31)),
                                 "residual_pair": list(range(1, 31))}

    counts.clear()
    step_calls.clear()
    for ks in certificate_calls.values():
        ks.clear()
    report = harness.invariant_report(capture, sample_count=5)
    assert {c.note for c in report.checks if c.name == "eps_subgradient"} == {
        "5 samples at k in [1, 2, 5, 10, 20, 30]"}
    # the sampled checks read the pairs the one pass formed
    assert certificate_calls == {"stationarity_residual": list(range(1, 31)),
                                 "residual_pair": list(range(1, 31))}
    assert updates == list(range(1, 31))
    # the replay again; the states' phi(y), the 30 model folds and the
    # 6 * 5 samples
    assert step_calls == list(range(30))
    assert counts == {"f.value": 30 + 30 + 6 * 5,
                      "h.value": 1 + 30 + 30 + 6 * 5, "f.grad": 30 + 30,
                      "h.prox": 30}
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


def test_sample_points_never_projects_minus_inf(elastic_mu1):
    # +inf alone marks a point off dom h: an h of -inf costs its one
    # h.value, no projection, and reaches phi as it is
    h = dataclasses.replace(elastic_mu1.h, value=lambda x: -math.inf)
    problem = dataclasses.replace(elastic_mu1, h=h)
    state = engine.init(elastic_mu1, engine.SolverConfig.for_problem(problem),
                        np.zeros(problem.dimension))
    state = engine.step(state, elastic_mu1)
    counted, counts = _counted(problem)
    _, phi_at = certificates.sample_points(
        state, counted, 10, np.random.Generator(np.random.PCG64(11)))
    assert counts == {"h.value": 10, "f.value": 10}
    assert phi_at == [-math.inf] * 10


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


# ---------------------------------------------------------------------------
# certificate calls per run
# ---------------------------------------------------------------------------

@pytest.fixture
def certificate_calls(monkeypatch):
    """k of each state the two residuals were formed at, by residual name.

    Patched where `engine.run` looks them up, on the certificates module,
    once per run; a gradient at y, when given, is passed on.
    """
    calls = {"stationarity_residual": [], "residual_pair": []}
    real_residual = certificates.stationarity_residual
    real_pair = certificates.residual_pair

    def residual(state, problem, *grad_y):
        calls["stationarity_residual"].append(state.k)
        return real_residual(state, problem, *grad_y)

    def pair(state):
        calls["residual_pair"].append(state.k)
        return real_pair(state)

    monkeypatch.setattr(certificates, "stationarity_residual", residual)
    monkeypatch.setattr(certificates, "residual_pair", pair)
    return calls


def test_traced_run_forms_each_residual_once_per_row(elastic_mu1,
                                                     certificate_calls):
    # every row after k = 0 holds both, and the test reads the row's u
    k, _ = _run(elastic_mu1, bounds.Criterion.stationarity(1e-6),
                trace_every=1)
    assert k == 205
    assert certificate_calls == {"stationarity_residual": list(range(1, k + 1)),
                                 "residual_pair": list(range(1, k + 1))}


@pytest.mark.parametrize("trace_every, formed_u", [(10000, 23), (3, 83)])
def test_untraced_states_form_u_only_past_the_screen(
        elastic_mu1, certificate_calls, trace_every, formed_u):
    # u at each traced state and at the untraced states the screen cannot
    # rule out (23 of them, the final one among them); the pair only at
    # traced states and in the final row
    k, _ = _run(elastic_mu1, bounds.Criterion.stationarity(1e-6),
                trace_every)
    assert k == 205
    formed = certificate_calls["stationarity_residual"]
    traced = list(range(trace_every, k, trace_every))
    assert len(formed) == formed_u and len(set(formed)) == formed_u
    assert set(traced) <= set(formed) and formed[-1] == k
    assert certificate_calls["residual_pair"] == traced + [k]


@pytest.mark.parametrize("criterion, k_stop, reads_pair", [
    (bounds.Criterion.function_gap(1e-8), 136, False),
    (bounds.Criterion.relative(1e-6), 196, True),
    (bounds.Criterion.absolute(1e-5, 1e-8), 267, True),
])
def test_untraced_run_forms_only_what_its_test_reads(
        elastic_mu1, certificate_calls, criterion, k_stop, reads_pair):
    # the pair at every state a pair criterion tests, and both residuals
    # once more only for the final row, which reuses the test's pair
    k, _ = _run(elastic_mu1, criterion, trace_every=10000)
    assert k == k_stop
    assert certificate_calls["stationarity_residual"] == [k]
    assert certificate_calls["residual_pair"] == (
        list(range(1, k + 1)) if reads_pair else [k])


def test_suite_and_capture_form_each_certificate_as_recorded(
        lasso42, certificate_calls):
    # verify bounds at seed base 0 forms u only where a stationarity test
    # is past its screen and the pair at every state a pair criterion
    # tests; a capture forms neither, and its report without samples forms
    # both once per state after k = 0
    harness.bounds_suite(0)
    assert {name: len(ks) for name, ks in certificate_calls.items()} == {
        "stationarity_residual": 76, "residual_pair": 399}
    for ks in certificate_calls.values():
        ks.clear()
    capture = harness.capture_run(lasso42,
                                  engine.SolverConfig.for_problem(lasso42),
                                  np.zeros(lasso42.dimension), 300)
    assert certificate_calls == {"stationarity_residual": [],
                                 "residual_pair": []}
    harness.invariant_report(capture, sample_count=0)
    assert certificate_calls == {"stationarity_residual": list(range(1, 301)),
                                 "residual_pair": list(range(1, 301))}
