"""Exact oracle-call budgets of a step and of a run.

Counting wrappers sit on a problem's four oracles (f.value, f.grad, h.value,
h.prox).  The counts are deterministic, so a change that brings a second
gradient, a function value or a lower-model update back into the solver's
hot path fails here.
"""

import collections
import dataclasses

import numpy as np

from sfista import bounds, engine


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


def _stationarity_run(problem, trace_every):
    counted, counts = _counted(problem)
    config = engine.SolverConfig.for_problem(
        problem, criterion=bounds.Criterion.stationarity(1e-6),
        trace_every=trace_every)
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


def test_untraced_run_budget(elastic_mu1):
    # one gradient in the step, one for the residual at y; phi only in the
    # first and the final trace row
    k, counts = _stationarity_run(elastic_mu1, trace_every=10000)
    assert k == 205
    assert counts["f.grad"] == 2 * k
    assert counts["h.prox"] == k
    assert counts["f.value"] == 2


def test_traced_run_budget(elastic_mu1):
    # a trace row per step adds phi(y), and nothing else that calls f
    k, counts = _stationarity_run(elastic_mu1, trace_every=1)
    assert k == 205
    assert counts["f.grad"] == 2 * k
    assert counts["f.value"] == k + 1
