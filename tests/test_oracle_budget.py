"""Exact oracle-call budgets of a step, a certificate record and a run.

Counting wrappers sit on a problem's four oracles (f.value, f.grad, h.value,
h.prox).  The counts are deterministic, so a change that brings a second
gradient, a function value or a lower-model update back into the solver's
hot path fails here.
"""

import collections
import dataclasses

import numpy as np
import pytest

from sfista import bounds, certificates, engine


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
