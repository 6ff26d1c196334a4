"""Each independent check accepts the program's answer and rejects a perturbed one.

A check that cannot fail proves nothing, so every test below pairs the
answer the solver returns with a small corruption of it.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from sfista import bounds, engine, harness, problems

import checks
import run
import workloads

RHO = 1e-6


def solve(problem, rho=RHO):
    config = engine.SolverConfig.for_problem(
        problem, criterion=bounds.Criterion.stationarity(rho))
    return engine.run(problem, config, np.zeros(problem.dimension))


@pytest.fixture(scope="module")
def lasso():
    problem = problems.make_instance("lasso", seed=3, m=40, n=80, reg=0.1)
    return problem, solve(problem)


@pytest.fixture(scope="module")
def net():
    problem = problems.make_instance("elastic_net", seed=3, m=40, n=80,
                                     reg=0.1, ridge=1.0)
    return problem, solve(problem)


def e1(n):
    out = np.zeros(n)
    out[0] = 1.0
    return out


@pytest.mark.parametrize("name", ["lasso", "net"])
def test_stationarity_rejects_shifted_point(name, request):
    problem, result = request.getfixturevalue(name)
    A, b, reg, ridge = workloads.instance_data(problem)
    y = result.state.y
    assert result.reason == "converged"
    assert checks.check_stationarity(A, b, reg, ridge, y, RHO)
    assert not checks.check_stationarity(A, b, reg, ridge, y + 1e-3 * e1(y.size), RHO)


@pytest.mark.parametrize("name", ["lasso", "net"])
def test_duality_bracket_rejects_moved_optimum(name, request):
    problem, result = request.getfixturevalue(name)
    A, b, reg, ridge = workloads.instance_data(problem)
    y = result.state.y
    phi_star = problem.reference_optimum.phi_star
    lower = checks.dual_lower_bound(A, b, reg, ridge, y)
    phi_y = checks.objective(A, b, reg, ridge, y)
    assert lower < phi_star <= phi_y + 1e-12
    assert checks.check_duality_bracket(A, b, reg, ridge, y, phi_star)
    below = lower - 1e-6 * (1.0 + abs(lower))
    assert not checks.check_duality_bracket(A, b, reg, ridge, y, below)
    above = phi_y + 1e-6 * (1.0 + abs(phi_y))
    assert not checks.check_duality_bracket(A, b, reg, ridge, y, above)


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_dual_bound_is_below_every_objective_value(ridge):
    rng = np.random.default_rng(0)
    A, b = rng.standard_normal((30, 20)), rng.standard_normal(30)
    for _ in range(20):
        x, z = rng.standard_normal(20), rng.standard_normal(20)
        assert checks.dual_lower_bound(A, b, 0.3, ridge, x) \
            <= checks.objective(A, b, 0.3, ridge, z)


def test_strong_convexity_rejects_moved_minimizer(net):
    problem, result = net
    A, b, reg, ridge = workloads.instance_data(problem)
    y, x_star = result.state.y, problem.reference_optimum.x_star
    assert checks.check_strong_convexity(A, b, reg, ridge, y, x_star)
    assert not checks.check_strong_convexity(A, b, reg, ridge, y,
                                             x_star + 1e-3 * e1(y.size))
    with pytest.raises(ValueError):
        checks.check_strong_convexity(A, b, reg, 0.0, y, x_star)


def test_trace_check_rejects_missing_row_and_large_residual(lasso, tmp_path):
    _, result = lasso
    path = tmp_path / "trace.csv"
    harness.write_trace(path, result.trace, {"rho": RHO})
    K = result.state.k
    assert checks.check_trace(path, K, RHO)
    assert not checks.check_trace(path, K + 1, RHO)
    assert not checks.check_trace(path, K, 0.5 * result.trace[-1].norm_u)
    lines = path.read_text().splitlines()
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
    assert not checks.check_trace(cut, K, RHO)
    torn = tmp_path / "torn.csv"
    torn.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0]]) + "\n")
    assert not checks.check_trace(torn, K, RHO)


def test_fista_recursion_matches_engine_and_rejects_drift(lasso):
    problem, _ = lasso
    A, b, reg, _ = workloads.instance_data(problem)
    lf = engine.DEFAULT_CURVATURE_MARGIN * problem.f.curvature
    x0 = np.zeros(problem.dimension)
    capture = harness.capture_run(problem, engine.SolverConfig(lf=lf), x0, 100)
    program = [s.y for s in capture.states[1:]]
    reference = checks.fista_iterates(A, b, reg, lf, x0, 100)
    assert checks.check_fista(program, reference)
    drifted = list(program)
    drifted[50] = drifted[50] * (1.0 + 1e-6)
    assert not checks.check_fista(drifted, reference)
    assert not checks.check_fista(program[:-1], reference)
    # plain proximal gradient is not FISTA
    plain, x = [], x0
    for _ in range(100):
        x = checks.soft_threshold(x - checks.gradient(A, b, 0.0, x) / lf, reg / lf)
        plain.append(x)
    assert not checks.check_fista(plain, reference)


def test_sign_flips_keep_every_iterate():
    problem = problems.make_instance("elastic_net", seed=5, m=30, n=40, ridge=0.5)
    flipped = workloads.flip_signs(problem, np.random.default_rng(11))
    A, A_flip = problem.spec.data["A"], flipped.spec.data["A"]
    cols = np.sign(A_flip[0] / A[0]) * np.sign(flipped.spec.data["b"][0]
                                               / problem.spec.data["b"][0])
    assert not np.array_equal(A, A_flip)
    base, moved = solve(problem), solve(flipped)
    assert moved.state.k == base.state.k
    assert np.array_equal(cols * moved.state.y, base.state.y)
    assert [r.phi_y for r in moved.trace] == [r.phi_y for r in base.trace]


def test_tracer_counts_and_restores():
    from tracer import Tracer

    original = engine.step
    problem = problems.make_instance("lasso", seed=3, m=20, n=30)
    tracer = Tracer(keep_spans=True)
    with tracer.installed():
        wrapped = tracer.wrap_problem(problem)
        assert tracer.wrap_problem(wrapped).f.grad is wrapped.f.grad
        result = solve(wrapped, rho=1e-4)
        problems.make_instance("lasso", seed=3, m=20, n=30)
    assert engine.step is original
    assert tracer.counts["engine.step"] == result.state.k
    assert tracer.counts["problems.f_grad"] == 3 * result.state.k
    assert tracer.counts["problems.f_grad@reference_solve"] > 0
    busy = tracer.busy()
    total, own = busy["engine.run"]
    assert 0.0 < own < total


def test_metric_names_match_benchmark_file():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _, _ in run.PER_LAYER] + [run.OVERHEAD]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_set_ups_spread_among_rounds():
    class Counting:
        made = 0
        kernel_shape, kernel_steps, kernel_ref_s = (4, 3), 2, 0.5

        def make(self):
            self.made += 1
            return []

        def round(self, instances, scratch):
            return None

        def check_round(self, instances, outcome):
            return [("round", True)]

    for rounds in (1, 3, 25):
        workload = Counting()
        times, setup_times = run.timed_rounds(workload, [], rounds, None,
                                              run.Tally(), run.Paired(workload),
                                              setups=4)
        assert len(times) == rounds
        assert len(setup_times) == workload.made == 4
        assert all(wall > 0.0 and ratio > 0.0 for wall, ratio in times)


def test_paired_ratio_is_time_over_kernel_mean():
    class Fixed:
        kernel_shape, kernel_steps, kernel_ref_s = (4, 3), 2, 0.5

    paired = run.Paired(Fixed())
    paired.kernel = lambda: time.sleep(0.01)
    paired.last = 0.01
    _, wall, ratio = paired.measure(lambda: time.sleep(0.03))
    assert 2.0 < ratio < 4.0
    assert ratio == pytest.approx(wall / (0.5 * (0.01 + paired.last)))
    assert paired.seconds([1.0, 3.0, 2.0]) == 1.0
