"""How a run ends when an oracle of f turns NaN or infinite.

Four faults on the 20x30 elastic net, crossed with no criterion and each of
the five criteria and with trace_every 1 and 500, at max_iter = 500.  A NaN
gradient makes y_1 NaN, which every test meets at k = 1.  A non-finite
f.value reaches only phi(y), which every run tests in each row it builds,
whatever the criterion and the spacing: row 0, which every run builds,
holds phi(x0), so these runs end at k = 0.  Every cell ends with
numeric_failure.
"""

import dataclasses
import math

import numpy as np
import pytest

from sfista import bounds, cli, engine

C = bounds.Criterion
CRITERIA = {
    "none": None,
    "function_gap": C.function_gap(1e-6),
    "stationarity": C.stationarity(1e-6),
    "relative": C.relative(0.1),
    "alternate_relative": C.alternate_relative(0.5),
    "absolute": C.absolute(1e-6, 1e-6),
}
MAX_ITER = 500
FAULTS = ("nan_grad", "nan_value", "inf_value", "neg_inf_value")


def _faulty(problem, fault):
    """problem with the fault in its f oracle."""
    if fault == "nan_grad":
        f = dataclasses.replace(problem.f,
                                grad=lambda x: np.full_like(x, math.nan))
    elif fault == "nan_value_off_x0":
        # phi(x0) stays finite at the runs' start x0 = 0
        value = problem.f.value
        f = dataclasses.replace(
            problem.f, value=lambda x: value(x) if not x.any() else math.nan)
    else:
        value = {"nan_value": math.nan, "inf_value": math.inf,
                 "neg_inf_value": -math.inf}[fault]
        f = dataclasses.replace(problem.f, value=lambda x: value)
    return dataclasses.replace(problem, f=f)


@pytest.mark.parametrize("trace_every", [1, MAX_ITER])
@pytest.mark.parametrize("name", list(CRITERIA))
@pytest.mark.parametrize("fault", FAULTS)
def test_failure_mode_matrix(elastic_net_20x30, fault, name, trace_every):
    problem = _faulty(elastic_net_20x30, fault)
    config = engine.SolverConfig.for_problem(
        problem, max_iter=MAX_ITER, criterion=CRITERIA[name],
        trace_every=trace_every)
    result = engine.run(problem, config, np.zeros(problem.dimension))
    assert result.reason == "numeric_failure"
    assert result.state.k == (1 if fault == "nan_grad" else 0)


# (fault, criterion flags, exit code, final k): one cell of each kind
SOLVE_CELLS = [
    ("nan_grad", [], 4, 1),
    ("nan_grad", ["--criterion", "function_gap", "--eps-bar", "1e-6"], 4, 1),
    ("nan_grad", ["--criterion", "stationarity", "--rho", "1e-6"], 4, 1),
    # untraced too, row 0 holds phi(x0)
    ("nan_value", [], 4, 0),
    ("nan_value", ["--criterion", "function_gap", "--eps-bar", "1e-6"], 4, 0),
    ("nan_value", ["--criterion", "stationarity", "--rho", "1e-6"], 4, 0),
    # phi(x0) finite and untraced: only the final row holds phi(y), at the
    # cap or where the criterion holds
    ("nan_value_off_x0", [], 4, MAX_ITER),
    ("nan_value_off_x0", ["--criterion", "stationarity", "--rho", "1e-6"],
     4, 167),
]


@pytest.mark.parametrize("fault,flags,code,k", SOLVE_CELLS)
def test_solve_exit_code_on_fault(cli_serves, capsys, elastic_net_20x30,
                                  fault, flags, code, k):
    cli_serves(_faulty(elastic_net_20x30, fault))
    got = cli.main(["solve", "--problem", "elastic_net", "--seed", "1",
                    "--m", "20", "--n", "30", "--max-iter", str(MAX_ITER)]
                   + flags)
    out = capsys.readouterr().out.splitlines()
    assert got == code
    assert "stop_reason = numeric_failure" in out
    assert f"iterations = {k}" in out
