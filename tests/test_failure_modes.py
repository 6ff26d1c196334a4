"""How a run ends when an oracle turns NaN or infinite, or a constant is huge.

Four faults on the 20x30 elastic net, crossed with no criterion and each of
the five criteria and with trace_every 1 and 500, at max_iter = 500.  A NaN
gradient makes y_1 NaN, which every test meets at k = 1.  A non-finite
f.value reaches only phi(y), which every run tests in each row it builds,
whatever the criterion and the spacing: row 0, which every run builds,
holds phi(x0), so these runs end at k = 0.  Every cell ends with
numeric_failure, and so does every cell of a prox whose y has an infinite
entry, in the step's mu = 0 form and in its general form alike.  A huge
strong-convexity modulus ends a run at the growth halt with finite
iterates, and its invariant report is made, with no OverflowError and no
NaN.  Data whose objective overflows where the CLI starts are refused
before any solve.
"""

import dataclasses
import math

import numpy as np
import pytest

from sfista import bounds, cli, engine, problems

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


# ---------------------------------------------------------------------------
# an infinite entry in y, in the mu = 0 form of the step and the general one
# ---------------------------------------------------------------------------

def _infinite_prox(problem):
    """problem with a prox whose first entry is +inf at every point."""
    prox = problem.h.prox

    def broken(x, t):
        out = prox(x, t)
        out[0] = math.inf
        return out

    return dataclasses.replace(problem,
                               h=dataclasses.replace(problem.h, prox=broken))


# form -> (mu_f = mu_h, x_1 at y_1's infinite entry, the last row's
# norm_v).  +0.0 takes the step's mu = 0 form, where x_1 is infinite there
# and so is v = (x0 - x) / A; -0.0, which init accepts, takes the general
# one, whose term 0 * inf (or 0 * NaN) makes both NaN
FORMS = {"mu=0 form": (0.0, math.inf, math.inf),
         "general form": (-0.0, math.nan, math.nan)}


@pytest.mark.parametrize("trace_every", [1, MAX_ITER])
@pytest.mark.parametrize("name", list(CRITERIA))
@pytest.mark.parametrize("form", list(FORMS))
def test_an_infinite_y_ends_numeric_failure_in_either_form(
        elastic_net_20x30, form, name, trace_every):
    problem = _infinite_prox(elastic_net_20x30)
    modulus, x_at_inf, norm_v = FORMS[form]
    config = engine.SolverConfig.for_problem(
        problem, mu_f=modulus, mu_h=modulus, max_iter=MAX_ITER,
        criterion=CRITERIA[name], trace_every=trace_every)
    x0 = np.zeros(problem.dimension)
    with np.errstate(invalid="ignore"):
        first = engine.step(engine.init(problem, config, x0), problem)
        result = engine.run(problem, config, x0)
    assert first.y[0] == math.inf and np.isfinite(first.x[1:]).all()
    # assert_equal takes NaN as equal to NaN
    np.testing.assert_equal(first.x[0], x_at_inf)
    assert result.reason == "numeric_failure"
    if trace_every == 1:
        # the traced k = 1 row is where the forms part
        np.testing.assert_equal(result.trace[1].norm_v, norm_v)


# ---------------------------------------------------------------------------
# extreme constants: the growth halt and the invariant report
# ---------------------------------------------------------------------------

# ridge 1e300 makes mu about 1e300: tau = 1 + mu A passes OVERFLOW_LIMIT
# while A is still below 1, and the largest double soon after
HUGE_RIDGE = ["--problem", "elastic_net", "--seed", "1", "--m", "2", "--n",
              "8", "--ridge", "1e300"]


@pytest.fixture(scope="module")
def huge_ridge():
    return problems.make_instance("elastic_net", seed=1, m=2, n=8, ridge=1e300)


def test_growth_halts_before_tau_overflows(huge_ridge):
    # the halt used to miss tau: at k = 403 tau was inf, x NaN and ||v|| NaN
    config = engine.SolverConfig.for_problem(huge_ridge, max_iter=2000)
    result = engine.run(huge_ridge, config, np.zeros(huge_ridge.dimension))
    assert result.reason == "growth_overflow"
    state, last = result.state, result.trace[-1]
    assert last.a == math.inf
    assert 1.0 < state.tau <= engine.OVERFLOW_LIMIT
    # the next step's coefficient, which passing mu = 0 leaves finite,
    # would take tau past the limit
    assert 1.0 + config.mu * (state.A + engine._next_coefficient(
        config.lam, 0.0, state.tau, state.A)) > engine.OVERFLOW_LIMIT
    assert np.isfinite(state.x).all() and np.isfinite(state.y).all()
    assert math.isfinite(last.norm_v) and math.isfinite(last.eta_residual)
    # the schedule halts at the same step
    sched = engine.coefficient_schedule(config.lf, config.mu_f, config.mu_h,
                                        2000)
    assert sched.overflowed and len(sched.a) == state.k
    assert np.isfinite(sched.tau).all()
    assert sched.tau.max() <= engine.OVERFLOW_LIMIT


def test_solve_halts_with_finite_iterates_on_a_huge_modulus(
        cli_serves, capsys, huge_ridge):
    cli_serves(huge_ridge)
    got = cli.main(["solve", *HUGE_RIDGE])
    out = capsys.readouterr().out
    assert got == 1
    assert "stop_reason = growth_overflow" in out.splitlines()
    assert "nan" not in out


def test_invariant_report_on_a_huge_modulus_is_made(cli_serves, capsys,
                                                    huge_ridge):
    # lf**2 and the pair bounds' squares pass the largest double, where **
    # raised OverflowError and the command exited 1 with a traceback.  The
    # min-norm bound 8 lf^2 d0^2 is taken as 8 (lf d0)^2 there, not
    # inf * 0 = NaN, and falls under its rounding floor; ||y_1 - x0|| near
    # 1e-301 is taken from vector_norm, where its square underflows to 0
    # and failed pair_norm_bounds.  Every check holds.
    cli_serves(huge_ridge)
    got = cli.main(["verify", "invariants", *HUGE_RIDGE, "--iters", "1",
                    "--samples", "0"])
    out = capsys.readouterr().out
    assert got == 0
    assert "nan" not in out
    lines = out.splitlines()
    assert lines[-1] == "overall = pass"
    assert "min_norm_bound = skipped (checked 0 of 1)" in lines
    assert [line for line in lines if line.startswith("pair_norm_bounds")
            ] == ["pair_norm_bounds = pass (worst -1.000e-12, limit 0.000e+00,"
                  " k = 1, checked 1 of 1)"]


# a noise of 1e300 makes 0.5 ||b||^2 overflow at the lasso's start x0 = 0; a
# box at 1e300 puts box_qp's start there, where x^T Q x overflows.  These
# warned of an overflow in vector_norm's dot, and the solve then exited 2
# naming a residual of inf.
@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "lasso", "--m", "4", "--n", "6", "--noise", "1e300"],
    ["verify", "invariants", "--problem", "box_qp", "--m", "4", "--n", "3",
     "--lo", "1e300", "--hi", "1e300", "--iters", "1", "--samples", "3"],
    ["make-instance", "--problem", "lasso", "--m", "4", "--n", "6",
     "--noise", "1e300", "--out"],
])
def test_data_that_overflow_at_the_start_are_refused(capsys, tmp_path, argv):
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "inst.txt")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and not list(tmp_path.iterdir())
    assert err == ("error: phi(prox_h(0)) = inf is not finite: the "
                   "instance's data overflow double precision\n")
