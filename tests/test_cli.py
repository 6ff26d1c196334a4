"""End-to-end command-line behavior: flags, outputs, files, exit codes."""

import itertools
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sfista import bounds, cli, engine, harness, problems


def _lines(capsys):
    out = capsys.readouterr()
    return out.out.splitlines(), out.err.splitlines()


SMALL = ["--seed", "3", "--m", "20", "--n", "30"]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_end_to_end(tmp_path, capsys):
    trace_path = tmp_path / "out.csv"
    code = cli.main([
        "solve", "--problem", "lasso", "--seed", "42", "--m", "100",
        "--n", "200", "--reg", "0.1", "--criterion", "stationarity",
        "--rho", "1e-6", "--trace", str(trace_path),
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert "stop_reason = converged" in out
    assert "kind = lasso" in out
    assert any(line.startswith("norm_u = ") for line in out)
    text = trace_path.read_text().splitlines()
    assert text[0] == "# kind = lasso"
    header_at = text.index(",".join(engine.TRACE_COLUMNS))
    rows = text[header_at + 1:]
    assert rows[0].startswith("0,")
    final_norm_u = float(rows[-1].split(",")[6])
    assert final_norm_u <= 1e-6


def test_solve_summary_same_without_trace(tmp_path, capsys):
    # untraced runs record only the final row, which carries everything printed
    argv = ["solve", "--problem", "elastic_net", "--seed", "7", "--m", "30",
            "--n", "50", "--reg", "0.05", "--ridge", "1", "--criterion",
            "relative", "--sigma-tilde", "1e-3"]
    assert cli.main(argv + ["--trace", str(tmp_path / "t.csv")]) == 0
    traced, _ = _lines(capsys)
    assert cli.main(argv) == 0
    untraced, _ = _lines(capsys)
    assert traced[-1].startswith("trace = ")
    assert traced[:-1] == untraced
    assert "norm_u = none" not in untraced


def test_solve_max_iter_zero(capsys):
    code = cli.main(["solve", "--problem", "lasso", *SMALL, "--max-iter", "0"])
    out, _ = _lines(capsys)
    assert code == 1
    assert "stop_reason = max_iter" in out
    assert "iterations = 0" in out
    assert "norm_u = none" in out


def test_solve_rejects_loose_lf(capsys):
    for lf in ("0.5", "nan", "inf"):
        code = cli.main(["solve", "--problem", "lasso", *SMALL, "--lf", lf])
        _, err = _lines(capsys)
        assert code == 2
        assert err and err[0].startswith("error: ")


def test_solve_growth_overflow_exit(capsys):
    code = cli.main([
        "solve", "--problem", "box_qp", "--seed", "7", "--m", "30",
        "--n", "30", "--diag", "--max-iter", "5000", "--trace-every", "500",
    ])
    out, _ = _lines(capsys)
    assert code == 1
    assert "stop_reason = growth_overflow" in out


def test_solve_nan_gradient_exits_four(cli_serves, capsys, nan_gradient_net):
    cli_serves(nan_gradient_net)
    code = cli.main(["solve", "--problem", "elastic_net", "--seed", "1",
                     "--m", "20", "--n", "30", "--max-iter", "500",
                     "--criterion", "stationarity", "--rho", "1e-6"])
    out, _ = _lines(capsys)
    assert code == 4
    assert "stop_reason = numeric_failure" in out
    assert "iterations = 1" in out


def test_solve_nan_gradient_without_criterion_exits_four(cli_serves, capsys,
                                                         nan_gradient_net):
    cli_serves(nan_gradient_net)
    code = cli.main(["solve", "--problem", "elastic_net", "--seed", "1",
                     "--m", "20", "--n", "30", "--max-iter", "500"])
    out, _ = _lines(capsys)
    assert code == 4
    assert "stop_reason = numeric_failure" in out
    assert "iterations = 1" in out


def test_solve_nan_objective_without_criterion_exits_four(
        cli_serves, capsys, tmp_path, nan_off_origin_net):
    # phi(x0) is finite at the start x0 = 0, so row 0 passes
    cli_serves(nan_off_origin_net)
    trace_path = tmp_path / "nan.csv"
    code = cli.main(["solve", "--problem", "elastic_net", "--seed", "1",
                     "--m", "20", "--n", "30", "--max-iter", "500",
                     "--trace", str(trace_path)])
    out, _ = _lines(capsys)
    assert code == 4
    assert "stop_reason = numeric_failure" in out
    assert "iterations = 1" in out
    assert "phi = nan" in out
    assert trace_path.read_text().splitlines()[-1].startswith("1,")
    # untraced, the final row at the iteration cap holds phi(y)
    code = cli.main(["solve", "--problem", "elastic_net", "--seed", "1",
                     "--m", "20", "--n", "30", "--max-iter", "500"])
    out, _ = _lines(capsys)
    assert code == 4
    assert "stop_reason = numeric_failure" in out
    assert "iterations = 500" in out


def test_solve_nan_objective_at_the_start_exits_four(cli_serves, capsys,
                                                     nan_at_origin_net):
    # row 0 holds phi(x0) = NaN; at --max-iter 0 it is also the final row
    cli_serves(nan_at_origin_net)
    code = cli.main(["solve", "--problem", "elastic_net", "--seed", "1",
                     "--m", "20", "--n", "30", "--max-iter", "0",
                     "--criterion", "stationarity", "--rho", "1e-6"])
    out, _ = _lines(capsys)
    assert code == 4
    assert "stop_reason = numeric_failure" in out
    assert "iterations = 0" in out
    assert "phi = nan" in out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--no-such-flag", "1"])
    assert info.value.code == 2


def test_no_subcommand_exits_two(capsys):
    assert cli.main([]) == 2
    _, err = _lines(capsys)
    assert err  # help text lands on standard error


@pytest.mark.parametrize("argv,fragment", [
    (["--criterion", "stationarity"], "needs --rho"),
    (["--criterion", "stationarity", "--rho", "1e-6", "--sigma", "0.5"],
     "--sigma does not apply"),
    (["--rho", "1e-6"], "--rho needs --criterion"),
    (["--criterion", "stationarity", "--rho", "inf"],
     "--rho = inf must be finite"),
    (["--criterion", "stationarity", "--rho", "nan"],
     "--rho = nan must be finite"),
])
def test_solve_criterion_flag_validation(monkeypatch, capsys, argv,
                                         fragment):
    # the flags are read before the instance, so no reference solve runs
    calls = []
    monkeypatch.setattr(problems, "reference_solve",
                        lambda *args, **kwargs: calls.append(args))
    code = cli.main(["solve", "--problem", "lasso", *SMALL, *argv])
    _, err = _lines(capsys)
    assert code == 2
    assert fragment in err[0]
    assert calls == []


def test_solve_unwritable_trace_exits_two_before_any_step(monkeypatch,
                                                          capsys, tmp_path):
    # the trace path is opened before the reference solve and the run (a
    # step would raise TypeError)
    calls = []
    monkeypatch.setattr(problems, "reference_solve",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(engine, "step", None)
    path = tmp_path / "missing" / "run.csv"
    code = cli.main(["solve", "--problem", "lasso", *SMALL, "--criterion",
                     "stationarity", "--rho", "1e-6", "--trace", str(path)])
    out, err = _lines(capsys)
    assert code == 2
    assert out == []
    assert err == [f"error: [Errno 2] No such file or directory: '{path}'"]
    assert calls == []


def test_solve_config_error_keeps_an_old_trace(capsys, tmp_path):
    # a run that never starts leaves the file as it was
    path = tmp_path / "run.csv"
    path.write_text("old trace\n")
    code = cli.main(["solve", "--problem", "lasso", *SMALL, "--lf", "1",
                     "--trace", str(path)])
    _, err = _lines(capsys)
    assert code == 2
    assert err[0].startswith("error: lf = 1 must strictly exceed")
    assert path.read_text() == "old trace\n"


def test_solve_config_error_creates_no_trace(capsys, tmp_path):
    # the path is opened only once every flag has passed
    path = tmp_path / "new.csv"
    code = cli.main(["solve", "--problem", "lasso", *SMALL, "--lf", "1",
                     "--trace", str(path)])
    _, err = _lines(capsys)
    assert code == 2
    assert err[0].startswith("error: lf = 1 must strictly exceed")
    assert not path.exists()


TINY = ["--m", "20", "--n", "30"]


@pytest.mark.parametrize("argv, code, message, solves", [
    (["solve", *TINY, "--lf", "1"], 2,
     "lf = 1 must strictly exceed the curvature bound 83.1065", 0),
    (["solve", *TINY, "--mu-f", "5"], 2, "mu_f = 5 outside [0, 0]", 0),
    (["solve", *TINY, "--max-iter", "-1"], 2,
     "max_iter must be nonnegative", 0),
    (["solve", *TINY, "--trace-every", "0", "--trace", "t.csv"], 2,
     "trace_every must be a positive integer", 0),
    (["solve", *TINY, "--trace-every", "0"], 2,
     "trace_every must be a positive integer", 0),
    (["solve", *TINY, "--seed", "-1"], 2, "seed -1 must be nonnegative", 0),
    (["verify", "invariants", *TINY, "--lf", "1"], 2,
     "lf = 1 must strictly exceed the curvature bound 83.1065", 0),
    (["verify", "invariants", *TINY, "--iters", "-1"], 2,
     "step count -1 must be nonnegative", 0),
    (["verify", "bounds", "--seed-base", "-5"], 2,
     "seed -5 must be nonnegative", 0),
    (["predict", "--criterion", "function_gap", "--eps-bar", "1e-3",
      "--lf", "1", *TINY], 2,
     "lf = 1 must strictly exceed the curvature bound 83.1065", 0),
    (["predict", "--criterion", "absolute", "--eps", "1e-3", "--eta-tol",
      "1e-3", *TINY], 2, "the absolute-criterion bound requires mu > 0", 0),
    (["predict", "--criterion", "stationarity", "--rho", "1e-300", *TINY], 2,
     "rho = 1e-300 is too small: rho**2 is 0", 0),
    (["predict", "--criterion", "absolute", "--eps", "1e-300", "--eta-tol",
      "1e-3", "--problem", "elastic_net", *TINY], 2,
     "eps = 1e-300 is too small: eps**2 is 0", 0),
    (["solve", *TINY, "--criterion", "stationarity", "--rho", "1e-6"], 0,
     None, 1),
], ids=["solve-lf", "solve-mu_f", "solve-max_iter", "solve-trace_every-traced",
        "solve-trace_every", "solve-seed", "invariants-lf", "invariants-iters",
        "bounds-seed_base", "predict-lf", "predict-absolute-mu",
        "predict-rho", "predict-absolute-eps", "solve-valid"])
def test_flags_and_constants_are_checked_before_the_reference_solve(
        monkeypatch, capsys, tmp_path, argv, code, message, solves):
    # the reference optimum is the costly part of the set-up, so bad input
    # must exit before it, and a valid run solves for it once
    monkeypatch.chdir(tmp_path)
    calls = []
    solve = problems.reference_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(problems, "reference_solve", counted)
    assert cli.main(argv) == code
    out, err = _lines(capsys)
    assert len(calls) == solves
    if message is not None:
        assert out == []
        assert err == [f"error: {message}"]


def test_broken_stdout_pipe_is_not_a_flag_error(monkeypatch):
    # an OSError that names no file is not bad input and is not exit 2
    def broken(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_verify_bounds", broken)
    with pytest.raises(BrokenPipeError):
        cli.main(["verify", "bounds"])


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_stationarity_explicit(capsys):
    code = cli.main([
        "predict", "--criterion", "stationarity", "--rho", "1", "--d0", "1",
        "--lf", "2", "--lf-bar", "1",
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert "predicted_k = 10" in out
    assert "zeta = 64" in out
    assert "branch = polynomial" in out


def test_predict_relative_explicit(capsys):
    code = cli.main([
        "predict", "--criterion", "relative", "--sigma-tilde", "1",
        "--lf", "2", "--mu-f", "1", "--lf-bar", "1",
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert "abar = 4" in out
    assert "mu = 1" in out


def test_predict_relative_from_instance(capsys):
    code = cli.main([
        "predict", "--problem", "logistic_l2", "--seed", "5", "--m", "20",
        "--n", "10", "--criterion", "relative", "--sigma-tilde", "1",
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert "abar = 4" in out  # ridge default gives mu = 1
    assert any(line.startswith("lf_bar = ") for line in out)


@pytest.mark.parametrize("argv, message", [
    (["--criterion", "function_gap", "--eps-bar", "1e-3", "--lf", "1"],
     "lf = 1 must strictly exceed the curvature bound 83.1065"),
    (["--criterion", "relative", "--sigma-tilde", "0.5", "--mu-f", "5"],
     "mu_f = 5 outside [0, 0]"),
    (["--criterion", "relative", "--sigma-tilde", "0.5", "--mu-h", "1"],
     "mu_h = 1 outside [0, 0]"),
])
def test_predict_from_instance_checks_constants_as_solve_does(capsys, argv,
                                                              message):
    # the lasso's f.mu and h.mu are both 0; solve rejects these constants
    # before its first step, and predict rejects them with the same line
    instance = ["--problem", "lasso", "--m", "20", "--n", "30"]
    for command in ("predict", "solve"):
        code = cli.main([command, *instance, *argv])
        out, err = _lines(capsys)
        assert code == 2
        assert out == []
        assert err == [f"error: {message}"]


@pytest.mark.parametrize("tolerances", [
    ["--criterion", "relative", "--sigma-tilde", "1"],
    ["--criterion", "absolute", "--eps", "1e-3", "--eta-tol", "1e-3"],
])
def test_predict_from_instance_solves_only_for_d0(monkeypatch, capsys,
                                                  tolerances):
    # the reference solve is what d0 costs, so only its variants pay it
    calls = []
    solve = problems.reference_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(problems, "reference_solve", counted)
    code = cli.main([
        "predict", "--problem", "elastic_net", "--seed", "7", "--m", "30",
        "--n", "50", "--reg", "0.05", "--ridge", "1", *tolerances,
    ])
    out, _ = _lines(capsys)
    needs_d0 = tolerances[1] in bounds.D0_VARIANTS
    assert code == 0
    assert len(calls) == (1 if needs_d0 else 0)
    assert any(line.startswith("d0 = ") for line in out) == needs_d0


def test_predict_function_gap_zero_distance(capsys):
    code = cli.main([
        "predict", "--criterion", "function_gap", "--eps-bar", "1",
        "--d0", "0", "--lf", "2",
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert "predicted_k = 1" in out


def test_predict_absolute_needs_strong_convexity(capsys):
    code = cli.main([
        "predict", "--criterion", "absolute", "--eps", "0.1", "--eta-tol",
        "0.1", "--d0", "1", "--lf", "2",
    ])
    _, err = _lines(capsys)
    assert code == 2
    assert "error: " in err[0]


@pytest.mark.parametrize("argv, name", [
    (["--criterion", "function_gap", "--eps-bar", "1e-3", "--d0", "nan",
      "--lf", "2"], "d0"),
    (["--criterion", "function_gap", "--eps-bar", "1e-3", "--d0", "1",
      "--lf", "nan"], "lf"),
    (["--criterion", "stationarity", "--rho", "1", "--d0", "1", "--lf", "2",
      "--lf-bar", "inf"], "lf_bar"),
    (["--criterion", "relative", "--sigma-tilde", "1", "--d0", "1", "--lf",
      "2", "--mu-h", "nan"], "mu"),
    # constants the criterion ignores are still checked
    (["--criterion", "function_gap", "--eps-bar", "1e-3", "--d0", "1",
      "--lf", "2", "--lf-bar", "inf"], "lf_bar"),
    (["--criterion", "relative", "--sigma-tilde", "1", "--lf", "2", "--d0",
      "nan"], "d0"),
    # infinite tolerances are named by their flag
    (["--criterion", "relative", "--sigma-tilde", "inf", "--lf", "2",
      "--lf-bar", "1"], "--sigma-tilde"),
    (["--criterion", "alternate_relative", "--sigma", "inf", "--lf", "2",
      "--lf-bar", "1"], "--sigma"),
    (["--criterion", "absolute", "--eps", "inf", "--eta-tol", "1", "--d0",
      "1", "--lf", "2", "--mu-h", "1"], "--eps"),
])
def test_predict_rejects_non_finite_constants(capsys, argv, name):
    code = cli.main(["predict", *argv])
    out, err = _lines(capsys)
    assert code == 2
    assert not out
    assert err[0].startswith(f"error: {name} = ")
    assert "must be finite" in err[0]


@pytest.mark.parametrize("argv, fragment", [
    # rho**2 underflows to 0, which the closed form divides by
    (["--criterion", "stationarity", "--rho", "1e-170", "--d0", "1.5",
      "--lf", "2", "--lf-bar", "1"], "rho = 1e-170 is too small"),
    (["--criterion", "absolute", "--eps", "1e-170", "--eta-tol", "1",
      "--d0", "1.5", "--lf", "2", "--mu-h", "1"], "eps = 1e-170 is too small"),
    # mu = mu_f + mu_h below mu_f: no instance has these constants
    (["--criterion", "relative", "--sigma-tilde", "0.1", "--lf", "2",
      "--lf-bar", "1", "--mu-f", "0.5", "--mu-h", "-0.5"],
     "mu = 0 must be at least mu_f = 0.5"),
    (["--criterion", "function_gap", "--eps-bar", "1e-3", "--d0", "-1",
      "--lf", "2"], "d0 must be nonnegative"),
    (["--criterion", "stationarity", "--rho", "1", "--d0", "1", "--lf", "2"],
     "stationarity prediction needs --lf-bar"),
    ([], "predict needs --criterion"),
])
def test_predict_rejects_impossible_constants(capsys, argv, fragment):
    code = cli.main(["predict", *argv])
    out, err = _lines(capsys)
    assert code == 2
    assert not out
    assert len(err) == 1 and err[0].startswith("error: ")
    assert fragment in err[0]


def test_predict_explicit_needs_lf(capsys):
    code = cli.main([
        "predict", "--criterion", "function_gap", "--eps-bar", "1", "--d0", "1",
    ])
    _, err = _lines(capsys)
    assert code == 2
    assert "--lf" in err[0]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_equivalence_default_instance(capsys):
    code = cli.main(["verify", "equivalence", "--iters", "100",
                     "--tol", "1e-9"])
    out, _ = _lines(capsys)
    assert code == 0
    assert "overall = pass" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_equivalence_rejects_meaningless_tol(monkeypatch, capsys, tol):
    # a NaN or negative tolerance fails every deviation and an infinite one
    # passes any, so each is bad input, rejected before the first step (a
    # step would raise TypeError here)
    monkeypatch.setattr(engine, "step", None)
    code = cli.main(["verify", "equivalence", "--iters", "10", "--tol", tol])
    out, err = _lines(capsys)
    assert code == 2
    assert out == []
    assert err == [f"error: --tol = {float(tol):g} must be finite and "
                   "nonnegative"]


@pytest.mark.parametrize("flag, value", [("--mu-f", "0.5"), ("--mu-h", "0")])
def test_verify_equivalence_takes_no_moduli(capsys, flag, value):
    # the classical forms exist only with mu_f = mu_h = 0, so the moduli are
    # not flags of verify equivalence, not even set to 0
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "equivalence", flag, value])
    out, err = _lines(capsys)
    assert info.value.code == 2
    assert out == []
    assert err[-1].endswith(f"unrecognized arguments: {flag} {value}")


def test_verify_invariants_elastic(capsys):
    code = cli.main([
        "verify", "invariants", "--problem", "elastic_net", "--seed", "7",
        "--m", "30", "--n", "50", "--reg", "0.05", "--ridge", "1.0",
        "--iters", "300", "--samples", "50",
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[-1] == "overall = pass"


def test_verify_invariants_box_qp(capsys):
    code = cli.main([
        "verify", "invariants", "--problem", "box_qp", "--seed", "7",
        "--m", "20", "--n", "20", "--iters", "400", "--samples", "40",
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[-1] == "overall = pass"


def test_verify_invariants_growth_halt(capsys):
    # the 2x2 diagonal box_qp's coefficient sum reaches the halting limit
    # well inside the step budget, and the sweep still checks what it ran
    code = cli.main([
        "verify", "invariants", "--problem", "box_qp", "--diag", "--m", "2",
        "--n", "2", "--iters", "2000", "--samples", "10",
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert "iterations = 869" in out
    assert "halted = growth_overflow" in out
    assert out[-1] == "overall = pass"


# the flags of the CI's `verify invariants` commands: a strongly convex
# net, the defaults (the README lasso), an indicator h, a logistic f, a
# growth halt, and a huge modulus whose first iterates sit near 1e-301
CI_SWEEPS = [
    ["--problem", "elastic_net", "--seed", "7", "--m", "30", "--n", "50",
     "--reg", "0.05", "--ridge", "1", "--iters", "300", "--samples", "50"],
    [],
    ["--problem", "box_qp", "--seed", "3", "--m", "20", "--n", "20",
     "--iters", "200", "--samples", "30"],
    ["--problem", "logistic_l2", "--seed", "4", "--m", "60", "--n", "40",
     "--iters", "200", "--samples", "30"],
    ["--problem", "box_qp", "--diag", "--m", "2", "--n", "2", "--iters",
     "2000", "--samples", "10"],
    ["--problem", "elastic_net", "--seed", "1", "--m", "2", "--n", "8",
     "--ridge", "1e300", "--iters", "1", "--samples", "0"],
]


@pytest.mark.parametrize("flags", CI_SWEEPS)
def test_verify_invariants_reports_what_a_capture_reports(capsys, flags):
    # the command sweeps a capture's replay; the sweep of a fresh iterate
    # over the same run has the same lines and halts where it does
    code = cli.main(["verify", "invariants", *flags])
    out, _ = _lines(capsys)
    args = cli.build_parser().parse_args(["verify", "invariants", *flags])
    problem, config, x0 = cli.build_problem(args)
    problem = problems.attach_reference(problem)
    report = harness.invariant_sweep(problem, itertools.islice(
        engine.iterate(problem, config, x0), args.iters + 1), args.samples)
    lines = report.lines()
    assert out[-len(lines):] == lines
    assert f"iterations = {report.iterations}" in out
    assert (("halted = growth_overflow" in out)
            == (report.iterations < args.iters))
    assert code == 0 and lines[-1] == "overall = pass"


def test_verify_invariants_residual_envelope_at_a_huge_lf(capsys):
    # 2 lf overflows to inf at lf = 1e308, and inf * 0 is NaN: the envelope
    # 2 lf ||y_k - x_tilde_{k-1}|| doubles the norm, not lf, so its worst
    # stays finite
    cli.main(["verify", "invariants", "--m", "3", "--n", "4", "--iters", "3",
              "--samples", "2", "--lf", "1e308"])
    out, _ = _lines(capsys)
    line = next(line for line in out if line.startswith("residual_envelope"))
    assert line.startswith("residual_envelope = pass (worst ")
    assert math.isfinite(float(line.split()[4].rstrip(",")))


def test_verify_invariants_memory_does_not_grow_with_the_steps(capsys):
    # the sweep folds each check as the states pass and keeps no state:
    # 4000 steps on a 20x30 lasso peaked at 7.4 MB while the command kept
    # them.  The first call imports what the command imports, which the
    # second call's peak leaves out.
    argv = ["verify", "invariants", "--m", "20", "--n", "30", "--iters",
            "4000", "--samples", "0"]
    cli.main(argv)
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, _ = _lines(capsys)
    assert code == 0 and out[-1] == "overall = pass"
    assert peak < 2 * 2**20


def _invariants_peak(iters):
    """The tracemalloc peak of `verify invariants` on a 20x30 lasso."""
    tracemalloc.start()
    try:
        code = cli.main(["verify", "invariants", "--m", "20", "--n", "30",
                         "--iters", str(iters), "--samples", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_verify_invariants_peak_is_the_same_at_four_times_the_steps(capsys):
    # no per-iterate data: 6000 more steps must add under 64 KiB to the
    # peak, where 96 B an iterate would add over 560 KiB.  A first call
    # imports what the command imports, which the measured calls leave out.
    cli.main(["verify", "invariants", "--m", "2", "--n", "2", "--iters", "1"])
    short, long = _invariants_peak(2000), _invariants_peak(8000)
    capsys.readouterr()
    assert abs(long - short) < 64 * 2**10, (short, long)


@pytest.mark.parametrize("argv", [
    ["verify", "equivalence", "--iters", "-5"],
    ["verify", "invariants", "--m", "10", "--n", "12", "--iters", "-5"],
])
def test_verify_negative_iters_exits_two(capsys, argv):
    # a negative step count checks nothing, so it must not report a pass
    code = cli.main(argv)
    out, err = _lines(capsys)
    assert code == 2
    assert "overall = pass" not in out
    assert err == ["error: step count -5 must be nonnegative"]


def test_verify_invariants_negative_samples_exits_two(monkeypatch, capsys):
    # rejected before the capture takes a step or prints a line
    steps = []
    real_step = engine.step

    def counted(state, problem):
        steps.append(state.k)
        return real_step(state, problem)

    monkeypatch.setattr(engine, "step", counted)
    code = cli.main(["verify", "invariants", "--m", "10", "--n", "12",
                     "--samples", "-1"])
    out, err = _lines(capsys)
    assert code == 2
    assert out == [] and steps == []
    assert err == ["error: sample count -1 must be nonnegative"]


def test_verify_invariants_without_iterates_exits_three(capsys):
    # a sweep that looked at nothing must not report a pass
    code = cli.main(["verify", "invariants", "--m", "10", "--n", "12",
                     "--iters", "0"])
    out, _ = _lines(capsys)
    assert code == 3
    assert out[-1] == "overall = skipped"
    assert "coefficient_identity = skipped (no applicable iterates)" in out


def test_verify_invariants_without_samples_skips_sampled_checks(capsys):
    code = cli.main(["verify", "invariants", "--m", "10", "--n", "12",
                     "--iters", "50", "--samples", "0"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[-1] == "overall = pass"
    skipped = [line.split(" = ")[0] for line in out if "= skipped (" in line]
    assert skipped == ["lower_model_minorizes", "model_subgradient",
                       "eps_subgradient"]
    assert out[-2] == ("eps_subgradient = skipped "
                       "(0 samples at k in [1, 2, 5, 10, 20, 50])")


def test_verify_bounds_reports_rows(monkeypatch, capsys):
    rows = [
        harness.BoundsRow(label="fake[seed=0]", variant="relative",
                          predicted_k=5, observed_k=3, passed=True),
        harness.BoundsRow(label="fake[seed=1]", variant="absolute",
                          predicted_k=7, observed_k=7, passed=True),
    ]
    monkeypatch.setattr(harness, "bounds_suite", lambda seed_base: rows)
    code = cli.main(["verify", "bounds"])
    out, _ = _lines(capsys)
    assert code == 0
    assert len(out) == 3
    assert out[-1] == "overall = pass"


def test_verify_bounds_failure_exits_three(monkeypatch, capsys):
    rows = [harness.BoundsRow(label="fake[seed=0]", variant="relative",
                              predicted_k=5, observed_k=None, passed=False)]
    monkeypatch.setattr(harness, "bounds_suite", lambda seed_base: rows)
    code = cli.main(["verify", "bounds"])
    out, _ = _lines(capsys)
    assert code == 3
    assert out[-1] == "overall = FAIL"
    assert "observed none" in out[0]


# ---------------------------------------------------------------------------
# make-instance
# ---------------------------------------------------------------------------

def test_make_instance_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code = cli.main([
        "make-instance", "--problem", "elastic_net", "--seed", "9",
        "--m", "12", "--n", "18", "--out", str(path),
    ])
    out, _ = _lines(capsys)
    assert code == 0
    assert f"out = {path}" in out
    loaded = problems.load_instance(path)
    assert loaded.spec.kind == "elastic_net"
    assert loaded.dimension == 18


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, defaults in problems.INSTANCE_PARAMS.items()
    for key, default in defaults.items()
    if not isinstance(default, bool) and default != 0])
def test_real_flag_at_zero_reaches_the_instance(tmp_path, capsys, kind, key):
    # 0.0 == False, so a filter on falsy flag values would drop it
    path = tmp_path / "inst.txt"
    code = cli.main(["make-instance", "--problem", kind, *SMALL,
                     f"--{key}", "0", "--out", str(path)])
    out, _ = _lines(capsys)
    assert code == 0
    assert f"{key} = 0" in out
    assert f"{key} = 0" in path.read_text().splitlines()


def test_make_instance_rejects_non_finite_parameter(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code = cli.main(["make-instance", "--problem", "lasso", *SMALL,
                     "--density", "nan", "--out", str(path)])
    out, err = _lines(capsys)
    assert code == 2
    assert out == []
    assert err == ["error: instance parameter density = nan is not finite"]
    assert not path.exists()


def test_negative_seed_is_rejected_by_name(monkeypatch, tmp_path, capsys):
    # numpy's own message names no flag; make_instance checks the seed
    # before it draws anything, for the flags and instance files alike
    def no_draws(seed):
        raise AssertionError("data drawn")

    monkeypatch.setattr(problems, "_rng", no_draws)
    path = tmp_path / "inst.txt"
    code = cli.main(["make-instance", "--problem", "lasso", *TINY,
                     "--seed", "-1", "--out", str(path)])
    out, err = _lines(capsys)
    assert code == 2
    assert out == []
    assert err == ["error: seed -1 must be nonnegative"]
    assert not path.exists()
    path.write_text("kind = lasso\nseed = -3\nm = 12\nn = 18\n")
    with pytest.raises(ValueError, match="^seed -3 must be nonnegative$"):
        problems.load_instance(path)


def test_make_instance_unwritable_out_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "inst.txt"
    code = cli.main(["make-instance", "--problem", "lasso", *SMALL,
                     "--out", str(path)])
    out, err = _lines(capsys)
    assert code == 2
    assert out == []
    assert err == [f"error: [Errno 2] No such file or directory: '{path}'"]


def test_solve_noise_zero_reaches_the_instance(capsys):
    code = cli.main(["solve", "--problem", "lasso", *SMALL, "--noise", "0",
                     "--max-iter", "0"])
    out, _ = _lines(capsys)
    assert code == 1
    assert "noise = 0" in out


def test_make_instance_prints_the_file_it_writes(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code = cli.main([
        "make-instance", "--problem", "elastic_net", "--seed", "9",
        "--m", "12", "--n", "18", "--out", str(path),
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    assert path.read_text() == (
        "kind = elastic_net\nseed = 9\nm = 12\nn = 18\nrng = pcg64\n"
        "density = 0.10000000000000001\nnoise = 0.10000000000000001\n"
        "reg = 0.10000000000000001\nridge = 1\n"
        "lf_bar = 58.686174518903861\nmu_f_bar = 1\nmu_h_bar = 0\n")
    assert out == path.read_text() + f"out = {path}\n"


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def _strip_timing(text):
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("k,"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return out


def test_traces_are_bit_reproducible(tmp_path, capsys):
    argv = [
        "solve", "--problem", "box_qp", "--seed", "7", "--m", "12",
        "--n", "12", "--diag", "--criterion", "function_gap",
        "--eps-bar", "1e-8",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(argv + ["--trace", str(first)]) == 0
    assert cli.main(argv + ["--trace", str(second)]) == 0
    capsys.readouterr()
    assert _strip_timing(first.read_text()) == _strip_timing(second.read_text())


# ---------------------------------------------------------------------------
# a closed standard output
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, codes", [
    # 2000 trace rows, about 320 kB: far more than a pipe holds, so the
    # writes after the reader has gone fail
    (["solve", *SMALL, "--max-iter", "2000", "--trace", "/dev/stdout"],
     {141}),
    # a report that may fit in the pipe before the reader goes
    (["verify", "bounds"], {0, 141}),
], ids=["solve-trace", "verify-bounds"])
def test_a_closed_pipe_ends_without_a_traceback(argv, codes):
    # the reader takes one line and closes the pipe: the command ends with
    # the code a shell gives SIGPIPE, never 1 (the iteration cap), and
    # prints nothing on standard error
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from sfista.cli import run_main; run_main()",
         *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode in codes
    assert err == b""


# ---------------------------------------------------------------------------
# an interrupted solve
# ---------------------------------------------------------------------------

README_SOLVE = ["solve", "--problem", "lasso", "--seed", "42", "--m", "100",
                "--n", "200", "--reg", "0.1", "--criterion", "stationarity",
                "--rho", "1e-6"]


def test_an_interrupted_solve_exits_130_and_leaves_no_trace_file(tmp_path):
    # SIGINT once the trace file exists, during the reference solve or the
    # run, before any row is written: one line on standard error, no
    # traceback, the code a shell gives SIGINT, and the empty file the
    # solve created is gone
    path = tmp_path / "run.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from sfista.cli import run_main; run_main()",
         *README_SOLVE, "--trace", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    deadline = time.monotonic() + 60
    while not path.exists():
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.005)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert out == b"" and err == b"interrupted\n"
    assert not path.exists()


@pytest.mark.parametrize("before", [None, "", "old trace\n"],
                         ids=["new", "empty", "old"])
def test_an_interrupted_solve_removes_only_the_empty_file_it_made(
        monkeypatch, capsys, tmp_path, before):
    # a file that was there before the solve, empty or not, is left as it
    # was; one the solve created and wrote nothing in is removed
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "run", interrupted)
    path = tmp_path / "run.csv"
    if before is not None:
        path.write_text(before)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["solve", "--problem", "lasso", *SMALL, "--trace",
                  str(path)])
    assert capsys.readouterr().out == ""
    if before is None:
        assert not path.exists()
    else:
        assert path.read_text() == before


def test_an_interrupt_as_the_trace_file_is_made_removes_it(monkeypatch,
                                                           tmp_path):
    # an interrupt that lands once the solve has made its empty trace file,
    # before the reference solve, still removes it
    def made_then_interrupted(path, mode):
        open(path, mode).close()
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "open", made_then_interrupted, raising=False)
    path = tmp_path / "run.csv"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["solve", "--problem", "lasso", *SMALL, "--trace",
                  str(path)])
    assert not path.exists()
