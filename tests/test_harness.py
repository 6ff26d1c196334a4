"""Recorded runs, invariant sweeps, predictor rows, and trace formatting."""

import math
import tracemalloc

import numpy as np
import pytest

from sfista import bounds, engine, harness, problems


# ---------------------------------------------------------------------------
# capture_run
# ---------------------------------------------------------------------------

def test_capture_structure(elastic_capture):
    cap = elastic_capture
    assert cap.iterations == 800
    assert len(cap.states) == 801
    assert len(cap.pairs) == 801 and cap.pairs[0] is None
    assert math.isnan(cap.norm_u[0])
    assert cap.phi_y.shape == (801,)
    assert not cap.overflowed
    ks = [s.k for s in cap.states]
    assert ks == list(range(801))


def test_capture_gaps_and_d0(elastic_capture, elastic_mu1):
    gaps = elastic_capture.gaps()
    assert gaps[0] >= gaps[-1] >= -1e-9
    ref = elastic_mu1.reference_optimum
    assert elastic_capture.d0() == float(np.linalg.norm(ref.x_star))


def test_capture_without_reference_refuses_gap_queries(lasso_norm):
    config = engine.SolverConfig.for_problem(lasso_norm)
    cap = harness.capture_run(lasso_norm, config, np.zeros(lasso_norm.dimension), 3)
    with pytest.raises(ValueError):
        cap.gaps()
    with pytest.raises(ValueError):
        cap.d0()


def test_capture_stops_at_overflow(quad1d):
    # lam = 1e7 with mu = 1 forces per-step growth by a factor around 1e3
    config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0)
    cap = harness.capture_run(quad1d, config, np.array([1.0]), 500)
    assert cap.overflowed
    assert 0 < cap.iterations < 500
    assert cap.states[-1].A <= engine.OVERFLOW_LIMIT


# ---------------------------------------------------------------------------
# invariant sweep
# ---------------------------------------------------------------------------

def test_checkpoints_are_log_spaced():
    assert harness.checkpoints(7) == [1, 2, 5, 7]
    assert harness.checkpoints(1) == [1]
    assert harness.checkpoints(0) == []
    assert harness.checkpoints(10000)[-1] == 10000


def test_worst_result_on_empty_input():
    result = harness._worst_result("anything", [], 1.0)
    assert result.passed
    assert result.note == "no applicable iterates"
    assert "pass" in result.line()


def test_invariant_report_plain_convexity(lasso42_capture):
    report = harness.invariant_report(lasso42_capture, sample_count=60)
    names = [c.name for c in report.checks]
    assert "coefficient_identity" in names
    assert "function_gap_rate" in names
    assert "distance_y_bound" not in names  # mu = 0 run
    failed = [c.line() for c in report.checks if not c.passed]
    assert report.overall, failed
    assert report.lines()[-1] == "overall = pass"


def test_invariant_report_strongly_convex(elastic_capture):
    report = harness.invariant_report(elastic_capture, sample_count=60)
    names = [c.name for c in report.checks]
    assert "distance_y_bound" in names
    assert "pair_absolute_bounds" in names
    failed = [c.line() for c in report.checks if not c.passed]
    assert report.overall, failed
    # tau crosses the noise gate well before 800, so gated checks stop early
    gated = next(c for c in report.checks if c.name == "certificate_identity")
    assert "checked" in gated.note and " of 800" in gated.note


def test_check_result_line_formats():
    result = harness.CheckResult(name="abc", passed=False, worst=2.0,
                                 limit=1.0, location=17, note="gated")
    line = result.line()
    assert line.startswith("abc = FAIL")
    assert "k = 17" in line and "gated" in line


# ---------------------------------------------------------------------------
# predictor suite pieces
# ---------------------------------------------------------------------------

def test_suite_criteria_order(elastic_mu1):
    variants = [c.variant for c in harness.suite_criteria(elastic_mu1, d0=1.0)]
    assert variants == ["function_gap", "stationarity", "relative",
                        "alternate_relative", "absolute"]


def test_predictor_row_single_instance():
    problem = problems.make_instance("logistic_l2", 5, 20, 10, ridge=1.0)
    from sfista import bounds
    row = harness.predictor_row("logistic_l2[seed=5]", problem,
                                bounds.Criterion.relative(0.1))
    assert row.passed
    assert row.observed_k is not None
    assert row.observed_k <= row.predicted_k
    assert "pass" in row.line()


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def _sample_records():
    return [
        engine.TraceRecord(k=0, a=0.1, A=0.0, tau=1.0, phi_y=2.0, gap=None,
                           norm_u=None, norm_v=None, eta_residual=None,
                           elapsed_ns=100),
        engine.TraceRecord(k=1, a=0.25, A=0.1, tau=1.0, phi_y=1.5, gap=0.5,
                           norm_u=0.25, norm_v=0.5, eta_residual=0.125,
                           elapsed_ns=245),
    ]


def test_format_trace_layout():
    text = harness.format_trace(_sample_records(), meta={"kind": "lasso",
                                                         "seed": 42})
    lines = text.splitlines()
    assert lines[0] == "# kind = lasso"
    assert lines[1] == "# seed = 42"
    assert lines[2] == ",".join(harness.TRACE_COLUMNS)
    # shortest round-trippable decimal: 0.1 keeps all 17 digits, 1.0 shrinks
    assert lines[3] == "0,0.10000000000000001,0,1,2,,,,,100"
    assert lines[4] == "1,0.25,0.10000000000000001,1,1.5,0.5,0.25,0.5,0.125,245"


def test_format_trace_without_meta():
    text = harness.format_trace(_sample_records())
    assert text.splitlines()[0] == ",".join(harness.TRACE_COLUMNS)
    assert text.endswith("\n")


def test_write_trace_round_trip(tmp_path, quad1d, lasso_small, lasso_norm,
                                nan_gradient_net):
    # the streamed file equals format_trace's text byte for byte on runs
    # whose rows hold every kind of field the writer formats
    zeros = lambda problem: np.zeros(problem.dimension)
    stationarity = bounds.Criterion.stationarity(1e-6)
    # certificates empty at k = 0, then complete rows
    traced = engine.run(lasso_small, engine.SolverConfig.for_problem(
        lasso_small, criterion=stationarity), zeros(lasso_small))
    assert traced.trace[0].norm_u is None and traced.reason == "converged"
    # no reference optimum: gap empty on every row
    no_reference = engine.run(lasso_norm, engine.SolverConfig.for_problem(
        lasso_norm, max_iter=40, trace_every=3), zeros(lasso_norm))
    assert all(r.gap is None for r in no_reference.trace)
    # the last row's next coefficient overflows: a = inf
    overflow = engine.run(quad1d, engine.SolverConfig(
        lf=1.0 + 1e-7, mu_f=1.0, max_iter=1000), np.array([1.0]))
    assert overflow.reason == "growth_overflow"
    # NaN gradients: NaN certificate fields
    nan = engine.run(nan_gradient_net, engine.SolverConfig.for_problem(
        nan_gradient_net, max_iter=500, criterion=stationarity),
        zeros(nan_gradient_net))
    assert nan.reason == "numeric_failure"
    # a hand-made row with negative zeros, an infinity and a NaN
    odd = engine.TraceRecord(k=3, a=math.inf, A=-0.0, tau=1.0, phi_y=math.nan,
                             gap=-0.0, norm_u=0.0, norm_v=1e-300,
                             eta_residual=-1.5e308, elapsed_ns=0)
    meta = {"kind": "test", "lf": problems.format_real(0.1)}
    for i, records in enumerate((_sample_records(), traced.trace,
                                 no_reference.trace, overflow.trace, nan.trace,
                                 [odd])):
        path = tmp_path / f"run{i}.csv"
        harness.write_trace(path, records, meta)
        assert path.read_bytes() == harness.format_trace(records, meta).encode()
    last = lambda records: harness.format_trace(records).splitlines()[-1]
    assert last(no_reference.trace).split(",")[5] == ""
    assert last(overflow.trace).split(",")[1] == "inf"
    assert last(nan.trace).split(",")[6] == "nan"
    assert last([odd]) == "3,inf,-0,1,nan,-0,0,1e-300,-1.5e+308,0"


def test_write_trace_streams_rows(tmp_path):
    # the README lasso's 7255 rows take about 1 MB of text; writing them row
    # by row keeps the writer's own peak to a few buffers
    records = [engine.TraceRecord(k=k, a=0.1 * k, A=1.0 / 3.0 + k, tau=1.0,
                                  phi_y=2.0 / 3.0, gap=1e-7 / 3.0,
                                  norm_u=math.pi, norm_v=math.e,
                                  eta_residual=1.0 / 7.0, elapsed_ns=10**9 + k)
               for k in range(7255)]
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        harness.write_trace(path, records, meta={"seed": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2**20
    assert peak < 256 * 2**10
