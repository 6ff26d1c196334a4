"""Recorded runs, invariant sweeps, predictor rows, and trace formatting."""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfista import bounds, certificates, engine, harness, problems
from sfista.errors import ConfigError


# ---------------------------------------------------------------------------
# capture_run
# ---------------------------------------------------------------------------

def test_capture_structure(elastic_capture, elastic_rows):
    cap = elastic_capture
    assert cap.iterations == 800
    assert len(cap.states) == 801
    assert len(elastic_rows) == 801 and elastic_rows[0].norm_v is None
    assert elastic_rows[0].norm_u is None
    assert [row.k for row in elastic_rows] == list(range(801))
    assert not cap.overflowed
    ks = [s.k for s in cap.states]
    assert ks == list(range(801))


def test_capture_gaps_and_d0(elastic_capture, elastic_rows, elastic_mu1):
    gaps = [row.gap for row in elastic_rows]
    assert gaps[0] >= gaps[-1] >= -1e-9
    ref = elastic_mu1.reference_optimum
    assert elastic_capture.d0() == float(np.linalg.norm(ref.x_star))


def test_capture_without_reference_refuses_gap_queries(lasso_norm, run_rows):
    config = engine.SolverConfig.for_problem(lasso_norm)
    cap = harness.capture_run(lasso_norm, config, np.zeros(lasso_norm.dimension), 3)
    assert all(row.gap is None for row in run_rows(cap))
    with pytest.raises(ValueError):
        cap.d0()


def test_capture_stops_at_overflow(quad1d):
    # lam = 1e7 with mu = 1 forces per-step growth by a factor around 1e3
    config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0)
    cap = harness.capture_run(quad1d, config, np.array([1.0]), 500)
    assert cap.overflowed
    assert 0 < cap.iterations < 500
    assert cap.states[-1].A <= engine.OVERFLOW_LIMIT


def test_capture_rejects_negative_step_count(monkeypatch, quad1d):
    steps = []
    step = engine.step

    def logged_step(state, problem):
        steps.append(state.k)
        return step(state, problem)

    monkeypatch.setattr(engine, "step", logged_step)
    with pytest.raises(ConfigError, match="step count -1 must be nonnegative"):
        harness.capture_run(quad1d, engine.SolverConfig(lf=2.0),
                            np.array([1.0]), -1)
    assert steps == []


# ---------------------------------------------------------------------------
# invariant sweep
# ---------------------------------------------------------------------------

def test_checkpoints_are_log_spaced():
    assert harness.checkpoints(7) == [1, 2, 5, 7]
    assert harness.checkpoints(1) == [1]
    assert harness.checkpoints(0) == []
    assert harness.checkpoints(10000)[-1] == 10000


def test_worst_result_on_empty_input():
    result = harness._Worst("anything", 1.0).result()
    assert result.passed and result.skipped
    assert result.note == "no applicable iterates"
    assert result.line() == "anything = skipped (no applicable iterates)"


# ties of equal values, zeros of both signs, infinities and NaNs
_FOLDED = st.lists(st.floats() | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]),
    min_size=1, max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=_FOLDED)
def test_worst_fold_picks_what_argmax_picks(values):
    # the first NaN, else the first largest value, with its bits
    fold = harness._Worst("anything")
    for k, value in enumerate(values, 1):
        fold.add(value, k)
    idx = int(np.argmax(values))
    assert fold.at == idx + 1 and fold.count == len(values)
    assert struct.pack("d", fold.worst) == struct.pack("d", values[idx])


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


def test_invariant_report_rejects_negative_sample_count(elastic_capture):
    with pytest.raises(ConfigError, match="sample count -1 must be nonnegative"):
        harness.invariant_report(elastic_capture, sample_count=-1)


def test_invariant_report_without_samples_skips(elastic_capture):
    report = harness.invariant_report(elastic_capture, sample_count=0)
    skipped = [c.name for c in report.checks if c.skipped]
    assert skipped == ["lower_model_minorizes", "model_subgradient",
                       "eps_subgradient"]
    assert report.checks[-1].line().startswith(
        "eps_subgradient = skipped (0 samples at k in [1, 2, 5, ")
    assert report.overall and report.lines()[-1] == "overall = pass"


def _report_checks(capture, sample_count):
    report = harness.invariant_report(capture, sample_count=sample_count)
    return report, {c.name: c for c in report.checks}


def test_nan_at_the_samples_fails_the_sampled_checks(elastic_mu1,
                                                     elastic_capture):
    # f.value is NaN only far from x*, where most samples fall but no iterate
    # does; a max that skipped NaN would report these checks as passing
    far = 3.0 * (1.0 + problems.vector_norm(
        elastic_mu1.reference_optimum.x_star))
    value = elastic_mu1.f.value
    f = dataclasses.replace(
        elastic_mu1.f,
        value=lambda x: math.nan if problems.vector_norm(x) > far else value(x))
    capture = dataclasses.replace(
        elastic_capture, problem=dataclasses.replace(elastic_mu1, f=f))
    report, checks = _report_checks(capture, 20)
    for name in ("lower_model_minorizes", "eps_subgradient"):
        assert not checks[name].passed and math.isnan(checks[name].worst)
        assert checks[name].line().startswith(f"{name} = FAIL (worst nan")
    assert checks["model_subgradient"].passed
    assert not report.overall and report.lines()[-1] == "overall = FAIL"


@pytest.mark.parametrize("oracle", ["f", "h"])
def test_minus_inf_at_the_samples_fails_the_sampled_checks(
        elastic_mu1, elastic_capture, oracle):
    # +inf alone marks a point off dom h: a -inf value of f or h far from
    # x*, where samples fall but no iterate does, makes phi -inf there, and
    # that is a violation, not a skipped sample
    far = 3.0 * (1.0 + problems.vector_norm(
        elastic_mu1.reference_optimum.x_star))
    part = getattr(elastic_mu1, oracle)
    value = part.value
    faulty = dataclasses.replace(
        part,
        value=lambda x: -math.inf if problems.vector_norm(x) > far
        else value(x))
    capture = dataclasses.replace(
        elastic_capture,
        problem=dataclasses.replace(elastic_mu1, **{oracle: faulty}))
    report, checks = _report_checks(capture, 20)
    for name in ("lower_model_minorizes", "eps_subgradient"):
        assert not checks[name].passed and checks[name].worst == math.inf
        assert checks[name].line().startswith(f"{name} = FAIL (worst inf")
    assert checks["model_subgradient"].passed
    assert not report.overall and report.lines()[-1] == "overall = FAIL"


def test_nan_residual_fails_min_norm_bound(elastic_capture, monkeypatch):
    # the running least ||u_i||^2 keeps a NaN ||u_3||; min would drop it
    residual = certificates.stationarity_residual

    def nan_at_3(state, problem, *grad_y):
        u = residual(state, problem, *grad_y)
        return dataclasses.replace(u, norm=math.nan) if state.k == 3 else u

    monkeypatch.setattr(certificates, "stationarity_residual", nan_at_3)
    _, checks = _report_checks(elastic_capture, 0)
    check = checks["min_norm_bound"]
    assert not check.passed and math.isnan(check.worst)
    assert check.location == 3


# a pair whose eta, or whose v and so ||v||, is NaN
_NAN_PAIR = {
    "eta_residual": lambda pair: dataclasses.replace(pair, eta=math.nan),
    "norm_v": lambda pair: dataclasses.replace(
        pair, v=np.full_like(pair.v, math.nan)),
}


@pytest.mark.parametrize("field", ["eta_residual", "norm_v"])
def test_nan_pair_fails_both_pair_bounds(elastic_mu1, monkeypatch, field):
    # a 100-step capture of the README net with eta_4 (or ||v_4||) NaN: the
    # larger of the two excesses keeps a NaN from either side
    capture = harness.capture_run(elastic_mu1,
                                  engine.SolverConfig.for_problem(elastic_mu1),
                                  np.zeros(elastic_mu1.dimension), 100)
    pair_of = certificates.residual_pair

    def nan_at_4(state):
        pair = pair_of(state)
        return _NAN_PAIR[field](pair) if state.k == 4 else pair

    monkeypatch.setattr(certificates, "residual_pair", nan_at_4)
    _, checks = _report_checks(capture, 0)
    for name in ("pair_norm_bounds", "pair_absolute_bounds"):
        check = checks[name]
        assert not check.passed and math.isnan(check.worst)
        assert check.location == 4
        assert check.line().startswith(f"{name} = FAIL (worst nan")


def test_report_reads_a_reference_attached_after_the_capture(elastic_mu1):
    # a capture holds states alone, so the README net captured without a
    # reference optimum and given one later reports what a capture taken
    # with it reports, the gap checks included
    p = problems.make_instance("elastic_net", 7, 30, 50, reg=0.05, ridge=1.0,
                               with_reference=False)
    capture = harness.capture_run(p, engine.SolverConfig.for_problem(p),
                                  np.zeros(p.dimension), 20)
    capture = dataclasses.replace(capture,
                                  problem=problems.attach_reference(p))
    expected = harness.capture_run(
        elastic_mu1, engine.SolverConfig.for_problem(elastic_mu1),
        np.zeros(elastic_mu1.dimension), 20)
    lines = harness.invariant_report(capture, sample_count=5).lines()
    assert lines == harness.invariant_report(expected, sample_count=5).lines()
    assert any(line.startswith("function_gap_rate = pass") for line in lines)
    assert lines[-1] == "overall = pass"


def test_invariant_report_without_iterates_is_skipped(elastic_mu1):
    config = engine.SolverConfig.for_problem(elastic_mu1)
    capture = harness.capture_run(elastic_mu1, config,
                                  np.zeros(elastic_mu1.dimension), 0)
    report = harness.invariant_report(capture, sample_count=10)
    assert all(c.skipped for c in report.checks)
    assert not report.overall
    assert report.lines()[-1] == "overall = skipped"


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
    row = harness.suite_rows("logistic_l2[seed=5]", problem,
                             [bounds.Criterion.relative(0.1)])[0]
    assert row.passed
    assert row.observed_k is not None
    assert row.observed_k <= row.predicted_k
    assert "pass" in row.line()


def _rows_one_run_each(label, problem):
    """The suite's rows from one engine.run per criterion, and each reason.

    The reference for the one-pass suite: each run has max_iter =
    predicted_k, and its row is observed only when the run converged.
    """
    x0 = np.zeros(problem.dimension)
    d0 = float(np.linalg.norm(x0 - problem.reference_optimum.x_star))
    rows, reasons = [], []
    for criterion in harness.suite_criteria(problem, d0):
        config = engine.SolverConfig.for_problem(problem, criterion=criterion)
        predicted = bounds.predicted_iterations(
            criterion, config.lf, problem.f.curvature, config.mu_f, config.mu,
            d0=d0).predicted_k
        result = engine.run(problem, dataclasses.replace(
            config, max_iter=predicted, trace_every=predicted), x0)
        observed = result.state.k if result.reason == "converged" else None
        rows.append(harness.BoundsRow(
            label=label, variant=criterion.variant, predicted_k=predicted,
            observed_k=observed,
            passed=observed is not None and observed <= predicted))
        reasons.append(result.reason)
    return rows, reasons


@pytest.mark.parametrize("seed_base", [0, 17])
def test_bounds_suite_matches_one_run_per_criterion(seed_base):
    expected = []
    for label, problem in harness._suite_instances(seed_base):
        expected += _rows_one_run_each(label, problem)[0]
    assert harness.bounds_suite(seed_base) == expected


def _suite_rows(label, problem):
    d0 = float(np.linalg.norm(problem.reference_optimum.x_star))
    return harness.suite_rows(label, problem,
                              harness.suite_criteria(problem, d0))


def test_suite_rows_nan_gradient_matches_numeric_failure(monkeypatch):
    # the reference optimum is solved with the real gradient, then every
    # gradient the solver asks for is NaN
    problem = problems.make_instance("elastic_net", 1, 20, 30)
    f = dataclasses.replace(problem.f, grad=lambda x: np.full_like(x, math.nan))
    problem = dataclasses.replace(problem, f=f)
    label = "nan_gradient"
    expected, reasons = _rows_one_run_each(label, problem)
    assert reasons == ["numeric_failure"] * 5
    steps = []
    real_step = engine.step

    def counted(state, stepped_problem):
        steps.append(state.k)
        return real_step(state, stepped_problem)

    monkeypatch.setattr(engine, "step", counted)
    rows = _suite_rows(label, problem)
    assert rows == expected
    assert [(row.observed_k, row.passed) for row in rows] == [(None, False)] * 5
    # every criterion meets NaN at k = 1, which ends the pass
    assert steps == [0]


def test_suite_rows_function_gap_tested_at_k0():
    # a regularizer this large makes x* = 0, so the start already meets the
    # gap tolerance; the other criteria are first tested at k = 1
    problem = problems.make_instance("elastic_net", 1, 20, 30, reg=1e3,
                                     ridge=1.0)
    rows = _suite_rows("zero_optimum", problem)
    assert rows == _rows_one_run_each("zero_optimum", problem)[0]
    assert [row.observed_k for row in rows] == [0, 1, 1, 1, 1]


def test_suite_rows_stops_testing_at_each_prediction(monkeypatch):
    # with the stationarity prediction cut to 2 steps, that criterion must
    # stop being tested at k = 2 while the pass goes on for the others
    real = bounds.predicted_iterations

    def cut(criterion, *args, **kwargs):
        report = real(criterion, *args, **kwargs)
        if criterion.variant == "stationarity":
            report = dataclasses.replace(report, predicted_k=2)
        return report

    monkeypatch.setattr(bounds, "predicted_iterations", cut)
    label, problem = next(harness._suite_instances(0))
    rows = _suite_rows(label, problem)
    assert rows == _rows_one_run_each(label, problem)[0]
    assert (rows[1].variant, rows[1].observed_k) == ("stationarity", None)
    assert max(row.observed_k or 0 for row in rows) > 2


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


# one value of each kind the printer meets: an int, a negative zero, both
# infinities, a NaN, the smallest subnormal, and the largest elapsed_ns a
# packed row holds exactly
_PRINTER_VALUES = dict(k=7, a=-0.0, A=math.inf, tau=1.0, phi_y=math.nan,
                       gap=5e-324, norm_u=-math.inf, norm_v=0.1,
                       eta_residual=1e300, elapsed_ns=2**53 - 1)


def _reference_line(record):
    """A row's line as the columns define it, field by field."""
    return ",".join(
        "" if value is None
        else str(value) if isinstance(value, int)
        else problems.format_real(value)
        for value in dataclasses.astuple(record)) + "\n"


def test_trace_printer_covers_every_none_mask():
    # each of the 2**10 sets of None fields, the empty one included, prints
    # alike from a Trace and from the list of its records, and as the
    # columns define the line
    names = harness.TRACE_COLUMNS
    records = [engine.TraceRecord(**{
        name: None if mask >> j & 1 else _PRINTER_VALUES[name]
        for j, name in enumerate(names)}) for mask in range(2**len(names))]
    text = harness.format_trace(records)
    assert harness.format_trace(engine.Trace(records)) == text
    assert text.splitlines(True)[1:] == [_reference_line(r) for r in records]
    lines = text.splitlines()
    assert lines[1] == ("7,-0,inf,1,nan,4.9406564584124654e-324,-inf,"
                        "0.10000000000000001,1.0000000000000001e+300,"
                        "9007199254740991")
    assert lines[-1] == ",,,,,,,,,"


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


def test_reference_distance_is_the_captured_d0(lasso42_capture, elastic_capture):
    # 0 - x* is exact, so every d0 of a start at the origin has the bits of
    # ||x*||
    for capture in (lasso42_capture, elastic_capture):
        ref = capture.problem.reference_optimum
        d0 = ref.distance(np.zeros(capture.problem.dimension))
        assert d0 == capture.d0() == problems.vector_norm(ref.x_star)
