"""Golden digests of iterates, trace text and verification outputs.

A refactor that leaves the arithmetic alone leaves these SHA-256 digests
alone: they cover the final x and y of the two conftest captures, the trace
text of a stationarity run and of the README quick start's `sfista solve
--trace` with the elapsed_ns column dropped, the report lines of an
invariant sweep, and the stdout of `sfista verify bounds --seed-base 0`.
The report lines round `worst` to four digits, so every check's
full-precision value is pinned too.  A change that
moves any iterate by one bit fails here, and so does one that moves the
deviation the classical equivalence check reports.  One more digest pins
the iteration predictor on a grid of constants: each point's predicted_k,
branch and constants, or the type and message of the error it raises, so
the order of the predictor's input checks is pinned too.

The trace digests (their `gap` column) and the report checks that read
phi* or d0 also pin the reference optimum to the bit.  They were recorded
again when `reference_solve` began to polish on the detected support, which
moved phi* by an ulp and x* by about 1e-11; the iterate digests did not
move.

The digests were recorded when the curvature bound came from a power
iteration, whose result differs from today's dense eigensolve in the last
bits; since lf = 1.25 * lf_bar, every iterate moves with it.  So the
instances below are rebuilt from make_instance's data at the recorded
curvature constants, which keeps the digests a test of the engine, trace
and harness arithmetic alone.  GOLDEN_LF_BAR pins today's constants; the
README trace, recorded later, is of the lasso rebuilt at its GOLDEN_LF_BAR
constant, so it too stays put when the curvature computation changes.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from sfista import bounds, classic, cli, engine, harness, problems

# curvature bounds the digests were recorded at, and the top eigenvalue of
# lasso_norm's raw design that its normalisation divided by
RECORDED_LF_BAR = {"lasso42": 597.0815011034756,
                   "elastic_mu1": 136.2075693457347,
                   "lasso_norm": 1.000000001}
RECORDED_NORM_TOP = 165.03708234899293

# repr of the curvature bound make_instance gives the same three instances
GOLDEN_LF_BAR = {"lasso42": "597.0815011034753",
                 "elastic_mu1": "136.20756934573478",
                 "lasso_norm": "1.0000000009999985"}

GOLDEN = {
    "lasso42_x": "0c7113d2958bfbf9a1aab561af8bff84cd7e5b7f23d1ab6e12738cf5a2ceee74",
    "lasso42_y": "dc176f0057906cc80b0ac43abef9c1bf01010ec21c1c3b630ddf64a23c613487",
    "elastic_x": "36d2324fefa182650cde32bdef944a0d1e472aa25c878073a06bcb4461c913f1",
    "elastic_y": "0e9902c771bc84daf99e7d199ec057e9ad8ea5701144eedd199c48fbbafbeaf2",
    "elastic_trace": "2707a98d46c62456976bff63b6ae88ceaac5d7d4f908e94f7c4445ab58c72121",
    "elastic_report": "de30f6d606bc023e7277d6521504c58048b220bdec1562a66d794e430838ec6f",
    "readme_trace": "221a1886573bff5a1348d0c5045e76d85c735fa59664904ea858cf3ecc456f35",
    # stdout of `sfista verify bounds --seed-base 0`, the same under one and
    # two BLAS threads
    "verify_bounds": "fa083cfd1497ad63d7a3469c77b86f0214fc2f9d25ee8d9d6f900b89a75ce4bf",
}

# format_real of the worst deviation equivalence_check reports on lasso_norm
# over 100 steps at lf = 1.25 * curvature
GOLDEN_EQUIVALENCE = "1.0177618793157411e-15"

# (name, repr(worst), location, note, passed) of every check invariant_report
# gives at sample_count=60: the plain-convexity and strongly convex captures
# of conftest, and the quad1d run that halts at the growth limit; and at
# sample_count=30, the `sfista verify invariants` runs of a box_qp, whose
# indicator h makes sample_points project points, and of a logistic_l2, the
# one f that is not quadratic (make_instance's data and curvature, 200 steps)
_SAMPLED_2000 = "60 samples at k in [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000]"
_SAMPLED_800 = "60 samples at k in [1, 2, 5, 10, 20, 50, 100, 200]"
_SAMPLED_BOX = "30 samples at k in [1, 2, 5, 10, 20, 50]"
_SAMPLED_LOGISTIC = "30 samples at k in [1, 2, 5, 10, 20]"
GOLDEN_REPORT_CHECKS = {
    "lasso42": [
        ('coefficient_identity', '6.092935052196907e-16', 1053, '', True),
        ('tau_identity', '0.0', 1, '', True),
        ('coefficient_sum_lower', '0.0', 1, '', True),
        ('function_gap_rate', '-0.006338608805899955', 2000, '', True),
        ('movement_bound', '-14.329441916930323', 146, 'checked 2000 of 2000', True),
        ('min_norm_bound', '-0.5637207898088675', 2000, 'checked 2000 of 2000', True),
        ('distance_x_bound', '-3.475127817709505', 199, '', True),
        ('residual_envelope', '-0.0001956100618755898', 1934, '', True),
        ('certificate_identity', '2.7976043657369887e-16', 127, 'checked 2000 of 2000', True),
        ('eta_nonnegative', '-0.0063105105397513565', 2000, '', True),
        ('pair_norm_bounds', '-2.326030429161738e-08', 1889, 'checked 2000 of 2000', True),
        ('lower_model_minorizes', '-24955.393916037876', 1, _SAMPLED_2000, True),
        ('model_subgradient', '-0.002787671037536674', 2000, _SAMPLED_2000, True),
        ('eps_subgradient', '-25117.163115511605', 1, _SAMPLED_2000, True),
    ],
    "elastic": [
        ('coefficient_identity', '5.037539848219591e-16', 93, '', True),
        ('tau_identity', '0.0', 1, '', True),
        ('coefficient_sum_lower', '0.0', 1, '', True),
        ('function_gap_rate', '-3.787866669079493e-09', 734, '', True),
        ('movement_bound', '-4.148075625864269', 2, 'checked 375 of 800', True),
        ('min_norm_bound', '-2.968241954883003e-13', 492, 'checked 492 of 800', True),
        ('distance_x_bound', '-2.148774402772029e-09', 800, '', True),
        ('distance_y_bound', '-2.1476006862971406', 508, '', True),
        ('pair_absolute_bounds', '-7.146437746294392e-10', 315, 'checked 315 of 800', True),
        ('residual_envelope', '-1.7026517922716694e-10', 475, '', True),
        ('certificate_identity', '1.9257483202191808e-16', 134, 'checked 315 of 800', True),
        ('eta_nonnegative', '-1.5496025611346374e-26', 800, '', True),
        ('pair_norm_bounds', '-1.0000002627789955e-12', 315, 'checked 315 of 800', True),
        ('lower_model_minorizes', '-947.2933170390395', 1, _SAMPLED_800, True),
        ('model_subgradient', '-4.908769571252367e-07', 200, _SAMPLED_800, True),
        ('eps_subgradient', '-972.3633101652878', 1, _SAMPLED_800, True),
    ],
    "quad1d_overflow": [
        ('coefficient_identity', '1.3234889793121025e-16', 5, '', True),
        ('tau_identity', '0.0', 1, '', True),
        ('coefficient_sum_lower', '0.0', 1, '', True),
        ('function_gap_rate', '-1e-09', 4, '', True),
        ('movement_bound', '-0.5000010519999945', 1, 'checked 1 of 42', True),
        ('min_norm_bound', '-7.999996817343145e-14', 3, 'checked 3 of 42', True),
        ('distance_x_bound', '-1.001000082740371e-09', 5, '', True),
        ('distance_y_bound', '-1.0000000020010003', 3, '', True),
        ('pair_absolute_bounds', '-1.500010902875868e-07', 1, 'checked 1 of 42', True),
        ('residual_envelope', '-1.0000001e-12', 6, '', True),
        ('certificate_identity', '0.0', 1, 'checked 1 of 42', True),
        ('eta_nonnegative', '-4.999958622789515e-295', 42, '', True),
        ('pair_norm_bounds', '-1.000049999990917e-12', 1, 'checked 1 of 42', True),
        ('lower_model_minorizes', '-1.0000000000000051e-08', 1, '60 samples at k in [1]', True),
        ('model_subgradient', '-5.999998970393267e-08', 1, '60 samples at k in [1]', True),
        ('eps_subgradient', '-5.999998970393267e-08', 1, '60 samples at k in [1]', True),
    ],
    "box_qp": [
        ('coefficient_identity', '3.617022630144576e-16', 3, '', True),
        ('tau_identity', '0.0', 1, '', True),
        ('coefficient_sum_lower', '0.0', 1, '', True),
        ('function_gap_rate', '-5.575159295425794e-09', 145, '', True),
        ('movement_bound', '-3.8956506692300676', 2, 'checked 63 of 200', True),
        ('min_norm_bound', '-4.5593843181747405e-16', 94, 'checked 94 of 200', True),
        ('distance_x_bound', '-2.1487939426972624e-09', 170, '', True),
        ('distance_y_bound', '-2.1477944373622524', 188, '', True),
        ('pair_absolute_bounds', '-7.461523680360521e-10', 53, 'checked 53 of 200', True),
        ('residual_envelope', '-5.911048684636696e-12', 108, '', True),
        ('certificate_identity', '1.925372673267656e-16', 33, 'checked 53 of 200', True),
        ('eta_nonnegative', '6.317049169229466e-32', 199, '', True),
        ('pair_norm_bounds', '-1.0000002483850705e-12', 53, 'checked 53 of 200', True),
        ('lower_model_minorizes', '-1.4548292990996021', 10, _SAMPLED_BOX, True),
        ('model_subgradient', '-5.6330829168806445e-08', 50, _SAMPLED_BOX, True),
        ('eps_subgradient', '-1.4892933727367774', 10, _SAMPLED_BOX, True),
    ],
    "logistic": [
        ('coefficient_identity', '3.5843291062557523e-16', 4, '', True),
        ('tau_identity', '0.0', 1, '', True),
        ('coefficient_sum_lower', '0.0', 1, '', True),
        ('function_gap_rate', '-1.587318750174051e-09', 76, '', True),
        ('movement_bound', '-0.12825385781935852', 2, 'checked 32 of 200', True),
        ('min_norm_bound', '-2.1487470233971437e-17', 47, 'checked 47 of 200', True),
        ('distance_x_bound', '-3.897208888109228e-10', 85, '', True),
        ('distance_y_bound', '-0.3887213457029447', 46, '', True),
        ('pair_absolute_bounds', '-5.496809392368003e-11', 26, 'checked 26 of 200', True),
        ('residual_envelope', '-2.238985621671606e-12', 110, '', True),
        ('certificate_identity', '2.7755575615628914e-17', 7, 'checked 26 of 200', True),
        ('eta_nonnegative', '9.215875710446734e-34', 160, '', True),
        ('pair_norm_bounds', '-1.0000000179924643e-12', 26, 'checked 26 of 200', True),
        ('lower_model_minorizes', '-1.355619260782316', 1, _SAMPLED_LOGISTIC, True),
        ('model_subgradient', '-1.768667008806192e-08', 20, _SAMPLED_LOGISTIC, True),
        ('eps_subgradient', '-1.378740003873117', 1, _SAMPLED_LOGISTIC, True),
    ],
}


def _at_curvature(problem, A, curvature, with_reference=True):
    """problem with f rebuilt on design A at the given curvature bound."""
    ridge = problem.spec.params.get("ridge", 0.0)
    f = problems.least_squares(A, problem.spec.data["b"], ridge=ridge,
                               curvature=curvature)
    problem = dataclasses.replace(problem, f=f, reference_optimum=None)
    if not with_reference:
        return problem
    phi_star, x_star = problems.reference_solve(problem)
    return dataclasses.replace(
        problem, reference_optimum=problems.ReferenceOptimum(phi_star, x_star))


def _recorded(problem, label):
    return _at_curvature(problem, problem.spec.data["A"],
                         RECORDED_LF_BAR[label])


@pytest.fixture(scope="module")
def golden_lasso42(lasso42):
    return _recorded(lasso42, "lasso42")


@pytest.fixture(scope="module")
def golden_elastic(elastic_mu1):
    return _recorded(elastic_mu1, "elastic_mu1")


@pytest.fixture(scope="module")
def golden_lasso_norm():
    raw = problems.make_instance("lasso", 11, 40, 60, with_reference=False)
    A = raw.spec.data["A"] / math.sqrt(RECORDED_NORM_TOP)
    return _at_curvature(raw, A, RECORDED_LF_BAR["lasso_norm"],
                         with_reference=False)


@pytest.fixture(scope="module")
def golden_lasso42_capture(golden_lasso42):
    config = engine.SolverConfig.for_problem(golden_lasso42)
    return harness.capture_run(golden_lasso42, config,
                               np.zeros(golden_lasso42.dimension), 2000)


@pytest.fixture(scope="module")
def golden_elastic_capture(golden_elastic):
    config = engine.SolverConfig.for_problem(golden_elastic)
    return harness.capture_run(golden_elastic, config,
                               np.zeros(golden_elastic.dimension), 800)


def test_curvature_bounds_match_golden(lasso42, elastic_mu1, lasso_norm):
    got = {"lasso42": lasso42, "elastic_mu1": elastic_mu1,
           "lasso_norm": lasso_norm}
    assert {label: repr(problem.f.curvature)
            for label, problem in got.items()} == GOLDEN_LF_BAR


def _array_digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_capture_iterates_match_golden(golden_lasso42_capture,
                                       golden_elastic_capture):
    lasso_final = golden_lasso42_capture.states[-1]
    elastic_final = golden_elastic_capture.states[-1]
    assert lasso_final.k == 2000 and elastic_final.k == 800
    assert _array_digest(lasso_final.x) == GOLDEN["lasso42_x"]
    assert _array_digest(lasso_final.y) == GOLDEN["lasso42_y"]
    assert _array_digest(elastic_final.x) == GOLDEN["elastic_x"]
    assert _array_digest(elastic_final.y) == GOLDEN["elastic_y"]


def test_trace_text_matches_golden(golden_elastic):
    config = engine.SolverConfig.for_problem(
        golden_elastic, criterion=bounds.Criterion.stationarity(1e-6))
    result = engine.run(golden_elastic, config,
                        np.zeros(golden_elastic.dimension))
    assert result.state.k == 205 and len(result.trace) == 206
    text = harness.format_trace(result.trace)
    assert _stable_digest(text) == GOLDEN["elastic_trace"]


def _stable_digest(text):
    """Digest of trace text without elapsed_ns, the one column that varies."""
    stable = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    return hashlib.sha256(stable.encode()).hexdigest()


def test_readme_trace_matches_golden(lasso42, tmp_path):
    # the README quick start's `sfista solve --trace` file, metadata lines
    # included, with the lasso rebuilt at its recorded curvature bound: 7254
    # steps, a row each
    problem = _at_curvature(lasso42, lasso42.spec.data["A"],
                            float(GOLDEN_LF_BAR["lasso42"]))
    criterion = bounds.Criterion.stationarity(1e-6)
    config = engine.SolverConfig.for_problem(problem, criterion=criterion)
    result = engine.run(problem, config, cli.default_start(problem))
    assert (result.reason, result.state.k) == ("converged", 7254)
    meta = dict(problems.instance_recipe(problem, constants=False)
                + cli.constant_meta(config) + cli.criterion_meta(criterion)
                + [("trace_every", "1")])
    path = tmp_path / "run.csv"
    harness.write_trace(path, result.trace, meta)
    text = path.read_text()
    assert sum(not line.startswith("#") for line in text.splitlines()) == 7256
    assert _stable_digest(text) == GOLDEN["readme_trace"]


def test_invariant_report_matches_golden(golden_elastic_capture):
    lines = harness.invariant_report(golden_elastic_capture,
                                     sample_count=60).lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN["elastic_report"]


def _overflow_capture(quad1d):
    config = engine.SolverConfig(lf=1.0 + 1e-7, mu_f=1.0)
    return harness.capture_run(quad1d, config, np.array([1.0]), 500)


def test_invariant_checks_match_golden_bits(golden_lasso42_capture,
                                            golden_elastic_capture, quad1d):
    captures = {"lasso42": golden_lasso42_capture,
                "elastic": golden_elastic_capture,
                "quad1d_overflow": _overflow_capture(quad1d)}
    for label, capture in captures.items():
        checks = harness.invariant_report(capture, sample_count=60).checks
        got = [(c.name, repr(c.worst), c.location, c.note, c.passed)
               for c in checks]
        assert got == GOLDEN_REPORT_CHECKS[label], label


@pytest.mark.parametrize("label, kind, seed, m, n", [
    ("box_qp", "box_qp", 3, 20, 20),
    ("logistic", "logistic_l2", 4, 60, 40),
])
def test_invariant_checks_of_each_kind_match_golden_bits(label, kind, seed,
                                                         m, n):
    # as `sfista verify invariants --problem KIND --seed SEED --m M --n N
    # --iters 200 --samples 30` runs them
    problem = problems.make_instance(kind, seed, m, n)
    capture = harness.capture_run(problem,
                                  engine.SolverConfig.for_problem(problem),
                                  cli.default_start(problem), 200)
    checks = harness.invariant_report(capture, sample_count=30).checks
    got = [(c.name, repr(c.worst), c.location, c.note, c.passed)
           for c in checks]
    assert got == GOLDEN_REPORT_CHECKS[label]


def test_equivalence_deviation_matches_golden(golden_lasso_norm):
    lf = 1.25 * golden_lasso_norm.f.curvature
    worst = classic.equivalence_check(
        golden_lasso_norm, np.zeros(golden_lasso_norm.dimension), lf, 100)
    assert problems.format_real(worst) == GOLDEN_EQUIVALENCE


def test_verify_bounds_output_matches_golden(capsys):
    # every criterion's observed and predicted count on the ten instances
    assert cli.main(["verify", "bounds", "--seed-base", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["verify_bounds"]


# every predictor on a grid of constants, invalid values included: five
# variants x three tolerances x lf x lf_bar x mu_f x mu x d0 = 13500 points
_GRID_TOLERANCES = {
    "function_gap": [(1e-6,), (0.5,), (3.0,)],
    "stationarity": [(1e-8,), (1.0,), (1e-170,)],
    "relative": [(1e-4,), (0.1,), (2.0,)],
    "alternate_relative": [(1e-6,), (0.5,), (1e12,)],
    "absolute": [(1e-6, 1e-3), (1.0, 1.0), (0.3, 1e-9)],
}
_GRID_LF = (2.0, 4.0, 0.75, 0.25, math.inf)
_GRID_LF_BAR = (1.0, 0.5, math.nan)
_GRID_MU_F = (0.0, 0.5, -1.0)
_GRID_MU = (0.0, 1.0, 1e-12, math.nan)
_GRID_D0 = (None, 0.0, 1.5, -1.0, math.inf)

GOLDEN_PREDICTOR_GRID = "0c24ae5ed995771aaab745da31bba006b3441a18e7706b4777fc44c25cb8c4ff"


def _predictor_line(criterion, lf, lf_bar, mu_f, mu, d0):
    try:
        report = bounds.predicted_iterations(criterion, lf, lf_bar, mu_f, mu,
                                             d0=d0)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    constants = ",".join(f"{key}={value!r}"
                         for key, value in sorted(report.constants.items()))
    return f"{report.predicted_k} {report.branch} {constants}"


def test_predictor_grid_matches_golden():
    lines = []
    for variant, tolerances in _GRID_TOLERANCES.items():
        for tols in tolerances:
            criterion = getattr(bounds.Criterion, variant)(*tols)
            for lf in _GRID_LF:
                for lf_bar in _GRID_LF_BAR:
                    for mu_f in _GRID_MU_F:
                        for mu in _GRID_MU:
                            for d0 in _GRID_D0:
                                lines.append(_predictor_line(
                                    criterion, lf, lf_bar, mu_f, mu, d0))
    assert len(lines) == 13500
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_PREDICTOR_GRID
