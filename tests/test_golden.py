"""Golden digests of iterates, trace text and verification outputs.

A refactor that leaves the arithmetic alone leaves these SHA-256 digests
alone: they cover the final x and y of the two conftest captures, the trace
text of a stationarity run with the elapsed_ns column dropped, and the
report lines of an invariant sweep.  A change that moves any iterate by one
bit fails here, and so does one that moves the deviation the classical
equivalence check reports.
"""

import hashlib

import numpy as np

from sfista import bounds, classic, engine, harness, problems

GOLDEN = {
    "lasso42_x": "0c7113d2958bfbf9a1aab561af8bff84cd7e5b7f23d1ab6e12738cf5a2ceee74",
    "lasso42_y": "dc176f0057906cc80b0ac43abef9c1bf01010ec21c1c3b630ddf64a23c613487",
    "elastic_x": "36d2324fefa182650cde32bdef944a0d1e472aa25c878073a06bcb4461c913f1",
    "elastic_y": "0e9902c771bc84daf99e7d199ec057e9ad8ea5701144eedd199c48fbbafbeaf2",
    "elastic_trace": "1c7734326743b9ce1679cd19e33fcf1850f6354a3e4a62e68f24cb79f819d127",
    "elastic_report": "de30f6d606bc023e7277d6521504c58048b220bdec1562a66d794e430838ec6f",
}

# format_real of the worst deviation equivalence_check reports on lasso_norm
# over 100 steps at lf = 1.25 * curvature
GOLDEN_EQUIVALENCE = "1.0177618793157411e-15"


def _array_digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_capture_iterates_match_golden(lasso42_capture, elastic_capture):
    lasso_final = lasso42_capture.states[-1]
    elastic_final = elastic_capture.states[-1]
    assert lasso_final.k == 2000 and elastic_final.k == 800
    assert _array_digest(lasso_final.x) == GOLDEN["lasso42_x"]
    assert _array_digest(lasso_final.y) == GOLDEN["lasso42_y"]
    assert _array_digest(elastic_final.x) == GOLDEN["elastic_x"]
    assert _array_digest(elastic_final.y) == GOLDEN["elastic_y"]


def test_trace_text_matches_golden(elastic_mu1):
    config = engine.SolverConfig.for_problem(
        elastic_mu1, criterion=bounds.Criterion.stationarity(1e-6))
    result = engine.run(elastic_mu1, config, np.zeros(elastic_mu1.dimension))
    assert result.state.k == 205 and len(result.trace) == 206
    text = harness.format_trace(result.trace)
    # elapsed_ns is the last column and the only one that varies between runs
    stable = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    assert hashlib.sha256(stable.encode()).hexdigest() == GOLDEN["elastic_trace"]


def test_invariant_report_matches_golden(elastic_capture):
    lines = harness.invariant_report(elastic_capture, sample_count=60).lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN["elastic_report"]


def test_equivalence_deviation_matches_golden(lasso_norm):
    lf = 1.25 * lasso_norm.f.curvature
    worst = classic.equivalence_check(lasso_norm, np.zeros(lasso_norm.dimension),
                                      lf, 100)
    assert problems.format_real(worst) == GOLDEN_EQUIVALENCE
