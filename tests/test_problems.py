"""Oracles, prox catalog, instance generation, and the reference solver."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfista import problems
from sfista.errors import ConfigError, NumericFailure
from sfista.problems import (CompositeProblem, eval_phi, make_instance,
                             power_iteration, prox_box, prox_scaled_quadratic,
                             prox_soft_threshold, quadratic, reference_solve)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# prox catalog
# ---------------------------------------------------------------------------

def test_soft_threshold_values():
    assert prox_soft_threshold(np.array([2.0]), 1.0, 1.0)[0] == 1.0
    assert prox_soft_threshold(np.array([-0.5]), 1.0, 1.0)[0] == 0.0
    # |0.3| - 0.7 * 0.2 = 0.16
    np.testing.assert_allclose(
        prox_soft_threshold(np.array([0.3]), 0.7, 0.2), [0.16], rtol=1e-15)


def test_soft_threshold_rejects_bad_args():
    with pytest.raises(ValueError):
        prox_soft_threshold(np.array([1.0]), -0.1, 1.0)
    with pytest.raises(ValueError):
        prox_soft_threshold(np.array([1.0]), 1.0, 0.0)


@pytest.mark.parametrize("weight, step", [(1.0, 1.0), (0.3, 0.5), (0.0, 2.0)])
def test_soft_threshold_is_the_product_form_bit_for_bit(weight, step):
    # built in place, it keeps the bytes of sign(x) * max(|x| - w t, 0):
    # signed zeros, values below the threshold, infinities and NaNs of both
    # signs included
    tiny = 0.25 * weight * step
    x = np.array([-0.0, 0.0, tiny, -tiny, 5e-324, -5e-324, 2.0, -2.0,
                  math.inf, -math.inf, math.nan, -math.nan])
    for point in (x, np.repeat(x, 17), x[5]):
        want = np.sign(point) * np.maximum(np.abs(point) - weight * step, 0.0)
        got = prox_soft_threshold(point, weight, step)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert prox_soft_threshold(x, weight, step) is not x


@pytest.mark.parametrize("build, message", [
    (lambda: prox_scaled_quadratic(np.ones(2), -1.0, 1.0),
     "scaled quadratic needs alpha >= 0 and step > 0"),
    (lambda: prox_scaled_quadratic(np.ones(2), 1.0, 0.0),
     "scaled quadratic needs alpha >= 0 and step > 0"),
    (lambda: problems.l1_norm(-0.1), "l1 weight must be nonnegative"),
    (lambda: problems.box_indicator([0.0, 1.0], [1.0, 0.0]),
     "box is empty: lo > hi on some component"),
    (lambda: problems.scaled_quadratic(-1.0), "alpha must be nonnegative"),
    (lambda: problems.least_squares(np.eye(2), np.ones(2), ridge=-1.0),
     "ridge must be nonnegative"),
    (lambda: problems.logistic_loss(np.eye(2), np.ones(2), ridge=-1.0),
     "ridge must be nonnegative"),
])
def test_oracle_builders_reject_bad_args(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_box_projection_values():
    inside = np.array([0.25, 0.5])
    np.testing.assert_array_equal(prox_box(inside, 0.0, 1.0), inside)
    np.testing.assert_array_equal(
        prox_box(np.array([2.0, -3.0]), np.zeros(2), np.ones(2)), [1.0, 0.0])
    with pytest.raises(ValueError):
        prox_box(np.zeros(2), np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_box_projection_is_nearest_point():
    rng = _rng(0)
    lo, hi = -np.ones(5), np.ones(5)
    for _ in range(100):
        x = 3.0 * rng.standard_normal(5)
        p = prox_box(x, lo, hi)
        for _ in range(10):
            u = rng.uniform(-1.0, 1.0, size=5)
            assert np.linalg.norm(p - x) <= np.linalg.norm(u - x) + 1e-12


def test_scaled_quadratic_prox():
    x = np.array([2.0])
    np.testing.assert_array_equal(prox_scaled_quadratic(x, 0.0, 1.0), x)
    assert prox_scaled_quadratic(x, 1.0, 1.0)[0] == 1.0
    assert abs(prox_scaled_quadratic(x, 1e12, 1.0)[0]) <= 1e-6


def test_prox_optimality_inequality():
    # h(p) + ||p - x||^2 / (2t) <= h(u) + ||u - x||^2 / (2t) for sampled u
    rng = _rng(1)
    n = 6
    oracles = [
        problems.l1_norm(0.3),
        problems.scaled_quadratic(2.0),
        problems.zero_function(),
        problems.box_indicator(-np.ones(n), np.ones(n)),
    ]
    for h in oracles:
        for _ in range(25):
            x = 2.0 * rng.standard_normal(n)
            t = float(rng.uniform(0.1, 2.0))
            p = h.prox(x, t)
            best = h.value(p) + float((p - x) @ (p - x)) / (2.0 * t)
            for _ in range(40):
                u = rng.uniform(-1.0, 1.0, size=n)
                trial = h.value(u) + float((u - x) @ (u - x)) / (2.0 * t)
                assert best <= trial + 1e-9 * (1.0 + abs(trial))


# ---------------------------------------------------------------------------
# objective evaluation and linearization
# ---------------------------------------------------------------------------

def test_eval_phi_lasso_at_zero(lasso42):
    b = lasso42.spec.data["b"]
    expected = 0.5 * float(b @ b)
    got = eval_phi(lasso42, np.zeros(lasso42.dimension))
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_eval_phi_outside_box_is_inf():
    problem = make_instance("box_qp", 0, 5, 5, diag=True, with_reference=False)
    x = np.full(5, 2.0)
    assert math.isinf(eval_phi(problem, x))


def test_eval_phi_rejects_wrong_shape(quad1d):
    with pytest.raises(ValueError):
        eval_phi(quad1d, np.zeros(3))


@pytest.mark.parametrize("kind,kwargs", [
    ("lasso", dict(reg=0.1)),
    ("elastic_net", dict(ridge=1.0)),
    ("logistic_l2", dict(ridge=0.5)),
])
def test_smoothness_envelope(kind, kwargs):
    # l_f(x; z) + (mu/2)||x-z||^2 <= f(x) <= l_f(x; z) + (L/2)||x-z||^2
    problem = make_instance(kind, 5, 25, 40, with_reference=False, **kwargs)
    n = problem.dimension
    mu_bar = problem.f.mu
    lf_bar = problem.f.curvature
    rng = _rng(2)
    worst_lower = -math.inf
    worst_upper = -math.inf
    for _ in range(1000):
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        lin = float(problem.f.value(z)) + float(problem.f.grad(z) @ (x - z))
        fx = problem.f.value(x)
        d2 = float((x - z) @ (x - z))
        worst_lower = max(worst_lower, lin + 0.5 * mu_bar * d2 - fx)
        worst_upper = max(worst_upper, fx - lin - 0.5 * lf_bar * d2)
    assert worst_lower <= 1e-9
    assert worst_upper <= 1e-9


def test_nu_convexity_at_reference(elastic_mu1):
    problem = elastic_mu1
    nu = problem.f.mu + problem.h.mu
    assert nu == 1.0
    ref = problem.reference_optimum
    phi_star = eval_phi(problem, ref.x_star)
    rng = _rng(3)
    for _ in range(200):
        x = ref.x_star + rng.standard_normal(problem.dimension)
        phi_x = eval_phi(problem, x)
        lower = phi_star + 0.5 * nu * float((x - ref.x_star) @ (x - ref.x_star))
        assert lower <= phi_x + 1e-9 * (1.0 + abs(phi_x))


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def test_make_instance_is_deterministic():
    a = make_instance("lasso", 42, 20, 30, with_reference=False)
    b = make_instance("lasso", 42, 20, 30, with_reference=False)
    np.testing.assert_array_equal(a.spec.data["A"], b.spec.data["A"])
    np.testing.assert_array_equal(a.spec.data["b"], b.spec.data["b"])
    assert a.f.curvature == b.f.curvature


def test_elastic_net_modulus_is_ridge():
    problem = make_instance("elastic_net", 1, 10, 15, ridge=2.5,
                            with_reference=False)
    assert problem.f.mu == 2.5


def test_box_qp_diag_curvature():
    n = 30
    problem = make_instance("box_qp", 7, n, n, diag=True, with_reference=False)
    assert problem.f.mu == 1.0
    # known spectrum 1..n, inflated by 1 + 1e-9
    assert abs(problem.f.curvature - n * (1.0 + 1e-9)) <= 1e-9 * n


def test_logistic_modulus_and_kind_errors():
    problem = make_instance("logistic_l2", 2, 12, 8, ridge=0.7,
                            with_reference=False)
    assert problem.f.mu == 0.7
    with pytest.raises(ValueError):
        make_instance("svm", 0, 5, 5)
    with pytest.raises(ValueError):
        make_instance("lasso", 0, 0, 5)
    with pytest.raises(ValueError):
        make_instance("lasso", 0, 5, 5, bogus=1.0)
    with pytest.raises(ValueError, match="^box is empty: lo > hi$"):
        make_instance("box_qp", 0, 4, 4, lo=2.0, hi=1.0)


@pytest.mark.parametrize("size", [0, 1, 7, 200, 4096])
def test_vector_norm_is_numpy_norm_bit_for_bit(size):
    # while v.dot(v) is a normal double
    rng = np.random.default_rng(size)
    for scale in (1e-8, 1.0, 1e150):
        v = scale * rng.standard_normal(size)
        assert problems.vector_norm(v) == float(np.linalg.norm(v))


@pytest.mark.parametrize("size", [1, 7, 200, 4096])
def test_vector_norm_keeps_tiny_norms(size):
    # where v.dot(v) is subnormal or 0, np.linalg.norm loses digits or
    # reads 0; the rescaled sum errs by a few size * u, u = 2^-53
    rng = np.random.default_rng(size)
    for scale in (1e-155, 1e-170, 1e-300, 1e-320):
        v = scale * rng.standard_normal(size)
        want = math.hypot(*v)
        assert want > 0.0
        assert problems.vector_norm(v) == pytest.approx(
            want, rel=4 * size * 2.0**-53, abs=0.0)
    assert problems.vector_norm(np.array([-0.0, 0.0])) == 0.0
    assert problems.vector_norm(np.array([5e-324])) == 5e-324


def test_power_iteration_matches_dense_spectrum():
    diag = np.diag(np.arange(1.0, 9.0))
    assert abs(power_iteration(diag, 8) - 8.0) <= 1e-8
    rng = _rng(4)
    B = rng.standard_normal((12, 9))
    M = B.T @ B
    top = float(np.linalg.eigvalsh(M)[-1])
    assert abs(power_iteration(M, 9) - top) <= 1e-8 * top
    # matvec form agrees with the dense form
    assert abs(power_iteration(lambda v: M @ v, 9) - top) <= 1e-8 * top


def test_power_iteration_edge_cases():
    assert power_iteration(np.zeros((4, 4)), 4) == 0.0
    with pytest.raises(NumericFailure):
        power_iteration(np.diag([1.0, 2.0]), 2, max_iter=0)


# ---------------------------------------------------------------------------
# certified curvature
# ---------------------------------------------------------------------------

# the computed bound may exceed the true constant by the inflation and the
# rounding it covers, no more
CERTIFIED_SLACK = 1.0 + 2e-9


def _sigma_max(M):
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _assert_certified(curvature, exact):
    assert exact <= curvature <= exact * CERTIFIED_SLACK


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       n=st.integers(1, 12), rank=st.integers(0, 12),
       scale=st.sampled_from([1e-3, 1.0, 1e4]),
       ridge=st.sampled_from([0.0, 0.5, 3.0]))
@example(seed=0, m=1, n=1, rank=1, scale=1.0, ridge=0.0)   # 1x1
@example(seed=0, m=5, n=3, rank=0, scale=1.0, ridge=0.0)   # zero matrix
@example(seed=0, m=3, n=5, rank=0, scale=1.0, ridge=0.5)
def test_curvature_bounds_the_top_squared_singular_value(seed, m, n, rank,
                                                         scale, ridge):
    # rank min(rank, m, n): rank-deficient designs, and the zero matrix at 0
    rng = _rng(seed)
    r = min(rank, m, n)
    A = scale * (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
    b = rng.standard_normal(m)
    top = _sigma_max(A) ** 2
    _assert_certified(problems.least_squares(A, b, ridge=ridge).curvature,
                      top + ridge)
    labels = np.where(b >= 0, 1.0, -1.0)
    _assert_certified(problems.logistic_loss(A, labels, ridge=ridge).curvature,
                      top / (4.0 * m) + ridge)
    Q = A.T @ A + ridge * np.eye(n)
    _assert_certified(problems.quadratic(Q, np.zeros(n)).curvature,
                      _sigma_max(Q))


@pytest.mark.parametrize("kind, m, n, params", [
    ("lasso", 30, 50, {}),
    ("lasso", 40, 60, {"normalize": True}),
    ("lasso", 70, 20, {"normalize": True}),
    ("elastic_net", 50, 30, {"ridge": 0.5}),
    ("box_qp", 30, 20, {"ridge": 0.1}),
    ("box_qp", 10, 12, {"diag": True}),
    ("logistic_l2", 25, 40, {"ridge": 0.2}),
])
def test_instance_curvature_is_certified(kind, m, n, params):
    problem = make_instance(kind, 3, m, n, with_reference=False, **params)
    data, ridge = problem.spec.data, problem.spec.params.get("ridge", 0.0)
    if kind == "box_qp":
        exact = _sigma_max(data["Q"])
    elif kind == "logistic_l2":
        exact = _sigma_max(data["A"]) ** 2 / (4.0 * m) + ridge
    else:
        exact = _sigma_max(data["A"]) ** 2 + ridge
    _assert_certified(problem.f.curvature, exact)
    if params.get("normalize"):
        assert abs(_sigma_max(data["A"]) ** 2 - 1.0) <= 1e-12


@pytest.mark.parametrize("build, name", [
    (lambda M: problems.least_squares(M, np.zeros(3)), "design A"),
    (lambda M: problems.logistic_loss(M, np.ones(3)), "design A"),
    (lambda M: problems.quadratic(M, np.zeros(3)), "matrix Q"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrix_fails_before_the_eigensolve(monkeypatch, build,
                                                       name, bad):
    def no_eigensolve(M):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    M = np.eye(3)
    M[1, 2] = bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
        build(M)


@pytest.mark.parametrize("build, name", [
    (lambda v: problems.least_squares(np.eye(3), v), "target b"),
    (lambda v: problems.logistic_loss(np.eye(3), v), "labels"),
    (lambda v: problems.quadratic(np.eye(3), v), "vector c"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vector_fails_before_the_eigensolve(monkeypatch, build,
                                                       name, bad):
    def no_eigensolve(M):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    v = np.ones(3)
    v[1] = bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
        build(v)


def test_eigensolve_failure_is_a_numeric_failure(monkeypatch):
    def not_converged(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", not_converged)
    with pytest.raises(NumericFailure, match="did not converge"):
        problems.least_squares(np.eye(3), np.zeros(3))
    with pytest.raises(NumericFailure, match="did not converge"):
        make_instance("box_qp", 1, 4, 3, with_reference=False)


# ---------------------------------------------------------------------------
# least-squares gradient forms
# ---------------------------------------------------------------------------

def _design(m, n):
    rng = _rng(11)
    return rng.standard_normal((m, n)), rng.standard_normal(m)


@pytest.mark.parametrize("ridge", [0.0, 0.5])
@pytest.mark.parametrize("curvature", [None, 1e3])
def test_tall_gradient_is_the_gram_form(ridge, curvature):
    A, b = _design(60, 40)
    f = problems.least_squares(A, b, ridge=ridge, curvature=curvature)
    # the least-squares solution, where G x and c cancel
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    gram = A.T @ A @ x - A.T @ b
    residual = A.T @ (A @ x - b)
    if ridge:
        gram, residual = gram + ridge * x, residual + ridge * x
    assert np.array_equal(f.grad(x), gram)
    assert not np.array_equal(gram, residual)
    # each form errs by a few u ||G||_2 ||x|| (see least_squares)
    bound = 16 * 2.0**-53 * np.linalg.eigvalsh(A.T @ A)[-1] * np.linalg.norm(x)
    assert np.linalg.norm(gram - residual) <= bound


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_wide_gradient_is_the_residual_form(ridge):
    A, b = _design(30, 50)
    f = problems.least_squares(A, b, ridge=ridge)
    x = _rng(12).standard_normal(50)
    want = A.T @ (A @ x - b)
    if ridge:
        want = want + ridge * x
    assert np.array_equal(f.grad(x), want)


# ---------------------------------------------------------------------------
# wide oracles: each call a function of its point alone
# ---------------------------------------------------------------------------

def _wide_least_squares():
    A, b = _design(20, 30)
    return problems.least_squares(A, b), (
        lambda x: A.T @ (A @ x - b),
        lambda x: problems.least_squares(A, b).value(x))


def _logistic():
    A, b = _design(20, 30)
    labels = np.where(b >= 0, 1.0, -1.0)
    fresh = lambda: problems.logistic_loss(A, labels)
    return fresh(), (lambda x: fresh().grad(x), lambda x: fresh().value(x))


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("build", [_wide_least_squares, _logistic])
def test_wide_oracles_ignore_earlier_calls(build):
    # each call agrees bit for bit with a gradient or value formed afresh,
    # whatever points the oracles were called at before: a residual or
    # margins reused from an earlier call must keep this
    f, (fresh_grad, fresh_value) = build()
    rng = _rng(13)
    x = rng.standard_normal(30)
    f.value(x)
    x[3] += 1.0  # changed in place after value, before grad
    assert _same_bits(f.grad(x), fresh_grad(x))
    # the same bytes under another dtype, then under another shape
    ints = x.view(np.int64)
    assert _same_bits(f.grad(ints), fresh_grad(ints))
    assert _same_bits(f.value(x), fresh_value(x))
    column = x.reshape(30, 1)
    assert _same_bits(f.grad(column), fresh_grad(column))
    assert _same_bits(f.grad(x), fresh_grad(x))
    # a list
    point = list(rng.standard_normal(30))
    assert _same_bits(f.value(point), fresh_value(np.array(point)))
    assert _same_bits(f.grad(point), fresh_grad(np.array(point)))
    # alternating points, each call at the point the last one left
    y, z = rng.standard_normal(30), rng.standard_normal(30)
    for point, oracle in [(y, "value"), (z, "grad"), (y, "grad"),
                          (y, "value"), (z, "value"), (z, "grad"),
                          (y, "grad")]:
        fresh = fresh_value if oracle == "value" else fresh_grad
        assert _same_bits(getattr(f, oracle)(point), fresh(point)), oracle


def _bits_or_error(call, x):
    """call(x), a (value, gradient) pair, as bytes, or what it raised."""
    try:
        value, grad = call(x)
    except (AttributeError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    grad = np.asarray(grad)
    return type(value), np.float64(value).tobytes(), grad.shape, grad.tobytes()


@pytest.mark.parametrize("ridge", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_value_and_grad_is_value_then_grad_bit_for_bit(kind, ridge):
    # the fused call returns what value and grad return, byte for byte, or
    # raises what they raise, on the points the test above calls them at
    A, b = _design(20, 30)
    if kind == "least_squares":
        f = problems.least_squares(A, b, ridge=ridge)
    else:
        f = problems.logistic_loss(A, np.where(b >= 0, 1.0, -1.0), ridge)
    assert f.fused() is f.value_and_grad is not None
    x = _rng(13).standard_normal(30)
    points = [x, x.view(np.int64), x.reshape(30, 1), list(x),
              _rng(14).standard_normal(30)]
    for point in points:
        assert _bits_or_error(f.value_and_grad, point) == _bits_or_error(
            lambda p: (f.value(p), f.grad(p)), point)


def test_value_and_grad_only_where_a_residual_is_shared():
    # a tall design's gradient is G x - c, with no residual to share
    A, b = _design(40, 30)
    assert problems.least_squares(A, b).value_and_grad is None
    assert problems.quadratic(A.T @ A, b[:30]).value_and_grad is None
    assert problems.least_squares(A, b).fused() is None


def test_fused_only_with_the_value_and_grad_it_was_set_with():
    A, b = _design(20, 30)
    f = problems.least_squares(A, b)
    fused = f.value_and_grad
    # other moduli keep it; another value or grad drops it
    assert dataclasses.replace(f, mu=0.0, curvature=1e3).fused() is fused
    assert dataclasses.replace(f, value=lambda x: f.value(x)).fused() is None
    assert dataclasses.replace(f, grad=lambda x: f.grad(x)).fused() is None
    # a value_and_grad set anew binds to the value and grad given with it
    wrapped = dataclasses.replace(f, grad=lambda x: f.grad(x))
    again = dataclasses.replace(wrapped, value_and_grad=lambda x: fused(x))
    assert again.fused() is again.value_and_grad
    made = problems.SmoothOracle(f.value, f.grad, value_and_grad=fused)
    assert made.fused() is fused
    assert problems.SmoothOracle(f.value, f.grad).fused() is None
    # the binding is no field any comparison sees
    assert made == problems.SmoothOracle(f.value, f.grad,
                                         value_and_grad=fused)
    assert "_fused_with" not in repr(made)


@pytest.mark.parametrize("kind, params", [("lasso", {}),
                                          ("elastic_net", {"ridge": 0.5})])
def test_tall_curvature_is_the_gram_eigenvalue(kind, params):
    problem = make_instance(kind, 3, 60, 40, with_reference=False, **params)
    A = problem.spec.data["A"]
    ridge = params.get("ridge", 0.0)
    want = ((problems.top_eigenvalue(A.T @ A) + ridge)
            * problems.CURVATURE_INFLATION)
    assert problem.f.curvature == want


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

def test_reference_matches_normal_equations():
    rng = _rng(5)
    B = rng.standard_normal((20, 8))
    Q = B.T @ B / 20.0 + np.eye(8)
    c = rng.standard_normal(8)
    f = quadratic(Q, c, mu=1.0)
    problem = CompositeProblem(f=f, h=problems.zero_function(), dimension=8)
    phi_star, x_star = reference_solve(problem)
    direct = np.linalg.solve(Q, c)
    assert float(np.linalg.norm(x_star - direct)) <= 1e-10 * (1 + np.linalg.norm(direct))
    direct_value = 0.5 * float(direct @ (Q @ direct)) - float(c @ direct)
    assert abs(phi_star - direct_value) <= 1e-10 * (1.0 + abs(direct_value))
    d0 = problems.ReferenceOptimum(phi_star, x_star).distance(np.zeros(8))
    assert d0 == float(np.linalg.norm(x_star))


def test_reference_unique_under_strong_convexity(elastic_mu1):
    _, from_zero = reference_solve(elastic_mu1)
    rng = _rng(6)
    _, from_random = reference_solve(elastic_mu1,
                                     x0=rng.standard_normal(elastic_mu1.dimension))
    assert float(np.linalg.norm(from_zero - from_random)) <= 1e-10


def test_reference_from_optimum_has_zero_distance(elastic_mu1):
    ref = elastic_mu1.reference_optimum
    _, x = reference_solve(elastic_mu1, x0=ref.x_star)
    assert ref.distance(x) <= 1e-12


def test_reference_iteration_cap(monkeypatch):
    # the cap is read when the solve runs, so a cap of 0 stops it at once
    problem = make_instance("lasso", 9, 10, 20, with_reference=False)
    monkeypatch.setattr(problems, "REFERENCE_MAX_ITER", 0)
    with pytest.raises(NumericFailure, match="within 0 iterations"):
        reference_solve(problem)


def test_reference_rejects_bad_inputs():
    flat = CompositeProblem(
        f=quadratic(np.zeros((2, 2)), np.zeros(2), curvature=0.0),
        h=problems.zero_function(), dimension=2)
    with pytest.raises(ConfigError,
                       match="^reference solve needs a positive curvature "
                             "bound$"):
        reference_solve(flat)
    problem = make_instance("lasso", 9, 10, 20, with_reference=False)
    with pytest.raises(ValueError,
                       match=r"^x0 has shape \(3,\), expected \(20,\)$"):
        reference_solve(problem, x0=np.zeros(3))


def test_reference_stops_at_first_non_finite_residual():
    # a NaN gradient makes the first residual NaN; without the test the
    # solve would run to its 10^6-step cap
    problem = make_instance("lasso", 3, 30, 20, with_reference=False)
    calls = []

    def nan_grad(x):
        calls.append(None)
        return np.full_like(x, math.nan)

    f = dataclasses.replace(problem.f, grad=nan_grad)
    with pytest.raises(NumericFailure, match="nan is not finite"):
        reference_solve(dataclasses.replace(problem, f=f))
    assert len(calls) == 1


# name -> (make_instance arguments, phi_star recorded from the unaccelerated
# proximal-gradient reference loop, to 17 digits)
RECORDED_OPTIMA = {
    "lasso42": (("lasso", 42, 100, 200), {"reg": 0.1}, 1.717851613192071),
    "elastic_mu1": (("elastic_net", 7, 30, 50), {"reg": 0.05, "ridge": 1.0},
                    2.78786755725753),
    "box_qp": (("box_qp", 3, 30, 40), {"ridge": 0.01}, -10.622983101371272),
    "logistic_l2": (("logistic_l2", 4, 60, 40), {"ridge": 0.01},
                    0.12909218384407145),
}


@pytest.fixture(scope="module", params=sorted(RECORDED_OPTIMA))
def recorded_case(request):
    args, params, phi_star = RECORDED_OPTIMA[request.param]
    return make_instance(*args, **params), phi_star


def test_reference_is_a_fixed_point(recorded_case):
    problem, _ = recorded_case
    x_star = problem.reference_optimum.x_star
    t = 1.0 / problem.f.curvature
    mapped = problem.h.prox(x_star - t * problem.f.grad(x_star), t)
    residual = float(np.linalg.norm(mapped - x_star))
    assert residual <= problems.REFERENCE_TOL * (1 + 1e-6)


def test_reference_matches_recorded_optimum(recorded_case):
    problem, phi_star = recorded_case
    got = problem.reference_optimum.phi_star
    assert abs(got - phi_star) <= 1e-13 * abs(phi_star)


def test_reference_solve_is_accelerated():
    # unaccelerated proximal gradient needs 107132 gradients here
    problem = make_instance("lasso", 42, 100, 200, reg=0.1,
                            with_reference=False)
    calls = []
    grad = problem.f.grad

    def counting_grad(x):
        calls.append(None)
        return grad(x)

    f = dataclasses.replace(problem.f, grad=counting_grad)
    reference_solve(dataclasses.replace(problem, f=f))
    assert len(calls) < 3000


def _counted_solve(problem):
    """reference_solve(problem) and the number of gradients it took."""
    calls = []
    grad = problem.f.grad

    def counting_grad(x):
        calls.append(None)
        return grad(x)

    f = dataclasses.replace(problem.f, grad=counting_grad)
    return reference_solve(dataclasses.replace(problem, f=f)), len(calls)


def _plain(problem):
    """The problem without its recipe, which reference_solve cannot polish."""
    return dataclasses.replace(problem, spec=None)


def _spy_polish(monkeypatch, kind, change=None):
    """Record every candidate the polish of `kind` returns, after `change`."""
    polish = problems._POLISHES[kind]
    tried = []

    def spy(spec, x):
        candidate = polish(spec, x)
        if candidate is not None and change is not None:
            candidate = change(candidate)
        tried.append(candidate)
        return candidate

    monkeypatch.setitem(problems._POLISHES, kind, spy)
    return tried


def test_reference_polish_cuts_readme_lasso_gradients():
    # 1798 gradients without the polish, 607 with it
    problem = make_instance("lasso", 42, 100, 200, reg=0.1,
                            with_reference=False)
    _, calls = _counted_solve(problem)
    assert calls <= 700


@pytest.mark.parametrize("name", ["lasso42", "elastic_mu1"])
def test_polished_reference_agrees_with_plain_solve(name, request):
    problem = request.getfixturevalue(name)
    ref = problem.reference_optimum
    phi_star, x_star = reference_solve(_plain(problem))
    assert abs(ref.phi_star - phi_star) <= 1e-10
    assert np.abs(ref.x_star - x_star).max() <= 1e-10


@pytest.mark.parametrize("args, params", [
    # 484 active columns at step 194: no restart meets |S|^2 <= k n
    (("elastic_net", 42, 1000, 500), {"reg": 0.1, "ridge": 0.1}),
    (("box_qp", 3, 30, 40), {"ridge": 0.01}),
    (("logistic_l2", 4, 60, 40), {"ridge": 0.01}),
], ids=["tall_net", "box_qp", "logistic_l2"])
def test_unpolished_reference_keeps_every_bit(args, params):
    problem = make_instance(*args, with_reference=False, **params)
    (phi_star, x_star), calls = _counted_solve(problem)
    (plain_phi, plain_x), plain_calls = _counted_solve(_plain(problem))
    assert phi_star == plain_phi and np.array_equal(x_star, plain_x)
    assert calls == plain_calls


def _assert_polish_dropped(problem, tried):
    """Every tried polish failed, and the solve is the plain one bit for bit.

    A candidate costs one step; a polish without one costs none.
    """
    (phi_star, x_star), calls = _counted_solve(problem)
    (plain_phi, plain_x), plain_calls = _counted_solve(_plain(problem))
    assert tried
    assert phi_star == plain_phi and np.array_equal(x_star, plain_x)
    assert calls == plain_calls + sum(c is not None for c in tried)


def test_polish_of_singular_lasso_is_dropped(monkeypatch):
    # m = 6 rows: a support of more than 6 columns makes A_S^T A_S singular
    problem = make_instance("lasso", 0, 6, 30, reg=0.0, with_reference=False)
    tried = _spy_polish(monkeypatch, "lasso")
    _assert_polish_dropped(problem, tried)
    assert all(c is None for c in tried)


def test_polish_of_repeated_column_is_none():
    # |S| <= m, but two equal columns make the system singular all the same
    A = _rng(0).standard_normal((10, 4))
    A[:, 1] = A[:, 0]
    spec = problems.InstanceSpec(kind="lasso", seed=0, m=10, n=4,
                                 params={"reg": 0.1},
                                 data={"A": A, "b": _rng(1).standard_normal(10)})
    x = np.array([1.0, 1.0, 0.0, 0.0])
    assert problems._polish_least_squares(spec, x) is None


def test_polish_with_non_finite_solution_is_dropped(monkeypatch):
    # A_S^T b overflows, so no x_S is finite
    problem = make_instance("elastic_net", 1, 20, 30, with_reference=False)
    data = {"A": problem.spec.data["A"], "b": np.full(20, 1e308)}
    stale = dataclasses.replace(
        problem, spec=dataclasses.replace(problem.spec, data=data))
    tried = _spy_polish(monkeypatch, "elastic_net")
    _assert_polish_dropped(stale, tried)
    assert all(c is None for c in tried)


def test_polish_with_non_finite_residual_is_dropped(monkeypatch):
    # a finite candidate whose residual ||z - T(z)||^2 overflows
    problem = make_instance("elastic_net", 1, 20, 30, with_reference=False)
    tried = _spy_polish(monkeypatch, "elastic_net",
                        change=lambda candidate: 1e300 * candidate)
    _assert_polish_dropped(problem, tried)
    t = 1.0 / problem.f.curvature
    with np.errstate(all="ignore"):
        for z in tried:
            assert np.isfinite(z).all()
            mapped = problem.h.prox(z - t * problem.f.grad(z), t)
            assert not math.isfinite(problems.vector_norm(z - mapped))


def test_polish_from_stale_recipe_is_dropped(monkeypatch):
    # f rebuilt on another instance's data, the recipe left as it was
    problem = make_instance("lasso", 3, 30, 50, with_reference=False)
    other = make_instance("lasso", 4, 30, 50, with_reference=False)
    stale = dataclasses.replace(other, spec=problem.spec)
    tried = _spy_polish(monkeypatch, "lasso")
    _assert_polish_dropped(stale, tried)
    assert any(c is not None for c in tried)


def test_reference_cap_counts_polish_steps(monkeypatch):
    problem = make_instance("elastic_net", 7, 30, 50, reg=0.05, ridge=1.0,
                            with_reference=False)
    _, calls = _counted_solve(problem)
    monkeypatch.setattr(problems, "REFERENCE_MAX_ITER", calls - 1)
    counted = []
    grad = problem.f.grad
    f = dataclasses.replace(problem.f,
                            grad=lambda x: counted.append(None) or grad(x))
    with pytest.raises(NumericFailure, match=f"within {calls - 1} "):
        reference_solve(dataclasses.replace(problem, f=f))
    assert len(counted) == calls - 1


# ---------------------------------------------------------------------------
# instance spec files
# ---------------------------------------------------------------------------

def test_instance_file_round_trip(tmp_path):
    problem = make_instance("elastic_net", 5, 15, 20, ridge=2.0,
                            with_reference=False)
    path = tmp_path / "instance.txt"
    problems.save_instance(path, problem)
    text = path.read_text()
    assert "kind = elastic_net" in text
    assert "rng = pcg64" in text
    loaded = problems.load_instance(path)
    assert loaded.f.curvature == problem.f.curvature
    assert loaded.f.mu == 2.0
    np.testing.assert_array_equal(loaded.spec.data["A"], problem.spec.data["A"])


def test_instance_file_detects_constant_mismatch(tmp_path):
    problem = make_instance("lasso", 8, 10, 12, with_reference=False)
    path = tmp_path / "instance.txt"
    problems.save_instance(path, problem)
    lines = path.read_text().splitlines()
    lines = [f"lf_bar = {2 * problem.f.curvature:.17g}"
             if line.startswith("lf_bar") else line for line in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NumericFailure):
        problems.load_instance(path)


# `sfista make-instance --problem elastic_net --seed 9 --m 12 --n 18` as
# written when lf_bar came from a power iteration; it differs from today's
# constant in the last digits, within load_instance's 1e-9 relative check
RECORDED_INSTANCE_FILE = (
    "kind = elastic_net\nseed = 9\nm = 12\nn = 18\nrng = pcg64\n"
    "density = 0.10000000000000001\nnoise = 0.10000000000000001\n"
    "reg = 0.10000000000000001\nridge = 1\n"
    "lf_bar = 58.686174518903826\nmu_f_bar = 1\nmu_h_bar = 0\n")


def test_recorded_instance_file_still_loads(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(RECORDED_INSTANCE_FILE)
    loaded = problems.load_instance(path)
    assert loaded.dimension == 18 and loaded.f.mu == 1.0
    assert abs(loaded.f.curvature / 58.686174518903826 - 1.0) <= 1e-14
    assert type(loaded.spec.params["ridge"]) is float


@pytest.mark.parametrize("kind", problems.INSTANCE_KINDS)
def test_instance_params_round_trip(tmp_path, kind):
    defaults = problems.INSTANCE_PARAMS[kind]
    # every switch on, and reals an API caller passed as integers
    params = {key: True if isinstance(default, bool) else 2
              for key, default in defaults.items()}
    problem = make_instance(kind, 9, 12, 18, with_reference=False, **params)
    path = tmp_path / "inst.txt"
    problems.save_instance(path, problem)
    loaded = problems.load_instance(path)
    assert loaded.spec == problem.spec
    assert set(loaded.spec.params) == set(defaults)
    for key, value in loaded.spec.params.items():
        assert type(value) is type(defaults[key])


@pytest.mark.parametrize("kind, line", [
    ("lasso", "normalize = no"),
    ("lasso", "normalize = False"),
    ("box_qp", "diag = 1"),
    ("lasso", "reg = abc"),
    ("lasso", "seed = 9.0"),
])
def test_instance_file_rejects_mistyped_values(tmp_path, kind, line):
    path = tmp_path / "inst.txt"
    key, _, text = line.partition(" = ")
    # the line replaces a required key's entry rather than repeating it
    entries = {"kind": kind, "seed": "9", "m": "12", "n": "18", key: text}
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    with pytest.raises(ValueError, match=f"instance value {key} = "):
        problems.load_instance(path)


@pytest.mark.parametrize("key, first, second", [
    ("reg", "0.1", "5"),
    ("lf_bar", "1", "2"),
    ("kind", "lasso", "lasso"),
])
def test_instance_file_rejects_repeated_key(tmp_path, key, first, second):
    path = tmp_path / "inst.txt"
    lines = ["kind = lasso", "seed = 9", "m = 12", "n = 18",
             f"{key} = {first}", f"{key} = {second}"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=f"^instance file repeats key '{key}'$"):
        problems.load_instance(path)


def test_instance_file_rejects_unknown_parameter(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("kind = box_qp\nseed = 9\nm = 12\nn = 18\nreg = abc\n")
    with pytest.raises(ValueError, match="unknown instance parameter 'reg'"):
        problems.load_instance(path)


@pytest.mark.parametrize("kind, key, value", [
    ("lasso", "density", math.nan),
    ("elastic_net", "reg", math.inf),
    ("box_qp", "lo", -math.inf),
])
def test_non_finite_parameter_fails_before_any_draw(monkeypatch, kind, key,
                                                    value):
    def no_draws(seed):
        raise AssertionError("data drawn")

    monkeypatch.setattr(problems, "_rng", no_draws)
    with pytest.raises(ValueError,
                       match=f"^instance parameter {key} = .* is not finite$"):
        make_instance(kind, 3, 20, 30, **{key: value})


@pytest.mark.parametrize("kind, key, value, expected", [
    # a truthy string normalized, and its file failed to save
    ("lasso", "normalize", "no", "True or False"),
    # saved as normalize = 1 and reg = true, which load_instance rejects
    ("lasso", "normalize", 1.0, "True or False"),
    ("elastic_net", "reg", True, "a real number"),
    # saved as seed = True, which load_instance rejects
    ("lasso", "seed", True, "an int"),
    ("box_qp", "seed", 3.0, "an int"),
    # numpy raised its own TypeError at the draw
    ("lasso", "m", 2.5, "an int"),
    ("logistic_l2", "n", "30", "an int"),
])
def test_wrong_kind_parameter_fails_before_any_draw(monkeypatch, kind, key,
                                                    value, expected):
    def no_draws(seed):
        raise AssertionError("data drawn")

    monkeypatch.setattr(problems, "_rng", no_draws)
    with pytest.raises(ValueError, match=(
            f"^instance parameter {key} = {value!r} is not {expected}$")):
        make_instance(kind, **{"seed": 3, "m": 20, "n": 30, key: value})


def test_instance_file_rejects_non_finite_parameter(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("kind = elastic_net\nseed = 9\nm = 12\nn = 18\n"
                    "ridge = nan\n")
    with pytest.raises(ValueError,
                       match="^instance parameter ridge = nan is not finite$"):
        problems.load_instance(path)


def test_instance_file_rejects_another_generator(tmp_path):
    # the data is drawn from PCG64 alone; another generator's file was
    # regenerated with PCG64 as if it named none
    path = tmp_path / "inst.txt"
    path.write_text("kind = lasso\nseed = 9\nm = 12\nn = 18\n"
                    "rng = mt19937\n")
    with pytest.raises(ValueError, match=(
            "^instance value rng = 'mt19937' is not 'pcg64'$")):
        problems.load_instance(path)
    path.write_text("kind = lasso\nseed = 9\nm = 12\nn = 18\nrng = pcg64\n")
    assert problems.load_instance(path).spec.seed == 9


def test_instance_file_skips_comments_and_rejects_bare_lines(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("# a comment\n\nkind = lasso\nseed = 9\nm = 12\n"
                    "n = 18\n")
    assert problems.load_instance(path).spec.seed == 9
    path.write_text("kind = lasso\nseed = 9\nm = 12\nn = 18\nreg 0.1\n")
    with pytest.raises(ValueError,
                       match="^malformed instance line: 'reg 0.1'$"):
        problems.load_instance(path)


def test_instance_file_requires_keys(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("kind = lasso\nseed = 1\nm = 4\n")
    with pytest.raises(ValueError):
        problems.load_instance(path)
    bare = CompositeProblem(f=quadratic(np.eye(2), np.zeros(2), curvature=1.0),
                            h=problems.zero_function(), dimension=2)
    with pytest.raises(ValueError):
        problems.save_instance(tmp_path / "x.txt", bare)
