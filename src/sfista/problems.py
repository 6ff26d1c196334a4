"""Composite convex problems phi = f + h.

`f` is a differentiable convex function known through value/gradient callbacks
together with two constants: a strong-convexity modulus and an upper curvature
bound (a Lipschitz constant of the gradient).  `h` is a proximable convex
function whose value may be +inf outside its effective domain.  The module
also ships a small catalog of closed-form proximal maps, seeded benchmark
instance generators, and a reference solver used as the ground-truth oracle
for optimal values: accelerated proximal gradient with gradient-mapping
restart, stopped on the proximal-gradient fixed-point residual.  On a lasso
or elastic net instance each restart also tries a least-squares polish on
the detected support, under a cost guard; its candidate is kept only if it
passes the same residual test, so the returned point is certified the same
way whichever path found it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericFailure

Array = np.ndarray

# Multiplicative inflation applied to every computed curvature bound so that
# it dominates the true constant despite the rounding of the dense
# eigensolve that computes it (`gram_top` states the bound and its range).
CURVATURE_INFLATION = 1.0 + 1e-9
POWER_TOL = 1e-10
POWER_MAX_ITER = 10**5
REFERENCE_TOL = 1e-14
REFERENCE_MAX_ITER = 10**6

RNG_NAME = "pcg64"

# the smallest normal double; a sum of squares below it has lost digits
_NORMAL_MIN = sys.float_info.min

# kind -> {parameter: default}; a bool default marks a switch, any other a
# real.  make_instance, the instance files and the CLI flags all read it.
INSTANCE_PARAMS = {
    "lasso": {"reg": 0.1, "density": 0.1, "noise": 0.1, "normalize": False},
    "elastic_net": {"reg": 0.1, "ridge": 1.0, "density": 0.1, "noise": 0.1},
    "box_qp": {"ridge": 1.0, "lo": 0.0, "hi": 1.0, "diag": False},
    "logistic_l2": {"ridge": 1.0},
}
INSTANCE_KINDS = tuple(INSTANCE_PARAMS)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def vector_norm(v: Array) -> float:
    """Euclidean norm of a 1-D float64 array.

    The square root of v.dot(v), as np.linalg.norm takes it, so the two
    agree bit for bit while v.dot(v) is a normal double.  Below that, from
    ||v|| of about 1.5e-154 down, the sum of squares loses digits and then
    reads 0; a nonzero v whose v.dot(v) falls there is scaled by max |v|
    first, so its norm keeps full precision and never reads 0.
    """
    sq = float(v.dot(v))
    if sq < _NORMAL_MIN and v.any():
        scale = float(np.abs(v).max())
        v = v / scale
        return scale * math.sqrt(float(v.dot(v)))
    return math.sqrt(sq)


@dataclass(frozen=True)
class SmoothOracle:
    """Differentiable piece of the objective.

    Attributes:
        value: x -> f(x).
        grad: x -> gradient of f at x.
        mu: strong-convexity modulus of f (0 when merely convex).
        curvature: constant L such that f(x) <= f(z) + <f'(z), x - z>
            + (L/2) * ||x - z||^2 for all x, z.  Must satisfy curvature >= mu.
        value_and_grad: optional x -> (value(x), grad(x)), both bit for bit
            what the two calls return, from work they share.  The oracle
            notes which value and grad it was given with (`_fused_with`),
            and `fused` hands it out only while those are still this
            oracle's: one rebuilt with another value or grad, as a counting
            wrapper is, gets None and makes its two calls.
    """

    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    mu: float = 0.0
    curvature: float = 0.0
    value_and_grad: Optional[Callable[[Array], tuple]] = None
    # (value, grad, value_and_grad) when value_and_grad was set; carried
    # along by dataclasses.replace
    _fused_with: Optional[tuple] = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self):
        fused_with = self._fused_with
        if self.value_and_grad is not None and (
                fused_with is None or fused_with[2] is not self.value_and_grad):
            object.__setattr__(self, "_fused_with",
                               (self.value, self.grad, self.value_and_grad))

    def fused(self) -> Optional[Callable[[Array], tuple]]:
        """value_and_grad, or None unless value and grad are still the
        functions it was set with."""
        fused_with = self._fused_with
        if (self.value_and_grad is None or fused_with[0] is not self.value
                or fused_with[1] is not self.grad):
            return None
        return self.value_and_grad


@dataclass(frozen=True)
class ProxOracle:
    """Proximable piece of the objective.

    `value` returns an extended real (+inf outside the domain).  `prox(x, t)`
    returns argmin_u { h(u) + ||u - x||^2 / (2 t) } exactly.
    """

    value: Callable[[Array], float]
    prox: Callable[[Array, float], Array]
    mu: float = 0.0


@dataclass(frozen=True)
class ReferenceOptimum:
    """phi* and a minimizer x*, against which every gap and d0 is measured."""

    phi_star: float
    x_star: Array

    def distance(self, x0: Array) -> float:
        """d0 = ||x0 - x*||, the start distance the predictors read."""
        return vector_norm(x0 - self.x_star)


@dataclass(frozen=True)
class InstanceSpec:
    """Generation recipe for a seeded benchmark instance."""

    kind: str
    seed: int
    m: int
    n: int
    params: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class CompositeProblem:
    f: SmoothOracle
    h: ProxOracle
    dimension: int
    reference_optimum: Optional[ReferenceOptimum] = None
    spec: Optional[InstanceSpec] = None


def eval_phi(problem: CompositeProblem, x: Array) -> float:
    """phi(x) = f(x) + h(x), an extended real, at x of shape (dimension,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise ValueError(f"point has shape {x.shape}, expected "
                         f"({problem.dimension},)")
    return _phi_given_h(problem, x, problem.h.value(x))


def eval_phi_and_grad(problem: CompositeProblem, x: Array,
                      value_and_grad: Callable[[Array], tuple]) -> tuple:
    """(phi(x), grad f(x)), f's part from one value_and_grad(x) call.

    value_and_grad is `problem.f.fused()`.  phi(x) is eval_phi's, bit for
    bit, and the gradient f.grad's; f is evaluated even where h is +inf.
    x is a run's iterate, whose shape `init` fixed: it is not checked.
    """
    hx = problem.h.value(x)
    fx, gx = value_and_grad(x)
    return (math.inf if hx == math.inf else float(fx) + float(hx)), gx


def _phi_given_h(problem: CompositeProblem, x: Array, hx: float) -> float:
    """phi(x) from hx = h(x): +inf if hx is +inf (off dom h), else f(x) + hx."""
    if hx == math.inf:
        return math.inf
    return float(problem.f.value(x)) + float(hx)


# ---------------------------------------------------------------------------
# Proximal operator catalog
# ---------------------------------------------------------------------------

def prox_soft_threshold(x: Array, weight: float, step: float) -> Array:
    """Prox of weight * ||.||_1 with step t: componentwise soft threshold."""
    x = np.asarray(x, dtype=float)
    if weight < 0 or step <= 0:
        raise ValueError("soft threshold needs weight >= 0 and step > 0")
    if x.ndim == 0:
        # the abs of a 0-d array is a scalar, which no out= takes
        return np.sign(x) * np.maximum(np.abs(x) - weight * step, 0.0)
    # sign(x) * max(|x| - weight step, 0) in place: the same operations on
    # the same operands, sign(x) first as the left factor, so even a NaN
    # keeps its bits (sign(-nan) * nan and nan * sign(-nan) differ)
    out = np.abs(x)
    out -= weight * step
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(x), out, out=out)


def prox_box(x: Array, lo, hi) -> Array:
    """Projection onto the box [lo, hi] (step-independent)."""
    x = np.asarray(x, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi on some component")
    return np.clip(x, lo, hi)


def prox_scaled_quadratic(x: Array, alpha: float, step: float) -> Array:
    """Prox of (alpha/2) * ||.||^2: a pure shrink x / (1 + alpha * step)."""
    x = np.asarray(x, dtype=float)
    if alpha < 0 or step <= 0:
        raise ValueError("scaled quadratic needs alpha >= 0 and step > 0")
    return x / (1.0 + alpha * step)


def l1_norm(weight: float) -> ProxOracle:
    """h(x) = weight * ||x||_1."""
    if weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    return ProxOracle(
        value=lambda x: weight * float(np.abs(x).sum()),
        prox=lambda x, t: prox_soft_threshold(x, weight, t),
        mu=0.0,
    )


def box_indicator(lo, hi) -> ProxOracle:
    """h = indicator of the box [lo, hi]; prox is the projection."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi on some component")

    def value(x):
        inside = np.all(x >= lo) and np.all(x <= hi)
        return 0.0 if inside else math.inf

    return ProxOracle(value=value, prox=lambda x, t: prox_box(x, lo, hi), mu=0.0)


def zero_function() -> ProxOracle:
    """h = 0; prox is the identity."""
    return ProxOracle(
        value=lambda x: 0.0,
        prox=lambda x, t: np.asarray(x, dtype=float).copy(),
        mu=0.0,
    )


def scaled_quadratic(alpha: float) -> ProxOracle:
    """h(x) = (alpha/2) * ||x||^2, an alpha-strongly-convex proximable piece."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return ProxOracle(
        value=lambda x: 0.5 * alpha * float(x.dot(x)),
        prox=lambda x, t: prox_scaled_quadratic(x, alpha, t),
        mu=alpha,
    )


# ---------------------------------------------------------------------------
# Smooth oracles
# ---------------------------------------------------------------------------

def least_squares(A: Array, b: Array, ridge: float = 0.0,
                  curvature: Optional[float] = None) -> SmoothOracle:
    """f(x) = 0.5 * ||A x - b||^2 + (ridge/2) * ||x||^2.

    When `curvature` is omitted it is the top eigenvalue of A^T A from
    `gram_top`, plus the ridge, inflated so that it dominates the true
    constant.

    A tall design (m >= n, the test `gram_top` uses to pick the smaller
    Gram matrix) keeps G = A^T A and c = A^T b, whether or not `curvature`
    is given, and its gradient is G x - c: n^2 flops in place of 2mn.  G
    holds n^2 doubles (2 MB at n = 500), never more than A, and when
    `curvature` is omitted its top eigenvalue is the one `gram_top` would
    compute, bit for bit.  A wide design keeps the residual form A^T (A x -
    b), and its `value_and_grad` forms the residual once for both; a tall
    one has no residual to share and no `value_and_grad`.  `value` is the
    residual form on every shape.

    G x - c cancels terms of size about ||G||_2 ||x||, so its rounding error
    is a few u ||G||_2 ||x|| with u = 2^-53.  At x* of the 1000 x 500
    elastic net with reg = ridge = 0.1 (seed 42) it is 6.3e-12 in the
    2-norm, 3.0 u ||G||_2 ||x*|| and 2.4e-11 of max |grad f(x*)|, where the
    residual form errs by 1.6e-12.  The stationarity certificate u_k
    subtracts two gradients, so on a tall design its norm is resolved no
    finer than about 2 * 3 u ||G||_2 ||y||.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    _require_finite("design A", A)
    _require_finite("target b", b)
    tall = A.shape[0] >= A.shape[1]
    if tall:
        G, c = A.T @ A, A.T @ b
    if curvature is None:
        top = top_eigenvalue(G) if tall else gram_top(A)
        curvature = (top + ridge) * CURVATURE_INFLATION
    # ndarray.dot makes the BLAS call @ makes, bit for bit, with less
    # dispatch; A.T is bound once
    AT = A.T

    def value_at(r, x):
        """f(x) from the residual r = A x - b."""
        out = 0.5 * float(r.dot(r))
        if ridge:
            out += 0.5 * ridge * float(x.dot(x))
        return out

    def with_ridge(g, x):
        if ridge:
            g += ridge * x
        return g

    def value(x):
        return value_at(A.dot(x) - b, x)

    value_and_grad = None
    if tall:
        def grad(x):
            return with_ridge(G.dot(x) - c, x)
    else:
        def grad(x):
            return with_ridge(AT.dot(A.dot(x) - b), x)

        def value_and_grad(x):
            r = A.dot(x) - b
            return value_at(r, x), with_ridge(AT.dot(r), x)

    return SmoothOracle(value=value, grad=grad, mu=ridge,
                        curvature=float(curvature),
                        value_and_grad=value_and_grad)


def quadratic(Q: Array, c: Array, mu: float = 0.0,
              curvature: Optional[float] = None) -> SmoothOracle:
    """f(x) = 0.5 * x^T Q x - c^T x for symmetric positive semidefinite Q.

    When `curvature` is omitted it is the top eigenvalue of Q from
    `top_eigenvalue`, inflated so that it dominates the true constant.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    _require_finite("matrix Q", Q)
    _require_finite("vector c", c)
    if curvature is None:
        curvature = top_eigenvalue(Q) * CURVATURE_INFLATION
    return SmoothOracle(
        value=lambda x: 0.5 * float(x.dot(Q.dot(x))) - float(c.dot(x)),
        grad=lambda x: Q.dot(x) - c,
        mu=float(mu),
        curvature=float(curvature),
    )


def logistic_loss(A: Array, labels: Array, ridge: float = 0.0) -> SmoothOracle:
    """Mean logistic loss over rows of A with +/-1 labels, plus a ridge term.

    The Hessian is dominated by A^T A / (4 m) + ridge * I, which supplies the
    curvature bound; the ridge supplies the strong-convexity modulus.
    `value` and `grad` each form the margins labels * (A x).
    """
    A = np.asarray(A, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = A.shape[0]
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    _require_finite("design A", A)
    _require_finite("labels", labels)
    curvature = (gram_top(A) / (4.0 * m) + ridge) * CURVATURE_INFLATION
    AT = A.T

    def value(x):
        margins = labels * A.dot(x)
        out = float(np.logaddexp(0.0, -margins).mean())
        if ridge:
            out += 0.5 * ridge * float(x.dot(x))
        return out

    def grad(x):
        margins = labels * A.dot(x)
        # sigmoid(-margins), computed without overflow for large |margins|
        w = 0.5 * (1.0 - np.tanh(0.5 * margins))
        g = -(AT.dot(labels * w)) / m
        if ridge:
            g += ridge * x
        return g

    return SmoothOracle(value=value, grad=grad, mu=ridge,
                        curvature=float(curvature))


# ---------------------------------------------------------------------------
# Curvature estimation
# ---------------------------------------------------------------------------

def _require_finite(name: str, M: Array) -> None:
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")


def top_eigenvalue(M: Array) -> float:
    """Largest eigenvalue of the symmetric matrix M by one dense eigensolve.

    np.linalg.eigvalsh is backward stable: its eigenvalues are exact for
    some M + E with ||E||_2 <= c q u ||M||_2, where q is the order of M, u
    = 2^-53 the unit roundoff and c a modest constant, so by Weyl's
    inequality the top one is off by at most that much.  A solver that
    fails to converge raises NumericFailure.
    """
    try:
        return max(float(np.linalg.eigvalsh(M)[-1]), 0.0)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"symmetric eigensolve failed: {exc}") from exc


def gram_top(A: Array) -> float:
    """Largest eigenvalue of A^T A, sigma_max(A)^2, from the smaller Gram.

    With A of shape (m, n) it solves A^T A when m >= n and A A^T otherwise;
    both have the same nonzero spectrum.  Write p = max(m, n) for the length
    of the Gram product's sums and q = min(m, n) for its order.  The product
    is off by at most gamma_p ||A||_F^2 <= gamma_p q ||A||_2^2 in the
    2-norm, with gamma_p = p u / (1 - p u), and the eigensolve adds the
    backward error c q u ||A||_2^2 (see `top_eigenvalue`).  By Weyl's
    inequality the result is within (p + c) q u of sigma_max(A)^2,
    relatively, up to second-order terms.  CURVATURE_INFLATION = 1 + 1e-9
    covers that while (p + c) q <= 9e6 or so: up to about 3000 x 3000, and
    with a margin of about 18 at 1000 x 500.  The bound is a worst case;
    rounding errors that do not all align leave far more room.
    """
    m, n = A.shape
    return top_eigenvalue(A.T @ A if m >= n else A @ A.T)


def power_iteration(op, dim: int, tol: float = POWER_TOL,
                    max_iter: int = POWER_MAX_ITER,
                    rng: Optional[np.random.Generator] = None) -> float:
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    `op` is either a square array or a matvec callable, for operators known
    only through their products.  Iterates until the eigenpair residual
    ||M v - theta v|| drops below tol * theta.  For a symmetric operator
    that bounds the distance from theta to the *nearest* eigenvalue, not to
    lambda_max: a start nearly orthogonal to the top eigenvector can stop
    near a smaller one, so the result is an estimate, not a certified upper
    bound.  The instance builders use the dense `gram_top` instead.  Raises
    NumericFailure when the cap is hit first.
    """
    matvec = op if callable(op) else (lambda v: op @ v)
    if rng is None:
        rng = _rng(0)
    v = rng.standard_normal(dim)
    nv = vector_norm(v)
    if nv == 0.0:
        v = np.ones(dim)
        nv = math.sqrt(dim)
    v = v / nv
    for _ in range(max_iter):
        w = matvec(v)
        theta = float(v.dot(w))
        resid = vector_norm(w - theta * v)
        if resid <= tol * max(theta, 1e-300):
            return max(theta, 0.0)
        nw = vector_norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    raise NumericFailure(
        f"power iteration did not reach residual {tol:g} within {max_iter} iterations"
    )


# ---------------------------------------------------------------------------
# Reference solver
# ---------------------------------------------------------------------------

def reference_solve(problem: CompositeProblem, x0: Optional[Array] = None):
    """High-accuracy minimizer of phi by restarted accelerated proximal gradient.

    With L the curvature bound of f and T(z) = prox_h(z - grad f(z)/L, 1/L),
    each step forms x = T(z) and stops once the fixed-point residual
    ||z - T(z)|| falls below REFERENCE_TOL.  Otherwise z moves on by the FISTA
    momentum step, unless the gradient-mapping test <z - x, x - x_prev> > 0
    fires, which resets the momentum and restarts from z = x (O'Donoghue and
    Candes, 2015).

    At each restart a lasso or elastic net instance (one whose `spec` has a
    polish in _POLISHES) also tries a polish: the least-squares solve on the
    support S of x with the signs of x held, which on the final support is
    the exact minimizer, where the momentum steps would close the rest of
    the distance only linearly.  It is tried only while |S|^2 <= k n, with k
    the proximal-gradient steps taken so far, so its m |S|^2 cost stays
    below the k m n already spent.  Its candidate z costs one more step,
    T(z), and is kept only if it passes the same test ||z - T(z)|| <=
    REFERENCE_TOL; a candidate that fails it, or that is not finite, is
    dropped without a warning and the momentum steps go on as if it had
    never been tried.  The test uses this problem's own f and h, so a
    `spec` whose data no longer match f (an f rebuilt on other data) can
    cost steps but cannot pass a wrong point.  Either way the returned x =
    T(z) for a z that passed
    the test, and T is nonexpansive, so ||x - T(x)|| <= REFERENCE_TOL up to
    rounding, whichever path led to z.

    REFERENCE_MAX_ITER caps the number of prox-gradient steps, the polish
    steps included, and a residual along the momentum path that is not
    finite raises NumericFailure at once.  x0 defaults to the origin.
    Returns (phi_star, x_star).

    This routine is deliberately independent of the accelerated solver: it is
    the oracle the rest of the toolkit is checked against.
    """
    L = problem.f.curvature
    if L <= 0:
        raise ConfigError("reference solve needs a positive curvature bound")
    t = 1.0 / L
    n = problem.dimension
    start = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if start.shape != (n,):
        raise ValueError(f"x0 has shape {start.shape}, expected ({n},)")
    spec = problem.spec
    polish = None if spec is None else _POLISHES.get(spec.kind)

    def step(z):
        return problem.h.prox(z - t * problem.f.grad(z), t)

    x_prev = z = start
    theta = 1.0
    steps = 0
    while steps < REFERENCE_MAX_ITER:
        x = step(z)
        steps += 1
        move = z - x
        residual = vector_norm(move)
        if residual <= REFERENCE_TOL:
            return eval_phi(problem, x), x
        if not math.isfinite(residual):
            raise NumericFailure(
                f"proximal-gradient residual {residual:g} is not finite")
        stride = x - x_prev
        if float(move.dot(stride)) > 0.0:
            theta, z = 1.0, x
            if (polish is not None and steps < REFERENCE_MAX_ITER
                    and np.count_nonzero(x) ** 2 <= steps * n):
                # a polish that fails may overflow on its way to a candidate
                # the test drops, so it warns of nothing
                with np.errstate(all="ignore"):
                    candidate = polish(spec, x)
                    if candidate is not None:
                        polished = step(candidate)
                        steps += 1
                        if vector_norm(candidate - polished) <= REFERENCE_TOL:
                            return eval_phi(problem, polished), polished
        else:
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            z = x + ((theta - 1.0) / theta_next) * stride
            theta = theta_next
        x_prev = x
    raise NumericFailure(
        f"proximal gradient did not reach residual {REFERENCE_TOL:g} "
        f"within {REFERENCE_MAX_ITER} iterations"
    )


def _polish_least_squares(spec: InstanceSpec, x: Array) -> Optional[Array]:
    """The minimizer of a lasso or elastic net on x's support, signs held.

    With S the support of x and A, b from `spec.data`, it solves
    (A_S^T A_S + ridge I) x_S = A_S^T b - reg sign(x_S), the stationarity
    condition of phi on the sign pattern of x, and returns x_S padded with
    zeros off S.  A lasso with |S| > m, whose system is singular by rank,
    gives None before any work, and so does a system the solver finds
    singular or a non-finite x_S.  Nothing here is trusted:
    `reference_solve` keeps the result only if it passes the fixed-point
    test.
    """
    A, b = spec.data["A"], spec.data["b"]
    ridge = spec.params.get("ridge", 0.0)
    support = np.flatnonzero(x)
    if not ridge and support.size > A.shape[0]:
        return None
    A_S = A[:, support]
    gram = A_S.T @ A_S
    gram[np.diag_indices_from(gram)] += ridge
    rhs = A_S.T @ b - spec.params["reg"] * np.sign(x[support])
    try:
        x_S = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(x_S).all():
        return None
    candidate = np.zeros_like(x)
    candidate[support] = x_S
    return candidate


# kind -> polish(spec, x), which returns a candidate minimizer or None
_POLISHES = {
    "lasso": _polish_least_squares,
    "elastic_net": _polish_least_squares,
}


# ---------------------------------------------------------------------------
# Seeded benchmark instances
# ---------------------------------------------------------------------------

def make_instance(kind: str, seed: int, m: int, n: int,
                  with_reference: bool = True, **params) -> CompositeProblem:
    """Deterministic benchmark instance of the given kind.

    All randomness is drawn from a PCG64 stream seeded with `seed`, so
    repeated calls produce identical data.  `params` overrides the kind's
    defaults in INSTANCE_PARAMS; a seed, m or n that is not an int (a bool
    included), a negative seed, an unknown parameter, a switch that is not
    True or False, or a real that is a bool, no number, NaN or infinite, is
    a ValueError raised before any data is drawn.  Data whose phi is not
    finite at prox_h(0) are a ValueError too, raised once they are drawn.
    The returned problem carries its generation recipe in `spec`, every
    default included, and, unless `with_reference=False`, its optimal value
    in `reference_optimum` (`attach_reference` adds it later).
    """
    if kind not in INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}; expected one of {INSTANCE_KINDS}")
    for key, value in (("seed", seed), ("m", m), ("n", n)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"instance parameter {key} = {value!r} "
                             "is not an int")
    if m <= 0 or n <= 0:
        raise ValueError("instance shape must be positive")
    if seed < 0:
        raise ValueError(f"seed {seed} must be nonnegative")
    defaults = INSTANCE_PARAMS[kind]
    for key in params:
        if key not in defaults:
            raise ValueError(f"unknown instance parameter {key!r}")
    p = {**defaults, **params}
    for key, value in p.items():
        if isinstance(defaults[key], bool):
            if not isinstance(value, bool):
                raise ValueError(f"instance parameter {key} = {value!r} "
                                 "is not True or False")
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"instance parameter {key} = {value!r} "
                             "is not a real number")
        elif not math.isfinite(value):
            raise ValueError(f"instance parameter {key} = {value!r} is not finite")
    f, h, data = _BUILDERS[kind](p, _rng(seed), m, n)
    spec = InstanceSpec(kind=kind, seed=seed, m=m, n=n, params=p, data=data)
    problem = CompositeProblem(f=f, h=h, dimension=n, spec=spec)
    # data near the largest double (a noise or box bound of 1e300) make phi
    # overflow at prox_h(0), where the CLI starts; it is evaluated with no
    # overflow warning, and such an instance is refused before any solve
    with np.errstate(over="ignore", invalid="ignore"):
        phi_start = eval_phi(problem, h.prox(np.zeros(n), 1.0))
    if not math.isfinite(phi_start):
        raise ValueError(f"phi(prox_h(0)) = {phi_start:g} is not finite: the "
                         "instance's data overflow double precision")
    return attach_reference(problem) if with_reference else problem


def attach_reference(problem: CompositeProblem) -> CompositeProblem:
    """The problem with the optimum `reference_solve` finds as its reference."""
    return dataclasses.replace(
        problem, reference_optimum=ReferenceOptimum(*reference_solve(problem)))


def _sparse_regression_data(rng, m, n, density, noise):
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.random(n) < density
    x_true[support] = rng.standard_normal(int(support.sum()))
    b = A @ x_true + noise * rng.standard_normal(m)
    return A, b


def _make_lasso(p, rng, m, n):
    A, b = _sparse_regression_data(rng, m, n, p["density"], p["noise"])
    if p["normalize"]:
        A = A / math.sqrt(gram_top(A))
    return least_squares(A, b), l1_norm(p["reg"]), {"A": A, "b": b}


def _make_elastic_net(p, rng, m, n):
    A, b = _sparse_regression_data(rng, m, n, p["density"], p["noise"])
    f = least_squares(A, b, ridge=p["ridge"])
    return f, l1_norm(p["reg"]), {"A": A, "b": b}


def _make_box_qp(p, rng, m, n):
    if p["lo"] > p["hi"]:
        raise ValueError("box is empty: lo > hi")
    if p["diag"]:
        Q = np.diag(np.arange(1.0, n + 1.0))
        mu = 1.0
    else:
        B = rng.standard_normal((m, n))
        Q = B.T @ B / m + p["ridge"] * np.eye(n)
        mu = p["ridge"]
    c = rng.standard_normal(n)
    h = box_indicator(np.full(n, float(p["lo"])), np.full(n, float(p["hi"])))
    return quadratic(Q, c, mu=mu), h, {"Q": Q, "c": c}


def _make_logistic_l2(p, rng, m, n):
    A = rng.standard_normal((m, n))
    w_true = rng.standard_normal(n) / math.sqrt(n)
    margins = A @ w_true + 0.1 * rng.standard_normal(m)
    labels = np.where(margins >= 0, 1.0, -1.0)
    f = logistic_loss(A, labels, ridge=p["ridge"])
    return f, zero_function(), {"A": A, "labels": labels}


# kind -> builder(params, rng, m, n), which returns (f, h, data)
_BUILDERS = {
    "lasso": _make_lasso,
    "elastic_net": _make_elastic_net,
    "box_qp": _make_box_qp,
    "logistic_l2": _make_logistic_l2,
}


# ---------------------------------------------------------------------------
# Instance spec files
# ---------------------------------------------------------------------------

# 17 significant digits: every double reads back bit for bit
REAL_FORMAT = ".17g"


def format_real(v: float) -> str:
    """Decimal form of v as a float, in REAL_FORMAT (lossless round trip)."""
    return format(float(v), REAL_FORMAT)


def instance_recipe(problem: CompositeProblem, constants: bool = True) -> list:
    """(key, text) pairs of the instance file: recipe, then constants.

    Without `constants` only the generation recipe, as `solve` prints it.
    """
    spec = problem.spec
    if spec is None:
        raise ValueError("problem carries no generation recipe to save")
    pairs = [("kind", spec.kind), ("seed", str(spec.seed)), ("m", str(spec.m)),
             ("n", str(spec.n)), ("rng", RNG_NAME)]
    pairs += [(key, _format_param(spec.params[key]))
              for key in sorted(spec.params)]
    if constants:
        pairs += [("lf_bar", format_real(problem.f.curvature)),
                  ("mu_f_bar", format_real(problem.f.mu)),
                  ("mu_h_bar", format_real(problem.h.mu))]
    return pairs


def save_instance(path, problem: CompositeProblem) -> None:
    """Write `instance_recipe(problem)` as key = value lines."""
    Path(path).write_text("".join(f"{key} = {value}\n"
                                  for key, value in instance_recipe(problem)))


def _format_param(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return format_real(v)


def _parse(key: str, text: str, default):
    """Instance-file text of `key`, read as the type of `default`."""
    try:
        if isinstance(default, bool):
            return {"true": True, "false": False}[text]
        return type(default)(text)
    except (KeyError, ValueError):
        raise ValueError(f"instance value {key} = {text!r} is not "
                         f"{type(default).__name__}") from None


def load_instance(path) -> CompositeProblem:
    """Regenerate an instance from a spec file, checking the recorded constants.

    seed, m and n are ints, switches true or false, rng (if given) pcg64,
    the rest floats; any other value, and a key given twice, is a
    ValueError that names its key.
    """
    entries: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed instance line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ValueError(f"instance file repeats key {key!r}")
        entries[key] = value.strip()
    for required in ("kind", "seed", "m", "n"):
        if required not in entries:
            raise ValueError(f"instance file misses required key {required!r}")
    rng = entries.pop("rng", RNG_NAME)
    if rng != RNG_NAME:
        raise ValueError(f"instance value rng = {rng!r} is not {RNG_NAME!r}")
    kind = entries.pop("kind")
    # unknown keys stay text, for make_instance to reject by name
    schema = {"seed": 0, "m": 0, "n": 0, **INSTANCE_PARAMS.get(kind, {}),
              "lf_bar": 0.0, "mu_f_bar": 0.0, "mu_h_bar": 0.0}
    entries = {key: _parse(key, text, schema[key]) if key in schema else text
               for key, text in entries.items()}
    recorded = [entries.pop(key, None)
                for key in ("lf_bar", "mu_f_bar", "mu_h_bar")]
    problem = make_instance(kind, entries.pop("seed"), entries.pop("m"),
                            entries.pop("n"), **entries)
    got_constants = (problem.f.curvature, problem.f.mu, problem.h.mu)
    for want, got in zip(recorded, got_constants):
        if want is not None and abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise NumericFailure(
                f"regenerated constant {got!r} does not match recorded {want!r}"
            )
    return problem
