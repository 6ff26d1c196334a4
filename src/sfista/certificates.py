"""Optimality certificates carried by the accelerated iterates.

Three objects are computable from a solver state without extra assumptions:

* a stationarity residual `u` that belongs to the composite subdifferential
  at the latest proximal point,
* a residual pair `(v, eta)` with `v` an eta-approximate subgradient of the
  shifted objective phi - (mu/2) ||. - y||^2 at y, and
* an aggregated quadratic lower model of phi, one scalar, one vector and a
  fixed Hessian multiple of the identity, folded over a recorded run by
  `lower_models`, or a state at a time by `lower_model_update` (the solver
  itself never builds it).  The sampled checks work on values and call no
  oracle: `sample_points` gives phi at each point, a +inf phi (off dom h)
  never sets a worst, and a -inf or NaN fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .errors import CertificateUndefinedError
from .problems import CompositeProblem, _phi_given_h, vector_norm

if TYPE_CHECKING:  # pragma: no cover
    from .engine import IterateState

Array = np.ndarray


@dataclass(slots=True)
class StationarityResidual:
    """u in grad f(y) + subdiff h(y) together with its norm."""

    u: Array
    norm: float


@dataclass(slots=True)
class ResidualPair:
    """v and eta >= 0 with v an eta-subgradient of phi - (mu/2)||. - y||^2 at y."""

    v: Array
    eta: float

    @property
    def norm(self) -> float:
        return vector_norm(self.v)


@dataclass(frozen=True)
class LowerModel:
    """Quadratic minorant constant + <linear, x> + (curvature/2) ||x||^2.

    `weight` is the accumulated coefficient sum behind the aggregation.
    """

    constant: float
    linear: Array
    curvature: float
    weight: float

    def __call__(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        out = self.constant + float(self.linear.dot(x))
        if self.curvature:
            out += 0.5 * self.curvature * float(x.dot(x))
        return out


def gamma_coefficients(state: "IterateState", f_at_tilde: float,
                       h_at_y: float):
    """Minorant coefficients (constant, linear) of the step that made state.

    The minorant is built from the linearization of f at the step's
    extrapolated point x_tilde_prev plus h at its proximal output y,
    re-expanded around the origin so it can be aggregated coordinate-free:

        gamma(x) = value_at_y + <(x_tilde_prev - y)/lam, x - y>
                   + (mu/2) ||x - y||^2
    """
    x_tilde, y, config = state.x_tilde_prev, state.y, state.config
    diff = x_tilde - y
    value_at_y = (
        float(f_at_tilde)
        + float(state.grad_tilde_prev.dot(y - x_tilde))
        + float(h_at_y)
        + 0.5 * config.mu_f * float(diff.dot(diff))
    )
    slope = diff / config.lam
    linear = slope - config.mu * y
    constant = (value_at_y - float(slope.dot(y))
                + 0.5 * config.mu * float(y.dot(y)))
    return constant, linear


def lower_model_update(model: Optional[LowerModel], state: "IterateState",
                       problem: CompositeProblem) -> LowerModel:
    """model with the minorant of the step that made state folded in.

    The minorant gets weight state.a_prev, and model None is the empty
    model.  Evaluates f at the step's extrapolated point and h at its
    proximal output; the gradient is the step's own.
    """
    constant, linear = gamma_coefficients(
        state, problem.f.value(state.x_tilde_prev), problem.h.value(state.y))
    a = state.a_prev
    if model is None:
        return LowerModel(constant=constant, linear=linear,
                          curvature=float(state.config.mu), weight=a)
    total = model.weight + a
    w_old = model.weight / total
    w_new = a / total
    return LowerModel(
        constant=w_old * model.constant + w_new * constant,
        linear=w_old * model.linear + w_new * linear,
        curvature=model.curvature,
        weight=total,
    )


def lower_models(states: Sequence["IterateState"],
                 problem: CompositeProblem) -> Iterator[tuple]:
    """Aggregated lower models (k, Gamma_k) of a recorded run, k = 1, 2, ...

    states[0] is the initial state and each later state follows from the one
    before it.
    """
    model = None
    for state in states[1:]:
        yield state.k, (model := lower_model_update(model, state, problem))


def stationarity_residual(state: "IterateState", problem: CompositeProblem,
                          grad_y: Optional[Array] = None) -> StationarityResidual:
    """Composite subgradient at the current proximal point y.

    Defined for k >= 1 only, because it references the extrapolated point the
    last proximal step was taken from and the gradient the step took there.
    grad_y, when given, is grad f(y), already formed; else f.grad forms it.
    """
    if state.k < 1 or state.x_tilde_prev is None or state.grad_tilde_prev is None:
        raise CertificateUndefinedError("stationarity residual needs at least one step")
    if grad_y is None:
        grad_y = problem.f.grad(state.y)
    # u = (grad f(y) - grad_tilde_prev) + lf (x_tilde_prev - y), in that order
    u = grad_y - state.grad_tilde_prev
    step = state.x_tilde_prev - state.y
    step *= state.config.lf
    u += step
    return StationarityResidual(u=u, norm=vector_norm(u))


def residual_pair(state: "IterateState") -> ResidualPair:
    """Approximate-subgradient pair (v, eta) at the current y.

    v = mu (y - x) + (x0 - x) / A and
    eta = (||x0 - y||^2 - tau ||x - y||^2) / (2 A); eta >= 0 up to rounding.
    Where state.config.plain_fista holds (mu = +0.0) v is formed as
    (x0 - x) / A alone.  The general form would add 0 (y - x) to it: where
    y - x is finite, a zero, which can flip only the sign of a zero entry
    of v, so ||v|| and eta are the same.  Where y - x is not finite that
    term is NaN: eta is NaN in either form, and ||v|| reads inf where x is
    infinite (as `step` leaves it at an infinite entry of y) in place of
    the general form's NaN.
    """
    if state.k < 1:
        raise CertificateUndefinedError("residual pair needs at least one step")
    diff_xy = state.y - state.x
    pull = state.x0 - state.x
    pull /= state.A
    if state.config.plain_fista:
        v = pull
    else:
        # v = mu (y - x) + (x0 - x) / A, in that order
        v = state.config.mu * diff_xy
        v += pull
    dist0 = state.x0 - state.y
    eta = ((float(dist0.dot(dist0)) - state.tau * float(diff_xy.dot(diff_xy)))
           / (2.0 * state.A))
    return ResidualPair(v=v, eta=eta)


def sample_points(state: "IterateState", problem: CompositeProblem, count: int,
                  rng: np.random.Generator) -> tuple[Array, list]:
    """Gaussian queries around y, scaled by (1 + ||y||), mapped into dom h,
    and phi at each: `(points, phi_at)`.

    A point where h is +inf is replaced by its prox image (for an indicator
    that is exactly the projection); elsewhere the domain test's h is phi's.
    """
    scale = 1.0 + vector_norm(state.y)
    # y + scale * z, built in place: * and + commute, so the bits are the same
    points = rng.standard_normal((count, state.y.size))
    points *= scale
    points += state.y
    phi_at = []
    for x in points:
        hx = problem.h.value(x)
        if hx == math.inf:
            x[:] = problem.h.prox(x, 1.0)
            hx = problem.h.value(x)
        phi_at.append(_phi_given_h(problem, x, hx))
    return points, phi_at


def check_eps_subgradient(pair: ResidualPair, state: "IterateState",
                          phi_y: float, samples: Array,
                          values_at: list) -> float:
    """Worst violation of the eta-subgradient inequality over the samples.

    values_at[i] is phi, or a minorant of it, at sample x; the inequality
    value(x) - (mu/2)||x - y||^2 >= phi(y) + <v, x - y> - eta, with
    phi_y = phi(y), must hold.  Returns the largest amount by which it fails:
    negative when it holds everywhere, NaN when a compared value is NaN.
    A +inf value (off dom h) gives an excess of -inf, never the worst.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    mu = state.config.mu
    excess = []
    for x, value in zip(samples, values_at, strict=True):
        diff = x - state.y
        lhs = phi_y + float(pair.v.dot(diff)) - pair.eta
        rhs = value - 0.5 * mu * float(diff.dot(diff))
        excess.append(lhs - rhs)
    return float(np.max(excess, initial=-math.inf))


# the same inequality on the model's values; an alias, not a wrapper, so a
# tracer that wraps both names times each call once
lower_model_violation = check_eps_subgradient


def lower_model_gap(model_at: list, phi_at: list) -> float:
    """Largest amount by which the aggregated model exceeds phi on the samples.

    model_at[i] and phi_at[i] are the model and phi at one sample.
    Nonpositive (up to rounding) because the model is a global minorant; a
    +inf phi (off dom h) never sets it, a -inf or NaN value does.
    """
    return float(np.max([low - phi_x for low, phi_x in zip(
        model_at, phi_at, strict=True)], initial=-math.inf))
