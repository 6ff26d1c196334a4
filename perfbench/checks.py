"""Independent checks of the solver's answers.

Every check recomputes what it needs with numpy from the instance data
(design `A`, response `b`, l1 weight `reg`, ridge weight `ridge`) and the
answer under test.  Nothing here imports the solver, so a fault in the
program cannot hide itself in the check.

The instances are least squares plus an l1 term,

    phi(x) = 0.5 ||A x - b||^2 + (ridge / 2) ||x||^2 + reg ||x||_1,

which covers the lasso (ridge = 0) and the elastic net (ridge > 0).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)
# Objective values are sums of a few hundred rounded terms; 1e-12 relative
# is about 4500 units in the last place, far below any gap a wrong answer
# leaves and far above the rounding of a right one.
OBJECTIVE_SLACK = 1e-12
# Relative tolerance of the textbook FISTA comparison.
FISTA_TOL = 1e-9


def objective(A, b, reg, ridge, x) -> float:
    r = A @ x - b
    return 0.5 * float(r @ r) + 0.5 * ridge * float(x @ x) + reg * float(np.abs(x).sum())


def gradient(A, b, ridge, x):
    return A.T @ (A @ x - b) + ridge * x


def soft_threshold(z, level):
    return np.sign(z) * np.maximum(np.abs(z) - level, 0.0)


def subgradient_distance(A, b, reg, ridge, y) -> float:
    """Norm of the minimum-norm element of grad f(y) + reg * d||.||_1(y).

    Where y_j != 0 the subdifferential is the point reg * sign(y_j); where
    y_j = 0 it is the interval [-reg, reg], whose closest point to -g_j
    leaves the soft-thresholded residual.
    """
    g = gradient(A, b, ridge, y)
    elem = np.where(y != 0.0, g + reg * np.sign(y), soft_threshold(g, reg))
    return float(np.linalg.norm(elem))


def gradient_rounding(A, b, ridge, y) -> float:
    """Rounding slack for `subgradient_distance`.

    64 units of rounding times a bound on the magnitudes summed while forming
    A^T (A y - b) + ridge y.
    """
    norm_a = float(np.linalg.norm(A))
    return 64.0 * EPS * (norm_a * (norm_a * float(np.linalg.norm(y))
                                   + float(np.linalg.norm(b)))
                         + ridge * float(np.linalg.norm(y)))


def dual_lower_bound(A, b, reg, ridge, x) -> float:
    """D(theta) at the rescaled residual of x: a lower bound on min phi.

    The elastic net is the lasso on the data stacked as [A; sqrt(ridge) I]
    and [b; 0], whose dual is max b~^T theta - ||theta||^2 / 2 subject to
    ||A~^T theta||_inf <= reg.  The residual b~ - A~ x is scaled into that
    set (Fercoq, Gramfort & Salmon, 2015), so D(theta) <= phi(x*) by weak
    duality whatever x is.
    """
    r = b - A @ x
    r_ridge = -math.sqrt(ridge) * x
    corr = float(np.abs(A.T @ r - ridge * x).max())
    scale = 1.0 if corr <= reg else reg / corr
    theta, theta_ridge = scale * r, scale * r_ridge
    return float(b @ theta) - 0.5 * (float(theta @ theta)
                                     + float(theta_ridge @ theta_ridge))


def check_stationarity(A, b, reg, ridge, y, rho) -> bool:
    """dist(0, d phi(y)) <= rho, up to the rounding of the gradient."""
    return subgradient_distance(A, b, reg, ridge, y) \
        <= rho + gradient_rounding(A, b, ridge, y)


def check_duality_bracket(A, b, reg, ridge, y, phi_star) -> bool:
    """D(theta(y)) <= phi_star <= phi(y), up to the objective's rounding."""
    phi_y = objective(A, b, reg, ridge, y)
    slack = OBJECTIVE_SLACK * (1.0 + abs(phi_y))
    lower = dual_lower_bound(A, b, reg, ridge, y)
    return lower - slack <= phi_star <= phi_y + slack


def check_strong_convexity(A, b, reg, ridge, y, x_star) -> bool:
    """||y - x*|| <= dist(0, d phi(y)) / ridge.

    phi is ridge-strongly convex, so its subgradients grow at least ridge
    times the distance to the minimizer.
    """
    if ridge <= 0.0:
        raise ValueError("the distance bound needs a positive ridge")
    dist = subgradient_distance(A, b, reg, ridge, y)
    slack = gradient_rounding(A, b, ridge, y) / ridge \
        + OBJECTIVE_SLACK * (1.0 + float(np.linalg.norm(x_star)))
    return float(np.linalg.norm(y - x_star)) <= dist / ridge + slack


def read_trace(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a trace file; `#` lines are metadata."""
    body = [line for line in Path(path).read_text().splitlines()
            if line and not line.startswith("#")]
    if not body:
        return [], []
    return body[0].split(","), [line.split(",") for line in body[1:]]


def check_trace(path, iterations: int, rho: float) -> bool:
    """One full row per iteration 0..K and a final norm_u <= rho."""
    header, rows = read_trace(path)
    if "k" not in header or "norm_u" not in header:
        return False
    if any(len(row) != len(header) for row in rows):
        return False
    k_col, u_col = header.index("k"), header.index("norm_u")
    if [int(row[k_col]) for row in rows] != list(range(iterations + 1)):
        return False
    return rows[-1][u_col] != "" and float(rows[-1][u_col]) <= rho


def fista_iterates(A, b, reg, lf, x0, steps: int) -> list:
    """Proximal points x_1..x_steps of FISTA (Beck & Teboulle, 2009).

    x_k = prox(z_k - grad f(z_k) / lf), t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2,
    z_{k+1} = x_k + (t_k - 1) / t_{k+1} (x_k - x_{k-1}), with z_1 = x_0 and
    t_1 = 1.
    """
    x_prev = np.array(x0, dtype=float)
    z = x_prev.copy()
    t = 1.0
    out = []
    for _ in range(steps):
        x = soft_threshold(z - gradient(A, b, 0.0, z) / lf, reg / lf)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x + ((t - 1.0) / t_next) * (x - x_prev)
        x_prev, t = x, t_next
        out.append(x)
    return out


def check_fista(program_ys, reference_ys, tol: float = FISTA_TOL) -> bool:
    """The program's y_1..y_K match the FISTA proximal points to `tol`."""
    if len(program_ys) != len(reference_ys):
        return False
    for y, x in zip(program_ys, reference_ys):
        if np.linalg.norm(y - x) > tol * max(1.0, float(np.linalg.norm(x))):
            return False
    return True
