"""Command-line front end.

Subcommands:
    solve          run the accelerated solver on a seeded instance
    predict        evaluate a closed-form iteration predictor
    verify         empirical checks: invariants | equivalence | bounds
    make-instance  write an instance recipe file

Summaries, reports, and instance files are `key = value` lines; traces are
comma-delimited with reals as 17-significant-digit decimals.  Exit codes:
0 converged / all checks pass, 1 iteration budget exhausted, 2 invalid
configuration or flags, 3 verification failure, 4 NaN in the quantity the
stopping criterion tests.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from . import bounds as _bounds
from . import classic as _classic
from . import engine as _engine
from . import harness as _harness
from .errors import ConfigError, NumericFailure
from .problems import (INSTANCE_KINDS, format_real, instance_recipe,
                       make_instance, save_instance, vector_norm)

_TOL_FLAGS = {
    "function_gap": ("eps_bar",),
    "stationarity": ("rho",),
    "relative": ("sigma_tilde",),
    "alternate_relative": ("sigma",),
    "absolute": ("eps", "eta_tol"),
}

_FLOAT_PARAMS = ("reg", "ridge", "density", "noise", "lo", "hi")


def _auto(text: str) -> Optional[float]:
    # "auto" defers to the oracle-derived default
    return None if text == "auto" else float(text)


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("instance")
    g.add_argument("--problem", choices=INSTANCE_KINDS, default="lasso")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--m", type=int, default=100)
    g.add_argument("--n", type=int, default=200)
    for key in _FLOAT_PARAMS:
        g.add_argument(f"--{key}", type=float, default=None,
                       help=f"instance parameter {key} (kind-specific default)")
    g.add_argument("--normalize", action="store_true",
                   help="rescale the design matrix to unit curvature (lasso)")
    g.add_argument("--diag", action="store_true",
                   help="diagonal quadratic with eigenvalues 1..n (box_qp)")


def _add_constant_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("solver constants")
    g.add_argument("--lf", type=_auto, default=None, metavar="auto|REAL",
                   help="upper curvature estimate; auto = 1.25 * computed bound")
    g.add_argument("--mu-f", type=_auto, default=None, metavar="auto|REAL",
                   help="strong-convexity modulus of f exploited by the solver")
    g.add_argument("--mu-h", type=_auto, default=None, metavar="auto|REAL",
                   help="strong-convexity modulus of h exploited by the solver")


def _add_criterion_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("stopping criterion")
    g.add_argument("--criterion", choices=_bounds.VARIANTS, default=None)
    g.add_argument("--eps-bar", type=float, default=None,
                   help="function-gap tolerance")
    g.add_argument("--rho", type=float, default=None,
                   help="stationarity-residual norm tolerance")
    g.add_argument("--sigma-tilde", type=float, default=None,
                   help="relative-criterion tolerance")
    g.add_argument("--sigma", type=float, default=None,
                   help="alternate relative-criterion tolerance")
    g.add_argument("--eps", type=float, default=None,
                   help="absolute tolerance on the residual norm")
    g.add_argument("--eta-tol", type=float, default=None,
                   help="absolute tolerance on the residual offset eta")


def build_problem(args, with_reference: bool = True):
    params = {}
    for key in _FLOAT_PARAMS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if getattr(args, "normalize", False):
        params["normalize"] = True
    if getattr(args, "diag", False):
        params["diag"] = True
    return make_instance(args.problem, args.seed, args.m, args.n,
                         with_reference=with_reference, **params)


def build_criterion(args) -> Optional[_bounds.Criterion]:
    all_flags = ("eps_bar", "rho", "sigma_tilde", "sigma", "eps", "eta_tol")
    provided = {f for f in all_flags if getattr(args, f, None) is not None}
    if args.criterion is None:
        if provided:
            flag = sorted(provided)[0].replace("_", "-")
            raise ConfigError(f"--{flag} needs --criterion")
        return None
    wanted = set(_TOL_FLAGS[args.criterion])
    stray = provided - wanted
    if stray:
        flag = sorted(stray)[0].replace("_", "-")
        raise ConfigError(
            f"--{flag} does not apply to criterion {args.criterion}")
    missing = wanted - provided
    if missing:
        flag = sorted(missing)[0].replace("_", "-")
        raise ConfigError(f"criterion {args.criterion} needs --{flag}")
    values = [getattr(args, name) for name in _TOL_FLAGS[args.criterion]]
    for name, value in zip(_TOL_FLAGS[args.criterion], values):
        if not math.isfinite(value):
            flag = name.replace("_", "-")
            raise ConfigError(f"--{flag} = {value:g} must be finite")
    factory = getattr(_bounds.Criterion, args.criterion)
    return factory(*values)


def default_start(problem) -> np.ndarray:
    """Zero vector mapped into dom h (identity for every shipped regularizer)."""
    return problem.h.prox(np.zeros(problem.dimension), 1.0)


def instance_meta(problem) -> list:
    if problem.spec is None:
        return [("dimension", str(problem.dimension))]
    return instance_recipe(problem, constants=False)


def constant_meta(config: _engine.SolverConfig) -> list:
    return [("lf", format_real(config.lf)), ("mu_f", format_real(config.mu_f)),
            ("mu_h", format_real(config.mu_h))]


def criterion_meta(criterion: Optional[_bounds.Criterion]) -> list:
    if criterion is None:
        return [("criterion", "none")]
    out = [("criterion", criterion.variant),
           (_TOL_FLAGS[criterion.variant][0], format_real(criterion.tol))]
    if criterion.eta_tol is not None:
        out.append(("eta_tol", format_real(criterion.eta_tol)))
    return out


def _emit(pairs) -> None:
    for key, value in pairs:
        print(f"{key} = {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    problem = build_problem(args)
    criterion = build_criterion(args)
    # without a trace file only the final row is read
    trace_every = (args.trace_every if args.trace is not None
                   else max(1, args.max_iter))
    config = _engine.SolverConfig.for_problem(
        problem, lf=args.lf, mu_f=args.mu_f, mu_h=args.mu_h,
        max_iter=args.max_iter, criterion=criterion, trace_every=trace_every,
    )
    result = _engine.run(problem, config, default_start(problem))
    # the summary's head lines, which the trace file repeats as metadata
    head = (instance_meta(problem) + constant_meta(config)
            + criterion_meta(criterion))
    if args.trace is not None:
        meta = dict(head + [("trace_every", str(config.trace_every))])
        _harness.write_trace(args.trace, result.trace, meta)

    final = result.trace[-1]
    _emit(head)
    opt = lambda v: "none" if v is None else format_real(v)
    _emit([
        ("stop_reason", result.reason),
        ("iterations", str(result.state.k)),
        ("phi", format_real(final.phi_y)),
        ("gap", opt(final.gap)),
        ("norm_u", opt(final.norm_u)),
        ("norm_v", opt(final.norm_v)),
        ("eta_residual", opt(final.eta_residual)),
    ])
    if args.trace is not None:
        print(f"trace = {args.trace}")
    if result.reason == "numeric_failure":
        return 4
    return 0 if result.reason == "converged" else 1


def cmd_predict(args) -> int:
    criterion = build_criterion(args)
    if criterion is None:
        raise ConfigError("predict needs --criterion")
    explicit = args.d0 is not None or args.lf_bar is not None
    needs_d0 = criterion.variant in ("function_gap", "stationarity", "absolute")
    if explicit:
        for name, value in (("d0", args.d0), ("lf_bar", args.lf_bar)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} = {value:g} must be finite")
        if args.d0 is not None and args.d0 < 0:
            raise ConfigError("d0 must be nonnegative")
        if args.lf is None:
            raise ConfigError("explicit prediction needs a numeric --lf")
        if criterion.variant == "stationarity" and args.lf_bar is None:
            raise ConfigError("stationarity prediction needs --lf-bar")
        lf = args.lf
        lf_bar = args.lf_bar if args.lf_bar is not None else 0.0
        mu_f = args.mu_f if args.mu_f is not None else 0.0
        mu_h = args.mu_h if args.mu_h is not None else 0.0
        d0 = args.d0
    else:
        problem = build_problem(args, with_reference=needs_d0)
        lf_bar = problem.f.curvature
        config = _engine.SolverConfig.for_problem(
            problem, lf=args.lf, mu_f=args.mu_f, mu_h=args.mu_h)
        lf, mu_f, mu_h = config.lf, config.mu_f, config.mu_h
        d0 = None
        if needs_d0:
            x0 = default_start(problem)
            d0 = vector_norm(x0 - problem.reference_optimum.x_star)
    mu = mu_f + mu_h
    report = _bounds.predicted_iterations(criterion, lf, lf_bar, mu_f, mu, d0=d0)
    _emit(criterion_meta(criterion))
    pairs = [("lf", format_real(lf))]
    if criterion.variant == "stationarity" or not explicit:
        pairs.append(("lf_bar", format_real(lf_bar)))
    pairs += [("mu_f", format_real(mu_f)), ("mu_h", format_real(mu_h)),
              ("mu", format_real(mu))]
    if needs_d0:
        pairs.append(("d0", format_real(d0)))
    pairs += [("predicted_k", str(report.predicted_k)),
              ("branch", report.branch)]
    for key in sorted(report.constants):
        pairs.append((key, format_real(report.constants[key])))
    _emit(pairs)
    return 0


def cmd_verify_invariants(args) -> int:
    if args.samples < 0:
        raise ConfigError(f"sample count {args.samples} must be nonnegative")
    problem = build_problem(args)
    config = _engine.SolverConfig.for_problem(problem, lf=args.lf,
                                              mu_f=args.mu_f, mu_h=args.mu_h)
    capture = _harness.capture_run(problem, config, default_start(problem),
                                   args.iters)
    _emit(instance_meta(problem) + constant_meta(config)
          + [("iterations", str(capture.iterations))])
    if capture.overflowed:
        print("halted = growth_overflow")
    report = _harness.invariant_report(capture, sample_count=args.samples)
    for line in report.lines():
        print(line)
    return 0 if report.overall else 3


def cmd_verify_equivalence(args) -> int:
    problem = build_problem(args, with_reference=False)
    lf = _engine.SolverConfig.for_problem(problem, lf=args.lf).lf
    mu_f = args.mu_f if args.mu_f is not None else 0.0
    mu_h = args.mu_h if args.mu_h is not None else 0.0
    deviation = _classic.equivalence_check(problem, default_start(problem), lf,
                                           args.iters, mu_f=mu_f, mu_h=mu_h)
    _emit(instance_meta(problem))
    ok = deviation <= args.tol
    _emit([("lf", format_real(lf)), ("iters", str(args.iters)),
           ("max_deviation", format_real(deviation)),
           ("tolerance", format_real(args.tol)),
           ("overall", "pass" if ok else "FAIL")])
    return 0 if ok else 3


def cmd_verify_bounds(args) -> int:
    rows = _harness.bounds_suite(args.seed_base)
    for row in rows:
        print(row.line())
    ok = all(row.passed for row in rows)
    print(f"overall = {'pass' if ok else 'FAIL'}")
    return 0 if ok else 3


def cmd_make_instance(args) -> int:
    problem = build_problem(args, with_reference=False)
    save_instance(args.out, problem)
    _emit(instance_recipe(problem))
    _emit([("out", str(args.out))])
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfista",
        description="Accelerated composite minimization with verifiable "
                    "certificates and iteration predictors.",
    )
    sub = parser.add_subparsers(dest="command")

    solve = sub.add_parser("solve", help="run the solver on a seeded instance")
    _add_instance_args(solve)
    _add_constant_args(solve)
    _add_criterion_args(solve)
    solve.add_argument("--max-iter", type=int, default=10000)
    solve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a comma-delimited trace file")
    solve.add_argument("--trace-every", type=int, default=1)
    solve.set_defaults(handler=cmd_solve)

    predict = sub.add_parser(
        "predict", help="closed-form iteration count for a criterion")
    _add_instance_args(predict)
    _add_constant_args(predict)
    _add_criterion_args(predict)
    predict.add_argument("--d0", type=float, default=None,
                         help="distance to a minimizer (switches to explicit "
                              "constants; otherwise measured on the instance)")
    predict.add_argument("--lf-bar", type=float, default=None, dest="lf_bar",
                         help="curvature bound (explicit mode)")
    predict.set_defaults(handler=cmd_predict)

    verify = sub.add_parser("verify", help="empirical verification suites")
    vsub = verify.add_subparsers(dest="verify_command")

    inv = vsub.add_parser("invariants",
                          help="per-iteration identities and bounds on a run")
    _add_instance_args(inv)
    _add_constant_args(inv)
    inv.add_argument("--iters", type=int, default=2000)
    inv.add_argument("--samples", type=int, default=200,
                     help="sample count for the minorant checks")
    inv.set_defaults(handler=cmd_verify_invariants)

    eq = vsub.add_parser("equivalence",
                         help="agreement of the two-sequence solver with the "
                              "classical momentum forms (zero moduli)")
    _add_instance_args(eq)
    _add_constant_args(eq)
    eq.add_argument("--iters", type=int, default=100)
    eq.add_argument("--tol", type=float, default=1e-9)
    eq.set_defaults(handler=cmd_verify_equivalence)

    bnd = vsub.add_parser("bounds",
                          help="observed stopping iterations against the "
                               "closed-form predictors on a seeded suite")
    bnd.add_argument("--seed-base", type=int, default=0)
    bnd.set_defaults(handler=cmd_verify_bounds)

    mk = sub.add_parser("make-instance", help="write an instance recipe file")
    _add_instance_args(mk)
    mk.add_argument("--out", required=True, metavar="PATH")
    mk.set_defaults(handler=cmd_make_instance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return handler(args)
    except (ConfigError, NumericFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
