"""Command-line front end.

Subcommands:
    solve          run the accelerated solver on a seeded instance
    predict        evaluate a closed-form iteration predictor
    verify         empirical checks: invariants | equivalence | bounds
    make-instance  write an instance recipe file

Summaries, reports, and instance files are `key = value` lines; traces are
comma-delimited with reals as 17-significant-digit decimals.  Exit codes:
0 converged / all checks pass, 1 iteration budget exhausted, 2 invalid
configuration or flags, or an output path that cannot be written (checked
before the reference solve and the run), 3 verification failure, 4 a NaN or
infinite phi(y_k) in any row the run builds (row 0, each traced row and the
final row), whatever the criterion, or a NaN or infinite quantity the
criterion tests, or a non-finite entry of the final y_k, at any
--trace-every; without a criterion, also of any y_k.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from itertools import islice
from typing import Optional

import numpy as np

from . import bounds as _bounds
from . import classic as _classic
from . import engine as _engine
from . import harness as _harness
from .errors import ConfigError, NumericFailure
from .problems import (INSTANCE_KINDS, INSTANCE_PARAMS, attach_reference,
                       format_real, instance_recipe, make_instance,
                       save_instance)


def _auto(text: str) -> Optional[float]:
    # "auto" defers to the oracle-derived default
    return None if text == "auto" else float(text)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _instance_params() -> dict:
    """parameter -> {kind: default}; reals before switches, for flag order."""
    out: dict = {}
    for switches in (False, True):
        for kind, defaults in INSTANCE_PARAMS.items():
            for key, default in defaults.items():
                if isinstance(default, bool) == switches:
                    out.setdefault(key, {})[kind] = default
    return out


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("instance")
    g.add_argument("--problem", choices=INSTANCE_KINDS, default="lasso")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--m", type=int, default=100)
    g.add_argument("--n", type=int, default=200)
    for key, defaults in _instance_params().items():
        if isinstance(next(iter(defaults.values())), bool):
            g.add_argument(_flag(key), action="store_true",
                           help=f"{', '.join(defaults)} switch, off by default")
        else:
            shown = ", ".join(f"{kind} {default:g}"
                              for kind, default in defaults.items())
            g.add_argument(_flag(key), type=float, default=None,
                           help=f"default {shown}")


# solver constant -> help of its auto|REAL flag
_CONSTANTS = {
    "lf": "upper curvature estimate; auto = 1.25 * computed bound",
    "mu_f": "strong-convexity modulus of f exploited by the solver",
    "mu_h": "strong-convexity modulus of h exploited by the solver",
}


def _add_constant_args(p: argparse.ArgumentParser,
                       names=tuple(_CONSTANTS)) -> None:
    g = p.add_argument_group("solver constants")
    for name in names:
        g.add_argument(_flag(name), type=_auto, default=None,
                       metavar="auto|REAL", help=_CONSTANTS[name])


def _add_criterion_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("stopping criterion")
    g.add_argument("--criterion", choices=_bounds.VARIANTS, default=None)
    for variant, names in _bounds.TOLERANCES.items():
        for name in names:
            g.add_argument(_flag(name), type=float, default=None,
                           help=f"tolerance of criterion {variant}")


def build_problem(args, **settings):
    """(problem, config, x0) as `engine.init` passes them, with no reference."""
    params = {}
    for key in _instance_params():
        value = getattr(args, key, None)
        # `is`, not `in (None, False)`: 0.0 == False, and --noise 0 is a value
        if value is not None and value is not False:
            params[key] = value
    problem = make_instance(args.problem, args.seed, args.m, args.n,
                            with_reference=False, **params)
    constants = {name: getattr(args, name, None) for name in _CONSTANTS}
    config = _engine.SolverConfig.for_problem(problem, **constants, **settings)
    return problem, config, _engine.init(problem, config,
                                         default_start(problem)).x0


def build_criterion(args) -> Optional[_bounds.Criterion]:
    provided = {name for names in _bounds.TOLERANCES.values()
                for name in names if getattr(args, name, None) is not None}
    if args.criterion is None:
        if provided:
            raise ConfigError(f"{_flag(sorted(provided)[0])} needs --criterion")
        return None
    wanted = _bounds.TOLERANCES[args.criterion]
    stray = provided - set(wanted)
    if stray:
        raise ConfigError(f"{_flag(sorted(stray)[0])} does not apply to "
                          f"criterion {args.criterion}")
    missing = set(wanted) - provided
    if missing:
        raise ConfigError(
            f"criterion {args.criterion} needs {_flag(sorted(missing)[0])}")
    values = [getattr(args, name) for name in wanted]
    for name, value in zip(wanted, values):
        if not math.isfinite(value):
            raise ConfigError(f"{_flag(name)} = {value:g} must be finite")
    factory = getattr(_bounds.Criterion, args.criterion)
    return factory(*values)


def default_start(problem) -> np.ndarray:
    """The prox of the zero vector, a start inside dom h."""
    return problem.h.prox(np.zeros(problem.dimension), 1.0)


def constant_meta(config: _engine.SolverConfig) -> list:
    return [("lf", format_real(config.lf)), ("mu_f", format_real(config.mu_f)),
            ("mu_h", format_real(config.mu_h))]


def criterion_meta(criterion: Optional[_bounds.Criterion]) -> list:
    if criterion is None:
        return [("criterion", "none")]
    names = _bounds.TOLERANCES[criterion.variant]
    values = (criterion.tol, criterion.eta_tol)
    return [("criterion", criterion.variant)] + [
        (name, format_real(value)) for name, value in zip(names, values)]


def _emit(pairs) -> None:
    for key, value in pairs:
        print(f"{key} = {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    criterion = build_criterion(args)
    problem, config, x0 = build_problem(args, max_iter=args.max_iter,
                                        trace_every=args.trace_every)
    # after every flag check, so a rejected solve creates no file, and
    # before the reference solve and the run; "a" keeps an old trace
    if args.trace is not None:
        open(args.trace, "a").close()
    # without a trace file only the final row is read; the criterion joins
    # after the gate, as init rejects function_gap without a reference
    trace_every = (args.trace_every if args.trace is not None
                   else max(1, args.max_iter))
    config = dataclasses.replace(config, criterion=criterion,
                                 trace_every=trace_every)
    problem = attach_reference(problem)
    result = _engine.run(problem, config, x0)
    # the summary's head lines, which the trace file repeats as metadata
    head = (instance_recipe(problem, constants=False) + constant_meta(config)
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
    needs_d0 = criterion.variant in _bounds.D0_VARIANTS
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
        # the checks solve makes before its first step, on the same start
        problem, config, x0 = build_problem(args)
        lf_bar = problem.f.curvature
        lf, mu_f, mu_h = config.lf, config.mu_f, config.mu_h
        d0 = None
        if needs_d0:
            # what the predictor rejects at d0 = 0 it rejects at every d0,
            # so that test goes before the reference solve that measures d0
            _bounds.predicted_iterations(criterion, lf, lf_bar, mu_f,
                                         mu_f + mu_h, d0=0.0)
            d0 = attach_reference(problem).reference_optimum.distance(x0)
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
    if args.iters < 0:
        raise ConfigError(f"step count {args.iters} must be nonnegative")
    problem, config, x0 = build_problem(args)
    problem = attach_reference(problem)
    report = _harness.invariant_sweep(problem, config, islice(
        _engine.iterate(problem, config, x0), args.iters + 1), args.samples)
    _emit(instance_recipe(problem, constants=False) + constant_meta(config)
          + [("iterations", str(report.iterations))])
    if report.iterations < args.iters:
        print("halted = growth_overflow")
    for line in report.lines():
        print(line)
    return 0 if report.overall else 3


def cmd_verify_equivalence(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ConfigError(f"--tol = {args.tol:g} must be finite and nonnegative")
    problem, config, x0 = build_problem(args)
    deviation = _classic.equivalence_check(problem, x0, config.lf, args.iters)
    _emit(instance_recipe(problem, constants=False))
    ok = deviation <= args.tol
    _emit([("lf", format_real(config.lf)), ("iters", str(args.iters)),
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
    problem, _, _ = build_problem(args)
    save_instance(args.out, problem)
    _emit(instance_recipe(problem) + [("out", str(args.out))])
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
    # the classical forms have no strong convexity: mu_f = mu_h = 0
    _add_constant_args(eq, ("lf",))
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
    except (ConfigError, NumericFailure, ValueError, OSError) as exc:
        # a broken stdout pipe names no file and is not a flag error
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
