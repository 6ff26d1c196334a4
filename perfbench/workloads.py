"""The benchmark workloads: set-up, one round of operations, checks.

Each workload builds its instances with `make_instance` at fixed instance
seeds (the README quick start and the README's `sfista verify` examples), then
applies a random sign flip drawn from the run's `--seed` to the rows and
the columns of every design matrix.  The lasso and the elastic net are
invariant under these flips: each iterate of the flipped problem is the
flipped iterate of the original one, bit for bit, because negation is exact
in floating point.  So the numbers the program sees change with the seed
while the work of a round, and every iteration count, stays fixed.

A round calls the program through module attributes (`engine.run`, not
`sfista.run`) so that the tracer's wrappers see every call.  Checks run
outside the timed region and return (name, passed) pairs.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from sfista import bounds, certificates, classic, engine, harness, problems

import checks

RHO = 1e-6


def flip_signs(problem, rng):
    """The problem with seeded sign flips on the rows and columns of A."""
    A, b = problem.spec.data["A"], problem.spec.data["b"]
    rows = rng.choice((-1.0, 1.0), size=A.shape[0])
    cols = rng.choice((-1.0, 1.0), size=A.shape[1])
    A = (rows[:, None] * A) * cols[None, :]
    b = rows * b
    f = problems.least_squares(A, b, ridge=problem.f.mu,
                               curvature=problem.f.curvature)
    ref = problem.reference_optimum
    if ref is not None:
        ref = problems.ReferenceOptimum(ref.phi_star, cols * ref.x_star)
    spec = dataclasses.replace(problem.spec, data={"A": A, "b": b})
    return dataclasses.replace(problem, f=f, reference_optimum=ref, spec=spec)


def instance_data(problem):
    """(A, b, reg, ridge) of a least-squares-plus-l1 instance."""
    spec = problem.spec
    return (spec.data["A"], spec.data["b"], spec.params["reg"],
            spec.params.get("ridge", 0.0))


def solution_checks(problem, result, rho):
    """Stop reason, subgradient distance and duality bracket of a solve."""
    A, b, reg, ridge = instance_data(problem)
    y = result.state.y
    out = [
        ("converged", result.reason == "converged"),
        ("subgradient_distance", checks.check_stationarity(A, b, reg, ridge, y, rho)),
        ("duality_bracket", checks.check_duality_bracket(
            A, b, reg, ridge, y, problem.reference_optimum.phi_star)),
    ]
    if ridge > 0.0:
        out.append(("strong_convexity_distance", checks.check_strong_convexity(
            A, b, reg, ridge, y, problem.reference_optimum.x_star)))
    return out


class Workload:
    name = ""
    # Round length on the reference machine; a run does
    # round(seconds / nominal_round_s) rounds, never fewer than MIN_ROUNDS,
    # so its work depends on --seconds only.
    nominal_round_s = 1.0
    # Timed set-ups per run; `setup_s` is their median.
    setups = 5
    # The host-speed kernel (run.host_kernel): FISTA steps on a random lasso
    # of this shape, about a tenth of a round, and about the kernel's median
    # time on the host of the README's reference figures.
    kernel_shape = (100, 200)
    kernel_steps = 4000
    kernel_ref_s = 0.100

    def make(self) -> list:
        """The instances, straight from make_instance (the timed set-up)."""
        raise NotImplementedError

    def prepare(self, made: list, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [flip_signs(p, rng) for p in made]

    def round(self, instances: list, scratch: Path):
        raise NotImplementedError

    def check_round(self, instances: list, outcome) -> list:
        raise NotImplementedError

    def check_run(self, instances: list) -> list:
        """Checks made once per run, beyond those of each round."""
        return []


class LassoTraced(Workload):
    """What `sfista solve --trace` runs on the README quick-start lasso."""

    name = "lasso_traced"
    nominal_round_s = 1.0
    # Each set-up takes about 2.5 s, mostly the 107k-step reference solve.
    setups = 3

    def make(self):
        return [problems.make_instance("lasso", seed=42, m=100, n=200, reg=0.1)]

    def round(self, instances, scratch):
        (lasso,) = instances
        config = engine.SolverConfig.for_problem(
            lasso, criterion=bounds.Criterion.stationarity(RHO))
        result = engine.run(lasso, config, np.zeros(lasso.dimension))
        path = scratch / "trace.csv"
        meta = {"kind": lasso.spec.kind, "seed": lasso.spec.seed,
                "lf": f"{config.lf:.17g}", "criterion": "stationarity",
                "rho": f"{RHO:.17g}", "trace_every": config.trace_every}
        harness.write_trace(path, result.trace, meta)
        certificates.stationarity_residual(result.state, lasso)
        certificates.residual_pair(result.state)
        return result, path

    def check_round(self, instances, outcome):
        (lasso,) = instances
        result, path = outcome
        return solution_checks(lasso, result, RHO) + [
            ("trace_file", checks.check_trace(path, result.state.k, RHO))]


class ElasticNetOracle(Workload):
    name = "elastic_net_oracle"
    nominal_round_s = 1.2
    kernel_shape = (1000, 500)
    kernel_steps = 200
    kernel_ref_s = 0.095
    max_iter = 10000

    def make(self):
        return [problems.make_instance("elastic_net", seed=42, m=1000, n=500,
                                       reg=0.1, ridge=0.1)]

    def round(self, instances, scratch):
        (problem,) = instances
        config = engine.SolverConfig.for_problem(
            problem, criterion=bounds.Criterion.stationarity(RHO),
            max_iter=self.max_iter, trace_every=self.max_iter)
        return engine.run(problem, config, np.zeros(problem.dimension))

    def check_round(self, instances, outcome):
        (problem,) = instances
        return solution_checks(problem, outcome, RHO)


class VerifySuite(Workload):
    """The README's `sfista verify` examples, at the README's sizes.

    `verify invariants` (300 captured steps on a 30x50 elastic net, 50
    samples), `verify bounds --seed-base 0` and `verify equivalence --iters
    100` on the command's default lasso, built without a reference optimum
    as the command builds it.  At 2000 captured steps on a 100x200 instance
    (19 MB of kept states) the run time moved by a quarter to a half of
    itself from run to run on a shared host.
    """

    name = "verify_suite"
    nominal_round_s = 0.45
    # Its set-up takes well under 0.1 s, so it takes more set-ups and a
    # shorter kernel.
    setups = 25
    kernel_steps = 2000
    kernel_ref_s = 0.050
    capture_steps = 300
    samples = 50
    equivalence_steps = 100
    equivalence_tol = 1e-9  # the `sfista verify equivalence` default
    bounds_rows = 50

    def make(self):
        return [problems.make_instance("elastic_net", seed=7, m=30, n=50,
                                       reg=0.05, ridge=1.0),
                problems.make_instance("lasso", seed=42, m=100, n=200,
                                       with_reference=False)]

    def round(self, instances, scratch):
        net, lasso = instances
        capture = harness.capture_run(net, engine.SolverConfig.for_problem(net),
                                      np.zeros(net.dimension), self.capture_steps)
        report = harness.invariant_report(capture, sample_count=self.samples)
        rows = harness.bounds_suite(seed_base=0)
        lf = engine.DEFAULT_CURVATURE_MARGIN * lasso.f.curvature
        deviation = classic.equivalence_check(
            lasso, np.zeros(lasso.dimension), lf, self.equivalence_steps)
        return capture.iterations, report, rows, deviation

    def check_round(self, instances, outcome):
        steps, report, rows, deviation = outcome
        out = [("capture_steps", steps == self.capture_steps),
               ("invariant_report", report.overall),
               ("bounds_rows", len(rows) == self.bounds_rows),
               ("equivalence", deviation <= self.equivalence_tol)]
        out += [(f"bounds:{row.label}:{row.variant}", row.passed) for row in rows]
        return out

    def check_run(self, instances):
        """The engine's zero-moduli y_k against the benchmark's own FISTA."""
        _, lasso = instances
        A, b, reg, _ = instance_data(lasso)
        lf = engine.DEFAULT_CURVATURE_MARGIN * lasso.f.curvature
        x0 = np.zeros(lasso.dimension)
        capture = harness.capture_run(lasso, engine.SolverConfig(lf=lf), x0,
                                      self.equivalence_steps)
        program = [state.y for state in capture.states[1:]]
        reference = checks.fista_iterates(A, b, reg, lf, x0,
                                          self.equivalence_steps)
        return [("fista_recursion", checks.check_fista(program, reference))]


WORKLOADS = {w.name: w for w in (LassoTraced(), ElasticNetOracle(), VerifySuite())}
