"""Benchmark of the sfista library: three workloads, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.

--trace 0 sets the workload up once, runs one untimed accounting round with
counting wrappers and tracemalloc (`iterations`, `grad_evals`, `peak_mb`),
then times whole rounds with no wrappers, with more set-ups spread among
them.  --trace 1 runs the accounting round and the untraced rounds the same
way, then repeats set-up plus one round TRACE_REPS times with spans on every
layer; it reports the per-layer medians and the tracing overhead, traced
`run_s` minus untraced `run_s`, and checks that every traced round counts
the accounting round's steps and gradients.  Every output is checked in
both modes.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.

The host is shared, and its speed for the same work drifts by up to a half
over minutes, longer than a run.  So every timed set-up and round sits
between two runs of a fixed host-speed kernel, the benchmark's own FISTA on
a fixed random lasso of the workload's size, and is measured as its ratio
to the mean of the two.  `setup_s` and `run_s` are the median ratios times
the kernel's time on the host the reference figures come from: seconds at
that host's speed.  The wall times are printed too (see README.md).
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import gc
import json
import math
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
TRACE_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


class Tally:
    """Operations attempted and failed: solves and checks of their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, results):
        for name, passed in results:
            self.attempted += 1
            if not passed:
                self.failed += 1
                print(f"check failed: {name}", file=sys.stderr)


def rounds_for(workload, seconds: int) -> int:
    return max(MIN_ROUNDS, round(seconds / workload.nominal_round_s))


def host_kernel(shape, steps):
    """A fixed amount of FISTA work on a fixed random lasso of `shape`.

    Plain numpy, no call into the program: its time tracks the host's speed
    for the mix of small array operations and interpreter work the
    workloads do.
    """
    rng = np.random.default_rng(0)
    A = rng.standard_normal(shape) / math.sqrt(shape[0])
    b = rng.standard_normal(shape[0])
    reg = 0.1 * float(np.abs(A.T @ b).max())
    lf = float(np.linalg.norm(A, 2)) ** 2

    def kernel():
        x_prev = np.zeros(shape[1])
        z, t = x_prev, 1.0
        for _ in range(steps):
            v = z - (A.T @ (A @ z - b)) / lf
            x = np.sign(v) * np.maximum(np.abs(v) - reg / lf, 0.0)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z = x + ((t - 1.0) / t_next) * (x - x_prev)
            x_prev, t = x, t_next
        return x_prev

    return kernel


def timed(fn):
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class Paired:
    """Wall times, each between two host-kernel runs, and their ratios to them.

    `measure(fn)` times fn, then the kernel; the ratio is fn's time over the
    mean of the kernel runs before and after it.  `seconds` turns a list of
    ratios into seconds at the reference host's speed.
    """

    def __init__(self, workload):
        self.kernel = host_kernel(workload.kernel_shape, workload.kernel_steps)
        self.kernel_ref_s = workload.kernel_ref_s
        self.last = timed(self.kernel)[1]
        self.kernel_times = [self.last]

    def measure(self, fn):
        out, wall = timed(fn)
        after = timed(self.kernel)[1]
        self.kernel_times.append(after)
        ratio = wall / (0.5 * (self.last + after))
        self.last = after
        return out, wall, ratio

    def seconds(self, ratios) -> float:
        return self.kernel_ref_s * statistics.median(ratios)


def timed_rounds(workload, instances, rounds, scratch, tally, paired,
                 setups=0) -> tuple[list, list]:
    """(wall, ratio) of each round, and of `setups` set-ups spread among them."""
    due = collections.Counter(i * rounds // setups for i in range(setups))
    times, setup_times = [], []
    for i in range(rounds):
        for _ in range(due[i]):
            setup_times.append(paired.measure(workload.make)[1:])
        outcome, wall, ratio = paired.measure(
            lambda: workload.round(instances, scratch))
        times.append((wall, ratio))
        tally.add(workload.check_round(instances, outcome))
        del outcome
    return times, setup_times


def accounting_round(workload, instances, scratch, tally) -> dict:
    """One round with call counters and tracemalloc, kept out of `run_s`."""
    from tracer import Tracer

    tracer = Tracer(keep_spans=False)
    with tracer.installed():
        wrapped = [tracer.wrap_problem(p) for p in instances]
        gc.collect()
        tracemalloc.start()
        try:
            outcome = workload.round(wrapped, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tally.add(workload.check_round(instances, outcome))
    return {"iterations": tracer.counts["engine.step"],
            "grad_evals": tracer.counts["problems.f_grad"],
            "peak_mb": peak / 2**20}


def _calls(name):
    return lambda tracer, busy: tracer.counts[name]


def _total(name):
    return lambda tracer, busy: busy.get(name, (0.0, 0.0))[0]


def _self(name):
    return lambda tracer, busy: busy.get(name, (0.0, 0.0))[1]


def _grads_per_step(tracer, busy):
    steps = tracer.counts["engine.step"]
    return tracer.counts["problems.f_grad"] / steps if steps else 0.0


# Per-layer metrics of one traced set-up plus round: (name, unit, reader).
PER_LAYER = (
    ("problems.f_grad.calls", "count", _calls("problems.f_grad")),
    ("problems.f_grad.s", "s", _total("problems.f_grad")),
    ("problems.f_value.calls", "count", _calls("problems.f_value")),
    ("problems.f_value.s", "s", _total("problems.f_value")),
    ("problems.h_prox.calls", "count", _calls("problems.h_prox")),
    ("problems.h_prox.s", "s", _total("problems.h_prox")),
    ("problems.h_value.calls", "count", _calls("problems.h_value")),
    ("problems.h_value.s", "s", _total("problems.h_value")),
    ("problems.make_instance.s", "s", _total("problems.make_instance")),
    ("problems.power_iteration.s", "s", _total("problems.power_iteration")),
    ("problems.reference_solve.s", "s", _total("problems.reference_solve")),
    ("problems.reference_solve.grad_calls", "count",
     _calls("problems.f_grad@reference_solve")),
    ("engine.step.calls", "count", _calls("engine.step")),
    ("engine.step.self_s", "s", _self("engine.step")),
    ("engine.run.self_s", "s", _self("engine.run")),
    ("engine.grads_per_step", "grad/step", _grads_per_step),
    ("certificates.stationarity_residual.calls", "count",
     _calls("certificates.stationarity_residual")),
    ("certificates.stationarity_residual.self_s", "s",
     _self("certificates.stationarity_residual")),
    ("certificates.residual_pair.calls", "count",
     _calls("certificates.residual_pair")),
    ("certificates.residual_pair.s", "s", _total("certificates.residual_pair")),
    ("certificates.lower_model_update.calls", "count",
     _calls("certificates.lower_model_update")),
    ("certificates.lower_model_update.s", "s",
     _total("certificates.lower_model_update")),
    ("certificates.sampled_checks.s", "s", _total("certificates.sampled_checks")),
    ("bounds.check.calls", "count", _calls("bounds.check")),
    ("bounds.check.s", "s", _total("bounds.check")),
    ("bounds.predicted_iterations.calls", "count",
     _calls("bounds.predicted_iterations")),
    ("bounds.predicted_iterations.s", "s", _total("bounds.predicted_iterations")),
    ("harness.write_trace.s", "s", _total("harness.write_trace")),
    ("harness.trace_bytes", "B", lambda tracer, busy: tracer.trace_bytes),
    ("harness.capture_run.self_s", "s", _self("harness.capture_run")),
    ("harness.invariant_report.self_s", "s", _self("harness.invariant_report")),
    ("harness.bounds_suite.self_s", "s", _self("harness.bounds_suite")),
    ("classic.equivalence_check.self_s", "s", _self("classic.equivalence_check")),
)
OVERHEAD = "tracing.overhead_s"


def traced_reps(workload, seed, scratch, tally, counted,
                paired) -> tuple[dict, list]:
    """Set-up plus one round, TRACE_REPS times, with spans on every layer.

    Returns the per-layer medians and each traced round's ratio to the host
    kernel.  Each traced round must take the accounting round's steps and
    gradients.
    """
    from tracer import Tracer

    reps, ratios = [], []
    for _ in range(TRACE_REPS):
        tracer = Tracer(keep_spans=True)
        with tracer.installed():
            made = paired.measure(workload.make)[0]
            instances = [tracer.wrap_problem(p)
                         for p in workload.prepare(made, seed)]
            outcome, _, ratio = paired.measure(
                lambda: workload.round(instances, scratch))
            ratios.append(ratio)
        tally.add(workload.check_round(instances, outcome))
        tally.add([
            ("traced_iterations",
             tracer.counts["engine.step"] == counted["iterations"]),
            ("traced_grad_evals",
             tracer.counts["problems.f_grad"] == counted["grad_evals"])])
        busy = tracer.busy()
        reps.append({name: read(tracer, busy) for name, _, read in PER_LAYER})
    tracer.write_spans(OUT / f"spans-{workload.name}.csv")
    return {name: statistics.median(rep[name] for rep in reps)
            for name, _, _ in PER_LAYER}, ratios


def measure(workload, args, scratch, tally) -> list:
    """(name, value, unit) triples for the requested mode."""
    rounds = rounds_for(workload, args.seconds)
    paired = Paired(workload)
    made, *first_setup = paired.measure(workload.make)
    instances = workload.prepare(made, args.seed)
    counted = accounting_round(workload, instances, scratch, tally)
    setups = workload.setups - 1 if args.trace == 0 else 0
    run_times, setup_times = timed_rounds(workload, instances, rounds, scratch,
                                          tally, paired, setups)
    setup_times.insert(0, tuple(first_setup))
    tally.add(workload.check_run(instances))
    for label, pairs in (("setup", setup_times), ("round", run_times)):
        print(f"{label} wall_s =", " ".join(f"{w:.4f}" for w, _ in pairs))
        print(f"{label} ratio =", " ".join(f"{r:.3f}" for _, r in pairs))
    print(f"kernel wall_s median = {statistics.median(paired.kernel_times):.4f}")
    run_s = paired.seconds([r for _, r in run_times])
    if args.trace == 0:
        return [("setup_s", paired.seconds([r for _, r in setup_times]), "s"),
                ("run_s", run_s, "s"),
                ("iterations", counted["iterations"], "count"),
                ("grad_evals", counted["grad_evals"], "count"),
                ("peak_mb", counted["peak_mb"], "MB")]
    layers, traced = traced_reps(workload, args.seed, scratch, tally, counted,
                                 paired)
    overhead = paired.seconds(traced) - run_s
    return ([(name, layers[name], unit) for name, unit, _ in PER_LAYER]
            + [(OVERHEAD, overhead, "s")])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sfista" / "__init__.py").is_file():
        print(f"error: no sfista sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        metrics = measure(workload, args, Path(scratch), tally)
    for name, value, unit in metrics:
        print(f"{name} = {value} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }
    line = json.dumps(result)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
