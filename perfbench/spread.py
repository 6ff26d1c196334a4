"""Run the benchmark once per seed and summarize the spread of each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S

Runs are sequential, one process at a time.  For each metric it prints the
median, the first and third quartiles as `statistics.quantiles(values, n=4)`
gives them, and the quartile distance as a share of the median; the same for
the host kernel's median wall time per run, which shows how far the host's
speed moved during the set; then the failed share of every run.  Runs are
untraced (`--trace 0`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
KERNEL_LINE = "kernel wall_s median ="


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary_line(name, values, unit) -> None:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else 0.0
    print(f"{name:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"], result["wall_s"] = seed, wall
        result["kernel_s"] = next(float(line.rpartition("=")[2]) for line in lines
                                  if line.startswith(KERNEL_LINE))
        results.append(result)
        print(f"seed {seed}: {wall:.1f} s wall, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, first in results[0]["metrics"].items():
        summary_line(name, [r["metrics"][name]["value"] for r in results],
                     first["unit"])
    summary_line("(host kernel wall time)", [r["kernel_s"] for r in results], "s")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
