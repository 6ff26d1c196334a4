"""Every CLI command ends with an exit code of the README's table.

Argument lists are drawn over `solve`, `predict`, `make-instance` and
`verify invariants`: each instance kind, m and n from 1 to 8, and each real
flag the command takes (instance parameters, solver constants, criterion
tolerances, `--d0`, `--lf-bar`) left out or drawn from 0, +-1, 1e+-12,
1e+-300, NaN and +-inf.  Each list runs in-process through `cli.main` with
every warning an error, so an overflow warning fails the test as an escaped
exception does.  Step counts are drawn small, and the reference solve's
step cap is lowered to 20000: an instance without a minimizer (separable
logistic data at ridge 0), or one whose optimum is too large for the
reference's absolute tolerance (a noise of 1e12), would otherwise take its
10^6 steps, about 10 s, to reach its exit 2.
"""

import contextlib
import io
import re
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sfista import bounds, cli, problems

README = Path(__file__).resolve().parents[1] / "README.md"
# the codes of the README's exit-code table
EXIT_CODES = {int(code) for code in re.findall(
    r"^\| (\d+) \|",
    README.read_text().split("## Exit codes")[1].split("\n## ")[0],
    re.MULTILINE)}
REALS = ("0", "1", "-1", "1e12", "-1e12", "1e-12", "-1e-12", "1e300",
         "-1e300", "1e-300", "-1e-300", "nan", "inf", "-inf")


@st.composite
def arguments(draw):
    """One argument list; each real as `--flag=value`, so a leading minus
    reads as part of the value."""
    command = draw(st.sampled_from(
        ["solve", "predict", "make-instance", "verify invariants"]))
    kind = draw(st.sampled_from(problems.INSTANCE_KINDS))
    argv = command.split() + [
        "--problem", kind, "--seed", str(draw(st.integers(0, 3))),
        "--m", str(draw(st.integers(1, 8))),
        "--n", str(draw(st.integers(1, 8)))]
    real = st.sampled_from(REALS)

    def maybe(names, odds=2):
        for name in names:
            if draw(st.integers(0, odds - 1)) == 0:
                argv.append(f"--{name.replace('_', '-')}={draw(real)}")

    for key, default in problems.INSTANCE_PARAMS[kind].items():
        if not isinstance(default, bool):
            maybe([key])
        elif draw(st.booleans()):
            argv.append(f"--{key}")
    if command != "make-instance":
        maybe(["lf", "mu_f", "mu_h"], odds=4)
    if command == "predict" or (command == "solve" and draw(st.booleans())):
        variant = draw(st.sampled_from(bounds.VARIANTS))
        argv.append(f"--criterion={variant}")
        maybe(bounds.TOLERANCES[variant], odds=1)
    if command == "predict":
        maybe(["d0", "lf_bar"], odds=3)
    steps = st.sampled_from(["0", "1", "2", "30"])
    if command == "solve":
        argv.append(f"--max-iter={draw(steps)}")
    if command == "verify invariants":
        argv += [f"--iters={draw(steps)}",
                 f"--samples={draw(st.sampled_from(['0', '3']))}"]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=arguments())
# data that overflow phi where the CLI starts: these warned of an overflow
# in vector_norm's dot, and a solve then exited 2 naming a residual of inf
@example(argv=["solve", "--problem", "lasso", "--m", "4", "--n", "6",
               "--noise=1e300"])
@example(argv=["verify", "invariants", "--problem", "box_qp", "--m", "4",
               "--n", "3", "--lo=1e300", "--hi=1e300", "--iters=1",
               "--samples=3"])
def test_every_command_ends_with_a_listed_exit_code(tmp_path_factory, argv):
    if argv[0] == "make-instance":
        argv = argv + ["--out", str(tmp_path_factory.mktemp("fuzz") / "i.txt")]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), \
            mock.patch.object(problems, "REFERENCE_MAX_ITER", 20000):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own rejection
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
