"""Shared fixtures: seeded instances and recorded solver runs.

The expensive pieces (reference solves, long captures) are session scoped so
the acceptance checks and the unit tests interrogate the same runs.
"""

import dataclasses
import math
from itertools import islice

import numpy as np
import pytest

from sfista import certificates, cli, engine, harness, problems


@pytest.fixture(scope="session")
def lasso42():
    return problems.make_instance("lasso", 42, 100, 200, reg=0.1)


@pytest.fixture(scope="session")
def lasso42_capture(lasso42):
    config = engine.SolverConfig.for_problem(lasso42)
    x0 = np.zeros(lasso42.dimension)
    return harness.capture_run(lasso42, config, x0, 2000)


@pytest.fixture(scope="session")
def lasso42_models(lasso42, lasso42_capture):
    """The lower models Gamma_k of lasso42_capture at k in 1, 5, 10, 50, 100."""
    folded = certificates.lower_models(lasso42_capture.states, lasso42)
    return {k: model for k, model in islice(folded, 100)
            if k in (1, 5, 10, 50, 100)}


@pytest.fixture(scope="session")
def elastic_mu1():
    # ridge 1.0 makes f 1-strongly convex, so the solver runs with mu = 1
    return problems.make_instance("elastic_net", 7, 30, 50, reg=0.05, ridge=1.0)


@pytest.fixture(scope="session")
def elastic_capture(elastic_mu1):
    config = engine.SolverConfig.for_problem(elastic_mu1)
    x0 = np.zeros(elastic_mu1.dimension)
    return harness.capture_run(elastic_mu1, config, x0, 800)


@pytest.fixture(scope="session")
def lasso_small():
    return problems.make_instance("lasso", 3, 30, 50)


@pytest.fixture(scope="session")
def lasso_norm():
    # unit-curvature design, so lf = 1.25 * (1 + 1e-9)
    return problems.make_instance("lasso", 11, 40, 60, normalize=True,
                                  with_reference=False)


@pytest.fixture(scope="session")
def elastic_net_20x30():
    """The 20x30 elastic net the fault fixtures break, with its optimum."""
    return problems.make_instance("elastic_net", 1, 20, 30)


@pytest.fixture
def cli_serves(monkeypatch):
    """Make the CLI set up the given problem, reference optimum as it is.

    The seam is the instance itself: `build_problem` still forms the config
    and runs `engine.init` on it.
    """
    def serve(problem):
        monkeypatch.setattr(cli, "make_instance", lambda *args, **kw: problem)
        monkeypatch.setattr(cli, "attach_reference", lambda given: given)
    return serve


@pytest.fixture(scope="session")
def nan_gradient_net():
    """A 20x30 elastic net whose f.grad returns NaN everywhere."""
    problem = problems.make_instance("elastic_net", 1, 20, 30,
                                     with_reference=False)
    f = dataclasses.replace(problem.f,
                            grad=lambda x: np.full_like(x, math.nan))
    return dataclasses.replace(problem, f=f)


@pytest.fixture(scope="session")
def nan_value_net():
    """The same 20x30 elastic net with an f.value that returns NaN."""
    problem = problems.make_instance("elastic_net", 1, 20, 30,
                                     with_reference=False)
    f = dataclasses.replace(problem.f, value=lambda x: math.nan)
    return dataclasses.replace(problem, f=f)


@pytest.fixture(scope="session")
def nan_at_origin_net(elastic_net_20x30):
    """elastic_net_20x30 with an f.value that is NaN at the origin only."""
    value = elastic_net_20x30.f.value
    f = dataclasses.replace(elastic_net_20x30.f,
                            value=lambda x: value(x) if x.any() else math.nan)
    return dataclasses.replace(elastic_net_20x30, f=f)


@pytest.fixture(scope="session")
def nan_off_origin_net(elastic_net_20x30):
    """elastic_net_20x30 with an f.value that is NaN but at the origin."""
    value = elastic_net_20x30.f.value
    f = dataclasses.replace(elastic_net_20x30.f,
                            value=lambda x: math.nan if x.any() else value(x))
    return dataclasses.replace(elastic_net_20x30, f=f)


@pytest.fixture(scope="session")
def quad1d():
    """f(x) = x^2 / 2, h = 0, minimizer 0; curvature bound exactly 1."""
    f = problems.quadratic(np.array([[1.0]]), np.zeros(1), mu=1.0, curvature=1.0)
    return problems.CompositeProblem(
        f=f, h=problems.zero_function(), dimension=1,
        reference_optimum=problems.ReferenceOptimum(0.0, np.zeros(1)),
    )
