"""Acceptance gate: one check per guaranteed property, one line per check.

Each test prints `acceptance NN <name> = pass|FAIL` on the real stdout so the
gate is visible in plain pytest output, then asserts.
"""

import math
import time

import numpy as np

from sfista import bounds, certificates, engine, harness, problems


def _report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"acceptance {num:02d} {name} = {'pass' if ok else 'FAIL'}",
              flush=True)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_acceptance_01_sublinear_rate(capsys, lasso42, lasso42_capture,
                                      lasso42_rows):
    cap = lasso42_capture
    lf, mu_f = cap.config.lf, cap.config.mu_f
    d0 = cap.d0()
    gaps = [row.gap for row in lasso42_rows]
    slack = 1e-9 * (1.0 + abs(lasso42.reference_optimum.phi_star))
    worst = max(gaps[k] - 2.0 * (lf - mu_f) * d0**2 / k**2
                for k in range(1, 2001))
    started = time.perf_counter()
    config = engine.SolverConfig.for_problem(lasso42, max_iter=2000,
                                             trace_every=2000)
    engine.run(lasso42, config, np.zeros(lasso42.dimension))
    elapsed = time.perf_counter() - started
    ok = worst <= slack and elapsed < 10.0
    _report(capsys, 1, "sublinear_rate", ok)
    assert worst <= slack, f"worst excess {worst:.3e} > slack {slack:.3e}"
    assert elapsed < 10.0, f"2000 iterations took {elapsed:.1f} s"


def test_acceptance_02_geometric_rate(capsys, elastic_mu1, elastic_capture,
                                      elastic_rows):
    cap = elastic_capture
    lf, mu_f, mu = cap.config.lf, cap.config.mu_f, cap.config.mu
    assert mu == 1.0
    d0 = cap.d0()
    gaps = np.array([row.gap for row in elastic_rows])
    slack = 1e-9 * (1.0 + abs(elastic_mu1.reference_optimum.phi_star))
    c = bounds.growth_factor(lf, mu_f, mu)
    below = np.nonzero(gaps[1:] < 1e-12)[0]
    reached = below.size > 0
    k_stop = int(below[0]) + 1 if reached else cap.iterations
    worst = max(float(gaps[k])
                - 0.5 * (lf - mu_f) * d0**2 * c ** (2.0 * (1.0 - k))
                for k in range(1, k_stop + 1))
    ok = reached and worst <= slack
    _report(capsys, 2, "geometric_rate", ok)
    assert reached, "gap never fell below 1e-12"
    assert worst <= slack, f"worst excess {worst:.3e} > slack {slack:.3e}"


def test_acceptance_03_coefficient_growth(capsys):
    worst = -math.inf
    plain = engine.coefficient_schedule(2.0, 0.0, 0.0, 10000)
    assert not plain.overflowed
    strong = engine.coefficient_schedule(2.0, 1.0, 0.0, 10000)
    for schedule, mu_f in ((plain, 0.0), (strong, 1.0)):
        for k in range(1, schedule.A.size):
            lower = bounds.coefficient_sum_lower(k, 2.0, mu_f, mu_f)
            worst = max(worst, (lower - schedule.A[k]) / lower)
    ok = strong.overflowed and worst <= 1e-10
    _report(capsys, 3, "coefficient_sum_lower_bound", ok)
    assert strong.overflowed, "geometric schedule should hit the growth limit"
    assert worst <= 1e-10, f"worst relative shortfall {worst:.3e}"


def _identity_worst(capture):
    lam = capture.config.lam
    mu = capture.config.mu
    worst = -math.inf
    for k in range(1, capture.iterations + 1):
        prev = capture.states[k - 1]
        st = capture.states[k]
        ident = (prev.tau / st.a_prev) * (st.A / st.a_prev)
        worst = max(worst, abs(ident - 1.0 / lam) * lam)
        worst = max(worst, abs(st.tau - (1.0 + mu * st.A)) / max(1.0, st.tau))
    return worst


def test_acceptance_04_step_identities(capsys, lasso42_capture,
                                       elastic_capture):
    captures = [lasso42_capture, elastic_capture]
    box = problems.make_instance("box_qp", 7, 30, 30, diag=True)
    captures.append(harness.capture_run(
        box, engine.SolverConfig.for_problem(box), np.zeros(box.dimension), 400))
    logistic = problems.make_instance("logistic_l2", 0, 40, 25)
    captures.append(harness.capture_run(
        logistic, engine.SolverConfig.for_problem(logistic),
        np.zeros(logistic.dimension), 300))
    worst = max(_identity_worst(cap) for cap in captures)
    ok = worst <= 1e-10
    _report(capsys, 4, "per_iteration_identities", ok)
    assert worst <= 1e-10, f"worst relative identity error {worst:.3e}"


def test_acceptance_05_certificate_identity(capsys, lasso42_capture,
                                            elastic_capture, lasso42_rows,
                                            elastic_rows):
    worst = -math.inf
    for cap in (lasso42_capture, elastic_capture):
        for k in (1, 10, 100, 1000):
            if k > cap.iterations or cap.states[k].tau > harness.CERT_TAU_LIMIT:
                continue
            st = cap.states[k]
            pair = certificates.residual_pair(st)
            shifted = st.A * pair.v + st.y - st.x0
            lhs = float(shifted @ shifted) / st.tau + 2.0 * st.A * pair.eta
            rhs = float((st.y - st.x0) @ (st.y - st.x0))
            worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    eta_floor = min(row.eta_residual
                    for rows in (lasso42_rows, elastic_rows)
                    for row in rows[1:])
    ok = worst <= 1e-8 and eta_floor >= -1e-12
    _report(capsys, 5, "certificate_identity", ok)
    assert worst <= 1e-8, f"worst relative identity error {worst:.3e}"
    assert eta_floor >= -1e-12, f"eta dropped to {eta_floor:.3e}"


def test_acceptance_06_eps_subgradient(capsys, lasso42, lasso42_capture,
                                       lasso42_rows, lasso42_models):
    rng = _rng(606)
    worst_eps = worst_minor = -math.inf
    for k in (1, 10, 100):
        st = lasso42_capture.states[k]
        pair = certificates.residual_pair(st)
        phi_y = lasso42_rows[k].phi_y
        tol = 1e-8 * (1.0 + abs(phi_y))
        samples, phi_at = certificates.sample_points(st, lasso42, 1000, rng)
        worst_eps = max(worst_eps, certificates.check_eps_subgradient(
            pair, st, phi_y, samples, phi_at) - tol)
        worst_minor = max(worst_minor, certificates.lower_model_gap(
            [lasso42_models[k](x) for x in samples], phi_at) - tol)
    ok = worst_eps <= 0.0 and worst_minor <= 0.0
    _report(capsys, 6, "eps_subgradient_inclusion", ok)
    assert worst_eps <= 0.0, f"inequality violated by {worst_eps:.3e} over tol"
    assert worst_minor <= 0.0, f"minorant exceeded phi by {worst_minor:.3e}"


def _min_norm_worst(capture, rows):
    lf = capture.config.lf
    lf_bar = capture.problem.f.curvature
    d0 = capture.d0()
    running, best, worst = 0.0, math.inf, -math.inf
    for k in range(1, capture.iterations + 1):
        running += capture.states[k].A
        best = min(best, rows[k].norm_u ** 2)
        rhs = 8.0 * lf**2 * d0**2 / ((lf - lf_bar) * running)
        worst = max(worst, best - rhs * (1.0 + 1e-9))
    return worst


def test_acceptance_07_min_norm_bound(capsys, lasso42_capture, lasso42_rows,
                                      run_rows):
    other = problems.make_instance("lasso", 7, 100, 200, reg=0.1)
    other_capture = harness.capture_run(
        other, engine.SolverConfig.for_problem(other),
        np.zeros(other.dimension), 2000)
    worst = max(_min_norm_worst(lasso42_capture, lasso42_rows),
                _min_norm_worst(other_capture, run_rows(other_capture)))
    ok = worst <= 0.0
    _report(capsys, 7, "stationarity_min_norm_bound", ok)
    assert worst <= 0.0, f"bound exceeded by {worst:.3e}"


def test_acceptance_08_predictor_validity(capsys):
    rows = harness.bounds_suite(0)
    failed = [row.line() for row in rows if not row.passed]
    ok = len(rows) == 50 and not failed
    _report(capsys, 8, "predictor_validity", ok)
    assert len(rows) == 50
    assert not failed, "\n".join(failed)


def test_acceptance_09_classical_equivalence(capsys, lasso_norm):
    from sfista import classic
    lf = 1.25 * lasso_norm.f.curvature
    deviation = classic.equivalence_check(
        lasso_norm, np.zeros(lasso_norm.dimension), lf, 100)
    t = 1.0
    alpha = 1.0
    worst_quad = worst_recip = -math.inf
    for _ in range(100):
        t2 = classic.t_next(t)
        # the quadratic's terms grow like t^2, so the residual contract is
        # relative to that scale
        worst_quad = max(worst_quad,
                         abs(t2 * t2 - t2 - t * t) / max(1.0, t2 * t2))
        t = t2
        alpha = classic.alpha_next(alpha)
        worst_recip = max(worst_recip, abs(alpha * t - 1.0))
    ok = deviation <= 1e-9 and worst_quad <= 1e-12 and worst_recip <= 1e-12
    _report(capsys, 9, "classical_equivalence", ok)
    assert deviation <= 1e-9, f"iterate deviation {deviation:.3e}"
    assert worst_quad <= 1e-12, f"t-recursion residual {worst_quad:.3e}"
    assert worst_recip <= 1e-12, f"alpha * t drifted by {worst_recip:.3e}"


def test_acceptance_10_prox_grid_oracles(capsys):
    rng = _rng(1010)
    grid_1d = np.arange(-2.0, 2.0 + 1e-5, 1e-5)
    worst_soft = -math.inf
    for _ in range(100):
        x = float(rng.uniform(-1, 1))
        weight = float(rng.uniform(0, 1))
        step = float(rng.uniform(0.1, 1))
        objective = weight * np.abs(grid_1d) + (grid_1d - x) ** 2 / (2 * step)
        best = grid_1d[int(np.argmin(objective))]
        got = problems.prox_soft_threshold(np.array([x]), weight, step)[0]
        worst_soft = max(worst_soft, abs(got - best))

    grid_axis = np.arange(-1.0, 1.0 + 1e-5, 1e-5)
    worst_box = -math.inf
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        got = problems.prox_box(x, -1.0, 1.0)
        # the squared distance separates per axis, so the 2-D grid argmin is
        # the pair of per-axis argmins
        for i in range(2):
            best = grid_axis[int(np.argmin((grid_axis - x[i]) ** 2))]
            worst_box = max(worst_box, abs(got[i] - best))

    ok = worst_soft <= 1e-4 and worst_box <= 1e-4
    _report(capsys, 10, "prox_grid_oracles", ok)
    assert worst_soft <= 1e-4, f"soft threshold off by {worst_soft:.3e}"
    assert worst_box <= 1e-4, f"box projection off by {worst_box:.3e}"
