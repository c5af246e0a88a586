"""Acceptance gate: one check per headline behavior, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
divergence-speed check measures how fast the mismatched identity
counterexample runs away, phase by phase.  While the dual is inside the box
the iteration is linear with spectral radius ``1/(1 - tau sqrt(alpha_mm))``;
once the box projection saturates every dual component, the governing map is
affine with eigenvalues {0, 1} and ``p - tau alpha_mm q`` moves by exactly
``tau alpha_mm sign(q)`` per step, so ``||x||`` drifts linearly at about
``tau alpha_mm sqrt(dim) / (1 - tau^2 alpha_mm)`` per step.  Geometric growth
past a fixed threshold such as 1e6 within 10k steps is therefore not a
property of this example and is not asserted.
"""

import math
import time

import numpy as np
import pytest

from mismatch_splitting import analysis, experiments, solvers, stepsize
from mismatch_splitting.operators import (
    MatrixOperator,
    MismatchPair,
    ScaledIdentity,
    estimate_operator_norm,
    estimate_sigma_min,
)
from mismatch_splitting.proximal import (
    prox_box_dual,
    prox_convex_shifted,
    prox_identity,
    prox_scaled_quadratic,
)

from lifted_reference import LiftedState, step_lifted_ppp
from linf2_reference import prox_linf2_ball
from proximal_reference import firm_nonexpansiveness_defect, prox_l1, soft_threshold
from operator_reference import adjoint_defect, skew_block


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_lines(capfd):
    # route the per-criterion lines past pytest's capture so they always
    # land in the terminal output
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _check(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}: {name} ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def quadratic_report():
    t0 = time.perf_counter()
    report = experiments.run_quadratic(experiments.QuadraticConfig())
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tomo_report():
    t0 = time.perf_counter()
    report = experiments.run_tomography(
        experiments.TomoConfig(with_oracle=True))
    return report, time.perf_counter() - t0


def _governing_path(stepper, state, n_steps):
    """Stack (p, q) of ``state`` and of the ``n_steps`` states after it."""
    ps, qs = [state.p], [state.q]
    for _ in range(n_steps):
        state = stepper.step(state)
        ps.append(state.p)
        qs.append(state.q)
    return state, np.array(ps), np.array(qs)


def test_counterexample_divergence_speed():
    dim, alpha_mm, tau, theta, seed, max_iters = 10, 0.01, 0.1, 1.0, 7, 10000
    t0 = time.perf_counter()
    report = experiments.run_counterexample(
        dim=dim, alpha_mm=alpha_mm, tau=tau, theta=theta, seed=seed,
        max_iters=max_iters, divergence_threshold=1e6)
    elapsed = time.perf_counter() - t0

    pair = MismatchPair(ScaledIdentity(dim, 1.0), ScaledIdentity(dim, -alpha_mm))
    problem = solvers.SaddleProblem(prox_identity(), prox_box_dual(), pair)
    stepper = solvers.PDDRStepper(problem, tau, theta, mode="mismatched")

    # saturated phase: replay the run from its start and record (p, q)
    state0 = solvers.gaussian_state(problem, seed=seed)
    final, p, q = _governing_path(stepper, state0, max_iters)
    same_run = np.linalg.norm(final.x) == report.summary["final_primal_norm"]
    unsaturated = np.flatnonzero(~np.all(np.abs(q) > 1.0, axis=1))
    k0 = int(unsaturated[-1]) + 1 if unsaturated.size else 0
    signs = np.sign(q[k0:])
    signs_fixed = bool(np.all(signs == signs[:1]))
    drift = p - tau * alpha_mm * q
    drift_err = float(np.max(np.abs(
        np.diff(drift[k0:], axis=0) - tau * alpha_mm * signs[:-1]),
        initial=0.0))

    # unsaturated phase: a tiny start keeps the dual inside the box
    tiny = solvers.SolverState(
        *(1e-8 * a for a in (state0.x, state0.y, state0.v, state0.w,
                             state0.p, state0.q)))
    _, p_in, q_in = _governing_path(stepper, tiny, 1000)
    max_q_in = float(np.max(np.abs(q_in)))
    norms = np.linalg.norm(np.hstack([p_in, q_in]), axis=1)
    rho = 1.0 / (1.0 - tau * math.sqrt(alpha_mm))
    rate_err = abs(norms[-1] / norms[-2] / rho - 1.0)

    ok = (elapsed < 5.0 and same_run and k0 < max_iters // 2 and signs_fixed
          and drift_err <= 1e-12 and max_q_in < 1.0 and rate_err <= 1e-8)
    _check(
        "counterexample diverges at the predicted speed: growth factor "
        "1/(1 - tau sqrt(alpha)) before saturation, exact drift "
        "tau alpha sign(q) per step after it, in < 5 s",
        ok,
        f"replay matches run {same_run}, saturated from k0 = {k0} with "
        f"fixed signs {signs_fixed}, drift error {drift_err:.1e}, "
        f"unsaturated max|q| {max_q_in:.1e}, growth factor error "
        f"{rate_err:.1e}, final norm {report.summary['final_primal_norm']:.3g} "
        f"after {report.summary['iterations']} iters, {elapsed:.2f} s",
    )


def test_counterexample_divergent_trend():
    # the linear drift of the saturated phase shows up in the run's summary
    report = experiments.run_counterexample(max_iters=10000)
    slope = report.summary["primal_norm_growth_slope"]
    _check("counterexample iterates drift away at a positive linear rate",
           slope > 1e-4, f"growth slope {slope:.3e} per iteration")


def test_scalar_existence_example():
    t0 = time.perf_counter()
    # G = x^2/2, F* = y^2/2 + 3y, A = 1
    profile_bad = stepsize.ConvexityProfile(1.0, 1.0, 2.0)  # V* = -1
    no_existence = not profile_bad.exists_unique
    # stationarity system x + V* y = 0, x - y = 3 is inconsistent for V* = -1
    system = np.array([[1.0, -1.0], [1.0, -1.0]])
    rhs = np.array([0.0, 3.0])
    best = np.linalg.lstsq(system, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(system @ best - rhs))
    inconsistent = residual > 1e-6

    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -0.5))
    problem = solvers.SaddleProblem(
        prox_scaled_quadratic(1.0),
        prox_scaled_quadratic(1.0, shift=np.array([3.0])), pair)
    result = solvers.run(problem, solvers.PDDRStepper(problem, 0.2, 0.5),
                         solvers.StoppingRule(5000, 1e-12))
    recovered = (abs(result.state.x[0] + 3.0) <= 1e-8
                 and abs(result.state.y[0] + 6.0) <= 1e-8)

    matched = solvers.SaddleProblem(problem.prox_g, problem.prox_fstar,
                                    pair.matched())
    res_matched = analysis.inclusion_residual(matched, [1.5], [-1.5])
    elapsed = time.perf_counter() - t0
    ok = (no_existence and inconsistent and recovered
          and res_matched <= 1e-12 and elapsed < 1.0)
    _check(
        "scalar example: inconsistency certified, fixed point (-3,-6) "
        "recovered, matched saddle point exact",
        ok,
        f"lstsq residual {residual:.4f}, solver dist "
        f"{abs(result.state.x[0] + 3.0):.2e}, matched residual "
        f"{res_matched:.2e}, {elapsed:.2f} s",
    )


def test_error_bound_sharpness():
    # G = x^2/4, F* = |y|, A = 1, V* = 1/2: the bound equals the distance
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, 0.5))
    problem = solvers.SaddleProblem(prox_scaled_quadratic(0.5), prox_l1(), pair)
    worst = 0.0
    for y_hat, dist_true in ((0.0, 0.0), (-1.0, 1.0), (1.0, 1.0)):
        bound = analysis.error_bound(problem, np.array([y_hat]))
        worst = max(worst, abs(bound - dist_true))
    _check("error bound is tight on the absolute-value example",
           worst <= 1e-12, f"max |bound - distance| = {worst:.2e}")


def test_quadratic_study(quadratic_report):
    report, elapsed = quadratic_report
    s = report.summary
    in_window = 0.15 <= s["tau"] <= 0.25
    converged = report.statuses["mismatched"] == "converged"
    term_fp = s["terminal_dist_to_fixed_point"]
    within_bound = s["terminal_dist_to_true"] <= s["error_bound"] + 1e-6
    ok = in_window and converged and term_fp <= 1e-8 and within_bound and elapsed < 60.0
    _check(
        "quadratic study: certified tau in [0.15, 0.25], linear convergence "
        "to the closed-form fixed point, terminal error within the bound",
        ok,
        f"tau {s['tau']:.4f} (mismatch {s['mismatch_norm']:.4f}), terminal "
        f"dist to fixed point {term_fp:.2e}, dist to true {s['terminal_dist_to_true']:.4f} "
        f"vs bound {s['error_bound']:.4f}, {elapsed:.1f} s",
    )


def test_quadratic_rate(quadratic_report):
    report, _ = quadratic_report
    s = report.summary
    ok = s["empirical_rate"] <= s["predicted_rate"] + 0.02
    _check("quadratic study: empirical contraction does not exceed the "
           "certified rate",
           ok,
           f"empirical {s['empirical_rate']:.5f} vs predicted "
           f"{s['predicted_rate']:.5f}")


def test_adapted_plain_agreement(quadratic_report):
    report, _ = quadratic_report
    config = experiments.QuadraticConfig()
    a, v, z = experiments._quadratic_operators(config)
    x_hat, _, _ = analysis.quadratic_reference(a, v, config.alpha, config.beta, z)
    scale = float(np.linalg.norm(x_hat))
    cols, rows_mm = report.traces["mismatched"]
    _, rows_ad = report.traces["adapted"]
    i = cols.index("dist_to_ref")
    rel = (rows_mm[-1][i] + rows_ad[-1][i]) / scale
    _check("adapted and plain mismatched solvers agree on the fixed point",
           rel <= 1e-6, f"relative difference bound {rel:.2e}")


def test_lifted_equivalence():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n, m = 12, 8
        a = rng.standard_normal((m, n)) / math.sqrt(n)
        v = a - 0.05 * rng.standard_normal((m, n))
        z = rng.standard_normal(m)
        pair = MismatchPair(MatrixOperator(a), MatrixOperator(v))
        problem = solvers.SaddleProblem(
            prox_scaled_quadratic(0.4),
            prox_scaled_quadratic(1.0, shift=z), pair)
        tau, lam = 0.2, 1.0
        for alpha in (0.0, 1.0, 3.0):
            theta = lam / (1.0 + alpha)
            stepper = solvers.PDDRStepper(problem, tau, theta)
            state = solvers.gaussian_state(problem, seed=seed)
            lifted = LiftedState(
                w_lift=(1.0 + alpha) * np.concatenate([state.p, state.q]),
                alpha=alpha, gamma=(1.0 + alpha) * tau, lam=lam)
            for _ in range(100):
                state = stepper.step(state)
                lifted = step_lifted_ppp(problem, lifted, tau)
            reduced = lifted.w_lift / (1.0 + alpha)
            gap = np.linalg.norm(
                reduced - np.concatenate([state.p, state.q]))
            worst = max(worst, float(gap))
    _check("lifted proximal-point iteration reproduces the splitting "
           "trajectories on 10 instances, alpha in {0, 1, 3}",
           worst <= 1e-10, f"max trajectory gap {worst:.2e}")


def test_matched_mode_exactness():
    rng = np.random.default_rng(21)
    n, m = 30, 20
    a = rng.standard_normal((m, n)) / math.sqrt(n)
    z = rng.standard_normal(m)
    pair = MismatchPair(MatrixOperator(a), MatrixOperator(a - 0.0))
    problem = solvers.SaddleProblem(
        prox_scaled_quadratic(0.3),
        prox_scaled_quadratic(1.0, shift=z), pair)
    s1 = solvers.gaussian_state(problem, seed=1)
    s2 = s1.copy()
    st_m = solvers.PDDRStepper(problem, 0.25, 0.6, mode="matched")
    st_mm = solvers.PDDRStepper(problem, 0.25, 0.6, mode="mismatched")
    bitwise = True
    for _ in range(50):
        s1 = st_m.step(s1)
        s2 = st_mm.step(s2)
        bitwise = bitwise and all(
            np.array_equal(getattr(s1, f), getattr(s2, f))
            for f in ("x", "y", "v", "w", "p", "q"))
    result = solvers.run(problem, st_m, solvers.StoppingRule(20000, 1e-13))
    x_star = np.linalg.solve(0.3 * np.eye(n) + a.T @ a, a.T @ z)
    gap = float(np.linalg.norm(result.state.x - x_star))
    ok = bitwise and gap <= 1e-8
    _check("matched mode is bitwise identical when V equals A and lands on "
           "the normal-equation solution",
           ok, f"bitwise {bitwise}, distance to direct solve {gap:.2e}")


def test_property_suites():
    rng = np.random.default_rng(2024)
    cases = 100
    failures = []

    worst = 0.0
    for _ in range(cases):
        m, n = rng.integers(1, 15, size=2)
        op = MatrixOperator(rng.standard_normal((m, n)))
        worst = max(worst, adjoint_defect(op, rng, n_trials=5))
    if worst > 1e-10:
        failures.append(f"adjoint defect {worst:.2e}")

    proxes = [prox_scaled_quadratic(0.7), prox_l1(), prox_box_dual(),
              prox_linf2_ball(0.8, field_shape=(3, 2)),
              prox_convex_shifted(prox_scaled_quadratic(2.0), 0.5)]
    worst = 0.0
    for _ in range(cases):
        prox = proxes[rng.integers(len(proxes))]
        a, b = rng.standard_normal((2, 6))
        worst = max(worst, firm_nonexpansiveness_defect(prox, a, b, tau=0.8))
    if worst > 1e-9:
        failures.append(f"firm nonexpansiveness defect {worst:.2e}")

    worst = 0.0
    for _ in range(cases):
        tau = float(rng.uniform(0.05, 3.0))
        x = rng.standard_normal(12) * 2.0
        recomposed = soft_threshold(x, tau) + tau * prox_box_dual()(x / tau, 1.0 / tau)
        worst = max(worst, float(np.max(np.abs(recomposed - x))))
    if worst > 1e-12:
        failures.append(f"decomposition identity defect {worst:.2e}")

    worst = 0.0
    for _ in range(cases):
        mu = float(rng.uniform(0.05, 0.45))
        alpha = mu + float(rng.uniform(0.1, 3.0))
        lam = 0.45 / mu
        base = prox_scaled_quadratic(alpha)
        shifted = prox_convex_shifted(base, mu)
        x = rng.standard_normal(5)
        denom = 1.0 - lam * mu
        worst = max(worst, float(np.max(np.abs(
            shifted(x, lam) - base(x / denom, lam / denom)))))
    if worst > 1e-12:
        failures.append(f"prox rescaling identity defect {worst:.2e}")

    worst = 0.0
    for _ in range(cases):
        a, b, c = rng.standard_normal((3, 6))
        sq = lambda u: float(u @ u)
        lhs = sq(a + b + c) - sq(a + b - c)
        rhs = sq(a + c) + sq(b + c) - sq(a - c) - sq(b - c)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    if worst > 1e-10:
        failures.append(f"parallelogram identity defect {worst:.2e}")

    bad_plans = 0
    for _ in range(cases):
        gg = float(rng.uniform(0.2, 4.0))
        gf = float(rng.uniform(0.2, 4.0))
        d = float(rng.uniform(0.0, 0.9)) * 2.0 * math.sqrt(gg * gf) * 0.999
        theta = float(rng.uniform(0.15, 0.85))
        profile = stepsize.ConvexityProfile(gg, gf, d)
        pair = MismatchPair(ScaledIdentity(1, d), ScaledIdentity(1, 0.0))
        _, mtg, _, mtf = stepsize.select_mus(profile)
        plan = stepsize.compute_plan(
            profile, theta, estimate_sigma_min(pair, mtg, mtf),
            estimate_operator_norm(MatrixOperator(skew_block(pair, mtg, mtf))))
        g = plan.delta * plan.tau
        for mu, mt in ((plan.mu_g, plan.mu_tilde_g), (plan.mu_f, plan.mu_tilde_f)):
            if (plan.alpha + g * mu) * (plan.alpha - g * mt) < plan.alpha**2 * (1 - 1e-9):
                bad_plans += 1
        if not (0 < plan.tau <= plan.tau_s and 0 < plan.rate < 1):
            bad_plans += 1
    if bad_plans:
        failures.append(f"{bad_plans} step plans violate the scalar inequalities")

    _check("property suites: adjoints, prox identities, parallelogram "
           "identity, step-plan inequalities (100 cases each)",
           not failures, "; ".join(failures) or "all clean")


def test_tomography(tomo_report, tmp_path):
    report, elapsed = tomo_report
    s = report.summary
    converged = report.statuses["mismatched"] == "converged"
    residual = s["final_residuals"]["mismatched"]
    oracle_ok = s["oracle_dist"] <= s["error_bound"] + 1e-3

    # determinism of emitted images, checked at a budget-friendly scale
    small = experiments.TomoConfig(image_size=16, num_angles=4, max_iters=300,
                                   fixed_point_tol=1e-8)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    experiments.emit_report(experiments.run_tomography(small), out1)
    experiments.emit_report(experiments.run_tomography(small), out2)
    pgms = sorted(p.name for p in out1.glob("*.pgm"))
    deterministic = bool(pgms) and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in pgms)

    ok = (converged and residual <= 1e-6 and oracle_ok and deterministic
          and elapsed < 300.0)
    _check(
        "tomography: existence certified, residual < 1e-6 within budget, "
        "terminal iterate within bound of the long-run oracle, deterministic "
        "images",
        ok,
        f"residual {residual:.2e}, oracle distance {s['oracle_dist']:.2e} vs "
        f"bound {s['error_bound']:.4f} + 1e-3, deterministic {deterministic}, "
        f"{elapsed:.0f} s",
    )
