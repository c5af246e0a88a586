import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mismatch_splitting.operators import (
    MatrixOperator,
    MismatchPair,
    ScaledIdentity,
)
from mismatch_splitting.proximal import prox_scaled_quadratic
from mismatch_splitting.solvers import (
    OBJECTIVE_EVERY,
    TRACE_COLUMNS,
    CPStepper,
    PDDRStepper,
    SaddleProblem,
    SolverState,
    StoppingRule,
    gaussian_state,
    run,
    zero_state,
)

from lifted_reference import LiftedState, step_lifted_ppp


def scalar_problem(v_scale=-0.5):
    """1-d saddle problem with G = x^2/2, F* = y^2/2 + 3y, A = 1."""
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, v_scale))
    return SaddleProblem(
        prox_scaled_quadratic(1.0),
        prox_scaled_quadratic(1.0, shift=np.array([3.0])),
        pair,
    )


def quadratic_problem(seed, n=30, m=20, alpha=0.3, beta=1.0, eta=0.1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(n)
    e = rng.standard_normal((m, n))
    e *= eta / np.linalg.svd(e, compute_uv=False)[0]
    z = rng.standard_normal(m)
    pair = MismatchPair(MatrixOperator(a), MatrixOperator(a - e))
    problem = SaddleProblem(
        prox_scaled_quadratic(alpha),
        prox_scaled_quadratic(beta, shift=z),
        pair,
    )
    return problem, a, a - e, z


def test_stationarity_all_steppers():
    # fixed point of the mismatched problem with V* = -1/2 is (-3, -6)
    problem = scalar_problem()
    x_hat, y_hat = -3.0, -6.0
    tau = 0.25

    plain = PDDRStepper(problem, tau, 0.5)
    p_hat = x_hat * (1 + tau)
    q_hat = y_hat * (1 + tau) + 3 * tau
    state = SolverState(*(np.array([s]) for s in
                          (x_hat, y_hat, x_hat, y_hat, p_hat, q_hat)))
    new = plain.step(state)
    assert abs(new.p[0] - p_hat) <= 1e-12 and abs(new.q[0] - q_hat) <= 1e-12

    mu = 0.75  # mu_g * mu_f = 0.5625 = ||A-V||^2 / 4
    adapted = PDDRStepper(problem, tau, 0.5, mu_g=mu, mu_f=mu)
    p_hat_a = x_hat * (1 + tau * (1 - mu))
    q_hat_a = y_hat * (1 + tau * (1 - mu)) + 3 * tau
    state_a = SolverState(*(np.array([s]) for s in
                            (x_hat, y_hat, x_hat, y_hat, p_hat_a, q_hat_a)))
    new_a = adapted.step(state_a)
    assert abs(new_a.p[0] - p_hat_a) <= 1e-12 and abs(new_a.q[0] - q_hat_a) <= 1e-12

    cp = CPStepper(problem, 0.3, 0.3)
    state_c = SolverState(*(np.array([s]) for s in
                            (x_hat, y_hat, x_hat, y_hat, x_hat, y_hat)))
    new_c = cp.step(state_c)
    assert abs(new_c.x[0] - x_hat) <= 1e-12 and abs(new_c.y[0] - y_hat) <= 1e-12


def test_scalar_fixed_point_recovered():
    problem = scalar_problem()
    result = run(problem, PDDRStepper(problem, 0.2, 0.5), StoppingRule(5000, 1e-12))
    assert result.status == "converged"
    assert abs(result.state.x[0] + 3.0) <= 1e-8
    assert abs(result.state.y[0] + 6.0) <= 1e-8


def test_matched_mode_is_bitwise_identical():
    problem, a, _, z = quadratic_problem(3, eta=0.0)
    # surrogate equals forward, so matched and mismatched modes must agree
    matched = PDDRStepper(problem, 0.2, 0.6, mode="matched")
    mismatched = PDDRStepper(problem, 0.2, 0.6, mode="mismatched")
    s1 = gaussian_state(problem, seed=9)
    s2 = s1.copy()
    for _ in range(50):
        s1 = matched.step(s1)
        s2 = mismatched.step(s2)
    for f in ("x", "y", "v", "w", "p", "q"):
        assert np.array_equal(getattr(s1, f), getattr(s2, f))


def test_matched_run_reaches_normal_equation_solution():
    problem, a, _, z = quadratic_problem(4, eta=0.0, alpha=0.3)
    result = run(problem, PDDRStepper(problem, 0.3, 0.8, mode="matched"),
                 StoppingRule(20000, 1e-13))
    x_star = np.linalg.solve(0.3 * np.eye(a.shape[1]) + a.T @ a, a.T @ z)
    assert result.status == "converged"
    assert np.linalg.norm(result.state.x - x_star) <= 1e-8


def test_cp_matched_converges_to_true_solution():
    problem, a, _, z = quadratic_problem(5, eta=0.0, alpha=0.3)
    norm_a = float(np.linalg.svd(a, compute_uv=False)[0])
    step = 0.9 / norm_a
    result = run(problem, CPStepper(problem, step, step), StoppingRule(20000, 1e-12))
    x_star = np.linalg.solve(0.3 * np.eye(a.shape[1]) + a.T @ a, a.T @ z)
    assert np.linalg.norm(result.state.x - x_star) <= 1e-8


def test_cp_zero_data_goes_to_origin():
    problem, a, v, z = quadratic_problem(6, eta=0.05)
    problem = SaddleProblem(
        problem.prox_g, prox_scaled_quadratic(1.0), problem.pair)
    result = run(problem, CPStepper(problem, 0.4, 0.4), StoppingRule(5000, 1e-12))
    assert np.linalg.norm(result.state.x) <= 1e-8


@pytest.mark.parametrize("alpha_lift", [0.0, 1.0, 3.0])
def test_lifted_equivalence(alpha_lift):
    problem, *_ = quadratic_problem(7)
    tau, lam = 0.2, 1.0
    theta = lam / (1.0 + alpha_lift)
    pddr = PDDRStepper(problem, tau, theta)
    state = gaussian_state(problem, seed=11)
    lifted = LiftedState(
        w_lift=(1.0 + alpha_lift) * np.concatenate([state.p, state.q]),
        alpha=alpha_lift,
        gamma=(1.0 + alpha_lift) * tau,
        lam=lam,
    )
    n = problem.primal_dim
    for _ in range(100):
        state = pddr.step(state)
        lifted = step_lifted_ppp(problem, lifted, tau)
        reduced = lifted.w_lift / (1.0 + alpha_lift)
        assert np.linalg.norm(reduced[:n] - state.p) <= 1e-10
        assert np.linalg.norm(reduced[n:] - state.q) <= 1e-10


def test_lifted_state_validation():
    with pytest.raises(ValueError):
        LiftedState(np.zeros(2), alpha=1.0, gamma=0.4, lam=2.5)
    problem, *_ = quadratic_problem(8)
    bad = LiftedState(np.zeros(50), alpha=1.0, gamma=0.3, lam=1.0)
    with pytest.raises(ValueError, match="gamma"):
        step_lifted_ppp(problem, bad, 0.2)


def test_run_zero_iterations():
    problem, *_ = quadratic_problem(9)
    init = gaussian_state(problem, seed=2)
    result = run(problem, PDDRStepper(problem, 0.2, 0.5), StoppingRule(0, 1e-9),
                 initial_state=init)
    assert result.status == "max_iters"
    assert np.array_equal(result.state.x, init.x)


def test_run_divergence_status():
    # identity map with sign-flipped surrogate adjoint grows without bound
    from mismatch_splitting.proximal import prox_box_dual, prox_identity

    pair = MismatchPair(ScaledIdentity(10, 1.0), ScaledIdentity(10, -0.01))
    problem = SaddleProblem(prox_identity(), prox_box_dual(), pair)
    result = run(problem, PDDRStepper(problem, 0.1, 1.0),
                 StoppingRule(20000, 1e-14, divergence_threshold=40.0),
                 initial_state=gaussian_state(problem, seed=7))
    assert result.status == "diverged"


class _DualNaNStepper:
    """Shrinks p each step and sets q to NaN at step 3; x stays finite."""

    residual_scale = 1.0

    def governing(self, state):
        return np.concatenate([state.p, state.q])

    def step(self, state):
        new = state.copy()
        new.k += 1
        new.p *= 0.5
        if new.k == 3:
            new.q[:] = np.nan
        return new


def test_run_non_finite_dual_is_diverged():
    problem, *_ = quadratic_problem(12)
    result = run(problem, _DualNaNStepper(), StoppingRule(50, 1e-14),
                 initial_state=gaussian_state(problem, seed=3))
    assert result.status == "diverged"
    assert result.iterations == 3
    assert np.all(np.isfinite(result.state.x))


class _BadPrimalStepper(_DualNaNStepper):
    """Shrinks p each step and writes ``bad`` into x at step 3; (p, q) stay finite."""

    def __init__(self, bad):
        self.bad = bad

    def step(self, state):
        new = state.copy()
        new.k += 1
        new.p *= 0.5
        if new.k == 3:
            new.x[-1] = self.bad
        return new


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_run_non_finite_primal_is_diverged(bad):
    problem, *_ = quadratic_problem(12)
    result = run(problem, _BadPrimalStepper(bad), StoppingRule(50, 1e-14),
                 initial_state=gaussian_state(problem, seed=3))
    assert result.status == "diverged"
    assert result.iterations == 3
    assert all(np.isfinite(row[TRACE_COLUMNS.index("residual")]) for row in result.trace[1:])


def _stride_case(status):
    """A (problem, stepper, stopping, initial state) that ends with ``status``."""
    if status == "converged":
        problem = scalar_problem()
        return problem, PDDRStepper(problem, 0.2, 0.5), StoppingRule(5000, 1e-12), None
    if status == "diverged":
        from mismatch_splitting.proximal import prox_box_dual, prox_identity

        pair = MismatchPair(ScaledIdentity(10, 1.0), ScaledIdentity(10, -0.01))
        problem = SaddleProblem(prox_identity(), prox_box_dual(), pair)
        return (problem, PDDRStepper(problem, 0.1, 1.0),
                StoppingRule(20000, 1e-14, divergence_threshold=40.0),
                gaussian_state(problem, seed=7))
    problem, *_ = quadratic_problem(9)
    init = gaussian_state(problem, seed=2)
    if status == "max_iters":
        return problem, PDDRStepper(problem, 0.2, 0.5), StoppingRule(37, 1e-16), init
    # a resumed state: its only row is final but off the stride
    init.k = 7
    return problem, PDDRStepper(problem, 0.2, 0.5), StoppingRule(0), init


@pytest.mark.parametrize("status", ["converged", "diverged", "max_iters", "zero_iters"])
def test_objective_on_stride_and_final_row(status):
    problem, stepper, stopping, init = _stride_case(status)
    calls = []

    def objective(x):
        calls.append(x.copy())
        return float(np.sum(x ** 3)) + 0.1

    x_ref = np.ones(problem.primal_dim)
    result = run(problem, stepper, stopping, initial_state=init, x_ref=x_ref,
                 objective=objective, extra_metrics={"q_norm": lambda s: np.linalg.norm(s.q)})
    assert result.status == ("max_iters" if status == "zero_iters" else status)
    col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    last = len(result.trace) - 1
    expected = [i for i, row in enumerate(result.trace)
                if row[col["iter"]] % OBJECTIVE_EVERY == 0 or i == last]
    filled = [i for i, row in enumerate(result.trace) if row[col["objective"]] is not None]
    assert filled == expected
    assert len(calls) == len(expected)
    assert result.trace[-1][col["iter"]] % OBJECTIVE_EVERY != 0
    assert result.trace[-1][col["objective"]] == objective(result.state.x)
    for i, row in enumerate(result.trace):
        assert row[col["dist_to_ref"]] is not None and row[col["wall_time_ms"]] is not None
        assert (row[col["residual"]] is not None) == (i > 0)
    assert len(result.extras["q_norm"]) == len(result.trace)


def test_stepper_validation():
    problem, *_ = quadratic_problem(11)
    with pytest.raises(ValueError):
        PDDRStepper(problem, -0.1, 0.5)
    with pytest.raises(ValueError):
        PDDRStepper(problem, 0.2, 2.5, mode="matched")
    with pytest.raises(ValueError):
        PDDRStepper(problem, 0.2, 0.0)
    with pytest.raises(ValueError):
        PDDRStepper(problem, 0.2, 0.5, mode="bogus")
    with pytest.raises(ValueError, match="tau"):
        PDDRStepper(problem, 5.0, 0.5, mu_g=0.25, mu_f=0.25)
    with pytest.raises(ValueError):
        StoppingRule(-1)


def test_adapted_warns_when_decomposition_broken():
    problem = scalar_problem()  # ||A-V|| = 1.5, need mu_g mu_f >= 0.5625
    with pytest.warns(UserWarning, match="monotone"):
        PDDRStepper(problem, 0.2, 0.5, mu_g=0.1, mu_f=0.1)


@given(st.integers(0, 100_000))
@settings(max_examples=1000)
def test_parallelogram_identity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, 6))
    sq = lambda u: float(u @ u)
    lhs = sq(a + b + c) - sq(a + b - c)
    rhs = sq(a + c) + sq(b + c) - sq(a - c) - sq(b - c)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_contraction_under_certificate():
    from mismatch_splitting import stepsize
    from mismatch_splitting.operators import MatrixOperator, estimate_operator_norm, estimate_sigma_min
    from operator_reference import skew_block

    problem, a, v, z = quadratic_problem(12, alpha=0.3, eta=0.1)
    profile = stepsize.ConvexityProfile(0.3, 1.0, problem.pair.mismatch_norm)
    _, mtg, _, mtf = stepsize.select_mus(profile)
    plan = stepsize.compute_plan(
        profile, 0.5, estimate_sigma_min(problem.pair, mtg, mtf),
        estimate_operator_norm(MatrixOperator(skew_block(problem.pair, mtg, mtf))))
    stepper = PDDRStepper(problem, plan.tau, plan.theta)
    init = gaussian_state(problem, seed=3)
    ref = run(problem, stepper, StoppingRule(50000, 1e-13), initial_state=init)
    assert ref.status == "converged"
    hat = np.concatenate([ref.state.p, ref.state.q])
    second = run(problem, stepper, StoppingRule(2000, 1e-13), initial_state=init,
                 extra_metrics={"gov": lambda s: np.linalg.norm(np.concatenate([s.p, s.q]) - hat)})
    dists = second.extras["gov"]
    for prev, cur in zip(dists[1:], dists[2:]):
        if prev <= 1e-8:  # below here the reference point error dominates
            break
        assert cur <= prev * (1.0 + 1e-10)
