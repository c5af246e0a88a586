"""The in-place hot path of an iteration.  The steppers, the inner solves,
the Huber-TV prox and ``solvers.run`` round bit for bit as the plain
formulas of step_reference.py, and leave every array handed to them, or
returned by an earlier step, unchanged.  A run's residual is the PDDR
fixed-point defect."""

import functools

import numpy as np
import pytest

from mismatch_splitting.experiments import certified_plan, huber_tv_prox
from mismatch_splitting.proximal import prox_convex_shifted, prox_scaled_quadratic
from mismatch_splitting.solvers import (
    CPStepper,
    PDDRStepper,
    SaddleProblem,
    StoppingRule,
    gaussian_state,
    run,
)
from mismatch_splitting.tomo import ParallelGeometry, build_projector_pair

import step_reference
from test_solvers import quadratic_problem

PAIRS = ("tomo", "wide", "tall")
MODES = ("matched", "mismatched", "adapted")
TOMO_MODULI = (10.0, 6.0, 0.1)  # lam0, lam1, eps of TomoConfig


@functools.lru_cache(maxsize=None)
def problem_and_plan(kind):
    """A 16^2 / 4-angle tomography problem (Woodbury inner solves), or a
    dense 20 x 30 ("wide") or 30 x 20 ("tall") quadratic one, with its
    certified plan and the plain version of its dual prox."""
    if kind == "tomo":
        pair = build_projector_pair(ParallelGeometry(16, 4, 16)).mismatch_pair()
        lam0, lam1, eps = TOMO_MODULI
        sino, n_pix = 4 * 16, 16 * 16
        z = np.random.default_rng(3).standard_normal(sino)
        prox_g = prox_scaled_quadratic(2.0)
        prox_f = huber_tv_prox(lam0, lam1, eps, z, sino, n_pix)
        ref_f = step_reference.huber_tv_prox(lam0, lam1, eps, z, sino, n_pix)
        problem = SaddleProblem(prox_g, prox_f, pair)
    else:
        n, m = (30, 20) if kind == "wide" else (20, 30)
        problem = quadratic_problem(3, n=n, m=m)[0]
        ref_f = problem.prox_fstar
    plan = certified_plan(problem.pair, problem.prox_g.strong_convexity,
                          problem.prox_fstar.strong_convexity, 0.5)
    return problem, plan, ref_f


def stepper_for(kind, mode):
    problem, plan, _ = problem_and_plan(kind)
    if mode == "cp":
        step = 0.95 / np.sqrt(plan.norm_a * plan.norm_v)
        return CPStepper(problem, step, step)
    mus = (plan.mu_tilde_g, plan.mu_tilde_f) if mode == "adapted" else (0.0, 0.0)
    return PDDRStepper(problem, plan.tau, plan.theta,
                       mode="matched" if mode == "matched" else "mismatched",
                       mu_g=mus[0], mu_f=mus[1])


def reference_step(kind, stepper):
    """step_reference.pddr_step with the stepper's proxes, the tomography
    dual prox swapped for its plain version."""
    ref_f = problem_and_plan(kind)[2]
    if stepper.mu_f > 0:
        ref_f = prox_convex_shifted(ref_f, stepper.mu_f)
    return lambda z: step_reference.pddr_step(stepper, z, stepper._prox_g, ref_f)


def snapshot(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("kind", PAIRS)
@pytest.mark.parametrize("mode", MODES)
def test_steps_match_the_plain_formulas_bitwise(kind, mode):
    stepper = stepper_for(kind, mode)
    assert stepper.inner_solver.backend == ("woodbury" if kind == "tomo" else "dense")
    ref_step = reference_step(kind, stepper)
    z = z_ref = gaussian_state(stepper.problem, seed=5).z
    for _ in range(25):
        out, ref = stepper.step(z), ref_step(z_ref)
        assert snapshot(out) == snapshot(ref)
        z, z_ref = out[0], ref[0]


@pytest.mark.parametrize("kind", PAIRS)
@pytest.mark.parametrize("mode", MODES)
def test_run_trace_matches_the_plain_loop_bitwise(kind, mode):
    stepper = stepper_for(kind, mode)
    start = gaussian_state(stepper.problem, seed=6)
    x_ref = np.random.default_rng(7).standard_normal(start.x.size)
    stopping = StoppingRule(30, fixed_point_tol=1e-6)
    result = run(stepper.problem, stepper, stopping, initial_state=start, x_ref=x_ref)
    rows, last = step_reference.run_rows(stepper, reference_step(kind, stepper), start,
                                         stopping, x_ref)
    got = [(row[0], row[1], row[3]) for row in result.trace]
    assert len(got) == len(rows) > 1
    as_bytes = lambda table: np.array(table, dtype=float).tobytes()  # None -> nan
    assert as_bytes(got) == as_bytes(rows)
    assert snapshot((result.state.z, result.state.x, result.state.y)) == \
        snapshot((last.z, last.x, last.y))
    assert result.state.k == last.k


@pytest.mark.parametrize("kind", PAIRS)
@pytest.mark.parametrize("mode", MODES)
def test_residual_is_the_fixed_point_defect(kind, mode):
    """Each residual ||z_{k+1} - z_k|| / |theta| of a run equals the defect
    ||(v, w) - (x, y)|| at z_k, from one inner solve at z_k."""
    stepper = stepper_for(kind, mode)
    n = stepper.problem.primal_dim

    def defect(state):
        p, q = state.z[:n], state.z[n:]
        x, y = stepper._prox_g(p, stepper.tau), stepper._prox_f(q, stepper.tau)
        v, w = stepper.inner_solver.solve(2.0 * x - p, 2.0 * y - q)
        return np.linalg.norm(np.concatenate([v - x, w - y]))

    result = run(stepper.problem, stepper, StoppingRule(30, fixed_point_tol=1e-6),
                 initial_state=gaussian_state(stepper.problem, seed=12),
                 extra_metrics={"defect": defect})
    residuals = result.column("residual")
    assert len(residuals) == 30
    assert np.allclose(residuals, result.column("defect")[:-1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", PAIRS)
@pytest.mark.parametrize("mode", MODES + ("cp",))
def test_steps_leave_their_input_and_earlier_outputs_unchanged(kind, mode):
    stepper = stepper_for(kind, mode)
    z = gaussian_state(stepper.problem, seed=8).z
    before = z.tobytes()
    second = stepper.step(z)
    assert z.tobytes() == before
    after_first = snapshot(second)
    third = stepper.step(second[0])
    assert snapshot(second) == after_first and z.tobytes() == before
    for a in third:
        assert not any(np.shares_memory(a, b) for b in second + (z,))


@pytest.mark.parametrize("kind", PAIRS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("transpose", [False, True])
def test_inner_solves_leave_the_right_hand_side_unchanged(kind, mode, transpose):
    solver = stepper_for(kind, mode).inner_solver
    solve = solver.solve_transpose if transpose else solver.solve
    rng = np.random.default_rng(9)
    rhs = (rng.standard_normal(solver.pair.domain_dim),
           rng.standard_normal(solver.pair.codomain_dim))
    before = [r.tobytes() for r in rhs]
    first = solve(*rhs)
    assert [r.tobytes() for r in rhs] == before
    kept = [r.tobytes() for r in first]
    solve(*rhs)
    assert [r.tobytes() for r in first] == kept
    ref = step_reference.inner_solve(solver, *rhs, transpose=transpose)
    assert kept == [r.tobytes() for r in ref]
    assert not any(np.shares_memory(out, r) for out in first for r in rhs)


def test_huber_tv_prox_leaves_its_input_unchanged():
    problem = problem_and_plan("tomo")[0]
    dual = np.random.default_rng(10).standard_normal(problem.dual_dim) * 8.0
    before = dual.tobytes()
    first = problem.prox_fstar(dual, 0.3)
    assert dual.tobytes() == before and not np.shares_memory(first, dual)
    kept = first.tobytes()
    problem.prox_fstar(dual, 0.3)
    assert first.tobytes() == kept
