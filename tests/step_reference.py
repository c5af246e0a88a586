"""One PDDR iteration written as plain formulas, each term its own fresh
array: the step, the Woodbury and dense inner solves, the Huber-TV prox and
the run loop's norms.  The tests hold the library's in-place versions
against these bit for bit."""

import math

import numpy as np
import scipy.linalg

from mismatch_splitting.proximal import ProxFn
from mismatch_splitting.solvers import SolverState


def huber_tv_prox(lam0, lam1, eps, z, sino_size, n_pixels):
    """The stacked tomography dual prox: a shifted quadratic on the data
    part, a rescale and the pixelwise l_{inf,2} projection on the gradient
    part."""
    z = np.asarray(z, dtype=float)

    def evaluate(dual, tau):
        data = (dual[:sino_size] - tau * z) / (1.0 + tau / lam0)
        f0, f1 = dual[sino_size:].reshape(2, n_pixels) / (1.0 + tau * eps)
        norms = np.sqrt(f0 * f0 + f1 * f1)
        scale = np.where(norms > lam1, lam1 / np.maximum(norms, 1e-300), 1.0)
        return np.concatenate([data, f0 * scale, f1 * scale])

    return ProxFn(evaluate, strong_convexity=min(1.0 / lam0, eps))


def inner_solve(solver, rhs_x, rhs_y, transpose=False):
    """``solver.solve`` (``solve_transpose`` with ``transpose``) on the
    solver's own factors, sides, base solve and D products."""
    trans = int(transpose)
    left, right = solver._sides[trans]
    a, b, grad = solver.a, solver.b, solver._grad
    tau = -solver.tau if transpose else solver.tau
    if solver._swap:
        rhs_x, rhs_y, a, b, tau = rhs_y, rhs_x, b, a, -tau
    k = left.shape[0]
    rhs_r, rhs_d = rhs_y[:k], rhs_y[k:]
    if grad is None:
        rhs = left @ rhs_x / a + rhs_r / tau
    else:
        u = b * rhs_x - tau * grad.apply_adjoint(rhs_d)
        rhs = left @ solver._base_solve(u) + rhs_r / tau
    t = scipy.linalg.lapack.dgetrs(*solver._lu, rhs, trans)[0]
    w = t / (tau * b)
    if grad is None:
        v = (rhs_x - right @ t / b) / a
        return (w, v) if solver._swap else (v, w)
    v = solver._base_solve(u - right @ t)
    return v, np.concatenate([w, (rhs_d + tau * grad.apply(v)) / b])


def pddr_step(stepper, z, prox_g, prox_f):
    """``stepper.step`` with the given (shifted) proxes."""
    tau, theta, n = stepper.tau, stepper.theta, stepper.problem.primal_dim
    p, q = z[:n], z[n:]
    x = prox_g(p, tau)
    y = prox_f(q, tau)
    v, w = inner_solve(stepper.inner_solver, 2.0 * x - p, 2.0 * y - q)
    return np.concatenate([p + theta * (v - x), q + theta * (w - y)]), x, y


def run_rows(stepper, step, state, stopping, x_ref):
    """The (iter, dist_to_ref, residual) rows of ``solvers.run`` without an
    objective, and the last state, with ``np.linalg.norm`` for every norm."""
    rows = [(state.k, float(np.linalg.norm(state.x - x_ref)), None)]
    for _ in range(stopping.max_iters):
        z, x, y = step(state.z)
        residual = float(np.linalg.norm(z - state.z)) / stepper.residual_scale
        state = SolverState(z, x, y, state.k + 1)
        rows.append((state.k, float(np.linalg.norm(x - x_ref)), residual))
        if (not math.isfinite(residual)
                or not np.linalg.norm(x) <= stopping.divergence_threshold
                or residual <= stopping.fixed_point_tol):
            break
    return rows, state
