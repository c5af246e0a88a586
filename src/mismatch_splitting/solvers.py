"""The four iterations: matched / mismatched primal-dual Douglas-Rachford,
the adapted variant with shifted proxes, and a Chambolle-Pock baseline with
the surrogate adjoint.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .proximal import ProxFn, prox_convex_shifted
from .operators import InnerSystemSolver, MismatchPair


@dataclass
class SaddleProblem:
    """min_x max_y G(x) + <Ax, y> - F*(y) with a surrogate adjoint V*."""

    prox_g: ProxFn
    prox_fstar: ProxFn
    pair: MismatchPair

    @property
    def primal_dim(self):
        return self.pair.domain_dim

    @property
    def dual_dim(self):
        return self.pair.codomain_dim


@dataclass
class SolverState:
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    w: np.ndarray
    p: np.ndarray
    q: np.ndarray
    k: int = 0

    def copy(self):
        return SolverState(*(a.copy() for a in (self.x, self.y, self.v, self.w, self.p, self.q)), self.k)


@dataclass
class StoppingRule:
    max_iters: int
    fixed_point_tol: float = 1e-9
    divergence_threshold: float = 1e12

    def __post_init__(self):
        if self.max_iters < 0 or self.fixed_point_tol <= 0 or self.divergence_threshold <= 0:
            raise ValueError("stopping rule fields must be positive")


def zero_state(problem):
    n, m = problem.primal_dim, problem.dual_dim
    z = lambda d: np.zeros(d)
    return SolverState(z(n), z(m), z(n), z(m), z(n), z(m))


def gaussian_state(problem, seed=42):
    rng = np.random.default_rng(seed)
    n, m = problem.primal_dim, problem.dual_dim
    x = rng.standard_normal(n)
    y = rng.standard_normal(m)
    p = rng.standard_normal(n)
    q = rng.standard_normal(m)
    return SolverState(x, y, x.copy(), y.copy(), p, q)


class PDDRStepper:
    """One iteration of (adapted) primal-dual Douglas-Rachford.

    mode 'matched' substitutes the true adjoint A^T for V*; 'mismatched'
    runs verbatim with the surrogate.  Nonzero mu_g/mu_f produce the adapted
    iteration with shifted proxes and the mu-augmented inner system.
    """

    def __init__(self, problem, tau, theta, mode="mismatched", mu_g=0.0, mu_f=0.0):
        if tau <= 0:
            raise ValueError("tau must be positive")
        if mode == "matched":
            if not (0.0 < theta < 2.0):
                raise ValueError("matched mode requires theta in (0, 2)")
            pair = problem.pair.matched()
        elif mode == "mismatched":
            if theta == 0.0:
                raise ValueError("theta must be nonzero")
            pair = problem.pair
        else:
            raise ValueError(f"unknown mode {mode!r}")

        if mu_g < 0 or mu_f < 0:
            raise ValueError("mu shifts must be nonnegative")
        if mu_g > 0 or mu_f > 0:
            if tau >= min(1.0 / mu_g if mu_g > 0 else np.inf,
                          1.0 / mu_f if mu_f > 0 else np.inf):
                raise ValueError("adapted mode requires tau < min(1/mu_g, 1/mu_f)")
            gg = problem.prox_g.strong_convexity
            gf = problem.prox_fstar.strong_convexity
            if mu_g > gg or mu_f > gf:
                raise ValueError("mu shifts must not exceed the strong convexity moduli")
            if mu_g * mu_f < 0.25 * problem.pair.mismatch_norm ** 2:
                warnings.warn(
                    "mu_g * mu_f < ||A-V||^2 / 4: the monotone decomposition is broken",
                    stacklevel=2,
                )

        self.problem = problem
        self.tau = float(tau)
        self.theta = float(theta)
        self.mode = mode
        self.mu_g = float(mu_g)
        self.mu_f = float(mu_f)
        self._prox_g = problem.prox_g if mu_g == 0.0 else prox_convex_shifted(problem.prox_g, mu_g)
        self._prox_f = problem.prox_fstar if mu_f == 0.0 else prox_convex_shifted(problem.prox_fstar, mu_f)
        self.inner_solver = InnerSystemSolver(pair, tau, mu_g, mu_f)

    @property
    def residual_scale(self):
        return abs(self.theta)

    def governing(self, state):
        return np.concatenate([state.p, state.q])

    def step(self, state):
        tau, theta = self.tau, self.theta
        x = self._prox_g(state.p, tau)
        y = self._prox_f(state.q, tau)
        v, w = self.inner_solver.solve(2.0 * x - state.p, 2.0 * y - state.q)
        p = state.p + theta * (v - x)
        q = state.q + theta * (w - y)
        return SolverState(x, y, v, w, p, q, state.k + 1)


class CPStepper:
    """Chambolle-Pock / PDHG with the surrogate adjoint substituted for A^T."""

    def __init__(self, problem, tau_p, sigma_d):
        if tau_p <= 0 or sigma_d <= 0:
            raise ValueError("step sizes must be positive")
        self.problem = problem
        self.tau_p = float(tau_p)
        self.sigma_d = float(sigma_d)

    residual_scale = 1.0

    def governing(self, state):
        return np.concatenate([state.x, state.y])

    def step(self, state):
        prob = self.problem
        x_new = prob.prox_g(state.x - self.tau_p * prob.pair.surrogate.apply_adjoint(state.y), self.tau_p)
        x_bar = x_new + (x_new - state.x)
        y_new = prob.prox_fstar(state.y + self.sigma_d * prob.pair.forward.apply(x_bar), self.sigma_d)
        return SolverState(x_new, y_new, x_new, y_new, x_new, y_new, state.k + 1)


# One row per iteration.  ``objective`` is filled on every OBJECTIVE_EVERY-th
# iteration and on the final row only; the other columns cost one norm each
# and are read row by row (rates, slopes, per-iteration timings).
TRACE_COLUMNS = ("iter", "dist_to_ref", "objective", "residual", "wall_time_ms")
OBJECTIVE_EVERY = 10


@dataclass
class RunResult:
    status: str  # converged | diverged | max_iters
    state: SolverState
    trace: list = field(default_factory=list)  # rows of TRACE_COLUMNS
    extras: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return self.state.k

    def _column(self, name):
        i = TRACE_COLUMNS.index(name)
        return [row[i] for row in self.trace if row[i] is not None]

    @property
    def residuals(self):
        return self._column("residual")

    @property
    def distances(self):
        return self._column("dist_to_ref")


def run(problem, stepper, stopping, initial_state=None, x_ref=None,
        objective: Optional[Callable[[np.ndarray], float]] = None,
        extra_metrics=None):
    """Iterate ``stepper`` until the fixed-point residual drops below
    tolerance, the run diverges (a non-finite or too large primal iterate,
    or a non-finite residual, which catches non-finite governing or dual
    iterates), or max_iters is reached.

    The residual is ||(p,q)^{k+1} - (p,q)^k|| / theta for PDDR-type steppers,
    which equals the fixed-point defect ||(v,w) - (x,y)||.  Each iteration
    appends one row of TRACE_COLUMNS to ``result.trace``; experiments.emit_report
    writes the rows out as CSV.  ``objective`` is evaluated at the primal
    iterate on rows with ``k % OBJECTIVE_EVERY == 0`` and on the final row,
    whatever the status, and is None elsewhere: no caller reads it per row.
    The distance, residual, stamp and extras are on every row.
    """
    state = initial_state.copy() if initial_state is not None else zero_state(problem)
    result = RunResult(status="max_iters", state=state)
    if extra_metrics:
        result.extras = {name: [] for name in extra_metrics}
    t0 = time.perf_counter()

    def record(state, residual, final):
        dist = float(np.linalg.norm(state.x - x_ref)) if x_ref is not None else None
        obj = None
        if objective is not None and (final or state.k % OBJECTIVE_EVERY == 0):
            obj = float(objective(state.x))
        ms = (time.perf_counter() - t0) * 1e3
        row = (state.k, dist, obj, residual, ms)
        result.trace.append(row)
        if extra_metrics:
            for name, fn in extra_metrics.items():
                result.extras[name].append(float(fn(state)))

    record(state, None, stopping.max_iters == 0)
    prev = stepper.governing(state)
    for i in range(stopping.max_iters):
        state = stepper.step(state)
        result.state = state
        governing = stepper.governing(state)
        residual = float(np.linalg.norm(governing - prev)) / stepper.residual_scale
        prev = governing
        # `not <=` also catches a NaN or infinite x, whose norm is NaN or inf
        if not math.isfinite(residual) or not (np.linalg.norm(state.x) <= stopping.divergence_threshold):
            result.status = "diverged"
        elif residual <= stopping.fixed_point_tol:
            result.status = "converged"
        done = result.status != "max_iters"
        record(state, residual, done or i == stopping.max_iters - 1)
        if done:
            break
    return result
