"""The four iterations: matched / mismatched primal-dual Douglas-Rachford,
the adapted variant with shifted proxes, and a Chambolle-Pock baseline with
the surrogate adjoint.
"""

from __future__ import annotations

import math
import numbers
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
    """After ``k`` steps: the governing vector ``z`` and the last readout ``(x, y)``."""

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    k: int = 0


@dataclass
class StoppingRule:
    max_iters: int
    fixed_point_tol: float = 1e-9
    divergence_threshold: float = 1e12

    def __post_init__(self):
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        for name in ("fixed_point_tol", "divergence_threshold"):
            if not getattr(self, name) > 0:  # also refuses NaN; +inf stays allowed
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


def zero_state(problem):
    n, m = problem.primal_dim, problem.dual_dim
    return SolverState(np.zeros(n + m), np.zeros(n), np.zeros(m))


def gaussian_state(problem, seed=42):
    """Standard normal x, y and z = (p, q), drawn in the order x, y, p, q."""
    rng = np.random.default_rng(seed)
    n, m = problem.primal_dim, problem.dual_dim
    x, y, z = (rng.standard_normal(d) for d in (n, m, n + m))
    return SolverState(z, x, y)


class PDDRStepper:
    """One iteration of (adapted) primal-dual Douglas-Rachford.

    mode 'matched' substitutes the true adjoint A^T for V*; 'mismatched'
    runs verbatim with the surrogate.  Nonzero mu_g/mu_f produce the adapted
    iteration with shifted proxes and the mu-augmented inner system.
    """

    def __init__(self, problem, tau, theta, mode="mismatched", mu_g=0.0, mu_f=0.0):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be positive and finite, got {tau!r}")
        for name, value in (("theta", theta), ("mu_g", mu_g), ("mu_f", mu_f)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        self.residual_scale = abs(self.theta)
        self._prox_g = problem.prox_g if mu_g == 0.0 else prox_convex_shifted(problem.prox_g, mu_g)
        self._prox_f = problem.prox_fstar if mu_f == 0.0 else prox_convex_shifted(problem.prox_fstar, mu_f)
        self.inner_solver = InnerSystemSolver(pair, tau, mu_g, mu_f)

    def step(self, z):
        """The governing map z = (p, q) -> (z_next, x, y), z unmodified:
        z_next = z + theta ((v, w) - (x, y)), (v, w) the inner solve."""
        n, tau = self.problem.primal_dim, self.tau
        p, q = z[:n], z[n:]
        x = self._prox_g(p, tau)
        y = self._prox_f(q, tau)
        v, w = self.inner_solver.solve(2.0 * x - p, 2.0 * y - q)
        # rounds as p + theta (v - x) and q + theta (w - y)
        z_next = np.empty_like(z)
        np.subtract(v, x, out=z_next[:n])
        np.subtract(w, y, out=z_next[n:])
        z_next *= self.theta
        z_next += z
        return z_next, x, y


class CPStepper:
    """Chambolle-Pock / PDHG with the surrogate adjoint substituted for A^T."""

    def __init__(self, problem, tau_p, sigma_d):
        for name, value in (("tau_p", tau_p), ("sigma_d", sigma_d)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.problem = problem
        self.tau_p = float(tau_p)
        self.sigma_d = float(sigma_d)

    residual_scale = 1.0

    def step(self, z):
        """z = (x, y) -> (z_next, x_next, y_next), z unmodified."""
        prob, n = self.problem, self.problem.primal_dim
        x, y = z[:n], z[n:]
        x_new = prob.prox_g(x - self.tau_p * prob.pair.surrogate.apply_adjoint(y), self.tau_p)
        x_bar = x_new + (x_new - x)
        y_new = prob.prox_fstar(y + self.sigma_d * prob.pair.forward.apply(x_bar), self.sigma_d)
        return np.concatenate([x_new, y_new]), x_new, y_new


# One row per iteration.  ``objective`` is filled on every OBJECTIVE_EVERY-th
# iteration and on the final row only; the other columns cost one norm each
# and are read row by row (rates, slopes, per-iteration timings).
TRACE_COLUMNS = ("iter", "dist_to_ref", "objective", "residual", "wall_time_ms")
OBJECTIVE_EVERY = 10


@dataclass
class RunResult:
    status: str  # converged | diverged | max_iters
    state: SolverState
    columns: tuple = TRACE_COLUMNS  # then the extra_metrics names
    trace: list = field(default_factory=list)  # one row of columns per iteration

    @property
    def iterations(self):
        return self.state.k

    def column(self, name):
        """The column ``name``, its Nones left out."""
        i = self.columns.index(name)
        return [row[i] for row in self.trace if row[i] is not None]


def _norm(d):
    # np.linalg.norm of a 1-D float64 array, bit for bit, without its dispatch
    return math.sqrt(d @ d)


def run(problem, stepper, stopping, initial_state=None, x_ref=None,
        objective: Optional[Callable[[np.ndarray], float]] = None,
        extra_metrics=None):
    """Iterate ``stepper`` until the fixed-point residual drops below
    tolerance, the run diverges (a non-finite or too large primal iterate,
    or a non-finite residual, which catches non-finite governing or dual
    iterates), or max_iters is reached.

    A stepper maps one vector, ``step(z) -> (z_next, x, y)``, and modifies
    no input, nor does ``run`` modify ``initial_state``; ``z = (p, q)`` for
    PDDR and ``(x, y)`` for CP.  The residual is ||z_{k+1} - z_k|| /
    residual_scale: for PDDR (|theta|) the fixed-point defect ||(v,w) - (x,y)||
    at z_k.  ``result.columns`` is TRACE_COLUMNS followed by the
    ``extra_metrics`` names in the dict's order, and ``result.trace`` holds
    one row per iteration, the start first: ``(k, dist, obj, residual, ms,
    *metrics)``, each metric ``float(fn(state))`` taken after the stamp.
    ``objective`` is evaluated at the primal iterate on rows with
    ``k % OBJECTIVE_EVERY == 0`` and on the final row, whatever the status,
    and is None elsewhere: no caller reads it per row.  The other columns are
    on every row (``dist`` is None without ``x_ref``, ``residual`` on the
    start row).  ``result.column(name)`` reads a column without its Nones;
    experiments.emit_report writes the table as CSV.
    """
    state = initial_state if initial_state is not None else zero_state(problem)
    extra_metrics = extra_metrics or {}
    result = RunResult("max_iters", state, TRACE_COLUMNS + tuple(extra_metrics))
    t0 = time.perf_counter()

    def record(state, residual, final):
        dist = _norm(state.x - x_ref) if x_ref is not None else None
        obj = None
        if objective is not None and (final or state.k % OBJECTIVE_EVERY == 0):
            obj = float(objective(state.x))
        row = (state.k, dist, obj, residual, (time.perf_counter() - t0) * 1e3)
        for fn in extra_metrics.values():  # cheaper than a comprehension for 0-2 metrics
            row += (float(fn(state)),)
        result.trace.append(row)

    record(state, None, stopping.max_iters == 0)
    for i in range(stopping.max_iters):
        z, x, y = stepper.step(state.z)
        residual = _norm(z - state.z) / stepper.residual_scale
        state = result.state = SolverState(z, x, y, state.k + 1)
        # `not <=` also catches a NaN or infinite x, whose norm is NaN or inf
        if not math.isfinite(residual) or not (_norm(x) <= stopping.divergence_threshold):
            result.status = "diverged"
        elif residual <= stopping.fixed_point_tol:
            result.status = "converged"
        done = result.status != "max_iters"
        record(state, residual, done or i == stopping.max_iters - 1)
        if done:
            break
    return result
