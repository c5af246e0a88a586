"""Fixed-point existence checks, a-priori error bounds, inclusion residuals,
and closed-form references for the quadratic family.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np
import scipy.linalg


@dataclass
class FixedPointReport:
    exists_unique: bool
    x_hat: Optional[np.ndarray] = None
    y_hat: Optional[np.ndarray] = None
    inclusion_residual: Optional[float] = None
    error_bound: Optional[float] = None
    distance_to_true: Optional[float] = None

    def as_dict(self):
        d = asdict(self)
        for key in ("x_hat", "y_hat"):
            if d[key] is not None:
                d[key] = np.asarray(d[key]).tolist()
        return d


def inclusion_residual(problem, x, y, probe_tau=1.0):
    """Fixed-point defect of the mismatched inclusion at (x, y).

    Returns ||x - prox_G(x - tau V* y)|| + ||y - prox_F*(y + tau A x)||,
    which vanishes exactly at solutions of the inclusion.  The zero set is
    independent of probe_tau; the magnitude away from it is not.
    """
    if probe_tau <= 0:
        raise ValueError("probe_tau must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = x - problem.prox_g(x - probe_tau * problem.pair.apply_surrogate_adjoint(y), probe_tau)
    ry = y - problem.prox_fstar(y + probe_tau * problem.pair.forward.apply(x), probe_tau)
    return float(np.linalg.norm(rx) + np.linalg.norm(ry))


def error_bound(problem, y_hat, gamma_g=None):
    """A-priori bound (1/gamma_g) ||(V - A)^T y_hat|| on the primal error.

    The difference adjoint is applied action-wise through the two adjoint
    implementations; no dense subtraction is materialized.
    """
    if gamma_g is None:
        gamma_g = problem.prox_g.strong_convexity
    if gamma_g <= 0:
        raise ValueError("error bound requires a strongly convex G")
    y_hat = np.asarray(y_hat, dtype=float)
    diff = problem.pair.apply_surrogate_adjoint(y_hat) - problem.pair.forward.apply_adjoint(y_hat)
    return float(np.linalg.norm(diff)) / gamma_g


def quadratic_reference(A, V, alpha, beta, z):
    """Closed-form fixed points of the quadratic family.

    x_hat = V^T (alpha*beta I + A V^T)^{-1} z and
    y_hat = -alpha (alpha*beta I + A V^T)^{-1} z are the mismatched fixed
    point; x_star = A^T (alpha*beta I + A A^T)^{-1} z is the true solution.
    """
    if alpha * beta <= 0:
        raise ValueError("alpha * beta must be positive")
    A = np.asarray(A, dtype=float)
    V = np.asarray(V, dtype=float)
    z = np.asarray(z, dtype=float)
    m = A.shape[0]
    core_mm = alpha * beta * np.eye(m) + A @ V.T
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = scipy.linalg.solve(core_mm, z)
    except scipy.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("alpha*beta I + A V^T is singular") from exc
    if not np.all(np.isfinite(s)):
        # scipy's diagonal fast path divides by zero instead of raising
        raise np.linalg.LinAlgError("alpha*beta I + A V^T is singular")
    x_hat = V.T @ s
    y_hat = -alpha * s
    x_star = A.T @ scipy.linalg.solve(alpha * beta * np.eye(m) + A @ A.T, z, assume_a="pos")
    return x_hat, y_hat, x_star


def fixed_point_report(problem, profile, x, y, probe_tau=1.0, x_true=None):
    """Assemble a FixedPointReport for a candidate point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    report = FixedPointReport(
        exists_unique=profile.exists_unique,
        x_hat=x,
        y_hat=y,
        inclusion_residual=inclusion_residual(problem, x, y, probe_tau),
        error_bound=error_bound(problem, y, gamma_g=profile.gamma_g),
    )
    if x_true is not None:
        report.distance_to_true = float(np.linalg.norm(x - np.asarray(x_true, dtype=float)))
    return report
