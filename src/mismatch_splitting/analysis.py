"""Fixed-point existence checks, a-priori error bounds, inclusion residuals,
and closed-form references for the quadratic family.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


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
    rx = x - problem.prox_g(x - probe_tau * problem.pair.surrogate.apply_adjoint(y), probe_tau)
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
    diff = problem.pair.surrogate.apply_adjoint(y_hat) - problem.pair.forward.apply_adjoint(y_hat)
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
    eye = alpha * beta * np.eye(A.shape[0])
    # scipy's dgemm forms both on the OpenBLAS whose LAPACK solves with them
    # (a LAPACK call right after a numpy product waits on numpy's own threads)
    core_mm = scipy.linalg.blas.dgemm(1.0, A.T, V.T, 1.0, eye, trans_a=True)
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
    core_aa = scipy.linalg.blas.dgemm(1.0, A.T, A.T, 1.0, eye, trans_a=True)
    x_star = A.T @ scipy.linalg.solve(core_aa, z, assume_a="pos")
    return x_hat, y_hat, x_star


def fixed_point_report(problem, profile, x, y, probe_tau=1.0, x_true=None):
    """The fixed-point report of a candidate point (x, y) as a JSON-ready
    dict: ``exists_unique`` (the existence condition of ``profile``),
    ``x_hat`` and ``y_hat`` (the point, as lists), ``inclusion_residual``,
    ``error_bound`` (at y, with ``profile.gamma_g``) and
    ``distance_to_true`` (||x - x_true||, None without ``x_true``)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return {
        "exists_unique": profile.exists_unique,
        "x_hat": x.tolist(),
        "y_hat": y.tolist(),
        "inclusion_residual": inclusion_residual(problem, x, y, probe_tau),
        "error_bound": error_bound(problem, y, gamma_g=profile.gamma_g),
        "distance_to_true": None if x_true is None
        else float(np.linalg.norm(x - np.asarray(x_true, dtype=float))),
    }
