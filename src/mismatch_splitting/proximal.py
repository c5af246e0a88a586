"""Proximal-operator calculus for the shipped solvers.

A ProxFn bundles the prox map with its declared strong-convexity modulus;
the objective a run reports is passed to solvers.run on its own.  The strong
convexity value is user-declared.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ProxFn:
    """``evaluate(p, tau)`` is the prox of tau times the function at p;
    ``strong_convexity`` is the function's declared modulus."""

    evaluate: Callable[[np.ndarray, float], np.ndarray]
    strong_convexity: float = 0.0

    def __call__(self, point, tau):
        return self.evaluate(np.asarray(point, dtype=float), float(tau))


def prox_identity():
    """Prox of the zero function (G == 0)."""
    return ProxFn(lambda p, tau: p, strong_convexity=0.0)


def prox_scaled_quadratic(alpha, shift=None):
    """Prox of x -> alpha/2 ||x||^2 + <shift, x>: (p - tau*shift)/(1 + tau*alpha)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    s = None if shift is None else np.asarray(shift, dtype=float)

    def evaluate(p, tau):
        num = p if s is None else p - tau * s
        return num / (1.0 + tau * alpha)

    return ProxFn(evaluate, strong_convexity=float(alpha))


def project_linf2(field, radius):
    """Pixelwise radial projection of an (..., 2) vector field.

    Each 2-vector is scaled down to Euclidean norm <= radius.  The Huber
    pre-scaling p/(1+tau*eps) is composed by the caller, keeping this a pure
    projection.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    field = np.asarray(field, dtype=float)
    if radius == 0.0:
        return np.zeros_like(field)
    norms = np.sqrt(np.sum(field**2, axis=-1, keepdims=True))
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return field * scale


def prox_linf2_ball(radius, field_shape=None):
    """Prox of the indicator of {||.||_{inf,2} <= radius} (pure projection).

    If ``field_shape`` is given, flat vectors are reshaped to that (..., 2)
    field before projecting and flattened again after.
    """

    def evaluate(p, tau):
        if field_shape is not None:
            return project_linf2(p.reshape(field_shape), radius).ravel()
        return project_linf2(p, radius)

    return ProxFn(evaluate, strong_convexity=0.0)


def soft_threshold(point, level):
    point = np.asarray(point, dtype=float)
    return np.sign(point) * np.maximum(np.abs(point) - level, 0.0)


def prox_l1():
    """Prox of ||.||_1: componentwise soft-thresholding at level tau."""
    return ProxFn(lambda p, tau: soft_threshold(p, tau), strong_convexity=0.0)


def prox_box_dual():
    """Moreau conjugate of the l1 prox: projection onto [-1, 1]^d."""
    return ProxFn(lambda p, tau: np.clip(p, -1.0, 1.0), strong_convexity=0.0)


def prox_convex_shifted(base, mu):
    """Prox of F - (mu/2)||.||^2 for a mu-strongly convex base.

    Uses the rescaling identity
    ``prox_{lam(F - mu/2||.||^2)}(x) = prox_{lam/(1-lam*mu) F}(x/(1-lam*mu))``,
    valid for lam < 1/mu.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if base.strong_convexity < mu:
        warnings.warn(
            "mu exceeds the declared strong convexity of the base prox; "
            "the shifted function is not convex",
            stacklevel=2,
        )

    def evaluate(p, lam):
        if lam >= 1.0 / mu:
            raise ValueError(
                f"prox_convex_shifted requires lambda < 1/mu = {1.0 / mu:.6g}, got {lam:.6g}"
            )
        denom = 1.0 - lam * mu
        return base.evaluate(p / denom, lam / denom)

    return ProxFn(evaluate, strong_convexity=base.strong_convexity - mu)


def firm_nonexpansiveness_defect(prox, a, b, tau=1.0):
    """||Pa - Pb||^2 - <Pa - Pb, a - b>; <= 0 (up to slack) for a true prox."""
    pa = prox(a, tau)
    pb = prox(b, tau)
    d = pa - pb
    return float(d @ d) - float(d @ (a - b))

