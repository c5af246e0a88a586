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
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha!r}")
    s = None if shift is None else np.asarray(shift, dtype=float)

    def evaluate(p, tau):
        num = p if s is None else p - tau * s
        return num / (1.0 + tau * alpha)

    return ProxFn(evaluate, strong_convexity=float(alpha))


def prox_box_dual():
    """Moreau conjugate of the l1 prox: projection onto [-1, 1]^d."""
    return ProxFn(lambda p, tau: np.clip(p, -1.0, 1.0), strong_convexity=0.0)


def prox_convex_shifted(base, mu):
    """Prox of F - (mu/2)||.||^2 for a mu-strongly convex base.

    Uses the rescaling identity
    ``prox_{lam(F - mu/2||.||^2)}(x) = prox_{lam/(1-lam*mu) F}(x/(1-lam*mu))``,
    valid for lam < 1/mu.
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
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
