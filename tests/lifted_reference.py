"""The lifted preconditioned-proximal-point iteration, kept as an equivalence
oracle for the mismatched PDDR iteration; only the tests use it."""

from dataclasses import dataclass, replace

import numpy as np

from mismatch_splitting.operators import InnerSystemSolver


@dataclass
class LiftedState:
    """Reduced state of the relaxed preconditioned proximal point iteration."""

    w_lift: np.ndarray
    alpha: float
    gamma: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam < 2.0):
            raise ValueError("relaxation lambda must lie in (0, 2)")


def step_lifted_ppp(problem, lifted, tau):
    """One step of the reduced preconditioned proximal point iteration.

    Exists as a test oracle: with theta = lambda/(1+alpha) the sequence
    w^k/(1+alpha) reproduces the mismatched PDDR (p, q) sequence exactly.
    """
    alpha, lam = lifted.alpha, lifted.lam
    if not np.isclose(lifted.gamma, (1.0 + alpha) * tau):
        raise ValueError("lifted state requires gamma = (1 + alpha) * tau")
    n = problem.primal_dim
    w = lifted.w_lift
    w_tilde = w / (1.0 + alpha)
    x = problem.prox_g(w_tilde[:n], tau)
    y = problem.prox_fstar(w_tilde[n:], tau)
    refl = 2.0 * np.concatenate([x, y]) - w_tilde
    v, wv = InnerSystemSolver(problem.pair, tau).solve(refl[:n], refl[n:])
    w_new = w + lam * (np.concatenate([v, wv]) - np.concatenate([x, y]))
    return replace(lifted, w_lift=w_new)
