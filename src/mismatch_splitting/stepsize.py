"""Step-size recipe, monotonicity conditions, and linear-rate formulas.

Everything here is a pure function of scalars.  plan(profile, theta,
||A||, ||V||) is the one path to a certified StepPlan: the two inputs about
the shifted skew block, a lower bound on its smallest singular value and an
upper bound on its norm, follow in closed form from ||A-V||, ||A|| and ||V||
(sigma_min_lower_bound, block_norm_upper_bound) at select_mus's mu-tilde
shifts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class ConvexityProfile:
    gamma_g: float
    gamma_f: float
    mismatch_norm: float

    def __post_init__(self):
        # negated comparisons, so that NaN is refused too
        for name in ("gamma_g", "gamma_f"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.mismatch_norm < math.inf:
            raise ValueError(
                f"mismatch_norm must be nonnegative and finite, got {self.mismatch_norm!r}")

    @property
    def exists_unique(self):
        """Strict existence condition gamma_g * gamma_f > ||A-V||^2 / 4."""
        return self.gamma_g * self.gamma_f > 0.25 * self.mismatch_norm**2


@dataclass
class StepPlan:
    """Full output of the step-size recipe for a fixed relaxation theta."""

    mu_g: float
    mu_tilde_g: float
    mu_f: float
    mu_tilde_f: float
    theta: float
    delta: float
    alpha: float
    tau: float
    zeta: float
    tau_s: float
    tau_plus: Optional[float]
    tau_minus: Optional[float]
    upsilon: float
    sigma: float
    b_sigma_norm: float
    eta: float
    rate: float
    c: float
    norm_a: Optional[float] = None  # ||A|| and ||V||, as given to plan()
    norm_v: Optional[float] = None


class CertificateError(RuntimeError):
    """No positive linear-rate certificate is available for these inputs."""


def select_mus(profile):
    """Midpoint instantiation of the admissible (mu, mu-tilde) constants.

    mu_tilde is the midpoint of its open admissible interval and mu the
    midpoint between mu_tilde and the strong convexity modulus, on each of
    the primal and dual sides.
    """
    d = profile.mismatch_norm
    if not profile.exists_unique:
        raise CertificateError(
            f"existence condition fails: gamma_g * gamma_f = "
            f"{profile.gamma_g * profile.gamma_f:.4g} <= ||A-V||^2/4 = {0.25 * d * d:.4g}; "
            "no admissible mu constants"
        )
    ratio = math.sqrt(profile.gamma_g / profile.gamma_f)
    mu_tilde_g = 0.5 * (profile.gamma_g + 0.5 * d * ratio)
    mu_g = 0.5 * (profile.gamma_g + mu_tilde_g)
    mu_tilde_f = 0.5 * (profile.gamma_f + 0.5 * d / ratio)
    mu_f = 0.5 * (profile.gamma_f + mu_tilde_f)
    return mu_g, mu_tilde_g, mu_f, mu_tilde_f


def sigma_min_lower_bound(g, f, d):
    """Lower bound on sigma_min of the shifted skew block [[g I, V*], [-A, f I]]
    for any pair with ||A - V|| <= d.

    Every singular value is at least the smallest eigenvalue of the
    symmetric part [[g I, (V-A)^T/2], [(V-A)/2, f I]], which is
    (g+f)/2 - sqrt(((g-f)/2)^2 + d^2/4), evaluated here without
    cancellation.  It is positive exactly when g f > d^2/4 and decreases in
    d, so an upper bound on ||A - V|| gives a rigorous lower bound.
    """
    return (g * f - 0.25 * d * d) / (0.5 * (g + f) + math.hypot(0.5 * (g - f), 0.5 * d))


def block_norm_upper_bound(g, f, norm_a, norm_v):
    """Upper bound max(g, f) + max(||A||, ||V||) on the norm of the shifted
    skew block [[g I, V*], [-A, f I]]: the triangle inequality over its
    diagonal and off-diagonal parts."""
    return max(g, f) + max(norm_a, norm_v)


def monotonicity_c(mu_g, mu_tilde_g, mu_f, mu_tilde_f):
    """The constant c bounding tau in the weak-convergence region."""
    return min(
        (mu_g - mu_tilde_g) / (mu_g * mu_tilde_g),
        (mu_f - mu_tilde_f) / (mu_f * mu_tilde_f),
    )


def certify_weak(profile, mus, tau, theta):
    """Membership test for the weak-convergence region.

    Returns (ok, c) where ok is True iff tau in (0, min(1/||A-V||, c)) and
    theta in (0, 2 - 2*tau/c).
    """
    mu_g, mu_tilde_g, mu_f, mu_tilde_f = mus
    c = monotonicity_c(mu_g, mu_tilde_g, mu_f, mu_tilde_f)
    d = profile.mismatch_norm
    tau_cap = min(1.0 / d if d > 0 else math.inf, c)
    ok = (0.0 < tau < tau_cap) and (0.0 < theta < 2.0 - 2.0 * tau / c)
    return ok, c


def compute_plan(profile, theta, sigma, b_sigma_norm):
    """Step-size recipe for a given theta in (0, 1).

    ``sigma`` is a lower bound on the smallest singular value and
    ``b_sigma_norm`` an upper bound on the norm of the mu-tilde-shifted skew
    block, the block built with the mus returned by select_mus(profile).
    plan() forms both in closed form; any other caller must supply bounds
    taken at those same mu-tilde shifts.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    if not b_sigma_norm > 0:  # `not >` also refuses NaN
        raise ValueError("b_sigma_norm must be positive")
    if not sigma > 0:
        raise CertificateError(
            "sigma_min of the shifted skew block is not strictly positive; "
            "no positive rate certificate"
        )

    mu_g, mu_tilde_g, mu_f, mu_tilde_f = select_mus(profile)
    d = profile.mismatch_norm
    delta = 1.0 / theta
    alpha = delta - 1.0

    upsilon = 0.5 * min(profile.gamma_g - mu_g, profile.gamma_f - mu_f)
    m_max = max(mu_tilde_g, mu_tilde_f)
    denom = 4.0 * b_sigma_norm**2 + m_max**2

    zeta = (delta - 1.0) / (delta * math.sqrt(denom))
    c = monotonicity_c(mu_g, mu_tilde_g, mu_f, mu_tilde_f)
    norm_cap = 0.99 * delta / ((delta - 1.0) * d) if d > 0 else math.inf
    tau_s = (delta - 1.0) / delta * min(c, norm_cap)

    # intersection points of the linear and rational branches of eta(tau)
    disc = (delta - 1.0) ** 2 * m_max**2 - (
        (delta - 1.0) ** 2 - sigma / upsilon * (2.0 * delta - 1.0) ** 2
    ) * denom
    if disc < 0.0:
        tau_minus = tau_plus = None
        tau_tilde = zeta
    else:
        root = math.sqrt(disc)
        base = (1.0 - delta) * m_max
        tau_minus = (base - root) / (delta * denom)
        tau_plus = (base + root) / (delta * denom)
        if tau_minus < 0.0:
            tau_tilde = tau_plus
        elif tau_minus > 0.0 and 0.0 < tau_plus < zeta:
            tau_tilde = zeta
        elif tau_minus > 0.0 and tau_plus >= zeta > 0.0:
            tau_tilde = tau_plus
        else:
            # case not covered by the stated split (e.g. tau_minus == 0)
            warnings.warn(
                "step-size case split did not match; falling back to the "
                "maximizer of the rational branch",
                stacklevel=2,
            )
            tau_tilde = zeta

    tau = min(tau_s, tau_tilde)
    eta = rate_eta(tau, delta, upsilon, sigma, b_sigma_norm, m_max)
    if not eta > 0.0:
        raise CertificateError("no positive rate certificate (eta <= 0)")

    return StepPlan(
        mu_g=mu_g,
        mu_tilde_g=mu_tilde_g,
        mu_f=mu_f,
        mu_tilde_f=mu_tilde_f,
        theta=theta,
        delta=delta,
        alpha=alpha,
        tau=tau,
        zeta=zeta,
        tau_s=tau_s,
        tau_plus=tau_plus,
        tau_minus=tau_minus,
        upsilon=upsilon,
        sigma=sigma,
        b_sigma_norm=b_sigma_norm,
        eta=eta,
        rate=1.0 / (1.0 + eta),
        c=c,
    )


def plan(profile, theta, norm_a, norm_v):
    """Certified step-size plan from the moduli and ||A-V|| in ``profile``,
    theta, ||A|| and ||V||: the closed-form sigma_min and ||B_sigma|| bounds
    at select_mus's mu-tilde shifts, through compute_plan.  The plan records
    ``norm_a`` and ``norm_v``.  Raises CertificateError unless
    gamma_g * gamma_f > ||A-V||^2 / 4.
    """
    _, mu_tilde_g, _, mu_tilde_f = select_mus(profile)
    sigma = sigma_min_lower_bound(mu_tilde_g, mu_tilde_f, profile.mismatch_norm)
    b_sigma_norm = block_norm_upper_bound(mu_tilde_g, mu_tilde_f, norm_a, norm_v)
    return replace(compute_plan(profile, theta, sigma, b_sigma_norm),
                   norm_a=norm_a, norm_v=norm_v)


def rate_eta(tau, delta, upsilon, sigma, b_sigma_norm, mu_tilde_max):
    """The strong-monotonicity constant eta entering the linear rate."""
    g = tau * delta
    return (4.0 * g / 27.0) * min(
        upsilon / (2.0 * delta - 1.0) ** 2,
        sigma / (4.0 * g**2 * b_sigma_norm**2 + (delta - 1.0 + g * mu_tilde_max) ** 2),
    )
