"""Proximal helpers that only the tests use: soft-thresholding, the l1 prox
built on it, and the firm-nonexpansiveness defect every prox is checked by."""

import numpy as np

from mismatch_splitting.proximal import ProxFn


def soft_threshold(point, level):
    point = np.asarray(point, dtype=float)
    return np.sign(point) * np.maximum(np.abs(point) - level, 0.0)


def prox_l1():
    """Prox of ||.||_1: componentwise soft-thresholding at level tau."""
    return ProxFn(lambda p, tau: soft_threshold(p, tau), strong_convexity=0.0)


def firm_nonexpansiveness_defect(prox, a, b, tau=1.0):
    """||Pa - Pb||^2 - <Pa - Pb, a - b>; <= 0 (up to slack) for a true prox."""
    pa = prox(a, tau)
    pb = prox(b, tau)
    d = pa - pb
    return float(d @ d) - float(d @ (a - b))
