"""Pixelwise l_{inf,2}-ball projection, the reference that the tests hold
the tomography prox and the firm-nonexpansiveness checks against."""

import numpy as np

from mismatch_splitting.proximal import ProxFn


def project_linf2(field, radius):
    """Pixelwise radial projection of an (..., 2) vector field.

    Each 2-vector is scaled down to Euclidean norm <= radius.
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
