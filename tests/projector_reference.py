"""Per-ray and per-angle loop builders of the two tomography projectors, the
reference that the tests hold the array-based ``tomo.ray_driven_matrix`` and
``tomo.pixel_driven_matrix`` against, bit for bit."""

import numpy as np
import scipy.sparse


def ray_driven_matrix(geom):
    """Line-integral projector with exact intersection-length weights."""
    n = geom.image_size
    h = 1.0 / n
    rows, cols, vals = [], [], []
    grid = -0.5 + np.arange(n + 1) * h
    for ia, theta in enumerate(geom.angles):
        ct, st = np.cos(theta), np.sin(theta)
        dx, dy = -st, ct  # ray direction
        for ib, s in enumerate(geom.bin_centers):
            px, py = s * ct, s * st  # point on the ray
            ts = []
            if abs(dx) > 1e-12:
                ts.append((grid - px) / dx)
            if abs(dy) > 1e-12:
                ts.append((grid - py) / dy)
            t = np.unique(np.concatenate(ts))
            xs = px + t * dx
            ys = py + t * dy
            inside = (xs >= -0.5 - 1e-12) & (xs <= 0.5 + 1e-12) & \
                     (ys >= -0.5 - 1e-12) & (ys <= 0.5 + 1e-12)
            t = t[inside]
            if t.size < 2:
                continue
            mids = 0.5 * (t[:-1] + t[1:])
            lengths = np.diff(t)
            mx = px + mids * dx
            my = py + mids * dy
            j = np.clip(np.floor((mx + 0.5) / h).astype(int), 0, n - 1)
            i = np.clip(np.floor((my + 0.5) / h).astype(int), 0, n - 1)
            keep = lengths > 1e-14
            row = ia * geom.num_bins + ib
            rows.extend([row] * int(np.count_nonzero(keep)))
            cols.extend((i[keep] * n + j[keep]).tolist())
            vals.extend(lengths[keep].tolist())
    mat = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(geom.sinogram_size, n * n)
    )
    mat.sum_duplicates()
    return mat


def pixel_driven_matrix(geom):
    """Pixel-driven projector: bilinear bin interpolation, weight h^2 / bin_width."""
    n = geom.image_size
    h = 1.0 / n
    b = geom.bin_width
    centers = -0.5 + (np.arange(n) + 0.5) * h
    xg, yg = np.meshgrid(centers, centers)
    xg = xg.ravel()
    yg = yg.ravel()
    weight = h * h / b
    rows, cols, vals = [], [], []
    pix = np.arange(n * n)
    for ia, theta in enumerate(geom.angles):
        s = xg * np.cos(theta) + yg * np.sin(theta)
        u = (s + 0.5) / b - 0.5  # fractional bin coordinate
        j0 = np.floor(u).astype(int)
        frac = u - j0
        for j, wgt in ((j0, 1.0 - frac), (j0 + 1, frac)):
            ok = (j >= 0) & (j < geom.num_bins) & (wgt > 0)
            rows.extend((ia * geom.num_bins + j[ok]).tolist())
            cols.extend(pix[ok].tolist())
            vals.extend((wgt[ok] * weight).tolist())
    mat = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(geom.sinogram_size, n * n)
    )
    mat.sum_duplicates()
    return mat
