"""Desk-scale parallel-beam tomography: phantom, discrete gradient, and a
deliberately non-adjoint projector pair.

The image lives on the unit square [-1/2, 1/2]^2 with n x n pixels; the
detector spans [-1/2, 1/2] (corner chords outside this window are not
measured).  The forward projector is ray-driven (exact pixel-intersection
lengths); the surrogate is pixel-driven (bilinear bin interpolation scaled
by pixel area over bin width).  Each is adjoint-consistent on its own; the
pair is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .operators import MatrixOperator, MismatchPair, VStackMap


@dataclass(frozen=True)
class ParallelGeometry:
    image_size: int
    num_angles: int
    num_bins: int

    def __post_init__(self):
        if self.image_size <= 0 or self.num_bins <= 0:
            raise ValueError("image_size and num_bins must be positive")
        if self.num_angles <= 0:
            raise ValueError("degenerate geometry: need at least one angle")

    @property
    def angles(self):
        return np.arange(self.num_angles) * np.pi / self.num_angles

    @property
    def bin_width(self):
        return 1.0 / self.num_bins

    @property
    def bin_centers(self):
        return -0.5 + (np.arange(self.num_bins) + 0.5) * self.bin_width

    @property
    def sinogram_size(self):
        return self.num_angles * self.num_bins


# (intensity, semi-axis a, semi-axis b, x0, y0, angle in degrees) on [-1, 1]^2
_SHEPP_LOGAN_ELLIPSES = [
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
]


def shepp_logan_phantom(n):
    """Modified (high-contrast) ten-ellipse head phantom, values in [0, 1]."""
    h = 1.0 / n
    centers = -0.5 + (np.arange(n) + 0.5) * h
    xg, yg = np.meshgrid(centers, centers)  # yg is the row coordinate
    # ellipse parameters live on [-1, 1]^2
    x2, y2 = 2.0 * xg, 2.0 * yg
    img = np.zeros((n, n))
    for inten, a, b, x0, y0, phi_deg in _SHEPP_LOGAN_ELLIPSES:
        phi = np.deg2rad(phi_deg)
        c, s = np.cos(phi), np.sin(phi)
        xr = (x2 - x0) * c + (y2 - y0) * s
        yr = -(x2 - x0) * s + (y2 - y0) * c
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += inten
    return np.clip(img, 0.0, 1.0)


def gradient_matrix(n):
    """Forward-difference gradient, Neumann boundary, as a sparse 2n^2 x n^2 map.

    Output layout: [d/dcol part; d/drow part], each n^2 long (C-order images).
    """
    main = -np.ones(n)
    main[-1] = 0.0
    upper = np.ones(n - 1)
    d = scipy.sparse.diags([main, upper], [0, 1], shape=(n, n))
    eye = scipy.sparse.eye(n)
    dx = scipy.sparse.kron(eye, d)  # along columns
    dy = scipy.sparse.kron(d, eye)  # along rows
    return scipy.sparse.vstack([dx, dy], format="csr")


class NeumannGradient(MatrixOperator):
    """``gradient_matrix(n)`` as an operator that exposes its DCT spectrum.

    With forward differences and a Neumann boundary, D^T D is the Neumann
    Laplacian, which the orthonormal 2-D DCT-II diagonalises (Strang, "The
    Discrete Cosine Transform", SIAM Rev. 1999).  ``dct_eigenvalues[k, l]``
    is its eigenvalue for DCT frequency (k, l), lam_k + lam_l with
    lam_k = 2 - 2 cos(pi k / n); InnerSystemSolver reads it to invert
    ``c I + t D^T D`` in the DCT basis.
    """

    def __init__(self, n):
        super().__init__(gradient_matrix(n))
        self.image_shape = (n, n)
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
        self.dct_eigenvalues = lam[:, None] + lam[None, :]


def _assemble(geom, rows, cols, vals):
    """One CSR matrix from per-angle (row, column, value) arrays, duplicates summed."""
    mat = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.sinogram_size, geom.image_size ** 2),
    )
    mat.sum_duplicates()
    return mat


def ray_driven_matrix(geom):
    """Line-integral projector with exact intersection-length weights.

    Works one angle at a time on arrays over all of its rays: row b of ``t``
    holds bin b's sorted grid crossings, and a segment between neighbours is
    kept if both ends are inside and it is longer than 1e-14 (so a crossing
    met twice adds nothing).  A test checks the result bit for bit against
    the per-ray loop in ``tests/projector_reference.py``.
    """
    n = geom.image_size
    h = 1.0 / n
    rows, cols, vals = [], [], []
    grid = -0.5 + np.arange(n + 1) * h
    s = geom.bin_centers[:, None]
    for ia, theta in enumerate(geom.angles):
        ct, st = np.cos(theta), np.sin(theta)
        dx, dy = -st, ct  # ray direction
        px, py = s * ct, s * st  # a point on each ray
        ts = []
        if abs(dx) > 1e-12:
            ts.append((grid - px) / dx)
        if abs(dy) > 1e-12:
            ts.append((grid - py) / dy)
        t = np.sort(np.concatenate(ts, axis=1), axis=1)
        xs = px + t * dx
        ys = py + t * dy
        inside = (xs >= -0.5 - 1e-12) & (xs <= 0.5 + 1e-12) & \
                 (ys >= -0.5 - 1e-12) & (ys <= 0.5 + 1e-12)
        mids = 0.5 * (t[:, :-1] + t[:, 1:])
        lengths = np.diff(t, axis=1)
        mx = px + mids * dx
        my = py + mids * dy
        j = np.clip(np.floor((mx + 0.5) / h).astype(int), 0, n - 1)
        i = np.clip(np.floor((my + 0.5) / h).astype(int), 0, n - 1)
        # xs and ys are monotone in t, so a ray's inside crossings are
        # contiguous and its segments are the neighbouring pairs of them
        ib, k = np.nonzero(inside[:, :-1] & inside[:, 1:] & (lengths > 1e-14))
        rows.append(ia * geom.num_bins + ib)
        cols.append(i[ib, k] * n + j[ib, k])
        vals.append(lengths[ib, k])
    return _assemble(geom, rows, cols, vals)


def pixel_driven_matrix(geom):
    """Pixel-driven projector: bilinear bin interpolation, weight h^2 / bin_width.

    Works one angle at a time on arrays over all pixels.  A test checks the
    result bit for bit against the loop in ``tests/projector_reference.py``.
    """
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
            rows.append(ia * geom.num_bins + j[ok])
            cols.append(pix[ok])
            vals.append(wgt[ok] * weight)
    return _assemble(geom, rows, cols, vals)


@dataclass
class ProjectorPair:
    """Ray-driven forward and pixel-driven surrogate, with a shared gradient.

    ``forward`` and ``surrogate`` stack the Radon block on top of the
    (matched) gradient block; only the Radon discretizations differ.
    """

    forward: VStackMap
    surrogate: VStackMap
    geometry: ParallelGeometry
    radon_forward: MatrixOperator
    radon_surrogate: MatrixOperator
    gradient: NeumannGradient

    def mismatch_pair(self):
        return MismatchPair(self.forward, self.surrogate)


def build_projector_pair(geom):
    """Assemble the stacked non-adjoint projector pair for a geometry."""
    radon_a = MatrixOperator(ray_driven_matrix(geom))
    radon_v = MatrixOperator(pixel_driven_matrix(geom))
    grad = NeumannGradient(geom.image_size)
    return ProjectorPair(
        forward=VStackMap([radon_a, grad]),
        surrogate=VStackMap([radon_v, grad]),
        geometry=geom,
        radon_forward=radon_a,
        radon_surrogate=radon_v,
        gradient=grad,
    )


def make_sinogram(radon_op, image, noise_rel=0.0, rng=None):
    """Project an image and add relative Gaussian noise scaled so that
    ||noise|| ~ noise_rel * ||z||."""
    z = radon_op.apply(np.asarray(image, dtype=float).ravel())
    if noise_rel > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        g = rng.standard_normal(z.size)
        z = z + noise_rel * np.linalg.norm(z) / np.sqrt(z.size) * g
    return z
