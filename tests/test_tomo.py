import numpy as np
import pytest

from mismatch_splitting.operators import FunctionOperator, dct_matrix
from mismatch_splitting.tomo import (
    NeumannGradient,
    ParallelGeometry,
    build_projector_pair,
    gradient_matrix,
    make_sinogram,
    pixel_driven_matrix,
    ray_driven_matrix,
    shepp_logan_phantom,
)

import projector_reference
from operator_reference import adjoint_defect


def test_geometry_validation():
    with pytest.raises(ValueError):
        ParallelGeometry(8, 0, 8)
    with pytest.raises(ValueError):
        ParallelGeometry(0, 4, 8)
    with pytest.raises(ValueError):
        ParallelGeometry(8, 4, 0)
    geom = ParallelGeometry(8, 4, 6)
    assert geom.sinogram_size == 24
    assert geom.bin_width == pytest.approx(1.0 / 6.0)
    assert len(geom.angles) == 4 and geom.angles[0] == 0.0


def test_phantom_range_and_determinism():
    img = shepp_logan_phantom(32)
    assert img.shape == (32, 32)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img.max() > 0.9  # skull ring present
    assert np.array_equal(img, shepp_logan_phantom(32))
    # corners lie outside the head
    assert img[0, 0] == 0.0 and img[-1, -1] == 0.0


def test_gradient_matches_manual_differences():
    n = 5
    rng = np.random.default_rng(0)
    img = rng.standard_normal((n, n))
    g = gradient_matrix(n) @ img.ravel()
    dx = g[: n * n].reshape(n, n)
    dy = g[n * n:].reshape(n, n)
    assert np.allclose(dx[:, :-1], img[:, 1:] - img[:, :-1])
    assert np.allclose(dy[:-1, :], img[1:, :] - img[:-1, :])
    # Neumann boundary: last difference in each direction is zero
    assert np.allclose(dx[:, -1], 0.0)
    assert np.allclose(dy[-1, :], 0.0)
    # constants are in the kernel
    assert np.allclose(gradient_matrix(n) @ np.ones(n * n), 0.0)


def test_neumann_gradient_is_diagonalised_by_the_dct():
    n = 6
    grad = NeumannGradient(n)
    assert (grad.matrix != gradient_matrix(n)).nnz == 0
    basis = np.kron(dct_matrix(n), dct_matrix(n))
    assert np.allclose(basis @ basis.T, np.eye(n * n), atol=1e-14)
    laplacian = (grad.matrix.T @ grad.matrix).toarray()
    expected = basis.T @ np.diag(grad.dct_eigenvalues.ravel()) @ basis
    assert np.allclose(laplacian, expected, atol=1e-12)


def test_single_pixel_single_ray_geometry():
    geom = ParallelGeometry(1, 1, 1)
    assert np.allclose(ray_driven_matrix(geom).toarray(), [[1.0]])
    assert np.allclose(pixel_driven_matrix(geom).toarray(), [[1.0]])


@pytest.mark.parametrize("size,angles,bins", [
    (1, 1, 1),
    (16, 2, 16),  # theta = 0 and pi/2: one grid family is skipped
    (8, 3, 8),
    (16, 7, 16),
    (33, 5, 20),
    (20, 12, 45),
    (32, 10, 32),
])
@pytest.mark.parametrize("build,reference", [
    (ray_driven_matrix, projector_reference.ray_driven_matrix),
    (pixel_driven_matrix, projector_reference.pixel_driven_matrix),
], ids=["ray", "pixel"])
def test_projectors_match_loop_reference_bitwise(build, reference, size, angles, bins):
    geom = ParallelGeometry(size, angles, bins)
    got, want = build(geom), reference(geom)
    assert got.shape == want.shape
    assert got.has_canonical_format and want.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), attr


def test_axis_aligned_projection_of_ones():
    geom = ParallelGeometry(16, 2, 16)  # angles 0 and pi/2
    ones = np.ones(16 * 16)
    sino = (ray_driven_matrix(geom) @ ones).reshape(2, 16)
    # every axis-aligned ray crosses the full unit square
    assert np.allclose(sino, 1.0, atol=1e-12)


def test_projectors_preserve_mass():
    geom = ParallelGeometry(32, 10, 32)
    ones = np.ones(32 * 32)
    for mat in (ray_driven_matrix(geom), pixel_driven_matrix(geom)):
        sino = (mat @ ones).reshape(geom.num_angles, geom.num_bins)
        mass = sino.sum(axis=1) * geom.bin_width
        # oblique angles lose corner mass to detector truncation
        assert np.all(mass <= 1.0 + 1e-9)
        assert np.all(mass >= 0.9)


def test_projector_pair_is_genuinely_non_adjoint():
    geom = ParallelGeometry(32, 10, 32)
    pair = build_projector_pair(geom).mismatch_pair()
    rng = np.random.default_rng(5)
    # each operator is consistent with its own adjoint
    assert adjoint_defect(pair.forward, rng) < 1e-10
    assert adjoint_defect(pair.surrogate, rng) < 1e-10
    # but the surrogate adjoint is not the adjoint of the forward map
    crossed = FunctionOperator(
        pair.domain_dim, pair.codomain_dim,
        pair.forward.apply, pair.surrogate.apply_adjoint)
    assert adjoint_defect(crossed, rng) > 1e-6
    assert pair.mismatch_norm > 1e-3


def test_projector_blocks_share_the_gradient():
    geom = ParallelGeometry(16, 4, 16)
    pp = build_projector_pair(geom)
    n2 = geom.image_size**2
    x = np.random.default_rng(1).standard_normal(n2)
    fa = pp.forward.apply(x)
    fv = pp.surrogate.apply(x)
    # Radon blocks differ, gradient blocks agree exactly
    assert not np.allclose(fa[: geom.sinogram_size], fv[: geom.sinogram_size])
    assert np.array_equal(fa[geom.sinogram_size:], fv[geom.sinogram_size:])
    assert np.array_equal(fa[geom.sinogram_size:], pp.gradient.apply(x))


def test_make_sinogram_noise_free_and_deterministic():
    geom = ParallelGeometry(16, 4, 16)
    radon = ray_driven_matrix(geom)
    from mismatch_splitting.operators import MatrixOperator

    op = MatrixOperator(radon)
    img = shepp_logan_phantom(16)
    clean = make_sinogram(op, img, noise_rel=0.0)
    assert np.array_equal(clean, radon @ img.ravel())
    s1 = make_sinogram(op, img, noise_rel=0.01, rng=np.random.default_rng(3))
    s2 = make_sinogram(op, img, noise_rel=0.01, rng=np.random.default_rng(3))
    assert np.array_equal(s1, s2)
    rel = np.linalg.norm(s1 - clean) / np.linalg.norm(clean)
    assert rel == pytest.approx(0.01, rel=0.3)
