import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from mismatch_splitting.operators import (
    BlockSkewOperator,
    DifferenceMap,
    FunctionOperator,
    InnerSystemSolver,
    MatrixOperator,
    MismatchPair,
    PowerIterationError,
    ScaledIdentity,
    SingularInnerSystemError,
    VStackMap,
    ZeroOperator,
    adjoint_defect,
    estimate_operator_norm,
    estimate_sigma_min,
    load_operator_csv,
    save_operator_csv,
    solve_inner_system,
)
from mismatch_splitting.tomo import ParallelGeometry, build_projector_pair, ray_driven_matrix


def random_matrix_op(seed, m, n, sparse=False):
    mat = np.random.default_rng(seed).standard_normal((m, n))
    if sparse:
        mat = scipy.sparse.csr_matrix(np.where(np.abs(mat) > 1.0, mat, 0.0))
    return MatrixOperator(mat)


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12),
       st.booleans())
def test_matrix_operator_adjoint_consistency(seed, m, n, sparse):
    op = random_matrix_op(seed, m, n, sparse)
    assert adjoint_defect(op, np.random.default_rng(seed + 1)) < 1e-10


@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8))
def test_composite_operator_adjoint_consistency(seed, m, n):
    a = random_matrix_op(seed, m, n)
    b = random_matrix_op(seed + 1, m, n)
    probe = np.random.default_rng(seed + 2)
    for op in (DifferenceMap(a, b), VStackMap([a, b]), ScaledIdentity(n, -2.5),
               ZeroOperator(n, m)):
        assert adjoint_defect(op, probe) < 1e-10


def test_matrix_operator_adjoint_equals_transpose_product():
    geom = ParallelGeometry(32, 10, 32)
    pair = build_projector_pair(geom)
    rng = np.random.default_rng(3)
    for op in (MatrixOperator(ray_driven_matrix(geom)), pair.gradient,
               random_matrix_op(4, 30, 20)):
        y = rng.standard_normal(op.codomain_dim)
        assert np.array_equal(op.apply_adjoint(y), op.matrix.T @ y)


def test_function_operator_wraps_callables():
    mat = np.arange(6.0).reshape(2, 3)
    op = FunctionOperator(3, 2, lambda x: mat @ x, lambda y: mat.T @ y)
    x = np.array([1.0, -1.0, 2.0])
    assert np.allclose(op.apply(x), mat @ x)
    assert op.matrix is None
    assert np.allclose(op.as_array(), mat)


def test_operator_norm_zero_operator_is_exactly_zero():
    assert estimate_operator_norm(ZeroOperator(7, 4)) == 0.0


def test_operator_norm_diagonal():
    op = MatrixOperator(np.diag([3.0, 1.0]))
    assert abs(estimate_operator_norm(op) - 3.0) <= 1e-8


@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 40))
def test_operator_norm_matches_svd(seed, m, n):
    op = random_matrix_op(seed, m, n)
    ref = float(np.linalg.svd(op.as_array(), compute_uv=False)[0])
    assert abs(estimate_operator_norm(op) - ref) <= 1e-6 * max(ref, 1e-12)


def test_operator_norm_nonconvergence_carries_estimate():
    op = MatrixOperator(np.diag([2.0, 1.0]))
    with pytest.raises(PowerIterationError) as exc:
        estimate_operator_norm(op, tol=1e-30, max_iters=1)
    assert exc.value.best_estimate > 0.0
    assert exc.value.residual >= 0.0


def test_operator_norm_matches_dense_svd_on_projector_pair():
    # each estimate must reach the dense SVD, not stop short of it
    pair = build_projector_pair(ParallelGeometry(16, 6, 16)).mismatch_pair()
    block = BlockSkewOperator(pair, 0.7, 0.3)
    for op in (pair.forward, pair.surrogate, pair.forward - pair.surrogate, block):
        ref = float(np.linalg.svd(op.as_array(), compute_uv=False)[0])
        assert abs(estimate_operator_norm(op) - ref) <= 1e-10 * ref


def test_operator_norm_wide_matrix_uses_codomain_gram():
    mat = np.random.default_rng(5).standard_normal((6, 50))
    calls = []

    def forward(x):
        calls.append("apply")
        return mat @ x

    def adjoint(y):
        calls.append("adjoint")
        return mat.T @ y

    ref = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert abs(estimate_operator_norm(FunctionOperator(50, 6, forward, adjoint)) - ref) <= 1e-12 * ref
    # after the zero probe, Lanczos runs on M M^T (6 x 6): adjoint first
    assert calls[:3] == ["apply", "adjoint", "apply"]


def test_operator_norm_arpack_nonconvergence_raises():
    op = random_matrix_op(3, 200, 200)
    with pytest.raises(PowerIterationError) as exc:
        estimate_operator_norm(op, tol=1e-30, max_iters=1)
    assert isinstance(exc.value.__cause__, scipy.sparse.linalg.ArpackNoConvergence)
    assert exc.value.best_estimate > 0.0
    assert exc.value.residual > 0.0


def test_projector_mismatch_norm_matches_dense_svd():
    geom = ParallelGeometry(32, 10, 32)
    pair = build_projector_pair(geom).mismatch_pair()
    diff = pair.forward.as_array() - pair.surrogate.as_array()
    ref = float(np.linalg.svd(diff, compute_uv=False)[0])
    assert abs(pair.mismatch_norm - ref) <= 1e-6 * ref


def test_mismatch_pair_dimension_check():
    with pytest.raises(ValueError):
        MismatchPair(ZeroOperator(3, 2), ZeroOperator(2, 3))


def test_mismatch_pair_matched_has_zero_norm():
    op = random_matrix_op(0, 5, 7)
    pair = MismatchPair(op, op)
    assert pair.mismatch_norm == 0.0


@pytest.mark.parametrize("kind", ["dense", "projector"])
def test_block_skew_matrix_equals_column_build(kind):
    if kind == "dense":
        from mismatch_splitting.experiments import QuadraticConfig, _quadratic_operators

        a, v, _ = _quadratic_operators(QuadraticConfig())
        pair = MismatchPair(MatrixOperator(a), MatrixOperator(v))
    else:
        pair = build_projector_pair(ParallelGeometry(16, 10, 16)).mismatch_pair()
    block = BlockSkewOperator(pair, 0.7, 0.3)
    assert scipy.sparse.issparse(block.matrix) == (kind == "projector")
    columns = np.column_stack([block.apply(e) for e in np.eye(block.domain_dim)])
    # equal entries, so the dense-path sigma_min is bit-identical too
    assert np.array_equal(block.as_array(), columns)


def test_sigma_min_identity_block():
    pair = MismatchPair(ZeroOperator(3, 3), ZeroOperator(3, 3))
    block = BlockSkewOperator(pair, 1.0, 1.0)
    assert abs(estimate_sigma_min(block) - 1.0) <= 1e-10


def test_sigma_min_scalar_closed_form():
    # sigma_min of [[1, -1/2], [-1, 1]]
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -0.5))
    block = BlockSkewOperator(pair, 1.0, 1.0)
    assert abs(estimate_sigma_min(block) - 0.2807764064044151) <= 1e-10


def test_sigma_min_iterative_path_needs_matrices(monkeypatch):
    op = FunctionOperator(3, 3, lambda x: x, lambda y: y)
    block = BlockSkewOperator(MismatchPair(op, op), 1.0, 1.0)
    monkeypatch.setattr("mismatch_splitting.operators.DENSE_DIM_LIMIT", 2)
    with pytest.raises(ValueError):
        estimate_sigma_min(block)


def test_inner_system_identity():
    pair = MismatchPair(ZeroOperator(3, 4), ZeroOperator(3, 4))
    rx = np.arange(3.0)
    ry = np.arange(4.0)
    v, w = solve_inner_system(pair, 0.5, 0.0, 0.0, rx, ry)
    assert np.allclose(v, rx) and np.allclose(w, ry)


def test_inner_system_scalar_prefactor():
    # A = 1, V* = -alpha, tau = 0.1: inverse has prefactor 1/(1 - alpha tau^2)
    alpha, tau = 0.01, 0.1
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -alpha))
    rx = np.array([1.7])
    ry = np.array([-0.3])
    v, w = solve_inner_system(pair, tau, 0.0, 0.0, rx, ry)
    beta = 1.0 / (1.0 - alpha * tau**2)
    assert abs(v[0] - beta * (rx[0] + alpha * tau * ry[0])) <= 1e-14
    assert abs(w[0] - beta * (tau * rx[0] + ry[0])) <= 1e-14


@given(st.integers(0, 10_000), st.floats(0.05, 2.0), st.floats(0.0, 0.5),
       st.floats(0.0, 0.5))
@settings(max_examples=100)
def test_inner_system_residual(seed, tau, mu_g, mu_f):
    a = random_matrix_op(seed, 20, 30)
    v_op = random_matrix_op(seed + 1, 20, 30)
    pair = MismatchPair(a, v_op)
    rng = np.random.default_rng(seed + 2)
    rx = rng.standard_normal(30)
    ry = rng.standard_normal(20)
    v, w = solve_inner_system(pair, tau, mu_g, mu_f, rx, ry)
    res_x = (1 + tau * mu_g) * v + tau * pair.apply_surrogate_adjoint(w) - rx
    res_y = -tau * pair.forward.apply(v) + (1 + tau * mu_f) * w - ry
    scale = max(np.linalg.norm(rx), np.linalg.norm(ry), 1.0)
    assert np.linalg.norm(res_x) <= 1e-10 * scale
    assert np.linalg.norm(res_y) <= 1e-10 * scale


def test_inner_system_cache_and_invalidation():
    pair = MismatchPair(random_matrix_op(0, 4, 4), random_matrix_op(1, 4, 4))
    s1 = pair.inner_solver(0.3)
    s2 = pair.inner_solver(0.3)
    s3 = pair.inner_solver(0.3, mu_g=0.1)
    assert s1 is s2 and s1 is not s3
    pair.clear_cache()
    assert pair.inner_solver(0.3) is not s1


def test_inner_system_singularity_names_tau_bound():
    # A = 1, V* = -1, tau = 1: Schur complement 1 - tau^2 = 0
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -1.0))
    with pytest.raises(SingularInnerSystemError, match="tau"):
        solve_inner_system(pair, 1.0, 0.0, 0.0, np.ones(1), np.ones(1))


def test_inner_system_singularity_guard_above_dense_limit():
    # A = I, V* = -I / tau^2: the Schur complement I + tau^2 A V* is exactly 0
    d, tau = 2001, 0.5
    pair = MismatchPair(MatrixOperator(np.eye(d)), MatrixOperator(-np.eye(d) / tau**2))
    with pytest.raises(SingularInnerSystemError, match="tau"):
        InnerSystemSolver(pair, tau)


def test_small_sparse_near_singular_pair_is_guarded():
    # A = I and a diagonal V with V_00 = -(1 - 1e-16) / tau^2: entry 0 of the
    # Schur complement I + tau^2 A V* is ~1e-16 while the others are ~1
    d, tau = 300, 0.5
    diag = np.full(d, 1.0)
    diag[0] = -(1.0 - 1e-16) / tau**2
    pair = MismatchPair(MatrixOperator(scipy.sparse.identity(d, format="csr")),
                        MatrixOperator(scipy.sparse.diags(diag).tocsr()))
    with pytest.raises(SingularInnerSystemError, match="tau"):
        InnerSystemSolver(pair, tau)


def test_inner_system_sparse_pair_solves_on_dense_lu():
    d, tau, mu_g, mu_f = 300, 0.4, 0.1, 0.2
    a, b = 1.0 + tau * mu_g, 1.0 + tau * mu_f
    rng = np.random.default_rng(9)
    a_mat, v_mat = (scipy.sparse.diags(rng.uniform(0.5, 1.5, d)).tocsr() for _ in range(2))
    solver = InnerSystemSolver(MismatchPair(MatrixOperator(a_mat), MatrixOperator(v_mat)),
                               tau, mu_g, mu_f)
    assert solver.backend == "dense"
    eye = np.eye(d)
    system = np.block([[a * eye, tau * v_mat.T.toarray()], [-tau * a_mat.toarray(), b * eye]])
    rhs = rng.standard_normal(2 * d)
    got = np.concatenate(solver.solve(rhs[:d], rhs[d:]))
    assert np.linalg.norm(system @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)


def _matrix_free(mat):
    return FunctionOperator(mat.shape[1], mat.shape[0], lambda x: mat @ x, lambda y: mat.T @ y)


def test_inner_system_matrix_free_pair_solves_iteratively():
    m, n, tau, mu_g, mu_f = 20, 30, 0.4, 0.1, 0.2
    a, b = 1.0 + tau * mu_g, 1.0 + tau * mu_f
    rng = np.random.default_rng(5)
    a_mat, v_mat = (rng.standard_normal((m, n)) / np.sqrt(n) for _ in range(2))
    solver = InnerSystemSolver(MismatchPair(_matrix_free(a_mat), _matrix_free(v_mat)),
                               tau, mu_g, mu_f)
    assert solver.backend == "iterative"
    system = np.block([[a * np.eye(n), tau * v_mat.T], [-tau * a_mat, b * np.eye(m)]])
    rhs = rng.standard_normal(n + m)
    got = np.concatenate(solver.solve(rhs[:n], rhs[n:]))
    assert np.linalg.norm(system @ got - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_inner_system_matrix_free_singular_pair_names_tau():
    # A = I, V* = -I / tau^2: the Schur complement I + tau^2 A V* is exactly 0
    d, tau = 5, 0.5
    pair = MismatchPair(_matrix_free(np.eye(d)), _matrix_free(-np.eye(d) / tau**2))
    solver = InnerSystemSolver(pair, tau)
    assert solver.backend == "iterative"
    with pytest.raises(SingularInnerSystemError, match="tau"):
        solver.solve(np.ones(d), np.ones(d))


@pytest.mark.parametrize("size", [8, 16])
@pytest.mark.parametrize("matched", [False, True])
def test_woodbury_inner_solve_matches_dense_schur_lu(size, matched):
    geom = ParallelGeometry(size, 4, size)
    pair = build_projector_pair(geom).mismatch_pair()
    if matched:
        pair = pair.matched()
    a_mat, v_mat = pair.forward.as_array(), pair.surrogate.as_array()
    n = pair.domain_dim
    rng = np.random.default_rng(size)
    for tau, mu_g, mu_f in ((0.05, 0.0, 0.0), (0.3, 0.5, 0.2), (1.5, 0.1, 0.6)):
        solver = InnerSystemSolver(pair, tau, mu_g, mu_f)
        assert solver.backend == "woodbury"
        a, b = 1.0 + tau * mu_g, 1.0 + tau * mu_f
        lu = scipy.linalg.lu_factor(a * b * np.eye(n) + tau**2 * v_mat.T @ a_mat)
        rx = rng.standard_normal(n)
        ry = rng.standard_normal(pair.codomain_dim)

        v_ref = scipy.linalg.lu_solve(lu, b * rx - tau * v_mat.T @ ry)
        ref = np.concatenate([v_ref, (ry + tau * a_mat @ v_ref) / b])
        got = np.concatenate(solver.solve(rx, ry))
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_csv_round_trip(tmp_path):
    op = random_matrix_op(5, 3, 4)
    path = tmp_path / "op.csv"
    save_operator_csv(op, path)
    assert path.read_text().splitlines()[0] == "3,4"
    loaded = load_operator_csv(path)
    assert np.allclose(loaded.as_array(), op.as_array())
