import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from mismatch_splitting import operators
from mismatch_splitting.operators import (
    FunctionOperator,
    InnerSystemSolver,
    MatrixOperator,
    MismatchPair,
    PowerIterationError,
    ScaledIdentity,
    SingularInnerSystemError,
    VStackMap,
    estimate_operator_norm,
    estimate_sigma_min,
    load_operator_csv,
)
from mismatch_splitting.tomo import ParallelGeometry, build_projector_pair, ray_driven_matrix
from operator_reference import ZeroOperator, adjoint_defect, save_operator_csv, skew_block


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
    for op in (a - b, VStackMap([a, b]), ScaledIdentity(n, -2.5),
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
    assert np.allclose(op.apply_adjoint(np.array([0.5, 2.0])), mat.T @ [0.5, 2.0])


def test_pair_and_stack_refuse_a_matrix_free_map():
    mat = np.arange(6.0).reshape(2, 3)
    free = FunctionOperator(3, 2, lambda x: mat @ x, lambda y: mat.T @ y)
    with pytest.raises(ValueError, match="matrix-free"):
        MismatchPair(MatrixOperator(mat), free)
    with pytest.raises(ValueError, match="matrix-free"):
        MismatchPair(free, MatrixOperator(mat))
    with pytest.raises(ValueError, match="matrix-free"):
        VStackMap([MatrixOperator(mat), free])


@pytest.mark.parametrize("sparse", [False, True])
def test_operator_difference_is_the_entrywise_matrix_difference(sparse):
    a, b = random_matrix_op(6, 5, 7, sparse), random_matrix_op(7, 5, 7, sparse)
    diff = a - b
    assert isinstance(diff, MatrixOperator)
    assert scipy.sparse.issparse(diff.matrix) == sparse
    assert np.array_equal(diff.as_array(), a.as_array() - b.as_array())
    with pytest.raises(ValueError, match="dimensions"):
        a - random_matrix_op(8, 7, 5)


@pytest.mark.parametrize("size", [8, 16, 32])
def test_two_angle_projector_mismatch_is_rounding_level(size):
    # at 0 and 90 degrees both projectors agree up to rounding
    pair = build_projector_pair(ParallelGeometry(size, 2, size)).mismatch_pair()
    assert 0.0 <= pair.mismatch_norm <= 1e-15


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


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_operator_norm_refuses_non_finite_tol_by_name(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        estimate_operator_norm(MatrixOperator(np.diag([2.0, 1.0])), tol=tol)


def test_operator_norm_nonconvergence_carries_estimate():
    op = MatrixOperator(np.diag([2.0, 1.0]))
    with pytest.raises(PowerIterationError) as exc:
        estimate_operator_norm(op, tol=1e-30, max_iters=1)
    assert exc.value.best_estimate > 0.0
    assert exc.value.residual >= 0.0


def test_operator_norm_matches_dense_svd_on_projector_pair():
    # each estimate must reach the dense SVD, not stop short of it
    pair = build_projector_pair(ParallelGeometry(16, 6, 16)).mismatch_pair()
    block = MatrixOperator(skew_block(pair, 0.7, 0.3))
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


def test_sigma_min_identity_block():
    pair = MismatchPair(ZeroOperator(3, 3), ZeroOperator(3, 3))
    assert abs(estimate_sigma_min(pair, 1.0, 1.0) - 1.0) <= 1e-10


def test_sigma_min_scalar_closed_form():
    # sigma_min of [[1, -1/2], [-1, 1]]
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -0.5))
    assert abs(estimate_sigma_min(pair, 1.0, 1.0) - 0.2807764064044151) <= 1e-10


def _svd_sigma_min(pair, g, f):
    return float(np.linalg.svd(skew_block(pair, g, f), compute_uv=False)[-1])


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12),
       st.floats(0.0, 0.5), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_sigma_min_matches_dense_svd_on_random_pairs(seed, m, n, eta, g, f):
    # ||A - V|| = eta keeps sigma_min >= min(g, f) - eta/2 >= 1/4
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(n)
    e = rng.standard_normal((m, n))
    e *= eta / np.linalg.svd(e, compute_uv=False)[0]
    pair = MismatchPair(MatrixOperator(a), MatrixOperator(a - e))
    ref = _svd_sigma_min(pair, g, f)
    assert abs(estimate_sigma_min(pair, g, f) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("kind", ["quadratic", "projector"])
def test_sigma_min_matches_dense_svd(kind):
    if kind == "quadratic":
        from mismatch_splitting.experiments import QuadraticConfig, _quadratic_operators
        from mismatch_splitting.stepsize import ConvexityProfile, select_mus

        config = QuadraticConfig()
        a, v, _ = _quadratic_operators(config)
        pair = MismatchPair(MatrixOperator(a), MatrixOperator(v))
        _, g, _, f = select_mus(ConvexityProfile(config.alpha, config.beta, pair.mismatch_norm))
    else:
        pair = build_projector_pair(ParallelGeometry(16, 6, 16)).mismatch_pair()
        g, f = 0.7, 0.3
    ref = _svd_sigma_min(pair, g, f)
    assert abs(estimate_sigma_min(pair, g, f) - ref) <= 1e-12 * ref


def test_sigma_min_of_singular_block_raises_naming_the_shifts():
    # [[1, -1], [-1, 1]] is singular: V* = -1, A = 1, g = f = 1
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -1.0))
    with pytest.raises(SingularInnerSystemError, match="g = 1, f = 1"):
        estimate_sigma_min(pair, 1.0, 1.0)


def test_sigma_min_iterative_path_needs_matrices(monkeypatch):
    op = MatrixOperator(np.eye(3))
    monkeypatch.setattr("mismatch_splitting.operators.DENSE_DIM_LIMIT", 2)
    with pytest.raises(ValueError, match="DENSE_DIM_LIMIT"):
        estimate_sigma_min(MismatchPair(op, op), 1.0, 1.0)


def test_inner_system_identity():
    pair = MismatchPair(ZeroOperator(3, 4), ZeroOperator(3, 4))
    rx = np.arange(3.0)
    ry = np.arange(4.0)
    v, w = InnerSystemSolver(pair, 0.5, 0.0, 0.0).solve(rx, ry)
    assert np.allclose(v, rx) and np.allclose(w, ry)


def test_inner_system_scalar_prefactor():
    # A = 1, V* = -alpha, tau = 0.1: inverse has prefactor 1/(1 - alpha tau^2)
    alpha, tau = 0.01, 0.1
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -alpha))
    rx = np.array([1.7])
    ry = np.array([-0.3])
    v, w = InnerSystemSolver(pair, tau, 0.0, 0.0).solve(rx, ry)
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
    v, w = InnerSystemSolver(pair, tau, mu_g, mu_f).solve(rx, ry)
    res_x = (1 + tau * mu_g) * v + tau * pair.surrogate.apply_adjoint(w) - rx
    res_y = -tau * pair.forward.apply(v) + (1 + tau * mu_f) * w - ry
    scale = max(np.linalg.norm(rx), np.linalg.norm(ry), 1.0)
    assert np.linalg.norm(res_x) <= 1e-10 * scale
    assert np.linalg.norm(res_y) <= 1e-10 * scale


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_inner_system_refuses_non_finite_tau_by_name(tau):
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, 0.5))
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        InnerSystemSolver(pair, tau)


def test_inner_system_singularity_names_tau_bound():
    # A = 1, V* = -1, tau = 1: Schur complement 1 - tau^2 = 0
    pair = MismatchPair(ScaledIdentity(1, 1.0), ScaledIdentity(1, -1.0))
    with pytest.raises(SingularInnerSystemError, match="tau"):
        InnerSystemSolver(pair, 1.0, 0.0, 0.0).solve(np.ones(1), np.ones(1))


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


def _woodbury_pairs(size):
    """Mismatched [Radon; gradient] tomography pairs, the one layout the
    woodbury backend takes: a capacitance smaller than the image (4 angles)
    and one larger (12 angles)."""
    return [build_projector_pair(ParallelGeometry(size, angles, size)).mismatch_pair()
            for angles in (4, 12)]


def _other_stacks(size):
    """Mismatched pairs whose shared gradient is not the last of two blocks:
    first, and between two non-shared blocks."""
    proj = build_projector_pair(ParallelGeometry(size, 4, size))
    grad, n = proj.gradient, size * size
    rng = np.random.default_rng(size + 1)
    extra = [MatrixOperator(scipy.sparse.random(6, n, density=0.2, random_state=rng, format="csr"))
             for _ in range(2)]
    return [
        MismatchPair(VStackMap([grad, proj.radon_forward]),
                     VStackMap([grad, proj.radon_surrogate])),
        MismatchPair(VStackMap([proj.radon_forward, grad, extra[0]]),
                     VStackMap([proj.radon_surrogate, grad, extra[1]])),
    ]


def _check_both_block_equations(pair, solver, rng):
    """solve matches the dense domain-side Schur LU to 1e-12 and satisfies
    both block equations."""
    a_mat, v_mat = pair.forward.as_array(), pair.surrogate.as_array()
    n, m = pair.domain_dim, pair.codomain_dim
    tau, a, b = solver.tau, solver.a, solver.b
    lu = scipy.linalg.lu_factor(a * b * np.eye(n) + tau**2 * v_mat.T @ a_mat)
    rx, ry = rng.standard_normal(n), rng.standard_normal(m)

    v_ref = scipy.linalg.lu_solve(lu, b * rx - tau * v_mat.T @ ry)
    w_ref = (ry + tau * a_mat @ v_ref) / b
    v, w = solver.solve(rx, ry)
    assert np.linalg.norm(v - v_ref) <= 1e-12 * np.linalg.norm(v_ref)
    assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)
    scale = np.linalg.norm(np.concatenate([rx, ry]))
    assert np.linalg.norm(a * v + tau * v_mat.T @ w - rx) <= 1e-12 * scale
    assert np.linalg.norm(-tau * a_mat @ v + b * w - ry) <= 1e-12 * scale


@pytest.mark.parametrize("order", [0, 1])
def test_woodbury_solve_any_block_order_matches_dense_schur_lu(order):
    # only [R; D] takes the woodbury backend; other block orders go dense
    # (test_other_stacks_take_the_dense_backend)
    pair = _woodbury_pairs(8)[order]
    rng = np.random.default_rng(order)
    for tau, mu_g, mu_f in ((0.05, 0.0, 0.0), (0.3, 0.5, 0.2), (1.5, 0.1, 0.6)):
        solver = InnerSystemSolver(pair, tau, mu_g, mu_f)
        assert solver.backend == "woodbury"
        _check_both_block_equations(pair, solver, rng)


@pytest.mark.parametrize("order", [0, 1])
def test_other_stacks_take_the_dense_backend(order):
    pair = _other_stacks(8)[order]
    rng = np.random.default_rng(order)
    for tau, mu_g, mu_f in ((0.05, 0.0, 0.0), (0.3, 0.5, 0.2), (1.5, 0.1, 0.6)):
        solver = InnerSystemSolver(pair, tau, mu_g, mu_f)
        assert solver.backend == "dense"
        _check_both_block_equations(pair, solver, rng)


def test_woodbury_solve_does_not_apply_the_non_shared_forward_blocks():
    pair = _woodbury_pairs(8)[0]
    solver = InnerSystemSolver(pair, 0.3, 0.1, 0.2)
    rng = np.random.default_rng(4)
    rx, ry = rng.standard_normal(pair.domain_dim), rng.standard_normal(pair.codomain_dim)
    ref = solver.solve(rx, ry)

    def refuse(x):
        raise AssertionError("R_A v was formed")

    pair.forward.apply = refuse
    for block in pair.forward.blocks:
        if not hasattr(block, "dct_eigenvalues"):
            block.apply = refuse
    v, w = solver.solve(rx, ry)
    assert np.array_equal(v, ref[0]) and np.array_equal(w, ref[1])


@pytest.mark.parametrize("transpose", [False, True])
def test_woodbury_solve_does_not_apply_the_stacked_adjoint(transpose):
    # solve reads V* only through D^T; solve_transpose reads A* only through D^T
    pair = _woodbury_pairs(8)[0]
    solver = InnerSystemSolver(pair, 0.3, 0.1, 0.2)
    solve = solver.solve_transpose if transpose else solver.solve
    rng = np.random.default_rng(5)
    rx, ry = rng.standard_normal(pair.domain_dim), rng.standard_normal(pair.codomain_dim)
    ref = solve(rx, ry)

    def refuse(x):
        raise AssertionError("the stacked adjoint or a non-shared block was applied")

    refused = pair.forward if transpose else pair.surrogate
    refused.apply_adjoint = refuse
    for block in refused.blocks:
        if not hasattr(block, "dct_eigenvalues"):
            block.apply = block.apply_adjoint = refuse
    v, w = solve(rx, ry)
    assert v.tobytes() == ref[0].tobytes() and w.tobytes() == ref[1].tobytes()


def test_capacitance_batching_leaves_the_factors_unchanged(monkeypatch):
    # each column of C is formed on its own, so no batch size changes a bit
    geom = ParallelGeometry(16, 4, 16)
    pair = build_projector_pair(geom).mismatch_pair()

    def factors():
        solver = InnerSystemSolver(pair, 0.3, 0.5, 0.2)
        assert solver.backend == "woodbury"
        return solver._lu[0].tobytes(), solver._lu[1].tobytes(), solver.rcond

    ref = factors()
    rows = geom.sinogram_size  # the capacitance's order
    assert rows > operators._CAPACITANCE_BATCH
    for batch in (1, 7, rows, 4 * rows):  # 7: a ragged last batch
        monkeypatch.setattr(operators, "_CAPACITANCE_BATCH", batch)
        assert factors() == ref


def test_woodbury_build_peak_memory_stays_small():
    # this build peaked at 37 MiB with 256-row capacitance batches, 13 MiB with 32
    pair = build_projector_pair(ParallelGeometry(64, 10, 64)).mismatch_pair()
    tracemalloc.start()
    try:
        solver = InnerSystemSolver(pair, 0.3, 0.5, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.backend == "woodbury"
    assert peak < 20 * 2**20


def _sparse_stack(seed):
    rng = np.random.default_rng(seed)
    return VStackMap([MatrixOperator(scipy.sparse.random(m, 40, density=0.15, random_state=rng,
                                                         format="csr"))
                      for m in (17, 30, 9)])


def test_vstack_apply_is_one_stacked_product_bitwise():
    stack = _sparse_stack(1)
    x = np.random.default_rng(2).standard_normal(stack.domain_dim)
    assert scipy.sparse.issparse(stack.matrix)
    assert stack.matrix is stack.matrix  # built once
    blockwise = np.concatenate([b.matrix @ x for b in stack.blocks])
    assert stack.apply(x).tobytes() == blockwise.tobytes()


def test_vstack_stacked_adjoint_matches_block_sum():
    stack = _sparse_stack(3)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(stack.codomain_dim)
    offsets = np.cumsum([0] + [b.codomain_dim for b in stack.blocks])
    block_sum = sum(b.matrix.T @ y[lo:hi]
                    for b, lo, hi in zip(stack.blocks, offsets[:-1], offsets[1:]))
    got = stack.apply_adjoint(y)
    assert np.linalg.norm(got - block_sum) <= 1e-14 * np.linalg.norm(block_sum)
    assert adjoint_defect(stack, rng) < 1e-14


def test_vstack_refuses_matrix_free_block():
    mat = np.random.default_rng(5).standard_normal((4, 6))
    free = FunctionOperator(6, 4, lambda x: mat @ x, lambda y: mat.T @ y)
    with pytest.raises(ValueError, match="matrix-free"):
        VStackMap([random_matrix_op(6, 3, 6), free])


def test_dense_solve_equals_lu_solve_on_its_factors_bitwise():
    m, n, tau, mu_g, mu_f = 20, 30, 0.4, 0.1, 0.2
    a, b = 1.0 + tau * mu_g, 1.0 + tau * mu_f
    pair = MismatchPair(random_matrix_op(11, m, n), random_matrix_op(12, m, n))
    solver = InnerSystemSolver(pair, tau, mu_g, mu_f)
    assert solver.backend == "dense"
    rng = np.random.default_rng(13)
    rx, ry = rng.standard_normal(n), rng.standard_normal(m)
    # the Woodbury formula with B = ab I and no D terms
    t = scipy.linalg.lu_solve(solver._lu, pair.forward.matrix @ rx / a + ry / tau)
    v_ref = (rx - pair.surrogate.matrix.T @ t / b) / a
    w_ref = t / (tau * b)
    v, w = solver.solve(rx, ry)
    assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("m, n", [(20, 30), (30, 20)])
def test_dense_pairs_factor_the_smaller_side_capacitance(m, n):
    # a tall pair is solved as its wide swap: C is min(m, n) square
    pair = MismatchPair(random_matrix_op(m, m, n), random_matrix_op(n, m, n))
    rng = np.random.default_rng(m + n)
    k = min(m, n)
    for tau, mu_g, mu_f in ((0.05, 0.0, 0.0), (0.1, 0.5, 0.2), (0.2, 0.1, 0.6)):
        solver = InnerSystemSolver(pair, tau, mu_g, mu_f)
        assert solver.backend == "dense" and solver._lu[0].shape == (k, k)
        _check_both_block_equations(pair, solver, rng)


@pytest.mark.parametrize("m, n", [(200, 400), (400, 200)])
def test_dense_build_holds_one_capacitance(m, n):
    # C is formed and factored in place, its operands passed to dgemm
    # uncopied: one k x k array, where forming it beside a copy for dgetrf and
    # a temporary for its 1-norm took three
    pair = MismatchPair(random_matrix_op(16, m, n), random_matrix_op(17, m, n))
    k = min(m, n)
    tracemalloc.start()
    try:
        solver = InnerSystemSolver(pair, 0.05, 0.1, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.backend == "dense" and solver._lu[0].shape == (k, k)
    assert peak < 2.5 * k * k * 8


@pytest.mark.parametrize("woodbury", [False, True])
def test_inner_solve_rejects_non_finite_rhs(woodbury):
    if woodbury:
        pair = _woodbury_pairs(8)[0]
    else:
        pair = MismatchPair(random_matrix_op(14, 20, 30), random_matrix_op(15, 20, 30))
    solver = InnerSystemSolver(pair, 0.3)
    assert solver.backend == ("woodbury" if woodbury else "dense")
    rx, ry = np.ones(pair.domain_dim), np.ones(pair.codomain_dim)
    rx[3] = np.nan
    with pytest.raises(ValueError):
        solver.solve(rx, ry)


def _check_transposed_solve(solver, rng):
    """solve_transpose solves M^T u = s to 1e-12, and <M^-1 r, s> = <r, M^-T s>."""
    a_mat, v_mat = solver.pair.forward.as_array(), solver.pair.surrogate.as_array()
    m, n = a_mat.shape
    system = np.block([[solver.a * np.eye(n), solver.tau * v_mat.T],
                       [-solver.tau * a_mat, solver.b * np.eye(m)]])
    r, s = rng.standard_normal((2, n + m))
    got = np.concatenate(solver.solve_transpose(s[:n], s[n:]))
    assert np.linalg.norm(system.T @ got - s) <= 1e-12 * np.linalg.norm(s)
    inv_r = np.concatenate(solver.solve(r[:n], r[n:]))
    assert abs(inv_r @ s - r @ got) <= 1e-12 * np.linalg.norm(inv_r) * np.linalg.norm(s)


@pytest.mark.parametrize("m, n", [(20, 30), (30, 20)])
def test_solve_transpose_dense_pair(m, n):
    rng = np.random.default_rng(m)
    a_mat, v_mat = (rng.standard_normal((m, n)) / np.sqrt(n) for _ in range(2))
    pair = MismatchPair(MatrixOperator(a_mat), MatrixOperator(v_mat))
    for tau, mu_g, mu_f in ((0.05, 0.0, 0.0), (0.4, 0.1, 0.2), (1.5, 0.1, 0.6)):
        solver = InnerSystemSolver(pair, tau, mu_g, mu_f)
        assert solver.backend == "dense"
        _check_transposed_solve(solver, rng)


@pytest.mark.parametrize("order", [0, 1])
def test_solve_transpose_woodbury_stacks(order):
    pair = _woodbury_pairs(8)[order]
    rng = np.random.default_rng(order)
    for tau, mu_g, mu_f in ((0.05, 0.0, 0.0), (0.3, 0.5, 0.2), (1.5, 0.1, 0.6)):
        solver = InnerSystemSolver(pair, tau, mu_g, mu_f)
        assert solver.backend == "woodbury"
        _check_transposed_solve(solver, rng)


def test_csv_round_trip(tmp_path):
    op = random_matrix_op(5, 3, 4)
    path = tmp_path / "op.csv"
    save_operator_csv(op, path)
    assert path.read_text().splitlines()[0] == "3,4"
    loaded = load_operator_csv(path)
    assert np.allclose(loaded.as_array(), op.as_array())


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((0, 3)), "zero dimension"),
    (scipy.sparse.csr_matrix((3, 0)), "zero dimension"),
    (np.array([[1.0, np.inf]]), "non-finite entry"),
    (scipy.sparse.csr_matrix(np.array([[0.0, np.nan]])), "non-finite entry"),
])
def test_matrix_operator_refuses_empty_or_non_finite_matrix(matrix, message):
    with pytest.raises(ValueError, match=message):
        MatrixOperator(matrix)
