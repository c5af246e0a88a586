"""Linear-operator abstraction, block composition, and spectral estimation.

Operators are finite-dimensional and act on flat numpy vectors.  A forward
discretization and a surrogate backward discretization are carried as two
separate maps; each map is adjoint-consistent on its own, the mismatch lives
in the pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

POWER_SEED = 0x5EED
DENSE_DIM_LIMIT = 2000
# a factorisation whose LAPACK 1-norm reciprocal condition estimate falls
# below this is treated as singular
RCOND_FLOOR = 1e-14
# Woodbury capacitance columns per batch: 32 fit a 2 MiB L2 to 64^2 (256: 1.7x slower)
_CAPACITANCE_BATCH = 32


class PowerIterationError(RuntimeError):
    """An operator norm estimate did not reach the requested tolerance.

    Raised by estimate_operator_norm when ARPACK does not converge or its
    Ritz pair fails the residual check; ``best_estimate`` is the norm
    estimate and ``residual`` the Gram residual ||G u - lambda u|| behind it.
    The name is kept from the power iteration it replaced.
    """

    def __init__(self, message, best_estimate, residual):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.residual = residual


class SingularInnerSystemError(RuntimeError):
    """The 2x2 block system is singular or numerically unusable."""


class MatrixOperator:
    """A bounded linear operator backed by a dense ndarray or scipy sparse
    matrix, with its exact transpose as adjoint (mismatch is modeled by
    carrying two distinct maps, never by a sloppy adjoint)."""

    def __init__(self, matrix):
        if not scipy.sparse.issparse(matrix):
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2:
                raise ValueError("matrix must be 2-dimensional")
        if 0 in matrix.shape:
            raise ValueError(f"matrix has a zero dimension: shape {matrix.shape}")
        if not np.isfinite(matrix.data if scipy.sparse.issparse(matrix) else matrix).all():
            raise ValueError("matrix has a non-finite entry")
        self._matrix = matrix
        self._adjoint = _transposed(matrix)
        self.codomain_dim, self.domain_dim = matrix.shape

    @property
    def matrix(self):
        return self._matrix

    def apply(self, x):
        return self._matrix @ np.asarray(x, dtype=float)

    def apply_adjoint(self, y):
        return self._adjoint @ np.asarray(y, dtype=float)

    def as_array(self):
        """The matrix as a dense ndarray."""
        m = self._matrix
        return m.toarray() if scipy.sparse.issparse(m) else m

    def __sub__(self, other):
        """The entrywise difference of the two matrices."""
        if self._matrix.shape != other.matrix.shape:
            raise ValueError("operator dimensions do not match")
        return MatrixOperator(self._matrix - other.matrix)


def _transposed(matrix):
    """The transpose to multiply with: one CSR copy for a sparse matrix, whose
    ``.T`` would otherwise be rebuilt on every product, and the ``.T`` view
    for an ndarray, so that dense products round exactly as before."""
    return matrix.T.tocsr() if scipy.sparse.issparse(matrix) else matrix.T


def _require_matrices(ops, what):
    if not all(isinstance(op, MatrixOperator) for op in ops):
        raise ValueError(f"{what} must be MatrixOperators; a matrix-free map is refused")


class FunctionOperator:
    """Matrix-free map from a forward/adjoint callable pair, for
    estimate_operator_norm; a MismatchPair or VStackMap refuses it."""

    def __init__(self, domain_dim, codomain_dim, forward, adjoint):
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        self._forward = forward
        self._adjoint = adjoint

    def apply(self, x):
        return self._forward(np.asarray(x, dtype=float))

    def apply_adjoint(self, y):
        return self._adjoint(np.asarray(y, dtype=float))


class ScaledIdentity(MatrixOperator):
    """``scale * I`` of order ``dim``, in CSR."""

    def __init__(self, dim, scale=1.0):
        super().__init__(float(scale) * scipy.sparse.eye(dim, format="csr"))


class VStackMap(MatrixOperator):
    """Vertical stack (A1; A2; ...) of MatrixOperators sharing one domain: a
    MatrixOperator on the stacked matrix, CSR if any block's matrix is
    sparse and an ndarray otherwise.  A matrix-free block raises ValueError.
    ``blocks`` stays for InnerSystemSolver's Woodbury detection."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        _require_matrices(self.blocks, "stacked blocks")
        if len({b.domain_dim for b in self.blocks}) != 1:
            raise ValueError("stacked blocks must share the domain dimension")
        mats = [b.matrix for b in self.blocks]
        if any(scipy.sparse.issparse(m) for m in mats):
            mat = scipy.sparse.vstack([scipy.sparse.csr_matrix(m) for m in mats], format="csr")
        else:
            mat = np.vstack(mats)
        super().__init__(mat)


def estimate_operator_norm(op, tol=1e-9, max_iters=5000):
    """Spectral norm of ``op``: sqrt of the largest eigenvalue lambda of the
    Gram operator G of its smaller side (M^T M, or M M^T when the codomain is
    smaller), found by ARPACK Lanczos (``eigsh``, at most ``max_iters``
    restarts).

    Deterministic seeded start, mapped through M for the codomain side;
    returns exactly 0.0 for the zero operator, and the norm of the single
    column or row directly when a side has dimension 1.  The result is
    accepted only when the Ritz pair (lambda, u) has residual
    ||G u - lambda u|| <= tol * lambda; otherwise, or when ARPACK does not
    converge, PowerIterationError carries the best estimate and residual.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, m = op.domain_dim, op.codomain_dim
    if n == 1:
        return float(np.linalg.norm(op.apply(np.ones(1))))
    if m == 1:
        return float(np.linalg.norm(op.apply_adjoint(np.ones(1))))
    rng = np.random.default_rng(POWER_SEED)
    x = rng.standard_normal(n)
    y = op.apply(x)
    # two independent probes distinguish the zero operator from an unlucky start
    if np.linalg.norm(y) == 0.0:
        x = rng.standard_normal(n)
        y = op.apply(x)
        if np.linalg.norm(y) == 0.0:
            return 0.0

    if n <= m:
        v0 = x
        gram = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda u: op.apply_adjoint(op.apply(u)), dtype=float)
    else:
        v0 = y
        gram = scipy.sparse.linalg.LinearOperator(
            (m, m), matvec=lambda u: op.apply(op.apply_adjoint(u)), dtype=float)
    try:
        lams, vecs = scipy.sparse.linalg.eigsh(
            gram, k=1, which="LA", v0=v0, tol=tol, maxiter=max_iters)
        cause = None
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        lams, vecs, cause = exc.eigenvalues, exc.eigenvectors, exc
    if lams.size:
        lam, u = float(lams[-1]), vecs[:, -1]
    else:
        # nothing converged: fall back on the Rayleigh quotient of the start
        u = v0 / np.linalg.norm(v0)
        lam = float(u @ gram.matvec(u))
    residual = float(np.linalg.norm(gram.matvec(u) - lam * u))
    if cause is None and residual <= tol * lam:
        return math.sqrt(lam)
    reason = (f"ARPACK did not converge within max_iters = {max_iters}" if cause is not None
              else "the Ritz residual is above tol * lambda")
    raise PowerIterationError(
        f"operator norm estimate: {reason} (residual {residual:.3e}, "
        f"lambda {lam:.6g}, tol {tol:g})",
        best_estimate=math.sqrt(max(lam, 0.0)),
        residual=residual,
    ) from cause


@dataclass
class MismatchPair:
    """Forward map A together with the surrogate V whose adjoint plays V*.

    Both are MatrixOperators of identical dimensions (ValueError otherwise,
    and for a matrix-free map)."""

    forward: MatrixOperator
    surrogate: MatrixOperator
    _mismatch_norm: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        f, s = self.forward, self.surrogate
        _require_matrices((f, s), "forward and surrogate")
        if (f.domain_dim, f.codomain_dim) != (s.domain_dim, s.codomain_dim):
            raise ValueError("forward and surrogate must share identical dimensions")

    @property
    def domain_dim(self):
        return self.forward.domain_dim

    @property
    def codomain_dim(self):
        return self.forward.codomain_dim

    @property
    def mismatch_norm(self):
        """||A - V||, estimated once by estimate_operator_norm (Lanczos on
        the Gram operator of the smaller side) on the entrywise difference
        of the two matrices, and cached."""
        if self._mismatch_norm is None:
            self._mismatch_norm = estimate_operator_norm(self.forward - self.surrogate)
        return self._mismatch_norm

    def matched(self):
        """The adjoint-consistent pair using the true adjoint of ``forward``."""
        return MismatchPair(self.forward, self.forward)


def estimate_sigma_min(pair, g, f):
    """Smallest singular value of the shifted skew block
    M = [[g I, V*], [-A, f I]] of ``pair``, as 1/||M^{-1}||_2.

    ``solve`` and ``solve_transpose`` of an InnerSystemSolver at tau = 1,
    a = g, b = f apply M^{-1} and M^{-T}; estimate_operator_norm takes the
    norm with its residual check.  The shifts must be positive (ValueError);
    a singular block raises SingularInnerSystemError naming them.  A
    diagnostic for blocks of at most DENSE_DIM_LIMIT total rows (domain plus
    codomain dimension), reported next to the closed-form bound of the
    step-size plan; larger blocks raise ValueError and should use
    stepsize.sigma_min_lower_bound.
    """
    n, dim = pair.domain_dim, pair.domain_dim + pair.codomain_dim
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"the sigma_min diagnostic needs at most DENSE_DIM_LIMIT = {DENSE_DIM_LIMIT} "
            f"rows, the block has {dim}; use the closed-form bound "
            "stepsize.sigma_min_lower_bound instead")
    try:
        solver = InnerSystemSolver(pair, 1.0, g - 1.0, f - 1.0)
    except SingularInnerSystemError as exc:
        raise SingularInnerSystemError(
            f"the shifted skew block with shifts g = {g:.6g}, f = {f:.6g} is "
            "singular to working precision") from exc
    inverse = FunctionOperator(
        dim, dim, lambda u: np.concatenate(solver.solve(u[:n], u[n:])),
        lambda u: np.concatenate(solver.solve_transpose(u[:n], u[n:])))
    return 1.0 / estimate_operator_norm(inverse)


def dct_matrix(n):
    """Orthonormal DCT-II matrix: row k is s_k cos(pi k (i + 1/2) / n)."""
    k = np.arange(n)[:, None]
    mat = math.sqrt(2.0 / n) * np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
    mat[0] /= math.sqrt(2.0)
    return mat


class InnerSystemSolver:
    """Factored solver for the 2x2 block system [[a I, tau V*], [-tau A, b I]]
    with a = 1 + tau*mu_g, b = 1 + tau*mu_f; README's "Inner block solver"
    derives it.

    ``solve`` solves the system of one PDDR iteration, ``solve_transpose`` the
    transposed one on the same factors.  ``backend`` is "woodbury" when
    forward and surrogate are the stacks [R_A; D] and [R_V; D] of one shared
    block exposing ``image_shape`` and ``dct_eigenvalues``
    (tomo.NeumannGradient), and "dense" otherwise.  Construction LU-factors
    one capacitance, in ``factor_s`` seconds of wall time; ``rcond`` is its
    dgecon estimate, and below RCOND_FLOOR SingularInnerSystemError is
    raised.  A non-positive tau, a or b, or a non-finite right-hand side
    raises ValueError.
    """

    def __init__(self, pair, tau, mu_g=0.0, mu_f=0.0):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.pair = pair
        self.tau = float(tau)
        self.a = 1.0 + tau * mu_g  # primal diagonal
        self.b = 1.0 + tau * mu_f  # dual diagonal
        if not (self.a > 0 and self.b > 0):
            raise ValueError("Schur elimination needs positive diagonals a and b")
        t0 = time.perf_counter()
        self._build()
        self.factor_s = time.perf_counter() - t0

    def _build(self):
        self._grad, (fwd, sur) = (self._shared_dct_block()
                                  or (None, (self.pair.forward, self.pair.surrogate)))
        self.backend = "dense" if self._grad is None else "woodbury"
        t2, ab = self.tau**2, self.a * self.b
        r_a, r_v = fwd.matrix, sur.matrix
        # a tall pair without D is solved as its swap (w, v), a wide pair with
        # A' = -V^T, V' = -A^T and a, b exchanged; _solve folds the signs into tau
        self._swap = self._grad is None and r_a.shape[0] > r_a.shape[1]
        # (R_A, R_V^T) for solve, (R_V, R_A^T) for solve_transpose, up to sign
        self._sides = (((sur._adjoint, r_a), (fwd._adjoint, r_v)) if self._swap
                       else ((r_a, sur._adjoint), (r_v, fwd._adjoint)))
        left, right = self._sides[0]
        cap = np.eye(left.shape[0], order="F")
        cap /= t2
        if self._grad is not None:
            rows, cols = self._grad.image_shape
            self._dct = (dct_matrix(rows), dct_matrix(cols))
            self._base_eig = ab + t2 * np.reshape(self._grad.dct_eigenvalues, (rows, cols))
            for lo in range(0, cap.shape[0], _CAPACITANCE_BATCH):
                block = r_v[lo:lo + _CAPACITANCE_BATCH]
                block = block.toarray() if scipy.sparse.issparse(block) else np.asarray(block)
                # rows of B^{-1} R_V^T (B is symmetric) -> columns of R_A B^{-1} R_V^T
                cap[:, lo:lo + block.shape[0]] += r_a @ self._base_solve(block).T
        elif scipy.sparse.issparse(left) or scipy.sparse.issparse(right):
            prod = left @ right / ab
            cap += prod.toarray() if scipy.sparse.issparse(prod) else prod
        else:
            # scipy's dgemm forms it on the OpenBLAS whose dgetrf factors it (a
            # LAPACK call right after a numpy product waits on numpy's own BLAS
            # threads); it has no symmetric-product shortcut, so V = A rounds as
            # a copy of A does.  Each operand goes in as an F-ordered view.
            (x, tx), (y, ty) = ((mat, False) if mat.flags.f_contiguous else (mat.T, True)
                                for mat in (left, right))
            cap = scipy.linalg.blas.dgemm(1.0 / ab, x, y, 1.0, cap,
                                          trans_a=tx, trans_b=ty, overwrite_c=True)
        anorm = scipy.linalg.lapack.dlange("1", cap)
        lu, piv, info = scipy.linalg.lapack.dgetrf(cap, overwrite_a=True)
        self._lu = (lu, piv)
        self.rcond = 0.0 if info > 0 else float(scipy.linalg.lapack.dgecon(lu, anorm)[0])
        if not self.rcond >= RCOND_FLOOR:
            raise SingularInnerSystemError(
                f"inner block system is singular to working precision: its "
                f"capacitance has reciprocal condition estimate {self.rcond:.3e} < "
                f"{RCOND_FLOOR:g} ({self.backend} backend); tau violates the "
                "bound tau < 1/||A - V||"
            )

    def _shared_dct_block(self):
        """(D, (R_A, R_V)) when forward and surrogate are the two-block stacks
        [R_A; D] and [R_V; D] of one shared D exposing ``dct_eigenvalues``."""
        fwd, sur = self.pair.forward, self.pair.surrogate
        if not (isinstance(fwd, VStackMap) and isinstance(sur, VStackMap)):
            return None
        if len(fwd.blocks) != 2 or len(sur.blocks) != 2:
            return None
        (r_a, grad), (r_v, grad_v) = fwd.blocks, sur.blocks
        if grad is not grad_v or not hasattr(grad, "dct_eigenvalues"):
            return None
        return grad, (r_a, r_v)

    def _base_solve(self, x):
        """B^{-1} x along the last axis, by 2-D DCT."""
        c_rows, c_cols = self._dct
        img = x.reshape(x.shape[:-1] + self._base_eig.shape)
        spec = c_rows @ img @ c_cols.T
        spec /= self._base_eig
        return (c_rows.T @ spec @ c_cols).reshape(x.shape)

    def solve(self, rhs_x, rhs_y):
        """(v, w) with a v + tau V* w = rhs_x and -tau A v + b w = rhs_y."""
        return self._solve(rhs_x, rhs_y, self.tau, 0)

    def solve_transpose(self, rhs_x, rhs_y):
        """(v, w) with a v - tau A* w = rhs_x and tau V v + b w = rhs_y: the
        system of ``solve`` with A, V swapped and tau negated, whose
        capacitance is C^T (B = B^T), the transpose of the factored one."""
        return self._solve(rhs_x, rhs_y, -self.tau, 1)

    def _solve(self, rhs_x, rhs_y, tau, trans):
        """With u = b r_x - tau D^T r_D: t = C^{-1} (R_A B^{-1} u + r_R/tau),
        v = B^{-1} (u - R_V^T t), w = (t/tau, r_D + tau D v)/b; transposed, R_A
        and R_V swap, and without D its terms drop out.  u and w_D are formed
        in place on the products' own arrays, rounding as written here."""
        left, right = self._sides[trans]
        a, b, grad = self.a, self.b, self._grad
        if self._swap:
            rhs_x, rhs_y, a, b, tau = rhs_y, rhs_x, b, a, -tau
        k = left.shape[0]
        rhs_r, rhs_d = rhs_y[:k], rhs_y[k:]
        if grad is None:
            rhs = left @ rhs_x / a + rhs_r / tau
        else:
            u = grad.apply_adjoint(rhs_d)
            u *= -tau
            u += b * rhs_x
            rhs = left @ self._base_solve(u)
            rhs += rhs_r / tau
        # dgecon checked the factors once; a non-finite right-hand side is refused
        t, info = scipy.linalg.lapack.dgetrs(*self._lu, np.asarray_chkfinite(rhs), trans)
        if info != 0:
            raise ValueError(f"dgetrs: illegal value in argument {-info}")
        w = t / (tau * b)
        if grad is None:
            v = (rhs_x - right @ t / b) / a
            return (w, v) if self._swap else (v, w)
        u -= right @ t
        v = self._base_solve(u)
        w_d = grad.apply(v)
        w_d *= tau
        w_d += rhs_d
        w_d /= b
        return v, np.concatenate([w, w_d])


def load_operator_csv(path):
    """Load a dense operator from CSV with a `rows,cols` header line."""
    with open(path) as fh:
        header = fh.readline().strip()
        rows, cols = (int(tok) for tok in header.split(","))
        data = np.loadtxt(fh, delimiter=",")
    mat = np.asarray(data, dtype=float).reshape(rows, cols)
    return MatrixOperator(mat)
