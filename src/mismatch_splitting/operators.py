"""Linear-operator abstraction, block composition, and spectral estimation.

Operators are finite-dimensional and act on flat numpy vectors.  A forward
discretization and a surrogate backward discretization are carried as two
separate maps; each map is adjoint-consistent on its own, the mismatch lives
in the pair.
"""

from __future__ import annotations

import functools
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
# columns of the Woodbury capacitance formed per batch of base solves
_CAPACITANCE_BATCH = 256


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


class LinearMap:
    """A bounded linear operator with a true adjoint.

    Subclasses implement ``apply`` and ``apply_adjoint``; the adjoint must be
    the exact transpose of ``apply`` (mismatch is modeled by carrying two
    distinct maps, never by a sloppy adjoint).
    """

    domain_dim: int
    codomain_dim: int

    def apply(self, x):
        raise NotImplementedError

    def apply_adjoint(self, y):
        raise NotImplementedError

    @property
    def matrix(self):
        """Dense or sparse matrix backing this map, or None if matrix-free."""
        return None

    def as_array(self):
        """Materialize as a dense ndarray (column-by-column if matrix-free)."""
        m = self.matrix
        if m is not None:
            return m.toarray() if scipy.sparse.issparse(m) else np.asarray(m, dtype=float)
        cols = [self.apply(e) for e in np.eye(self.domain_dim)]
        return np.column_stack(cols)

    def __sub__(self, other):
        return DifferenceMap(self, other)


class MatrixOperator(LinearMap):
    """LinearMap backed by a dense ndarray or scipy sparse matrix."""

    def __init__(self, matrix):
        if not scipy.sparse.issparse(matrix):
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2:
                raise ValueError("matrix must be 2-dimensional")
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


def _transposed(matrix):
    """The transpose to multiply with: one CSR copy for a sparse matrix, whose
    ``.T`` would otherwise be rebuilt on every product, and the ``.T`` view
    for an ndarray, so that dense products round exactly as before."""
    return matrix.T.tocsr() if scipy.sparse.issparse(matrix) else matrix.T


class FunctionOperator(LinearMap):
    """Matrix-free LinearMap from a forward/adjoint callable pair."""

    def __init__(self, domain_dim, codomain_dim, forward, adjoint):
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        self._forward = forward
        self._adjoint = adjoint

    def apply(self, x):
        return self._forward(np.asarray(x, dtype=float))

    def apply_adjoint(self, y):
        return self._adjoint(np.asarray(y, dtype=float))


class ZeroOperator(LinearMap):
    def __init__(self, domain_dim, codomain_dim):
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim

    @property
    def matrix(self):
        return np.zeros((self.codomain_dim, self.domain_dim))

    def apply(self, x):
        return np.zeros(self.codomain_dim)

    def apply_adjoint(self, y):
        return np.zeros(self.domain_dim)


class ScaledIdentity(LinearMap):
    def __init__(self, dim, scale=1.0):
        self.domain_dim = dim
        self.codomain_dim = dim
        self.scale = float(scale)

    @property
    def matrix(self):
        return self.scale * scipy.sparse.eye(self.domain_dim, format="csr")

    def apply(self, x):
        return self.scale * np.asarray(x, dtype=float)

    def apply_adjoint(self, y):
        return self.scale * np.asarray(y, dtype=float)


class DifferenceMap(LinearMap):
    """Lazy A - B of two maps with matching dimensions."""

    def __init__(self, a, b):
        if (a.domain_dim, a.codomain_dim) != (b.domain_dim, b.codomain_dim):
            raise ValueError("operator dimensions do not match")
        self.a = a
        self.b = b
        self.domain_dim = a.domain_dim
        self.codomain_dim = a.codomain_dim

    @property
    def matrix(self):
        ma, mb = self.a.matrix, self.b.matrix
        if ma is None or mb is None:
            return None
        return ma - mb

    def apply(self, x):
        return self.a.apply(x) - self.b.apply(x)

    def apply_adjoint(self, y):
        return self.a.apply_adjoint(y) - self.b.apply_adjoint(y)


class VStackMap(LinearMap):
    """Vertical stack (A1; A2; ...) sharing one domain; when every block
    carries a matrix, each side is one product with a cached stacked matrix."""

    def __init__(self, blocks):
        dims = {b.domain_dim for b in blocks}
        if len(dims) != 1:
            raise ValueError("stacked blocks must share the domain dimension")
        self.blocks = list(blocks)
        self.domain_dim = blocks[0].domain_dim
        self.codomain_dim = sum(b.codomain_dim for b in blocks)
        self._offsets = np.cumsum([0] + [b.codomain_dim for b in blocks])

    @functools.cached_property
    def _stacked(self):
        """(stacked matrix, its transpose), or () if a block is matrix-free."""
        mats = [b.matrix for b in self.blocks]
        if any(m is None for m in mats):
            return ()
        if any(scipy.sparse.issparse(m) for m in mats):
            mat = scipy.sparse.vstack([scipy.sparse.csr_matrix(m) for m in mats], format="csr")
        else:
            mat = np.vstack(mats)
        return mat, _transposed(mat)

    @property
    def matrix(self):
        return self._stacked[0] if self._stacked else None

    def apply(self, x):
        if self._stacked:
            return self._stacked[0] @ np.asarray(x, dtype=float)
        return np.concatenate([b.apply(x) for b in self.blocks])

    def apply_adjoint(self, y):
        if self._stacked:
            return self._stacked[1] @ np.asarray(y, dtype=float)
        out = np.zeros(self.domain_dim)
        for b, lo, hi in zip(self.blocks, self._offsets[:-1], self._offsets[1:]):
            out += b.apply_adjoint(y[lo:hi])
        return out


def adjoint_defect(op, rng, n_trials=100):
    """Max relative defect of <Ax, y> - <x, A^T y> over random probe pairs."""
    worst = 0.0
    for _ in range(n_trials):
        x = rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.codomain_dim)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.apply_adjoint(y))
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


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
    """Forward map A together with the surrogate V whose adjoint plays V*."""

    forward: LinearMap
    surrogate: LinearMap
    _mismatch_norm: float | None = field(default=None, repr=False, compare=False)
    _solver_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        f, s = self.forward, self.surrogate
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
        the Gram operator of the smaller side) and cached."""
        if self._mismatch_norm is None:
            self._mismatch_norm = estimate_operator_norm(self.forward - self.surrogate)
        return self._mismatch_norm

    def apply_surrogate_adjoint(self, y):
        return self.surrogate.apply_adjoint(y)

    def clear_cache(self):
        self._solver_cache.clear()
        self._mismatch_norm = None

    def matched(self):
        """The adjoint-consistent pair using the true adjoint of ``forward``."""
        return MismatchPair(self.forward, self.forward)

    def inner_solver(self, tau, mu_g=0.0, mu_f=0.0):
        key = (float(tau), float(mu_g), float(mu_f))
        solver = self._solver_cache.get(key)
        if solver is None:
            solver = InnerSystemSolver(self, tau, mu_g, mu_f)
            self._solver_cache[key] = solver
        return solver


@dataclass
class BlockSkewOperator(LinearMap):
    """The shifted skew block [[shift_g I, V*], [-A, shift_f I]].

    With both shifts zero this is the skew coupling block of the splitting;
    with the tilde-mu shifts it is the operator whose smallest singular value
    enters the linear-rate certificate.
    """

    pair: MismatchPair
    shift_g: float = 0.0
    shift_f: float = 0.0

    def __post_init__(self):
        self.domain_dim = self.pair.domain_dim + self.pair.codomain_dim
        self.codomain_dim = self.domain_dim

    def apply(self, u):
        n = self.pair.domain_dim
        x, y = u[:n], u[n:]
        top = self.shift_g * x + self.pair.apply_surrogate_adjoint(y)
        bot = -self.pair.forward.apply(x) + self.shift_f * y
        return np.concatenate([top, bot])

    def apply_adjoint(self, u):
        n = self.pair.domain_dim
        x, y = u[:n], u[n:]
        top = self.shift_g * x - self.pair.forward.apply_adjoint(y)
        bot = self.pair.surrogate.apply(x) + self.shift_f * y
        return np.concatenate([top, bot])

    @property
    def matrix(self):
        """The block matrix: a dense ``np.block`` when both maps carry dense
        matrices, a sparse ``bmat`` when either is sparse, None when either
        is matrix-free."""
        ma = self.pair.forward.matrix
        mv = self.pair.surrogate.matrix
        if ma is None or mv is None:
            return None
        n, m = self.pair.domain_dim, self.pair.codomain_dim
        if not (scipy.sparse.issparse(ma) or scipy.sparse.issparse(mv)):
            return np.block([[self.shift_g * np.eye(n), mv.T],
                             [-ma, self.shift_f * np.eye(m)]])
        return scipy.sparse.bmat(
            [
                [self.shift_g * scipy.sparse.eye(n), scipy.sparse.csr_matrix(mv).T],
                [-scipy.sparse.csr_matrix(ma), self.shift_f * scipy.sparse.eye(m)],
            ],
            format="csr",
        )


def estimate_sigma_min(block):
    """Smallest singular value of a BlockSkewOperator by dense SVD.

    A diagnostic for blocks of at most DENSE_DIM_LIMIT total rows, reported
    next to the closed-form bound that the step-size plan uses; larger
    blocks raise ValueError and should use stepsize.sigma_min_lower_bound.
    """
    if block.domain_dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"sigma_min by dense SVD needs at most DENSE_DIM_LIMIT = {DENSE_DIM_LIMIT} "
            f"rows, the block has {block.domain_dim}; use the closed-form bound "
            "stepsize.sigma_min_lower_bound instead")
    return float(np.linalg.svd(block.as_array(), compute_uv=False)[-1])


def dct_matrix(n):
    """Orthonormal DCT-II matrix: row k is s_k cos(pi k (i + 1/2) / n)."""
    k = np.arange(n)[:, None]
    mat = math.sqrt(2.0 / n) * np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
    mat[0] /= math.sqrt(2.0)
    return mat


def _dense_lu(mat):
    """LAPACK LU of a square matrix and its 1-norm reciprocal condition
    estimate (dgecon on the factors; 0.0 for an exactly zero pivot)."""
    lu, piv, info = scipy.linalg.lapack.dgetrf(mat)
    if info > 0:
        return (lu, piv), 0.0
    anorm = float(np.max(np.sum(np.abs(mat), axis=0)))
    rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm)
    return (lu, piv), float(rcond)


def _lu_solve(lu_piv, rhs):
    """LAPACK dgetrs on _dense_lu factors, which dgecon checked once; only the
    right-hand side is checked for finiteness (ValueError)."""
    x, info = scipy.linalg.lapack.dgetrs(*lu_piv, np.asarray_chkfinite(rhs, dtype=float))
    if info != 0:
        raise ValueError(f"dgetrs: illegal value in argument {-info}")
    return x


class InnerSystemSolver:
    """Factored solver for the 2x2 block system [[a I, tau V*], [-tau A, b I]].

    ``solve`` solves the system by Schur-complement elimination, with
    a = 1 + tau*mu_g and b = 1 + tau*mu_f: the system of one PDDR iteration.
    The Schur complement is factored once, on construction, by a backend
    chosen from the structure of the pair (``backend``):

    - ``"woodbury"``: forward and surrogate are VStackMaps that share one
      block exposing ``image_shape`` and ``dct_eigenvalues``, the spectrum
      of D^T D in the 2-D DCT-II basis (tomo.NeumannGradient), and whose
      other blocks R_A, R_V carry matrices.  The domain-side Schur
      complement is B + tau^2 R_V^T R_A with B = ab I + tau^2 D^T D, which
      the orthonormal 2-D DCT-II diagonalises; only the capacitance
      C = I/tau^2 + R_A B^{-1} R_V^T, of the size of R_A's rows, is factored.
      The solve s = C^{-1} R_A B^{-1} r, v = B^{-1} (r - R_V^T s) gives
      R_A v = s/tau^2 exactly, so w = (r_y + s/tau)/b off D's rows and only
      D is applied to v.
    - ``"dense"``: LAPACK LU of the Schur complement on the smaller side,
      densified if sparse.  A matrix-free map is materialised once, by
      ``as_array``, at n applies and m*n floats.

    The backend depends on structure alone, never on a size limit.  Every
    inner solve is a direct LU, guarded by its dgecon estimate ``rcond``:
    below RCOND_FLOOR the system is reported singular; ``solve`` calls dgetrs
    on the factors directly.  ``factor_s`` is the factorisation wall time.
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
        n, m = pair.domain_dim, pair.codomain_dim
        self.eliminate_primal = m <= n  # factor on the smaller side
        self.rcond = None
        t0 = time.perf_counter()
        self._build()
        self.factor_s = time.perf_counter() - t0

    def _schur_matrix(self):
        """Materialize the Schur complement, densifying a matrix-free map."""
        fwd, sur = self.pair.forward, self.pair.surrogate
        ma, mv = fwd.matrix, sur.matrix
        if ma is None:
            ma = fwd.as_array()
        if mv is None:
            mv = sur.as_array()
        t2 = self.tau**2
        ab = self.a * self.b
        if not scipy.sparse.issparse(mv) and np.shares_memory(ma, mv):
            # break the aliasing so the product below uses the generic gemm
            # kernel; the symmetric-product shortcut rounds differently and
            # would make an adjoint-consistent pair disagree bit for bit with
            # a surrogate that merely equals the forward map
            mv = mv.copy()
        if self.eliminate_primal:
            # codomain-sized system: ab I + tau^2 A V*
            prod = ma @ mv.T
            dim = self.pair.codomain_dim
        else:
            prod = mv.T @ ma
            dim = self.pair.domain_dim
        if scipy.sparse.issparse(prod):
            prod = prod.toarray()
        return ab * np.eye(dim) + t2 * prod

    def _build(self):
        shared = self._shared_dct_block()
        if shared is not None:
            self._build_woodbury(*shared)
            return
        self.backend = "dense"
        self._lu, self.rcond = _dense_lu(self._schur_matrix())
        self._check_rcond("Schur complement")

    def _check_rcond(self, what):
        if not self.rcond >= RCOND_FLOOR:
            raise SingularInnerSystemError(
                f"inner block system is singular to working precision: its "
                f"{what} has reciprocal condition estimate {self.rcond:.3e} < "
                f"{RCOND_FLOOR:g} ({self.backend} backend); tau violates the "
                "bound tau < 1/||A - V||"
            )

    def _shared_dct_block(self):
        """(D, D's rows, R_A, R_V) when forward and surrogate stack one shared
        block D exposing ``dct_eigenvalues`` beside matrix-backed R_A, R_V."""
        fwd, sur = self.pair.forward, self.pair.surrogate
        if not (isinstance(fwd, VStackMap) and isinstance(sur, VStackMap)):
            return None
        pairs = list(zip(fwd.blocks, sur.blocks))
        if len(fwd.blocks) != len(sur.blocks) or any(
                fb.codomain_dim != sb.codomain_dim for fb, sb in pairs):
            return None
        shared = [i for i, (fb, sb) in enumerate(pairs)
                  if fb is sb and hasattr(fb, "dct_eigenvalues")]
        if len(shared) != 1 or len(pairs) == 1:
            return None
        i = shared[0]
        rest = [bs for j, bs in enumerate(pairs) if j != i]
        r_a = VStackMap([fb for fb, _ in rest]).matrix
        r_v = VStackMap([sb for _, sb in rest]).matrix
        if r_a is None or r_v is None:
            return None
        return pairs[i][0], slice(fwd._offsets[i], fwd._offsets[i + 1]), r_a, r_v

    def _build_woodbury(self, grad, rows_d, r_a, r_v):
        self.backend = "woodbury"
        self.eliminate_primal = False
        t2 = self.tau**2
        rows, cols = grad.image_shape
        self._dct = (dct_matrix(rows), dct_matrix(cols))
        self._base_eig = self.a * self.b + t2 * np.reshape(grad.dct_eigenvalues, (rows, cols))
        self._shared = (grad, rows_d, np.delete(np.arange(self.pair.codomain_dim), rows_d))
        self._r = (r_a, _transposed(r_v))
        k = r_a.shape[0]
        cap = np.eye(k) / t2
        for lo in range(0, k, _CAPACITANCE_BATCH):
            block = r_v[lo:lo + _CAPACITANCE_BATCH]
            block = block.toarray() if scipy.sparse.issparse(block) else np.asarray(block)
            # rows of B^{-1} R_V^T (B is symmetric) -> columns of R_A B^{-1} R_V^T
            cap[:, lo:lo + block.shape[0]] += r_a @ self._base_solve(block).T
        self._lu, self.rcond = _dense_lu(cap)
        self._check_rcond("Woodbury capacitance")

    def _base_solve(self, x):
        """B^{-1} x along the last axis, B = ab I + tau^2 D^T D, by 2-D DCT."""
        c_rows, c_cols = self._dct
        img = x.reshape(x.shape[:-1] + self._base_eig.shape)
        spec = c_rows @ img @ c_cols.T
        spec /= self._base_eig
        return (c_rows.T @ spec @ c_cols).reshape(x.shape)

    def _woodbury_solve(self, rhs, rhs_y):
        r_a, r_v_t = self._r
        s = _lu_solve(self._lu, r_a @ self._base_solve(rhs))
        v = self._base_solve(rhs - r_v_t @ s)
        grad, d, rest = self._shared
        w = np.empty(self.pair.codomain_dim)
        w[d] = rhs_y[d] + self.tau * grad.apply(v)
        w[rest] = rhs_y[rest] + s / self.tau
        w /= self.b
        return v, w

    def solve(self, rhs_x, rhs_y):
        """(v, w) with a v + tau V* w = rhs_x and -tau A v + b w = rhs_y."""
        tau, a, b = self.tau, self.a, self.b
        pair = self.pair
        if self.eliminate_primal:
            rhs = a * rhs_y + tau * pair.forward.apply(rhs_x)
            w = _lu_solve(self._lu, rhs)
            v = (rhs_x - tau * pair.apply_surrogate_adjoint(w)) / a
        else:
            rhs = b * rhs_x - tau * pair.apply_surrogate_adjoint(rhs_y)
            if self.backend == "woodbury":
                return self._woodbury_solve(rhs, rhs_y)
            v = _lu_solve(self._lu, rhs)
            w = (rhs_y + tau * pair.forward.apply(v)) / b
        return v, w


def load_operator_csv(path):
    """Load a dense operator from CSV with a `rows,cols` header line."""
    with open(path) as fh:
        header = fh.readline().strip()
        rows, cols = (int(tok) for tok in header.split(","))
        data = np.loadtxt(fh, delimiter=",")
    mat = np.asarray(data, dtype=float).reshape(rows, cols)
    return MatrixOperator(mat)


def save_operator_csv(op, path):
    mat = op.as_array()
    rows, cols = mat.shape
    with open(path, "w") as fh:
        fh.write(f"{rows},{cols}\n")
        np.savetxt(fh, mat, delimiter=",")
