"""Operator helpers that only the tests use: an adjoint-consistency probe,
the zero map, a dense build of the shifted skew block, and a CSV writer
that round-trips through ``operators.load_operator_csv``."""

import numpy as np

from mismatch_splitting.operators import MatrixOperator


class ZeroOperator(MatrixOperator):
    def __init__(self, domain_dim, codomain_dim):
        super().__init__(np.zeros((codomain_dim, domain_dim)))


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


def save_operator_csv(op, path):
    mat = op.as_array()
    rows, cols = mat.shape
    with open(path, "w") as fh:
        fh.write(f"{rows},{cols}\n")
        np.savetxt(fh, mat, delimiter=",")


def skew_block(pair, g, f):
    """The shifted skew block [[g I, V*], [-A, f I]] of ``pair`` as a dense
    array, built from both maps' ``as_array``."""
    n, m = pair.domain_dim, pair.codomain_dim
    return np.block([[g * np.eye(n), pair.surrogate.as_array().T],
                     [-pair.forward.as_array(), f * np.eye(m)]])
