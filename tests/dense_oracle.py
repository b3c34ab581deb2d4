"""Dense references for the linear elimination and the quartic cost.

Stacks the full 3n x (n + 4) constraint matrix A and solves its normal
equations through the pseudo-inverse.  Quadratic in n, so it lives in
the tests as the oracle for the Schur route in ``raypose.elimination``.
The quartic cost is evaluated as m(q)^T Q m(q) over the 10 monomials,
the oracle for the tensor evaluator in ``raypose.cost``.
"""

import numpy as np

from raypose.cost import MONOMIAL_PAIRS


def monomials(q: np.ndarray) -> np.ndarray:
    """m(q); accepts a (4,) quaternion or a (k, 4) batch."""
    q = np.asarray(q, dtype=float)
    return np.stack([q[..., a] * q[..., b] for a, b in MONOMIAL_PAIRS], axis=-1)


def monomial_cost(Q: np.ndarray, q: np.ndarray) -> np.ndarray:
    """m(q)^T Q m(q)."""
    m = monomials(q)
    return np.sum((m @ Q) * m, axis=-1)


def stack_A(c: np.ndarray, z: np.ndarray, fix_scale: bool) -> np.ndarray:
    """Rows ``[d_i, c_i, -I]`` per correspondence (no scale column when fixed)."""
    n = c.shape[0]
    ncols = n + (0 if fix_scale else 1) + 3
    A = np.zeros((3 * n, ncols))
    for i in range(n):
        A[3 * i:3 * i + 3, i] = z[i]
        if not fix_scale:
            A[3 * i:3 * i + 3, n] = c[i]
        A[3 * i:3 * i + 3, -3:] = -np.eye(3)
    return A


def dense_solution(elim, R: np.ndarray):
    """(alpha, s, t) = pinv(A) @ rhs for rotation R."""
    A = stack_A(elim.origins, elim.directions, elim.fix_scale)
    x = np.linalg.pinv(A, rcond=1e-10) @ elim.rhs(R)
    n = elim.n
    if elim.fix_scale:
        return x[:n], 1.0, x[n:]
    return x[:n], float(x[n]), x[n + 1:]
