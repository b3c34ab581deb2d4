"""Dense references for the linear elimination and the quartic cost.

Stacks the full 3n x (n + 4) constraint matrix A and solves its normal
equations through the pseudo-inverse.  Quadratic in n, so it lives in
the tests as the oracle for the Schur route in ``raypose.elimination``.
The quartic cost is evaluated as m(q)^T Q m(q) over the 10 monomials,
the oracle for the tensor evaluator in ``raypose.cost``.  A many-start
projected descent finds the local minima of a cost on the unit sphere,
the oracle for the completeness of ``raypose.solver``'s enumeration.
Pairwise set intersections of point ids give the match-graph weights,
the oracle for the inverted index in ``raypose.pipeline``.
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


def descent_minima(cost, n_starts: int = 500, iters: int = 500, seed: int = 0):
    """Local minima of the cost on the unit sphere that projected gradient
    descent reaches from random starts, clustered up to sign.

    Each start takes adaptive steps (grown after a decrease, halved
    otherwise).  Rows whose tangent gradient is not below 1e-7 of |Q| or
    whose Riemannian Hessian has a negative eigenvalue are dropped; the
    rest are grouped within a chord of 1e-3.  Returns the (k, 4) unit
    representatives and their costs, ranked by cost.
    """
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n_starts, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    step = np.full(n_starts, 0.1)
    f = cost.evaluate(q)
    for _ in range(iters):
        g = cost.gradient(q)
        g -= np.sum(g * q, axis=1, keepdims=True) * q
        cand = q - step[:, None] * g
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc = cost.evaluate(cand)
        better = fc < f
        q[better], f[better] = cand[better], fc[better]
        step = np.clip(np.where(better, step * 1.2, step * 0.5), 1e-16, 1.0)
    g = cost.gradient(q)
    qg = np.sum(g * q, axis=1)
    P = np.eye(4) - q[:, :, None] * q[:, None, :]
    H = P @ (cost.hessian(q) - qg[:, None, None] * np.eye(4)) @ P
    scale = max(1.0, float(np.linalg.norm(cost.Q)))
    ok = ((np.linalg.norm(g - qg[:, None] * q, axis=1) < 1e-7 * scale)
          & (np.linalg.eigvalsh(H)[:, 0] > -1e-7 * scale))
    q, f = q[ok], f[ok]
    q *= np.where(q[:, :1] < 0.0, -1.0, 1.0)
    reps = []
    for i in np.argsort(f, kind="stable"):
        if all(min(np.linalg.norm(q[i] - q[j]), np.linalg.norm(q[i] + q[j])) > 1e-3 for j in reps):
            reps.append(i)
    return q[reps], f[reps]


def match_weights(cameras) -> np.ndarray:
    """(k, k) shared-point counts by pairwise set intersection, zero on the
    diagonal and below 4."""
    id_sets = [set(cam.point_ids.tolist()) for cam in cameras]
    W = np.zeros((len(cameras), len(cameras)))
    for i in range(len(cameras)):
        for j in range(i + 1, len(cameras)):
            w = len(id_sets[i] & id_sets[j])
            if w >= 4:
                W[i, j] = W[j, i] = w
    return W
