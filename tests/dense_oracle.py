"""Dense references for the linear elimination and the quartic cost.

Stacks the full 3n x (n + 4) constraint matrix A and solves its normal
equations through the pseudo-inverse.  Quadratic in n, so it lives in
the tests as the oracle for the Schur route in ``raypose.elimination``.
The quartic cost is evaluated as m(q)^T Q m(q) over the 10 monomials,
the oracle for the tensor evaluator in ``raypose.cost``, and the 9x10
rotation table is typed out, the oracle for the ``MR`` that
``raypose.cost`` derives from the rotation map.  A many-start
projected descent finds the local minima of a cost on the unit sphere,
the oracle for the completeness of ``raypose.solver``'s enumeration.
Pairwise set intersections of point ids give the match-graph weights,
the oracle for the inverted index in ``raypose.pipeline``.  The null
space of the full Macaulay matrix from a complete QR gives the 40
stationary points of a form, the oracle for the pivot-block route in
``raypose.solver``, and a pivoted Gram-Schmidt repeats the pick of that
route's stored rows and pivot columns.  Umeyama's SVD solution with
its determinant-sign fix is the oracle for the quaternion eigenvector
route of ``raypose.robust.umeyama_align``.
"""

import functools

import numpy as np

from raypose.cost import MONOMIAL_PAIRS
from raypose.elimination import eliminate
from raypose.errors import EmptySolutionError
from raypose.solver import _macaulay_layout


def monomials(q: np.ndarray) -> np.ndarray:
    """m(q); accepts a (4,) quaternion or a (k, 4) batch."""
    q = np.asarray(q, dtype=float)
    return np.stack([q[..., a] * q[..., b] for a, b in MONOMIAL_PAIRS], axis=-1)


def monomial_cost(Q: np.ndarray, q: np.ndarray) -> np.ndarray:
    """m(q)^T Q m(q)."""
    m = monomials(q)
    return np.sum((m @ Q) * m, axis=-1)


def rotation_coefficients() -> np.ndarray:
    """9x10 map with vec_rowmajor(R) = map @ m(q), typed out entry by entry.

    ``raypose.cost.MR`` is read off the rotation map of
    ``raypose.geometry``; this table is independent of both.
    """
    rows = (
        {(0, 0): 1, (1, 1): 1, (2, 2): -1, (3, 3): -1},    # R00
        {(1, 2): 2, (0, 3): -2},                            # R01
        {(1, 3): 2, (0, 2): 2},                             # R02
        {(1, 2): 2, (0, 3): 2},                             # R10
        {(0, 0): 1, (1, 1): -1, (2, 2): 1, (3, 3): -1},    # R11
        {(2, 3): 2, (0, 1): -2},                            # R12
        {(1, 3): 2, (0, 2): -2},                            # R20
        {(2, 3): 2, (0, 1): 2},                             # R21
        {(0, 0): 1, (1, 1): -1, (2, 2): -1, (3, 3): 1},    # R22
    )
    MR = np.zeros((9, 10))
    for row, terms in enumerate(rows):
        for pair, coef in terms.items():
            MR[row, MONOMIAL_PAIRS.index(pair)] = coef
    return MR


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


def rhs(elim, R: np.ndarray) -> np.ndarray:
    """Stacked right-hand side y for rotation R: R X_i, less c_i in fix-scale mode."""
    y = (elim.points @ np.asarray(R).T).reshape(-1)
    if elim.fix_scale:
        y = y - elim.origins.reshape(-1)
    return y


def stacked(elims):
    """Eliminations of one size and scale mode as one stack, rebuilt by
    ``eliminate`` from their rays and points."""
    stack, errors = eliminate(*(np.stack([getattr(e, name) for e in elims])
                                for name in ("origins", "directions", "points")),
                              elims[0].fix_scale)
    assert errors == [None] * len(elims)
    return stack


def dense_solution(elim, R: np.ndarray):
    """(alpha, s, t) = pinv(A) @ rhs for rotation R."""
    A = stack_A(elim.origins, elim.directions, elim.fix_scale)
    x = np.linalg.pinv(A, rcond=1e-10) @ rhs(elim, R)
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


def greedy_rows(X: np.ndarray, count: int) -> np.ndarray:
    """Pivoted Gram-Schmidt: ``count`` rows of X, each the one with the
    largest part orthogonal to the rows picked before it.  The pick behind
    ``raypose.solver``'s stored ``_ROWS`` and ``_PIVOTS``."""
    X = np.array(X, dtype=float)
    picked = []
    for _ in range(count):
        i = int(np.argmax(np.einsum("ij,ij->i", X, X)))
        picked.append(i)
        u = X[i] / np.linalg.norm(X[i])
        X -= np.outer(X @ u, u)
    return np.array(picked)


@functools.lru_cache(maxsize=1)
def _qr_recipe():
    rng = np.random.default_rng(2012)
    return (*_macaulay_layout(), rng.standard_normal((210, 125)), rng.standard_normal(4),
            rng.standard_normal(4))


def macaulay_roots_qr(T: np.ndarray) -> np.ndarray:
    """The 40 complex stationary points of the form T as (40, 4) rows q / h(q).

    Builds all 210 rows of the Macaulay matrix A in the input frame and
    takes its null space as the last 40 columns of the complete QR factor
    of A^T G, with G a fixed 210 x 125 Gaussian matrix.  A diagonal entry
    of that R below 1e-10 of the largest means a null space larger than 40,
    and raises ``EmptySolutionError``.  The shift and eig step is the
    solver's, but against a random linear form h, on an orthonormal null
    space, and it forms the four shift matrices A_k, takes the
    eigenvectors U of their combination and reads the roots off the
    diagonal of U^-1 A_k U, where the solver reads against q'_0, forms
    only the combination and inverts R_0 U; so the solver's readout is
    checked too.  Stands in for ``raypose.solver._roots``.
    """
    W, dst, src, shifts, G, h, w = _qr_recipe()
    A = np.zeros(210 * 165)
    A[dst] = (T.reshape(256) @ W)[src]
    Q, R = np.linalg.qr(A.reshape(210, 165).T @ G, mode="complete")
    d = np.abs(np.diagonal(R))
    if not d.min() > 1e-10 * d.max():
        raise EmptySolutionError("the cost's stationary points are not isolated")
    Nk = Q[:, 125:][shifts]
    Qh, Rh = np.linalg.qr(np.tensordot(h, Nk, 1))
    Ak = np.linalg.solve(Rh, Qh.T @ Nk)
    _, U = np.linalg.eig(np.tensordot(w, Ak, 1))
    return np.einsum("ia,kai->ik", np.linalg.inv(U), Ak @ U)


def umeyama_svd(a: np.ndarray, b: np.ndarray):
    """(R, t, s) of the least-squares similarity b ~ s R a + t by SVD of
    the cross-covariance, with the smallest singular direction flipped
    when that makes R proper."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    da, db = a - mu_a, b - mu_b
    U, D, Vt = np.linalg.svd(db.T @ da / len(a))
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    s = float(np.trace(np.diag(D) @ S)) / (float(np.sum(da * da)) / len(a))
    return R, mu_b - s * (R @ mu_a), s
