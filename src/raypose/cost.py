"""Reduced quartic cost in the quaternion after linear elimination.

For noisy directions z_i, the per-correspondence constraint error at the
eliminated unknowns is ``eta_i = (z_i z_i^T - I)(y_i - B_i w)`` with w the
eliminated scale and translation (see ``raypose.elimination``).  The
right-hand side y, and so w, is linear in the 10-vector of degree-2
quaternion monomials

    m(q) = (q0^2, q0q1, q0q2, q0q3, q1^2, q1q2, q1q3, q2^2, q2q3, q3^2):

``R X_i = L_i m(q)`` through the entries of R, ``vec(R) = MR m(q)``, and
in fix-scale mode the origin term ``c_i`` is ``c_i q^T q``, which equals
``c_i`` on the unit sphere and is again linear in m(q).  So
``eta_i = G_i m(q)`` in both modes, and the summed squared error is the
quartic form ``C'(q) = m(q)^T Q m(q)`` with ``Q = sum_i G_i^T G_i``.
``build_quartic_cost`` forms every L_i with one product of the points and
a fixed (30, 3) map, and w = W m(q) from the elimination's per-ray sums;
nothing 3n long is kept past the call.

The quaternion convention is written once, in ``raypose.geometry``: MR is
read off its rotation map, and only the monomial order is this module's.

Every layer works on stacks of samples: ``build_quartic_cost`` takes a
stack of eliminations and gives a ``QuarticCost`` holding the stack of
their forms, one set being a stack of one.  ``QuarticCost`` also keeps
each form as a fully symmetric 16x16 matrix T over ``q kron q``: the one
evaluator ``quartic_form`` turns it into the 4x4 matrix M(q) that gives
the value, gradient and Hessian at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elimination import EliminationMatrices
from .errors import InvalidInputError
from .geometry import _rotations

# Index pairs (a, b) of the degree-2 monomials q_a q_b.
MONOMIAL_PAIRS = ((0, 0), (0, 1), (0, 2), (0, 3),
                  (1, 1), (1, 2), (1, 3),
                  (2, 2), (2, 3), (3, 3))

# Columns of the squares q_a^2 in m(q); they sum to q^T q.
_SQ_COLUMNS = [0, 4, 7, 9]


def _rotation_coefficients() -> np.ndarray:
    """9x10 map MR with vec_rowmajor(R) = MR @ m(q), read off the rotation
    map of ``raypose.geometry``.

    That map is a quadratic form in q, so polarization gives column (a, b)
    as (R(e_a + e_b) - R(e_a - e_b)) / 4 for a = b and / 2 otherwise; the
    entries are small integers and come out exact.
    """
    a, b = np.array(MONOMIAL_PAIRS).T
    e = np.eye(4)
    diff = (_rotations(e[a] + e[b]) - _rotations(e[a] - e[b])).reshape(10, 9)
    return np.ascontiguousarray((diff / np.where(a == b, 4.0, 2.0)[:, None]).T)


MR = _rotation_coefficients()
# (30, 3) map with (_POINT_MAP @ X)[3 j + a] the coefficient of m(q)_j in (R X)_a.
_POINT_MAP = np.ascontiguousarray(MR.reshape(3, 3, 10).transpose(2, 0, 1).reshape(30, 3))


def _pair_selector() -> np.ndarray:
    """10x16 map E with m(q) = E @ (q kron q), split evenly over q_a q_b and q_b q_a."""
    E = np.zeros((10, 16))
    for i, (a, b) in enumerate(MONOMIAL_PAIRS):
        E[i, 4 * a + b] += 0.5
        E[i, 4 * b + a] += 0.5
    return E


PAIR_SELECTOR = _pair_selector()


def quartic_form(T: np.ndarray, q: np.ndarray) -> np.ndarray:
    """M(q) = reshape((q kron q) @ T) for a (k, 16, 16) stack of forms T and
    (k, 4) rows q, one form per row; a stack of one form serves every row
    of q, which may also be a single (4,) quaternion.

    For the fully symmetric T of a quartic f, f(q) = q^T M q, the gradient
    is 4 M q and the Hessian is 12 M.
    """
    qq = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (1, 16))
    return (qq @ T).reshape(q.shape[:-1] + (4, 4))


@dataclass(frozen=True)
class QuarticCost:
    """A stack of S quartic forms C'(q) = m(q)^T Q m(q), each Q symmetric
    10x10 PSD on m's range: an (S, 10, 10) Q.

    ``T`` is the same stack of forms as fully symmetric 4x4x4x4 tensors,
    stored as an (S, 16, 16) array; every value, gradient and Hessian comes
    from ``quartic_form(T, q)``, so ``evaluate`` takes one row of q per
    form, or any (k, 4) or (4,) q on a stack of one.  Each cost is the
    same, bit for bit, in a stack of one or among any others.
    """

    Q: np.ndarray
    T: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 3 or Q.shape[1:] != (10, 10) or not np.all(np.isfinite(Q)):
            raise InvalidInputError("Q must be a finite (S, 10, 10) stack of matrices")
        Q = 0.5 * (Q + Q.swapaxes(-1, -2))
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        # (q kron q)^T A (q kron q) = f(q); averaging A over the three ways
        # of pairing four indices makes it fully symmetric.
        A = (PAIR_SELECTOR.T @ Q @ PAIR_SELECTOR).reshape(len(Q), 4, 4, 4, 4)
        T = (A + A.swapaxes(-3, -2) + A.swapaxes(-3, -1)) / 3.0
        T = T.reshape(len(Q), 16, 16)
        T.setflags(write=False)
        object.__setattr__(self, "T", T)

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return np.einsum("...a,...ab,...b->...", q, quartic_form(self.T, q), q)


def constraint_cost(origins: np.ndarray, directions: np.ndarray, points: np.ndarray,
                    R: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Summed squared constraint errors of the poses (R, s, t).

    ``eta_i = (z_i z_i^T - I)(R X_i - s c_i + t)`` is the part of the ray
    constraint's residual orthogonal to the observed direction z_i.  The
    (S, n, 3) rays and points of S samples with C poses each, R
    (S, C, 3, 3), s (S, C) and t (S, C, 3), give an (S, C) array.  The
    einsum reads the directions row-major, since its rounding depends on
    the layout (an elimination stores them ray-last).
    """
    inner = (points[:, None] @ R.transpose(0, 1, 3, 2) - s[..., None, None] * origins[:, None]
             + t[:, :, None])
    z = np.ascontiguousarray(directions)
    eta = np.einsum("scia,sia->sci", inner, z)[..., None] * z[:, None] - inner
    return (eta * eta).sum(axis=(2, 3))


def direct_cost(elim: EliminationMatrices, R: np.ndarray) -> np.ndarray:
    """Term-by-term evaluation of the summed squared constraint errors at
    the eliminated scale and translation, (S, C) for the (S, C, 3, 3)
    rotations R of a stack of S eliminations.

    Independent of the 10x10 representation; used as its oracle.
    """
    _, s, t = elim.solve_linear(R)
    return constraint_cost(elim.origins, elim.directions, elim.points, R, s, t)


def build_quartic_cost(elim: EliminationMatrices) -> QuarticCost:
    """Assemble Q so that m(q)^T Q m(q) equals the summed squared errors.

    Rays run along the last axis: ``L[..., i]`` is L_i transposed, with
    ``L_i m(q) = y_i``, and the (10, k) W gives ``w = W^T m(q)``.  Per ray,
    ``H_i = L_i - B_i W^T`` and ``G_i = (d_i d_i^T - I) H_i``, so
    ``Q = sum_i G_i^T G_i``.  That sum of squared residuals, unlike a
    difference of moment matrices, keeps Q accurate near a zero cost.  H
    overwrites L, and G is the one other buffer.

    The S eliminations of a stack (see ``elimination.eliminate``) give
    the stack of their S costs in one pass, each the same, bit for bit, as
    in a stack of one.
    """
    S, n = elim.points.shape[:2]
    zT = np.ascontiguousarray(elim.directions.swapaxes(1, 2))         # (S, 3, n)
    cT = np.ascontiguousarray(elim.origins.swapaxes(1, 2))[:, None]
    # R X_i from the entries of R, less c_i q^T q with a fixed scale.
    L = (_POINT_MAP @ elim.points.swapaxes(1, 2)).reshape(S, 10, 3, n)
    if elim.fix_scale:
        L[:, _SQ_COLUMNS] -= cT
    u = np.einsum("sjai,sai->sji", L, zT)                             # d_i^T L_i
    W = elim.schur_solve(L, u)
    L += W[..., -3:, None]                                            # B_i W = c_i W_s - W_t
    G = np.empty_like(L)
    if not elim.fix_scale:
        L -= np.multiply(W[..., :1, None], cT, out=G)
    np.einsum("sjai,sai->sji", L, zT, out=u)                          # d_i^T H_i
    np.multiply(u[:, :, None], zT[:, None], out=G)
    G -= L
    G = G.reshape(S, 10, 3 * n)
    Q = G @ G.swapaxes(1, 2)
    return QuarticCost(Q)
