"""Reduced quartic cost in the quaternion after linear elimination.

For noisy directions z_i, the per-correspondence constraint error at the
eliminated unknowns is ``eta_i = (z_i z_i^T - I)(y_i - B_i SV y)`` (see
``raypose.elimination``).  The right-hand side y is linear in the
10-vector of degree-2 quaternion monomials

    m(q) = (q0^2, q0q1, q0q2, q0q3, q1^2, q1q2, q1q3, q2^2, q2q3, q3^2):

``R X_i = L_i m(q)`` through the entries of R, and in fix-scale mode the
origin term ``c_i`` is ``c_i q^T q``, which equals ``c_i`` on the unit
sphere and is again linear in m(q).  So ``eta_i = G_i m(q)`` in both
modes, and the summed squared error is the quartic form
``C'(q) = m(q)^T Q m(q)`` with ``Q = sum_i G_i^T G_i``.

``QuarticCost`` also keeps the form as a fully symmetric 16x16 matrix T
over ``q kron q``: the one evaluator ``quartic_form`` turns it into the
4x4 matrix M(q) that gives the value, gradient and Hessian at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elimination import EliminationMatrices
from .errors import InvalidInputError

# Index pairs (a, b) of the degree-2 monomials q_a q_b.
MONOMIAL_PAIRS = ((0, 0), (0, 1), (0, 2), (0, 3),
                  (1, 1), (1, 2), (1, 3),
                  (2, 2), (2, 3), (3, 3))

# Selector with m(q) . SQ_NORM = q^T q.
SQ_NORM = np.zeros(10)
SQ_NORM[[0, 4, 7, 9]] = 1.0


def _rotation_coefficients() -> np.ndarray:
    """9x10 map MR with vec_rowmajor(R) = MR @ m(q) for unit q."""
    MR = np.zeros((9, 10))
    m = {pair: i for i, pair in enumerate(MONOMIAL_PAIRS)}

    def put(row, terms):
        for pair, coef in terms:
            MR[row, m[pair]] = coef

    put(0, [((0, 0), 1), ((1, 1), 1), ((2, 2), -1), ((3, 3), -1)])   # R00
    put(1, [((1, 2), 2), ((0, 3), -2)])                              # R01
    put(2, [((1, 3), 2), ((0, 2), 2)])                               # R02
    put(3, [((1, 2), 2), ((0, 3), 2)])                               # R10
    put(4, [((0, 0), 1), ((1, 1), -1), ((2, 2), 1), ((3, 3), -1)])   # R11
    put(5, [((2, 3), 2), ((0, 1), -2)])                              # R12
    put(6, [((1, 3), 2), ((0, 2), -2)])                              # R20
    put(7, [((2, 3), 2), ((0, 1), 2)])                               # R21
    put(8, [((0, 0), 1), ((1, 1), -1), ((2, 2), -1), ((3, 3), 1)])   # R22
    return MR


MR = _rotation_coefficients()


def _pair_selector() -> np.ndarray:
    """10x16 map E with m(q) = E @ (q kron q), split evenly over q_a q_b and q_b q_a."""
    E = np.zeros((10, 16))
    for i, (a, b) in enumerate(MONOMIAL_PAIRS):
        E[i, 4 * a + b] += 0.5
        E[i, 4 * b + a] += 0.5
    return E


PAIR_SELECTOR = _pair_selector()


def quartic_form(T: np.ndarray, q: np.ndarray) -> np.ndarray:
    """M(q) = reshape((q kron q) @ T) for a (16, 16) form T; q is (4,) or (k, 4).

    For the fully symmetric T of a quartic f, f(q) = q^T M q, the gradient
    is 4 M q and the Hessian is 12 M.
    """
    q = np.asarray(q, dtype=float)
    qq = np.einsum("...a,...b->...ab", q, q).reshape(q.shape[:-1] + (16,))
    return (qq @ T).reshape(q.shape[:-1] + (4, 4))


@dataclass(frozen=True)
class QuarticCost:
    """Quartic form C'(q) = m(q)^T Q m(q) with Q symmetric 10x10 PSD on m's range.

    ``T`` is the same form as a fully symmetric 4x4x4x4 tensor, stored as a
    16x16 matrix; every value, gradient and Hessian comes from
    ``quartic_form(T, q)``.
    """

    Q: np.ndarray
    T: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.shape != (10, 10) or not np.all(np.isfinite(Q)):
            raise InvalidInputError("Q must be a finite 10x10 matrix")
        Q = 0.5 * (Q + Q.T)
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        # (q kron q)^T A (q kron q) = f(q); averaging A over the three ways
        # of pairing four indices makes it fully symmetric.
        A = (PAIR_SELECTOR.T @ Q @ PAIR_SELECTOR).reshape(4, 4, 4, 4)
        T = (A + A.transpose(0, 2, 1, 3) + A.transpose(0, 3, 2, 1)) / 3.0
        T = T.reshape(16, 16)
        T.setflags(write=False)
        object.__setattr__(self, "T", T)

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return np.einsum("...a,...ab,...b->...", q, quartic_form(self.T, q), q)

    def gradient(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return 4.0 * np.einsum("...ab,...b->...a", quartic_form(self.T, q), q)

    def hessian(self, q: np.ndarray) -> np.ndarray:
        return 12.0 * quartic_form(self.T, q)


def constraint_cost(origins: np.ndarray, directions: np.ndarray, points: np.ndarray,
                    R: np.ndarray, s: float, t: np.ndarray) -> float:
    """Summed squared constraint errors of the pose (R, s, t).

    ``eta_i = (z_i z_i^T - I)(R X_i - s c_i + t)`` is the part of the ray
    constraint's residual orthogonal to the observed direction z_i.
    """
    inner = points @ np.asarray(R).T - s * origins + t
    eta = np.einsum("ia,ib,ib->ia", directions, directions, inner) - inner
    return float(np.sum(eta * eta))


def direct_cost(elim: EliminationMatrices, R: np.ndarray) -> float:
    """Term-by-term evaluation of the summed squared constraint errors at
    the eliminated scale and translation for rotation R.

    Independent of the 10x10 representation; used as its oracle.
    """
    _, s, t = elim.solve_linear(R)
    return constraint_cost(elim.origins, elim.directions, elim.points, R, s, t)


def build_quartic_cost(elim: EliminationMatrices) -> QuarticCost:
    """Assemble Q so that m(q)^T Q m(q) equals the summed squared errors."""
    z = elim.directions
    # L_i m(q) = y_i: R X_i from the entries of R, less c_i q^T q with a fixed scale.
    L = np.einsum("ik,akm->iam", elim.points, MR.reshape(3, 3, 10))   # (n, 3, 10)
    if elim.fix_scale:
        L = L - elim.origins[:, :, None] * SQ_NORM
    L = L.reshape(-1, 10)
    H = (L - elim.B @ (elim.SV @ L)).reshape(-1, 3, 10)             # y_i - B_i w
    G = (z[:, :, None] * np.einsum("ia,iam->im", z, H)[:, None, :] - H).reshape(-1, 10)
    return QuarticCost(G.T @ G)
