"""Linear elimination of depths, scale, and translation.

Stacking the ray constraints ``s*c_i + alpha_i*d_i = R*X_i + t`` over n
correspondences gives ``A x = y`` with ``x = (alpha_1..alpha_n, w)``.
Per correspondence the rows of A are ``[d_i, B_i]``.  With a free scale,
``w = (s, t)``, ``B_i = [c_i, -I]`` and ``y_i = R X_i``.  With
``fix_scale=True`` (for geometries where the scale is unobservable, e.g.
all ray origins coincide) s is frozen at 1: the scale column is dropped,
``w = t``, ``B_i = -I`` and the known term moves to the right-hand side,
``y_i = R X_i - c_i``.  Nothing else differs between the two modes.

With unit directions the depth block of ``A^T A`` is the identity, so
the normal equations reduce to the k x k Schur complement
``K = sum_i B_i^T (I - d_i d_i^T) B_i`` on w (k = 4, or 3 with a fixed
scale):

    w = K^-1 sum_i B_i^T (I - d_i d_i^T) y_i = SV y,
    alpha_i = d_i . (y_i - B_i w).

Only SV (k x 3n) and the stacked B (3n x k) are stored, so memory and
work grow linearly with n; the depths are recovered per rotation from
the second identity.  The dense pseudo-inverse of A serves as the test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, RankDeficiencyError
from .geometry import Correspondences

_RCOND = 1e-10


@dataclass(frozen=True)
class EliminationMatrices:
    """Constant matrices expressing (alpha, s, t) as functions of the rotation.

    With y the stacked right-hand side (``y_i = R X_i``, less c_i in
    fix-scale mode): ``w = SV y`` is ``(s, t)``, or t alone in fix-scale
    mode, and ``alpha_i = d_i . (y_i - B_i w)``.  The shapes
    below are one sample's; :func:`stack_eliminations` puts a leading
    sample axis on every array.
    """

    SV: np.ndarray         # (k, 3n)
    B: np.ndarray          # (3n, k) stacked B_i; the scale column only with a free scale
    origins: np.ndarray    # (n, 3)
    directions: np.ndarray  # (n, 3)
    points: np.ndarray     # (n, 3)
    fix_scale: bool
    K: np.ndarray          # (k, k) Schur complement of A^T A onto w
    M: np.ndarray          # (n, k) coupling rows d_i^T B_i

    @property
    def n(self) -> int:
        return self.points.shape[-2]

    def solve_linear(self, R: np.ndarray) -> Tuple[np.ndarray, float | np.ndarray, np.ndarray]:
        """Depths, scale, and translation for a given rotation matrix.

        A (3, 3) R gives (n,) depths, a float scale and a (3,) translation.
        On a stack of S eliminations (see :func:`stack_eliminations`), an
        (S, C, 3, 3) R holds C rotations per sample and gives (S, C, n)
        depths, (S, C) scales and (S, C, 3) translations; a sample's
        numbers are the same, bit for bit, alone or among any other
        samples.  One structured iterative-refinement step against the
        normal equations removes the rounding left by the precomputed rows
        (the Schur system reuses the stored K and coupling rows).
        """
        R = np.asarray(R)
        if R.ndim == 2:
            alpha, s, t = stack_eliminations([self]).solve_linear(R[None, None])
            return alpha[0, 0], float(s[0, 0]), t[0, 0]
        (S, C), n = R.shape[:2], self.n
        z, SV, B, M = self.directions, self.SV, self.B, self.M
        y = self.points[:, None] @ R.transpose(0, 1, 3, 2)             # (S, C, n, 3): R X_i
        if self.fix_scale:
            y = y - self.origins[:, None]
        w = SV @ y.reshape(S, C, 3 * n).transpose(0, 2, 1)             # (S, k, C)
        alpha = np.einsum("scia,sia->sci", y, z) - (M @ w).transpose(0, 2, 1)   # d_i . (y_i - B_i w)
        resid = alpha[..., None] * z[:, None] + (B @ w).transpose(0, 2, 1).reshape(S, C, n, 3) - y
        g_alpha = np.einsum("scia,sia->sci", resid, z)
        d_w = np.linalg.solve(self.K, B.transpose(0, 2, 1) @ resid.reshape(S, C, 3 * n).transpose(0, 2, 1)
                              - M.transpose(0, 2, 1) @ g_alpha.transpose(0, 2, 1))
        alpha -= g_alpha - (M @ d_w).transpose(0, 2, 1)
        w -= d_w
        return alpha, (np.ones((S, C)) if self.fix_scale else w[:, 0]), w[:, -3:].transpose(0, 2, 1)


def stack_eliminations(elims: Sequence[EliminationMatrices]) -> EliminationMatrices:
    """The eliminations of one size and scale mode as one, each array with a
    leading axis over them.  A stack of one is a view: no copy of the
    (k, 3n) matrices."""
    names = ("SV", "B", "origins", "directions", "points", "K", "M")
    if len(elims) == 1:
        arrays = {name: getattr(elims[0], name)[None] for name in names}
    else:
        arrays = {name: np.stack([getattr(e, name) for e in elims]) for name in names}
    return EliminationMatrices(fix_scale=elims[0].fix_scale, **arrays)


def build_elimination(
    correspondences: Correspondences,
    fix_scale: bool = False,
) -> EliminationMatrices:
    """Compute SV, B and the Schur complement K from the normal equations.

    Raises ``RankDeficiencyError`` (with a fix-scale hint when the scale
    column is the culprit) for degenerate geometry.
    """
    n = len(correspondences)
    if n < 4:
        raise InvalidInputError(f"at least 4 correspondences required, got {n}")
    c, z, X = correspondences.origins, correspondences.directions, correspondences.points

    k = 3 if fix_scale else 4
    B = np.zeros((n, 3, k))
    if not fix_scale:
        B[:, :, 0] = c
    B[:, :, -3:] = -np.eye(3)
    M = np.einsum("ib,iba->ia", z, B)                              # (n, k)
    # (I - d_i d_i^T) B_i, stacked.
    PB = (B - z[:, :, None] * M[:, None, :]).reshape(3 * n, k)
    B = B.reshape(3 * n, k)
    K = B.T @ PB
    svals = np.linalg.svd(K, compute_uv=False)
    if svals[-1] < _RCOND * max(svals[0], 1.0):
        _raise_rank_deficiency(c, K, fix_scale)
    return EliminationMatrices(np.linalg.solve(K, PB.T), B, c, z, X, fix_scale, K, M)


def _raise_rank_deficiency(c, K, fix_scale):
    if not fix_scale:
        # If freezing the scale restores full rank, say so.
        spread = np.max(np.linalg.norm(c - c[0], axis=1))
        if spread < 1e-9 * max(1.0, np.max(np.abs(c))) or spread == 0.0:
            raise RankDeficiencyError(
                "scale column of the constraint matrix is dependent "
                "(all ray origins coincide); re-pose with fix_scale=True",
                fix_scale_hint=True,
            )
        # The translation block of K is K's fix-scale counterpart.
        sv3 = np.linalg.svd(K[1:, 1:], compute_uv=False)
        if sv3[-1] >= _RCOND * max(sv3[0], 1.0):
            raise RankDeficiencyError(
                "constraint matrix is rank deficient through the scale column; "
                "re-pose with fix_scale=True",
                fix_scale_hint=True,
            )
    raise RankDeficiencyError("constraint matrix is rank deficient for this geometry")
