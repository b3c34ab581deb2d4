"""Linear elimination of depths, scale, and translation.

Stacking the ray constraints ``s*c_i + alpha_i*d_i = R*X_i + t`` over n
correspondences gives ``A x = r`` with ``x = (alpha_1..alpha_n, s, t)``
and ``r`` the stacked rotated world points ``R X_i``.  Per correspondence
the rows of A are ``[d_i, B_i]`` with ``B_i = [c_i, -I]``.  With unit
directions the depth block of ``A^T A`` is the identity, so the normal
equations reduce to the 4x4 Schur complement
``K = sum_i B_i^T (I - d_i d_i^T) B_i`` on ``w = (s, t)``:

    w = K^-1 sum_i B_i^T (I - d_i d_i^T) r_i = [S; V] r,
    alpha_i = d_i . (r_i - B_i w).

Only the rows S (3n) and V (3 x 3n) are stored, so memory and work grow
linearly with n; the depths are recovered per rotation from the second
identity.  The dense pseudo-inverse of A serves as the test oracle.

With ``fix_scale=True`` the scale column is dropped and s is frozen at 1,
re-posing the problem for geometries where the scale is unobservable
(e.g. all ray origins coincide).  The eliminated unknowns then become
affine in the rotation; the offset is carried by shifting the right-hand
side by the stacked ray origins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInputError, RankDeficiencyError
from .geometry import Correspondences

_RCOND = 1e-10


@dataclass(frozen=True)
class EliminationMatrices:
    """Constant matrices expressing (alpha, s, t) as functions of the rotation.

    With ``r = stacked R X_i`` (shifted by the stacked ray origins in
    fix-scale mode): ``s = S r`` (1 in fix-scale mode), ``t = V r`` and
    ``alpha_i = d_i . (r_i - B_i (s, t))``.
    """

    S: Optional[np.ndarray]  # (3n,), None in fix-scale mode
    V: np.ndarray          # (3, 3n)
    origins: np.ndarray    # (n, 3)
    directions: np.ndarray  # (n, 3)
    points: np.ndarray     # (n, 3)
    fix_scale: bool
    K: np.ndarray          # (k, k) Schur complement of A^T A onto (s, t)
    M: np.ndarray          # (n, k) coupling rows d_i^T B_i

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def rhs(self, R: np.ndarray) -> np.ndarray:
        """Right-hand side ``r`` (shifted in fix-scale mode) for rotation R."""
        r = (self.points @ np.asarray(R).T).reshape(-1)
        if self.fix_scale:
            r = r - self.origins.reshape(-1)
        return r

    def solve_linear(self, R: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray]:
        """Depths, scale, and translation for a given rotation matrix.

        One structured iterative-refinement step against the normal
        equations removes the rounding left by the precomputed rows
        (the Schur system reuses the stored K and coupling rows).
        """
        r = self.rhs(R)
        z = self.directions
        y = r.reshape(-1, 3)
        s = 1.0 if self.fix_scale else float(self.S @ r)
        t = self.V @ r
        w = t if self.fix_scale else np.concatenate([[s], t])
        alpha = np.sum(z * y, axis=1) - self.M @ w     # d_i . (r_i - B_i w)
        pred = alpha[:, None] * z - t[None, :]
        if not self.fix_scale:
            pred = pred + s * self.origins
        resid = pred - y
        g_alpha = np.sum(z * resid, axis=1)
        g_t = -resid.sum(axis=0)
        if self.fix_scale:
            g_w = g_t
        else:
            g_w = np.concatenate([[np.sum(self.origins * resid)], g_t])
        d_w = np.linalg.solve(self.K, g_w - self.M.T @ g_alpha)
        alpha = alpha - (g_alpha - self.M @ d_w)
        if self.fix_scale:
            t = t - d_w
        else:
            s = s - float(d_w[0])
            t = t - d_w[1:]
        return alpha, s, t


def build_elimination(
    correspondences: Correspondences,
    fix_scale: bool = False,
) -> EliminationMatrices:
    """Compute S, V and the Schur complement K from the normal equations.

    Raises ``RankDeficiencyError`` (with a fix-scale hint when the scale
    column is the culprit) for degenerate geometry.
    """
    n = len(correspondences)
    if n < 4:
        raise InvalidInputError(f"at least 4 correspondences required, got {n}")
    c, z, X = correspondences.origins, correspondences.directions, correspondences.points

    proj = np.eye(3)[None, :, :] - z[:, :, None] * z[:, None, :]   # (n, 3, 3)
    k = 3 if fix_scale else 4
    B = np.zeros((n, 3, k))
    if not fix_scale:
        B[:, :, 0] = c
    B[:, :, -3:] = -np.eye(3)
    K = np.einsum("iab,iac,icd->bd", B, proj, B)
    M = np.einsum("ib,iba->ia", z, B)                              # (n, k)
    svals = np.linalg.svd(K, compute_uv=False)
    if svals[-1] < _RCOND * max(svals[0], 1.0):
        _raise_rank_deficiency(c, K, fix_scale)

    # [S; V] = K^-1 B^T (I - D D^T), assembled column-block by block.
    BtP = np.einsum("iba,ibc->iac", B, proj)                # (n, k, 3)
    SV = np.linalg.solve(K, np.moveaxis(BtP, 0, 1).reshape(k, 3 * n))
    if fix_scale:
        S, V = None, SV
    else:
        S, V = SV[0], SV[1:]
    return EliminationMatrices(S, V, c, z, X, fix_scale, K, M)


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
