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

    w = K^-1 (B^T y - M^T (d . y)),
    alpha_i = d_i . y_i - M_i w,

with ``M_i = d_i^T B_i`` the coupling rows and ``d . y`` the n products
``d_i . y_i``.  B is never formed: ``B^T r = (sum_i c_i . r_i, -sum_i r_i)``
(no first entry with a fixed scale) and ``B_i w = s c_i - t``.  K is a
sum over the rays too: with ``pc_i = c_i - d_i (d_i . c_i)``,

    K = [[sum_i pc_i . pc_i, -sum_i pc_i^T], [-sum_i pc_i, n I - D^T D]],

or ``n I - D^T D`` alone with a fixed scale (D the (n, 3) directions).
Beside the rays only K^-1 and the (n, k) rows M are kept, so memory and
work grow linearly with n.  The dense pseudo-inverse of A serves as the
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidInputError, RankDeficiencyError
from .geometry import Correspondences

_RCOND = 1e-10
_ARRAYS = ("origins", "directions", "points", "K_inv", "M")


@dataclass(frozen=True)
class EliminationMatrices:
    """The rays and the inverse Schur complements that express (alpha, s, t)
    as functions of the rotation, for a stack of S samples of one size.

    With y the stacked right-hand side (``y_i = R X_i``, less c_i in
    fix-scale mode): ``w = K^-1 (B^T y - M^T (d . y))`` is ``(s, t)``, or t
    alone in fix-scale mode, and ``alpha_i = d_i . y_i - M_i w``.  A stack
    comes from :func:`eliminate` (one set is a stack of one) or a mask or
    index array into one.  K is kept inverted: every use is a solve, and
    the one inversion per stack costs less than a LAPACK call per use on
    small n.
    """

    origins: np.ndarray    # (S, n, 3)
    directions: np.ndarray  # (S, n, 3)
    points: np.ndarray     # (S, n, 3)
    fix_scale: bool
    K_inv: np.ndarray      # (S, k, k) inverses of the Schur complements of A^T A onto w
    M: np.ndarray          # (S, n, k) coupling rows d_i^T B_i

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __getitem__(self, i) -> "EliminationMatrices":
        """The sub-stack of an index or mask array: every array indexed on
        its leading axis."""
        return EliminationMatrices(fix_scale=self.fix_scale,
                                   **{name: getattr(self, name)[i] for name in _ARRAYS})

    def schur_solve(self, r: np.ndarray, dr: np.ndarray) -> np.ndarray:
        """``K^-1 (B^T r - M^T dr)`` for C right-hand sides per sample laid
        out ray-last: r is (S, C, 3, n) and dr (S, C, n), the products
        ``d_i . r_i``; gives (S, C, k)."""
        rhs = -np.add.reduce(r, axis=-1)                                # -sum_i r_i
        if not self.fix_scale:
            cT = self.origins.swapaxes(-1, -2)
            cr = r.reshape(r.shape[:-2] + (-1,)) @ cT.reshape(cT.shape[:-2] + (-1, 1))
            rhs = np.concatenate([cr, rhs], axis=-1)
        rhs -= dr @ self.M
        return rhs @ self.K_inv

    def solve_linear(self, R: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Depths, scales and translations for given rotation matrices.

        On a stack of S eliminations an (S, C, 3, 3) R holds C rotations
        per sample and gives (S, C, n) depths, (S, C) scales and
        (S, C, 3) translations; a sample's numbers are the same, bit for
        bit, alone or among any other samples.  One iterative-refinement
        step against the normal equations, through the same K^-1 and
        coupling rows, removes most of the rounding of the first solve.
        """
        zT = np.ascontiguousarray(self.directions.swapaxes(1, 2))      # (S, 3, n)
        cT = self.origins.swapaxes(1, 2)[:, None]
        Mt = self.M.swapaxes(1, 2)
        y = R @ self.points.swapaxes(1, 2)[:, None]                     # (S, C, 3, n): R X_i
        if self.fix_scale:
            y -= cT
        zy = np.einsum("scai,sai->sci", y, zT)
        w = self.schur_solve(y, zy)                                     # (S, C, k)
        alpha = zy - w @ Mt
        # alpha_i d_i + B_i w - y_i, with B_i w = s c_i - t.
        resid = alpha[:, :, None] * zT[:, None] - y - w[..., -3:, None]
        if not self.fix_scale:
            resid += w[..., :1, None] * cT
        g_alpha = np.einsum("scai,sai->sci", resid, zT)
        d_w = self.schur_solve(resid, g_alpha)
        alpha -= g_alpha - d_w @ Mt
        w -= d_w
        return alpha, (np.ones(R.shape[:2]) if self.fix_scale else w[..., 0]), w[..., -3:]


def eliminate(
    origins: np.ndarray, directions: np.ndarray, points: np.ndarray, fix_scale: bool = False,
) -> Tuple[EliminationMatrices, List[Optional[RankDeficiencyError]]]:
    """The eliminations of S correspondence sets of one size, from their
    (S, n, 3) rays and points, as one stack.

    K is built from per-ray sums for the whole stack, its rank tested with
    one SVD of the (S, k, k) stack and inverted with one inverse.  Gives the
    stack of the full-rank samples, in order, and per sample None or the
    ``RankDeficiencyError`` (with a fix-scale hint when the scale column is
    the culprit) its degenerate geometry raises; the other samples are
    unaffected.  A sample's arrays are the same, bit for bit, alone (a
    stack of one) or among any others.
    """
    S, n = points.shape[:2]
    if n < 4:
        raise InvalidInputError(f"at least 4 correspondences required, got {n}")
    c, z = origins, directions
    k = 3 if fix_scale else 4
    K, M = np.empty((S, k, k)), np.empty((S, n, k))
    K[:, -3:, -3:] = n * np.eye(3) - z.swapaxes(1, 2) @ z
    M[..., -3:] = -z
    if not fix_scale:
        M[..., 0] = np.einsum("sia,sia->si", z, c)
        pc = (c - M[..., :1] * z).reshape(S, 1, 3 * n)                   # (I - d_i d_i^T) c_i
        K[:, 0, 0] = (pc @ pc.swapaxes(1, 2))[:, 0, 0]
        K[:, 0, 1:] = K[:, 1:, 0] = -np.add.reduce(pc.reshape(S, n, 3), axis=1)
    svals = np.linalg.svd(K, compute_uv=False)
    full = svals[:, -1] >= _RCOND * np.maximum(svals[:, 0], 1.0)
    errors = [None if ok else _rank_deficiency(c[i], K[i], fix_scale) for i, ok in enumerate(full)]
    if not full.all():
        c, z, points, K, M = (a[full] for a in (c, z, points, K, M))
    return EliminationMatrices(c, z, points, fix_scale, np.linalg.inv(K), M), errors


def build_elimination(
    correspondences: Correspondences,
    fix_scale: bool = False,
) -> EliminationMatrices:
    """One correspondence set's elimination, as the stack of one that
    :func:`eliminate` gives.

    Raises ``RankDeficiencyError`` (with a fix-scale hint when the scale
    column is the culprit) for degenerate geometry.
    """
    c = correspondences
    stack, (error,) = eliminate(c.origins[None], c.directions[None], c.points[None], fix_scale)
    if error is not None:
        raise error
    return stack


def _rank_deficiency(c, K, fix_scale) -> RankDeficiencyError:
    if not fix_scale:
        # If freezing the scale restores full rank, say so.
        spread = np.max(np.linalg.norm(c - c[0], axis=1))
        if spread < 1e-9 * max(1.0, np.max(np.abs(c))):
            return RankDeficiencyError(
                "scale column of the constraint matrix is dependent "
                "(all ray origins coincide); re-pose with fix_scale=True",
                fix_scale_hint=True,
            )
        # The translation block of K is K's fix-scale counterpart.
        sv3 = np.linalg.svd(K[1:, 1:], compute_uv=False)
        if sv3[-1] >= _RCOND * max(sv3[0], 1.0):
            return RankDeficiencyError(
                "constraint matrix is rank deficient through the scale column; "
                "re-pose with fix_scale=True",
                fix_scale_hint=True,
            )
    return RankDeficiencyError("constraint matrix is rank deficient for this geometry")
