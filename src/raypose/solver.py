"""Pose-and-scale solver: stationary points of the reduced quartic cost.

The backend minimizes C'(q) = m(q)^T Q m(q) restricted to the unit
sphere.  Because C' is homogeneous of degree 4, unconstrained stationarity
together with the norm constraint forces C' = 0 (Euler's identity), so
for noisy data the solved condition is first-order optimality of C' on
the sphere: the gradient must be parallel to q.

The reference backend is a deterministic multi-start projected Newton
iteration from a fixed 512-point low-discrepancy covering of the unit
3-sphere (super-Fibonacci spiral), followed by per-candidate polish and
sign-aware deduplication.  At most 8 candidates are reported, ranked by
cost, matching the dimension of the problem's algebraic solution space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .cost import (MONOMIAL_HESSIANS, QuarticCost, build_quartic_cost,
                   constraint_cost, monomial_jacobian, monomials)
from .elimination import EliminationMatrices, build_elimination
from .errors import EmptySolutionError, InvalidInputError
from .geometry import Correspondences, Quaternion, SimilarityTransform, quat_to_rotation

N_STARTS = 512
MAX_CANDIDATES = 8
STATIONARITY_TOL = 1e-8


def super_fibonacci(n: int = N_STARTS) -> np.ndarray:
    """Deterministic low-discrepancy covering of S^3 (Alexa's spiral), (n, 4)."""
    i = np.arange(n, dtype=float) + 0.5
    phi = math.sqrt(2.0)
    psi = 1.533751168755204288118041
    t = i / n
    r = np.sqrt(t)
    rc = np.sqrt(1.0 - t)
    alpha = 2.0 * math.pi * i / phi
    beta = 2.0 * math.pi * i / psi
    return np.stack([r * np.sin(alpha), r * np.cos(alpha),
                     rc * np.sin(beta), rc * np.cos(beta)], axis=1)


def _sphere_gradient(cost: QuarticCost, q: np.ndarray) -> np.ndarray:
    """Gradient of C' projected to the tangent space of the sphere at q."""
    g = cost.gradient(q)
    return g - np.sum(g * q, axis=-1, keepdims=True) * q


_STEP_FACTORS = np.array([1.0, 0.5, 0.1, 0.02])


def _batch_newton(cost: QuarticCost, q: np.ndarray, iters: int, tol: float) -> np.ndarray:
    """Monotone projected-Newton sweep on a (k, 4) batch of unit quaternions.

    Converged rows (tangent gradient below ``tol``) drop out of the
    iteration; non-descent Newton directions fall back to steepest
    descent and every step passes a backtracking line search.
    """
    Q = cost.Q
    MH = MONOMIAL_HESSIANS.reshape(10, 16)
    eye4 = np.eye(4)
    q = q.copy()
    f = cost.evaluate(q)
    active = np.arange(q.shape[0])
    for _ in range(iters):
        qa = q[active]
        m = monomials(qa)
        J = monomial_jacobian(qa)
        Qm = m @ Q
        g = 2.0 * np.squeeze(Qm[:, None, :] @ J, axis=1)
        qg = np.sum(g * qa, axis=1)
        gr = g - qg[:, None] * qa
        gnorm = np.linalg.norm(gr, axis=1)
        live = gnorm > tol
        if not np.any(live):
            break
        if not np.all(live):
            active = active[live]
            qa, m, J, Qm, g, qg, gr = (
                qa[live], m[live], J[live], Qm[live], g[live], qg[live], gr[live])
        k = qa.shape[0]
        H = 2.0 * (np.swapaxes(J, 1, 2) @ (Q @ J))
        H += 2.0 * (Qm @ MH).reshape(k, 4, 4)
        # Riemannian Hessian in the ambient space, made invertible along q.
        P = eye4[None, :, :] - qa[:, :, None] * qa[:, None, :]
        Hr = P @ (H - qg[:, None, None] * eye4[None]) @ P
        scale = np.maximum(1.0, np.abs(Hr).sum(axis=(1, 2)))
        Hr = Hr + scale[:, None, None] * (qa[:, :, None] * qa[:, None, :])
        Hr = Hr + (1e-14 * scale)[:, None, None] * eye4[None]
        try:
            d = np.linalg.solve(Hr, -gr[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            d = -gr
        d = d - np.sum(d * qa, axis=1, keepdims=True) * qa
        # Descent safeguard: fall back to steepest descent.
        bad = np.sum(d * gr, axis=1) > -1e-18 * scale
        if np.any(bad):
            d[bad] = -gr[bad]
        # Trust-region style cap on the step length.
        dn = np.linalg.norm(d, axis=1)
        big = dn > 1.0
        if np.any(big):
            d[big] /= dn[big, None]
        # Backtracking line search over fixed factors, batched.
        cand = qa[:, None, :] + _STEP_FACTORS[None, :, None] * d[:, None, :]
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        fc = cost.evaluate(cand.reshape(-1, 4)).reshape(k, -1)
        best = np.argmin(fc, axis=1)
        fbest = fc[np.arange(k), best]
        improved = fbest < f[active] * (1.0 - 1e-10)
        qa = np.where(improved[:, None], cand[np.arange(k), best], qa)
        q[active] = qa
        f[active] = np.where(improved, fbest, f[active])
        # Rows that cannot improve along any tried step are done.
        active = active[improved]
        if active.size == 0:
            break
    return q


def solve_stationary(cost: QuarticCost, seeds: Optional[np.ndarray] = None) -> List[Quaternion]:
    """Sphere-constrained stationary points of the quartic cost.

    Returns at most 8 unit, sign-canonicalized quaternions ranked by
    cost; the set contains the global minimizer on the sphere for any
    cost reachable from the fixed seed covering.  Raises
    ``EmptySolutionError`` if no start converges.
    """
    Q = cost.Q
    qscale = max(1.0, float(np.linalg.norm(Q)))
    work = QuarticCost(Q / qscale)
    if seeds is None:
        seeds = super_fibonacci(N_STARTS)
    else:
        seeds = np.asarray(seeds, dtype=float)
        seeds = seeds / np.linalg.norm(seeds, axis=-1, keepdims=True)

    # Broad phase: a few Newton sweeps pull every seed close to the floor
    # of its basin, after which basins collapse into tight clusters.
    q = _batch_newton(work, seeds, 3, 1e-11)
    f = work.evaluate(q)
    reps = _cluster_representatives(q, f, keep_best=8, tol=2e-2)

    # Precise phase on the basin representatives only.
    q = _batch_newton(work, reps, 50, 1e-16)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    resid = np.linalg.norm(_sphere_gradient(work, q), axis=1)
    converged = resid <= STATIONARITY_TOL
    if not np.any(converged):
        raise EmptySolutionError("no stationary candidate satisfied the tolerance")
    q = q[converged]

    # Sign-canonicalize, dedup, rank by cost, cap at 8.
    q = _canonical_sign(q)
    final: List[np.ndarray] = []
    for idx in np.argsort(work.evaluate(q), kind="stable"):
        qi = q[idx]
        if any(np.linalg.norm(qi - r) < 1e-6 for r in final):
            continue
        final.append(qi)
        if len(final) == MAX_CANDIDATES:
            break
    return [Quaternion.from_array(p) for p in final]


def _canonical_sign(q: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(q) > 1e-12, axis=1)
    sign = np.sign(q[np.arange(q.shape[0]), lead])
    return q * np.where(sign == 0.0, 1.0, sign)[:, None]


def _cluster_representatives(q: np.ndarray, f: np.ndarray, keep_best: int, tol: float) -> np.ndarray:
    """Lowest-cost representative per grid cell of side ``tol``, plus the
    overall best ``keep_best`` points as insurance against cell splits."""
    q = _canonical_sign(q)
    order = np.argsort(f, kind="stable")
    keys = np.round(q[order] / tol).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    idx = order[first[:4 * MAX_CANDIDATES]]
    idx = np.union1d(idx, order[:keep_best])
    return q[idx]


@dataclass(frozen=True)
class SolverCandidate:
    """One ranked similarity candidate recovered from a stationary quaternion."""

    transform: SimilarityTransform
    cost: float
    depths: np.ndarray
    stationarity_residual: float
    cheirality_ok: bool


def recover_candidates(
    qs: Sequence[Quaternion],
    elim: EliminationMatrices,
    cost: QuarticCost,
) -> List[SolverCandidate]:
    """Full similarity candidates from stationary quaternions.

    Candidates with non-positive scale are discarded; candidates with any
    non-positive depth are kept but flagged and deprioritized.  Ranked by
    cost ascending within each cheirality class.
    """
    out = []
    for quat in qs:
        R = quat_to_rotation(quat)
        alpha, s, t = elim.solve_linear(R)
        if s <= 0.0:
            continue
        cval = constraint_cost(elim.origins, elim.directions, elim.points, R, s, t)
        q = quat.array
        g = cost.gradient(q)
        resid = float(np.linalg.norm(g - np.dot(g, q) * q)) / max(1.0, float(np.linalg.norm(cost.Q)))
        transform = SimilarityTransform(quat, t, s)
        out.append(SolverCandidate(transform, cval, alpha, resid, bool(np.all(alpha > 0.0))))
    if not out:
        raise EmptySolutionError("all candidates were discarded (non-positive scale)")
    out.sort(key=lambda cand: (not cand.cheirality_ok, cand.cost))
    return out


@dataclass(frozen=True)
class SolveReport:
    """Ranked candidates plus diagnostics for one solve."""

    candidates: List[SolverCandidate]
    runtime_seconds: float
    n_correspondences: int
    fix_scale: bool = False
    n_stationary: int = 0

    @property
    def best(self) -> SolverCandidate:
        return self.candidates[0]


def gdls_solve(correspondences: Correspondences, fix_scale: bool = False) -> SolveReport:
    """End-to-end pose-and-scale solve from ray-point correspondences.

    Pipeline: linear elimination of depths/scale/translation, quartic
    cost assembly, sphere-constrained stationarity solve, and candidate
    recovery.  Propagates rank-deficiency and empty-solution errors.
    """
    if len(correspondences) < 4:
        raise InvalidInputError("gdls_solve requires at least 4 correspondences")
    start = time.perf_counter()
    elim = build_elimination(correspondences, fix_scale=fix_scale)
    cost = build_quartic_cost(elim)
    qs = solve_stationary(cost)
    candidates = recover_candidates(qs, elim, cost)
    runtime = time.perf_counter() - start
    return SolveReport(candidates, runtime, len(correspondences), fix_scale, len(qs))
