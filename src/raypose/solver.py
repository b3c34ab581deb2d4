"""Pose-and-scale solver: stationary points of the reduced quartic cost.

The backend minimizes C'(q) = m(q)^T Q m(q) restricted to the unit
sphere.  Because C' is homogeneous of degree 4, unconstrained stationarity
together with the norm constraint forces C' = 0 (Euler's identity), so
for noisy data the solved condition is first-order optimality of C' on
the sphere: the gradient must be parallel to q.

The reference backend is a deterministic multi-start projected Newton
iteration from a fixed 512-point low-discrepancy covering of the unit
3-sphere (super-Fibonacci spiral), in three phases:

* broad: three monotone Newton sweeps over all 512 starts of one cost,
  after which basins collapse into clusters with one representative each;
* precise: monotone Newton on the representatives until no step lowers
  the cost by more than its rounding floor (1e-15 of the cost's norm);
* polish: at most four pure Newton steps, each kept only while the
  tangent gradient shrinks,

followed by sign-aware deduplication.  At most 8 candidates are reported,
ranked by cost, matching the dimension of the problem's algebraic
solution space.

``solve_stationary`` takes a stack of costs: the broad phase runs per
cost, the precise phase and the polish over the representatives of all
of them at once.  Every row's arithmetic is independent of the other
costs in the stack, so a cost's result does not depend on its batch.
``solve_batch`` runs the whole pipeline on a stack of correspondence sets
(the robust loop's minimal samples); ``gdls_solve`` is a stack of one.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .cost import QuarticCost, build_quartic_cost, constraint_cost, quartic_form
from .elimination import EliminationMatrices, build_elimination
from .errors import EmptySolutionError, InvalidInputError, RankDeficiencyError
from .geometry import Correspondences, Quaternion, SimilarityTransform, quat_to_rotation

N_STARTS = 512
MAX_CANDIDATES = 8
STATIONARITY_TOL = 1e-8
# Iteration caps of the three phases.
BROAD_ITERS, PRECISE_ITERS, POLISH_STEPS = 3, 50, 4
# A step must lower the cost by more than this fraction of |Q|, the
# rounding floor of one evaluation, to count as progress.
ROUNDING_FLOOR = 1e-15


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


@functools.lru_cache(maxsize=1)
def _covering() -> np.ndarray:
    """The fixed seed covering, computed on first use and kept read-only."""
    seeds = super_fibonacci(N_STARTS)
    seeds.setflags(write=False)
    return seeds


_STEP_FACTORS = (1.0, 0.5, 0.1, 0.02)


def _forms(T: np.ndarray, cid: np.ndarray, q: np.ndarray) -> np.ndarray:
    """M(q) of each row's cost, (k, 4, 4); rows are grouped by cost id, so
    each cost takes one product over its own rows."""
    M = np.empty((q.shape[0], 4, 4))
    bounds = np.searchsorted(cid, np.arange(T.shape[0] + 1))
    for b in np.flatnonzero(bounds[1:] > bounds[:-1]):
        lo, hi = bounds[b], bounds[b + 1]
        M[lo:hi] = quartic_form(T[b], q[lo:hi])
    return M


def _values(T: np.ndarray, cid: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.einsum("ka,kab,kb->k", q, _forms(T, cid, q), q)


def _normalized(q: np.ndarray) -> np.ndarray:
    return q / np.sqrt(np.einsum("ka,ka->k", q, q))[:, None]


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise solutions of A x = b for (k, 4, 4) A and (k, 4) b; a row
    whose A is singular gets b instead."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = b.copy()
        for i in range(b.shape[0]):
            try:
                out[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _gradients(M: np.ndarray, q: np.ndarray):
    """(g, f, tangent gradient) at unit rows q with forms M."""
    g = 4.0 * np.einsum("kab,kb->ka", M, q)
    f = 0.25 * np.einsum("ka,ka->k", g, q)
    return g, f, g - (4.0 * f)[:, None] * q


def _newton_direction(M: np.ndarray, q: np.ndarray):
    """(d, tangent gradient, Hessian size) at unit rows q with forms M.

    With g = 4 M q and f = q^T M q, the Riemannian Hessian
    P (H - (q.g) I) P, P = I - q q^T, follows from H = 12 M through the
    identities H q = 3 g and q^T H q = 12 f:
    12 M - 3 (q g^T + g q^T) + 16 f q q^T - 4 f I.  Adding ``scale`` q q^T,
    with scale = 12 sum|M| bounding the Hessian's size, makes it invertible
    along q (a 1e-14 scale shift keeps it regular), and d is its tangent
    Newton step.
    """
    g, f, gr = _gradients(M, q)
    scale = np.maximum(1.0, 12.0 * np.abs(M).sum(axis=(1, 2)))
    w = (8.0 * f + 0.5 * scale)[:, None] * q - 3.0 * g
    qw = np.einsum("ka,kb->kab", q, w)
    Hr = 12.0 * M + qw + qw.transpose(0, 2, 1)
    Hr.reshape(-1, 16)[:, ::5] += (1e-14 * scale - 4.0 * f)[:, None]
    d = _solve_rows(Hr, -gr)
    return d - np.einsum("ka,ka->k", d, q)[:, None] * q, gr, scale


def _batch_newton(T: np.ndarray, cid: np.ndarray, q: np.ndarray, f: np.ndarray,
                  floor: np.ndarray, iters: int):
    """Monotone projected-Newton sweep over unit rows q with values f, in
    place; returns the iterations each row ran.

    Non-descent Newton directions fall back to steepest descent, steps
    are capped at unit length and pass a line search that tries the
    factors of ``_STEP_FACTORS`` in order on the rows still searching.
    A row is done when no factor lowers its cost by more than
    ``floor[cid]``.
    """
    iterations = np.zeros(q.shape[0], dtype=int)
    live = np.arange(q.shape[0])
    for _ in range(iters):
        if live.size == 0:
            break
        iterations[live] += 1
        ql, fl, cl = q[live], f[live], cid[live]
        d, gr, scale = _newton_direction(_forms(T, cl, ql), ql)
        bad = np.einsum("ka,ka->k", d, gr) > -1e-18 * scale
        d[bad] = -gr[bad]
        dn = np.sqrt(np.einsum("ka,ka->k", d, d))
        big = dn > 1.0
        d[big] /= dn[big, None]
        moved = np.zeros(live.size, dtype=bool)
        searching = np.arange(live.size)
        for factor in _STEP_FACTORS:
            cs = cl[searching]
            cand = _normalized(ql[searching] + factor * d[searching])
            fc = _values(T, cs, cand)
            ok = fc < fl[searching] - floor[cs]
            done = searching[ok]
            q[live[done]], f[live[done]] = cand[ok], fc[ok]
            moved[done] = True
            searching = searching[~ok]
            if searching.size == 0:
                break
        live = live[moved]
    return iterations


def _polish(T: np.ndarray, cid: np.ndarray, q: np.ndarray, steps: int) -> np.ndarray:
    """Pure Newton steps on unit rows q, in place, each kept only while it
    shrinks the row's tangent gradient; returns the steps tried per row."""
    iterations = np.zeros(q.shape[0], dtype=int)
    live = np.arange(q.shape[0])
    d, gr, _ = _newton_direction(_forms(T, cid, q), q)
    for _ in range(steps):
        if live.size == 0:
            break
        iterations[live] += 1
        cand = _normalized(q[live] + d)
        cl = cid[live]
        d_next, gr_next, _ = _newton_direction(_forms(T, cl, cand), cand)
        ok = np.einsum("ka,ka->k", gr_next, gr_next) < np.einsum("ka,ka->k", gr, gr)
        live = live[ok]
        q[live] = cand[ok]
        d, gr = d_next[ok], gr_next[ok]
    return iterations


def solve_stationary(
        costs: Sequence[QuarticCost]) -> List[Tuple[List[Quaternion], Tuple[int, int, int]]]:
    """Sphere-constrained stationary points of each cost in a stack.

    Per cost: at most 8 unit, sign-canonicalized quaternions ranked by
    cost (empty when no start converged), and the Newton iterations the
    broad, precise and polish phases ran for it.  The set contains the
    global minimizer on the sphere for any cost reachable from the fixed
    seed covering.
    """
    if not costs:
        return []
    norms = np.array([np.linalg.norm(c.Q) for c in costs])
    qscale = np.maximum(1.0, norms)
    T = np.stack([c.T for c in costs]) / qscale[:, None, None]
    floor = ROUNDING_FLOOR * norms / qscale

    # Broad phase, per cost: a few Newton sweeps pull every seed close to
    # the floor of its basin, after which basins collapse into tight clusters.
    one = np.zeros(N_STARTS, dtype=int)
    reps, broad = [], []
    for b in range(len(costs)):
        q = _covering().copy()
        f = _values(T[b:b + 1], one, q)
        its = _batch_newton(T[b:b + 1], one, q, f, floor[b:b + 1], BROAD_ITERS)
        reps.append(_cluster_representatives(q, f, keep_best=8, tol=2e-2))
        broad.append(int(its.max()))

    # Precise phase and polish on the representatives of all costs.
    cid = np.repeat(np.arange(len(costs)), [len(r) for r in reps])
    q = np.concatenate(reps)
    precise = _batch_newton(T, cid, q, _values(T, cid, q), floor, PRECISE_ITERS)
    polish = _polish(T, cid, q, POLISH_STEPS)
    q = _normalized(q)
    _, f, gr = _gradients(_forms(T, cid, q), q)
    converged = np.sqrt(np.einsum("ka,ka->k", gr, gr)) <= STATIONARITY_TOL

    out = []
    for b in range(len(costs)):
        mine = cid == b
        keep = np.flatnonzero(mine & converged)
        qb = _canonical_sign(q[keep])
        qb = qb[np.argsort(f[keep], kind="stable")]
        close = np.linalg.norm(qb[:, None, :] - qb[None, :, :], axis=2) < 1e-6
        final: List[int] = []
        for i in range(len(qb)):
            if not close[i, final].any():
                final.append(i)
                if len(final) == MAX_CANDIDATES:
                    break
        out.append(([Quaternion.from_array(qb[i]) for i in final],
                    (broad[b], int(precise[mine].max()), int(polish[mine].max()))))
    return out


def _canonical_sign(q: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(q) > 1e-12, axis=1)
    sign = np.sign(q[np.arange(q.shape[0]), lead])
    return q * np.where(sign == 0.0, 1.0, sign)[:, None]


def _cluster_representatives(q: np.ndarray, f: np.ndarray, keep_best: int, tol: float) -> np.ndarray:
    """Lowest-cost representative per grid cell of side ``tol``, plus the
    overall best ``keep_best`` points as insurance against cell splits."""
    q = _canonical_sign(q)
    order = np.argsort(f, kind="stable")
    # Cell coordinates lie in [-span, span]; pack the four into one integer.
    span = math.ceil(1.0 / tol)
    keys = (np.round(q[order] / tol).astype(np.int64) + span) @ (2 * span + 1) ** np.arange(4)
    _, first = np.unique(keys, return_index=True)
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
    """Ranked candidates plus diagnostics for one solve.

    ``runtime_seconds`` is the wall time of the call, divided evenly over
    the samples of a batch.  ``newton_iterations`` counts the Newton
    passes of the broad, precise and polish phases of the stationary
    search (see the module docstring).
    """

    candidates: List[SolverCandidate]
    runtime_seconds: float
    n_correspondences: int
    fix_scale: bool = False
    n_stationary: int = 0
    newton_iterations: Tuple[int, int, int] = (0, 0, 0)

    @property
    def best(self) -> SolverCandidate:
        return self.candidates[0]


def solve_batch(samples: Sequence[Correspondences],
                fix_scale: bool = False) -> List[Union[SolveReport, RankDeficiencyError,
                                                       EmptySolutionError]]:
    """``gdls_solve`` on each correspondence set, with one stationary search
    over the stack of their costs.

    Entry i is sample i's report, or the ``RankDeficiencyError`` or
    ``EmptySolutionError`` its solve raised; other errors propagate.
    """
    if any(len(c) < 4 for c in samples):
        raise InvalidInputError("gdls_solve requires at least 4 correspondences")
    start = time.perf_counter()
    out: list = [None] * len(samples)
    solved = []
    for i, corrs in enumerate(samples):
        try:
            elim = build_elimination(corrs, fix_scale=fix_scale)
        except RankDeficiencyError as e:
            # Kept without its traceback, which would tie this frame (and the
            # batch) into a reference cycle that only the collector frees.
            out[i] = e.with_traceback(None)
            continue
        solved.append((i, elim, build_quartic_cost(elim)))
    points = solve_stationary([cost for _, _, cost in solved])
    for (i, elim, cost), (qs, iterations) in zip(solved, points):
        if not qs:
            out[i] = EmptySolutionError("no stationary candidate satisfied the tolerance")
            continue
        try:
            out[i] = (recover_candidates(qs, elim, cost), len(qs), iterations)
        except EmptySolutionError as e:
            out[i] = e.with_traceback(None)
    runtime = (time.perf_counter() - start) / max(1, len(samples))
    for i, entry in enumerate(out):
        if isinstance(entry, tuple):
            out[i] = SolveReport(entry[0], runtime, len(samples[i]), fix_scale, *entry[1:])
    return out


def gdls_solve(correspondences: Correspondences, fix_scale: bool = False) -> SolveReport:
    """End-to-end pose-and-scale solve from ray-point correspondences.

    Pipeline: linear elimination of depths/scale/translation, quartic
    cost assembly, sphere-constrained stationarity solve, and candidate
    recovery.  Propagates rank-deficiency and empty-solution errors.
    """
    report, = solve_batch([correspondences], fix_scale)
    if not isinstance(report, SolveReport):
        raise report
    return report
