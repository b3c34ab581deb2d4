"""Pose-and-scale solver: every stationary point of the reduced quartic cost.

The backend minimizes C'(q) = m(q)^T Q m(q) restricted to the unit
sphere.  Because C' is homogeneous of degree 4, unconstrained stationarity
together with the norm constraint forces C' = 0 (Euler's identity), so
for noisy data the solved condition is first-order optimality of C' on
the sphere: the gradient must be parallel to q.

With C'(q) = q^T M(q) q (see ``raypose.cost``) that condition reads
M(q) q = lambda q: the stationary points are the Z-eigenvectors of the
symmetric tensor T, the common zeros of the six quartic minors
q_i (Mq)_j - q_j (Mq)_i.  A generic T has 40 of them, counted as complex
points up to sign (Cartwright & Sturmfels, 2013); on 100 noisy minimal
pose costs 12-28 of them were real and 2-6 of those local minima.
``solve_stationary`` enumerates all 40 with the Macaulay-matrix
null-space method (Dreesen, Batselier & De Moor, 2012), one cost at a
time:

* the minors times the 35 monomials of degree 4 are the rows of the
  210 x 165 Macaulay matrix A of degree 8.  When the points are isolated
  A has rank 125, and its null space N, of dimension 40, is spanned by the
  degree-8 monomial vectors of the 40 points.  A fixed set of 125 rows has
  that rank too, and a fixed block P of 125 of its columns is invertible;
  both were picked once by a pivoted Gram-Schmidt on a seeded random form.
  With F the other 40 columns, N = [-A_P^-1 A_F; I] comes from one LU
  solve, and one reduced QR of that 165 x 40 matrix makes it orthonormal;
* at each point, the entry of a monomial vector at x^a q_k (|a| = 7) is
  its entry at x^a times q_k.  So against a fixed linear form h, the
  shift matrices A_k = (rows of N at x^a h)^+ (rows of N at x^a q_k) have
  common eigenvectors, with eigenvalues q_k / h at the 40 points.  One
  eig of a fixed combination of the A_k gives those eigenvectors U, and
  the diagonal of U^-1 A_k U reads off q_k / h.

The cost is solved in a fixed random frame q = R q', because structured
costs (a diagonal Q, say) make the fixed pivot block singular in the
input frame, and the roots are rotated back.  The eig step needs N's rows
at x^a q_k to lie in the span of its rows at x^a h; the relative residual
of that shift invariance has a median of 2e-13 over 10,000 noise-free
minimal pose costs and of 5e-12 over 100 noisy costs at n = 1000, and it
is 0.5 for the circle of minima below.  A null space whose residual is
above 1e-8 (1 of those 10,000 minimal costs) is solved again in a second
fixed frame.  The real roots come out about 1e-13 off; one Newton step, kept
where it shrinks the tangent gradient, takes them to the rounding floor.
Those that then meet the stationarity tolerance are the real stationary
points, and those whose Riemannian Hessian has no negative eigenvalue
are the local minima.  The minima are reported ranked by cost,
sign-canonicalized and deduplicated, at most 8 per cost.  A cost that
fails the shift check in both frames has a null space that no 40
isolated points span (the zero cost, or a curve of minima such as that
of (q2^2 + q3^2)^2): no finite list of candidates describes it, and that
cost gets an ``EmptySolutionError`` saying so.  The shift check is the
only test of isolation, and it does not catch every degenerate cost.  A
multiple root is not detected, and neither is a Macaulay matrix of rank
below 125 (a null space of more than 40 dimensions) whose 40-column basis
from the pivot block still passes the check; the counts and minima of
such a cost then hang on ill-conditioned eigenvectors.  Of 20 sparse
positive semidefinite Q with 3-6 zero eigenvalues, 3 had rank-124
Macaulay matrices and passed with residuals of at most 1.4e-12.

``solve_batch`` runs the whole pipeline on a stack of correspondence sets
(the robust loop's minimal samples); ``gdls_solve`` is a stack of one.
Both solve about the centroids of the ray origins and of the world
points.  That leaves costs and depths unchanged and keeps the
elimination's rank test independent of where the coordinate origin is.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .cost import QuarticCost, build_quartic_cost, constraint_cost, quartic_form
from .elimination import EliminationMatrices, build_elimination
from .errors import EmptySolutionError, InvalidInputError, RankDeficiencyError
from .geometry import (Correspondences, Quaternion, SimilarityTransform, _unit_quaternions,
                       quat_to_rotation)

MAX_CANDIDATES = 8
STATIONARITY_TOL = 1e-8
# The degree-8 Macaulay matrix of the six minors is 210 x 165 with rank
# 125 when the 40 stationary points are isolated.
_RANK, _ROOTS = 125, 40
# Largest relative shift-invariance residual of a null space that is kept.
_SHIFT_TOL = 1e-8


def _exponents(degree: int) -> np.ndarray:
    """Exponent vectors of the monomials of one degree in q0..q3, (count, 4)."""
    combos = np.array(list(itertools.combinations_with_replacement(range(4), degree)))
    return (combos[:, :, None] == np.arange(4)).sum(axis=1)


def _lookup(exponents: np.ndarray):
    """Map from exponent vectors (..., 4) to their rows in ``exponents``."""
    base = 9 ** np.arange(4)    # every exponent here is at most 8
    keys = exponents @ base
    order = np.argsort(keys)
    return lambda e: order[np.searchsorted(keys[order], e @ base)]


def _macaulay_layout():
    """The 210 x 165 Macaulay matrix of a form as index arrays.

    ``T.reshape(256) @ W`` gives the six minors' coefficients over the
    degree-4 monomials, ``A.flat[dst] = minors[src]`` places them in A, and
    ``shifts[k]`` are the columns of the monomials x^a q_k (|a| = 7).
    """
    unit = np.eye(4, dtype=int)
    e4 = _exponents(4)
    at4, at8 = _lookup(e4), _lookup(_exponents(8))
    # (Mq)_j = sum over (a, b, c) of T[j, a, b, c] q_a q_b q_c, and T's flat
    # index is 64 j + 16 a + 4 b + c.
    cubic = unit[np.array(list(itertools.product(range(4), repeat=3)))].sum(axis=1)
    W = np.zeros((256, 6, 35))
    for r, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        W[64 * j + np.arange(64), r, at4(cubic + unit[i])] = 1.0
        W[64 * i + np.arange(64), r, at4(cubic + unit[j])] = -1.0
    # Row (r, b) of A is minor r times monomial b: its coefficient at
    # monomial a goes to the column of a + b.
    r, b, a = np.meshgrid(np.arange(6), np.arange(35), np.arange(35), indexing="ij")
    dst = ((35 * r + b) * 165 + at8(e4[a] + e4[b])).ravel()
    src = (35 * r + a).ravel()
    shifts = at8(_exponents(7)[None, :, :] + unit[:, None, :])
    return W.reshape(256, 210), dst, src, shifts


def _greedy_rows(X: np.ndarray, count: int) -> np.ndarray:
    """Pivoted Gram-Schmidt: ``count`` rows of X, each the one with the
    largest part orthogonal to the rows picked before it."""
    X = np.array(X, dtype=float)
    picked = []
    for _ in range(count):
        i = int(np.argmax(np.einsum("ij,ij->i", X, X)))
        picked.append(i)
        u = X[i] / np.linalg.norm(X[i])
        X -= np.outer(X @ u, u)
    return np.array(picked)


class _Recipe(NamedTuple):
    W: np.ndarray        # (256, 210) map from a form to its minors' coefficients
    dst: np.ndarray      # A.flat positions of the chosen rows, pivot columns first
    src: np.ndarray      # the minor coefficients placed there
    shifts: np.ndarray   # (4, 120) rows of N at x^a q_k (|a| = 7)
    frames: Tuple[Tuple[np.ndarray, np.ndarray], ...]   # (R, R kron R) per frame
    h: np.ndarray        # fixed linear form
    w: np.ndarray        # fixed combination of the shift matrices


@functools.lru_cache(maxsize=1)
def _macaulay_recipe() -> _Recipe:
    """Fixed index arrays and constants of the reduced Macaulay matrix,
    built on first use and kept read-only.

    The 125 rows and the 125 pivot columns are those a pivoted Gram-Schmidt
    picks on the Macaulay matrix of a seeded random form; the other 40
    columns are free.  Columns are stored pivot block first.  Each frame is
    a fixed random rotation R, with q = R q' and so
    q kron q = (R kron R)(q' kron q').
    """
    W, dst, src, shifts = _macaulay_layout()
    rng = np.random.default_rng(2012)
    B = rng.standard_normal((10, 10))
    A = np.zeros(210 * 165)
    A[dst] = (QuarticCost(B + B.T).T.reshape(256) @ W)[src]
    A = A.reshape(210, 165)
    rows = _greedy_rows(A, _RANK)
    pivots = _greedy_rows(A[rows].T, _RANK)
    order = np.concatenate([pivots, np.setdiff1d(np.arange(165), pivots)])
    position = np.argsort(order)           # column of A -> its stored column
    row_of = np.full(210, -1)
    row_of[rows] = np.arange(_RANK)
    row, col = np.divmod(dst, 165)
    keep = row_of[row] >= 0
    rotations = [np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2)]
    frames = tuple((R, np.kron(R, R)) for R in rotations)
    recipe = _Recipe(W, row_of[row[keep]] * 165 + position[col[keep]], src[keep],
                     position[shifts], frames, rng.standard_normal(4), rng.standard_normal(4))
    for a in (*recipe[:4], *itertools.chain.from_iterable(frames), recipe.h, recipe.w):
        a.setflags(write=False)
    return recipe


def _roots(T: np.ndarray) -> np.ndarray:
    """The 40 complex stationary points of the form T as (40, 4) rows
    q / h(q'), from the first frame whose null space passes the shift check.
    Raises ``EmptySolutionError`` when neither does."""
    recipe = _macaulay_recipe()
    residuals = []
    for R, K in recipe.frames:
        A = np.zeros(_RANK * 165)
        A[recipe.dst] = ((K.T @ T @ K).reshape(256) @ recipe.W)[recipe.src]
        A = A.reshape(_RANK, 165)
        try:
            X = np.linalg.solve(A[:, :_RANK], A[:, _RANK:])
        except np.linalg.LinAlgError:    # a singular pivot block
            residuals.append(np.inf)
            continue
        N = np.linalg.qr(np.vstack([-X, np.eye(_ROOTS)]))[0]
        Nk = N[recipe.shifts]                                # (4, 120, 40)
        Qh, Rh = np.linalg.qr(np.tensordot(recipe.h, Nk, 1))
        B = Qh.T @ Nk
        # N_h A_k - N_k with A_k = N_h^+ N_k, against N_k.
        residuals.append(float(np.linalg.norm(Qh @ B - Nk) / np.linalg.norm(Nk)))
        if residuals[-1] <= _SHIFT_TOL:
            Ak = np.linalg.solve(Rh, B)                      # (4, 40, 40)
            _, U = np.linalg.eig(np.tensordot(recipe.w, Ak, 1))
            return np.einsum("ia,kai->ik", np.linalg.inv(U), Ak @ U) @ R.T
    raise EmptySolutionError(
        "the cost's stationary points are not isolated (a zero cost or a curve of "
        "minima): its Macaulay null space fails the shift-invariance check in every "
        f"frame (relative residuals {', '.join(f'{r:.1e}' for r in residuals)} > "
        f"{_SHIFT_TOL:.0e}); no finite candidate set describes them")


def _local_terms(T: np.ndarray, q: np.ndarray):
    """Value, tangent gradient and Riemannian Hessian of the form T at unit
    rows q.  With f = q^T M q and P = I - q q^T, the Hessian is
    P (12 M - 4 f I) P; its eigenvalue along q is 0."""
    M = quartic_form(T, q)
    Mq = np.einsum("kab,kb->ka", M, q)
    f = np.einsum("ka,ka->k", q, Mq)
    P = np.eye(4) - np.einsum("ka,kb->kab", q, q)
    return f, 4.0 * (Mq - f[:, None] * q), P @ (12.0 * M - 4.0 * f[:, None, None] * np.eye(4)) @ P


def solve_stationary(
        costs: Sequence[QuarticCost]) -> List[Union[Tuple[List[Quaternion], int], EmptySolutionError]]:
    """Sphere-constrained local minima of each cost in a stack.

    Per cost: its local minima as unit, sign-canonicalized quaternions
    ranked by cost, at most 8 (empty when none meets the stationarity
    tolerance), and the number of its 40 algebraic stationary points that
    are real; or an ``EmptySolutionError`` when its Macaulay null space
    fails the shift check in both frames, as that of a stationary set that
    is not isolated does (a degenerate cost can also pass; see the module
    docstring).  When the 40 stationary points are isolated, every local
    minimum, and so the global one, is in the set up to the cap.
    """
    out: list = []
    for cost in costs:
        T = cost.T / max(1.0, float(np.linalg.norm(cost.Q)))
        try:
            x = _roots(T)
        except EmptySolutionError as e:
            out.append(e.with_traceback(None))
            continue
        # Real points: q / h(q) is complex at the others.
        x = x[np.linalg.norm(x.imag, axis=1) <= 1e-6 * np.linalg.norm(x.real, axis=1)].real
        q = x / np.linalg.norm(x, axis=1)[:, None]
        _, g, H = _local_terms(T, q)
        # One Newton step from each root; see the module docstring.
        step = q - np.einsum("kab,kb->ka", np.linalg.pinv(H + np.einsum("ka,kb->kab", q, q)), g)
        step /= np.linalg.norm(step, axis=1)[:, None]
        better = np.linalg.norm(_local_terms(T, step)[1], axis=1) < np.linalg.norm(g, axis=1)
        q[better] = step[better]
        f, g, H = _local_terms(T, q)
        stationary = np.linalg.norm(g, axis=1) <= STATIONARITY_TOL
        minimum = stationary & (np.linalg.eigvalsh(H)[:, 0] >= -STATIONARITY_TOL)
        q, f = q[minimum], f[minimum]
        qb = _unit_quaternions(q)[np.argsort(f, kind="stable")]
        close = np.linalg.norm(qb[:, None, :] - qb[None, :, :], axis=2) < 1e-6
        final: List[int] = []
        for i in range(len(qb)):
            if not close[i, final].any():
                final.append(i)
                if len(final) == MAX_CANDIDATES:
                    break
        out.append(([Quaternion.from_array(qb[i]) for i in final], int(stationary.sum())))
    return out


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
    the samples of a batch, and the four stage times are the call's time in
    elimination, cost assembly, stationary search and candidate recovery,
    divided the same way.  ``n_stationary`` counts the local minima the
    candidates came from, ``real_roots`` the real stationary points among
    the cost's 40 algebraic ones (see the module docstring).
    """

    candidates: List[SolverCandidate]
    runtime_seconds: float
    n_correspondences: int
    fix_scale: bool = False
    n_stationary: int = 0
    real_roots: int = 0
    elimination_seconds: float = 0.0
    cost_seconds: float = 0.0
    stationary_seconds: float = 0.0
    recovery_seconds: float = 0.0

    @property
    def best(self) -> SolverCandidate:
        return self.candidates[0]


def solve_batch(samples: Sequence[Correspondences],
                fix_scale: bool = False) -> List[Union[SolveReport, RankDeficiencyError,
                                                       EmptySolutionError]]:
    """``gdls_solve`` on each correspondence set.

    Entry i is sample i's report, or the ``RankDeficiencyError`` or
    ``EmptySolutionError`` its solve raised; other errors propagate.
    """
    if any(len(c) < 4 for c in samples):
        raise InvalidInputError("gdls_solve requires at least 4 correspondences")
    start = mark = time.perf_counter()
    spent = dict.fromkeys(("elimination", "cost", "stationary", "recovery"), 0.0)

    def lap(stage: str):
        nonlocal mark
        now = time.perf_counter()
        spent[stage] += now - mark
        mark = now

    out: list = [None] * len(samples)
    solved = []
    for i, corrs in enumerate(samples):
        # Solving about the centroids is an exact reparametrization; the
        # translation maps back in _uncentered.
        shift = corrs.origins.mean(axis=0), corrs.points.mean(axis=0)
        centered = Correspondences(corrs.origins - shift[0], corrs.directions,
                                   corrs.points - shift[1])
        try:
            elim = build_elimination(centered, fix_scale=fix_scale)
        except RankDeficiencyError as e:
            # Kept without its traceback, which would tie this frame (and the
            # batch) into a reference cycle that only the collector frees.
            out[i] = e.with_traceback(None)
            continue
        finally:
            lap("elimination")
        solved.append((i, elim, build_quartic_cost(elim), shift))
        lap("cost")
    points = solve_stationary([cost for _, _, cost, _ in solved])
    lap("stationary")
    for (i, elim, cost, shift), found in zip(solved, points):
        if isinstance(found, EmptySolutionError):
            out[i] = found
            continue
        qs, real_roots = found
        if not qs:
            out[i] = EmptySolutionError("no local minimum met the stationarity tolerance")
            continue
        try:
            candidates = recover_candidates(qs, elim, cost)
        except EmptySolutionError as e:
            out[i] = e.with_traceback(None)
            continue
        out[i] = ([_uncentered(c, *shift) for c in candidates], len(qs), real_roots)
    lap("recovery")
    per = 1.0 / max(1, len(samples))
    stages = {f"{k}_seconds": v * per for k, v in spent.items()}
    for i, entry in enumerate(out):
        if isinstance(entry, tuple):
            out[i] = SolveReport(entry[0], (mark - start) * per, len(samples[i]), fix_scale,
                                 *entry[1:], **stages)
    return out


def _uncentered(candidate: SolverCandidate, origin_shift: np.ndarray,
                point_shift: np.ndarray) -> SolverCandidate:
    """A candidate solved with both centroids at 0, in the input frame:
    t = t' - R X0 + s c0 for origin centroid c0 and point centroid X0."""
    T = candidate.transform
    t = T.translation - T.rotation_matrix() @ point_shift + T.scale * origin_shift
    return replace(candidate, transform=SimilarityTransform(T.rotation, t, T.scale))


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
