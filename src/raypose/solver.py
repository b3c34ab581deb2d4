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
time, and then polishes the roots of the whole stack together:

* the minors times the 35 monomials of degree 4 are the rows of the
  210 x 165 Macaulay matrix A of degree 8.  When the points are isolated
  A has rank 125, and its null space N, of dimension 40, is spanned by the
  degree-8 monomial vectors of the 40 points.  A fixed set of 125 rows has
  that rank too, and a fixed block P of 125 of its columns is invertible;
  both were picked once by a pivoted Gram-Schmidt on a seeded random form
  and are stored as constants.
  With F the other 40 columns, N = [-A_P^-1 A_F; I] comes from one LU
  solve.  Nothing makes N orthonormal: the step below needs only its span;
* at each point, the entry of a monomial vector at x^a q_k (|a| = 7) is
  its entry at x^a times q_k.  The cost is solved in a fixed random frame
  q = R q' (below), so the frame's first coordinate q'_0 is a generic
  linear form, and the rows of N at x^a q'_0 are a row gather N_0.  The
  shift matrices A_k = N_0^+ N_k (N_k the rows at x^a q'_k, k = 1..3)
  have common eigenvectors, with eigenvalues q'_k / q'_0 at the 40 points.
  With one QR N_0 = Q_0 R_0 (120 x 40) and B_k = Q_0^T N_k,
  A_k = R_0^-1 B_k.  One eig of R_0^-1 (sum_k w_k B_k), a fixed
  combination, gives those eigenvectors U, and the diagonal of
  U^-1 A_k U = (R_0 U)^-1 B_k U reads off q'_k / q'_0 without forming the
  three A_k; the roots are (1, q'_1 / q'_0, q'_2 / q'_0, q'_3 / q'_0) R^T.
  That readout is two-sided: a one-sided Rayleigh quotient
  (R_0 u)^H (B_k u) / |R_0 u|^2 is cheaper but first-order in the error of
  u, and on one of criterion 1's 10,000 minimal costs, whose minimum has a
  Hessian eigenvalue of 4e-4, it put the root 7e-7 off (1e-11 with this
  readout) and the polished minimum 1e-10 off.

A fixed monomial basis would be cheaper still and is not used.  If the
40 free columns are chosen as q'_0 times 40 monomials of degree 7, then
N_0 restricted to them is the identity and each A_k is a row gather of
N, with no QR at all: 2.21 ms per minimal cost against 2.45 ms for the
route above, in one probe.  But a basis fixed in advance is not chosen for the cost at
hand, which trades stability for speed (Byrod, Josephson & Astrom, 2009,
"Fast and stable polynomial equation solving"): with it criterion 1's
10,000 trials fell from 100.00% to 99.97% of errors below 1e-9 and from
99.99% to 99.84% below 1e-12, and one error reached 1e-7.

The frame is a fixed random rotation because structured costs (a
diagonal Q, say) make the fixed pivot block singular in the input frame;
the roots are rotated back.  The eig step needs the rows of N at
x^a q'_k to lie in the span of its rows at x^a q'_0; the relative
residual of that shift invariance, |Q_0 B_k - N_k| / |N_k| over k = 1..3,
has a median of 1.4e-13 over 10,000 noise-free minimal pose costs (99.9th
percentile 5.9e-10) and of 4.5e-13 over 100 noisy costs at n = 1000, and
it is 0.57 for the circle of minima below.  A null space whose residual
is above 1e-8 (1 of those 10,000 minimal costs, at 1.7e-8) is solved
again in a second fixed frame.  The real roots come out about 1e-13 off;
one Newton step, kept where it shrinks the tangent gradient, takes them
to the rounding floor.  The step solves (H + q q^T) d = g, H the
Riemannian Hessian, with one batched LU solve; the pseudo-inverse, a
batched SVD, took about 12 times as long on the 342 real roots of a
16-sample batch (1.34 ms against 0.10-0.12 ms on a 2-vCPU Xeon, one BLAS
thread), and it is kept only for a row that LAPACK finds singular.
Each evaluation forms q q^T once, for the projector and for H + q q^T,
and a round in which every row's step is kept takes the new arrays
whole rather than copying them row by row.
Those that then meet the stationarity tolerance are the real stationary
points, and those whose Riemannian Hessian has no negative eigenvalue
are the local minima.  The real-root test, the step and both tests run
once over the real roots of every cost in the stack, each root against
its own cost's form, so a stack of 16 minimal costs pays one pass of
small-array calls, not 16.  The minima are reported per cost ranked by cost, sign-canonicalized
and deduplicated, at most 8 per cost, with the tangent-gradient norm
each was polished to.  A cost that fails the shift check
in both frames has a null space that no 40 isolated points span (the
zero cost, or a curve of minima such as that of (q2^2 + q3^2)^2): no
finite list of candidates describes it, and that cost gets an
``EmptySolutionError`` saying so.  The shift check is the only test of
isolation, and it does not catch every degenerate cost.  A
multiple root is not detected, and neither is a Macaulay matrix of rank
below 125 (a null space of more than 40 dimensions) whose 40-column basis
from the pivot block still passes the check; the counts and minima of
such a cost then hang on ill-conditioned eigenvectors.  Of 20 sparse
positive semidefinite Q with 3-6 zero eigenvalues (a scaled selection of
m(q)'s entries with two entries perturbed), 9 had Macaulay matrices of
rank below 125; the 6 of rank 119 or 122 failed the check, and the 3 of
rank 124 passed with residuals of at most 5.2e-13.

``solve_batch`` runs the whole pipeline on a batch of correspondence sets
of one size (the robust loop's minimal samples), given as the (S, n, 3)
stacks of their origins, directions and points; ``gdls_solve`` is a batch
of one.  Every layer takes and gives stacks, and the batch runs through
them once: the sets are centered on the centroids of their ray origins
and of their world points, eliminated with one rank test and one
inverse, and assembled into one stack of costs, each one array pass for
the whole stack (``elimination.eliminate``, ``build_quartic_cost``).
``solve_stationary`` then finds the minima of that stack of costs; only
``_roots`` runs cost by cost, because its LAPACK calls do not get faster
when stacked.  A probe that stacked the whole Macaulay pipeline over each
RANSAC batch gave bit-identical outputs on 20 instances, but the
benchmark's ``localize_outliers`` went from 182.7/181.7/180.8 to
199.4/199.5/205.8 ms per op, and its peak RSS from 81 to 92.7 MB (2 vCPUs,
one BLAS thread).  Centering leaves costs and depths unchanged and keeps the
elimination's rank test independent of where the coordinate origin is.
One ``recover_candidates`` call then turns every minimum of the stack
into a candidate: the samples of one minimum count are a sub-stack of
it, the elimination's ``solve_linear`` and ``constraint_cost`` give the
depths, scale, translation and cost of every minimum of a sub-stack in
one call each, and the scale test, the map back from the centroids and
the ranking are one pass over every candidate.

``refine`` is the local counterpart, for a cost whose global minimum is
already known to lie near a given rotation (the RANSAC winner's, on its
inliers): the same centering, elimination and cost, then the same Newton
polish (``_polish``) from that rotation alone, repeated while each step
shrinks the tangent gradient, and the same minimum test and recovery.
It skips the Macaulay factorizations, and it cannot tell whether the
minimum it reaches is the global one.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .cost import QuarticCost, build_quartic_cost, constraint_cost, quartic_form
from .elimination import EliminationMatrices, eliminate
from .errors import EmptySolutionError, RankDeficiencyError
from .geometry import (Correspondences, Quaternion, SimilarityTransform, _rotations,
                       _unit_quaternions)

MAX_CANDIDATES = 8
STATIONARITY_TOL = 1e-8
# Most Newton steps ``refine`` takes.
REFINE_STEPS = 10
# The degree-8 Macaulay matrix of the six minors is 210 x 165 with rank
# 125 when the 40 stationary points are isolated.
_RANK, _ROOTS = 125, 40
# Largest relative shift-invariance residual of a null space that is kept.
_SHIFT_TOL = 1e-8
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


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


# The 125 rows of the Macaulay matrix and its 125 pivot columns, in the
# order a pivoted Gram-Schmidt picks them on the matrix of the seeded random
# form drawn first in ``_macaulay_recipe`` (``B + B^T``, B standard normal
# 10 x 10 from seed 2012): rows by largest part orthogonal to those picked
# before, then pivots the same way over the columns of those rows.  The
# pick costs 40-80 ms, so it is stored; a test repeats it.
_ROWS = np.array([
    71, 100, 80, 104, 102, 92, 86, 88, 26, 0, 21, 2, 13, 24, 89, 10, 9, 7, 103, 20,
    18, 32, 29, 77, 93, 72, 16, 79, 30, 34, 22, 73, 14, 4, 101, 70, 33, 28, 23, 5,
    19, 1, 125, 87, 136, 139, 135, 31, 129, 8, 11, 78, 130, 138, 15, 137, 131, 17,
    65, 128, 209, 51, 35, 126, 127, 42, 205, 134, 6, 37, 208, 133, 165, 162, 160,
    206, 132, 207, 174, 169, 25, 190, 194, 66, 189, 61, 90, 3, 119, 161, 36, 188,
    99, 173, 67, 38, 187, 52, 164, 112, 54, 58, 185, 193, 44, 172, 56, 177, 155, 40,
    142, 168, 55, 85, 76, 163, 53, 98, 199, 123, 59, 147, 62, 57, 154])
_PIVOTS = np.array([
    69, 67, 68, 42, 64, 73, 74, 60, 70, 44, 66, 25, 59, 12, 102, 41, 61, 58, 23, 72,
    75, 43, 63, 46, 48, 39, 11, 47, 62, 57, 24, 103, 65, 144, 38, 101, 14, 143, 40,
    92, 4, 28, 22, 76, 97, 21, 100, 56, 95, 27, 96, 142, 145, 35, 146, 45, 71, 33,
    26, 131, 18, 137, 10, 51, 53, 54, 52, 107, 126, 36, 150, 8, 80, 136, 130, 79,
    151, 82, 81, 31, 13, 135, 152, 129, 20, 134, 49, 93, 104, 139, 94, 5, 106, 108,
    138, 133, 29, 116, 115, 50, 99, 32, 140, 128, 98, 141, 114, 37, 30, 90, 88, 149,
    6, 109, 132, 15, 110, 105, 16, 86, 91, 148, 55, 34, 78])


class _Recipe(NamedTuple):
    W: np.ndarray        # (256, 210) map from a form to its minors' coefficients
    dst: np.ndarray      # A.flat positions of the chosen rows, pivot columns first
    src: np.ndarray      # the minor coefficients placed there
    shifts: np.ndarray   # (4, 120) rows of N at x^a q_k (|a| = 7)
    frames: Tuple[Tuple[np.ndarray, np.ndarray], ...]   # (R, R kron R) per frame
    w: np.ndarray        # fixed combination of the shift matrices A_1..A_3


@functools.lru_cache(maxsize=1)
def _macaulay_recipe() -> _Recipe:
    """Fixed index arrays and constants of the reduced Macaulay matrix,
    built on first use and kept read-only.

    The rows and pivot columns are ``_ROWS`` and ``_PIVOTS``; the other 40
    columns are free.  Columns are stored pivot block first.  Each frame is
    a fixed random rotation R, with q = R q' and so
    q kron q = (R kron R)(q' kron q').
    """
    W, dst, src, shifts = _macaulay_layout()
    rng = np.random.default_rng(2012)
    rng.standard_normal((10, 10))          # the form _ROWS and _PIVOTS were picked on
    free = np.ones(165, dtype=bool)
    free[_PIVOTS] = False
    order = np.concatenate([_PIVOTS, np.flatnonzero(free)])
    position = np.argsort(order)           # column of A -> its stored column
    row_of = np.full(210, -1)
    row_of[_ROWS] = np.arange(_RANK)
    row, col = np.divmod(dst, 165)
    keep = row_of[row] >= 0
    rotations = [np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2)]
    frames = tuple((R, np.kron(R, R)) for R in rotations)
    recipe = _Recipe(W, row_of[row[keep]] * 165 + position[col[keep]], src[keep],
                     position[shifts], frames, rng.standard_normal(3))
    for a in (*recipe[:4], *itertools.chain.from_iterable(frames), recipe.w):
        a.setflags(write=False)
    return recipe


def _roots(T: np.ndarray) -> np.ndarray:
    """The 40 complex stationary points of the form T as (40, 4) rows
    q / q'_0, from the first frame whose null space passes the shift check.
    Raises ``EmptySolutionError`` when neither does, naming per frame its
    shift residual, or its singular pivot block where the LU solve fails."""
    recipe = _macaulay_recipe()
    reasons = []
    for R, K in recipe.frames:
        A = np.zeros(_RANK * 165)
        A[recipe.dst] = ((K.T @ T @ K).reshape(256) @ recipe.W)[recipe.src]
        A = A.reshape(_RANK, 165)
        try:
            X = np.linalg.solve(A[:, :_RANK], A[:, _RANK:])
        except np.linalg.LinAlgError:
            reasons.append("its pivot block is singular")
            continue
        N = np.vstack([-X, np.eye(_ROOTS)])
        N0, Nk = N[recipe.shifts[0]], N[recipe.shifts[1:]]   # (120, 40), (3, 120, 40)
        Q0, R0 = np.linalg.qr(N0)
        B = Q0.T @ Nk
        # N_0 A_k - N_k with A_k = N_0^+ N_k, against N_k.
        residual = float(np.linalg.norm(Q0 @ B - Nk) / np.linalg.norm(Nk))
        if residual <= _SHIFT_TOL:
            # A_k = R0^-1 B_k share the eigenvectors U of their combination,
            # and U^-1 A_k U = (R0 U)^-1 B_k U is diagonal, with q'_k / q'_0.
            _, U = np.linalg.eig(np.linalg.solve(R0, np.tensordot(recipe.w, B, 1)))
            x = np.einsum("ia,kai->ik", np.linalg.inv(R0 @ U), B @ U)
            return np.hstack([np.ones((_ROOTS, 1)), x]) @ R.T
        reasons.append(f"relative residual {residual:.1e} > {_SHIFT_TOL:.0e}")
    raise EmptySolutionError(
        "the cost's stationary points are not isolated (a zero cost or a curve of "
        "minima): its Macaulay null space fails the shift-invariance check in every "
        f"frame ({'; '.join(f'frame {i}: {r}' for i, r in enumerate(reasons, 1))}); "
        "no finite candidate set describes them")


def _local_terms(T: np.ndarray, q: np.ndarray):
    """Value, tangent gradient, Riemannian Hessian and q q^T at unit rows
    q, each of the form in the same row of the (k, 16, 16) stack T.  With
    f = q^T M q and P = I - q q^T, the Hessian is P (12 M - 4 f I) P; its
    eigenvalue along q is 0.  q q^T is formed once, for P and the Newton step."""
    M = quartic_form(T, q)
    qq = q[:, :, None] * q[:, None, :]
    Mq = np.einsum("kab,kb->ka", M, q)
    f = np.einsum("ka,ka->k", q, Mq)
    P = _EYE4 - qq
    return f, 4.0 * (Mq - f[:, None] * q), P @ (12.0 * M - 4.0 * f[:, None, None] * _EYE4) @ P, qq


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, as ``np.linalg.norm`` rounds them."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


class Minima(NamedTuple):
    """One cost's local minima on the unit sphere, ranked by cost."""

    q: np.ndarray           # (m, 4) unit rows, signed as ``Quaternion`` signs them
    residual: np.ndarray    # (m,) tangent-gradient norms, the cost scaled by 1 / max(1, |Q|)
    real_roots: int         # real stationary points among the 40 algebraic ones


def solve_stationary(costs: QuarticCost) -> List[Union[Minima, EmptySolutionError]]:
    """Sphere-constrained local minima of each cost in a stack.

    The result has one entry per cost of the stack, in order.  Per cost: its
    ``Minima``, at most 8, sign-canonicalized and deduplicated (none when
    no root meets the stationarity tolerance); or an
    ``EmptySolutionError`` when its Macaulay null space fails the shift
    check in both frames, as that of a stationary set that is not isolated
    does (a degenerate cost can also pass; see the module docstring).
    When the 40 stationary points are isolated, every local minimum, and
    so the global one, is in the set up to the cap.

    The roots are found cost by cost.  The scaling of the forms, the
    real-root test, the Newton step and the stationarity and minimum tests
    run once over the whole stack, each root against its own cost's form,
    so a cost's result is the same, bit for bit, alone or in a stack.
    """
    forms = _scaled_forms(costs)
    out: list = [None] * len(forms)
    solved, roots = [], []
    for c, T in enumerate(forms):
        try:
            roots.append(_roots(T))
            solved.append(c)
        except EmptySolutionError as e:
            out[c] = e.with_traceback(None)
    if not solved:
        return out
    x = np.stack(roots)                                                # (C, 40, 4)
    # Real points: q / q'_0 is complex at the others.
    real = _norms(x.imag) <= 1e-6 * _norms(x.real)
    q = x.real[real]
    q /= _norms(q)[:, None]
    counts = np.count_nonzero(real, axis=1)
    owner = np.repeat(np.arange(len(solved)), counts)
    # One Newton step from each root; see the module docstring.
    q, f, residual, stationary, minimum = _polish(np.repeat(forms[solved], counts, axis=0), q, 1)
    # Every cost's minima, by cost and then by value, each made a unit row.
    keep = np.flatnonzero(minimum)
    keep = keep[np.lexsort((f[keep], owner[keep]))]
    qb = _unit_quaternions(q[keep])
    bounds = np.searchsorted(owner[keep], np.arange(len(solved) + 1))
    real_roots = np.bincount(owner[stationary], minlength=len(solved)).tolist()
    for c, start, stop, n_real in zip(solved, bounds[:-1], bounds[1:], real_roots):
        close = _norms(qb[start:stop, None] - qb[None, start:stop]) < 1e-6
        final: List[int] = []
        for i in range(stop - start):
            if not close[i, final].any():
                final.append(i)
                if len(final) == MAX_CANDIDATES:
                    break
        out[c] = Minima(qb[start:stop][final], residual[keep[start:stop][final]], n_real)
    return out


def _scaled_forms(costs: QuarticCost) -> np.ndarray:
    """The (C, 16, 16) forms of a stack of C costs, each scaled by
    1 / max(1, |Q|)."""
    Q = costs.Q.reshape(-1, 1, 100)
    return costs.T / np.maximum(1.0, np.sqrt(Q @ Q.swapaxes(1, 2)))   # the matmul is |Q|^2


def _polish(T: np.ndarray, q: np.ndarray, steps: int):
    """Newton steps on the sphere from the unit rows q, each against the
    form in its row of T, for at most ``steps`` rounds.  A row takes a step
    only where it shrinks the row's tangent gradient, and the rounds stop
    early once no row's does.  Gives the polished rows and their values,
    tangent-gradient norms, and which rows are stationary and which local
    minima; q may be overwritten."""
    f, g, H, qq = _local_terms(T, q)
    residual = _norms(g)
    for _ in range(steps):
        step = q - _newton_steps(H + qq, g)
        step /= _norms(step)[:, None]
        new = (step, *_local_terms(T, step))
        residual_s = _norms(new[2])
        better = residual_s < residual
        if better.all():   # every row moved: take the new arrays whole
            q, f, g, H, qq, residual = *new, residual_s
            continue
        if not better.any():
            break
        for kept, moved in zip((q, f, g, H, qq, residual), (*new, residual_s)):
            kept[better] = moved[better]
    stationary = residual <= STATIONARITY_TOL
    return q, f, residual, stationary, stationary & (np.linalg.eigvalsh(H)[:, 0] >= -STATIONARITY_TOL)


def _newton_steps(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A_k^-1 g_k for the (k, 4, 4) stack A = H + q q^T, by one batched LU
    solve.  When LAPACK finds the stack singular, each row is solved alone
    and a singular row takes the pseudo-inverse, so that a row's step does
    not depend on the rows beside it."""
    try:
        return np.linalg.solve(A, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return (np.linalg.pinv(A) @ g[..., None])[..., 0]
        return np.concatenate([_newton_steps(a[None], b[None]) for a, b in zip(A, g)])


@dataclass(frozen=True)
class SolverCandidate:
    """One ranked similarity candidate recovered from a stationary quaternion."""

    transform: SimilarityTransform
    cost: float
    depths: np.ndarray
    stationarity_residual: float
    cheirality_ok: bool


def recover_candidates(
    minima: Sequence[Minima], stack: EliminationMatrices, centroids: np.ndarray,
) -> List[Union[List[SolverCandidate], EmptySolutionError]]:
    """Full similarity candidates from the minima of a stack of samples.

    Sample i's minima were found on the cost of ``stack[i]``, whose
    correspondences were centered on the origin and point centroids
    ``centroids[:, i]`` (a (2, S, 3) array); its candidates are mapped back
    to the input frame with t = t' - R X0 + s c0.  Per sample: candidates
    with non-positive scale are discarded, and those with any non-positive
    depth are kept but flagged and ranked after the others, by cost within
    each class; a sample whose every candidate is discarded gets an
    ``EmptySolutionError``.

    The samples of one minimum count are one sub-stack, taken by a mask,
    and one call each of ``solve_linear`` and ``constraint_cost`` on its
    (S, C, 3, 3) rotations gives the depths, scale, translation and cost of
    all its minima.  A sample's numbers are the same, bit for bit, alone or
    in any stack.  The scale test, the uncentering and the ranking are one
    pass over the candidates of every sample, and objects are built only
    for those that are returned, with the transform constructor's checks
    run once over their arrays.  A candidate's rotation is its minimum's
    unit row as is, not normalized again, so it is the rotation every
    other field was computed from.
    """
    counts = np.array([len(m.q) for m in minima])
    owner = np.repeat(np.arange(len(minima)), counts)
    q = np.concatenate([m.q for m in minima]).reshape(-1, 4)
    R = _rotations(q)                                                  # (J, 3, 3)
    J = len(q)
    scale, t, cost, cheirality, depths = (np.empty(J), np.empty((J, 3)), np.empty(J),
                                          np.empty(J, dtype=bool), np.empty((J, stack.n)))
    first = np.cumsum(counts) - counts                                 # each sample's first row
    for C in dict.fromkeys(counts[counts > 0].tolist()):
        group = counts == C
        idx = first[group][:, None] + np.arange(C)                     # (S, C) candidates
        sub, Rs = stack if group.all() else stack[group], R[idx]
        alpha, s, tg = sub.solve_linear(Rs)
        scale[idx], t[idx] = s, tg
        cost[idx] = constraint_cost(sub.origins, sub.directions, sub.points, Rs, s, tg)
        cheirality[idx], depths[idx] = (alpha > 0.0).all(axis=2), alpha
    shift_c, shift_X = centroids[:, owner]
    t = t - (R @ shift_X[:, :, None])[:, :, 0] + scale[:, None] * shift_c
    t.setflags(write=False)
    residual = np.concatenate([m.residual for m in minima])
    order = np.lexsort((cost, ~cheirality, owner))
    order = order[scale[order] > 0.0]
    # The constructor's own error, for the first candidate it would reject.
    for j in order[~(np.isfinite(t[order]).all(axis=1) & np.isfinite(scale[order]))][:1]:
        SimilarityTransform(Quaternion._of_unit_row(q[j]), t[j], scale[j])
    out: list = [[] for _ in minima]
    for j in order.tolist():
        out[owner[j]].append(SolverCandidate(
            SimilarityTransform._unchecked(Quaternion._of_unit_row(q[j]), t[j], float(scale[j])),
            float(cost[j]), depths[j], float(residual[j]), bool(cheirality[j])))
    return [found or EmptySolutionError("all candidates were discarded (non-positive scale)")
            for found in out]


@dataclass(frozen=True)
class SolveReport:
    """Ranked candidates plus diagnostics for one solve.

    ``runtime_seconds`` is the wall time of the call, divided evenly over
    the samples of a batch, and the four stage times are the call's time in
    elimination, cost assembly, stationary search and candidate recovery,
    divided the same way.  Each stage is one array pass over the batch,
    apart from the per-cost Macaulay factorizations of the stationary
    search, so a sample's share is not its own time.  ``n_stationary``
    counts the local minima the candidates came from, those discarded for
    a non-positive scale included, and ``real_roots`` the real stationary
    points among the cost's 40 algebraic ones (see the module docstring).  A candidate's
    ``stationarity_residual`` is the tangent-gradient norm its minimum was
    polished to, of the cost scaled by 1 / max(1, |Q|).
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


def _eliminate_centered(c: np.ndarray, z: np.ndarray, X: np.ndarray, fix_scale: bool):
    """The eliminations of correspondence sets of one size, given as (S, n, 3)
    stacks of ray origins, directions and points, as one stack
    (``elimination.eliminate``), each set centered on the centroids of its
    ray origins and of its world points: the stack, the per-set errors and
    the (2, S, 3) origin and point centroids.  Solving about the centroids
    is an exact reparametrization; ``recover_candidates`` maps the
    translation back."""
    shift_c, shift_X = (np.add.reduce(a, axis=1) / a.shape[1] for a in (c, X))   # the means
    return (*eliminate(c - shift_c[:, None], z, X - shift_X[:, None], fix_scale),
            np.stack([shift_c, shift_X]))


def solve_batch(origins: np.ndarray, directions: np.ndarray, points: np.ndarray,
                fix_scale: bool = False) -> List[Union[SolveReport, RankDeficiencyError,
                                                       EmptySolutionError]]:
    """``gdls_solve`` on each of S correspondence sets of one size, given as
    the (S, n, 3) stacks of their ray origins, unit directions and world
    points.  The stacks are not checked: they must hold rows of checked
    ``Correspondences``, as ``ransac_gdls``'s do; a non-finite entry can
    raise numpy's ``LinAlgError`` rather than a ``RayposeError``.

    Entry i is sample i's report, or the ``RankDeficiencyError`` or
    ``EmptySolutionError`` its solve raised; other errors propagate.  The
    stack runs through the four stages once: centering, elimination and
    cost assembly are one pass each, and a sample's report is the same,
    bit for bit, alone or in any batch.
    """
    start = mark = time.perf_counter()
    spent = dict.fromkeys(("elimination", "cost", "stationary", "recovery"), 0.0)

    def lap(stage: str):
        nonlocal mark
        now = time.perf_counter()
        spent[stage] += now - mark
        mark = now

    stack, out, centroids = _eliminate_centered(origins, directions, points, fix_scale)
    lap("elimination")
    ok = np.array([error is None for error in out])
    if ok.any():
        rows, centroids = np.flatnonzero(ok), centroids if ok.all() else centroids[:, ok]
        costs = build_quartic_cost(stack)
        lap("cost")
        for i, minima in zip(rows, solve_stationary(costs)):
            if isinstance(minima, Minima) and not len(minima.q):
                minima = EmptySolutionError("no local minimum met the stationarity tolerance")
            out[i] = minima
        lap("stationary")
        kept = np.array([isinstance(out[i], Minima) for i in rows])
        if kept.any():
            recovered = recover_candidates([out[i] for i in rows[kept]],
                                           stack if kept.all() else stack[kept],
                                           centroids if kept.all() else centroids[:, kept])
            for i, candidates in zip(rows[kept], recovered):
                out[i] = candidates if isinstance(candidates, EmptySolutionError) else (
                    candidates, len(out[i].q), out[i].real_roots)
        lap("recovery")
    per = 1.0 / max(1, len(out))
    stages = {f"{k}_seconds": v * per for k, v in spent.items()}
    for i, entry in enumerate(out):
        if isinstance(entry, tuple):
            out[i] = SolveReport(entry[0], (mark - start) * per, points.shape[1], fix_scale,
                                 *entry[1:], **stages)
    return out


def gdls_solve(correspondences: Correspondences, fix_scale: bool = False) -> SolveReport:
    """End-to-end pose-and-scale solve from ray-point correspondences.

    Pipeline: linear elimination of depths/scale/translation, quartic
    cost assembly, sphere-constrained stationarity solve, and candidate
    recovery.  Propagates rank-deficiency and empty-solution errors.
    """
    arrays = correspondences.origins, correspondences.directions, correspondences.points
    report, = solve_batch(*(a[None] for a in arrays), fix_scale)   # a stack of one: views
    if not isinstance(report, SolveReport):
        raise report
    return report


def refine(correspondences: Correspondences, start: Quaternion) -> SolverCandidate:
    """The candidate at the local minimum of the correspondences' cost that
    Newton steps from the rotation ``start`` reach.

    The cost is built as ``solve_batch`` builds it and polished as
    ``solve_stationary`` polishes a root, for at most ``REFINE_STEPS``
    steps while each shrinks the tangent gradient, with no stationary-point
    enumeration.  From a start in the basin of the global minimum, the
    RANSAC winner's rotation on its inliers, say, this is ``gdls_solve``'s
    best candidate, with a free scale.  Raises ``RankDeficiencyError`` as
    ``gdls_solve`` does, and ``EmptySolutionError`` when the point reached
    is not a local minimum within ``STATIONARITY_TOL`` or its scale is not
    positive.
    """
    arrays = correspondences.origins, correspondences.directions, correspondences.points
    stack, (error,), centroids = _eliminate_centered(*(a[None] for a in arrays), False)
    if error is not None:
        raise error
    q, _, residual, _, minimum = _polish(_scaled_forms(build_quartic_cost(stack)),
                                         start.array[None], REFINE_STEPS)
    if not minimum[0]:
        raise EmptySolutionError(f"no local minimum near the start (gradient {residual[0]:.1e})")
    found, = recover_candidates([Minima(_unit_quaternions(q), residual, 0)], stack, centroids)
    if isinstance(found, EmptySolutionError):
        raise found
    return found[0]
