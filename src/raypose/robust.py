"""Robust estimation wrappers and the closed-form absolute-orientation baseline.

``ransac_gdls`` runs a hypothesize-and-verify loop with minimal samples
of 4 correspondences, angular inlier scoring and adaptive termination,
locally optimized (Chum, Matas & Kittler, DAGM 2003): each hypothesis
that becomes the best with at least ``min_inliers`` inliers is
re-estimated at once on its inlier set, the refit takes its place when
it loses no inlier, and the adaptive stop reads the refit's inlier
count (the stopping rule of Lebeda, Matas & Chum, BMVC 2012).  After
the loop the best is refitted once more only when its inlier set is not
the one it was fitted on: a refit that gained rays was fitted without
them, and without this second refit the placed-and-accurate subsets of
96 ``city_merge`` instances fell from 865 to 806 of 960.  A refit is
local: ``solver.refine`` takes Newton steps on the inliers' cost from
the hypothesis's rotation, with no enumeration of the 40 stationary
points, and only when it raises does the global ``gdls_solve`` run.  On
36 refits of 857-900 rays from the benchmark's ``city_merge`` workload
(2 vCPUs, one BLAS thread) a global refit took a median of 2.3-2.4 ms and
a polished one 0.8-0.9 ms, in two runs.

Each minimal sample lies on 4 distinct points whenever the set holds 4.
Rays of many cameras repeat a point: a ``city_merge`` member's 900
shared rays are 50 cameras' rays to 18 points, so 30% of uniform 4-ray
samples repeat one, and a sample on 2 or 3 points is degenerate or
weak.  A drawn sample that repeats a point keeps the first ray of each
of its points and is completed among the rays of the points it lacks,
so every draw is bounded work; a set whose rays all have their own
points draws exactly numpy's ``choice`` sequence.  On 96 ``city_merge``
instances (9 localizations each) the two changes took the mean minimal
samples solved per localization from 1.57 to 1.007, for 1.29 refits
where there was 1.

Minimal samples are drawn one at a time but solved in batches of 1, 1,
2, 4, ... (at most ``MAX_BATCH``, never past the current adaptive
iteration limit) by one ``solve_batch`` call each.  The batch's
hypotheses are scored by one (S, n) ``angular_residuals`` call and
accepted, and refitted, in draw order.  Batching pays because a minimal
solve is a chain of small-array numpy calls whose fixed cost dominates:
the solver centers, eliminates and assembles the costs of the whole
batch as one stack and runs the Newton polish and its tests once over
the roots of the whole batch, not once per sample, while the result is
the same as solving each sample alone.  When the loop stops, one debug
record on the ``raypose`` logger carries ``iterations_run``, the sample
and refit counts of ``RobustResult`` and the best inlier count after
the in-loop refits (``best_inliers``).

``refit_start`` applies the same refits and the same acceptance to one
given hypothesis, with no sampling.  ``umeyama_align`` is the closed-form
least-squares similarity between two 3D point sets (Umeyama's estimator,
solved in Horn's unit-quaternion form).  It is the comparison baseline
of the noise experiments, and ``pipeline.localize`` takes it, on the
points both frames of a merge hold, as the hypothesis ``refit_start``
polishes on the ray cost before any RANSAC runs.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .cost import MR, PAIR_SELECTOR
from .errors import (EmptySolutionError, InvalidInputError, RankDeficiencyError,
                     RayposeError)
from .geometry import Correspondences, Quaternion, SimilarityTransform, _integer, _rotations
from .solver import SolveReport, gdls_solve, refine, solve_batch

# Largest number of minimal samples solved together.
MAX_BATCH = 16
# Rays in a minimal sample: 4 fix the 7-DoF similarity, 2 constraints each.
SAMPLE_SIZE = 4
# Probability that the adaptive stop has drawn an all-inlier sample.
CONFIDENCE = 0.99

_log = logging.getLogger("raypose")


@dataclass(frozen=True)
class RobustConfig:
    """The robust loop's settings.  The defaults are artifact configuration,
    not protocol constants; the 0.5 degree angular threshold corresponds
    to roughly 2 px at an 800 px focal length.  The sample size and the
    stopping confidence are the module constants ``SAMPLE_SIZE`` and
    ``CONFIDENCE``.  The threshold may be any real number in (0, pi), a
    NumPy scalar included but not a bool, and is stored as a float."""

    angular_inlier_threshold: float = 8.7e-3   # radians
    max_iterations: int = 1000
    min_inliers: int = 10

    def __post_init__(self):
        # An angle from arccos lies in [0, pi], so a threshold of pi or more
        # (or inf) would call every correspondence an inlier.
        threshold = self.angular_inlier_threshold
        if (isinstance(threshold, bool) or not isinstance(threshold, numbers.Real)
                or not 0.0 < threshold < math.pi):
            raise InvalidInputError("angular_inlier_threshold must be a number in (0, pi) "
                                    f"radians, got {threshold!r}")
        object.__setattr__(self, "angular_inlier_threshold", float(threshold))
        _integer(self.max_iterations, "max_iterations", 1)
        _integer(self.min_inliers, "min_inliers", 1)


@dataclass(frozen=True)
class RobustResult:
    """Outcome of a robust estimation run.

    ``success`` is False when no model reached ``min_inliers``; the
    transform is then None and ``failure_reason`` says why.
    ``samples_solved`` counts the minimal samples solved, including those
    of the last batch drawn past the termination point (at most
    ``MAX_BATCH - 1``); ``samples_rank_deficient`` and ``samples_empty``
    count, among the first ``iterations_run`` samples, those whose solve
    raised ``RankDeficiencyError`` or ``EmptySolutionError``.
    ``samples_redrawn`` counts, among the samples solved, those completed
    on distinct points because a drawn ray repeated a point, and
    ``refits`` the non-minimal re-estimates run: one per new best
    hypothesis with at least ``min_inliers`` inliers, and one after the
    loop when the best's inlier set is not the one it was refitted on.
    A successful result with ``samples_solved`` 0 (and ``iterations_run``
    0) comes from ``refit_start``, which solves no minimal sample: in a
    merge, the member was placed from the shared points' closed-form
    alignment, and ``refits`` counts that start's refits.  Every other
    successful result comes from ``ransac_gdls``.
    """

    success: bool
    transform: Optional[SimilarityTransform]
    inlier_indices: np.ndarray
    iterations_run: int
    inlier_ratio: float
    mean_angular_error: float = float("nan")
    failure_reason: Optional[str] = None
    samples_solved: int = 0
    samples_rank_deficient: int = 0
    samples_empty: int = 0
    samples_redrawn: int = 0
    refits: int = 0


def angular_residuals(transforms: Sequence[SimilarityTransform], origins: np.ndarray,
                      directions: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Angles (radians) between the observed rays and those each of S
    transforms predicts, as an (S, n) array.  A row is, bit for bit, that
    transform's row in a sequence of one."""
    R = _rotations(np.array([each.rotation.array for each in transforms]))
    translation = np.array([each.translation for each in transforms])
    scale = np.array([each.scale for each in transforms])
    pred = points @ R.swapaxes(1, 2) + translation[:, None] - scale[:, None, None] * origins
    # cos = pred . d / |pred|, and -1 (an angle of pi) where |pred| <= 1e-12.
    norms = np.sqrt(np.add.reduce(pred * pred, axis=2))
    cosang = np.divide(np.add.reduce(pred * directions, axis=2), norms,
                       out=np.full(norms.shape, -1.0), where=norms > 1e-12)
    return np.arccos(np.clip(cosang, -1.0, 1.0, out=cosang), out=cosang)


def _on_distinct_points(draws: Iterator[np.ndarray], points: np.ndarray,
                        rng: np.random.Generator) -> Iterator[Tuple[np.ndarray, bool]]:
    """Each sample of ``draws`` as (rows, completed).  A sample whose rays
    repeat a point keeps the first ray of each of its points and is
    completed, one ray at a time, by a ray drawn uniformly among those on
    points it does not hold yet; ``completed`` marks it.  Samples on 4
    distinct points pass unchanged, and so does every sample when the set
    has fewer than 4 distinct points.  Each ray's point key is built on the
    first repeat, from the point's bytes: rays of one point share them.
    That takes about 90 us on 900 rays, where ``np.unique(points, axis=0)``
    takes 520."""
    keys = None
    for rows in draws:
        repeat = len(set(map(tuple, points[rows].tolist()))) < SAMPLE_SIZE
        if repeat and keys is None:   # a row's 3 float64 coordinates as one 24-byte key
            rays = np.ascontiguousarray(points).view("V24").ravel()
            keys = np.unique(rays, return_inverse=True)[1]
        completed = repeat and keys.max() >= SAMPLE_SIZE - 1
        if completed:
            rows = rows[np.sort(np.unique(keys[rows], return_index=True)[1])]
            while len(rows) < SAMPLE_SIZE:
                unused = np.flatnonzero(~np.isin(keys, keys[rows]))
                rows = np.append(rows, unused[rng.integers(len(unused))])
        yield rows, completed


def _support(angles: np.ndarray, threshold: float) -> Tuple[int, float]:
    """Inlier count and mean inlier angle (inf with no inlier)."""
    inlier = angles[angles < threshold]
    return len(inlier), float(inlier.mean()) if len(inlier) else math.inf


def _refit(corrs: Correspondences, transform: SimilarityTransform,
           angles: np.ndarray, threshold: float) -> Tuple[SimilarityTransform, np.ndarray]:
    """(transform, angles) after the non-minimal re-estimate on the inliers
    of ``angles``: ``refine`` from ``transform``'s rotation, or
    ``gdls_solve`` when that raises.  The refit replaces ``transform`` only
    when it loses no inlier, and not at all when both raise."""
    inliers = corrs.subset(np.flatnonzero(angles < threshold))
    try:
        refit = refine(inliers, transform.rotation).transform
    except RayposeError:   # the global solve, as on a minimal sample
        try:
            refit = gdls_solve(inliers).best.transform
        except RayposeError:
            return transform, angles
    refit_angles, = angular_residuals([refit], corrs.origins, corrs.directions, corrs.points)
    kept = np.count_nonzero(refit_angles < threshold) >= len(inliers)
    return (refit, refit_angles) if kept else (transform, angles)


def ransac_gdls(
    correspondences: Correspondences,
    config: RobustConfig = RobustConfig(),
    seed: int = 0,
) -> RobustResult:
    """Robust similarity estimation from ray-point correspondences.

    Deterministic for a fixed (input, seed).  Models are scored by inlier
    count with mean angular error as the tie-break.  Each minimal sample
    lies on 4 distinct points when the set holds 4 (points are told apart
    by their coordinates).  A hypothesis that becomes the best with at
    least ``min_inliers`` inliers is re-estimated on them by ``refine``
    from its rotation, or by ``gdls_solve`` when ``refine`` raises, and
    the refit replaces it when it loses no inlier; the adaptive stop
    reads the count of the model kept.  After the loop the best is
    refitted again, by the same rule, only when its inlier set differs
    from the one it was refitted on, and the returned inlier set is
    re-scored under the final transform.
    """
    _integer(seed, "seed", 0)
    n = len(correspondences)
    if n < SAMPLE_SIZE:
        raise InvalidInputError(f"need at least {SAMPLE_SIZE} correspondences, got {n}")
    arrays = correspondences.origins, correspondences.directions, correspondences.points
    rng = np.random.default_rng(seed)
    draws = _on_distinct_points((rng.choice(n, size=SAMPLE_SIZE, replace=False)
                                 for _ in itertools.count()), correspondences.points, rng)

    threshold = config.angular_inlier_threshold
    best_count, best_mean = 0, math.inf
    best_transform: Optional[SimilarityTransform] = None
    # The best's angles, and the inlier mask it was last refitted on.
    best_angles = fitted = None
    solved, deficient, empty, redrawn, refits, last_error = 0, 0, 0, 0, 0, None
    max_iter = config.max_iterations
    t = 0
    while t < max_iter:
        size = min(max(t, 1), MAX_BATCH, max_iter - t)
        drawn = [next(draws) for _ in range(size)]
        redrawn += sum(completed for _, completed in drawn)
        solved += size
        reports = solve_batch([correspondences.subset(rows) for rows, _ in drawn])
        hypotheses = [r.best.transform for r in reports if isinstance(r, SolveReport)]
        scored = iter(angular_residuals(hypotheses, *arrays) if hypotheses else ())
        for report in reports:
            if t == max_iter:
                break
            t += 1
            if not isinstance(report, SolveReport):
                last_error = report
                deficient += isinstance(report, RankDeficiencyError)
                empty += isinstance(report, EmptySolutionError)
                continue
            angles = next(scored)
            count, mean_err = _support(angles, threshold)
            if count > best_count or (count == best_count and mean_err < best_mean):
                best_transform, best_angles = report.best.transform, angles
                if count >= config.min_inliers:   # locally optimized: refit the new best
                    refits, fitted = refits + 1, angles < threshold
                    best_transform, best_angles = _refit(correspondences, best_transform, angles,
                                                         threshold)
                best_count, best_mean = _support(best_angles, threshold)
                # Adaptive termination from the refitted inlier ratio, which
                # is > 0: a better hypothesis has at least one inlier.  Below
                # half an ulp of 1, p_good leaves 1 - p_good at 1, a zero log:
                # no stop before max_iterations.
                p_good = (best_count / n) ** SAMPLE_SIZE
                needed = (1.0 if p_good >= 1.0 else config.max_iterations if 1 - p_good == 1.0
                          else math.log(1 - CONFIDENCE) / math.log(1 - p_good))
                max_iter = min(config.max_iterations, max(t, math.ceil(needed)))

    samples = dict(samples_solved=solved, samples_rank_deficient=deficient, samples_empty=empty,
                   samples_redrawn=redrawn)
    result = _conclude(correspondences, config, best_transform, best_angles, fitted, t, refits,
                       **samples)
    counts = dict(samples, refits=result.refits)
    _log.debug("ransac_gdls stopped after %d samples (%d solved, %d rank deficient, %d empty, "
               "%d redrawn, %d refits); best hypothesis had %d inliers", t, *counts.values(),
               best_count, extra=dict(iterations_run=t, best_inliers=best_count, **counts))
    if deficient + empty == t:   # no hypothesis was scored
        what = "were rank deficient" if deficient == t else f"raised ({deficient} rank deficient)"
        result = replace(result, failure_reason=f"all {t} minimal samples {what}; last: {last_error}")
    return result


def refit_start(correspondences: Correspondences, start: SimilarityTransform,
                config: RobustConfig = RobustConfig()) -> RobustResult:
    """Locally optimized estimate from one hypothesis, with no sampling.

    ``start`` is scored and, with at least ``min_inliers`` inliers, refitted
    by the rules ``ransac_gdls`` applies to its best hypothesis: once on
    its inliers, and once more only when the refit changed the inlier set.
    The result has ``iterations_run`` and ``samples_solved`` 0 and counts
    its refits; below ``min_inliers`` it fails as ``ransac_gdls`` does.
    """
    threshold = config.angular_inlier_threshold
    angles, = angular_residuals([start], correspondences.origins, correspondences.directions,
                                correspondences.points)
    fitted, refits = angles < threshold, 0
    if np.count_nonzero(fitted) >= config.min_inliers:
        refits, (start, angles) = 1, _refit(correspondences, start, angles, threshold)
    return _conclude(correspondences, config, start, angles, fitted, 0, refits)


def _conclude(corrs: Correspondences, config: RobustConfig,
              transform: Optional[SimilarityTransform], angles: Optional[np.ndarray],
              fitted: Optional[np.ndarray], iterations: int, refits: int,
              **samples) -> RobustResult:
    """The result of a best hypothesis ``transform`` with ``angles`` (both
    None when none was scored), last refitted on the inlier mask
    ``fitted``.  It fails below ``min_inliers`` inliers.  Otherwise a
    refit that gained rays was fitted without them, so the best is
    refitted once more when its inlier set is not ``fitted``, and the
    returned inlier set is re-scored under the final transform.
    ``refits`` and ``samples`` are the run's counts so far."""
    threshold = config.angular_inlier_threshold
    count = 0 if angles is None else np.count_nonzero(angles < threshold)
    if count < config.min_inliers:
        return RobustResult(False, None, np.array([], dtype=int), iterations, 0.0, failure_reason=(
            f"best model had {count} inliers (< min_inliers={config.min_inliers})"),
            refits=refits, **samples)
    if not np.array_equal(angles < threshold, fitted):
        refits += 1
        transform, angles = _refit(corrs, transform, angles, threshold)
    inliers = np.flatnonzero(angles < threshold)
    return RobustResult(True, transform, inliers, iterations, len(inliers) / len(corrs),
                        float(angles[inliers].mean()), refits=refits, **samples)


def _horn_matrix(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """The symmetric 4x4 N with q^T N q = sum_i db_i . R(q) da_i for unit q:
    the pairs' cross-covariance on the rotation's monomials (``cost.MR``),
    spread evenly over q kron q."""
    return (PAIR_SELECTOR.T @ (MR.T @ (db.T @ da).ravel())).reshape(4, 4)


def umeyama_align(points_a: Sequence, points_b: Sequence) -> SimilarityTransform:
    """Closed-form least-squares similarity with ``b ~ s R a + t``.

    Horn's form of Umeyama's estimator: with centred sets a', b', the
    rotation's unit quaternion maximizes q^T N q = sum b'_i . R(q) a'_i,
    so it is the top eigenvector of the 4x4 symmetric N (``_horn_matrix``,
    built on the package's one rotation map); a unit quaternion is always
    a proper rotation.  The scale is sum b' . R a' / sum |a'|^2.
    Raises ``RankDeficiencyError`` for collinear or degenerate inputs,
    where the top two eigenvalues meet, and ``InvalidInputError`` for a
    NaN or infinite coordinate or for coordinates so large (beyond about
    1e150) that the cross-covariance overflows.
    """
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise InvalidInputError("point sets must both be (n, 3) with equal n")
    if a.shape[0] < 3:
        raise InvalidInputError("at least 3 point pairs required")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInputError("point coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        mu_a = a.mean(axis=0)
        mu_b = b.mean(axis=0)
        da = a - mu_a
        db = b - mu_b
        N, spread = _horn_matrix(da, db), float(np.sum(da * da))
    if not (np.isfinite(N).all() and np.isfinite(spread)):
        raise InvalidInputError("point coordinates are too large: their cross-covariance "
                                "or spread overflows the float range")
    w, v = np.linalg.eigh(N)
    if w[3] - w[2] <= 1e-12 * w[3]:
        raise RankDeficiencyError("point configuration is collinear or degenerate")
    q = Quaternion(*v[:, 3])
    s = float(w[3]) / spread
    return SimilarityTransform(q, mu_b - s * (q.rotation_matrix() @ mu_a), s)
