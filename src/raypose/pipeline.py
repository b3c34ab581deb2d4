"""Hierarchical merging of distributed cameras.

Each level partitions the surviving distributed cameras into small groups
(normalized-cut spectral bisection of the shared-point match graph),
picks the camera with the most points in each group as the base,
localizes every other member against the base, and merges the successes
into the base.  A localization starts from the closed-form similarity
between the two frames' coordinates of their shared points, polished on
the rays' angular cost, and runs RANSAC only when that start is refused.
Levels repeat until a single camera remains or no further merge is
possible.  No bundle adjustment or other refinement is run, between
levels or after the last one.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, RayposeError
from .geometry import (Correspondences, DistributedCamera,
                       SimilarityTransform, _integer, alignment_from_pose,
                       compose_similarity, merge_distributed_cameras)
from .robust import (SAMPLE_SIZE, RobustConfig, RobustResult, ransac_gdls, refit_start,
                     umeyama_align)

DEFAULT_GROUP_SIZE = 8
# Rays through fewer distinct points leave a rotation about the line
# through them free, so every minimal sample is degenerate.
MIN_DISTINCT_POINTS = 3
# Share of the shared rays a localization must hold as inliers.
MIN_INLIER_RATIO = 0.3

_log = logging.getLogger("raypose")


@dataclass(frozen=True)
class LevelRecord:
    """One merge level: the groups, each group's base, per-member outcomes
    and the level's wall time, which equality ignores."""

    groups: Tuple[Tuple[int, ...], ...]
    base_ids: Tuple[int, ...]
    results: Dict[int, RobustResult]
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class MergeReport:
    """Full account of a hierarchical merge.

    ``transform_log`` maps every successfully placed input camera id to
    the cumulative similarity taking its local frame into the final frame;
    ``failed_members`` maps the rest to a reason.  The two key sets
    partition the inputs.
    """

    levels: Tuple[LevelRecord, ...]
    failed_members: Dict[int, str]
    final_camera: DistributedCamera
    transform_log: Dict[int, SimilarityTransform]


def build_match_graph(cameras: Sequence[DistributedCamera]) -> np.ndarray:
    """(k, k) weight matrix W of the cameras: W[i, j] is the number of point
    ids cameras i and j share, zero on the diagonal and below 4 (too few
    for a minimal sample).

    An inverted index gives each id a column in first-seen order (ids are
    any hashables, compared as Python values), and W is the off-diagonal
    part of the camera x point incidence product.
    """
    column: Dict[object, int] = {}
    counts = [cam.n_points for cam in cameras]
    cols = np.fromiter((column.setdefault(p, len(column))
                        for cam in cameras for p in cam.point_ids.tolist()),
                       dtype=np.intp, count=sum(counts))
    B = np.zeros((len(cameras), len(column)))
    B[np.repeat(np.arange(len(cameras)), counts), cols] = 1.0
    W = B @ B.T
    np.fill_diagonal(W, 0.0)
    W[W < SAMPLE_SIZE] = 0.0
    return W


def _components(W: np.ndarray) -> List[np.ndarray]:
    """Connected components of W > 0 as sorted index arrays, ordered by
    their smallest vertex."""
    A = W > 0
    unseen = np.ones(len(W), dtype=bool)
    comps = []
    while unseen.any():
        comp = frontier = np.arange(len(W)) == np.argmax(unseen)
        while frontier.any():
            frontier = A[frontier].any(axis=0) & ~comp
            comp = comp | frontier
        unseen &= ~comp
        comps.append(np.flatnonzero(comp))
    return comps


def _fiedler_split(W: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sign split of W's vertices on the second-smallest eigenvector of the
    normalized Laplacian, as sorted local positions.  The eigenvector's
    sign is fixed by its first nonzero entry, and zero entries go in
    position order to the smaller side."""
    n = len(W)
    d = W.sum(axis=1)
    Dh = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    L = np.eye(n) - Dh[:, None] * W * Dh[None, :]
    f = np.linalg.eigh(0.5 * (L + L.T))[1][:, 1]
    lead = np.argmax(np.abs(f) > 1e-12)
    if f[lead] < 0:
        f = -f
    pos = f > 1e-12
    neg = f < -1e-12
    for k in np.flatnonzero(~(pos | neg)):
        (pos if pos.sum() <= neg.sum() else neg)[k] = True
    if pos.all() or neg.all():
        # Degenerate spectrum: deterministic fallback on positions.
        half = max(1, n // 2)
        return np.arange(half), np.arange(half, n)
    return np.flatnonzero(pos), np.flatnonzero(neg)


def partition(W: np.ndarray, max_size: int) -> List[List[int]]:
    """Vertex groups of size ≤ max_size of the weight matrix W (as built by
    :func:`build_match_graph`), via recursive spectral bisection.

    Connected components of W > 0 are found first and partitioned
    independently; each oversized piece is split along the normalized-cut
    direction of its sub-matrix.  Groups are sorted vertex lists, in
    component order and then depth-first, first side first.
    """
    _integer(max_size, "max_size", 1)
    out: List[List[int]] = []

    def recurse(vs: np.ndarray):
        if len(vs) <= max_size:
            out.append(vs.tolist())
            return
        a, b = _fiedler_split(W[np.ix_(vs, vs)])
        recurse(vs[a])
        recurse(vs[b])

    for comp in _components(W):
        recurse(comp)
    return out


def select_base(group: Sequence[DistributedCamera], ids: Sequence[int]) -> int:
    """Id (from ``ids``, one per member) of the group member with the most
    3D points; ties by smallest id."""
    if not group:
        raise InvalidInputError("select_base requires a nonempty group")
    best = min(zip(group, ids), key=lambda ci: (-ci[0].n_points, ci[1]))
    return best[1]


def shared_correspondences(base: DistributedCamera, other: DistributedCamera,
                           rows: Optional[np.ndarray] = None) -> Correspondences:
    """Rays of ``other`` observing points whose 3D coordinates ``base`` knows,
    in other's observation order.  ``rows`` is
    ``base.point_rows(other.point_ids)``, computed here when not given.
    Both cameras' arrays passed their checks already, so the rows taken
    are not checked again."""
    if rows is None:
        rows = base.point_rows(other.point_ids)
    rows = rows[other.obs_point]
    keep = np.flatnonzero(rows >= 0)
    return Correspondences._unchecked(other.centers[other.obs_camera[keep]],
                                      other.directions[keep], base.points[rows[keep]])


def localize(
    base: DistributedCamera,
    other: DistributedCamera,
    config: RobustConfig = RobustConfig(),
    seed: int = 0,
) -> RobustResult:
    """Robustly estimate the pose of ``other`` against base's 3D points.

    The returned transform has pose semantics (it satisfies the ray
    constraint against base coordinates); convert with
    ``alignment_from_pose`` to map other's local frame into base's frame.
    Success additionally requires inlier_ratio ≥ 0.3.  Fewer than 4 shared
    rays, or rays on fewer than 3 distinct base points, fail at once with
    a reason naming the count, and no RANSAC runs.

    Both frames hold coordinates of every shared point, so the start is
    ``umeyama_align`` of other's coordinates onto base's, made a pose by
    ``alignment_from_pose`` (the map is its own inverse).  ``refit_start``
    scores it on the rays and refits it as RANSAC refits its best, and
    its result is returned when it passes the same two gates, with
    ``samples_solved`` 0.  When the alignment raises (collinear points)
    or the start is refused, ``ransac_gdls`` runs on the shared rays with
    ``seed``, under the same gates, as if there had been no start.  On
    the 96 instances of the benchmark's ``city_merge`` workload at seeds
    1-8 the start placed every member, and every subset's error matched
    the sampled path's to 2e-11 relative: both paths reach the same
    minimum of the ray cost.
    """
    _integer(seed, "seed", 0)
    rows = base.point_rows(other.point_ids)
    corrs = shared_correspondences(base, other, rows)
    # Distinct x coordinates bound the distinct points from below at about a
    # thirtieth of the cost (15 against 510 us on 900 rays); the exact count
    # runs only when that bound is below 3.
    points = len(np.unique(corrs.points[:, 0]))
    if points < MIN_DISTINCT_POINTS:
        points = len(np.unique(corrs.points, axis=0))
    if len(corrs) < SAMPLE_SIZE or points < MIN_DISTINCT_POINTS:
        return RobustResult(False, None, np.array([], dtype=int), 0, 0.0, failure_reason=(
            f"only {points} distinct points among {len(corrs)} shared rays (need "
            f"{SAMPLE_SIZE} rays on {MIN_DISTINCT_POINTS} points)"))
    shared = np.flatnonzero(rows >= 0)
    try:
        start = alignment_from_pose(umeyama_align(other.points[shared], base.points[rows[shared]]))
    except RayposeError:
        start = None
    result = None if start is None else refit_start(corrs, start, config)
    if result is None or not result.success or result.inlier_ratio < MIN_INLIER_RATIO:
        result = ransac_gdls(corrs, config, seed=seed)
    if result.success and result.inlier_ratio < MIN_INLIER_RATIO:
        return replace(
            result, success=False, transform=None, mean_angular_error=float("nan"),
            failure_reason=f"inlier ratio {result.inlier_ratio:.3f} < {MIN_INLIER_RATIO}")
    return result


def _namespace_all(cameras: Sequence[DistributedCamera]) -> List[DistributedCamera]:
    """Prefix physical camera ids with the input index when any id collides
    across inputs, so merged unions stay well formed."""
    ids = [cid for cam in cameras for cid in cam.camera_ids.tolist()]
    if len(set(ids)) == len(ids):
        return list(cameras)
    return [DistributedCamera(cam.obs_camera, cam.obs_point, cam.directions,
                              [f"{i}/{cid}" for cid in cam.camera_ids.tolist()],
                              cam.centers, cam.orientations, cam.point_ids, cam.points)
            for i, cam in enumerate(cameras)]


@dataclass
class _Entry:
    """A surviving distributed camera plus bookkeeping for its members."""

    rep: int                                   # representative input id
    camera: DistributedCamera
    members: Dict[int, SimilarityTransform]    # input id -> into-this-frame
    retried: bool = False


def hierarchical_merge(
    cameras: Sequence[DistributedCamera],
    config: RobustConfig = RobustConfig(),
    max_group_size: int = DEFAULT_GROUP_SIZE,
    seed: int = 0,
    threads: int = 1,
) -> MergeReport:
    """Merge distributed cameras level by level until one remains.

    Input cameras are identified by their list index.  Each level's groups
    hold at most ``max_group_size`` cameras, at least 2: a group of one
    merges nothing.  Members that fail to localize are carried to the next
    level and retried once before being marked failed; cameras left
    disconnected at the fixpoint are failed with a diagnostic.  Groups
    within a level are independent and evaluated by ``threads`` worker
    threads when it is > 1; the result is a pure function of (input, seed)
    either way.  More threads are not known to be faster: on 2 vCPUs with
    one BLAS thread, in 3 alternating pairs each,
    ``generate_city(64, 20, 0.3, 0.5, seed=0)`` merged in 0.13-0.17 s
    with 1 thread and 0.16-0.17 s with 2; the grid cities of the tests'
    ``grid_city.generate_grid_city``, each member placed at level 0 from
    the closed-form start, merged at 16 x 10 in 0.36-0.48 s with 1 and
    0.37-0.47 s with 2, and at 32 x 32 in 3.82-4.45 s with 1 and
    4.30-5.61 s with 2 (two sessions).
    Each level ends with one debug record on the ``raypose`` logger
    carrying ``level``, ``groups``, ``placed`` and ``failed`` (the members
    whose localization at that level succeeded or failed), ``closed_form``
    (the placed members whose result has ``samples_solved`` 0, placed from
    the closed-form start with no RANSAC) and ``seconds``, the level's
    wall time, as in its ``LevelRecord``.
    """
    if not cameras:
        raise InvalidInputError("hierarchical_merge requires at least one camera")
    _integer(max_group_size, "max_group_size", 2)
    _integer(seed, "seed", 0)
    _integer(threads, "threads", 1)
    cams = _namespace_all(cameras)
    entries = [_Entry(i, cam, {i: SimilarityTransform.identity()}) for i, cam in enumerate(cams)]
    levels: List[LevelRecord] = []
    failed: Dict[int, str] = {}

    while len(entries) > 1:
        start = time.perf_counter()
        groups = partition(build_match_graph([e.camera for e in entries]), max_group_size)

        def process(group: List[int]):
            """Merge the group into its base: (base id, member results, entries
            carried on: the merged base, then retries; ids failed for good)."""
            members = [entries[k] for k in group]
            base = entries[select_base([e.camera for e in members], group)]
            merged, composed = base.camera, dict(base.members)
            results: Dict[int, RobustResult] = {}
            retry: List[_Entry] = []
            failures: Dict[int, str] = {}
            for entry in members:
                if entry is base:
                    continue
                sub_seed = int(np.random.SeedSequence(
                    [seed, len(levels), base.rep, entry.rep]).generate_state(1)[0])
                result = localize(merged, entry.camera, config, seed=sub_seed)
                results[entry.rep] = result
                if result.success:
                    align = alignment_from_pose(result.transform)
                    merged = merge_distributed_cameras(merged, entry.camera, align)
                    for mid, t in entry.members.items():
                        composed[mid] = compose_similarity(align, t)
                elif entry.retried:
                    failures.update(dict.fromkeys(
                        entry.members, result.failure_reason or "localization failed"))
                else:
                    retry.append(replace(entry, retried=True))
            # A base that merged nothing keeps its retry state.
            carried = _Entry(base.rep, merged, composed, base.retried and merged is base.camera)
            return base.rep, results, [carried] + retry, failures

        if threads > 1 and len(groups) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = list(pool.map(process, groups))
        else:
            outcomes = [process(g) for g in groups]
        base_ids, group_results, carried, failures = zip(*outcomes)
        results = {rep: r for rs in group_results for rep, r in rs.items()}
        for f in failures:
            failed.update(f)
        placed = sum(r.success for r in results.values())
        closed_form = sum(r.success and r.samples_solved == 0 for r in results.values())
        stats = dict(level=len(levels), groups=len(groups), placed=placed, closed_form=closed_form,
                     failed=len(results) - placed, seconds=time.perf_counter() - start)
        levels.append(LevelRecord(tuple(tuple(entries[k].rep for k in g) for g in groups),
                                  base_ids, results, stats["seconds"]))
        _log.debug("merge level %(level)d: %(groups)d groups, %(placed)d members placed "
                   "(%(closed_form)d from the closed-form start), %(failed)d failed, "
                   "%(seconds).3f s", stats, extra=stats)
        entries = [e for c in carried for e in c]
        if not placed:
            break

    # Fixpoint with several survivors: keep the largest, fail the rest.
    entries.sort(key=lambda e: (-e.camera.n_points, e.rep))
    final = entries[0]
    for entry in entries[1:]:
        for mid in entry.members:
            failed[mid] = "disconnected from the final reconstruction"
    return MergeReport(tuple(levels), failed, final.camera, dict(final.members))

