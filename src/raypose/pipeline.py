"""Hierarchical merging of distributed cameras.

Each level partitions the surviving distributed cameras into small groups
(normalized-cut spectral bisection of the shared-point match graph),
picks the camera with the most points in each group as the base,
localizes every other member against the base with the robust solver,
and merges the successes into the base.  Levels repeat until a single
camera remains or no further merge is possible.  No bundle adjustment is
run between levels; ``refine_similarities`` offers an optional per-camera
polish against the final point cloud.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost import constraint_cost
from .errors import InvalidInputError, RayposeError
from .geometry import (Correspondences, DistributedCamera,
                       SimilarityTransform, alignment_from_pose,
                       compose_similarity, merge_distributed_cameras,
                       pose_from_alignment)
from .robust import RobustConfig, RobustResult, ransac_gdls
from .solver import gdls_solve

DEFAULT_GROUP_SIZE = 8


@dataclass(frozen=True)
class MatchGraph:
    """Undirected weighted graph of distributed cameras sharing points."""

    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, int], ...]   # (id, id, shared-point count)

    def adjacency(self) -> Dict[int, Dict[int, int]]:
        adj: Dict[int, Dict[int, int]] = {v: {} for v in self.vertices}
        for a, b, w in self.edges:
            adj[a][b] = w
            adj[b][a] = w
        return adj


@dataclass(frozen=True)
class LevelRecord:
    """One merge level: the groups, each group's base, and per-member outcomes."""

    groups: Tuple[Tuple[int, ...], ...]
    base_ids: Tuple[int, ...]
    results: Dict[int, RobustResult]


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


def build_match_graph(cameras: Sequence[DistributedCamera]) -> MatchGraph:
    """Edge weight = number of shared point ids; weights < 4 are dropped
    because they cannot support a minimal sample."""
    id_sets = [set(cam.point_ids.tolist()) for cam in cameras]
    edges = []
    for i in range(len(cameras)):
        for j in range(i + 1, len(cameras)):
            w = len(id_sets[i] & id_sets[j])
            if w >= 4:
                edges.append((i, j, w))
    return MatchGraph(tuple(range(len(cameras))), tuple(edges))


def _connected_components(graph: MatchGraph) -> List[List[int]]:
    adj = graph.adjacency()
    seen = set()
    comps = []
    for v in sorted(graph.vertices):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for nb in sorted(adj[u]):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def _fiedler_split(vertices: List[int], adj: Dict[int, Dict[int, int]]) -> Tuple[List[int], List[int]]:
    """Sign split on the second-smallest eigenvector of the normalized
    Laplacian; ties (zero entries) and the eigenvector sign are resolved
    deterministically by vertex id."""
    n = len(vertices)
    index = {v: k for k, v in enumerate(vertices)}
    W = np.zeros((n, n))
    for v in vertices:
        for u, w in adj[v].items():
            if u in index:
                W[index[v], index[u]] = w
    d = W.sum(axis=1)
    d_safe = np.where(d > 0, d, 1.0)
    Dh = 1.0 / np.sqrt(d_safe)
    L = np.eye(n) - Dh[:, None] * W * Dh[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (L + L.T))
    f = vecs[:, 1]
    lead = np.argmax(np.abs(f) > 1e-12)
    if f[lead] < 0:
        f = -f
    pos = f > 1e-12
    neg = f < -1e-12
    a = [v for v in vertices if pos[index[v]]]
    b = [v for v in vertices if neg[index[v]]]
    tied = [v for v in vertices if not (pos[index[v]] or neg[index[v]])]
    for v in sorted(tied):
        (a if len(a) <= len(b) else b).append(v)
    if not a or not b:
        # Degenerate spectrum: deterministic fallback on sorted ids.
        half = max(1, n // 2)
        ordered = sorted(vertices)
        a, b = ordered[:half], ordered[half:]
    return sorted(a), sorted(b)


def partition(graph: MatchGraph, max_size: int = 150) -> List[List[int]]:
    """Vertex groups of size ≤ max_size via recursive spectral bisection.

    Connected components are found first and partitioned independently;
    each oversized piece is split along its normalized-cut direction.
    """
    if max_size < 1:
        raise InvalidInputError("max_size must be positive")
    if not graph.vertices:
        return []
    adj = graph.adjacency()
    out: List[List[int]] = []

    def recurse(vs: List[int]):
        if len(vs) <= max_size:
            out.append(vs)
            return
        a, b = _fiedler_split(vs, adj)
        recurse(a)
        recurse(b)

    for comp in _connected_components(graph):
        recurse(comp)
    return out


def select_base(group: Sequence[DistributedCamera], ids: Optional[Sequence[int]] = None) -> int:
    """Id of the group member with the most 3D points; ties by smallest id."""
    if not group:
        raise InvalidInputError("select_base requires a nonempty group")
    if ids is None:
        ids = list(range(len(group)))
    best = min(zip(group, ids), key=lambda ci: (-ci[0].n_points, ci[1]))
    return best[1]


def shared_correspondences(base: DistributedCamera, other: DistributedCamera) -> Correspondences:
    """Rays of ``other`` observing points whose 3D coordinates ``base`` knows,
    in other's observation order."""
    rows = base.point_rows(other.point_ids)[other.obs_point]
    keep = np.flatnonzero(rows >= 0)
    return Correspondences(other.centers[other.obs_camera[keep]], other.directions[keep],
                           base.points[rows[keep]])


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
    Success additionally requires inlier_ratio ≥ 0.3.
    """
    corrs = shared_correspondences(base, other)
    if len(corrs) < config.sample_size:
        return RobustResult(False, None, np.array([], dtype=int), 0, 0.0,
                            failure_reason=f"only {len(corrs)} shared points "
                                           f"(< {config.sample_size})")
    result = ransac_gdls(corrs, config, seed=seed)
    if result.success and result.inlier_ratio < 0.3:
        return replace(
            result, success=False, transform=None, mean_angular_error=float("nan"),
            failure_reason=f"inlier ratio {result.inlier_ratio:.3f} < 0.3")
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
    threads: Optional[int] = None,
) -> MergeReport:
    """Merge distributed cameras level by level until one remains.

    Input cameras are identified by their list index.  Members that fail
    to localize are carried to the next level and retried once before
    being marked failed; cameras left disconnected at the fixpoint are
    failed with a diagnostic.  Groups within a level are independent and
    evaluated in parallel when ``threads`` (or RAYPOSE_THREADS) > 1; the
    result is a pure function of (input, seed) either way.
    """
    if not cameras:
        raise InvalidInputError("hierarchical_merge requires at least one camera")
    if threads is None:
        threads = int(os.environ.get("RAYPOSE_THREADS", "1"))
    cams = _namespace_all(cameras)
    entries = [_Entry(i, cam, {i: SimilarityTransform.identity()}) for i, cam in enumerate(cams)]
    levels: List[LevelRecord] = []
    failed: Dict[int, str] = {}

    while len(entries) > 1:
        graph = build_match_graph([e.camera for e in entries])
        groups = partition(graph, max_group_size)

        def process(group: List[int]):
            members = [entries[k] for k in group]
            base_pos = select_base([e.camera for e in members], group)
            base_entry = entries[base_pos]
            merged = base_entry.camera
            results: Dict[int, RobustResult] = {}
            absorbed: List[Tuple[_Entry, SimilarityTransform]] = []
            leftovers: List[int] = []
            for k in group:
                if k == base_pos:
                    continue
                entry = entries[k]
                sub_seed = int(np.random.SeedSequence(
                    [seed, len(levels), base_entry.rep, entry.rep]).generate_state(1)[0])
                result = localize(merged, entry.camera, config, seed=sub_seed)
                results[entry.rep] = result
                if result.success:
                    align = alignment_from_pose(result.transform)
                    merged = merge_distributed_cameras(merged, entry.camera, align)
                    absorbed.append((entry, align))
                else:
                    leftovers.append(k)
            return base_pos, merged, results, absorbed, leftovers

        multi = [g for g in groups if len(g) > 1]
        if threads > 1 and len(multi) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = {id(g): r for g, r in zip(multi, pool.map(process, multi))}
        else:
            outcomes = {id(g): process(g) for g in multi}

        next_entries: List[_Entry] = []
        results_level: Dict[int, RobustResult] = {}
        base_ids: List[int] = []
        merged_any = False
        for group in groups:
            if len(group) == 1:
                entry = entries[group[0]]
                base_ids.append(entry.rep)
                next_entries.append(entry)
                continue
            base_pos, merged, results, absorbed, leftovers = outcomes[id(group)]
            base_entry = entries[base_pos]
            base_ids.append(base_entry.rep)
            results_level.update(results)
            new_members = dict(base_entry.members)
            for entry, align in absorbed:
                merged_any = True
                for mid, t in entry.members.items():
                    new_members[mid] = compose_similarity(align, t)
            next_entries.append(_Entry(base_entry.rep, merged, new_members))
            for k in leftovers:
                entry = entries[k]
                if entry.retried:
                    for mid in entry.members:
                        failed[mid] = results[entry.rep].failure_reason or "localization failed"
                else:
                    next_entries.append(_Entry(entry.rep, entry.camera, entry.members, retried=True))

        levels.append(LevelRecord(
            tuple(tuple(entries[k].rep for k in g) for g in groups),
            tuple(base_ids), results_level))
        entries = next_entries
        if not merged_any:
            break

    # Fixpoint with several survivors: keep the largest, fail the rest.
    entries.sort(key=lambda e: (-e.camera.n_points, e.rep))
    final = entries[0]
    for entry in entries[1:]:
        for mid in entry.members:
            failed[mid] = "disconnected from the final reconstruction"
    return MergeReport(tuple(levels), failed, final.camera, dict(final.members))


def _pose_cost(corrs: Correspondences, T: SimilarityTransform) -> float:
    """Summed squared constraint error of a full similarity (no re-elimination)."""
    return constraint_cost(corrs.origins, corrs.directions, corrs.points, T.rotation_matrix(),
                           T.scale, T.translation)


def refine_similarities(report: MergeReport, cameras: Sequence[DistributedCamera]) -> MergeReport:
    """Polish per-camera similarities against the frozen merged cloud.

    Each camera's pose is refit by a full solve on its rays vs the final
    point coordinates, and the refit is accepted only when it lowers that
    camera's summed squared error.  A refit depends on nothing but the
    camera's rays and the frozen cloud, so one pass reaches the fixpoint.
    The merged point cloud itself is not moved.
    """
    cams = _namespace_all(cameras)
    log = dict(report.transform_log)
    for mid in log:
        corrs = shared_correspondences(report.final_camera, cams[mid])
        if len(corrs) < 4:
            continue
        try:
            refit = gdls_solve(corrs).best
        except RayposeError:
            continue
        if refit.cost < _pose_cost(corrs, pose_from_alignment(log[mid])):
            log[mid] = alignment_from_pose(refit.transform)
    return MergeReport(report.levels, dict(report.failed_members), report.final_camera, log)
