import dataclasses
import itertools
import logging

import numpy as np
import pytest

from raypose import (DistributedCamera, Quaternion, RobustConfig, RobustResult,
                     apply_similarity, build_match_graph, generate_city,
                     hierarchical_merge, localize, partition, ransac_gdls,
                     select_base, umeyama_align)
from raypose.errors import InvalidInputError, RankDeficiencyError
from raypose.geometry import SimilarityTransform, alignment_from_pose
from raypose.pipeline import shared_correspondences

from dense_oracle import match_weights
from grid_city import generate_grid_city


def _camera_with_points(pids, cam_id="a"):
    rng = np.random.default_rng(hash(cam_id) % 2**32)
    pids = list(pids)
    pts = rng.normal(size=(len(pids), 3)) + np.array([0, 0, 5.0])
    rows = np.arange(len(pids))
    return DistributedCamera(np.zeros_like(rows), rows, pts, [cam_id], np.zeros((1, 3)),
                             [Quaternion.identity().array], pids, pts)


def test_match_graph_weights():
    a = _camera_with_points(range(0, 25), "a")
    b = _camera_with_points(range(0, 25), "b")     # shares 25
    c = _camera_with_points(range(100, 110), "c")  # shares none
    d = _camera_with_points(range(23, 26), "d")    # shares 2 with a/b: dropped
    W = build_match_graph([a, b, c, d])
    assert W.shape == (4, 4)
    assert W[0, 1] == W[1, 0] == 25
    assert not W[2].any() and not W[:, 2].any()
    assert not np.any((W > 0) & (W < 4))
    assert not np.diag(W).any()


def test_match_graph_matches_set_intersections_on_mixed_ids():
    # Point ids are any JSON scalar: ints, strings and null mixed across
    # cameras, with 1 and "1" distinct.
    rng = np.random.default_rng(0)
    pool = list(range(30)) + [str(i) for i in range(30)] + [None]
    for _ in range(20):
        cams = [_camera_with_points(rng.choice(np.array(pool, dtype=object),
                                               size=int(rng.integers(0, 40)), replace=False),
                                    f"c{i}")
                for i in range(int(rng.integers(1, 9)))]
        assert np.array_equal(build_match_graph(cams), match_weights(cams))


def _weights(n, edges):
    """Symmetric (n, n) weight matrix of an edge list."""
    W = np.zeros((n, n))
    for a, b, w in edges:
        W[a, b] = W[b, a] = w
    return W


def test_partition_trivial_cases():
    assert partition(_weights(0, ()), 10) == []
    g = _weights(3, ((0, 1, 5), (1, 2, 5)))
    assert partition(g, 10) == [[0, 1, 2]]


def test_partition_splits_weak_edge():
    # two 4-cliques joined by one weak edge
    edges = []
    for grp in ([0, 1, 2, 3], [4, 5, 6, 7]):
        edges += [(a, b, 10) for a, b in itertools.combinations(grp, 2)]
    edges.append((3, 4, 1))
    g = _weights(8, edges)
    groups = partition(g, 4)
    assert sorted(map(sorted, groups)) == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_partition_respects_max_size_and_covers():
    rng = np.random.default_rng(0)
    n = 30
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.2:
                edges.append((i, j, int(rng.integers(4, 20))))
    g = _weights(n, edges)
    groups = partition(g, 7)
    assert all(len(grp) <= 7 for grp in groups)
    assert sorted(v for grp in groups for v in grp) == list(range(n))


@pytest.mark.parametrize("max_size", ["2", 2.5, True, 0, None])
def test_partition_requires_an_integer_max_size(max_size):
    # "2" used to raise TypeError, and 2.5 was taken.
    W = _weights(4, [(0, 1, 5), (2, 3, 5)])
    with pytest.raises(InvalidInputError, match="^max_size must be an integer >= 1"):
        partition(W, max_size)
    assert partition(W, np.int64(1)) == [[0], [1], [2], [3]]


def _cut_weight(edges, side_a):
    side_a = set(side_a)
    return sum(w for a, b, w in edges if (a in side_a) != (b in side_a))


def test_partition_near_optimal_on_tiny_graphs():
    # First split's cut weight within 3x of the best balanced bisection,
    # checked exhaustively on small random connected graphs.
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        edges = [(i, i + 1, int(rng.integers(4, 10))) for i in range(n - 1)]
        for i in range(n):
            for j in range(i + 2, n):
                if rng.random() < 0.3:
                    edges.append((i, j, int(rng.integers(4, 10))))
        g = _weights(n, edges)
        groups = partition(g, n - 1)  # force exactly one split at the top
        if len(groups) < 2:
            continue
        ours = _cut_weight(edges, groups[0])
        best = min(_cut_weight(edges, comb)
                   for comb in itertools.combinations(range(n), n // 2))
        assert ours <= 3 * best


def test_select_base():
    cams = [_camera_with_points(range(10), "a"),
            _camera_with_points(range(50), "b"),
            _camera_with_points(range(20), "c")]
    assert select_base(cams, [0, 1, 2]) == 1
    equal = [_camera_with_points(range(5), c) for c in "abc"]
    assert select_base(equal, [0, 1, 2]) == 0
    assert select_base(equal, [7, 3, 9]) == 3


def test_localize_constructed_similarity():
    cams, truths = generate_city(2, 3, 0.4, 0.0, seed=1)
    result = localize(cams[0], cams[1], RobustConfig(), seed=0)
    assert result.success
    # alignment maps camera 1's local frame into camera 0's frame; the
    # truth transforms map each local frame to world.
    align = alignment_from_pose(result.transform)
    probe = np.array([0.3, -0.2, 1.0])
    expect = apply_similarity(truths[0], apply_similarity(align, probe))
    direct = apply_similarity(truths[1], probe)
    assert np.allclose(expect, direct, atol=1e-6)


def test_localize_disjoint_fails_gracefully():
    a = _camera_with_points(range(10), "a")
    b = _camera_with_points(range(100, 110), "b")
    result = localize(a, b, RobustConfig())
    assert not result.success
    assert "shared" in result.failure_reason


def test_localize_names_too_few_distinct_points():
    # Six cameras all see the same two base points: every minimal sample
    # would be degenerate, so none is drawn.
    base = _camera_with_points(range(20), "a")
    rng = np.random.default_rng(7)
    centers = rng.uniform(-1.0, 1.0, (6, 3))
    pts = np.vstack([base.points[:2], rng.normal(size=(4, 3)) + np.array([0, 0, 5.0])])
    cam, pt = (a.ravel() for a in np.meshgrid(np.arange(6), np.arange(6), indexing="ij"))
    other = DistributedCamera(cam, pt, pts[pt] - centers[cam], list("uvwxyz"), centers,
                              np.tile(Quaternion.identity().array, (6, 1)),
                              [0, 1, 100, 101, 102, 103], pts)
    result = localize(base, other, RobustConfig())
    assert not result.success and result.iterations_run == 0 and result.samples_solved == 0
    assert result.failure_reason.startswith("only 2 distinct points among 12 shared rays")


def test_localize_counts_only_the_shared_points_rays_observe():
    # Base knows all six of other's points, but other's rays observe two of
    # them: the count is of the points among the shared rays, not of the
    # shared ids.
    base = _camera_with_points(range(20), "a")
    centers = np.random.default_rng(8).uniform(-1.0, 1.0, (6, 3))
    cam, pt = (a.ravel() for a in np.meshgrid(np.arange(6), np.arange(2), indexing="ij"))
    other = DistributedCamera(cam, pt, base.points[pt] - centers[cam], list("uvwxyz"), centers,
                              np.tile(Quaternion.identity().array, (6, 1)), range(6),
                              base.points[:6])
    result = localize(base, other, RobustConfig())
    assert not result.success and result.iterations_run == 0 and result.samples_solved == 0
    assert result.failure_reason.startswith("only 2 distinct points among 12 shared rays")


def test_members_are_placed_from_the_closed_form_start():
    # Both frames hold every shared point, so Umeyama's alignment of them,
    # polished on the ray cost, places each member with no minimal sample,
    # at the minimum RANSAC's refits reach.
    cams, _ = generate_city(4, 5, 0.3, 0.5, seed=0)
    config = RobustConfig()
    results = hierarchical_merge(cams, config, seed=0).levels[0].results
    assert len(results) == 3
    assert all(r.success and r.samples_solved == r.iterations_run == 0 and r.refits >= 1
               for r in results.values())
    for base, other in zip(cams, cams[1:]):
        result = localize(base, other, config, seed=0)
        shared = shared_correspondences(base, other, base.point_rows(other.point_ids))
        sampled = ransac_gdls(shared, config, seed=0)
        assert result.samples_solved == 0 and sampled.samples_solved >= 1
        T, U = result.transform, sampled.transform
        assert np.linalg.norm(T.rotation_matrix() - U.rotation_matrix()) < 1e-9
        assert np.linalg.norm(T.translation - U.translation) < 1e-9 * np.linalg.norm(U.translation)
        assert abs(T.scale - U.scale) < 1e-9 * U.scale


def _assert_same_result(a, b):
    """Field for field equality of two RobustResults, arrays bit for bit."""
    for f in dataclasses.fields(RobustResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, SimilarityTransform):
            assert np.array_equal(x.rotation.array, y.rotation.array), f.name
            assert np.array_equal(x.translation, y.translation) and x.scale == y.scale, f.name
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        elif isinstance(x, float) and np.isnan(x):
            assert np.isnan(y), f.name
        else:
            assert x == y, f.name


def test_a_refused_start_falls_back_to_ransac_exactly():
    # Other's points permuted among its ids, its rays untouched: the shared
    # points' alignment is wrong, the rays still match base's points.
    cams, _ = generate_city(2, 5, 0.3, 0.5, seed=0)
    base, other = cams
    perm = np.random.default_rng(0).permutation(other.n_points)
    other = DistributedCamera(other.obs_camera, other.obs_point, other.directions,
                              other.camera_ids, other.centers, other.orientations,
                              other.point_ids, other.points[perm])
    config = RobustConfig()
    result = localize(base, other, config, seed=3)
    assert result.success and result.samples_solved >= 1
    shared = shared_correspondences(base, other, base.point_rows(other.point_ids))
    _assert_same_result(result, ransac_gdls(shared, config, seed=3))


def test_collinear_shared_points_fall_back_to_ransac_exactly():
    # Umeyama's alignment of collinear points leaves a rotation free.
    line = np.linspace(-2.0, 2.0, 8)[:, None] * np.array([1.0, 0.5, 0.2]) + np.array([0, 0, 5.0])
    rows = np.arange(len(line))
    base = DistributedCamera(np.zeros_like(rows), rows, line, ["a"], np.zeros((1, 3)),
                             [Quaternion.identity().array], range(8), line)
    centers = np.random.default_rng(2).uniform(-1.0, 1.0, (6, 3))
    cam, pt = (a.ravel() for a in np.meshgrid(np.arange(6), rows, indexing="ij"))
    other = DistributedCamera(cam, pt, line[pt] - centers[cam], list("uvwxyz"), centers,
                              np.tile(Quaternion.identity().array, (6, 1)), range(8), line)
    with pytest.raises(RankDeficiencyError):
        umeyama_align(other.points, base.points)
    config = RobustConfig()
    result = localize(base, other, config, seed=5)
    assert result.samples_solved >= 1
    shared = shared_correspondences(base, other, base.point_rows(other.point_ids))
    _assert_same_result(result, ransac_gdls(shared, config, seed=5))


def test_single_camera_merge_is_identity():
    cam = _camera_with_points(range(10), "a")
    report = hierarchical_merge([cam])
    assert report.levels == ()
    assert report.failed_members == {}
    assert list(report.transform_log) == [0]
    assert report.final_camera is cam


def _city_position_errors(cams, truths, report):
    ident = [mid for mid, T in report.transform_log.items()
             if abs(T.scale - 1.0) < 1e-12 and np.allclose(T.translation, 0.0)]
    base = ident[0]
    errs = []
    for mid, T in report.transform_log.items():
        for center in cams[mid].centers:
            final = apply_similarity(T, center)
            world = apply_similarity(truths[base], final)
            errs.append(np.linalg.norm(world - apply_similarity(truths[mid], center)))
    return np.array(errs)


def test_two_subsets_noise_free_exact():
    cams, truths = generate_city(2, 4, 0.3, 0.0, seed=2)
    report = hierarchical_merge(cams, RobustConfig(), seed=0)
    assert len(report.levels) == 1
    assert report.failed_members == {}
    errs = _city_position_errors(cams, truths, report)
    assert errs.max() < 1e-6


def test_conservation_and_growth_bookkeeping():
    cams, truths = generate_city(4, 3, 0.3, 0.0, seed=3)
    report = hierarchical_merge(cams, RobustConfig(min_inliers=10),
                                max_group_size=2, seed=0)
    placed = set(report.transform_log) | set(report.failed_members)
    assert placed == set(range(4))
    assert not (set(report.transform_log) & set(report.failed_members))
    # groups of size 2, no failures: 4 -> 2 -> 1 cameras
    assert report.failed_members == {}
    assert len(report.levels) == 2
    assert len(report.levels[0].groups) == 2
    assert len(report.levels[1].groups) == 1


def test_merge_levels_are_timed_and_logged(caplog):
    # One debug record per level on the "raypose" logger, with the level's
    # counts, the members placed from the closed-form start among them, and
    # its wall time, which the level record holds out of equality.
    cams, _ = generate_city(4, 3, 0.3, 0.0, seed=3)
    with caplog.at_level(logging.DEBUG, logger="raypose"):
        report = hierarchical_merge(cams, RobustConfig(min_inliers=10), max_group_size=2, seed=0)
    records = [r for r in caplog.records if r.getMessage().startswith("merge level")]
    assert len(records) == len(report.levels) == 2
    for index, (record, level) in enumerate(zip(records, report.levels)):
        placed = sum(r.success for r in level.results.values())
        closed_form = sum(r.success and r.samples_solved == 0 for r in level.results.values())
        assert (record.level, record.groups, record.placed, record.closed_form, record.failed) == (
            index, len(level.groups), placed, closed_form, len(level.results) - placed)
        assert record.seconds == level.seconds > 0.0
        assert dataclasses.replace(level, seconds=level.seconds + 1.0) == level
    assert [r.placed for r in records] == [r.closed_form for r in records] == [2, 1]
    assert not logging.getLogger("raypose").handlers


def test_disconnected_member_fails_with_reason():
    cams, _ = generate_city(2, 3, 0.3, 0.0, seed=4)
    lonely = _camera_with_points(range(10_000, 10_010), "z")
    report = hierarchical_merge(list(cams) + [lonely], RobustConfig(), seed=0)
    assert 2 in report.failed_members
    assert set(report.transform_log) == {0, 1}


def test_threads_do_not_change_result():
    cams, _ = generate_city(4, 3, 0.3, 0.5, seed=5)
    a = hierarchical_merge(cams, RobustConfig(min_inliers=8), max_group_size=2,
                           seed=1, threads=1)
    b = hierarchical_merge(cams, RobustConfig(min_inliers=8), max_group_size=2,
                           seed=1, threads=4)
    assert set(a.transform_log) == set(b.transform_log)
    for mid in a.transform_log:
        assert np.array_equal(a.transform_log[mid].translation,
                              b.transform_log[mid].translation)


def test_grid_city_merges_completely_with_one_or_two_threads():
    # Members share points with up to eight lattice neighbours, not two as
    # on generate_city's line.
    cams, truths = generate_grid_city(4, 4)
    one = hierarchical_merge(cams, RobustConfig(), seed=0, threads=1)
    two = hierarchical_merge(cams, RobustConfig(), seed=0, threads=2)
    assert one.failed_members == {} and len(one.transform_log) == 16
    assert np.median(_city_position_errors(cams, truths, one)) < 1e-2
    assert two.failed_members == {}
    assert {k: (t.rotation.array.tobytes(), t.translation.tobytes(), t.scale)
            for k, t in one.transform_log.items()} == {
        k: (t.rotation.array.tobytes(), t.translation.tobytes(), t.scale)
        for k, t in two.transform_log.items()}


def test_thread_count_must_be_a_positive_integer():
    cams, _ = generate_city(2, 3, 0.3, 0.0, seed=1)
    for threads in (0, -5, 2.5, "two", "2", True, None):
        with pytest.raises(InvalidInputError, match="threads"):
            hierarchical_merge(cams, threads=threads)
    assert not hierarchical_merge(cams, threads=2).failed_members


def test_group_size_below_two_is_invalid_input():
    # Groups of one merged nothing, and every member was then reported as
    # disconnected from the final reconstruction.
    cams, _ = generate_city(2, 3, 0.3, 0.0, seed=1)
    for size in (1, 0, True, 2.0, "3", None):
        with pytest.raises(InvalidInputError, match="max_group_size must be an integer >= 2"):
            hierarchical_merge(cams, max_group_size=size)
    assert not hierarchical_merge(cams, max_group_size=np.int64(2)).failed_members


def test_seed_must_be_a_nonnegative_integer():
    # A negative seed reached numpy, which raised a bare ValueError.
    cams, _ = generate_city(2, 3, 0.3, 0.0, seed=1)
    for seed in (-1, 1.0, True, None):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            localize(cams[0], cams[1], seed=seed)
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            hierarchical_merge(cams, seed=seed)
    a = hierarchical_merge(cams, seed=np.int64(3))
    b = hierarchical_merge(cams, seed=3)
    assert {k: t.translation.tobytes() for k, t in a.transform_log.items()} == \
        {k: t.translation.tobytes() for k, t in b.transform_log.items()}


def test_frame_coherence():
    # Applying transform_log to a local probe agrees with composing the
    # per-level alignments manually for a two-level merge.
    cams, truths = generate_city(4, 3, 0.3, 0.0, seed=6)
    report = hierarchical_merge(cams, RobustConfig(min_inliers=10),
                                max_group_size=2, seed=0)
    errs = _city_position_errors(cams, truths, report)
    assert errs.max() < 1e-6


def test_city_far_from_frame_origins_merges_completely():
    # The later subsets' cameras lie far from their frame's origin compared
    # with their spread; every minimal sample must still be solvable.
    cams, _ = generate_city(80, 20, 0.3, 0.5, seed=0)
    report = hierarchical_merge(cams)
    assert report.failed_members == {}
    assert len(report.transform_log) == 80


def test_base_that_merged_nothing_is_not_retried_twice(monkeypatch):
    # x fails at level 0, is then the base of a group whose only member
    # fails, and fails again at level 2: two failures mark it failed, with
    # its localization's reason.  The groups and outcomes are scripted.
    import raypose.pipeline as pipeline
    from raypose.robust import RobustResult

    sizes = {"a": 30, "x": 20, "b": 25, "c": 10, "d": 10, "e": 10}
    start = itertools.accumulate(sizes.values(), initial=0)
    cams = [_camera_with_points(range(s, s + n), name) for (name, n), s in zip(sizes.items(), start)]
    script = iter([[[0, 1], [2, 3], [4], [5]],    # a+x (x fails), b+c, d, e
                   [[1, 3], [0, 2], [4]],         # x+d (d fails), bc+a, e
                   [[0, 2, 3], [1]]])             # abc+x (x fails again)+e, d

    def groups(W, max_size):
        return next(script, [list(range(len(W)))])

    def outcome(base, other, config, seed):
        if other.camera_ids[0] in ("x", "d"):
            return RobustResult(False, None, np.array([], dtype=int), 1, 0.0,
                                failure_reason="scripted failure")
        return RobustResult(True, SimilarityTransform.identity(), np.arange(4), 1, 1.0)

    monkeypatch.setattr(pipeline, "partition", groups)
    monkeypatch.setattr(pipeline, "localize", outcome)
    report = hierarchical_merge(cams)
    x_results = [level.results[1] for level in report.levels if 1 in level.results]
    assert len(x_results) == 2 and not any(r.success for r in x_results)
    assert report.failed_members[1] == "scripted failure"
    assert report.failed_members[4] == "scripted failure"
    assert set(report.transform_log) == {0, 2, 3, 5}
