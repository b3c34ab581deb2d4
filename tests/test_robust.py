import dataclasses
import fractions
import logging
import math

import numpy as np
import pytest

import raypose.robust as robust
from raypose import (Correspondences, EmptySolutionError, InvalidInputError,
                     Quaternion, RankDeficiencyError, RobustConfig,
                     SimilarityTransform, apply_similarity, ransac_gdls,
                     umeyama_align)
from raypose.bench import (SceneConfig, add_noise, generate_city, generate_scene,
                           random_similarity, trial_rng)
from raypose.geometry import _rotations
from raypose.pipeline import shared_correspondences
from raypose.robust import _horn_matrix, angular_residuals
from raypose.solver import SolveReport, gdls_solve, refine, solve_batch

from dense_oracle import umeyama_svd


def _scene(n=30, seed=0):
    rng = trial_rng(seed, 0)
    return generate_scene(SceneConfig(n_correspondences=n), rng), rng


def _outliers(rng, count):
    rows = []
    for _ in range(count):
        d = rng.normal(size=3)
        rows.append((rng.uniform(-1, 1, 3), d, rng.uniform(-1, 1, 3)))
    return Correspondences(*map(np.array, zip(*rows)))


def _concat(*sets):
    fields = ("origins", "directions", "points")
    return Correspondences(*(np.concatenate([getattr(c, f) for c in sets]) for f in fields))


def test_config_validation():
    with pytest.raises(InvalidInputError):
        RobustConfig(angular_inlier_threshold=0.0)
    # The sample size and the confidence are constants, not settings.
    assert [f.name for f in dataclasses.fields(RobustConfig)] == [
        "angular_inlier_threshold", "max_iterations", "min_inliers"]


@pytest.mark.parametrize("threshold", [math.inf, 4.0, math.pi, math.nan, -0.1,
                                       "0.1", True, None, [0.1]])
def test_config_rejects_thresholds_outside_zero_to_pi(threshold):
    # An angle from arccos never exceeds pi: a larger threshold calls
    # every correspondence an inlier.  A value that is not a number used to
    # raise TypeError, and True was taken as 1 radian.
    with pytest.raises(InvalidInputError, match="angular_inlier_threshold"):
        RobustConfig(angular_inlier_threshold=threshold)


@pytest.mark.parametrize("threshold", [np.float32(0.01), np.float64(0.01), 0.01, 1,
                                       fractions.Fraction(1, 100)])
def test_config_takes_any_real_threshold_as_a_float(threshold):
    # A numpy real used to be rejected as "must be a number in (0, pi)".
    config = RobustConfig(angular_inlier_threshold=threshold)
    assert type(config.angular_inlier_threshold) is float
    assert config.angular_inlier_threshold == float(threshold)


@pytest.mark.parametrize("max_iterations", [0, -3])
def test_config_rejects_max_iterations_below_one(max_iterations):
    with pytest.raises(InvalidInputError, match="max_iterations"):
        RobustConfig(max_iterations=max_iterations)


@pytest.mark.parametrize("field,value", [
    ("max_iterations", 2.5), ("max_iterations", True), ("max_iterations", "50"),
    ("min_inliers", 10.0), ("min_inliers", False), ("min_inliers", "10"),
])
def test_config_rejects_non_integer_counts(field, value):
    # A float count used to pass, and the loop died later on a TypeError.
    with pytest.raises(InvalidInputError, match=field):
        RobustConfig(**{field: value})


def test_ransac_seed_must_be_a_nonnegative_integer():
    # A negative seed reached numpy, which raised a bare ValueError.
    (corrs, _), _ = _scene(seed=1)
    for seed in (-1, 0.5, False):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            ransac_gdls(corrs, RobustConfig(), seed=seed)
    a = ransac_gdls(corrs, RobustConfig(max_iterations=20), seed=np.uint8(7))
    b = ransac_gdls(corrs, RobustConfig(max_iterations=20), seed=7)
    assert a.transform.translation.tobytes() == b.transform.translation.tobytes()


def test_huge_max_iterations_allocates_nothing_up_front():
    # The sampling schedule used to be an array as long as max_iterations,
    # built before the first draw: at 10**13 that raised MemoryError.
    (corrs, truth), _ = _scene(seed=1)
    result = ransac_gdls(corrs, RobustConfig(max_iterations=10**13), seed=0)
    assert result.success and result.iterations_run == 1
    assert len(result.inlier_indices) == len(corrs)
    assert result.transform.rotation.angle_deg_to(truth.rotation) < 1e-6


@pytest.mark.parametrize("min_inliers", [0, -2])
def test_config_rejects_min_inliers_below_one(min_inliers):
    # A model with no inlier would otherwise be reported as falling short
    # of a bar it clears ("0 inliers (< min_inliers=0)").
    with pytest.raises(InvalidInputError, match="min_inliers"):
        RobustConfig(min_inliers=min_inliers)


def test_noise_free_recovers_quickly():
    (corrs, truth), _ = _scene(seed=1)
    result = ransac_gdls(corrs, RobustConfig(), seed=0)
    assert result.success
    assert result.iterations_run <= 5
    assert result.transform.rotation.angle_deg_to(truth.rotation) < 1e-6
    assert np.allclose(result.transform.translation, truth.translation, atol=1e-6)
    assert np.isclose(result.transform.scale, truth.scale, rtol=1e-6)
    assert result.inlier_ratio == 1.0


def test_planted_outliers_excluded():
    (corrs, truth), rng = _scene(seed=2)
    noisy = add_noise(corrs, 0.5, rng)
    planted = _outliers(rng, 12)  # ~30% outliers
    result = ransac_gdls(_concat(noisy, planted), RobustConfig(), seed=3)
    assert result.success
    outlier_idx = set(range(30, 42))
    kept = outlier_idx & set(int(i) for i in result.inlier_indices)
    assert len(kept) <= 0.05 * len(outlier_idx)
    assert result.transform.rotation.angle_deg_to(truth.rotation) < 1.0


def test_all_outliers_is_failure_not_exception():
    rng = np.random.default_rng(4)
    junk = _outliers(rng, 40)
    result = ransac_gdls(junk, RobustConfig(), seed=0)
    assert not result.success
    assert result.transform is None
    assert result.failure_reason


def test_few_inliers_among_many_rays_stop_at_max_iterations():
    # (3 / 50,000) ** 4 is below half an ulp of 1, so log(1 - p_good) is 0:
    # the adaptive stop raised ZeroDivisionError instead of reporting failure.
    rng = np.random.default_rng(0)
    junk = Correspondences(*rng.normal(size=(3, 50_000, 3)))
    result = ransac_gdls(junk, RobustConfig(max_iterations=5), seed=0)
    assert not result.success and result.iterations_run == 5
    assert "min_inliers=10" in result.failure_reason


def test_termination_is_logged(caplog):
    (corrs, _), rng = _scene(n=30, seed=21)
    data = _concat(add_noise(corrs, 0.5, rng), _outliers(rng, 10))
    junk = _outliers(np.random.default_rng(4), 40)
    for sample in (data, junk):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="raypose"):
            result = ransac_gdls(sample, RobustConfig(), seed=0)
        record, = caplog.records
        assert record.name == "raypose" and record.levelno == logging.DEBUG
        fields = ("iterations_run", "samples_solved", "samples_rank_deficient", "samples_empty",
                  "samples_redrawn", "refits")
        assert [getattr(record, f) for f in fields] == [getattr(result, f) for f in fields]
        # The refit is kept only when it loses no inlier of the best hypothesis.
        assert record.best_inliers <= len(result.inlier_indices) or not result.success
    assert result.failure_reason.startswith(f"best model had {record.best_inliers} inliers")
    assert not logging.getLogger("raypose").handlers


@pytest.mark.parametrize("refit", ["raises", "loses_inliers"])
def test_failed_refit_keeps_best_hypothesis(monkeypatch, refit):
    (corrs, truth), rng = _scene(seed=9)
    noisy = _concat(add_noise(corrs, 0.5, rng), _outliers(rng, 6))
    far = SimilarityTransform(Quaternion.identity(), np.full(3, 50.0), 1.0)
    minimal_solves = []

    def solve_minimal(samples):
        reports = solve_batch(samples)
        minimal_solves.extend(r.best.transform for r in reports if isinstance(r, SolveReport))
        return reports

    def refine_refit(sample, start):
        if refit == "raises":
            raise EmptySolutionError("forced refit failure")
        return dataclasses.replace(refine(sample, start), transform=far)

    def global_refit(sample):
        # Reached only when the polished refit raises; made to fail as well.
        assert refit == "raises"
        raise EmptySolutionError("forced fallback failure")

    monkeypatch.setattr(robust, "solve_batch", solve_minimal)
    monkeypatch.setattr(robust, "refine", refine_refit)
    monkeypatch.setattr(robust, "gdls_solve", global_refit)
    result = ransac_gdls(noisy, RobustConfig(), seed=0)
    assert result.success
    assert any(result.transform is T for T in minimal_solves)
    assert result.transform.rotation.angle_deg_to(truth.rotation) < 1.0
    assert len(result.inlier_indices) >= 25


def test_refit_falls_back_to_the_global_solve(monkeypatch):
    (corrs, _), rng = _scene(seed=9)
    noisy = _concat(add_noise(corrs, 0.5, rng), _outliers(rng, 6))
    polished = ransac_gdls(noisy, RobustConfig(), seed=0)
    starts, refits = [], []

    def refine_refit(sample, start):
        starts.append(start)
        raise EmptySolutionError("forced refit failure")

    def global_refit(sample):
        refits.append(gdls_solve(sample))
        return refits[-1]

    monkeypatch.setattr(robust, "refine", refine_refit)
    monkeypatch.setattr(robust, "gdls_solve", global_refit)
    result = ransac_gdls(noisy, RobustConfig(), seed=0)
    # One global solve per failed polish, and every refit is counted.
    assert len(starts) == len(refits) == result.refits == polished.refits >= 1
    assert any(result.transform is refit.best.transform for refit in refits)
    # The polished refit lands on the global one's minimum.
    assert np.array_equal(result.inlier_indices, polished.inlier_indices)
    assert np.linalg.norm(result.transform.rotation_matrix()
                          - polished.transform.rotation_matrix()) < 1e-12


def test_single_origin_failure_names_rank_deficiency():
    # every minimal sample of rays from one origin leaves the scale unobservable
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3)) + np.array([0.0, 0.0, 5.0])
    corrs = Correspondences(np.zeros((40, 3)), pts, pts)
    result = ransac_gdls(corrs, RobustConfig(max_iterations=20))
    assert not result.success and result.iterations_run == 20
    assert result.failure_reason.startswith("all 20 minimal samples were rank deficient")
    assert "fix_scale=True" in result.failure_reason
    assert (result.samples_solved, result.samples_rank_deficient, result.samples_empty) == (20, 20, 0)


def test_angular_residual_zero_on_exact():
    rng = np.random.default_rng(5)
    T = SimilarityTransform(Quaternion(*rng.normal(size=4)), rng.normal(size=3), 2.5)
    X = rng.normal(size=(1, 3))
    c = rng.normal(size=(1, 3))
    v = X @ T.rotation_matrix().T + T.translation - T.scale * c
    d = v / np.linalg.norm(v)
    assert angular_residuals([T], c, d, X)[0, 0] < 1e-9


def test_angular_residual_degenerate_point():
    # the point coincides with the scaled ray origin: reported as pi, no raise
    T = SimilarityTransform.identity()
    angles = angular_residuals([T], np.ones((1, 3)), np.array([[1.0, 0.0, 0.0]]), np.ones((1, 3)))
    assert angles[0, 0] == np.pi


def test_stacked_residual_rows_are_the_single_calls():
    # One (S, n) call scores a RANSAC batch: each row is, bit for bit, the
    # call with that transform alone (a sequence of one), a degenerate
    # point included.
    (corrs, _), rng = _scene(n=40, seed=21)
    arrays = (corrs.origins, corrs.directions, corrs.points.copy())
    arrays[2][3] = arrays[0][3]
    stack = [SimilarityTransform(Quaternion(*rng.normal(size=4)), rng.normal(size=3),
                                 float(rng.uniform(0.5, 2.0))) for _ in range(15)]
    stack.insert(4, SimilarityTransform.identity())
    angles = angular_residuals(stack, *arrays)
    assert angles.shape == (16, 40) and angles[4, 3] == np.pi
    for row, T in zip(angles, stack):
        assert np.array_equal(row, angular_residuals([T], *arrays)[0])


def test_too_few_correspondences_raise():
    (corrs, _), _ = _scene(seed=5)
    with pytest.raises(InvalidInputError):
        ransac_gdls(corrs.subset(np.arange(3)), RobustConfig())


def test_determinism():
    (corrs, _), rng = _scene(seed=6)
    noisy = _concat(add_noise(corrs, 1.0, rng), _outliers(rng, 8))
    a = ransac_gdls(noisy, RobustConfig(), seed=9)
    b = ransac_gdls(noisy, RobustConfig(), seed=9)
    assert np.array_equal(a.inlier_indices, b.inlier_indices)
    assert np.array_equal(a.transform.translation, b.transform.translation)
    assert a.iterations_run == b.iterations_run


def test_inlier_set_consistency():
    (corrs, _), rng = _scene(seed=7)
    noisy = _concat(add_noise(corrs, 1.0, rng), _outliers(rng, 8))
    config = RobustConfig()
    result = ransac_gdls(noisy, config, seed=1)
    assert result.success
    angles, = angular_residuals([result.transform], noisy.origins, noisy.directions, noisy.points)
    rescored = np.flatnonzero(angles < config.angular_inlier_threshold)
    assert np.array_equal(rescored, result.inlier_indices)


def test_threshold_monotonicity():
    (corrs, _), rng = _scene(seed=8)
    noisy = add_noise(corrs, 2.0, rng)
    result = ransac_gdls(noisy, RobustConfig(), seed=0)
    angles, = angular_residuals([result.transform], noisy.origins, noisy.directions, noisy.points)
    counts = [int(np.sum(angles < th)) for th in (1e-2, 5e-3, 1e-3, 1e-4)]
    assert counts == sorted(counts, reverse=True)


def test_umeyama_identity_and_constructed():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(20, 3))
    T = umeyama_align(a, a)
    assert T.rotation.angle_deg_to(Quaternion.identity()) < 1e-10
    assert np.allclose(T.translation, 0.0, atol=1e-12)
    assert np.isclose(T.scale, 1.0, atol=1e-12)
    T2 = umeyama_align(a, 2.0 * a + np.array([1.0, 1.0, 1.0]))
    assert np.isclose(T2.scale, 2.0, atol=1e-10)
    assert np.allclose(T2.translation, [1, 1, 1], atol=1e-10)
    assert T2.rotation.angle_deg_to(Quaternion.identity()) < 1e-8


def test_umeyama_random_similarity():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(50, 3))
    G = random_similarity(rng, SceneConfig())
    b = apply_similarity(G, a)
    T = umeyama_align(a, b)
    assert T.rotation.angle_deg_to(G.rotation) < 1e-9
    assert np.allclose(T.translation, G.translation, atol=1e-9)
    assert np.isclose(T.scale, G.scale, rtol=1e-9)


def test_umeyama_reflection_corrected():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(30, 3))
    b = a.copy()
    b[:, 2] *= -1.0  # a pure reflection
    T = umeyama_align(a, b)
    assert np.isclose(np.linalg.det(T.rotation_matrix()), 1.0)


def test_umeyama_collinear_raises():
    t = np.linspace(0, 1, 10)
    a = np.outer(t, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(RankDeficiencyError):
        umeyama_align(a, 2.0 * a)
    with pytest.raises(InvalidInputError):
        umeyama_align(a[:2], a[:2])


@pytest.mark.parametrize("fault", ["nan", "inf", "-inf"])
def test_umeyama_non_finite_point_is_invalid_input(fault):
    # A NaN reached eigh, which raised a bare LinAlgError; an inf raised
    # numpy's RuntimeWarning first.
    a = np.random.default_rng(14).normal(size=(10, 3))
    bad = a.copy()
    bad[3, 1] = float(fault)
    for pair in ((bad, 2.0 * a), (a, 2.0 * bad)):
        with pytest.raises(InvalidInputError, match="must be finite"):
            umeyama_align(*pair)


@pytest.mark.parametrize("scale_a, scale_b", [(1e200, 1e200), (1e200, 1.0), (1e160, 1e160)])
def test_umeyama_overflow_is_named(scale_a, scale_b):
    # Points near 1e200 overflowed the cross-covariance with a RuntimeWarning
    # and then failed as "scale must be positive and finite, got 0.0".
    a = np.random.default_rng(15).normal(size=(10, 3))
    with pytest.raises(InvalidInputError, match="overflows"):
        umeyama_align(scale_a * a, scale_b * a)


def test_horn_matrix_is_the_rotation_form():
    # q^T N q is the alignment score under the package's rotation map.
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        da, db = rng.normal(size=(2, n, 3)) * rng.uniform(0.1, 10.0, 2)[:, None, None]
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        N = _horn_matrix(da, db)
        assert np.array_equal(N, N.T)
        score = np.sum(db * (da @ _rotations(q).T))
        assert np.isclose(q @ N @ q, score, rtol=1e-12, atol=1e-12 * np.sum(np.abs(db) @ np.abs(da).T))


def _rotation_gap_deg(R1, R2):
    """Angle of R1 R2^T in degrees, from the chord |R1 - R2|_F = 2 sqrt(2) sin(angle / 2)."""
    return np.degrees(2.0 * np.arcsin(np.linalg.norm(R1 - R2) / (2.0 * np.sqrt(2.0))))


def test_umeyama_matches_svd_oracle():
    # Exact, noisy, coplanar and reflected sets, 1000 of each kind.
    rng = np.random.default_rng(15)
    for i in range(4000):
        kind = i % 4
        a = rng.normal(size=(int(rng.integers(4, 40)), 3))
        if kind == 2:
            a[:, 2] = 0.0
        G = random_similarity(rng, SceneConfig())
        b = apply_similarity(G, a)
        if kind:
            b += rng.normal(scale=0.1, size=b.shape)
        if kind == 3:
            b[:, 0] *= -1.0
        R, t, s = umeyama_svd(a, b)
        T = umeyama_align(a, b)
        assert _rotation_gap_deg(T.rotation_matrix(), R) < 1e-10
        assert np.linalg.norm(T.translation - t) < 1e-12 * np.linalg.norm(t)
        assert abs(T.scale - s) < 1e-12 * s


def test_umeyama_near_collinear_within_conditioning():
    # The roll about a near-collinear set's line is only fixed to about
    # eps * s1 / (s2 + s3) radians (s: singular values of the
    # cross-covariance); both routes land within that of each other.
    rng = np.random.default_rng(16)
    for i in range(200):
        line = rng.normal(size=(10, 1)) * 10.0 * rng.normal(size=3)
        a = line + rng.normal(size=(10, 3)) * 10.0 ** rng.uniform(-3.0, -1.0)
        if i % 2:
            a[:, 2] = 0.0
        b = apply_similarity(random_similarity(rng, SceneConfig()), a)
        b += rng.normal(scale=1e-3, size=b.shape)
        sv = np.linalg.svd((b - b.mean(0)).T @ (a - a.mean(0)), compute_uv=False)
        R, _, _ = umeyama_svd(a, b)
        bound = np.degrees(np.finfo(float).eps * sv[0] / (sv[1] + sv[2]))
        assert _rotation_gap_deg(umeyama_align(a, b).rotation_matrix(), R) < 4.0 * bound


def _outlier_data(seed):
    rng = trial_rng(600 + seed, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=24), rng)
    noisy = add_noise(corrs, 0.5, rng)
    return _concat(noisy, _outliers(rng, 24))


def test_batch_size_does_not_change_the_result(monkeypatch):
    config = RobustConfig()
    for seed in range(3):
        data = _outlier_data(seed)
        batched = ransac_gdls(data, config, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(robust, "MAX_BATCH", 1)
            single = ransac_gdls(data, config, seed=seed)
        assert batched.success and single.success
        assert batched.iterations_run > robust.MAX_BATCH
        assert single.samples_solved == single.iterations_run
        assert np.array_equal(batched.inlier_indices, single.inlier_indices)
        assert batched.iterations_run == single.iterations_run
        for a, b in ((batched.transform.rotation.array, single.transform.rotation.array),
                     (batched.transform.translation, single.transform.translation)):
            assert np.array_equal(a, b)
        assert batched.transform.scale == single.transform.scale


def test_batch_slack_is_below_the_cap():
    # Samples of the batch drawn past the adaptive stop are solved but not
    # scored: at most MAX_BATCH - 1 per call.
    slacks = []
    for seed in range(6):
        (corrs, _), rng = _scene(n=30, seed=20 + seed)
        data = _concat(add_noise(corrs, 0.5, rng), _outliers(rng, 10))
        for config in (RobustConfig(), RobustConfig(max_iterations=7)):
            result = ransac_gdls(data, config, seed=seed)
            slacks.append(result.samples_solved - result.iterations_run)
            assert result.iterations_run <= config.max_iterations
            assert result.samples_rank_deficient + result.samples_empty <= result.iterations_run
    assert 0 <= min(slacks) and max(slacks) <= robust.MAX_BATCH - 1
    assert max(slacks) > 0


def test_one_hypothesis_run_solves_one_sample():
    # noise-free data is all inliers: the first hypothesis ends the loop
    (corrs, _), _ = _scene(seed=1)
    result = ransac_gdls(corrs, RobustConfig(), seed=0)
    assert result.iterations_run == 1
    assert result.samples_solved == 1
    # Every ray has its own point, so no sample is completed; the one refit
    # keeps every ray, so none follows the loop.
    assert (result.samples_redrawn, result.refits) == (0, 1)


def _rays_through(point_of_ray, seed=0):
    """Noise-free rays from random origins, ray i through local point
    ``point_of_ray[i]``, and the pose that maps the world points onto them."""
    rng = np.random.default_rng(seed)
    k = int(np.max(point_of_ray)) + 1
    local = np.column_stack([*rng.uniform(-1.0, 1.0, (2, k)), rng.uniform(3.0, 5.0, k)])
    local = local[point_of_ray]
    origins = rng.uniform(-1.0, 1.0, (len(local), 3))
    truth = random_similarity(rng, SceneConfig())
    world = (truth.scale * local - truth.translation) @ truth.rotation_matrix()
    return Correspondences(origins, local - origins, world), truth


def _merge_rays(cameras, overlap, seed):
    """The shared rays of a two-subset city at 0.5 px: each of its
    ``round(60 * overlap)`` shared points is seen by all ``cameras``."""
    cams, _ = generate_city(2, cameras, overlap, 0.5, seed=seed)
    return shared_correspondences(cams[0], cams[1])


def _capture_samples(monkeypatch):
    """Minimal samples solved by ``ransac_gdls`` from now on, in draw order."""
    samples = []

    def solve_minimal(batch):
        samples.extend(batch)
        return solve_batch(batch)

    monkeypatch.setattr(robust, "solve_batch", solve_minimal)
    return samples


def test_samples_span_four_distinct_points(monkeypatch):
    # 8 cameras see 6 points: 48 rays, 8 on each point.  A uniform draw of
    # 4 rays repeats a point 68% of the time, and such a sample on 2 or 3
    # points is degenerate or weak.
    data = _merge_rays(8, 0.1, seed=0)
    assert len(data) == 48 and len(np.unique(data.points, axis=0)) == 6
    data = _concat(data, _outliers(np.random.default_rng(1), 16))
    samples = _capture_samples(monkeypatch)
    result = ransac_gdls(data, RobustConfig(), seed=0)
    assert result.success and len(samples) == result.samples_solved > 10
    assert all(len(np.unique(s.points, axis=0)) == 4 for s in samples)
    assert 0 < result.samples_redrawn < len(samples) and result.refits >= 1


@pytest.mark.parametrize("point_of_ray", [np.arange(24) % 3, np.r_[np.zeros(897, int), 1, 2, 3]],
                         ids=["three_points", "skewed"])
def test_sets_with_few_or_skewed_points_terminate_and_localize(point_of_ray):
    # Three points cannot give 4 distinct ones: draws are uniform, as on
    # unrepeated rays.  On the skewed set a distinct sample must hold the
    # three single rays, which uniform draws almost never do.
    data, truth = _rays_through(point_of_ray, seed=3)
    result = ransac_gdls(data, RobustConfig(), seed=0)
    assert result.success and result.inlier_ratio == 1.0
    assert result.transform.rotation.angle_deg_to(truth.rotation) < 1e-6
    assert result.iterations_run <= 20
    assert (result.samples_redrawn > 0) == (len(np.unique(point_of_ray)) == 4)


def test_unrepeated_points_draw_as_uniform_choice(monkeypatch):
    # Every ray on its own point: the rows drawn are numpy's choice
    # sequence, with no extra draw from the stream.
    data = _outlier_data(0)
    samples = _capture_samples(monkeypatch)
    result = ransac_gdls(data, RobustConfig(), seed=5)
    assert result.samples_solved == len(samples) > robust.MAX_BATCH and result.samples_redrawn == 0
    rng = np.random.default_rng(5)
    for sample in samples:
        rows = rng.choice(len(data), size=4, replace=False)
        assert np.array_equal(sample.points, data.points[rows])


def test_refitted_first_hypothesis_ends_a_merge_localization(monkeypatch):
    # 50 cameras see 18 shared points.  The first hypothesis misses 61 of
    # the 900 rays, so its own inlier ratio asks for a second sample; its
    # refit keeps all 900 and ends the loop.  Without the refit after the
    # loop the model returned is 2e-5 from the fit on its inliers.
    data = _merge_rays(50, 0.3, seed=0)
    assert len(data) == 900
    samples = _capture_samples(monkeypatch)
    result = ransac_gdls(data, RobustConfig(), seed=0)
    first = solve_batch(samples[:1])[0].best.transform
    missed = int(np.sum(angular_residuals([first], data.origins, data.directions, data.points)
                        >= RobustConfig().angular_inlier_threshold))
    assert 0 < missed < 90
    assert result.iterations_run == result.samples_solved == 1
    assert len(result.inlier_indices) == 900
    # The refit was fitted on the 839 rays the hypothesis kept; the model
    # returned is refitted on all 900, so a refit on them moves it no more.
    assert result.refits == 2
    again = refine(data.subset(result.inlier_indices), result.transform.rotation).transform
    assert np.abs(again.rotation.array - result.transform.rotation.array).max() < 1e-9
    assert np.allclose(again.translation, result.transform.translation, rtol=1e-9, atol=0.0)
