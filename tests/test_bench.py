import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raypose
from raypose import (InvalidInputError, Quaternion, SimilarityTransform,
                     add_noise, generate_city, generate_scene, pose_errors,
                     rows_to_csv, run_noise_sweep,
                     run_scalability, run_stability)
from raypose.bench import (CSV_HEADER, SceneConfig, _perturb_directions,
                           random_similarity, trial_rng)
from raypose.geometry import (DistributedCamera, apply_similarity, invert_similarity,
                              row_norms)


def test_scene_determinism():
    cfg = SceneConfig(n_correspondences=8)
    a, ta = generate_scene(cfg, np.random.default_rng(42))
    b, tb = generate_scene(cfg, np.random.default_rng(42))
    assert np.array_equal(ta.translation, tb.translation)
    for field in ("origins", "directions", "points"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_scene_satisfies_constraint_exactly():
    corrs, truth = generate_scene(SceneConfig(n_correspondences=10), np.random.default_rng(1))
    R = truth.rotation_matrix()
    for c, d, X in zip(corrs.origins, corrs.directions, corrs.points):
        v = R @ X + truth.translation - truth.scale * c
        alpha = np.linalg.norm(v)
        assert alpha > 0
        assert np.allclose(v / alpha, d, atol=1e-10)


def test_scene_geometry_ranges():
    corrs, _ = generate_scene(SceneConfig(n_correspondences=200, identity_transform=True),
                              np.random.default_rng(2))
    origins, pts = corrs.origins, corrs.points
    assert np.all(np.abs(origins) <= 1.0)
    assert np.all(np.abs(pts[:, :2]) <= 1.0)
    assert np.all((pts[:, 2] >= 2.0) & (pts[:, 2] <= 4.0))


def test_origin_distribution_centered():
    corrs, _ = generate_scene(SceneConfig(n_correspondences=100_000), trial_rng(0, 0))
    assert np.all(np.abs(corrs.origins) <= 1.0)
    assert np.all(np.abs(corrs.origins.mean(axis=0)) < 0.02)


def test_transform_ranges():
    rng = np.random.default_rng(3)
    cfg = SceneConfig()
    for _ in range(200):
        T = random_similarity(rng, cfg)
        assert 0.1 <= T.scale <= 10.0
        assert 0.5 <= np.linalg.norm(T.translation) <= 10.0
        assert T.rotation.angle_deg_to(Quaternion.identity()) <= 3 * 30.0 + 1e-9


def test_random_similarity_is_rz_ry_rx():
    # The documented draw, replayed: three angles (x, y, z) for Rz Ry Rx, a
    # direction and a distance for the translation, then the scale.
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(1000):
        T = random_similarity(rng, SceneConfig())
        angles = np.radians(ref.uniform(-30.0, 30.0, 3))
        cx, cy, cz = np.cos(angles)
        sx, sy, sz = np.sin(angles)
        Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        d = ref.normal(size=3)
        d /= np.linalg.norm(d)
        t = d * ref.uniform(0.5, 10.0)
        assert np.abs(T.rotation_matrix() - Rz @ Ry @ Rx).max() < 1e-15
        assert T.translation.tobytes() == t.tobytes()
        assert T.scale == ref.uniform(0.1, 10.0)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, True])
def test_city_noise_must_be_finite_and_nonnegative(bad):
    # -1 and nan used to give noise-free cameras.
    with pytest.raises(InvalidInputError, match="^noise_px must be a finite number >= 0"):
        generate_city(2, 2, 0.3, bad, seed=0)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, True])
def test_add_noise_sigma_must_be_finite_and_nonnegative(bad):
    # nan used to fail with a message about ray directions.
    corrs, _ = generate_scene(SceneConfig(), np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match="^sigma_px must be a finite number >= 0"):
        add_noise(corrs, bad, np.random.default_rng(0))


def test_add_noise_zero_sigma_identity():
    corrs, _ = generate_scene(SceneConfig(n_correspondences=5), np.random.default_rng(4))
    same = add_noise(corrs, 0.0, np.random.default_rng(1))
    assert np.array_equal(corrs.directions, same.directions)


def test_add_noise_determinism():
    corrs, _ = generate_scene(SceneConfig(n_correspondences=5), np.random.default_rng(5))
    a = add_noise(corrs, 1.0, np.random.default_rng(7))
    b = add_noise(corrs, 1.0, np.random.default_rng(7))
    assert np.array_equal(a.directions, b.directions)



@pytest.mark.parametrize("sigma_px", [0.01, 1.5])
def test_add_noise_matches_per_row_reference(sigma_px):
    # The loop the vectorized noise replaced: same draws, same bits.  At
    # 0.01 px most perturbed directions are within the 1e-9 unit
    # tolerance and are kept unnormalized.
    corrs, _ = generate_scene(SceneConfig(n_correspondences=200), np.random.default_rng(9))
    rng = np.random.default_rng(3)
    expect = []
    for d in corrs.directions:
        a = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = np.cross(d, a)
        u /= np.linalg.norm(u)
        v = np.cross(d, u)
        e1, e2 = rng.normal(0.0, sigma_px / 800.0, 2)
        p = d + e1 * u + e2 * v
        norm = np.linalg.norm(p)
        expect.append(p / norm if abs(norm - 1.0) > 1e-9 else p)
    noisy = add_noise(corrs, sigma_px, np.random.default_rng(3))
    assert np.array_equal(noisy.directions, expect)


def test_add_noise_mean_angle():
    # mean angular perturbation of the stated model is sqrt(pi/2)*sigma/f
    corrs, _ = generate_scene(SceneConfig(n_correspondences=4), np.random.default_rng(6))
    big = corrs.subset(np.arange(100_000) % 4)
    noisy = add_noise(big, 1.0, np.random.default_rng(8))
    angles = np.arccos(np.clip(np.sum(big.directions * noisy.directions, axis=1), -1, 1))
    expect = math.sqrt(math.pi / 2.0) / 800.0
    assert abs(np.mean(angles) - expect) / expect < 0.05


def test_error_metrics_identity_pair_zero():
    T = SimilarityTransform(Quaternion(*[0.4, 0.3, -0.2, 0.6]),
                            np.array([1.0, 2.0, 3.0]), 2.5)
    r = pose_errors(T, T)
    assert r.rotation_error_deg == 0.0
    assert r.translation_error == 0.0
    assert r.relative_scale_error == 0.0


def test_stability_smoke():
    s = run_stability(10, seed=0)
    assert s.trials == 10
    assert 0.0 <= s.fraction_below_1e9 <= 1.0
    assert s.fraction_below_1e6 >= s.fraction_below_1e9 >= s.fraction_below_1e12
    assert all(isinstance(k, int) for k in s.log10_histogram)


def test_noise_sweep_level_zero_near_exact():
    rows, _ = run_noise_sweep(levels=(0,), trials_per_level=5, seed=0)
    gdls = [r for r in rows if r["method"] == "gdls"][0]
    assert gdls["rot_err_deg_mean"] < 1e-6
    assert gdls["trans_err_mean"] < 1e-6
    assert gdls["scale_err_rel_mean"] < 1e-9


def test_scalability_smoke():
    rows, runtimes = run_scalability(n_values=(4, 10), trials=3, seed=0)
    assert [r["n"] for r in rows] == [4, 10]
    assert all(rt > 0 for rt in runtimes.values())
    assert all(r["runtime_s_mean"] == 0.0 for r in rows)  # timings stay out of data


def test_csv_fixed_header_and_precision():
    rows, _ = run_noise_sweep(levels=(0,), trials_per_level=2, seed=3)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    # 17 significant digits survive a parse round-trip
    val = lines[1].split(",")[5]
    assert float(val) == float(format(float(val), ".17g"))


def test_csv_determinism():
    a, _ = run_noise_sweep(levels=(0, 1), trials_per_level=2, seed=9)
    b, _ = run_noise_sweep(levels=(0, 1), trials_per_level=2, seed=9)
    assert rows_to_csv(a) == rows_to_csv(b)


@pytest.mark.parametrize("trials", [0, -1])
def test_sweeps_reject_nonpositive_trials(trials):
    # Zero trials leave nothing to average, so each sweep rejects them.
    with pytest.raises(InvalidInputError):
        run_noise_sweep(levels=(0,), trials_per_level=trials)
    with pytest.raises(InvalidInputError):
        run_scalability(n_values=(4,), trials=trials)


@pytest.mark.parametrize("levels,match", [
    ((), "^levels must hold at least one noise level"),
    ((-1,), r"^noise level must be a finite number >= 0, got -1$"),
    ((0, float("nan")), r"^noise level must be a finite number >= 0, got nan$"),
    ((float("inf"),), r"^noise level must be a finite number >= 0, got inf$"),
    ((True,), r"^noise level must be a finite number >= 0, got True$"),
], ids=["empty", "negative", "nan", "inf", "bool"])
def test_noise_sweep_levels_must_be_finite_and_nonnegative(levels, match):
    # No level gave a CSV of only a header and a mean runtime of 0; a
    # negative or NaN level reached numpy, which raised a bare ValueError.
    with pytest.raises(InvalidInputError, match=match):
        run_noise_sweep(levels=levels, trials_per_level=1)


@pytest.mark.parametrize("call,name", [
    (lambda: run_stability(2.5), "trials"),
    (lambda: run_stability(1, seed=-1), "seed"),
    (lambda: run_noise_sweep(levels=(0,), trials_per_level=1.5), "trials_per_level"),
    (lambda: run_noise_sweep(levels=(0,), trials_per_level=1, seed=-2), "seed"),
    (lambda: run_scalability(n_values=(4,), trials=1.5), "trials"),
    (lambda: run_scalability(n_values=(4,), trials=1, seed=-3), "seed"),
    (lambda: generate_city(2.0, 2, 0.3, 0.0, seed=0), "n_subsets"),
    (lambda: generate_city(2, 2.0, 0.3, 0.0, seed=0), "cameras_per_subset"),
    (lambda: generate_city(2, 2, 0.3, 0.0, seed=-1), "seed"),
    (lambda: SceneConfig(n_correspondences=4.5), "n_correspondences"),
    (lambda: SceneConfig(n_correspondences=True), "n_correspondences"),
], ids=["stability-trials", "stability-seed", "noise-trials", "noise-seed",
        "scalability-trials", "scalability-seed", "city-subsets", "city-cameras", "city-seed",
        "scene-float", "scene-bool"])
def test_counts_and_seeds_must_be_integers(call, name):
    # Floats died later with TypeError, or were accepted; a negative seed
    # reached numpy, which raised a bare ValueError.
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= "):
        call()


def test_generate_city_validation():
    with pytest.raises(InvalidInputError):
        generate_city(2, 2, 0.0, 0.0, seed=0)
    with pytest.raises(InvalidInputError):
        generate_city(2, 2, 0.02, 0.0, seed=0)  # < 4 shared points


def test_generate_city_overlap_stats():
    cams, truths = generate_city(10, 5, 0.3, 0.0, seed=1)
    assert len(cams) == len(truths) == 10
    for k in range(9):
        shared = len(np.intersect1d(cams[k].point_ids, cams[k + 1].point_ids))
        requested = 0.3 * 60
        assert abs(shared - requested) <= 0.1 * requested
    # non-adjacent subsets share nothing
    assert not np.intersect1d(cams[0].point_ids, cams[5].point_ids).size


def _city_per_camera_reference(n_subsets, cameras_per_subset, overlap_fraction,
                               noise_px, seed):
    # The generator the vectorized one replaced: one camera at a time.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    n_shared = int(round(overlap_fraction * 60))
    next_pid = 0

    def sample_points(count, x_offset):
        nonlocal next_pid
        pts = rng.uniform(-1.0, 1.0, (count, 3))
        pts[:, 0] += x_offset
        pts[:, 2] += 3.0
        next_pid += count
        return np.arange(next_pid - count, next_pid), pts

    shared = [sample_points(n_shared, 3.0 * k + 1.5) for k in range(n_subsets - 1)]
    blocks = []
    for k in range(n_subsets):
        held = shared[max(k - 1, 0):k + 1]
        own = sample_points(60 - n_shared * len(held), 3.0 * k)
        blocks.append([np.concatenate(b) for b in zip(*held, own)])
    cameras, truths = [], []
    sigma = noise_px / 800.0
    for k, (pids, world) in enumerate(blocks):
        frame = random_similarity(rng, SceneConfig())
        inv = invert_similarity(frame)
        xyz = apply_similarity(inv, world)
        centers_world = rng.uniform(-1.0, 1.0, (cameras_per_subset, 3))
        centers_world[:, 0] += 3.0 * k
        centers = apply_similarity(inv, centers_world)
        obs_camera, obs_point, directions = [], [], []
        for j in range(cameras_per_subset):
            d = xyz - centers[j]
            nrm = row_norms(d)
            seen = np.flatnonzero(nrm[:, 0] >= 1e-9)
            d = d[seen] / nrm[seen]
            if sigma > 0.0:
                d = _perturb_directions(d, sigma, rng)
                d /= row_norms(d)
            obs_camera.append(np.full(len(seen), j))
            obs_point.append(seen)
            directions.append(d)
        cameras.append(DistributedCamera(
            np.concatenate(obs_camera), np.concatenate(obs_point), np.concatenate(directions),
            [f"{k}:{j}" for j in range(cameras_per_subset)], centers,
            np.tile(Quaternion.identity().array, (cameras_per_subset, 1)), pids, xyz))
        truths.append(frame)
    return cameras, truths


@pytest.mark.parametrize("noise_px", [0.0, 0.5])
def test_generate_city_matches_per_camera_reference(noise_px):
    args = (4, 7, 0.3, noise_px)
    cams, truths = generate_city(*args, seed=5)
    ref_cams, ref_truths = _city_per_camera_reference(*args, seed=5)
    assert len(cams) == len(ref_cams) == 4
    for cam, ref in zip(cams, ref_cams):
        for f in dataclasses.fields(cam):
            a, b = getattr(cam, f.name), getattr(ref, f.name)
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            if a.dtype == object:
                assert a.tolist() == b.tolist(), f.name
            else:
                assert a.tobytes() == b.tobytes(), f.name
    for T, R in zip(truths, ref_truths):
        assert T.rotation.array.tobytes() == R.rotation.array.tobytes()
        assert T.translation.tobytes() == R.translation.tobytes()
        assert T.scale == R.scale


def test_generate_city_truth_transforms():
    cams, truths = generate_city(2, 2, 0.3, 0.0, seed=2)
    # shared points expressed in both local frames map to the same world point
    shared = np.intersect1d(cams[0].point_ids, cams[1].point_ids)[:5]
    w0 = apply_similarity(truths[0], cams[0].points[cams[0].point_rows(shared)])
    w1 = apply_similarity(truths[1], cams[1].points[cams[1].point_rows(shared)])
    assert len(shared) == 5 and np.allclose(w0, w1, atol=1e-9)


def test_bench_harness_loads_on_first_use():
    # `import raypose` leaves the harness out; the first name taken loads it.
    src = str(Path(raypose.__file__).resolve().parents[1])
    code = ("import sys, raypose; assert 'raypose.bench' not in sys.modules; "
            "from raypose import generate_scene; assert 'raypose.bench' in sys.modules; "
            "assert generate_scene is sys.modules['raypose.bench'].generate_scene")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=src))
    with pytest.raises(AttributeError):
        raypose.no_such_name
