import warnings

import numpy as np
import pytest

from raypose import (Correspondences, EmptySolutionError, InvalidInputError,
                     Quaternion, QuarticCost, RankDeficiencyError, apply_similarity,
                     build_elimination, build_quartic_cost, gdls_solve,
                     solve_stationary)
from raypose.bench import (SceneConfig, add_noise, generate_scene, pose_errors,
                           random_similarity, trial_rng)
from raypose import solver
from raypose.solver import MAX_CANDIDATES, STATIONARITY_TOL, solve_batch

from dense_oracle import descent_minima, macaulay_roots_qr


def test_every_descent_minimum_is_enumerated():
    # Every local minimum that a 500-start descent reaches on a noisy
    # minimal cost is in the solver's set, unless the set is full and the
    # minimum ranks beyond it.
    for seed in range(20):
        rng = trial_rng(600 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=4), rng)
        cost = build_quartic_cost(build_elimination(add_noise(corrs, 1.0, 800.0, rng=rng)))
        (qs, real_roots), = solve_stationary([cost])
        found = np.array([q.array for q in qs])
        costs = cost.evaluate(found)
        assert len(qs) <= real_roots <= 40
        minima, values = descent_minima(cost, seed=seed)
        assert len(minima) >= 1
        for m, value in zip(minima, values):
            chord = np.minimum(np.linalg.norm(found - m, axis=1), np.linalg.norm(found + m, axis=1))
            assert chord.min() < 1e-3 or (len(qs) == MAX_CANDIDATES and value >= costs.max())


def _distinct_stationary_minima(cost):
    """solve_stationary's minima of one cost, checked to be distinct unit
    quaternions that meet the stationarity tolerance, ranked by cost; None
    when it names a stationary set that is not isolated.  No warning may
    be raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, = solve_stationary([cost])
    if isinstance(result, EmptySolutionError):
        assert "not isolated" in str(result)
        return None
    q = np.array([x.array for x in result[0]]).reshape(-1, 4)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
    g = cost.gradient(q)
    tangent = g - np.sum(g * q, axis=1, keepdims=True) * q
    assert np.all(np.linalg.norm(tangent, axis=1) <= STATIONARITY_TOL * max(1.0, np.linalg.norm(cost.Q)))
    chord = np.minimum(np.linalg.norm(q[:, None] - q[None], axis=2),
                       np.linalg.norm(q[:, None] + q[None], axis=2))
    assert np.all(chord[~np.eye(len(q), dtype=bool)] > 1e-6)
    assert np.all(np.diff(cost.evaluate(q)) >= 0.0)
    return q


def _circle_cost(perturbation=None):
    # (q2^2 + q3^2)^2 has circles of minima and of maxima; m(q)[7] = q2^2,
    # m(q)[9] = q3^2.
    Q = np.zeros((10, 10))
    Q[np.ix_([7, 9], [7, 9])] = 1.0
    return QuarticCost(Q if perturbation is None else Q + perturbation)


def test_non_isolated_stationary_sets_are_named():
    # Neither the circle cost nor the zero cost (stationary everywhere)
    # has a finite candidate set.
    assert _distinct_stationary_minima(_circle_cost()) is None
    assert _distinct_stationary_minima(QuarticCost(np.zeros((10, 10)))) is None
    error, = solve_stationary([_circle_cost()])
    assert "shift-invariance check in every frame" in str(error)


def test_near_degenerate_costs_give_distinct_minima_or_a_named_error():
    rng = np.random.default_rng(5)
    for eps in (1e-2, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12):
        for _ in range(5):
            B = rng.normal(size=(10, 10))
            _distinct_stationary_minima(_circle_cost(eps * B @ B.T))


def test_noisy_minima_are_distinct_stationary_and_ranked():
    for seed in range(5):
        rng = trial_rng(101 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=4), rng)
        cost = build_quartic_cost(build_elimination(add_noise(corrs, 1.0, 800.0, rng=rng)))
        assert len(_distinct_stationary_minima(cost)) >= 1


def test_noise_free_recovery():
    for seed in range(5):
        rng = trial_rng(seed, 0)
        corrs, truth = generate_scene(SceneConfig(n_correspondences=5), rng)
        report = gdls_solve(corrs)
        err = pose_errors(report.best.transform, truth)
        assert err.rotation_error_deg < 1e-7
        assert err.translation_error < 1e-7
        assert err.relative_scale_error < 1e-9
        assert report.best.cheirality_ok


def test_candidate_count_and_order():
    rng = trial_rng(100, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=4), rng)
    noisy = add_noise(corrs, 1.0, 800.0, rng=rng)
    report = gdls_solve(noisy)
    assert 1 <= len(report.candidates) <= MAX_CANDIDATES
    costs = [c.cost for c in report.candidates if c.cheirality_ok]
    assert costs == sorted(costs)
    for c in report.candidates:
        assert c.transform.scale > 0


def test_determinism():
    rng = trial_rng(7, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
    noisy = add_noise(corrs, 0.5, 800.0, rng=rng)
    a = gdls_solve(noisy)
    b = gdls_solve(noisy)
    assert len(a.candidates) == len(b.candidates)
    for ca, cb in zip(a.candidates, b.candidates):
        assert np.array_equal(ca.transform.rotation.array, cb.transform.rotation.array)
        assert np.array_equal(ca.transform.translation, cb.transform.translation)
        assert ca.transform.scale == cb.transform.scale


def test_equivariance_under_world_transform():
    # Pre-transforming the world points by a known similarity G must
    # compose into the recovered pose: R' = R Rg^T, t' = sg t - R' tg,
    # s' = sg s.
    rng = trial_rng(8, 0)
    corrs, truth = generate_scene(SceneConfig(n_correspondences=6), rng)
    G = random_similarity(np.random.default_rng(3), SceneConfig())
    moved = Correspondences(corrs.origins, corrs.directions, apply_similarity(G, corrs.points))
    report = gdls_solve(moved)
    est = report.best.transform
    R = truth.rotation_matrix()
    Rg = G.rotation_matrix()
    R_expect = R @ Rg.T
    t_expect = G.scale * truth.translation - R_expect @ G.translation
    assert est.rotation.angle_deg_to(Quaternion.from_rotation_matrix(R_expect)) < 1e-6
    assert np.allclose(est.translation, t_expect, atol=1e-6)
    assert np.isclose(est.scale, G.scale * truth.scale, rtol=1e-8)


def test_scaled_instance_recovers_scale():
    rng = trial_rng(9, 0)
    corrs, truth = generate_scene(SceneConfig(n_correspondences=8), rng)
    report = gdls_solve(corrs)
    assert np.isclose(report.best.transform.scale, truth.scale, rtol=1e-8)


def test_fix_scale_single_camera():
    # All rays from one origin: scale is unobservable, fix-scale re-pose
    # reduces to absolute pose with s = 1.
    rng = np.random.default_rng(10)
    R = random_similarity(rng, SceneConfig()).rotation_matrix()
    t = rng.normal(size=3)
    X = rng.normal(size=(6, 3)) + np.array([0, 0, 5.0])
    dirs = X @ R.T + t
    corrs = Correspondences(np.zeros((6, 3)), dirs, X)
    report = gdls_solve(corrs, fix_scale=True)
    est = report.best.transform
    assert est.scale == 1.0
    assert np.allclose(est.rotation_matrix(), R, atol=1e-7)
    assert np.allclose(est.translation, t, atol=1e-6)


def test_fix_scale_distinct_origins():
    # A rig of distinct, off-origin ray origins with metric scale: the
    # fix-scale solve recovers (R, t) from noise-free data.
    for seed in range(20):
        rng = trial_rng(600 + seed, 0)
        corrs, truth = generate_scene(SceneConfig(n_correspondences=6, scale_range=(1.0, 1.0)), rng)
        est = gdls_solve(corrs, fix_scale=True).best.transform
        assert est.scale == 1.0
        assert np.linalg.norm(est.rotation_matrix() - truth.rotation_matrix()) <= 1e-9
        assert np.linalg.norm(est.translation - truth.translation) <= 1e-9 * max(
            1.0, np.linalg.norm(truth.translation))


def test_minimum_correspondence_count():
    rng = trial_rng(11, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=4), rng)
    with pytest.raises(InvalidInputError):
        gdls_solve(corrs.subset(np.arange(3)))


def _oracle_descent(cost, n_starts, rng, iters=400):
    """Independent projected gradient descent with per-row adaptive steps."""
    q = rng.normal(size=(n_starts, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    step = np.full(n_starts, 0.1)
    f = cost.evaluate(q)
    for _ in range(iters):
        g = cost.gradient(q)
        g = g - np.sum(g * q, axis=1, keepdims=True) * q
        cand = q - step[:, None] * g
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc = cost.evaluate(cand)
        better = fc < f
        q[better] = cand[better]
        f[better] = fc[better]
        step = np.where(better, step * 1.2, step * 0.5)
        step = np.clip(step, 1e-14, 1.0)
    return float(f.min())


def test_multistart_oracle_agreement():
    # The ranked stationary set must contain the global minimum found by
    # an independent 512-start descent on a few noisy instances.
    for seed in range(5):
        rng = trial_rng(200 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
        noisy = add_noise(corrs, 0.5, 800.0, rng=rng)
        elim = build_elimination(noisy)
        cost = build_quartic_cost(elim)
        qs = solve_stationary([cost])[0][0]
        best = min(float(cost.evaluate(q.array)) for q in qs)
        oracle = _oracle_descent(cost, 512, np.random.default_rng(seed))
        assert best <= oracle + 1e-8


def test_all_negative_scale_raises_empty():
    # Mirror-flipped directions force negative depths/scale everywhere.
    rng = trial_rng(12, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=4,
                                          identity_transform=True), rng)
    flipped = Correspondences(corrs.origins, -corrs.directions, corrs.points)
    report_or_error = None
    try:
        report_or_error = gdls_solve(flipped)
    except EmptySolutionError:
        return
    # If a model survives it must at least be cheirality-flagged.
    assert not report_or_error.best.cheirality_ok


def test_noise_free_minimal_solves_are_exact():
    for seed in range(20):
        rng = trial_rng(400 + seed, 0)
        corrs, truth = generate_scene(SceneConfig(n_correspondences=4), rng)
        report = gdls_solve(corrs)
        chord = report.best.transform.rotation_matrix() - truth.rotation_matrix()
        assert np.linalg.norm(chord) < 1e-9
        assert 1 <= report.n_stationary <= report.real_roots <= 40


@pytest.mark.parametrize("shift", [1e3, 1e4])
def test_far_from_the_coordinate_origin(shift):
    # Ray origins and world points moved far from the coordinate origin,
    # with the matching translation t - R v + s v, give the same pose.
    for seed in range(20):
        rng = trial_rng(4000 + seed, 0)
        corrs, truth = generate_scene(SceneConfig(n_correspondences=6), rng)
        v = rng.normal(size=3)
        v *= shift / np.linalg.norm(v)
        moved = Correspondences(corrs.origins + v, corrs.directions, corrs.points + v)
        est = gdls_solve(moved).best.transform
        R, s = truth.rotation_matrix(), truth.scale
        t_expect = truth.translation - R @ v + s * v
        assert np.linalg.norm(est.rotation_matrix() - R) <= 1e-6
        assert np.linalg.norm(est.translation - t_expect) <= 1e-6 * np.linalg.norm(t_expect)
        assert abs(est.scale - s) <= 1e-6 * s


def _noisy_costs(count, n=4):
    costs = []
    for seed in range(count):
        rng = trial_rng(500 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=n), rng)
        costs.append(build_quartic_cost(build_elimination(add_noise(corrs, 1.0, 800.0, rng=rng))))
    return costs


def test_stack_of_costs_matches_costs_alone():
    costs = _noisy_costs(6)
    stacked = solve_stationary(costs)
    assert solve_stationary([]) == []
    for cost, (qs, real_roots) in zip(costs, stacked):
        (alone, alone_real_roots), = solve_stationary([cost])
        assert len(alone) == len(qs) >= 1
        for a, b in zip(alone, qs):
            assert np.array_equal(a.array, b.array)
        assert alone_real_roots == real_roots


def test_solve_batch_reports_each_sample():
    rng = trial_rng(13, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
    # one origin for every ray leaves the scale unobservable
    single = Correspondences(np.zeros((4, 3)), corrs.points[:4] + 1.0, corrs.points[:4])
    good, bad, again = solve_batch([corrs, single, corrs])
    assert isinstance(bad, RankDeficiencyError)
    expect = gdls_solve(corrs)
    for report in (good, again):
        assert np.array_equal(report.best.transform.rotation.array,
                              expect.best.transform.rotation.array)
        assert report.n_stationary == expect.n_stationary
    with pytest.raises(InvalidInputError):
        solve_batch([corrs, corrs.subset(np.arange(3))])


def _centered_cost(corrs):
    """The cost ``solve_batch`` builds: about the origin and point centroids."""
    return build_quartic_cost(build_elimination(Correspondences(
        corrs.origins - corrs.origins.mean(axis=0), corrs.directions,
        corrs.points - corrs.points.mean(axis=0))))


def _outlier_sample_costs(count, seed=0):
    """Costs of random 4-point samples from n = 300 scenes with 0.5 px noise
    and half the world points replaced by uniform draws over their box."""
    rng = np.random.default_rng(seed)
    costs = []
    while len(costs) < count:
        corrs, _ = generate_scene(SceneConfig(n_correspondences=300), rng)
        corrs = add_noise(corrs, 0.5, 800.0, rng=rng)
        points = corrs.points.copy()
        replaced = rng.choice(300, size=150, replace=False)
        points[replaced] = rng.uniform(points.min(axis=0), points.max(axis=0), (150, 3))
        corrs = Correspondences(corrs.origins, corrs.directions, points)
        for _ in range(50):
            try:
                costs.append(_centered_cost(corrs.subset(rng.choice(300, 4, replace=False))))
            except RankDeficiencyError:
                pass
    return costs[:count]


def _structured_costs():
    """Diagonal and sparse positive definite Q, and two criterion-1 trials
    (the minimal identity-pose scenes of ``run_stability``, seed 0)."""
    rng = np.random.default_rng(3)
    costs = [QuarticCost(np.diag(rng.uniform(0.1, 2.0, 10))) for _ in range(10)]
    for _ in range(10):
        Q = np.diag(rng.uniform(1.0, 2.0, 10))
        for i, j in rng.choice(10, (4, 2), replace=False):
            Q[i, j] = Q[j, i] = rng.uniform(-0.4, 0.4)
        costs.append(QuarticCost(Q))
    for trial in (3276, 9448):
        corrs, _ = generate_scene(SceneConfig(n_correspondences=4, identity_transform=True),
                                  trial_rng(0, trial))
        costs.append(_centered_cost(corrs))
    return costs


def _assert_same_stationary_sets(a, b):
    assert isinstance(a, EmptySolutionError) == isinstance(b, EmptySolutionError)
    if isinstance(a, EmptySolutionError):
        return
    assert a[1] == b[1] and len(a[0]) == len(b[0])
    if a[0]:
        qa = np.array([q.array for q in a[0]])
        qb = np.array([q.array for q in b[0]])
        chord = np.minimum(np.linalg.norm(qa[:, None] - qb[None], axis=2),
                           np.linalg.norm(qa[:, None] + qb[None], axis=2))
        # Minima of equal cost may come in either order.
        assert chord.min(axis=1).max() <= 1e-9 and chord.min(axis=0).max() <= 1e-9


def test_pivot_block_route_matches_the_qr_oracle(monkeypatch):
    costs = _structured_costs() + _outlier_sample_costs(200)
    found = solve_stationary(costs)
    monkeypatch.setattr(solver, "_roots", macaulay_roots_qr)
    for cost, result in zip(costs, found):
        oracle, = solve_stationary([cost])
        assert not isinstance(oracle, EmptySolutionError)
        _assert_same_stationary_sets(result, oracle)


def test_a_cost_the_first_frame_refuses_is_solved_in_the_second(monkeypatch):
    # In the input frame the fixed pivot block of a diagonal-Q cost is
    # singular; with that as the first frame the second one solves it.
    cost = QuarticCost(np.diag(np.random.default_rng(4).uniform(0.1, 2.0, 10)))
    expect, = solve_stationary([cost])
    assert len(expect[0]) >= 1
    recipe = solver._macaulay_recipe()
    identity = (np.eye(4), np.eye(16))
    monkeypatch.setattr(solver, "_macaulay_recipe", lambda: recipe._replace(frames=(identity,)))
    refused, = solve_stationary([cost])
    assert isinstance(refused, EmptySolutionError) and "residuals inf " in str(refused)
    monkeypatch.setattr(solver, "_macaulay_recipe",
                        lambda: recipe._replace(frames=(identity, recipe.frames[1])))
    found, = solve_stationary([cost])
    _assert_same_stationary_sets(found, expect)


def test_solve_report_stage_times_add_up():
    rng = trial_rng(14, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
    reports = solve_batch([corrs, corrs])
    for report in reports:
        stages = (report.elimination_seconds, report.cost_seconds,
                  report.stationary_seconds, report.recovery_seconds)
        assert all(t > 0.0 for t in stages)
        assert sum(stages) == pytest.approx(report.runtime_seconds, rel=1e-9)
    assert reports[0].stationary_seconds == reports[1].stationary_seconds
