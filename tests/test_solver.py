import functools
import warnings

import numpy as np
import pytest

from raypose import (Correspondences, EmptySolutionError, InvalidInputError,
                     Quaternion, QuarticCost, RankDeficiencyError, apply_similarity,
                     build_elimination, build_quartic_cost, gdls_solve,
                     recover_candidates, solve_stationary)
from raypose.cost import direct_cost
from raypose.elimination import eliminate
from raypose.robust import angular_residuals
from raypose.bench import (SceneConfig, add_noise, generate_scene, pose_errors,
                           random_similarity, trial_rng)
from raypose import solver
from raypose.elimination import EliminationMatrices
from raypose.solver import MAX_CANDIDATES, REFINE_STEPS, STATIONARITY_TOL, solve_batch

from dense_oracle import (descent_minima, gradient, greedy_rows, macaulay_roots_qr, solve_one,
                          stacks)


def test_every_descent_minimum_is_enumerated():
    # Every local minimum that a 500-start descent reaches on a noisy
    # minimal cost is in the solver's set, unless the set is full and the
    # minimum ranks beyond it.
    for seed in range(20):
        rng = trial_rng(600 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=4), rng)
        cost = build_quartic_cost(build_elimination(add_noise(corrs, 1.0, rng)))
        result, = solve_stationary(cost)
        found = result.q
        costs = cost.evaluate(found)
        assert len(found) <= result.real_roots <= 40
        minima, values = descent_minima(cost, seed=seed)
        assert len(minima) >= 1
        for m, value in zip(minima, values):
            chord = np.minimum(np.linalg.norm(found - m, axis=1), np.linalg.norm(found + m, axis=1))
            assert chord.min() < 1e-3 or (len(found) == MAX_CANDIDATES and value >= costs.max())


def _distinct_stationary_minima(cost):
    """solve_stationary's minima of one cost, checked to be distinct unit
    quaternions that meet the stationarity tolerance, ranked by cost; None
    when it names a stationary set that is not isolated.  No warning may
    be raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, = solve_stationary(cost)
    if isinstance(result, EmptySolutionError):
        assert "not isolated" in str(result)
        return None
    q = result.q
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
    g = gradient(cost, q)
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
    return QuarticCost((Q if perturbation is None else Q + perturbation)[None])


def test_non_isolated_stationary_sets_are_named():
    # Neither the circle cost nor the zero cost (stationary everywhere)
    # has a finite candidate set.
    assert _distinct_stationary_minima(_circle_cost()) is None
    assert _distinct_stationary_minima(QuarticCost(np.zeros((1, 10, 10)))) is None
    error, = solve_stationary(_circle_cost())
    assert "shift-invariance check in every frame" in str(error)


def test_zero_cost_names_its_singular_pivot_blocks():
    # The LU solve of the zero cost's pivot block fails in both frames, so
    # no shift residual is computed and none may be quoted.
    error, = solve_stationary(QuarticCost(np.zeros((1, 10, 10))))
    assert isinstance(error, EmptySolutionError) and "not isolated" in str(error)
    singular = "its pivot block is singular"
    assert f"frame 1: {singular}; frame 2: {singular}" in str(error)
    assert "residual" not in str(error)
    error, = solve_stationary(_circle_cost())
    assert "frame 1: relative residual" in str(error) and "frame 2: relative residual" in str(error)


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
        cost = build_quartic_cost(build_elimination(add_noise(corrs, 1.0, rng)))
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
    noisy = add_noise(corrs, 1.0, rng)
    report = gdls_solve(noisy)
    assert 1 <= len(report.candidates) <= MAX_CANDIDATES
    costs = [c.cost for c in report.candidates if c.cheirality_ok]
    assert costs == sorted(costs)
    for c in report.candidates:
        assert c.transform.scale > 0


def test_determinism():
    rng = trial_rng(7, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
    noisy = add_noise(corrs, 0.5, rng)
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
    assert est.rotation.angle_deg_to(truth.rotation * G.rotation.conjugate()) < 1e-6
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
        g = gradient(cost, q)
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
        noisy = add_noise(corrs, 0.5, rng)
        elim = build_elimination(noisy)
        cost = build_quartic_cost(elim)
        best = min(float(cost.evaluate(q)) for q in solve_stationary(cost)[0].q)
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


def _half_turn(rng):
    axis = rng.normal(size=3)
    return Quaternion(0.0, *axis)


def _near_half_turn(rng):
    axis = rng.normal(size=3)
    half = np.radians(179.99) / 2.0
    return Quaternion(np.cos(half), *(np.sin(half) * axis / np.linalg.norm(axis)))


@pytest.mark.parametrize("draw", [_half_turn, _near_half_turn,
                                  lambda rng: Quaternion(*rng.normal(size=4))],
                         ids=["half_turn", "near_half_turn", "uniform"])
def test_no_rotation_is_singular(draw):
    # The cost is over m(q), not a Cayley or angle-axis chart, so half
    # turns (q0 = 0) solve as exactly as any rotation; the criteria draw
    # rotations within 30 degrees per axis only.
    rng = np.random.default_rng(1180)
    for _ in range(50):
        corrs, _ = generate_scene(SceneConfig(n_correspondences=4, identity_transform=True), rng)
        q, s, t = draw(rng), rng.uniform(0.1, 10.0), rng.normal(size=3)
        R = q.rotation_matrix()
        # s c_i + alpha_i d_i = R X_i + t with X_i = R^T (s P_i - t), P_i the local point.
        world = (s * corrs.points - t) @ R
        best = gdls_solve(Correspondences(corrs.origins, corrs.directions, world)).best
        assert np.linalg.norm(best.transform.rotation_matrix() - R) < 1e-9
        assert abs(best.transform.scale - s) < 1e-9 * s


def _noisy_inliers(n, seed):
    rng = trial_rng(seed, 0)
    corrs, truth = generate_scene(SceneConfig(n_correspondences=n), rng)
    return add_noise(corrs, 0.5, rng), truth


@pytest.mark.parametrize("n", [30, 300])
def test_refine_is_the_global_best(n):
    for seed in range(5):
        corrs, truth = _noisy_inliers(n, 9100 + seed)
        # A start a few degrees off, as a minimal sample's pose is.
        start = Quaternion(*(truth.rotation.array + 0.03 * trial_rng(seed, 1).normal(size=4)))
        got, want = solver.refine(corrs, start), gdls_solve(corrs).best
        assert np.linalg.norm(got.transform.rotation.array - want.transform.rotation.array) < 1e-12
        assert (np.linalg.norm(got.transform.translation - want.transform.translation)
                < 1e-12 * np.linalg.norm(want.transform.translation))
        assert abs(got.transform.scale - want.transform.scale) < 1e-12 * want.transform.scale
        assert abs(got.cost - want.cost) < 1e-12 * want.cost
        assert got.stationarity_residual <= STATIONARITY_TOL and got.cheirality_ok


def test_refine_from_a_maximum_raises():
    # Newton steps seek any stationary point; from the top of the cost they
    # stay there, and the minimum test refuses it.
    corrs, _ = _noisy_inliers(30, 9200)
    cost = build_quartic_cost(build_elimination(corrs))
    q = np.random.default_rng(0).normal(size=(20000, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    top = Quaternion(*q[np.argmax(cost.evaluate(q))])
    with pytest.raises(EmptySolutionError, match="no local minimum near the start"):
        solver.refine(corrs, top)


def test_an_ill_conditioned_minimum_is_read_to_the_rounding_floor():
    # Criterion-1 trial 9031: the noise-free minimum's Riemannian Hessian
    # has an eigenvalue of 4e-4, so one Newton step reaches the rounding
    # floor only from a root read off to about 1e-11; a one-sided Rayleigh
    # quotient reads it 7e-7 off and leaves the pose 6e-9 degrees off.
    config = SceneConfig(n_correspondences=4, identity_transform=True)
    corrs, truth = generate_scene(config, trial_rng(0, 9031))
    err = pose_errors(gdls_solve(corrs).best.transform, truth)
    assert err.rotation_error_deg < 1e-12
    assert err.translation_error < 1e-12 and err.relative_scale_error < 1e-12


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
        costs.append(build_quartic_cost(build_elimination(add_noise(corrs, 1.0, rng))))
    return costs


def _assert_identical(a, b):
    assert type(a) is type(b)
    if isinstance(a, EmptySolutionError):
        assert str(a) == str(b)
        return
    assert a.real_roots == b.real_roots
    assert np.array_equal(a.q, b.q) and np.array_equal(a.residual, b.residual)


def test_stack_of_costs_matches_costs_alone(monkeypatch):
    # One stack of 16: noisy minimal costs with different real-root counts,
    # the circle cost (an error in the middle of the stack) and a
    # diagonal-Q cost, which needs the second frame when the first is the
    # input frame.  Every entry is bit for bit that of the cost alone.
    assert solve_stationary(QuarticCost(np.zeros((0, 10, 10)))) == []
    costs = _noisy_costs(14)
    costs.insert(7, _circle_cost())
    costs.append(QuarticCost(np.diag(np.random.default_rng(4).uniform(0.1, 2.0, 10))[None]))
    recipe = solver._macaulay_recipe()
    identity = (np.eye(4), np.eye(16))
    for frames in (recipe.frames, (identity, recipe.frames[1])):
        monkeypatch.setattr(solver, "_macaulay_recipe",
                            functools.partial(recipe._replace, frames=frames))
        stacked = solve_stationary(QuarticCost(np.concatenate([cost.Q for cost in costs])))
        for cost, entry in zip(costs, stacked):
            _assert_identical(entry, solve_stationary(cost)[0])
        solved = [e for e in stacked if not isinstance(e, EmptySolutionError)]
        assert [i for i, e in enumerate(stacked) if isinstance(e, EmptySolutionError)] == [7]
        assert all(len(m.q) >= 1 for m in solved)
        assert len({m.real_roots for m in solved}) > 1


def _assert_same_candidates(a, b):
    """Two solve reports whose candidate lists agree bit for bit."""
    assert (a.n_stationary, a.real_roots, len(a.candidates)) == (
        b.n_stationary, b.real_roots, len(b.candidates))
    for ca, cb in zip(a.candidates, b.candidates):
        assert np.array_equal(ca.transform.rotation.array, cb.transform.rotation.array)
        assert np.array_equal(ca.transform.translation, cb.transform.translation)
        assert ca.transform.scale == cb.transform.scale and ca.cost == cb.cost
        assert np.array_equal(ca.depths, cb.depths)
        assert ca.stationarity_residual == cb.stationarity_residual
        assert ca.cheirality_ok == cb.cheirality_ok


def test_solve_batch_reports_each_sample():
    rng = trial_rng(13, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
    # one origin for every ray leaves the scale unobservable
    single = Correspondences(np.zeros((4, 3)), corrs.points[:4] + 1.0, corrs.points[:4])
    good, again = solve_batch(*stacks([corrs, corrs]))
    assert [type(e) for e in solve_batch(*stacks([single]))] == [RankDeficiencyError]
    expect = gdls_solve(corrs)
    for report in (good, again):
        _assert_same_candidates(report, expect)
    with pytest.raises(InvalidInputError):
        solve_batch(*stacks([corrs.subset(np.arange(3))]))
    # A stack of 16 noisy minimal samples with different minimum counts:
    # every sample's candidate list is the one it gets alone.
    samples = []
    for seed in range(16):
        rng = trial_rng(500 + seed, 0)
        scene, _ = generate_scene(SceneConfig(n_correspondences=4), rng)
        samples.append(add_noise(scene, 1.0, rng))
    stacked = solve_batch(*stacks(samples))
    assert len({report.n_stationary for report in stacked}) > 1
    assert len({len(report.candidates) for report in stacked}) > 1
    for sample, report in zip(samples, stacked):
        _assert_same_candidates(report, gdls_solve(sample))


def _solve_by_size(samples):
    """``solve_batch``'s entry for each sample, with one batch per size."""
    out = [None] * len(samples)
    for n in dict.fromkeys(map(len, samples)):
        rows = [i for i, corrs in enumerate(samples) if len(corrs) == n]
        for i, entry in zip(rows, solve_batch(*stacks([samples[i] for i in rows]))):
            out[i] = entry
    return out


def test_mixed_batch_gives_each_sample_its_result_alone():
    # Good minimal samples, a coincident-origin sample (the fix-scale hint)
    # and samples of two other sizes, one batch per size: each gets, bit for
    # bit, the elimination, cost, minima, candidates and scores it gets alone.
    samples = []
    for seed in range(12):
        rng = trial_rng(700 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=(4, 4, 4, 6, 4, 30)[seed % 6]), rng)
        samples.append(add_noise(corrs, 1.0, rng))
    coincident = samples[1]
    samples[1] = Correspondences(np.zeros((4, 3)), coincident.directions, coincident.points)
    fours = [i for i, c in enumerate(samples) if len(c) == 4]
    stack, errors = eliminate(*stacks([samples[i] for i in fours]))
    assert [e is None for e in errors] == [i != 1 for i in fours]
    with pytest.raises(RankDeficiencyError) as alone:
        build_elimination(samples[1])
    assert str(errors[1]) == str(alone.value) and errors[1].fix_scale_hint
    costs = build_quartic_cost(stack)
    minima = solve_stationary(costs)
    for j, i in enumerate(i for i in fours if i != 1):
        elim = build_elimination(samples[i])
        cost = build_quartic_cost(elim)
        assert np.array_equal(stack.K_inv[j], elim.K_inv[0])
        assert np.array_equal(stack.M[j], elim.M[0])
        assert np.array_equal(costs.Q[j], cost.Q[0]) and np.array_equal(costs.T[j], cost.T[0])
        _assert_identical(minima[j], solve_stationary(cost)[0])
    batch = _solve_by_size(samples)
    assert isinstance(batch[1], RankDeficiencyError) and batch[1].fix_scale_hint
    reports = [r for r in batch if isinstance(r, solver.SolveReport)]
    assert len(reports) == 11 and {r.n_correspondences for r in reports} == {4, 6, 30}
    for sample, entry in zip(samples, batch):
        alone, = solve_batch(*stacks([sample]))
        assert type(entry) is type(alone)
        if isinstance(entry, RankDeficiencyError):
            assert str(entry) == str(alone)
        else:
            _assert_same_candidates(entry, alone)
    corrs = samples[5]
    arrays = corrs.origins, corrs.directions, corrs.points
    angles = angular_residuals([r.best.transform for r in reports], *arrays)
    for row, report in zip(angles, reports):
        assert np.array_equal(row, angular_residuals([report.best.transform], *arrays)[0])


def test_newton_steps_fall_back_row_by_row_on_a_singular_stack():
    # A singular H + q q^T makes LAPACK refuse the whole stack: every other
    # row keeps the step it gets alone and the singular one takes the
    # pseudo-inverse, with no NaN or warning.
    rng = np.random.default_rng(9)
    B = rng.normal(size=(6, 4, 4))
    A = B @ B.swapaxes(1, 2) + np.eye(4)
    A[2] = np.diag([2.0, 1.0, 0.0, 3.0])
    g = rng.normal(size=(6, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps = solver._newton_steps(A, g)
    for k in range(6):
        assert np.array_equal(steps[k], solver._newton_steps(A[k:k + 1], g[k:k + 1])[0])
    assert np.isfinite(steps).all()
    assert np.allclose(steps[2], np.linalg.pinv(A[2]) @ g[2], rtol=0, atol=1e-15)
    assert np.array_equal(steps[0], np.linalg.solve(A[0], g[0]))


def test_polish_gives_each_row_of_a_stack_what_it_gives_alone():
    # Starts from 0.3 rad off a cost's minimum down to one already polished
    # to the rounding floor take different numbers of Newton steps: a row
    # whose step is refused keeps its values while the others go on, and
    # the polished row never moves.  Each row of a stack gets, bit for bit,
    # what it gets alone, with every row moving in a round or not.
    rng = np.random.default_rng(0)
    forms, starts = [], []
    for seed in range(6):
        corrs, _ = _noisy_inliers(30, 9300 + seed)
        stack, _, _ = solver._eliminate_centered(*stacks([corrs]), False)
        T = solver._scaled_forms(build_quartic_cost(stack))
        best = gdls_solve(corrs).best.transform.rotation.array
        for eps in (0.3, 0.1, 1e-2, 1e-4, 1e-7):
            q = best + eps * rng.normal(size=4)
            forms.append(T[0])
            starts.append(q / np.linalg.norm(q))
        forms.append(T[0])
        starts.append(solver._polish(T, best[None], REFINE_STEPS)[0][0])
    forms, starts = np.array(forms), np.array(starts)

    def polish(rows, steps=REFINE_STEPS):
        return solver._polish(forms[rows], starts[rows], steps)

    alone = [polish([i]) for i in range(len(forms))]
    # Steps each row takes alone: rounds after which its row has moved.
    taken = [sum(not np.array_equal(polish([i], s)[0], polish([i], s - 1)[0])
                 for s in range(1, REFINE_STEPS + 1)) for i in range(len(forms))]
    assert 0 in taken
    assert any(0 < k < max(taken) for k in taken) and len(set(taken)) >= 4
    for rows in (np.arange(len(forms)), np.flatnonzero(np.array(taken) >= 3)):
        together = polish(rows)
        for k, i in enumerate(rows):
            for a, b in zip(together, alone[i]):
                assert np.array_equal(a[k], b[0])


def test_candidate_translations_are_read_only():
    corrs, _ = _noisy_inliers(30, 9400)
    for cand in gdls_solve(corrs).candidates:
        assert not cand.transform.translation.flags.writeable
        with pytest.raises(ValueError):
            cand.transform.translation[0] = 1.0


@pytest.mark.parametrize("field,value", [(2, np.nan), (1, np.inf)], ids=["translation", "scale"])
def test_a_non_finite_candidate_raises_the_constructor_error(monkeypatch, field, value):
    # Candidates are built without the transform constructor's checks,
    # which run once over the arrays and raise its own error.  An infinite
    # scale makes the uncentered translation non-finite, which it names.
    solve_linear = EliminationMatrices.solve_linear

    def broken(self, R):
        out = list(solve_linear(self, R))
        out[field] = np.full_like(out[field], value)
        return tuple(out)

    monkeypatch.setattr(EliminationMatrices, "solve_linear", broken)
    corrs, _ = _noisy_inliers(30, 9400)
    message = r"^translation must be finite with shape \(3,\), got shape \(3,\)$"
    with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError, match=message):
        gdls_solve(corrs)


def _recovery_oracle(minima, elim, cost, centroids):
    """``recover_candidates`` for one sample, candidate by candidate: the
    elimination's ``solve_linear``, ``direct_cost`` and the tangent
    gradient of the cost, ranked by (cheirality, cost)."""
    out = []
    for q, carried in zip(minima.q, minima.residual):
        R = Quaternion(*q).rotation_matrix()
        alpha, s, t = solve_one(elim, R)
        if s <= 0.0:
            continue
        g = gradient(cost, q)
        residual = np.linalg.norm(g - np.dot(g, q) * q) / max(1.0, np.linalg.norm(cost.Q))
        out.append((q, alpha, s, t - R @ centroids[1] + s * centroids[0],
                    float(direct_cost(elim, R[None, None])[0, 0]),
                    residual, carried, bool(np.all(alpha > 0.0))))
    return sorted(out, key=lambda c: (not c[-1], c[4]))


def test_stacked_recovery_matches_the_per_candidate_formulas():
    # Mixed samples, one stack per size and scale mode: free and fixed
    # scale, n = 4 and n = 50, samples of different minimum counts in one
    # stack, one (703) whose cheap minimum fails cheirality and so ranks
    # after a dearer one, one (809) whose refinement step moves w by 1e-10
    # relative, and in the middle a sample left with only minima of
    # negative scale (origins negated, which negates the scale).
    samples = []
    for seed, n, fix_scale in ((809, 50, False), (701, 4, True), (702, 4, False), (703, 4, True),
                               (809, 50, True), (705, 4, False), (706, 4, False), (707, 4, True)):
        rng = trial_rng(seed, 0)
        scene, _ = generate_scene(SceneConfig(n_correspondences=n, scale_range=(1.0, 1.0)), rng)
        samples.append((add_noise(scene, 1.0, rng), fix_scale))
    rng = trial_rng(0, 0)
    scene, _ = generate_scene(SceneConfig(n_correspondences=50), rng)
    scene = add_noise(scene, 1.0, rng)
    samples.insert(4, (Correspondences(-scene.origins, scene.directions, scene.points), False))
    found, elims, costs, centroids = [], [], [], []
    for corrs, fix_scale in samples:
        shift = corrs.origins.mean(axis=0), corrs.points.mean(axis=0)
        elims.append(build_elimination(Correspondences(
            corrs.origins - shift[0], corrs.directions, corrs.points - shift[1]), fix_scale))
        costs.append(build_quartic_cost(elims[-1]))
        found.append(solve_stationary(costs[-1])[0])
        centroids.append(shift)
    negative = [solve_one(elims[4], Quaternion(*q).rotation_matrix())[1] <= 0.0
                for q in found[4].q]
    assert any(negative) and not all(negative)
    found[4] = found[4]._replace(q=found[4].q[negative], residual=found[4].residual[negative])
    assert len({len(m.q) for m in found}) >= 3
    recovered, mixed = [None] * len(samples), False
    for key in dict.fromkeys((e.n, e.fix_scale) for e in elims):
        group = [i for i, e in enumerate(elims) if (e.n, e.fix_scale) == key]
        mixed |= len({len(found[i].q) for i in group}) > 1
        shifts = np.array([centroids[i] for i in group]).swapaxes(0, 1)
        stack, _ = eliminate(*(np.concatenate([getattr(elims[i], name) for i in group])
                               for name in ("origins", "directions", "points")), key[1])
        for i, out in zip(group, recover_candidates([found[i] for i in group], stack, shifts)):
            recovered[i] = out
    assert mixed
    assert str(recovered[4]) == "all candidates were discarded (non-positive scale)"
    assert isinstance(recovered[4], EmptySolutionError)

    def close(a, b, scale):
        assert np.all(np.abs(np.asarray(a) - b) <= 1e-12 * scale)

    ranked_by_cheirality = False
    for i in set(range(len(samples))) - {4}:
        oracle = _recovery_oracle(found[i], elims[i], costs[i], centroids[i])
        assert len(recovered[i]) == len(oracle) >= 1
        values = [c.cost for c in recovered[i]]
        ranked_by_cheirality |= values != sorted(values)
        for cand, (q, alpha, s, t, value, residual, carried, cheirality) in zip(recovered[i], oracle):
            T = cand.transform
            assert np.array_equal(T.rotation.array, q)
            close(cand.depths, alpha, np.abs(alpha).max())
            close(T.scale, s, s)
            # t is a sum of terms of the size of the centroids.
            close(T.translation, t, max(np.linalg.norm(t), *map(np.linalg.norm, centroids[i])))
            close(cand.cost, value, value)
            # Tangent gradients at a minimum are rounding noise of the
            # cost scaled by 1 / max(1, |Q|).
            close(cand.stationarity_residual, residual, 1.0)
            assert cand.stationarity_residual == carried <= STATIONARITY_TOL
            assert cand.cheirality_ok == cheirality
    assert ranked_by_cheirality


def test_candidate_rotation_is_the_row_its_fields_were_computed_from():
    # A returned rotation is, byte for byte, a unit row of its sample's
    # minima: the rotation its depths, scale, translation and cost were
    # computed with.  Normalizing the row again would move about a third
    # of such rows by an ulp.
    samples = []
    for seed in range(16):
        rng = trial_rng(900 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=30 if seed % 3 else 4), rng)
        samples.append(add_noise(corrs, 1.0, rng))
    checked = 0
    for corrs, report in zip(samples, _solve_by_size(samples)):
        shift = corrs.origins.mean(axis=0), corrs.points.mean(axis=0)
        centered = Correspondences(corrs.origins - shift[0], corrs.directions, corrs.points - shift[1])
        minima, = solve_stationary(build_quartic_cost(build_elimination(centered)))
        rows = {row.tobytes() for row in minima.q}
        for cand in report.candidates:
            assert cand.transform.rotation.array.tobytes() in rows
            checked += 1
    assert checked >= 20


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
        corrs = add_noise(corrs, 0.5, rng)
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
    costs = [QuarticCost(np.diag(rng.uniform(0.1, 2.0, 10))[None]) for _ in range(10)]
    for _ in range(10):
        Q = np.diag(rng.uniform(1.0, 2.0, 10))
        for i, j in rng.choice(10, (4, 2), replace=False):
            Q[i, j] = Q[j, i] = rng.uniform(-0.4, 0.4)
        costs.append(QuarticCost(Q[None]))
    for trial in (3276, 9448):
        corrs, _ = generate_scene(SceneConfig(n_correspondences=4, identity_transform=True),
                                  trial_rng(0, trial))
        costs.append(_centered_cost(corrs))
    return costs


def _assert_same_stationary_sets(a, b):
    assert isinstance(a, EmptySolutionError) == isinstance(b, EmptySolutionError)
    if isinstance(a, EmptySolutionError):
        return
    assert a.real_roots == b.real_roots and len(a.q) == len(b.q)
    if len(a.q):
        qa, qb = a.q, b.q
        chord = np.minimum(np.linalg.norm(qa[:, None] - qb[None], axis=2),
                           np.linalg.norm(qa[:, None] + qb[None], axis=2))
        # Minima of equal cost may come in either order.
        assert chord.min(axis=1).max() <= 1e-9 and chord.min(axis=0).max() <= 1e-9


def test_pivot_block_route_matches_the_qr_oracle(monkeypatch):
    costs = _structured_costs() + _outlier_sample_costs(200)
    found = solve_stationary(QuarticCost(np.concatenate([cost.Q for cost in costs])))
    monkeypatch.setattr(solver, "_roots", macaulay_roots_qr)
    for cost, result in zip(costs, found):
        oracle, = solve_stationary(cost)
        assert not isinstance(oracle, EmptySolutionError)
        _assert_same_stationary_sets(result, oracle)


def test_stored_rows_and_pivots_are_the_greedy_pick():
    # The pick on the Macaulay matrix of the form _macaulay_recipe draws
    # first from seed 2012: rows, then pivot columns among those rows.
    W, dst, src, _ = solver._macaulay_layout()
    B = np.random.default_rng(2012).standard_normal((10, 10))
    A = np.zeros(210 * 165)
    A[dst] = (QuarticCost((B + B.T)[None]).T.reshape(256) @ W)[src]
    A = A.reshape(210, 165)
    rows = greedy_rows(A, 125)
    assert np.array_equal(rows, solver._ROWS)
    assert np.array_equal(greedy_rows(A[rows].T, 125), solver._PIVOTS)


def test_a_cost_the_first_frame_refuses_is_solved_in_the_second(monkeypatch):
    # In the input frame the fixed pivot block of a diagonal-Q cost is
    # singular; with that as the first frame the second one solves it.
    cost = QuarticCost(np.diag(np.random.default_rng(4).uniform(0.1, 2.0, 10))[None])
    expect, = solve_stationary(cost)
    assert len(expect.q) >= 1
    recipe = solver._macaulay_recipe()
    identity = (np.eye(4), np.eye(16))
    monkeypatch.setattr(solver, "_macaulay_recipe", lambda: recipe._replace(frames=(identity,)))
    refused, = solve_stationary(cost)
    assert isinstance(refused, EmptySolutionError)
    assert "(frame 1: its pivot block is singular)" in str(refused)
    monkeypatch.setattr(solver, "_macaulay_recipe",
                        lambda: recipe._replace(frames=(identity, recipe.frames[1])))
    found, = solve_stationary(cost)
    _assert_same_stationary_sets(found, expect)


def test_solve_report_stage_times_add_up():
    rng = trial_rng(14, 0)
    corrs, _ = generate_scene(SceneConfig(n_correspondences=6), rng)
    reports = solve_batch(*stacks([corrs, corrs]))
    for report in reports:
        stages = (report.elimination_seconds, report.cost_seconds,
                  report.stationary_seconds, report.recovery_seconds)
        assert all(t > 0.0 for t in stages)
        assert sum(stages) == pytest.approx(report.runtime_seconds, rel=1e-9)
    assert reports[0].stationary_seconds == reports[1].stationary_seconds
