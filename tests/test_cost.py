import numpy as np
import pytest

from raypose import InvalidInputError, build_elimination, build_quartic_cost, direct_cost
from raypose.bench import SceneConfig, add_noise, generate_scene, trial_rng
from raypose.cost import _SQ_COLUMNS, MONOMIAL_PAIRS, MR, QuarticCost
from raypose.geometry import Correspondences, Quaternion

from dense_oracle import gradient, hessian, monomial_cost, monomials, rotation_coefficients


def _noisy_instance(n=6, seed=0, sigma=0.5):
    rng = trial_rng(seed, 0)
    corrs, truth = generate_scene(SceneConfig(n_correspondences=n), rng)
    noisy = add_noise(corrs, sigma, rng)
    elim = build_elimination(noisy)
    return noisy, elim, truth


def test_monomial_identities():
    rng = np.random.default_rng(0)
    q = rng.normal(size=4)
    m = monomials(q)
    assert np.isclose(m[_SQ_COLUMNS].sum(), np.dot(q, q))
    for i, (a, b) in enumerate(MONOMIAL_PAIRS):
        assert np.isclose(m[i], q[a] * q[b])


def test_rotation_coefficients_match_matrix():
    # MR is derived from the rotation map, so the typed-out table is the
    # independent reference for both.
    assert np.array_equal(MR, rotation_coefficients())
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        R = Quaternion(*q).rotation_matrix()
        assert np.allclose(rotation_coefficients() @ monomials(q), R.reshape(-1), atol=1e-12)


def test_tensor_evaluator_matches_monomial_oracle():
    # f, g and H all come from M(q) = reshape((q kron q) T); check them
    # against m(q)^T Q m(q) and its central differences, off the sphere too.
    _, elim, _ = _noisy_instance(seed=10)
    cost = build_quartic_cost(elim)
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(10):
        q = rng.normal(size=4)
        f = float(monomial_cost(cost.Q[0], q))
        assert np.isclose(float(cost.evaluate(q)), f, rtol=1e-12, atol=1e-15)
        g, H = gradient(cost, q), hessian(cost, q)
        assert np.allclose(H, H.T, rtol=0, atol=1e-12 * np.abs(H).max())
        # Euler's identities for a quartic: q.g = 4f and H q = 3g
        assert np.isclose(q @ g, 4.0 * f, rtol=1e-10)
        assert np.allclose(H @ q, 3.0 * g, rtol=1e-10, atol=1e-12)
        for k in range(4):
            dq = np.zeros(4)
            dq[k] = eps
            fd = (monomial_cost(cost.Q[0], q + dq) - monomial_cost(cost.Q[0], q - dq)) / (2 * eps)
            assert np.isclose(g[k], fd, rtol=1e-6, atol=1e-10)
            fd_g = (gradient(cost, q + dq) - gradient(cost, q - dq)) / (2 * eps)
            assert np.allclose(H[:, k], fd_g, rtol=1e-5, atol=1e-8)
    qs = rng.normal(size=(7, 4))
    assert np.allclose(cost.evaluate(qs), monomial_cost(cost.Q[0], qs), rtol=1e-12, atol=1e-15)
    T = cost.T.reshape(4, 4, 4, 4)
    for axes in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert np.allclose(T, T.transpose(axes), rtol=0, atol=1e-15 * np.abs(T).max())


def test_quartic_matches_direct_cost():
    for seed in range(10):
        noisy, elim, _ = _noisy_instance(seed=seed)
        cost = build_quartic_cost(elim)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            quartic = float(cost.evaluate(q))
            direct = direct_cost(elim, Quaternion(*q).rotation_matrix()[None, None])[0, 0]
            assert np.isclose(quartic, direct, rtol=1e-10, atol=1e-14)


def _fix_scale_instances():
    """One camera at the origin, then noisy rigs of distinct, off-origin
    ray origins with a true scale of 1."""
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 3)) + np.array([0, 0, 5.0])
    yield Correspondences(np.zeros((6, 3)), pts + rng.normal(scale=1e-3, size=(6, 3)), pts)
    for seed, n in zip(range(10), (4, 6, 9, 50) * 3):
        rng = trial_rng(300 + seed, 0)
        corrs, _ = generate_scene(SceneConfig(n_correspondences=n, scale_range=(1.0, 1.0)), rng)
        moved = Correspondences(corrs.origins + rng.normal(scale=3.0, size=3),
                                corrs.directions, corrs.points)
        yield add_noise(moved, 1.0, rng)


def test_fix_scale_quartic_matches_direct_cost():
    rng = np.random.default_rng(4)
    for corrs in _fix_scale_instances():
        elim = build_elimination(corrs, fix_scale=True)
        cost = build_quartic_cost(elim)
        for _ in range(5):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            assert np.isclose(float(cost.evaluate(q)),
                              direct_cost(elim, Quaternion(*q).rotation_matrix()[None, None])[0, 0],
                              rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("fix_scale", [False, True])
def test_far_origins_at_large_n_quartic_matches_direct_cost(fix_scale):
    # n = 3000 rays whose origins lie 10^3 from zero, not centered, so the
    # per-ray sums carry terms of 10^6.  A free scale needs origins spread
    # that far (a rig of extent 2 moved out to 10^3 fails the rank test);
    # a fixed scale takes that moved rig.  The true rotation is checked too,
    # where the cost is small against its terms.
    rng = trial_rng(31, int(fix_scale))
    config = SceneConfig(n_correspondences=3000, scale_range=(1.0, 1.0),
                         camera_cube_half_extent=1.0 if fix_scale else 1e3)
    corrs, truth = generate_scene(config, rng)
    if fix_scale:
        corrs = Correspondences(corrs.origins + np.array([1e3, -6e2, 8e2]), corrs.directions,
                                corrs.points)
    elim = build_elimination(add_noise(corrs, 0.5, rng), fix_scale=fix_scale)
    cost = build_quartic_cost(elim)
    for q in [truth.rotation.array, *rng.normal(size=(5, 4))]:
        q = q / np.linalg.norm(q)
        R = Quaternion(*q).rotation_matrix()
        assert np.isclose(float(cost.evaluate(q)), direct_cost(elim, R[None, None])[0, 0],
                          rtol=1e-10, atol=0.0)


def test_gradient_finite_difference():
    noisy, elim, _ = _noisy_instance(seed=11)
    cost = build_quartic_cost(elim)
    rng = np.random.default_rng(4)
    eps = 1e-6
    for _ in range(10):
        q = rng.normal(size=4)
        g = gradient(cost, q)
        for k in range(4):
            dq = np.zeros(4)
            dq[k] = eps
            fd = (cost.evaluate(q + dq) - cost.evaluate(q - dq)) / (2 * eps)
            assert np.isclose(g[k], fd, rtol=1e-5, atol=1e-10)


def test_hessian_finite_difference():
    noisy, elim, _ = _noisy_instance(seed=12)
    cost = build_quartic_cost(elim)
    rng = np.random.default_rng(5)
    q = rng.normal(size=4)
    H = hessian(cost, q)
    eps = 1e-6
    for k in range(4):
        dq = np.zeros(4)
        dq[k] = eps
        fd = (gradient(cost, q + dq) - gradient(cost, q - dq)) / (2 * eps)
        assert np.allclose(H[:, k], fd, rtol=1e-5, atol=1e-8)


def test_cost_homogeneous_degree_four():
    noisy, elim, _ = _noisy_instance(seed=13)
    cost = build_quartic_cost(elim)
    q = np.random.default_rng(6).normal(size=4)
    assert np.isclose(cost.evaluate(2.0 * q), 16.0 * cost.evaluate(q), rtol=1e-12)


def test_batched_evaluation_matches_scalar():
    noisy, elim, _ = _noisy_instance(seed=14)
    cost = build_quartic_cost(elim)
    qs = np.random.default_rng(7).normal(size=(9, 4))
    batch = cost.evaluate(qs)
    grads = gradient(cost, qs)
    for i, q in enumerate(qs):
        assert np.isclose(batch[i], cost.evaluate(q))
        assert np.allclose(grads[i], gradient(cost, q))


def test_quartic_cost_validates_shape():
    with pytest.raises(Exception):
        QuarticCost(np.zeros((3, 3)))
    # A cost is a stack: one 10x10 Q is a stack of one.
    with pytest.raises(InvalidInputError, match=r"\(S, 10, 10\)"):
        QuarticCost(np.zeros((10, 10)))
    assert QuarticCost(np.zeros((1, 10, 10))).T.shape == (1, 16, 16)
