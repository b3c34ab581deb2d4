import numpy as np
import pytest

from raypose import build_elimination, build_quartic_cost, direct_cost
from raypose.bench import SceneConfig, add_noise, generate_scene, trial_rng
from raypose.cost import MONOMIAL_PAIRS, MR, SQ_NORM, QuarticCost
from raypose.geometry import Correspondences, quat_to_rotation

from dense_oracle import monomial_cost, monomials


def _noisy_instance(n=6, seed=0, sigma=0.5):
    rng = trial_rng(seed, 0)
    corrs, truth = generate_scene(SceneConfig(n_correspondences=n), rng)
    noisy = add_noise(corrs, sigma, 800.0, rng=rng)
    elim = build_elimination(noisy)
    return noisy, elim, truth


def test_monomial_identities():
    rng = np.random.default_rng(0)
    q = rng.normal(size=4)
    m = monomials(q)
    assert np.isclose(m @ SQ_NORM, np.dot(q, q))
    for i, (a, b) in enumerate(MONOMIAL_PAIRS):
        assert np.isclose(m[i], q[a] * q[b])


def test_rotation_coefficients_match_matrix():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        R = quat_to_rotation(q)
        assert np.allclose(MR @ monomials(q), R.reshape(-1), atol=1e-12)


def test_tensor_evaluator_matches_monomial_oracle():
    # f, g and H all come from M(q) = reshape((q kron q) T); check them
    # against m(q)^T Q m(q) and its central differences, off the sphere too.
    _, elim, _ = _noisy_instance(seed=10)
    cost = build_quartic_cost(elim)
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(10):
        q = rng.normal(size=4)
        f = float(monomial_cost(cost.Q, q))
        assert np.isclose(float(cost.evaluate(q)), f, rtol=1e-12, atol=1e-15)
        g, H = cost.gradient(q), cost.hessian(q)
        assert np.allclose(H, H.T, rtol=0, atol=1e-12 * np.abs(H).max())
        # Euler's identities for a quartic: q.g = 4f and H q = 3g
        assert np.isclose(q @ g, 4.0 * f, rtol=1e-10)
        assert np.allclose(H @ q, 3.0 * g, rtol=1e-10, atol=1e-12)
        for k in range(4):
            dq = np.zeros(4)
            dq[k] = eps
            fd = (monomial_cost(cost.Q, q + dq) - monomial_cost(cost.Q, q - dq)) / (2 * eps)
            assert np.isclose(g[k], fd, rtol=1e-6, atol=1e-10)
            fd_g = (cost.gradient(q + dq) - cost.gradient(q - dq)) / (2 * eps)
            assert np.allclose(H[:, k], fd_g, rtol=1e-5, atol=1e-8)
    qs = rng.normal(size=(7, 4))
    assert np.allclose(cost.evaluate(qs), monomial_cost(cost.Q, qs), rtol=1e-12, atol=1e-15)
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
            direct = direct_cost(elim, quat_to_rotation(q))
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
        yield add_noise(moved, 1.0, 800.0, rng=rng)


def test_fix_scale_quartic_matches_direct_cost():
    rng = np.random.default_rng(4)
    for corrs in _fix_scale_instances():
        elim = build_elimination(corrs, fix_scale=True)
        cost = build_quartic_cost(elim)
        for _ in range(5):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            assert np.isclose(float(cost.evaluate(q)),
                              direct_cost(elim, quat_to_rotation(q)),
                              rtol=1e-9, atol=1e-14)


def test_gradient_finite_difference():
    noisy, elim, _ = _noisy_instance(seed=11)
    cost = build_quartic_cost(elim)
    rng = np.random.default_rng(4)
    eps = 1e-6
    for _ in range(10):
        q = rng.normal(size=4)
        g = cost.gradient(q)
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
    H = cost.hessian(q)
    eps = 1e-6
    for k in range(4):
        dq = np.zeros(4)
        dq[k] = eps
        fd = (cost.gradient(q + dq) - cost.gradient(q - dq)) / (2 * eps)
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
    grads = cost.gradient(qs)
    for i, q in enumerate(qs):
        assert np.isclose(batch[i], cost.evaluate(q))
        assert np.allclose(grads[i], cost.gradient(q))


def test_quartic_cost_validates_shape():
    with pytest.raises(Exception):
        QuarticCost(np.zeros((3, 3)))
