import numpy as np
import pytest

from raypose import (Correspondences, InvalidInputError, RankDeficiencyError,
                     build_elimination)
from raypose.bench import SceneConfig, generate_scene, trial_rng
from raypose.elimination import eliminate
from raypose.geometry import Quaternion

from dense_oracle import dense_solution, rhs, solve_one, stack_A


def _scene(n=6, seed=0, identity=False):
    return generate_scene(SceneConfig(n_correspondences=n,
                                      identity_transform=identity), trial_rng(seed, 0))


def _rotations(seed, count=5):
    q = np.random.default_rng(seed).normal(size=(count, 4))
    return [Quaternion(*(qi / np.linalg.norm(qi))).rotation_matrix() for qi in q]


def _assert_matches_dense(elim, R, solution):
    alpha, s, t = solution
    alpha_d, s_d, t_d = dense_solution(elim, R)
    tol = 1e-8 * max(1.0, float(np.abs(rhs(elim, R)).max()))
    assert np.allclose(alpha, alpha_d, rtol=0, atol=tol)
    assert abs(s - s_d) <= tol
    assert np.allclose(t, t_d, rtol=0, atol=tol)


def _assert_all_match_dense(samples, rotations, fix_scale=False):
    """Every (sample, rotation) pair against the dense solution, solved
    alone and as one entry of a stacked (S, C, 3, 3) call."""
    stack, errors = eliminate(*(np.stack([getattr(c, name) for c in samples])
                                for name in ("origins", "directions", "points")), fix_scale)
    assert errors == [None] * len(samples)
    alpha, s, t = stack.solve_linear(np.array(rotations))
    S, C = len(samples), len(rotations[0])
    assert (alpha.shape, s.shape, t.shape) == ((S, C, stack.n), (S, C), (S, C, 3))
    for i, corrs in enumerate(samples):
        elim = build_elimination(corrs, fix_scale)
        for j, R in enumerate(rotations[i]):
            _assert_matches_dense(elim, R, solve_one(elim, R))
            _assert_matches_dense(elim, R, (alpha[i, j], s[i, j], t[i, j]))


def test_closed_matches_dense():
    samples, rotations = [], []
    for seed in range(10):
        corrs, truth = _scene(n=5, seed=seed)
        samples.append(corrs)
        rotations.append([truth.rotation_matrix()] + _rotations(seed))
    _assert_all_match_dense(samples, rotations)


def test_matrix_shapes():
    corrs, _ = _scene(n=4)
    elim = build_elimination(corrs)
    assert elim.K_inv.shape == (1, 4, 4)
    assert elim.M.shape == (1, 4, 4)
    fixed = build_elimination(corrs, fix_scale=True)
    assert fixed.K_inv.shape == (1, 3, 3)
    assert fixed.M.shape == (1, 4, 3)
    for e in (elim, fixed):
        held = {name for name, v in vars(e).items() if isinstance(v, np.ndarray)}
        assert held == {"origins", "directions", "points", "K_inv", "M"}


def test_storage_is_linear_in_n():
    # The rays (72 B/row) and the coupling rows M (32 B/row); nothing 3n long.
    n = 3000
    corrs, _ = _scene(n=n, seed=8)
    elim = build_elimination(corrs)
    held = sum(v.nbytes for v in vars(elim).values() if isinstance(v, np.ndarray))
    assert held <= 128 * n


def test_exact_recovery_at_true_rotation():
    # With exact correspondences, plugging in the true rotation must
    # return the true scale/translation and positive depths.
    corrs, truth = _scene(n=6, seed=3)
    elim = build_elimination(corrs)
    alpha, s, t = solve_one(elim, truth.rotation_matrix())
    assert np.isclose(s, truth.scale, atol=1e-9)
    assert np.allclose(t, truth.translation, atol=1e-8)
    assert np.all(alpha > 0)


def test_normal_equations_residual():
    corrs, truth = _scene(n=7, seed=4)
    elim = build_elimination(corrs)
    R = truth.rotation_matrix()
    alpha, s, t = solve_one(elim, R)
    A = stack_A(elim.origins[0], elim.directions[0], False)
    x = np.concatenate([alpha, [s], t])
    resid = A.T @ (A @ x - rhs(elim, R))
    assert np.linalg.norm(resid) < 1e-8


def test_requires_four_correspondences():
    corrs, _ = _scene(n=4)
    with pytest.raises(InvalidInputError):
        build_elimination(corrs.subset(np.arange(3)))


def test_coincident_origins_raise_with_hint():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 3)) + np.array([0, 0, 5.0])
    corrs = Correspondences(np.zeros((6, 3)), pts, pts)
    with pytest.raises(RankDeficiencyError) as err:
        build_elimination(corrs)
    assert err.value.fix_scale_hint


def test_fix_scale_mode_handles_single_origin():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(6, 3)) + np.array([0, 0, 5.0])
    corrs = Correspondences(np.zeros((6, 3)), pts, pts)
    elim = build_elimination(corrs, fix_scale=True)
    alpha, s, t = solve_one(elim, np.eye(3))
    assert s == 1.0
    assert np.allclose(t, 0.0, atol=1e-9)
    assert np.allclose(alpha, np.linalg.norm(pts, axis=1), atol=1e-9)


def test_fix_scale_closed_matches_dense():
    samples, rotations = [], []
    for seed in (7, 8, 9):
        corrs, truth = _scene(n=6, seed=seed)
        samples.append(corrs)
        rotations.append([truth.rotation_matrix()] + _rotations(seed))
    _assert_all_match_dense(samples, rotations, fix_scale=True)
