import numpy as np
import pytest

from raypose import (Correspondences, DistributedCamera, InvalidInputError,
                     Quaternion, SimilarityTransform,
                     alignment_from_pose, apply_similarity,
                     compose_similarity, invert_similarity,
                     merge_distributed_cameras, pose_from_alignment,
                     quat_to_rotation)


def random_transform(rng):
    q = Quaternion.from_array(rng.normal(size=4))
    return SimilarityTransform(q, rng.normal(size=3), float(rng.uniform(0.2, 5.0)))


def test_quaternion_normalized_and_sign_canonical():
    q = Quaternion(-2.0, 0.0, 4.0, 0.0)
    assert np.isclose(np.linalg.norm(q.array), 1.0)
    assert q.w > 0  # leading nonzero component made positive
    q2 = Quaternion(0.0, -3.0, 1.0, 0.0)
    assert q2.x > 0


def test_quaternion_matrix_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = Quaternion.from_array(rng.normal(size=4))
        R = q.rotation_matrix()
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)
        q2 = Quaternion.from_rotation_matrix(R)
        assert np.allclose(q.array, q2.array, atol=1e-12)


def test_quat_to_rotation_even_in_sign():
    a = np.array([0.3, -0.5, 0.2, 0.7])
    assert np.allclose(quat_to_rotation(a), quat_to_rotation(-a))


def test_angle_deg_to_resolves_small_turns():
    # acos of the quaternions' dot product read 0.0 below about 1e-6 degrees.
    turn = Quaternion(np.cos(0.5e-9), np.sin(0.5e-9) * 0.6, 0.0, np.sin(0.5e-9) * 0.8)
    assert np.isclose(turn.angle_deg_to(Quaternion.identity()), np.degrees(1e-9), rtol=1e-9)
    assert np.isclose(Quaternion(0.0, 1.0, 0.0, 0.0).angle_deg_to(Quaternion.identity()), 180.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = (Quaternion.from_array(rng.normal(size=4)) for _ in range(2))
        Rab = a.rotation_matrix() @ b.rotation_matrix().T
        expect = np.degrees(np.arccos(np.clip((np.trace(Rab) - 1.0) / 2.0, -1.0, 1.0)))
        assert np.isclose(a.angle_deg_to(b), expect, atol=1e-6)
        assert np.isclose(b.angle_deg_to(a), expect, atol=1e-6)


def test_quaternion_product_matches_matrix_product():
    rng = np.random.default_rng(1)
    q1 = Quaternion.from_array(rng.normal(size=4))
    q2 = Quaternion.from_array(rng.normal(size=4))
    assert np.allclose((q1 * q2).rotation_matrix(),
                       q1.rotation_matrix() @ q2.rotation_matrix(), atol=1e-12)


def test_similarity_group_laws():
    rng = np.random.default_rng(2)
    p = rng.normal(size=3)
    for _ in range(20):
        T1 = random_transform(rng)
        T2 = random_transform(rng)
        lhs = apply_similarity(T2, apply_similarity(T1, p))
        rhs = apply_similarity(compose_similarity(T2, T1), p)
        assert np.allclose(lhs, rhs, atol=1e-10)
        inv = invert_similarity(T1)
        assert np.allclose(apply_similarity(inv, apply_similarity(T1, p)), p, atol=1e-10)


def test_similarity_rejects_nonpositive_scale():
    with pytest.raises(InvalidInputError):
        SimilarityTransform(Quaternion.identity(), np.zeros(3), 0.0)
    with pytest.raises(InvalidInputError):
        SimilarityTransform(Quaternion.identity(), np.zeros(3), -1.0)


def test_alignment_pose_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        T = random_transform(rng)
        back = pose_from_alignment(alignment_from_pose(T))
        assert np.allclose(back.rotation.array, T.rotation.array, atol=1e-12)
        assert np.allclose(back.translation, T.translation, atol=1e-10)
        assert np.isclose(back.scale, T.scale)


def test_alignment_maps_local_points_to_world():
    # For a pose (R, t, s) with s*c + alpha*d = R X + t, the local point
    # P = c + (alpha/s) d satisfies X = alignment(P).
    rng = np.random.default_rng(4)
    T = random_transform(rng)
    R = T.rotation_matrix()
    X = rng.normal(size=3)
    c = rng.normal(size=3)
    v = R @ X + T.translation - T.scale * c
    P = c + v / T.scale
    align = alignment_from_pose(T)
    assert np.allclose(apply_similarity(align, P), X, atol=1e-10)


_TWO = (np.zeros((2, 3)), [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]], np.ones((2, 3)), [0.5, np.nan], [7, None])


_BAD_CORRESPONDENCES = {
    "row_count": (0, np.zeros((3, 3))),
    "direction_shape": (1, [[0.0, 1.0], [1.0, 0.0]]),
    "1D_points": (2, np.ones(3)),
    "score_count": (3, [0.5]),
    "point_id_count": (4, [7]),
    "nonfinite_origin": (0, [[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]]),
    "nonfinite_direction": (1, [[0.0, 0.0, np.nan], [0.0, 0.0, 1.0]]),
    "nonfinite_point": (2, [[1.0, 1.0, np.nan], [1.0, 1.0, 1.0]]),
    "zero_direction": (1, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "score_above_1": (3, [1.5, 0.5]),
    "score_below_0": (3, [-0.1, np.nan]),
    "infinite_score": (3, [np.inf, 0.5]),
}


@pytest.mark.parametrize("case", list(_BAD_CORRESPONDENCES))
def test_correspondences_rejects(case):
    field, value = _BAD_CORRESPONDENCES[case]
    args = list(_TWO)
    args[field] = value
    with pytest.raises(InvalidInputError):
        Correspondences(*args)


def test_correspondences_normalize_once_and_are_read_only():
    # directions off unit length by more than 1e-9 are renormalized, the
    # others kept bit for bit, as for the camera
    d = np.array([[0.0, 0.0, 5.0], [0.6, 0.0, 0.8], [0.0, 0.0, 1.0 + 5e-10], [0.0, 0.0, 1.0 + 2e-9]])
    c = Correspondences(np.zeros((4, 3)), d, np.ones((4, 3)), [0.5, np.nan, 1.0, 0.0])
    assert len(c) == 4
    assert c.directions.tolist() == [[0.0, 0.0, 1.0], d[1].tolist(), d[2].tolist(),
                                     (d[3] / np.linalg.norm(d[3])).tolist()]
    assert d[0].tolist() == [0.0, 0.0, 5.0]   # the input is copied
    assert c.point_ids is None
    for a in (c.origins, c.directions, c.points, c.scores):
        with pytest.raises(ValueError):
            a[0] = a[0]
    one = Correspondences(*_TWO)
    assert one.point_ids.tolist() == [7, None] and one.point_ids.dtype == object
    assert one.scores[0] == 0.5 and np.isnan(one.scores[1])


def test_correspondences_subset_does_not_check_again(monkeypatch):
    c = Correspondences(*_TWO)

    def fail(self):
        raise AssertionError("subset re-checked its rows")

    monkeypatch.setattr(Correspondences, "__post_init__", fail)
    sub = c.subset(np.array([1, 0, 1]))
    assert len(sub) == 3
    assert sub.directions.tolist() == [[0.6, 0.0, 0.8], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]
    assert sub.point_ids.tolist() == [None, 7, None]
    assert np.array_equal(sub.scores, [np.nan, 0.5, np.nan], equal_nan=True)
    with pytest.raises(ValueError):
        sub.points[0] = 0.0


def _tiny_camera(pid_offset=0, cam_id="a"):
    return DistributedCamera([0, 0], [0, 1], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
                             [cam_id], np.zeros((1, 3)), [[1.0, 0.0, 0.0, 0.0]],
                             [pid_offset, pid_offset + 1], [[0.0, 0.0, 3.0], [1.0, 0.0, 3.0]])


def test_distributed_camera_validation():
    unit = [[0.0, 0.0, 1.0]]
    one = ([0], [0], unit, ["a"], np.zeros((1, 3)), [[1.0, 0.0, 0.0, 0.0]], [7], [[0.0, 0.0, 3.0]])
    DistributedCamera(*one)
    bad = {
        "duplicate camera id": {3: ["a", "a"], 4: np.zeros((2, 3)), 5: np.eye(4)[:2]},
        "duplicate point id": {6: [7, 7], 7: np.ones((2, 3))},
        "unhashable id": {3: [["a"]]},
        "camera row out of range": {0: [1]},
        "negative point row": {1: [-1]},
        "float rows": {0: [0.0]},
        "row count mismatch": {1: [0, 0]},
        "direction shape": {2: [[0.0, 1.0]]},
        "zero direction": {2: [[0.0, 0.0, 0.0]]},
        "non-finite point": {7: [[0.0, np.nan, 3.0]]},
        "non-finite center": {4: [[np.inf, 0.0, 0.0]]},
        "zero orientation": {5: [[0.0, 0.0, 0.0, 0.0]]},
        "center count": {4: np.zeros((2, 3))},
    }
    for name, changes in bad.items():
        args = [changes.get(i, a) for i, a in enumerate(one)]
        with pytest.raises(InvalidInputError):
            DistributedCamera(*args)
            pytest.fail(name)


def test_distributed_camera_normalizes_once_and_is_read_only():
    d = np.array([[0.0, 0.0, 2.0], [0.6, 0.0, 0.8]])
    cam = DistributedCamera([0, 0], [0, 0], d, ["a"], np.zeros((1, 3)),
                            [[-2.0, 0.0, 0.0, 0.0]], [0], [[0.0, 0.0, 3.0]])
    assert cam.directions[0].tolist() == [0.0, 0.0, 1.0]
    assert cam.directions[1].tolist() == d[1].tolist()   # unit rows kept bit for bit
    assert cam.orientations.tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert d[0].tolist() == [0.0, 0.0, 2.0]              # the input is copied
    for a in (cam.directions, cam.obs_camera, cam.camera_ids, cam.points):
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_merge_keeps_base_coordinates_for_shared_points():
    base = _tiny_camera(cam_id="a")
    other = _tiny_camera(cam_id="b")  # same point ids, different frame
    T = SimilarityTransform(Quaternion.identity(), np.array([5.0, 0.0, 0.0]), 2.0)
    merged = merge_distributed_cameras(base, other, T)
    assert merged.points[merged.point_rows([0])[0]].tolist() == [0.0, 0.0, 3.0]
    assert merged.camera_ids.tolist() == ["a", "b"]
    # other's camera center moved by the similarity
    assert np.allclose(merged.centers[1], T.apply(np.zeros(3)))


def test_merge_leaves_base_unchanged_and_keeps_row_order():
    rng = np.random.default_rng(7)
    base = DistributedCamera([0, 1, 1], [2, 0, 1], [[0.0, 0.0, 1.0]] * 3, ["a", "b"],
                             rng.normal(size=(2, 3)), [[1.0, 0.0, 0.0, 0.0]] * 2,
                             [10, 11, 12], rng.normal(size=(3, 3)))
    other = DistributedCamera([0, 0, 0, 0], [0, 1, 2, 1], rng.normal(size=(4, 3)), ["c"],
                              rng.normal(size=(1, 3)), [rng.normal(size=4)],
                              [13, 11, 14], rng.normal(size=(3, 3)))
    before = {k: v.copy() for k, v in vars(base).items()}
    T = random_transform(rng)
    merged = merge_distributed_cameras(base, other, T)
    for k, v in vars(base).items():
        assert np.array_equal(v, before[k]), k
    n_base = len(base.obs_camera)
    assert merged.camera_ids.tolist() == ["a", "b", "c"]
    assert merged.point_ids.tolist() == [10, 11, 12, 13, 14]
    assert np.array_equal(merged.points[:3], base.points)
    # new points, centers and directions round exactly as a per-row loop would
    assert np.array_equal(merged.points[3:], [T.apply(other.points[0]), T.apply(other.points[2])])
    assert merged.obs_camera.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert merged.point_ids[merged.obs_point].tolist() == [12, 10, 11, 13, 11, 14, 11]
    R = T.rotation_matrix()
    assert np.array_equal(merged.directions[:n_base], base.directions)
    assert np.array_equal(merged.directions[n_base:], [R @ d for d in other.directions])
    assert np.array_equal(merged.centers[2], T.apply(other.centers[0]))
    assert np.array_equal(merged.orientations[2],
                          (T.rotation * Quaternion.from_array(other.orientations[0])).array)


def test_merge_rejects_camera_id_collision():
    base = _tiny_camera(cam_id="a")
    with pytest.raises(InvalidInputError):
        merge_distributed_cameras(base, _tiny_camera(cam_id="a"),
                                  SimilarityTransform.identity())
