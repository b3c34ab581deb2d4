import numpy as np
import pytest

from raypose import (Correspondences, DistributedCamera, InvalidInputError,
                     Quaternion, SimilarityTransform,
                     alignment_from_pose, apply_similarity,
                     compose_similarity, invert_similarity,
                     merge_distributed_cameras, umeyama_align)
from raypose.geometry import _hamilton, _rotations, _unit_quaternions, row_norms


def random_transform(rng):
    q = Quaternion(*rng.normal(size=4))
    return SimilarityTransform(q, rng.normal(size=3), float(rng.uniform(0.2, 5.0)))


def test_quaternion_normalized_and_sign_canonical():
    q = Quaternion(-2.0, 0.0, 4.0, 0.0)
    assert np.isclose(np.linalg.norm(q.array), 1.0)
    assert q.w > 0  # leading nonzero component made positive
    q2 = Quaternion(0.0, -3.0, 1.0, 0.0)
    assert q2.x > 0
    # Leading components of 0 or at most 1e-12 (after normalizing) do not
    # decide the sign; Quaternion and the stacked rule agree bit for bit.
    rows = np.vstack([[[0.0, -3.0, 1.0, 0.0], [0.0, 0.0, 0.0, -2.0], [1e-13, -1.0, 0.5, 0.0],
                       [-1e-13, 0.0, -0.3, 2.0], [0.0, 1e-13, -1.0, 0.0], [-1e-13, 1e-13, 0.0, 0.4]],
                      np.random.default_rng(8).normal(size=(20, 4))])
    stacked = _unit_quaternions(rows.copy())
    for row, expect in zip(rows, stacked):
        assert Quaternion(*row).array.tobytes() == expect.tobytes()
        assert np.isclose(np.linalg.norm(expect), 1.0)
        assert expect[np.abs(expect) > 1e-12][0] > 0.0
    assert stacked[2, 0] < 0.0 and stacked[2, 1] > 0.0   # flipped by the -1.0, not by 1e-13
    assert stacked[4, 1] < 0.0 and stacked[5, 0] < 0.0 < stacked[5, 1]   # the 0.4 decides: kept


def test_derived_quaternions_keep_the_sign_rule_bit_for_bit():
    # Conjugates, products, alignments and compositions are normalized and
    # signed as _unit_quaternions does their raw rows, also where the first
    # component is 0 or at most 1e-12 and the sign is decided further on.
    def unit(row):
        return _unit_quaternions(np.array([row], dtype=float))[0].tobytes()

    raws = [(0.0, -1.0, 0.0, 0.0), (1e-13, 0.0, -1.0, 0.0), (-1e-13, 0.0, 0.0, 1.0),
            (0.0, 1e-13, -1.0, 0.5), (0.0, 0.0, 0.0, -2.0), (-0.5, 1e-13, 0.2, -0.1),
            *np.random.default_rng(12).normal(size=(20, 4))]
    quats = [Quaternion(*raw) for raw in raws]
    for raw, q in zip(raws, quats):
        assert q.array.tobytes() == unit(raw)
        conjugate = (q.w, -q.x, -q.y, -q.z)
        assert q.conjugate().array.tobytes() == unit(conjugate)
        T = SimilarityTransform(q, [0.5, -1.0, 2.0], 1.5)
        assert alignment_from_pose(T).rotation.array.tobytes() == unit(conjugate)
        for p in quats[:8]:
            product = _hamilton(q.array, p.array)
            assert (q * p).array.tobytes() == unit(product)
            composed = compose_similarity(T, SimilarityTransform(p, [1.0, 0.0, -1.0], 0.5))
            assert composed.rotation.array.tobytes() == unit(product)
    # The first component of magnitude over 1e-12 decides the sign, so a
    # half turn is its own conjugate, and a w of 1e-13 follows the y.
    assert quats[0].x > 0.0 and quats[0].conjugate().x > 0.0
    assert quats[1].array.tolist() == [-1e-13, 0.0, 1.0, 0.0]
    assert quats[1].conjugate().array.tolist() == [1e-13, 0.0, 1.0, 0.0]


def test_stacked_rotations_match_rotation_matrix_bit_for_bit():
    quats = [Quaternion(*r) for r in np.random.default_rng(9).normal(size=(200, 4))]
    R = _rotations(np.array([q.array for q in quats]))
    assert R.shape == (200, 3, 3) and R.flags.c_contiguous
    for q, Ri in zip(quats, R):
        assert q.rotation_matrix().tobytes() == Ri.tobytes()


def test_quaternion_matrix_roundtrip():
    rng = np.random.default_rng(0)
    simplex = np.vstack([np.zeros(3), np.eye(3)])
    for _ in range(50):
        q = Quaternion(*rng.normal(size=4))
        R = q.rotation_matrix()
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)
        # Back to the quaternion through the alignment of a rotated simplex.
        assert np.allclose(umeyama_align(simplex, simplex @ R.T).rotation.array, q.array,
                           rtol=0.0, atol=1e-12)


def test_huge_quaternion_is_normalized():
    # Its squared norm overflowed to inf, and q / inf gave the zero quaternion.
    assert Quaternion(1e200, 0.0, 0.0, 0.0).array.tolist() == [1.0, 0.0, 0.0, 0.0]
    q = Quaternion(-3e300, 0.0, 4e300, 0.0)
    assert np.allclose(q.array, [0.6, 0.0, -0.8, 0.0], rtol=0.0, atol=1e-15)


def test_huge_direction_is_normalized_and_other_rows_keep_their_bits():
    rng = np.random.default_rng(4)
    d = rng.normal(size=(5, 3))
    d[2] = [1e200, 0.0, 0.0]
    corrs = Correspondences(np.zeros((5, 3)), d, rng.normal(size=(5, 3)))
    assert corrs.directions[2].tolist() == [1.0, 0.0, 0.0]
    keep = [0, 1, 3, 4]
    assert np.array_equal(row_norms(d)[keep], row_norms(d[keep]))
    assert np.array_equal(corrs.directions[keep], d[keep] / row_norms(d[keep]))


def test_rotation_matrix_even_in_sign():
    a = np.array([0.3, -0.5, 0.2, 0.7])
    assert np.allclose(Quaternion(*a).rotation_matrix(), Quaternion(*-a).rotation_matrix())


def test_angle_deg_to_resolves_small_turns():
    # acos of the quaternions' dot product read 0.0 below about 1e-6 degrees.
    turn = Quaternion(np.cos(0.5e-9), np.sin(0.5e-9) * 0.6, 0.0, np.sin(0.5e-9) * 0.8)
    assert np.isclose(turn.angle_deg_to(Quaternion.identity()), np.degrees(1e-9), rtol=1e-9)
    assert np.isclose(Quaternion(0.0, 1.0, 0.0, 0.0).angle_deg_to(Quaternion.identity()), 180.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = (Quaternion(*rng.normal(size=4)) for _ in range(2))
        Rab = a.rotation_matrix() @ b.rotation_matrix().T
        expect = np.degrees(np.arccos(np.clip((np.trace(Rab) - 1.0) / 2.0, -1.0, 1.0)))
        assert np.isclose(a.angle_deg_to(b), expect, atol=1e-6)
        assert np.isclose(b.angle_deg_to(a), expect, atol=1e-6)


def test_quaternion_product_matches_matrix_product():
    rng = np.random.default_rng(1)
    q1 = Quaternion(*rng.normal(size=4))
    q2 = Quaternion(*rng.normal(size=4))
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
        back = alignment_from_pose(alignment_from_pose(T))
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


_TWO = (np.zeros((2, 3)), [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]], np.ones((2, 3)))


_BAD_CORRESPONDENCES = {
    "row_count": (0, np.zeros((3, 3))),
    "direction_shape": (1, [[0.0, 1.0], [1.0, 0.0]]),
    "1D_points": (2, np.ones(3)),
    "nonfinite_origin": (0, [[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]]),
    "nonfinite_direction": (1, [[0.0, 0.0, np.nan], [0.0, 0.0, 1.0]]),
    "nonfinite_point": (2, [[1.0, 1.0, np.nan], [1.0, 1.0, 1.0]]),
    "zero_direction": (1, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
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
    c = Correspondences(np.zeros((4, 3)), d, np.ones((4, 3)))
    assert len(c) == 4
    assert c.directions.tolist() == [[0.0, 0.0, 1.0], d[1].tolist(), d[2].tolist(),
                                     (d[3] / np.linalg.norm(d[3])).tolist()]
    assert d[0].tolist() == [0.0, 0.0, 5.0]   # the input is copied
    for a in (c.origins, c.directions, c.points):
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_correspondences_subset_does_not_check_again(monkeypatch):
    c = Correspondences(*_TWO)

    def fail(self):
        raise AssertionError("subset re-checked its rows")

    monkeypatch.setattr(Correspondences, "__post_init__", fail)
    sub = c.subset(np.array([1, 0, 1]))
    assert len(sub) == 3
    assert sub.directions.tolist() == [[0.6, 0.0, 0.8], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]
    assert sub.origins.shape == sub.points.shape == (3, 3)
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
    assert np.allclose(merged.centers[1], apply_similarity(T, np.zeros(3)))


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
    # new points and centers round exactly as a per-row loop would
    assert np.array_equal(merged.points[3:], [apply_similarity(T, other.points[0]),
                                              apply_similarity(T, other.points[2])])
    assert merged.obs_camera.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert merged.point_ids[merged.obs_point].tolist() == [12, 10, 11, 13, 11, 14, 11]
    R = T.rotation_matrix()
    assert np.array_equal(merged.directions[:n_base], base.directions)
    # other's directions are rotated in one (n, 3) @ (3, 3) product
    assert np.array_equal(merged.directions[n_base:], other.directions @ R.T)
    assert np.array_equal(merged.centers[2], apply_similarity(T, other.centers[0]))
    assert np.array_equal(merged.orientations[2],
                          (T.rotation * Quaternion(*other.orientations[0])).array)


def test_merge_rotates_directions_in_one_product_and_maps_points_per_row():
    # Other's directions are its rows times R^T in one product; base's rows
    # keep their bits, and other's new points and centers round as if each
    # were mapped alone.
    rng = np.random.default_rng(21)
    n_cams, n_points = 30, 400
    obs = np.arange(n_cams * n_points)

    def camera(prefix, point_ids):
        return DistributedCamera(obs // n_points, obs % n_points, rng.normal(size=(len(obs), 3)),
                                 [f"{prefix}{k}" for k in range(n_cams)],
                                 rng.normal(size=(n_cams, 3)), rng.normal(size=(n_cams, 4)),
                                 point_ids, rng.normal(size=(n_points, 3)))

    base = camera("b", np.arange(n_points))
    other = camera("o", np.arange(n_points) + n_points // 4)   # 300 shared points
    assert len(other.directions) >= 10_000
    T = random_transform(rng)
    merged = merge_distributed_cameras(base, other, T)
    R = T.rotation_matrix()
    for name in ("obs_camera", "obs_point", "directions", "camera_ids", "centers",
                 "orientations", "point_ids", "points"):
        b = getattr(base, name)
        assert getattr(merged, name)[:len(b)].tobytes() == b.tobytes(), name
    rotated = merged.directions[len(base.directions):]
    assert rotated.tobytes() == (other.directions @ R.T).tobytes()
    assert merged.points[n_points:].tobytes() == np.array(
        [apply_similarity(T, p) for p in other.points[-(n_points // 4):]]).tobytes()
    assert merged.centers[n_cams:].tobytes() == np.array(
        [apply_similarity(T, c) for c in other.centers]).tobytes()


def test_merge_rejects_camera_id_collision():
    base = _tiny_camera(cam_id="a")
    with pytest.raises(InvalidInputError):
        merge_distributed_cameras(base, _tiny_camera(cam_id="a"),
                                  SimilarityTransform.identity())
