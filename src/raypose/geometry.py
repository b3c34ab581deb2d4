"""Domain types and exact geometric primitives for the distributed camera model.

A *distributed camera* is a bag of observed light rays (origin + unit
direction in a local frame) together with 3D points and observations that
tie rays to point identities.  A single pinhole camera is the special case
where all ray origins coincide.

Frame convention
----------------
A pose estimated against world points is stored as a
:class:`SimilarityTransform` ``(R, t, s)`` whose fields satisfy the ray
constraint ``s*c_i + alpha_i*d_i = R*X_i + t``: world points land in the
camera frame via ``R X + t`` while local ray origins are stretched by
``s``.  As a *point map* the class acts as the ordinary similarity
``p -> s*R*p + t`` so that composition and inversion form a group.  Use
:func:`alignment_from_pose` to turn a solved pose into the similarity that
places the camera's local frame into the world (base) frame; that is the
map reconstruction merging consumes.
"""

from __future__ import annotations

import math
from itertools import repeat
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import InvalidInputError

_SIGN_EPS = 1e-12
_LEAD_WEIGHTS = np.array([8.0, 4.0, 2.0, 1.0])


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion with a canonical sign.

    Normalized and signed on construction by ``_unit_quaternions``, the
    rule for every quaternion row: the first component whose magnitude
    exceeds 1e-12 is made positive so that q and -q compare equal.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        a = _unit_quaternions(_block([self.w, self.x, self.y, self.z], (4,), "quaternion")[None])
        for name, v in zip("wxyz", a[0].tolist()):
            object.__setattr__(self, name, v)

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def _of_unit_row(a: np.ndarray) -> "Quaternion":
        """The quaternion of a row that ``_unit_quaternions`` already made
        unit and sign-canonical, kept bit for bit: normalizing it again
        would move about a third of such rows by an ulp."""
        q = object.__new__(Quaternion)
        for name, v in zip("wxyz", a.tolist()):
            object.__setattr__(q, name, v)
        return q

    @property
    def array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*_hamilton((self.w, self.x, self.y, self.z),
                                     (other.w, other.x, other.y, other.z)))

    def rotation_matrix(self) -> np.ndarray:
        return _rotations(self.array)

    def angle_deg_to(self, other: "Quaternion") -> float:
        """Geodesic rotation angle between the two rotations, in degrees.

        With b signed toward a, the angle between the unit quaternions is
        2 atan2(|a - b|, |a + b|), half the rotation angle; unlike acos of
        the dot product it keeps its precision at small angles.
        """
        a, b = self.array, other.array
        if np.dot(a, b) < 0.0:
            b = -b
        return math.degrees(4.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def _hamilton(a, b):
    """Hamilton product of two (w, x, y, z) quaternions whose components
    are scalars or arrays; returns the four components."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _rotations(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (k, 3, 3) of unit quaternion rows (k, 4), or the
    (3, 3) matrix of one (4,) quaternion.

    Each entry is written out as the quadratic form in q, with no matrix
    product, so a row rounds the same alone or in a stack.
    """
    w, x, y, z = q.T
    ww, xx, yy, zz, xy, wz, xz, wy, yz, wx = (w * w, x * x, y * y, z * z,
                                              x * y, w * z, x * z, w * y, y * z, w * x)
    R = np.array([ww + xx - yy - zz, 2 * (xy - wz), 2 * (xz + wy),
                  2 * (xy + wz), ww - xx + yy - zz, 2 * (yz - wx),
                  2 * (xz - wy), 2 * (yz + wx), ww - xx - yy + zz])
    return np.ascontiguousarray(R.T).reshape(q.shape[:-1] + (3, 3))


@dataclass(frozen=True)
class SimilarityTransform:
    """7-DoF similarity: unit-quaternion rotation, translation, positive scale."""

    rotation: Quaternion
    translation: np.ndarray
    scale: float

    def __post_init__(self):
        t = _block(self.translation, (3,), "translation")
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)
        s = float(self.scale)
        if not math.isfinite(s) or s <= 0.0:
            raise InvalidInputError(f"scale must be positive and finite, got {s}")
        object.__setattr__(self, "scale", s)

    @staticmethod
    def identity() -> "SimilarityTransform":
        return SimilarityTransform(Quaternion.identity(), np.zeros(3), 1.0)

    def rotation_matrix(self) -> np.ndarray:
        return self.rotation.rotation_matrix()


def apply_similarity(T: SimilarityTransform, p) -> np.ndarray:
    """Point action of the similarity: ``s * R @ p + t``.

    Accepts a single 3-vector or an (n, 3) array of points; every point
    is rounded as if it were mapped alone.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("point must be finite")
    return T.scale * _row_products(p, T.rotation_matrix().T) + T.translation


def compose_similarity(T2: SimilarityTransform, T1: SimilarityTransform) -> SimilarityTransform:
    """The similarity applying T1 first, then T2.

    Scales multiply, rotations compose, and the translation is
    ``s2 * R2 @ t1 + t2``.
    """
    q = T2.rotation * T1.rotation
    t = T2.scale * (T2.rotation_matrix() @ T1.translation) + T2.translation
    return SimilarityTransform(q, t, T2.scale * T1.scale)


def invert_similarity(T: SimilarityTransform) -> SimilarityTransform:
    Rt = T.rotation_matrix().T
    return SimilarityTransform(T.rotation.conjugate(), -(Rt @ T.translation) / T.scale, 1.0 / T.scale)


def alignment_from_pose(T: SimilarityTransform) -> SimilarityTransform:
    """Similarity that places the camera's local frame into the world frame.

    For a pose ``(R, t, s)`` satisfying ``s*c + alpha*d = R*X + t``, the
    local point ``p`` maps to the world point ``s*R^T p - R^T t``.  The
    map ``(R, t, s) -> (R^T, -R^T t, s)`` is its own inverse: applied to
    an alignment it gives back the pose.
    """
    Rt = T.rotation_matrix().T
    return SimilarityTransform(T.rotation.conjugate(), -(Rt @ T.translation), T.scale)


def row_norms(x: np.ndarray) -> np.ndarray:
    """(n, 1) Euclidean norms of the rows of a finite x.

    Row-wise matrix products round like ``np.linalg.norm`` of one row, so
    vectorized code reproduces per-row loops bit for bit.  A row whose
    squared norm overflows (components beyond about 1e154) is divided by
    its largest magnitude first; every other row keeps its bits.
    """
    with np.errstate(over="ignore"):
        n = np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    big = ~np.isfinite(n[:, 0])
    if big.any():
        m = np.abs(x[big]).max(axis=1, keepdims=True)
        y = x[big] / m
        n[big] = m * np.sqrt(y[:, None, :] @ y[:, :, None])[:, 0]
    return n


def _row_products(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``x @ A`` per row of x (or for a vector x), rounded as a one-row product."""
    return (x[..., None, :] @ A)[..., 0, :]


def _unit_rows(d: np.ndarray, what: str) -> np.ndarray:
    """d with each row off unit length by more than 1e-9 renormalized in
    place; rows already unit are kept bit for bit.  Zero rows raise."""
    norms = row_norms(d)
    if np.any(norms < 1e-12):
        raise InvalidInputError(f"{what} must be nonzero")
    off = np.abs(norms[:, 0] - 1.0) > 1e-9
    d[off] /= norms[off]
    return d


def _unit_quaternions(q: np.ndarray) -> np.ndarray:
    """Rows of q normalized, each with its first component of magnitude
    over 1e-12 made positive, so that q and -q give the same row.  Zero
    rows raise."""
    n = row_norms(q)
    if (n < _SIGN_EPS).any():
        raise InvalidInputError("all-zero quaternion")
    q = q / n
    # The sign of the first significant component outweighs the other
    # three in the weights (8, 4, 2, 1).
    flip = np.copysign(np.abs(q) > _SIGN_EPS, q) @ _LEAD_WEIGHTS < 0.0
    return np.negative(q, out=q, where=flip[:, None])


def _id_array(ids) -> np.ndarray:
    """ids as a 1-D object array."""
    return np.fromiter(ids.tolist() if isinstance(ids, np.ndarray) else ids, dtype=object)


def _ids(ids, what: str) -> np.ndarray:
    """Distinct hashable ids as a 1-D object array."""
    a = _id_array(ids)
    try:
        if len(set(a)) == len(a):
            return a
    except TypeError:
        pass
    raise InvalidInputError(f"{what} ids must be hashable and distinct")


def _integer(value, name: str, minimum: int) -> None:
    """Raise unless value is a Python or numpy integer, not a bool, >= minimum."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum):
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _block(a, shape: tuple, what: str) -> np.ndarray:
    """A finite float copy of a with the given shape."""
    a = np.array(a, dtype=float)
    if a.size == 0 == shape[0]:
        a = a.reshape(shape)
    if a.shape != shape or not np.isfinite(a).all():
        raise InvalidInputError(f"{what} must be finite with shape {shape}, got shape {a.shape}")
    return a


def _rows(a, count: int, what: str) -> np.ndarray:
    """A copy of a as row indices into a block of ``count`` rows."""
    a = np.array(a) if len(a) else np.zeros(0, dtype=np.intp)
    if a.ndim != 1 or a.dtype.kind not in "iu" or np.any((a < 0) | (a >= count)):
        raise InvalidInputError(f"observation {what} rows must be integers in [0, {count})")
    return a.astype(np.intp)


def _freeze(obj, *arrays):
    """obj holding fresh arrays that pass every check, as its fields in
    order, made read-only; None stays None."""
    for f, a in zip(fields(obj), arrays):
        if a is not None:
            a.setflags(write=False)
        object.__setattr__(obj, f.name, a)
    return obj


@dataclass(frozen=True, eq=False)
class Correspondences:
    """Rays paired with known 3D world points, as read-only arrays.

    ``origins``, unit ``directions`` and ``points`` are (n, 3).  Optional:
    match ``scores`` (n,) in [0, 1], NaN for a row without one, and
    ``point_ids`` (n,), an object array holding an id or None per row.
    The constructor copies and checks it all once; directions off unit
    length by over 1e-9 are renormalized.
    """

    origins: np.ndarray
    directions: np.ndarray
    points: np.ndarray
    scores: Optional[np.ndarray] = None
    point_ids: Optional[np.ndarray] = None

    def __post_init__(self):
        n = (np.shape(self.points) or (0,))[0]
        scores, point_ids = self.scores, self.point_ids
        if scores is not None:
            scores = np.array(scores, dtype=float)
            if scores.shape != (n,) or np.any((scores < 0.0) | (scores > 1.0)):
                raise InvalidInputError(f"scores must be in [0, 1] (NaN for none) with shape ({n},)")
        if point_ids is not None:
            point_ids = _id_array(point_ids)
            if len(point_ids) != n:
                raise InvalidInputError(f"point_ids must have shape ({n},), got ({len(point_ids)},)")
        _freeze(self, _block(self.origins, (n, 3), "ray origins"),
                _unit_rows(_block(self.directions, (n, 3), "ray directions"), "ray direction"),
                _block(self.points, (n, 3), "world points"), scores, point_ids)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def _unchecked(cls, origins, directions, points, scores=None, point_ids=None) -> "Correspondences":
        """A set of fresh arrays that already pass every check, taken as
        they are."""
        return _freeze(object.__new__(cls), origins, directions, points, scores, point_ids)

    def subset(self, rows) -> "Correspondences":
        """The given rows, in that order; nothing is checked again."""
        arrays = (getattr(self, f.name) for f in fields(self))
        return Correspondences._unchecked(*(None if a is None else a[rows] for a in arrays))


@dataclass(frozen=True, eq=False)
class DistributedCamera:
    """Rays, their cameras and the points they observe, as read-only arrays
    in one local frame; doubles as a (sub-)reconstruction.

    Per observation: ``obs_camera``, ``obs_point`` (row indices) and unit
    ``directions`` (O, 3).  Per camera: ``camera_ids`` (C,), ``centers``
    (C, 3), ``orientations`` (C, 4) as signed by :class:`Quaternion`.  Per
    point: ``point_ids`` (P,), ``points`` (P, 3).  Ids are distinct
    hashables in object arrays.  The constructor copies and checks it all
    once; directions off unit length by over 1e-9 are renormalized.
    """

    obs_camera: np.ndarray
    obs_point: np.ndarray
    directions: np.ndarray
    camera_ids: np.ndarray
    centers: np.ndarray
    orientations: np.ndarray
    point_ids: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        camera_ids, point_ids = _ids(self.camera_ids, "camera"), _ids(self.point_ids, "point")
        C, P = len(camera_ids), len(point_ids)
        obs_camera = _rows(self.obs_camera, C, "camera")
        obs_point = _rows(self.obs_point, P, "point")
        if len(obs_point) != len(obs_camera):
            raise InvalidInputError("obs_camera and obs_point differ in length")
        d = _unit_rows(_block(self.directions, (len(obs_camera), 3), "observation directions"),
                       "observation direction")
        _freeze(self, obs_camera, obs_point, d, camera_ids, _block(self.centers, (C, 3), "centers"),
                _unit_quaternions(_block(self.orientations, (C, 4), "orientations")),
                point_ids, _block(self.points, (P, 3), "points"))

    @property
    def n_points(self) -> int:
        return len(self.point_ids)

    def point_rows(self, ids) -> np.ndarray:
        """Row of each of ``ids`` among this camera's points, -1 where absent."""
        index = dict(zip(self.point_ids, range(self.n_points)))
        return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))


def merge_distributed_cameras(
    base: DistributedCamera,
    other: DistributedCamera,
    T: SimilarityTransform,
) -> DistributedCamera:
    """Union of two distributed cameras, with ``other`` mapped by ``T``.

    ``T`` must map other's local frame into base's frame.  Rows keep
    base-then-other order; points whose ids base has keep base's
    coordinates, and directions from ``other`` are rotated by R only.
    Camera-id collisions raise (callers namespace ids); nothing else is
    checked again.
    """
    taken = set(base.camera_ids)
    if not taken.isdisjoint(other.camera_ids):
        cid = next(c for c in other.camera_ids if c in taken)
        raise InvalidInputError(f"camera id collision on {cid!r}; namespace ids before merging")
    rows = base.point_rows(other.point_ids)
    new = rows < 0
    rows[new] = base.n_points + np.arange(np.count_nonzero(new))
    orientations = np.stack(_hamilton(T.rotation.array, other.orientations.T), axis=1)
    return _freeze(object.__new__(DistributedCamera),   # valid by construction
        np.concatenate([base.obs_camera, other.obs_camera + len(base.camera_ids)]),
        np.concatenate([base.obs_point, rows[other.obs_point]]),
        np.concatenate([base.directions, _row_products(other.directions, T.rotation_matrix().T)]),
        np.concatenate([base.camera_ids, other.camera_ids]),
        np.concatenate([base.centers, apply_similarity(T, other.centers)]),
        np.concatenate([base.orientations, _unit_quaternions(orientations)]),
        np.concatenate([base.point_ids, other.point_ids[new]]),
        np.concatenate([base.points, apply_similarity(T, other.points[new])]),
    )
