"""JSON serialization of reconstructions and correspondence sets.

A reconstruction document is a JSON object::

    {"version": 1,
     "cameras": [{"id": ..., "center": [x,y,z], "orientation": [w,x,y,z]}, ...],
     "points": [{"id": ..., "xyz": [x,y,z]}, ...],
     "observations": [{"camera_id": ..., "point_id": ...,
                       "direction": [x,y,z]}, ...]}

Ids are JSON scalars, distinct within ``cameras`` and within ``points``.
Directions must be unit within 1e-9; vectors off by up to 1e-6 are
renormalized with a collected warning, beyond that loading fails.  All
floats are written with 17 significant digits so save/load round-trips
exactly.  A correspondence file is ``{"correspondences": [{"origin":
[...], "direction": [...], "point": [...]}, ...]}``.  Its directions
follow the same 1e-6 rule, renormalized without a warning.  Keys a
document does not need are read and ignored, in every block: a row's
``score`` or ``point_id``, which earlier versions wrote, among them.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from typing import List, Optional, Tuple

import numpy as np

from .errors import IntegrityError, ParseError
from .geometry import _SIGN_EPS, Correspondences, DistributedCamera, row_norms

FORMAT_VERSION = 1


def _vec(obj, length, location):
    """The JSON list itself, once it is known to hold ``length`` finite numbers."""
    if not (isinstance(obj, list) and len(obj) == length
            and all(type(v) is float or type(v) is int for v in obj)):
        raise ParseError(f"expected a numeric {length}-vector", location=location)
    try:
        finite = all(map(math.isfinite, obj))
    except OverflowError:   # an int beyond the float range
        finite = False
    if not finite:
        raise ParseError("vector components must be finite", location=location)
    return obj


def _block(doc, key):
    """The list of rows under ``key``, empty when the key is absent."""
    rows = doc.get(key, [])
    if type(rows) is not list:
        raise ParseError("expected a list", location=key)
    return rows


def _require(obj, key, location, scalar=False):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}", location=location)
    if scalar and isinstance(obj[key], (list, dict)):
        raise ParseError("expected a string, number, boolean or null", location=f"{location}.{key}")
    return obj[key]


def _scalars(values) -> bool:
    """True when no value is a list or an object."""
    return {list, dict}.isdisjoint(map(type, values))


def _columns(rows, ids, vectors):
    """A block's columns when every row passes the checks of ``_require``
    and ``_vec``: a list of scalars per key in ``ids``, then a finite
    (n, length) float array per (key, length) in ``vectors``.  None when
    any row fails; the block's row loop then names the fault."""
    try:
        columns = [[r[k] for r in rows] for k in ids]
        vector_columns = [[r[k] for r in rows] for k, _ in vectors]
    except (KeyError, TypeError):   # a missing key, or a row that is not an object
        return None
    if not all(map(_scalars, columns)):
        return None
    for values, (_, length) in zip(vector_columns, vectors):
        # Exact float and int components: a bool is an int, and numpy would take it.
        if not ({*map(type, values)} <= {list} and {*map(len, values)} <= {length}
                and {*map(type, chain.from_iterable(values))} <= {float, int}):
            return None
        try:
            a = np.fromiter(chain.from_iterable(values), float, len(values) * length)
        except OverflowError:   # an int beyond the float range
            return None
        if not np.isfinite(a).all():
            return None
        columns.append(a.reshape(-1, length))
    return columns


def _directions(rows, block: str) -> Tuple[np.ndarray, np.ndarray]:
    """The (n, 3) directions and their norms; raises at the first one off
    unit length by more than 1e-6.  The owner renormalizes the rest."""
    directions = np.asarray(rows, dtype=float).reshape(-1, 3)
    norms = row_norms(directions)[:, 0]
    far = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
    if far.size:
        raise ParseError(f"direction norm {norms[far[0]]} too far from 1",
                         location=f"{block}[{far[0]}].direction")
    return directions, norms


def parse_reconstruction(text: str) -> Tuple[DistributedCamera, List[str]]:
    """Parse a reconstruction document; returns (camera, warnings)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}") from e
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", location="root")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:   # true == 1 in Python
        raise ParseError(f"unsupported version {version!r}", location="version")

    # Each block is checked by column; its row loop runs only to name a fault.
    rows = _block(doc, "cameras")
    columns = _columns(rows, ("id",), (("center", 3), ("orientation", 4)))
    if columns is not None:
        ids, centers, orientations = columns
        camera_rows = dict(zip(ids, range(len(ids))))   # a repeated id shrinks it
    if columns is None or len(camera_rows) < len(ids):
        camera_rows, centers, orientations = {}, [], []   # id -> row, in row order
        for i, cam in enumerate(rows):
            loc = f"cameras[{i}]"
            cid = _require(cam, "id", loc, scalar=True)
            if camera_rows.setdefault(cid, i) != i:
                raise IntegrityError(f"{loc}: duplicate camera id", offending_id=cid)
            centers.append(_vec(_require(cam, "center", loc), 3, loc + ".center"))
            orientations.append(_vec(_require(cam, "orientation", loc), 4, loc + ".orientation"))
    rows = _block(doc, "points")
    columns = _columns(rows, ("id",), (("xyz", 3),))
    if columns is not None:
        ids, points = columns
        point_rows = dict(zip(ids, range(len(ids))))
    if columns is None or len(point_rows) < len(ids):
        point_rows, points = {}, []
        for i, pt in enumerate(rows):
            loc = f"points[{i}]"
            pid = _require(pt, "id", loc, scalar=True)
            if point_rows.setdefault(pid, i) != i:
                raise IntegrityError(f"{loc}: duplicate point id", offending_id=pid)
            points.append(_vec(_require(pt, "xyz", loc), 3, loc + ".xyz"))
    rows = _block(doc, "observations")
    columns = _columns(rows, ("camera_id", "point_id"), (("direction", 3),))
    if columns is not None:
        cids, pids, directions = columns
        # Row of each id, -1 for one not in its block.
        obs_camera = np.fromiter(map(camera_rows.get, cids, repeat(-1)), np.intp, len(cids))
        obs_point = np.fromiter(map(point_rows.get, pids, repeat(-1)), np.intp, len(pids))
    if columns is None or (obs_camera < 0).any() or (obs_point < 0).any():
        obs_camera, obs_point, directions = [], [], []
        for i, ob in enumerate(rows):
            loc = f"observations[{i}]"
            cid = _require(ob, "camera_id", loc, scalar=True)
            pid = _require(ob, "point_id", loc, scalar=True)
            directions.append(_vec(_require(ob, "direction", loc), 3, loc + ".direction"))
            if cid not in camera_rows:
                raise IntegrityError(f"{loc}: unknown camera_id", offending_id=cid)
            if pid not in point_rows:
                raise IntegrityError(f"{loc}: unknown point_id", offending_id=pid)
            obs_camera.append(camera_rows[cid])
            obs_point.append(point_rows[pid])
    directions, norms = _directions(directions, "observations")
    warnings = [f"observations[{i}]: direction norm {norms[i]:.12g} renormalized"
                for i in np.flatnonzero(np.abs(norms - 1.0) > 1e-9)]
    # The constructor would reject a zero orientation without naming its row.
    orientations = np.asarray(orientations, dtype=float).reshape(-1, 4)
    zero = np.flatnonzero(row_norms(orientations)[:, 0] < _SIGN_EPS)
    if zero.size:
        raise ParseError("all-zero quaternion", location=f"cameras[{zero[0]}].orientation")
    camera = DistributedCamera(obs_camera, obs_point, directions, list(camera_rows),
                               centers, orientations, list(point_rows), points)
    return camera, warnings


def load_reconstruction(path: str,
                        warnings_out: Optional[List[str]] = None) -> DistributedCamera:
    """Load and validate a reconstruction document from disk."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    camera, warnings = parse_reconstruction(text)
    if warnings_out is not None:
        warnings_out.extend(warnings)
    return camera


def reconstruction_to_json(camera: DistributedCamera) -> str:
    # tolist() gives the stored ids and Python floats, which json writes exactly.
    camera_ids, point_ids = camera.camera_ids.tolist(), camera.point_ids.tolist()
    doc = {
        "version": FORMAT_VERSION,
        "cameras": [{"id": cid, "center": center, "orientation": orient}
                    for cid, center, orient in zip(camera_ids, camera.centers.tolist(),
                                                   camera.orientations.tolist())],
        "points": [{"id": pid, "xyz": xyz} for pid, xyz in zip(point_ids, camera.points.tolist())],
        "observations": [{"camera_id": camera_ids[c], "point_id": point_ids[p], "direction": d}
                         for c, p, d in zip(camera.obs_camera.tolist(), camera.obs_point.tolist(),
                                            camera.directions.tolist())],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_reconstruction(camera: DistributedCamera, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(reconstruction_to_json(camera))


def parse_correspondences(text: str) -> Correspondences:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}") from e
    if not isinstance(doc, dict) or "correspondences" not in doc:
        raise ParseError("missing 'correspondences' array", location="root")
    rows = _block(doc, "correspondences")
    keys = ("origin", "direction", "point")
    columns = _columns(rows, (), tuple((key, 3) for key in keys))
    if columns is None:
        columns = [], [], []
        for i, c in enumerate(rows):
            loc = f"correspondences[{i}]"
            for key, column in zip(keys, columns):
                column.append(_vec(_require(c, key, loc), 3, f"{loc}.{key}"))
    origins, directions, points = columns
    return Correspondences(origins, _directions(directions, "correspondences")[0], points)


def load_correspondences(path: str) -> Correspondences:
    with open(path, "r", encoding="utf-8") as f:
        return parse_correspondences(f.read())


def correspondences_to_json(correspondences: Correspondences) -> str:
    c = correspondences
    rows = [{"origin": o, "direction": d, "point": p}
            for o, d, p in zip(c.origins.tolist(), c.directions.tolist(), c.points.tolist())]
    return json.dumps({"correspondences": rows}, indent=1, sort_keys=True) + "\n"


def save_correspondences(correspondences: Correspondences, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(correspondences_to_json(correspondences))
