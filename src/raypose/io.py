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
[...], "direction": [...], "point": [...], "score"?: ..., "point_id"?:
...}, ...]}``.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import IntegrityError, InvalidInputError, ParseError
from .geometry import Correspondence, DistributedCamera, Ray, row_norms

FORMAT_VERSION = 1


def _vec(obj, length, location):
    """The JSON list itself, once it is known to hold ``length`` finite numbers."""
    if not (isinstance(obj, list) and len(obj) == length
            and all(type(v) is float or type(v) is int for v in obj)):
        raise ParseError(f"expected a numeric {length}-vector", location=location)
    if not all(map(math.isfinite, obj)):
        raise ParseError("vector components must be finite", location=location)
    return obj


def _require(obj, key, location, scalar=False):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}", location=location)
    if scalar and isinstance(obj[key], (list, dict)):
        raise ParseError("expected a string, number, boolean or null", location=f"{location}.{key}")
    return obj[key]


def parse_reconstruction(text: str) -> Tuple[DistributedCamera, List[str]]:
    """Parse a reconstruction document; returns (camera, warnings)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}") from e
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object", location="root")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported version {version!r}", location="version")

    camera_rows, centers, orientations = {}, [], []   # id -> row, in row order
    for i, cam in enumerate(doc.get("cameras", [])):
        loc = f"cameras[{i}]"
        cid = _require(cam, "id", loc, scalar=True)
        if camera_rows.setdefault(cid, i) != i:
            raise IntegrityError(f"{loc}: duplicate camera id", offending_id=cid)
        centers.append(_vec(_require(cam, "center", loc), 3, loc + ".center"))
        orientations.append(_vec(_require(cam, "orientation", loc), 4, loc + ".orientation"))
    point_rows, points = {}, []
    for i, pt in enumerate(doc.get("points", [])):
        loc = f"points[{i}]"
        pid = _require(pt, "id", loc, scalar=True)
        if point_rows.setdefault(pid, i) != i:
            raise IntegrityError(f"{loc}: duplicate point id", offending_id=pid)
        points.append(_vec(_require(pt, "xyz", loc), 3, loc + ".xyz"))
    obs_camera, obs_point, directions = [], [], []
    for i, ob in enumerate(doc.get("observations", [])):
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
    # The camera renormalizes the directions off unit length by more than 1e-9.
    directions = np.array(directions, dtype=float).reshape(-1, 3)
    norms = row_norms(directions)[:, 0]
    warnings: List[str] = []
    for i in np.flatnonzero(np.abs(norms - 1.0) > 1e-9):
        loc = f"observations[{i}]"
        if abs(norms[i] - 1.0) > 1e-6:
            raise ParseError(f"direction norm {norms[i]} too far from 1", location=loc)
        warnings.append(f"{loc}: direction norm {norms[i]:.12g} renormalized")
    try:
        camera = DistributedCamera(obs_camera, obs_point, directions, list(camera_rows),
                                   centers, orientations, list(point_rows), points)
    except InvalidInputError as e:
        raise IntegrityError(str(e)) from e
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


def parse_correspondences(text: str) -> List[Correspondence]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}") from e
    if not isinstance(doc, dict) or "correspondences" not in doc:
        raise ParseError("missing 'correspondences' array", location="root")
    out = []
    for i, c in enumerate(doc["correspondences"]):
        loc = f"correspondences[{i}]"
        origin = _vec(_require(c, "origin", loc), 3, loc + ".origin")
        direction = _vec(_require(c, "direction", loc), 3, loc + ".direction")
        point = _vec(_require(c, "point", loc), 3, loc + ".point")
        score = c.get("score")
        pid = c.get("point_id")
        try:
            out.append(Correspondence(Ray(origin, direction), point,
                                      score=score, point_id=pid))
        except InvalidInputError as e:
            raise ParseError(str(e), location=loc) from e
    return out


def load_correspondences(path: str) -> List[Correspondence]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_correspondences(f.read())


def correspondences_to_json(correspondences: Sequence[Correspondence]) -> str:
    rows = []
    for c in correspondences:
        row = {"origin": c.ray.origin.tolist(), "direction": c.ray.direction.tolist(),
               "point": c.point.tolist()}
        if c.score is not None:
            row["score"] = c.score
        if c.point_id is not None:
            row["point_id"] = c.point_id
        rows.append(row)
    return json.dumps({"correspondences": rows}, indent=1, sort_keys=True) + "\n"


def save_correspondences(correspondences: Sequence[Correspondence], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(correspondences_to_json(correspondences))
