import dataclasses
import json
import math

import numpy as np
import pytest

import raypose.io
from raypose import generate_city
from raypose.errors import IntegrityError, ParseError, RayposeError
from raypose.geometry import Correspondences
from raypose.io import (correspondences_to_json, load_correspondences,
                        load_reconstruction, parse_correspondences,
                        parse_reconstruction, reconstruction_to_json,
                        save_reconstruction)

MINIMAL = {
    "version": 1,
    "cameras": [{"id": "cam0", "center": [0.0, 0.0, 0.0],
                 "orientation": [1.0, 0.0, 0.0, 0.0]}],
    "points": [{"id": 0, "xyz": [0.0, 0.0, 3.0]}],
    "observations": [{"camera_id": "cam0", "point_id": 0,
                      "direction": [0.0, 0.0, 1.0]}],
}


def test_minimal_document_loads():
    cam, warnings = parse_reconstruction(json.dumps(MINIMAL))
    assert warnings == []
    assert len(cam.camera_ids) == 1 and cam.n_points == 1 and len(cam.directions) == 1


def test_dangling_point_id_names_offender():
    doc = dict(MINIMAL, observations=[{"camera_id": "cam0", "point_id": 99,
                                       "direction": [0.0, 0.0, 1.0]}])
    with pytest.raises(IntegrityError) as err:
        parse_reconstruction(json.dumps(doc))
    assert err.value.offending_id == 99


def test_dangling_camera_id():
    doc = dict(MINIMAL, observations=[{"camera_id": "ghost", "point_id": 0,
                                       "direction": [0.0, 0.0, 1.0]}])
    with pytest.raises(IntegrityError) as err:
        parse_reconstruction(json.dumps(doc))
    assert err.value.offending_id == "ghost"


def test_parse_error_carries_location():
    doc = dict(MINIMAL, points=[{"id": 0, "xyz": [0.0, 0.0]}])
    with pytest.raises(ParseError) as err:
        parse_reconstruction(json.dumps(doc))
    assert "points[0]" in str(err.value)
    with pytest.raises(ParseError):
        parse_reconstruction("{not json")
    # A zero orientation was an IntegrityError with no location.
    doc = _edited(RECONSTRUCTION, ("cameras", 1, "orientation"), [0, 0, 0, 0])
    with pytest.raises(ParseError) as err:
        parse_reconstruction(doc)
    assert err.value.location == "cameras[1].orientation"


@pytest.mark.parametrize("block,field", [("cameras", "id"), ("points", "id"),
                                          ("observations", "camera_id"),
                                          ("observations", "point_id")])
@pytest.mark.parametrize("bad", [["cam0"], {"id": 0}])
def test_non_scalar_id_is_parse_error(block, field, bad):
    doc = json.loads(json.dumps(MINIMAL))
    doc[block][0][field] = bad
    with pytest.raises(ParseError) as err:
        parse_reconstruction(json.dumps(doc))
    assert err.value.location == f"{block}[0].{field}"


@pytest.mark.parametrize("block,extra", [
    ("cameras", {"id": "cam0", "center": [1.0, 0.0, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]}),
    ("points", {"id": 0, "xyz": [1.0, 0.0, 3.0]})])
def test_duplicate_id_names_offender(block, extra):
    doc = dict(MINIMAL, **{block: MINIMAL[block] + [extra]})
    with pytest.raises(IntegrityError) as err:
        parse_reconstruction(json.dumps(doc))
    assert err.value.offending_id == extra["id"]


def test_version_checked():
    # true and 1.0 compare equal to 1 in Python and used to be read as version 1.
    for version in (2, True, 1.0, "1", None):
        with pytest.raises(ParseError, match="version"):
            parse_reconstruction(json.dumps(dict(MINIMAL, version=version)))


def test_huge_orientation_is_normalized():
    # Its squared norm overflowed, and the camera parsed with a zero orientation.
    doc = dict(MINIMAL, cameras=[dict(MINIMAL["cameras"][0], orientation=[1e200, 0, 0, 0])])
    cam, warnings = parse_reconstruction(json.dumps(doc))
    assert warnings == []
    assert cam.orientations.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_near_unit_direction_warns_and_renormalizes():
    doc = dict(MINIMAL, observations=[{"camera_id": "cam0", "point_id": 0,
                                       "direction": [0.0, 0.0, 1.0 + 5e-8]}])
    cam, warnings = parse_reconstruction(json.dumps(doc))
    assert len(warnings) == 1
    assert np.isclose(np.linalg.norm(cam.directions[0]), 1.0, atol=1e-12)


def test_far_from_unit_direction_fails():
    doc = dict(MINIMAL, observations=[{"camera_id": "cam0", "point_id": 0,
                                       "direction": [0.0, 0.0, 1.1]}])
    with pytest.raises(ParseError):
        parse_reconstruction(json.dumps(doc))


def test_roundtrip_city_subset(tmp_path):
    cams, _ = generate_city(2, 3, 0.3, 0.5, seed=9)
    path = tmp_path / "subset.json"
    save_reconstruction(cams[0], str(path))
    loaded = load_reconstruction(str(path))
    assert reconstruction_to_json(loaded) == reconstruction_to_json(cams[0])
    # field-for-field equality, not just equal serialization
    for field in dataclasses.fields(loaded):
        a, b = getattr(cams[0], field.name), getattr(loaded, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name
    assert cams[0].camera_ids.tolist() == loaded.camera_ids.tolist()
    assert cams[0].point_ids.tolist() == loaded.point_ids.tolist()


def test_correspondence_roundtrip(tmp_path):
    corrs = Correspondences([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]],
                            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                            [[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]], [0.25, np.nan], [7, None])
    text = correspondences_to_json(corrs)
    assert "score" not in json.loads(text)["correspondences"][1]
    back = parse_correspondences(text)
    assert len(back) == 2
    assert back.scores[0] == 0.25 and back.point_ids.tolist() == [7, None]
    assert np.isnan(back.scores[1])
    for field in ("origins", "directions", "points"):
        assert np.array_equal(getattr(back, field), getattr(corrs, field))
    path = tmp_path / "c.json"
    path.write_text(text)
    assert len(load_correspondences(str(path))) == 2
    # a file without scores or ids reads back without them
    plain = parse_correspondences(correspondences_to_json(Correspondences(
        corrs.origins, corrs.directions, corrs.points)))
    assert plain.scores is None and plain.point_ids is None


def _corr_doc(**fields):
    row = {"origin": [0, 0, 0], "direction": [0, 0, 1], "point": [1, 2, 3]}
    return json.dumps({"correspondences": [row, dict(row, **fields)]})


def test_correspondence_parse_errors():
    with pytest.raises(ParseError):
        parse_correspondences("{}")
    with pytest.raises(ParseError) as err:
        parse_correspondences(_corr_doc(direction=[0, 0, 0]))
    assert err.value.location == "correspondences[1].direction"


@pytest.mark.parametrize("field,bad", [
    ("score", "x"), ("score", "0.5"), ("score", True), ("score", 1.5), ("score", -0.5),
    ("score", [0.5]), ("point_id", [1]), ("point_id", {"id": 1}),
    ("direction", [0, 0, 5]), ("direction", [0, 0, 1 + 2e-6]), ("direction", [0.6, 0.0, 0.79]),
])
def test_correspondence_field_is_checked(field, bad):
    with pytest.raises(ParseError) as err:
        parse_correspondences(_corr_doc(**{field: bad}))
    assert err.value.location == f"correspondences[1].{field}"


def test_correspondence_direction_within_tolerance_is_renormalized():
    corrs = parse_correspondences(_corr_doc(direction=[0, 0, 1 + 5e-7], score=1, point_id="p"))
    assert corrs.directions[1].tolist() == [0.0, 0.0, 1.0]
    assert np.isnan(corrs.scores[0]) and corrs.scores[1] == 1.0
    assert corrs.point_ids.tolist() == [None, "p"]


# Column and row paths.  Each block is checked as whole columns, and its row
# loop runs only when a column test fails, to name the fault.  Forcing the row
# loop everywhere (no block passes) must give the same error or the same arrays.
RECONSTRUCTION = {
    "version": 1,
    "cameras": [{"id": "c0", "center": [0.0, 0.0, 0.0], "orientation": [1, 0, 0, 0]},
                {"id": 7, "center": [1.0, -2, 0.5], "orientation": [0.5, 0.5, -0.5, 0.5]}],
    "points": [{"id": 0, "xyz": [0.0, 0.0, 3.0]}, {"id": "p", "xyz": [1, 2, 3]},
               {"id": None, "xyz": [-1.0, 0.25, 4.0]}],
    "observations": [{"camera_id": "c0", "point_id": 0, "direction": [0.0, 0.0, 1.0]},
                     {"camera_id": 7, "point_id": "p", "direction": [0, 1, 0]},
                     {"camera_id": 7, "point_id": None, "direction": [0.6, 0.0, 0.8]}],
}
CORRESPONDENCES = {"correspondences": [
    {"origin": [0, 0, 0], "direction": [0.0, 0.0, 1.0], "point": [1.0, 2.0, 3.0]},
    {"origin": [0.5, 0, 0], "direction": [0, 1, 0], "point": [1, 2, 3], "score": 0.5},
    {"origin": [0, 0, 1], "direction": [0.6, 0.0, 0.8], "point": [0, 0, 2], "point_id": "q"},
]}


def _edited(doc, path, value):
    """A copy of doc with the entry at path set to value (popped when value is _DROP)."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    return json.dumps(doc)


_DROP = object()
FAULTS = [
    # missing key
    ("r", ("cameras", 1, "center"), _DROP), ("r", ("points", 2, "id"), _DROP),
    ("r", ("observations", 1, "camera_id"), _DROP), ("r", ("observations", 2, "direction"), _DROP),
    ("c", ("correspondences", 1, "origin"), _DROP), ("c", ("correspondences", 2, "point"), _DROP),
    # a row that is not an object, a block that is not a list
    ("r", ("cameras", 1), [1, 2]), ("r", ("points", 0), "p"), ("r", ("observations", 2), None),
    ("c", ("correspondences", 0), 3), ("r", ("points",), "abc"), ("r", ("cameras",), {}),
    ("r", ("observations",), 5), ("c", ("correspondences",), None),
    # a value that is not a list, or has the wrong length
    ("r", ("cameras", 0, "center"), "0,0,0"), ("r", ("points", 1, "xyz"), {"x": 1}),
    ("r", ("observations", 0, "direction"), 1.0), ("c", ("correspondences", 1, "direction"), None),
    ("r", ("cameras", 1, "orientation"), [1, 0, 0]), ("r", ("points", 0, "xyz"), [0, 0, 3, 1]),
    ("r", ("observations", 1, "direction"), [0, 1]), ("c", ("correspondences", 2, "origin"), []),
    # a true, string, nested, NaN, Infinity or out-of-range component
    ("r", ("cameras", 0, "center"), [True, 0, 0]),
    ("r", ("observations", 2, "direction"), [0, 0, True]),
    ("c", ("correspondences", 0, "origin"), [0, False, 0]),
    ("r", ("points", 1, "xyz"), ["1", 2, 3]),
    ("c", ("correspondences", 1, "point"), [1, 2, "3"]), ("r", ("points", 1, "xyz"), [[1], 2, 3]),
    ("r", ("cameras", 1, "center"), [math.nan, 0, 0]),
    ("r", ("points", 2, "xyz"), [0, math.inf, 0]),
    ("r", ("observations", 0, "direction"), [0, 0, -math.inf]),
    ("c", ("correspondences", 2, "direction"), [math.nan, 0, 1]),
    ("r", ("cameras", 1, "orientation"), [10 ** 400, 0, 0, 0]),
    # a list or object id
    ("r", ("cameras", 0, "id"), ["c0"]), ("r", ("points", 1, "id"), {"p": 1}),
    ("r", ("observations", 1, "point_id"), ["p"]), ("r", ("observations", 0, "camera_id"), {}),
    ("c", ("correspondences", 2, "point_id"), [1]),
    ("c", ("correspondences", 0, "point_id"), {"q": 1}),
    # a duplicate id, or an unknown one
    ("r", ("cameras", 1, "id"), "c0"), ("r", ("points", 2, "id"), 0),
    ("r", ("points", 1, "id"), 0.0),
    ("r", ("observations", 1, "camera_id"), "ghost"), ("r", ("observations", 2, "point_id"), 99),
    # a direction norm off by more than 1e-6, a score outside [0, 1] or not a number
    ("r", ("observations", 1, "direction"), [0, 1 + 2e-6, 0]),
    ("c", ("correspondences", 0, "direction"), [0, 0, 1.1]),
    ("c", ("correspondences", 1, "score"), 1.5), ("c", ("correspondences", 1, "score"), -0.25),
    ("c", ("correspondences", 1, "score"), True), ("c", ("correspondences", 1, "score"), "0.5"),
    ("c", ("correspondences", 1, "score"), math.nan), ("c", ("correspondences", 1, "score"), [0.5]),
    # a zero orientation
    ("r", ("cameras", 1, "orientation"), [0, 0, 0.0, 0]),
]


def _text(kind, path, value):
    return _edited(RECONSTRUCTION if kind == "r" else CORRESPONDENCES, path, value)


def _outcome(kind, text):
    """What parsing gives: the arrays and warnings, or the error's full identity."""
    parse = parse_reconstruction if kind == "r" else parse_correspondences
    try:
        result = parse(text)
    except Exception as e:   # noqa: BLE001 -- any error, uncaught ones too, must agree
        return (type(e), str(e), getattr(e, "location", None), getattr(e, "offending_id", None))
    obj, warnings = result if kind == "r" else (result, [])
    arrays = []
    for field in dataclasses.fields(obj):
        a = getattr(obj, field.name)
        arrays.append(None if a is None else (a.dtype.str, a.shape, a.tobytes() if a.dtype != object
                                              else repr(a.tolist())))
    return arrays, warnings


def _both_paths(monkeypatch, kind, text):
    columns = _outcome(kind, text)
    with monkeypatch.context() as m:
        m.setattr(raypose.io, "_columns", lambda *args: None)
        rows = _outcome(kind, text)
    return columns, rows


@pytest.mark.parametrize("kind,path,value", FAULTS)
def test_single_fault_raises_as_row_loop(monkeypatch, kind, path, value):
    columns, rows = _both_paths(monkeypatch, kind, _text(kind, path, value))
    assert isinstance(rows[0], type) and columns == rows


@pytest.mark.parametrize("kind,path,value", FAULTS)
def test_every_fault_raises_a_raypose_error(kind, path, value):
    # A block that is not a list, or an int beyond the float range, used to
    # escape as TypeError or OverflowError, which the CLI does not catch.
    # The message starts with the faulty block's name.
    parse = parse_reconstruction if kind == "r" else parse_correspondences
    with pytest.raises(RayposeError) as err:
        parse(_text(kind, path, value))
    assert str(err.value).startswith(path[0])


@pytest.mark.parametrize("edits,error", [
    # norms are checked after the row loop, a component's type before its value
    ([(("observations", 1, "camera_id"), "ghost"), (("observations", 2, "direction"), [0, 0, "1"]),
      (("observations", 0, "direction"), [0, 0, 2.0])], IntegrityError),
    ([(("cameras", 0, "center"), [math.nan, 0, 0]), (("cameras", 1, "center"), [10 ** 400, 0, 0])],
     ParseError),
    # a zero orientation is checked after the observations
    ([(("cameras", 0, "orientation"), [0, 0, 0, 0]), (("observations", 1, "camera_id"), "ghost")],
     IntegrityError),
])
def test_first_fault_in_row_order_is_named(monkeypatch, edits, error):
    doc = RECONSTRUCTION
    for path, value in edits:
        doc = json.loads(_edited(doc, path, value))
    columns, rows = _both_paths(monkeypatch, "r", json.dumps(doc))
    assert columns == rows and rows[0] is error


@pytest.mark.parametrize("kind,path,value", [
    ("r", ("version",), 1), ("r", ("observations",), []),
    ("r", ("observations", 0, "direction"), [0, 0, 1 + 5e-7]),
    ("r", ("observations", 2, "direction"), [0.6, 0, 0.8 - 4e-7]),
    ("r", ("observations", 1, "camera_id"), 7.0), ("r", ("observations", 0, "point_id"), False),
    ("r", ("cameras", 1, "orientation"), [-1, 0, 0, 2 ** 70]),
    ("c", ("correspondences", 0, "score"), None), ("c", ("correspondences", 1, "score"), 1),
    ("c", ("correspondences", 0, "direction"), [0, 0, 1 - 9e-7]),
    ("c", ("correspondences", 2, "point_id"), None), ("c", ("correspondences",), []),
])
def test_valid_document_parses_as_row_loop(monkeypatch, kind, path, value):
    columns, rows = _both_paths(monkeypatch, kind, _text(kind, path, value))
    assert isinstance(columns[0], list) and columns == rows


def test_city_and_scene_documents_parse_as_row_loop(monkeypatch):
    cams, _ = generate_city(3, 6, 0.3, 0.5, seed=0)
    for text in [json.dumps({"version": 1})] + [reconstruction_to_json(cam) for cam in cams]:
        columns, rows = _both_paths(monkeypatch, "r", text)
        assert isinstance(columns[0], list) and columns == rows
    cam = cams[0]
    corrs = Correspondences(cam.centers[cam.obs_camera], cam.directions, cam.points[cam.obs_point],
                            np.linspace(0, 1, len(cam.directions)), cam.obs_point.tolist())
    columns, rows = _both_paths(monkeypatch, "c", correspondences_to_json(corrs))
    assert columns == rows
