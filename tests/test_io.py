import dataclasses
import json

import numpy as np
import pytest

from raypose import generate_city
from raypose.errors import IntegrityError, ParseError
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
    with pytest.raises(ParseError):
        parse_reconstruction(json.dumps(dict(MINIMAL, version=2)))


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
