import json

import pytest

from frobtilt.catalog import (
    FanFileError,
    builtin,
    catalog_names,
    entries,
    entry_to_dict,
    load,
    resolve,
    save,
)
from frobtilt.cones import bu_set, is_nef, nef_fano_status
from frobtilt.fan import canonical_divisor, validate
from frobtilt.frobenius import frob_set, pushforward_summands
from frobtilt.fan import TorusDivisor
from frobtilt.cones import FANO, NEF_FANO

# per-entry expectations, derived from the two independent frob routes
# (chamber enumeration and the ell sweep) plus the nef criterion
EXPECTED_BU_SIZE = {
    "P1": 2,
    "P2": 3,
    "P3": 4,
    "P4": 5,
    "P1xP1": 4,
    "P1xP2": 6,
    "P1xP1xP1": 8,
    "P2xP2": 9,
    "F1": 4,
    "F2": 4,
    "F3": 4,
    "dP7": 5,
    "dP6": 6,
    "BlptP3": 6,
}

EXPECTED_FROB_SIZE = {
    "P1": 2,
    "P2": 3,
    "P3": 4,
    "P4": 5,
    "P1xP1": 4,
    "P1xP2": 6,
    "P1xP1xP1": 8,
    "P2xP2": 9,
    "F1": 4,
    "F2": 5,
    "F3": 6,
    "dP7": 5,
    "dP6": 6,
    "BlptP3": 6,
}


def test_builtin_names_cover_catalog():
    names = catalog_names()
    for required in ("P1", "P2", "P3", "P4", "P1xP1", "F1", "F2", "F3", "dP7", "dP6", "BlptP3"):
        assert required in names


def test_every_builtin_validates():
    for e in entries():
        assert validate(e.fan).ok, e.name


def test_p2_builtin_is_the_three_ray_fan():
    f = builtin("P2").fan
    assert f.n_rays == 3 and f.dim == 2


def test_dp6_shape():
    f = builtin("dP6").fan
    assert f.n_rays == 6
    assert len(f.max_cones) == 6
    assert nef_fano_status(f) == FANO


def test_dp7_shape_and_flag():
    f = builtin("dP7").fan
    assert f.n_rays == 5
    assert nef_fano_status(f) == FANO


def test_f2_flag_nef_fano():
    assert builtin("F2").expected == NEF_FANO


def test_flags_match_anticanonical_verdicts():
    for e in entries():
        v = is_nef(-canonical_divisor(e.fan))
        if e.expected == FANO:
            assert v.is_ample
        elif e.expected == NEF_FANO:
            assert v.is_nef and not v.is_ample


@pytest.mark.parametrize("name", catalog_names())
def test_bu_size_equals_number_of_max_cones(name):
    fan = builtin(name).fan
    bu = bu_set(fan)
    assert len(bu) == EXPECTED_BU_SIZE[name]
    assert len(bu) == len(fan.max_cones)


@pytest.mark.parametrize("name", catalog_names())
def test_frob_size_frozen(name):
    assert len(frob_set(builtin(name).fan)) == EXPECTED_FROB_SIZE[name]


# --- fan files -----------------------------------------------------------------


def test_round_trip_p2(tmp_path):
    p = tmp_path / "p2.json"
    save(builtin("P2"), p)
    loaded = load(p)
    assert loaded.fan == builtin("P2").fan
    assert loaded.name == "P2"
    # byte-level round trip of the normalized form
    q = tmp_path / "p2_again.json"
    save(loaded, q)
    assert p.read_bytes() == q.read_bytes()


def test_round_trip_all_builtins(tmp_path):
    for e in entries():
        p = tmp_path / f"{e.name}.json"
        save(e, p)
        assert load(p).fan == e.fan


def test_malformed_cone_index(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "name": "bad",
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 7], [2, 0]],
    }))
    with pytest.raises(FanFileError) as err:
        load(p)
    assert "max_cones[1]" in str(err.value)


P1_FILE = {"name": "P1", "dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}


@pytest.mark.parametrize("field, patch", [
    ("dim", {"dim": True, "rays": [[True], [-1]]}),
    ("rays[0]", {"rays": [[True], [-1]]}),
    ("max_cones[0]", {"max_cones": [[False], [1]]}),
], ids=["dim", "ray", "cone-index"])
def test_json_booleans_are_not_integers(tmp_path, field, patch):
    p = tmp_path / "bool.json"
    p.write_text(json.dumps({**P1_FILE, **patch}))
    with pytest.raises(FanFileError) as err:
        load(p)
    assert f"field {field!r}" in str(err.value)


def test_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(FanFileError):
        load(p)


def test_missing_field(tmp_path):
    p = tmp_path / "missing.json"
    p.write_text(json.dumps({"name": "x", "dim": 2, "rays": [[1, 0]]}))
    with pytest.raises(FanFileError) as err:
        load(p)
    assert "max_cones" in str(err.value)


def test_loaded_fano_file_validates_and_runs(tmp_path):
    # ingest a user file (the blowup of P3), then run the validation suite
    p = tmp_path / "user_fano.json"
    save(builtin("BlptP3"), p)
    e = load(p)
    assert e.provenance == "user-file"
    rep = validate(e.fan)
    assert rep.ok and rep.smooth and rep.complete
    counts = pushforward_summands(e.fan, TorusDivisor(e.fan, (0,) * e.fan.n_rays), 2)
    assert sum(counts.values()) == 2 ** e.fan.dim


def test_resolve_builtin_and_path(tmp_path):
    assert resolve("P2").fan == builtin("P2").fan
    p = tmp_path / "f.json"
    save(builtin("F2"), p)
    assert resolve(str(p)).fan == builtin("F2").fan
    with pytest.raises(KeyError):
        resolve("definitely_not_a_fan")


def test_unknown_builtin_lists_names():
    with pytest.raises(KeyError) as err:
        builtin("Px")
    assert "P1xP1" in str(err.value)


def test_entry_dict_is_normalized():
    d = entry_to_dict(builtin("P1xP1"))
    assert d["max_cones"] == sorted(d["max_cones"])
    assert all(c == sorted(c) for c in d["max_cones"])
