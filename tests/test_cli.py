import argparse
import importlib
import json
import time

import pytest

from frobtilt import cli
from frobtilt.catalog import CatalogEntry, builtin, save
from frobtilt.cli import main
from frobtilt.fan import Fan, projective_space, star_subdivision


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- basic command surface ---------------------------------------------------


def test_describe_lists_ray_order(capsys):
    code, out, _ = run(capsys, "describe", "P2")
    assert code == 0
    data = json.loads(out)
    assert data["rays"] == [[1, 0], [0, 1], [-1, -1]]
    assert data["valid"] and data["smooth"] and data["complete"]
    assert data["nef_fano_status"] == "fano"


def test_main_builds_the_parser_once(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run(capsys, "describe", "P1")[0] == 0
    assert run(capsys, "cohom", "P2", "--divisor", "-3,0,0")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_frob_set_p1_two_classes(capsys):
    code, out, _ = run(capsys, "frob-set", "P1")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 2
    assert [c["coords"] for c in data["classes"]] == [[-1], [0]]


def test_frob_with_ell(capsys):
    code, out, _ = run(capsys, "frob", "P2", "--ell", "3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 9
    # by hand: b3 = floor(-(u1+u2)/3) over u in {0,1,2}^2 gives sums
    # 0 once, 1..3 seven times, 4 once
    assert {tuple(s["coords"]): s["multiplicity"] for s in data["summands"]} == {
        (0,): 1,
        (-1,): 7,
        (-2,): 1,
    }


def test_stabilize(capsys):
    code, out, _ = run(capsys, "stabilize", "P2")
    assert code == 0
    assert json.loads(out)["minimal_stabilizing_ell"] == 3


def test_nef_command(capsys):
    code, out, _ = run(capsys, "nef", "P1", "--divisor", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["is_nef"] and data["is_ample"]


def test_cohom_serre_example(capsys):
    code, out, _ = run(capsys, "cohom", "P2", "--divisor", "-3,0,0")
    assert code == 0
    assert json.loads(out)["h"] == [0, 0, 1]


def test_cohom_with_patterns(capsys):
    code, out, _ = run(capsys, "cohom", "P1", "--divisor", "-2,0", "--patterns")
    assert code == 0
    data = json.loads(out)
    assert data["h"] == [0, 1]
    assert data["patterns"] == [
        {"neg_rays": [0, 1], "point_count": 1, "reduced_ranks": [0, 1]}
    ]


def test_bu_command(capsys):
    code, out, _ = run(capsys, "bu", "P1xP1")
    assert code == 0
    assert json.loads(out)["size"] == 4


def test_tilting_command(capsys):
    code, out, _ = run(capsys, "tilting", "P2")
    assert code == 0
    data = json.loads(out)
    assert data["ext_vanishing"] is True
    assert data["gram_det"] == 1
    assert data["triangular_order"] is not None


def test_orlov_verified(capsys):
    code, out, _ = run(capsys, "orlov", "P2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "VERIFIED_MODULO_FULLNESS"
    assert data["gen_time_upper"] == 2


# --- exit code contract ----------------------------------------------------------


def test_orlov_f3_exits_one_but_reports(capsys):
    code, out, _ = run(capsys, "orlov", "F3")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "NOT_APPLICABLE"
    assert data["reason"] == "-K not nef"
    assert data["gen_time_upper"] == data["dim"] + data["m0"]


def test_unknown_target_exits_two(capsys):
    code, out, err = run(capsys, "describe", "NotAFan")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_bad_divisor_length_exits_two(capsys):
    code, _, err = run(capsys, "nef", "P2", "--divisor", "1,2")
    assert code == 2
    assert "3 coefficients" in err


def test_bad_divisor_format_exits_two(capsys):
    code, _, err = run(capsys, "cohom", "P2", "--divisor", "a,b,c")
    assert code == 2
    assert "error:" in err


def test_bad_ell_exits_two(capsys):
    code, _, err = run(capsys, "frob", "P1", "--ell", "0")
    assert code == 2


@pytest.mark.parametrize("target, ell", [("P1", "1000001"), ("P4", "32")])
def test_frob_refuses_more_than_a_million_residues(capsys, target, ell):
    start = time.perf_counter()
    code, out, err = run(capsys, "frob", target, "--ell", ell)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ell^dim" in err


def test_frob_residue_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("frobtilt.frobenius"), "MAX_FROB_RESIDUES", 9)
    assert run(capsys, "frob", "P2", "--ell", "3")[0] == 0
    assert run(capsys, "frob", "P2", "--ell", "4")[0] == 2


def _projective_space_file(tmp_path, n):
    path = tmp_path / f"P{n}.json"
    save(CatalogEntry(f"P{n}", projective_space(n), "projective space"), path)
    return str(path)


@pytest.mark.parametrize("command, ell", [("frob-set", 9), ("stabilize", 6)])
def test_ell_sweep_refuses_more_than_a_million_residues(tmp_path, capsys, command, ell):
    # frob-set checks P8's largest chamber ell, 9, before any walk;
    # stabilize walks ell = 1 ... 5 and refuses 6^8 residues
    path = _projective_space_file(tmp_path, 8)
    start = time.perf_counter()
    code, out, err = run(capsys, command, path)
    if command == "frob-set":
        assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: ell = {ell} walks ") and err.count("\n") == 1
    assert "ell^dim" in err


def test_ell_sweep_allows_p6(tmp_path, capsys):
    # 7^6 = 117,649 residues at P6's largest chamber ell
    path = _projective_space_file(tmp_path, 6)
    code, out, _ = run(capsys, "frob-set", path)
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 7
    assert max(c["min_witness_ell"] for c in data["classes"]) == 7
    code, out, _ = run(capsys, "stabilize", path)
    assert code == 0 and json.loads(out)["minimal_stabilizing_ell"] == 7


def _p2_chain_file(tmp_path, n_rays):
    """A fan file of a chain of star subdivisions of P2 with n_rays rays."""
    fan = builtin("P2").fan
    while fan.n_rays < n_rays:
        fan = star_subdivision(fan, fan.max_cones[0])
    path = tmp_path / f"chain{n_rays}.json"
    save(CatalogEntry(f"P2 chain {n_rays}", fan, "star subdivisions of P2"), path)
    return str(path)


def test_cohomology_refuses_more_than_sixteen_rays(tmp_path, capsys):
    path = _p2_chain_file(tmp_path, 17)
    assert run(capsys, "describe", path)[0] == 0
    start = time.perf_counter()
    code, out, err = run(capsys, "cohom", path, "--divisor", ",".join("0" * 17))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "17 rays" in err and "at most 16" in err


@pytest.mark.parametrize("command", ["tilting", "orlov", "batch"])
def test_ray_bound_checked_before_the_chamber_walk(tmp_path, capsys, command):
    path = _p2_chain_file(tmp_path, 17)
    if command == "batch":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([path]))
        argv = ["batch", "--manifest", str(manifest)]
    else:
        argv = [command, path]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "17 rays" in err and "at most 16" in err


def test_ray_bound_is_inclusive(tmp_path, capsys, monkeypatch):
    # the package's name "cohomology" is the function, not the module
    monkeypatch.setattr(importlib.import_module("frobtilt.cohomology"), "MAX_PATTERN_RAYS", 4)
    assert run(capsys, "cohom", _p2_chain_file(tmp_path, 4), "--divisor", "0,0,0,0")[0] == 0
    assert run(capsys, "cohom", _p2_chain_file(tmp_path, 5), "--divisor", "0,0,0,0,0")[0] == 2


def test_malformed_fan_file_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "x", "dim": 2, "rays": [[1, 0]], "max_cones": [[0, 9]]}')
    code, _, err = run(capsys, "describe", str(p))
    assert code == 2
    assert "max_cones[0]" in err


@pytest.mark.parametrize("case", ["directory", "missing-manifest", "non-utf8"])
def test_unreadable_input_exits_two_with_its_reason(tmp_path, capsys, case):
    if case == "directory":
        argv, expected = ["describe", str(tmp_path)], ["Is a directory", str(tmp_path)]
    elif case == "missing-manifest":
        missing = tmp_path / "missing.json"
        argv, expected = ["batch", "--manifest", str(missing)], ["No such file", str(missing)]
    else:
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"name": "caf\xe9"}')
        argv, expected = ["describe", str(p)], ["not UTF-8", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    for text in expected:
        assert text in err


@pytest.mark.parametrize("content, reason", [
    (b"{not json", "not valid JSON"), (b'["caf\xe9"]', "not UTF-8"),
], ids=["invalid-json", "non-utf8"])
def test_unreadable_manifest_exits_two_naming_it(tmp_path, capsys, content, reason):
    manifest = tmp_path / "m.json"
    manifest.write_bytes(content)
    code, out, err = run(capsys, "batch", "--manifest", str(manifest))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {manifest}: {reason}")


def test_invalid_fan_refused_by_orlov(tmp_path, capsys):
    p = tmp_path / "nonsmooth.json"
    p.write_text(json.dumps({
        "name": "nonsmooth",
        "dim": 2,
        "rays": [[1, 0], [1, 2], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    }))
    code, _, err = run(capsys, "orlov", str(p))
    assert code == 2
    assert "determinant" in err


def test_describe_reports_invalid_fan_without_failing(tmp_path, capsys):
    p = tmp_path / "nonsmooth.json"
    p.write_text(json.dumps({
        "name": "nonsmooth",
        "dim": 2,
        "rays": [[1, 0], [1, 2], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    }))
    code, out, _ = run(capsys, "describe", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is False
    assert data["failures"]


# rays winding twice around the origin, cyclic cones: every cone is
# unimodular, every ridge paired and the dual graph connected, but the
# cones cover the plane twice
WINDING_TWO = {
    "name": "winding2",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -2], [1, 1], [-1, 0], [-3, -1], [-2, -1]],
    "max_cones": [[i, (i + 1) % 7] for i in range(7)],
}


def _winding_two_argv(tmp_path, command):
    p = tmp_path / "winding2.json"
    p.write_text(json.dumps(WINDING_TWO))
    if command == "batch":
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([str(p)]))
        return ["batch", "--manifest", str(manifest)]
    if command in ("cohom", "nef"):
        return [command, str(p), "--divisor", "-1,-1,-1,-1,-1,-1,-1"]
    return [command, str(p)]


def test_winding_two_fan_described_as_invalid(tmp_path, capsys):
    code, out, _ = run(capsys, *_winding_two_argv(tmp_path, "describe"))
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is False and data["complete"] is False
    assert any("degree 2" in msg for msg in data["failures"])


@pytest.mark.parametrize("command", [
    "frob", "frob-set", "stabilize", "nef", "cohom", "bu", "tilting", "orlov", "batch",
])
def test_winding_two_fan_refused(tmp_path, capsys, command):
    code, out, err = run(capsys, *_winding_two_argv(tmp_path, command))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "degree 2" in err


@pytest.mark.parametrize("command", ["cohom", "tilting", "orlov", "batch"])
def test_infinite_cohomology_exits_two(tmp_path, capsys, monkeypatch, command):
    # validation now refuses this fan; bypass it to reach the unbounded guard
    monkeypatch.setattr(Fan, "require_valid", lambda self: None)
    code, out, err = run(capsys, *_winding_two_argv(tmp_path, command))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unbounded" in err


# --- batch -------------------------------------------------------------------------


def test_batch_roll_up_and_exit_codes(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["P1", "P2", "F3"]))
    code, out, _ = run(capsys, "batch", "--manifest", str(manifest))
    assert code == 1  # F3 is not verified
    data = json.loads(out)
    assert data["summary"] == {
        "verified": 2,
        "hypothesis_failed": 0,
        "not_applicable": 1,
        "total": 3,
    }
    assert [e["name"] for e in data["entries"]] == ["P1", "P2", "F3"]


def test_batch_all_verified_exits_zero(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["P1", "P1xP1"]))
    code, out, _ = run(capsys, "batch", "--manifest", str(manifest))
    assert code == 0


def test_batch_accepts_fan_files(tmp_path, capsys):
    fanfile = tmp_path / "f2.json"
    save(builtin("F2"), fanfile)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["P1", str(fanfile)]))
    code, out, _ = run(capsys, "batch", "--manifest", str(manifest))
    assert code == 0
    data = json.loads(out)
    assert data["entries"][1]["name"] == "F2"


def test_batch_parallel_matches_serial(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["P1", "P2", "F2"]))
    code1, out1, _ = run(capsys, "batch", "--manifest", str(manifest))
    code2, out2, _ = run(capsys, "batch", "--manifest", str(manifest), "--jobs", "2")
    assert (code1, out1) == (code2, out2)


def test_batch_worker_count_clamped(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._worker_count(1, 16) == 1
    assert cli._worker_count(2, 16) == 2
    assert cli._worker_count(10_000, 16) == 2
    assert cli._worker_count(10_000, 1) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._worker_count(10_000, 16) == 16
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(4, 16) == 1


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_batch_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["P1"]))
    code, out, err = run(capsys, "batch", "--manifest", str(manifest), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == "error: --jobs must be >= 1\n"


# --- determinism and formats ----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("orlov", "P2"),
    ("frob-set", "F2"),
    ("describe", "dP6"),
    ("tilting", "P1xP1"),
])
def test_byte_identical_reruns(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2
    assert out1.encode() == out2.encode()


@pytest.mark.parametrize("fmt", ["json", "md", "csv"])
def test_formats_render(capsys, fmt):
    code, out, _ = run(capsys, "orlov", "P1", "--format", fmt)
    assert code == 0
    assert out
    if fmt == "md":
        assert out.startswith("|")
    if fmt == "csv":
        assert out.splitlines()[0].startswith("field")


def test_csv_frob_set(capsys):
    code, out, _ = run(capsys, "frob-set", "P2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,min_witness_ell"
    assert len(lines) == 4
