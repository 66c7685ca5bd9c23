import argparse
import importlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frobtilt import cli
from frobtilt.catalog import CatalogEntry, builtin, catalog_names, load, save
from frobtilt.cli import main
from frobtilt.fan import Fan, product, projective_space, star_subdivision


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


def test_orlov_fails_when_bu_cannot_have_the_k0_rank(tmp_path, capsys):
    # a P2-bundle over P2 with 9 maximal cones but 8 anti-nef frob classes:
    # every other hypothesis holds, yet 8 line bundles cannot generate K_0
    rays = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, 0, 0), (1, 1, -1, -1))
    cones = [a + b for a in itertools.combinations((0, 1, 4), 2)
             for b in itertools.combinations((2, 3, 5), 2)]
    path = tmp_path / "bundle.json"
    save(CatalogEntry("P2-bundle", Fan(4, rays, cones), "P2-bundle over P2"), path)
    code, out, _ = run(capsys, "orlov", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "HYPOTHESIS_FAILED"
    assert data["reason"] == "K_0 rank: 8 summands for 9 maximal cones"
    assert (data["nef_fano_status"], data["ext_vanishing"], data["m0"]) == ("fano", True, 0)
    assert (data["n_frob"], data["n_bu"], data["gram_unimodular"]) == (10, 8, True)
    assert not data["k_rank_match"]


@pytest.mark.parametrize("argv", [
    ["describe", "dP6"], ["frob", "dP6", "--ell", "3"], ["frob-set", "dP6"],
    ["cohom", "P2", "--divisor", "-3,0,0"], ["bu", "F2"], ["tilting", "dP6"], ["orlov", "dP6"],
])
def test_json_output_serializes_only_the_payload(argv, capsys, monkeypatch):
    # the md/csv table rows, one json.dumps per cell, are built only for md and csv
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    main(argv)
    assert len(calls) == 1
    calls.clear()
    main([*argv, "--format", "md"])
    assert len(calls) > 1 or argv[0] == "cohom"
    capsys.readouterr()


TARGET_ARGS = {
    "describe": [], "frob": ["--ell", "3"], "frob-set": [], "stabilize": [],
    "nef": ["--divisor", "1,1,1"], "cohom": ["--divisor", "-3,0,0"],
    "bu": [], "tilting": [], "orlov": [],
}


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_verbose_names_the_target_on_stderr_alone(capsys, command):
    argv = [command, "P2", *TARGET_ARGS[command]]
    code, out, err = run(capsys, *argv)
    assert err == ""
    assert run(capsys, *argv, "-v") == (code, out, f"resolved P2 ({builtin('P2').provenance})\n")


def test_batch_takes_no_verbose_flag(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["P1"]))
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--manifest", str(manifest), "-v"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("command", ["frob-set", "stabilize"])
def test_ell_searches_succeed_beyond_a_million_residues(tmp_path, capsys, command, n):
    # P8's stabilizing ell, 9, has 9^8 residues; its cells are decided instead
    path = _projective_space_file(tmp_path, n)
    start = time.perf_counter()
    code, out, _ = run(capsys, command, path)
    assert time.perf_counter() - start < 1
    assert code == 0
    data = json.loads(out)
    if command == "stabilize":
        assert data["minimal_stabilizing_ell"] == n + 1
    else:
        # O(-k) first splits off at ell = n // (n + 1 - k) + 1, O itself at ell = 1
        assert {c["coords"][0]: c["min_witness_ell"] for c in data["classes"]} == {
            -k: n // (n + 1 - k) + 1 if k else 1 for k in range(n + 1)
        }


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


def test_fan_whose_first_independent_rays_are_no_basis_verifies(tmp_path, capsys):
    # rays 0 and 1 span a sublattice of index 2; the Picard basis is rays 0 and 2
    fan = Fan(2, ((1, 0), (1, 2), (1, 1), (0, 1), (-1, -1)),
              ((0, 2), (2, 1), (1, 3), (3, 4), (4, 0)))
    path = tmp_path / "fan5.json"
    save(CatalogEntry("fan5", fan, "smooth complete surface"), path)
    code, out, _ = run(capsys, "describe", str(path))
    assert code == 0 and json.loads(out)["picard_rank"] == 3
    code, out, _ = run(capsys, "orlov", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "VERIFIED_MODULO_FULLNESS"
    assert (data["n_bu"], data["m0"]) == (5, 0)


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


@pytest.mark.parametrize("command", ["tilting", "orlov", "cohom"])
def test_ray_bound_applies_to_each_factor_of_a_product(tmp_path, capsys, monkeypatch, command):
    # dP6 x P2 has 9 rays but factors of 6 and 3, whose ray subsets alone are walked;
    # the 7-ray P2 chain x P1 has 9 rays too, but a factor of 7
    monkeypatch.setattr(importlib.import_module("frobtilt.cohomology"), "MAX_PATTERN_RAYS", 6)

    def argv(path, n_rays):
        return [command, str(path)] + (["--divisor", ",".join(["0"] * n_rays)]
                                       if command == "cohom" else [])

    path = tmp_path / "dP6xP2.json"
    save(CatalogEntry("dP6xP2", product(builtin("dP6").fan, builtin("P2").fan), "product"), path)
    code, out, _ = run(capsys, *argv(path, 9))
    assert code == 0 and out
    chain = _p2_chain_file(tmp_path, 7)
    chain_x_p1 = tmp_path / "chain7xP1.json"
    save(CatalogEntry("chain7xP1", product(load(chain).fan, builtin("P1").fan), "product"),
         chain_x_p1)
    for path, n_rays in ((chain, 7), (chain_x_p1, 9)):
        code, out, err = run(capsys, *argv(path, n_rays))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "7 rays" in err and "at most 6" in err


def test_cohom_patterns_on_a_product_beyond_the_ray_bound(tmp_path, capsys):
    # dP6^3 has 18 rays; its patterns are joins of its factors' 6-ray patterns
    dP6 = builtin("dP6").fan
    path = tmp_path / "dP6cubed.json"
    save(CatalogEntry("dP6^3", product(product(dP6, dP6), dP6), "product"), path)
    code, out, _ = run(capsys, "cohom", str(path), "--divisor", ",".join(["-1"] * 18),
                       "--patterns")
    assert code == 0
    data = json.loads(out)
    assert data["h"] == [0] * 6 + [1]
    assert [sum(p["point_count"] * p["reduced_ranks"][q] for p in data["patterns"])
            for q in range(7)] == data["h"]


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


@pytest.mark.parametrize("command", ["describe", "batch"])
@pytest.mark.parametrize("content, reason", [
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    (b'{"name": "P1", "dim": 1, "rays": [[1' + b"0" * 5000 + b'], [-1]]}',
     "a JSON integer has too many digits"),
], ids=["deep", "long-integer"])
def test_json_past_the_reader_limits_exits_two_naming_the_file(tmp_path, capsys, command,
                                                               content, reason):
    # the JSON reader refuses 100,000 nested arrays and a 5,001-digit integer
    path = tmp_path / "input.json"
    path.write_bytes(content)
    argv = ["describe", str(path)] if command == "describe" else ["batch", "--manifest", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: {reason}")


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python has no integer digit limit")


@pytest.fixture
def digit_limit():
    """The interpreter's default limit of 4,300 digits on int <-> str, for the test's length."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@needs_digit_limit
def test_answer_past_the_digit_limit_exits_two(capsys, digit_limit):
    # h^0 of a.H on P2 is (a + 1)(a + 2) / 2: 2,200 nines give an answer of about 4,400 digits
    code, out, err = run(capsys, "cohom", "P2", f"--divisor={'9' * 2200},0,0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and f"({digit_limit} digits)" in err


@needs_digit_limit
def test_coefficient_past_the_digit_limit_names_the_limit(capsys, digit_limit):
    code, out, err = run(capsys, "cohom", "P2", f"--divisor={'9' * (digit_limit + 1)},0,0")
    assert code == 2
    assert out == ""
    assert err == f"error: a divisor coefficient has more than {digit_limit} digits\n"


@pytest.mark.parametrize("stdout", ["closed pipe", "/dev/full"])
def test_unwritable_stdout_exits_two_with_one_error_line(stdout):
    # the pipe's read end is closed before the child starts, so its first write breaks
    # the pipe; /dev/full refuses every write as a full disk
    if stdout == "closed pipe":
        read, out = os.pipe()
        os.close(read)
    elif os.path.exists(stdout):
        out = os.open(stdout, os.O_WRONLY)
    else:
        pytest.skip(f"no {stdout} here")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "frobtilt.cli", "frob-set", "P2"], env=env,
                              stdout=out, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(out)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: output not written")
    assert "Traceback" not in done.stderr


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


@pytest.fixture
def forking(monkeypatch):
    """Batch forks min(--jobs, entries) processes, whatever the CPU count."""
    monkeypatch.setattr(cli, "_worker_count", lambda jobs, n_targets: min(jobs, n_targets))


def _half_p2(tmp_path):
    """A fan file holding two of the three cones of P2: not complete."""
    path = tmp_path / "half-P2.json"
    path.write_text(json.dumps({"name": "half-P2", "dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                                "max_cones": [[0, 1], [1, 2]]}))
    return str(path)


@pytest.mark.parametrize("entries", [
    ["P1", "P2", "NOPE", "F2", "P1xP1"],
    ["P1", "P2", "HALF", "F2", "P1xP1"],
    ["P1", "HALF", "P2", "F2", "NOPE"],
    ["P1xP1xP1", "P1", "NOPE", "P2", "HALF"],
], ids=["unknown-name", "invalid-fan", "invalid-fan-first", "unknown-name-first"])
def test_batch_parallel_errors_match_serial(tmp_path, capsys, forking, entries):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([_half_p2(tmp_path) if e == "HALF" else e for e in entries]))
    serial = run(capsys, "batch", "--manifest", str(manifest))
    assert serial[0] == 2 and serial[1] == "" and serial[2].startswith("error: ")
    assert run(capsys, "batch", "--manifest", str(manifest), "--jobs", "2") == serial


def test_batch_runs_each_entry_once(tmp_path, capsys, forking, monkeypatch):
    # more processes than CPUs: an index claimed twice or skipped shows in the log
    names = list(catalog_names())
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(names))
    serial = run(capsys, "batch", "--manifest", str(manifest))
    log = tmp_path / "log"
    worker = cli._batch_worker

    def logged(target):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{target}\n".encode())
        finally:
            os.close(fd)
        return worker(target)

    monkeypatch.setattr(cli, "_batch_worker", logged)
    assert run(capsys, "batch", "--manifest", str(manifest), "--jobs", "4") == serial
    assert sorted(log.read_text().split()) == sorted(names)


def test_batch_reruns_the_entry_of_a_child_that_dies(tmp_path, capsys, forking, monkeypatch):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(["P1", "P2", "F3", "P1xP1"]))
    serial = run(capsys, "batch", "--manifest", str(manifest))
    parent = os.getpid()
    died = tmp_path / "died"
    worker = cli._batch_worker

    def dying(target):
        if os.getpid() != parent:
            died.write_text(target)
            os._exit(3)
        # the parent holds its first entry until the child has taken one
        deadline = time.monotonic() + 30
        while not died.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return worker(target)

    monkeypatch.setattr(cli, "_batch_worker", dying)
    assert run(capsys, "batch", "--manifest", str(manifest), "--jobs", "2") == serial
    assert serial[0] == 1  # F3 is not verified
    assert died.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_import_leaves_out_the_process_machinery():
    src = str(Path(cli.__file__).parents[1])
    code = ("import sys, frobtilt.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_batch_worker_count_clamped(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)  # CPUs this process may not use
    assert cli._worker_count(1, 16) == 1
    assert cli._worker_count(2, 16) == 2
    assert cli._worker_count(10_000, 16) == 2
    assert cli._worker_count(10_000, 1) == 1
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(64)))
    assert cli._worker_count(10_000, 16) == 16
    monkeypatch.delattr(cli.os, "sched_getaffinity")  # the fallback, as on macOS
    assert cli._worker_count(10_000, 16) == 16
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(4, 16) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.delattr(cli.os, "fork")
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
