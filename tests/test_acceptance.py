"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
checks are exact (integer equality); the only tolerances are the stated
wall-clock budgets.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from math import comb

import pytest

from frobtilt.catalog import builtin, catalog_names
from frobtilt.cli import main
from frobtilt.cohomology import cohomology
from frobtilt.cones import NEITHER, bu_set, is_nef, nef_fano_status
from frobtilt.fan import TorusDivisor, canonical_divisor, divisor_class, product
from frobtilt.frobenius import frob_set, minimal_stabilizing_ell, pushforward_summands
from frobtilt.tilting import (
    NOT_APPLICABLE,
    VERIFIED,
    build_candidate,
    ext_vanishing,
    orlov_check,
)
from oracles import projection_chain_check

ALL_NAMES = catalog_names()

# observed per-entry values, pinned (see also tests/test_catalog.py)
EXPECTED_BU_SIZE = {
    "P1": 2, "P2": 3, "P3": 4, "P4": 5,
    "P1xP1": 4, "P1xP2": 6, "P1xP1xP1": 8, "P2xP2": 9,
    "F1": 4, "F2": 4, "F3": 4,
    "dP7": 5, "dP6": 6, "BlptP3": 6,
}
EXPECTED_GRAM_DET = {name: 1 for name in ALL_NAMES}


@contextmanager
def criterion(number, description):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {number}: PASS - {description} ({dt:.2f}s)")


def zero(fan):
    return TorusDivisor(fan, (0,) * fan.n_rays)


def sweep_union(fan, max_ell):
    out = set()
    for ell in range(1, max_ell + 1):
        out |= set(pushforward_summands(fan, zero(fan), ell))
    return out


def h_pn_oracle(n, j):
    dims = [0] * (n + 1)
    if j >= 0:
        dims[0] = comb(n + j, n)
    if j <= -n - 1:
        dims[n] = comb(-j - 1, n)
    return tuple(dims)


def test_criterion_1_frob_sets():
    with criterion(1, "frob sets of P1, P2, P1xP1, F1; chamber = ell-sweep"):
        t0 = time.monotonic()
        p1, p2, p1xp1, f1 = (builtin(n).fan for n in ("P1", "P2", "P1xP1", "F1"))
        assert {c.coords for c in frob_set(p1)} == {(0,), (-1,)}
        assert {c.coords for c in frob_set(p2)} == {(0,), (-1,), (-2,)}
        assert {c.coords for c in frob_set(p1xp1)} == {
            (0, 0), (-1, 0), (0, -1), (-1, -1)
        }
        assert len(frob_set(f1)) == 4
        for fan in (p1, p2, p1xp1, f1):
            assert set(frob_set(fan).classes) == sweep_union(fan, 12)
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_stabilization():
    with criterion(2, "minimal stabilizing ell: 2, 3, 2 and finite catalog-wide"):
        t0 = time.monotonic()
        assert minimal_stabilizing_ell(builtin("P1").fan) == 2
        assert minimal_stabilizing_ell(builtin("P2").fan) == 3
        assert minimal_stabilizing_ell(builtin("P1xP1").fan) == 2
        for name in ALL_NAMES:
            ell = minimal_stabilizing_ell(builtin(name).fan)
            assert isinstance(ell, int) and ell >= 1
        assert time.monotonic() - t0 < 10.0


def test_criterion_3_cohomology_engine():
    with criterion(3, "closed forms on P^n, Serre duality + Demazure on 200 cases"):
        t0 = time.monotonic()
        for n, name in ((1, "P1"), (2, "P2"), (3, "P3")):
            fan = builtin(name).fan
            for j in range(-4, 5):
                D = TorusDivisor(fan, (j,) + (0,) * (fan.n_rays - 1))
                assert cohomology(fan, D).dims == h_pn_oracle(n, j)
        rng = random.Random(0xACCE)
        fans = ["P1", "P2", "P1xP1", "F1", "F2", "F3", "dP7", "dP6", "P3", "P1xP2"]
        cases = 0
        for name in fans:
            fan = builtin(name).fan
            K = canonical_divisor(fan)
            for _ in range(20):
                D = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
                h = cohomology(fan, D).dims
                hd = cohomology(fan, K - D).dims
                assert h == tuple(reversed(hd)), (name, D.coeffs)
                if is_nef(D).is_nef:
                    assert all(x == 0 for x in h[1:]), (name, D.coeffs)
                cases += 1
        assert cases >= 200
        assert time.monotonic() - t0 < 60.0


def test_criterion_4_orlov_pipeline():
    with criterion(4, "orlov_check verified with m0=0 on every nef-anticanonical entry"):
        t0 = time.monotonic()
        covered = []
        for name in ALL_NAMES:
            fan = builtin(name).fan
            if nef_fano_status(fan) == NEITHER:
                continue
            r = orlov_check(fan, name)
            assert r.ext_vanishing, name
            assert r.m0 == 0, name
            assert r.status == VERIFIED, name
            assert r.gen_time_upper == fan.dim == r.rdim_lower, name
            covered.append(name)
        assert "F2" in covered
        assert {"P1", "P2", "F1", "dP7", "dP6", "P1xP2", "P1xP1xP1"} <= set(covered)
        assert time.monotonic() - t0 < 180.0


def test_criterion_5_projection_chain():
    with criterion(5, "projection-formula dimension identity, all fans, ell in 1..3"):
        for name in ALL_NAMES:
            fan = builtin(name).fan
            for ell in (1, 2, 3):
                check = projection_chain_check(fan, ell)
                assert check.ok, (name, ell, check.violation)


def test_criterion_6_negative_controls():
    with criterion(6, "F3 not-applicable with bounds; artificial pair fails Ext"):
        f3 = builtin("F3").fan
        r = orlov_check(f3, "F3")
        assert r.status == NOT_APPLICABLE
        assert r.reason == "-K not nef"
        assert r.m0 >= 0 and r.gen_time_upper == f3.dim + r.m0
        assert r.rdim_lower == f3.dim

        p1 = builtin("P1").fan
        pair = (
            divisor_class(TorusDivisor(p1, (0, 0))),
            divisor_class(TorusDivisor(p1, (-2, 0))),
        )
        ev = ext_vanishing(build_candidate(p1, pair))
        assert not ev.ok
        assert (0, 1, 1, 1) in ev.violations  # Ext^1(O, O(-2)) = 1


def test_criterion_7_k_theoretic_conditions():
    with criterion(7, "verified entries have |bu| = #max cones and unimodular Gram"):
        for name in ALL_NAMES:
            fan = builtin(name).fan
            r = orlov_check(fan, name)
            assert len(bu_set(fan)) == EXPECTED_BU_SIZE[name], name
            if r.status == VERIFIED:
                assert r.n_bu == r.n_max_cones, name
                assert abs(r.gram_det) == 1, name
                assert r.gram_det == EXPECTED_GRAM_DET[name], name


def test_criterion_8_determinism_and_interface(tmp_path, capsys):
    with criterion(8, "byte-identical batch reruns; exit-code contract"):
        manifest = tmp_path / "catalog.json"
        manifest.write_text(json.dumps(list(ALL_NAMES)))

        code1 = main(["batch", "--manifest", str(manifest)])
        out1 = capsys.readouterr().out.encode()
        code2 = main(["batch", "--manifest", str(manifest)])
        out2 = capsys.readouterr().out.encode()
        assert out1 == out2
        assert code1 == code2 == 1  # F3 is not verified

        bad_fan = tmp_path / "bad.json"
        bad_fan.write_text('{"name": "b", "dim": 2, "rays": [[1, 0]], "max_cones": [[0, 5]]}')
        nonsmooth = tmp_path / "nonsmooth.json"
        nonsmooth.write_text(json.dumps({
            "name": "ns", "dim": 2,
            "rays": [[1, 0], [1, 2], [-1, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 0]],
        }))
        matrix = [
            (["describe", "P2"], 0),
            (["orlov", "P2"], 0),
            (["orlov", "F2"], 0),
            (["orlov", "F3"], 1),
            (["tilting", "P2"], 0),
            (["frob", "P1", "--ell", "4"], 0),
            (["frob", "P1", "--ell", "0"], 2),
            (["describe", "NoSuchFan"], 2),
            (["nef", "P2", "--divisor", "1,2"], 2),
            (["cohom", "P2", "--divisor", "1,x,3"], 2),
            (["orlov", str(bad_fan)], 2),
            (["orlov", str(nonsmooth)], 2),
            (["batch", "--manifest", str(bad_fan)], 2),
        ]
        for argv, expected in matrix:
            got = main(list(argv))
            capsys.readouterr()
            assert got == expected, (argv, got, expected)


def test_criterion_9_stretch_product():
    with criterion(9, "cold dP6 x dP6 (12 rays, dim 4) verified with m0=0 and |bu| = 36"):
        t0 = time.monotonic()
        dp6 = builtin("dP6").fan
        fan = product(dp6, dp6)  # a fresh Fan: every per-fan cache starts empty
        r = orlov_check(fan, "dP6xdP6")
        assert r.status == VERIFIED
        assert r.m0 == 0
        assert r.n_bu == 36 == EXPECTED_BU_SIZE["dP6"] ** 2  # Kunneth
        assert r.n_bu == r.n_max_cones and abs(r.gram_det) == 1
        assert time.monotonic() - t0 < 60.0
