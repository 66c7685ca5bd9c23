"""Product fans answered from their factors, against routes that do not use them.

A fan whose rays split into coordinate blocks takes its factors'
certificates plus the cone count for its validation, its factors' first
bases for its Picard basis, Kunneth for its cohomology and Ext table,
joins of its factors' patterns for its weight patterns, the factors'
chamber walks for its frob set, its factors' wall rows for its
anti-nef set and -K status, and sums of its factors' Ext tops for m0.
The checks here are the full validate, a brute-force first lattice
basis, the chamber walk with an LP at every node, and unimodularly mixed
copies: the same fan under some g in GL(n, Z) that links every block.  A
mixed copy takes no product route: its weight patterns, and so
oracles.counted_cohomology, walk the whole table of ray subsets.
"""

import importlib
import json
import math
import random

import pytest

from frobtilt.catalog import CatalogEntry, builtin, catalog_names, load, save
from frobtilt.cli import main
from frobtilt.cohomology import cohomology, ext_dims, weight_patterns
from frobtilt.cones import FANO, NEF_FANO, NEITHER, bu_set, is_antinef, is_nef, nef_fano_status
from frobtilt.fan import (
    DivisorClass, Fan, TorusDivisor, canonical_divisor, divisor_class, product, validate,
)
from frobtilt.frobenius import FrobSet, frob_set, minimal_stabilizing_ell
from frobtilt.tilting import build_candidate, m0, orlov_check
from oracles import (
    chamber_walk, counted_cohomology, first_lattice_basis, mixed, nef_by_walls, subdivision_chain,
)

cohomology_module = importlib.import_module("frobtilt.cohomology")
fan_module = importlib.import_module("frobtilt.fan")

P1, P2, F2, F3, dP6 = (builtin(n).fan for n in ("P1", "P2", "F2", "F3", "dP6"))
# fresh Fans, so every per-fan cache starts empty
PRODUCTS = {
    "P1^4": lambda: product(product(P1, P1), product(P1, P1)),
    "BlptP3xP1": lambda: product(builtin("BlptP3").fan, P1),
    "dP6xP1": lambda: product(dP6, P1),
    "dP6xP2": lambda: product(dP6, P2),
    "P2xP2": lambda: product(P2, P2),
    "P1xP2": lambda: product(P1, P2),
}


def interleaved(fan: Fan, seed: int) -> Fan:
    """The fan with its rays in a seeded order and its cones re-indexed."""
    order = list(range(fan.n_rays))
    random.Random(seed).shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    return Fan(fan.dim, tuple(fan.rays[i] for i in order),
               tuple(tuple(new[i] for i in cone) for cone in fan.max_cones))


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_cohomology_matches_its_own_pattern_route(name):
    # the mixed copy keeps the ray indices and walks the whole 2^r pattern table
    fan = PRODUCTS[name]()
    copy = mixed(fan)
    assert len(fan._factors) >= 2 and copy._factors == ()
    rng = random.Random(fan.n_rays * 31 + fan.dim)
    nonzero = 0
    for _ in range(10):
        coeffs = tuple(rng.randint(-3, 3) for _ in fan.rays)
        D, C = TorusDivisor(fan, coeffs), TorusDivisor(copy, coeffs)
        assert weight_patterns(fan, D) == weight_patterns(copy, C), coeffs
        dims = cohomology(fan, D).dims
        assert dims == counted_cohomology(copy, C) == counted_cohomology(fan, D), coeffs
        nonzero += any(dims)
    assert nonzero


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_questions_build_no_product_patterns(name):
    fan = PRODUCTS[name]()
    D = TorusDivisor(fan, tuple(range(-2, fan.n_rays - 2)))
    weight_patterns(fan, D)
    cohomology(fan, D)
    orlov_check(fan, name)
    assert not {"patterns", "bases"} & set(fan._rank_cache)


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_orlov_builds_no_product_cartier_data(name):
    # bu_set and nef_fano_status read wall rows built from the factors' walks alone
    fan = PRODUCTS[name]()
    orlov_check(fan, name)
    assert not {"_cone_inverses", "_ridge_walk"} & set(vars(fan))


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_wall_rows_and_nef_verdicts_match_a_mixed_copy(name):
    # the mixed copy shares the class coordinates and reads its rows off its own ridge walk
    fan = PRODUCTS[name]()
    copy = mixed(fan)
    assert set(fan._walls) == set(copy._walls)
    rng = random.Random(f"nef-{name}")
    seen = set()
    for _ in range(10):
        k = rng.choice((-2, -1, 0, 1, 2))
        coeffs = tuple(k + rng.randint(-1, 1) for _ in fan.rays)
        D, C = TorusDivisor(fan, coeffs), TorusDivisor(copy, coeffs)
        got = is_nef(D)
        assert got == is_nef(C), coeffs
        assert (got.is_nef, got.is_ample) == nef_by_walls(D), coeffs
        assert is_antinef(D) == is_antinef(C) == nef_by_walls(-D)[0], coeffs
        seen.add((got.is_nef, is_antinef(D)))
    assert {(True, False), (False, True)} <= seen
    nef, ample = nef_by_walls(-canonical_divisor(fan))
    status = FANO if ample else NEF_FANO if nef else NEITHER
    assert nef_fano_status(fan) == nef_fano_status(copy) == status
    frob = frob_set(fan)
    expected = [cls.coords for cls in frob.classes if nef_by_walls(-cls.representative())[0]]
    assert [cls.coords for cls in bu_set(fan, frob)] == sorted(expected)
    assert [cls.coords for cls in bu_set(copy)] == sorted(expected)


@pytest.mark.parametrize("name", ["P1^4", "dP6xP2", "P2xP2"])
def test_skipped_degree_drops_exactly_the_single_degree_patterns(name):
    fan = PRODUCTS[name]()
    rng = random.Random(fan.n_rays * 17)
    dropped = 0
    for _ in range(6):
        D = TorusDivisor(fan, tuple(rng.randint(-4, 4) for _ in fan.rays))
        every = weight_patterns(fan, D)
        for q in range(fan.dim + 1):
            single = [p for p in every if [d for d, r in enumerate(p.reduced_ranks) if r] == [q]]
            kept = weight_patterns(fan, D, skip=q)
            assert kept == tuple(p for p in every if p not in single), (D.coeffs, q)
            dropped += len(single)
    assert dropped


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_frob_set_matches_the_chamber_walk(name):
    fan = PRODUCTS[name]()
    expected = chamber_walk(fan)
    assert {w.cls: w.min_ell for w in frob_set(fan).witnesses} == expected


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_orlov_matches_a_mixed_copy(name):
    fan = PRODUCTS[name]()
    copy = mixed(fan)
    assert copy.validation.ok and copy._factors == ()
    # g keeps which ray sets are lattice bases, so both fans share class coordinates
    assert copy._pic == fan._pic
    got, want = orlov_check(fan, name), orlov_check(copy, name)
    assert got == want and got.status == "VERIFIED_MODULO_FULLNESS"
    tables = [[[v.dims for v in row] for row in build_candidate(f).ext_table] for f in (fan, copy)]
    assert tables[0] == tables[1]
    witnesses = [{w.cls.coords: w.min_ell for w in frob_set(f).witnesses} for f in (fan, copy)]
    assert witnesses[0] == witnesses[1]
    assert minimal_stabilizing_ell(fan) == minimal_stabilizing_ell(copy)


BUNDLE = Fan(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, 0, 0),
                 (1, 1, -1, -1)),
             ((0, 1, 2, 3), (0, 1, 2, 5), (0, 1, 3, 5), (0, 4, 2, 3), (0, 4, 2, 5),
              (0, 4, 3, 5), (1, 4, 2, 3), (1, 4, 2, 5), (1, 4, 3, 5)))  # a P2-bundle over P2
UNVERIFIED = {
    "F3xP1": (lambda: product(F3, P1), "neither", 1, "NOT_APPLICABLE", "-K not nef"),
    "F2xP2": (lambda: product(F2, P2), "nef_fano", 0, "VERIFIED_MODULO_FULLNESS", None),
    "F3xF3": (lambda: product(F3, F3), "neither", 2, "NOT_APPLICABLE", "-K not nef"),
    "BundlexP1": (lambda: product(BUNDLE, P1), "fano", 0, "HYPOTHESIS_FAILED",
                  "K_0 rank: 16 summands for 18 maximal cones"),
}


@pytest.mark.parametrize("name", UNVERIFIED)
def test_product_orlov_off_the_verified_branch_matches_a_mixed_copy(name):
    make, status_k, top, status, reason = UNVERIFIED[name]
    fan = make()
    got, want = orlov_check(fan, name), orlov_check(mixed(fan), name)
    assert got == want
    assert (got.nef_fano, got.m0, got.status, got.reason) == (status_k, top, status, reason)


@pytest.mark.parametrize("name, step", [("F3xF3", 2), ("F3xF3", 4), ("F3xP1", 2), ("dP6xP2", 2)])
def test_product_m0_of_a_summand_list_that_is_no_product_set(name, step):
    fan = UNVERIFIED[name][0]() if name in UNVERIFIED else PRODUCTS[name]()
    copy = mixed(fan)
    summands = bu_set(fan)[::step]
    moved = tuple(DivisorClass(cls.coords, copy) for cls in summands)
    assert m0(build_candidate(fan, summands)) == m0(build_candidate(copy, moved))


def test_product_m0_skips_a_pair_whose_factor_ext_vanishes():
    # from (4, 3) to (0, 0) the first factor has H^1(O(-2)) but the second H^*(O(-1)) = 0,
    # so that pair has no Ext and m0 = 0, below the first factor's top alone
    fan = product(P1, P1)
    copy = mixed(fan)
    summands = (DivisorClass((0, 0), fan), DivisorClass((4, 3), fan))
    moved = tuple(DivisorClass(cls.coords, copy) for cls in summands)
    assert m0(build_candidate(fan, summands)) == m0(build_candidate(copy, moved)) == 0


def test_bu_set_keeps_only_the_classes_of_the_frob_set_passed():
    fan = product(F3, F3)
    full = frob_set(fan)
    half = FrobSet(fan, full.classes[1::2], full.cells[1::2])
    assert bu_set(fan, half) == tuple(cls for cls in bu_set(fan) if cls in half.classes)
    assert bu_set(fan, half) != bu_set(fan)


def orlov_stdout(capsys, path) -> str:
    assert main(["orlov", str(path)]) == 0
    return capsys.readouterr().out


def test_interleaved_product_from_a_file_is_recognised(tmp_path, capsys):
    fan = interleaved(product(dP6, P2), 5)
    save(CatalogEntry("dP6xP2", fan, "shuffled"), tmp_path / "shuffled.json")
    save(CatalogEntry("dP6xP2", mixed(fan), "mixed"), tmp_path / "mixed.json")
    loaded = load(tmp_path / "shuffled.json").fan
    assert [(rays, f.dim) for rays, f, _ in loaded._factors] == [((0, 1, 2, 3, 7, 8), 2),
                                                                  ((4, 5, 6), 2)]
    out = orlov_stdout(capsys, tmp_path / "shuffled.json")
    assert json.loads(out)["status"] == "VERIFIED_MODULO_FULLNESS"
    assert out == orlov_stdout(capsys, tmp_path / "mixed.json")


IRREDUCIBLE = [n for n in catalog_names() if "x" not in n]


@pytest.mark.parametrize("name", IRREDUCIBLE)
def test_irreducible_catalog_fans_have_no_factors(name):
    assert builtin(name).fan._factors == ()


def test_chain_and_mixed_copies_have_no_factors():
    assert subdivision_chain("P4", 8, 5)._factors == ()
    for make in PRODUCTS.values():
        assert mixed(make())._factors == ()


@pytest.mark.parametrize("name, dims", [("P1xP1", [1, 1]), ("P1xP2", [1, 2]),
                                        ("P1xP1xP1", [1, 1, 1]), ("P2xP2", [2, 2])])
def test_catalog_products_split_into_their_factors(name, dims):
    fan = builtin(name).fan
    assert [f.dim for _, f, _ in fan._factors] == dims
    positions = sorted(p for _, _, ps in fan._factors for p in ps)
    assert positions == list(range(fan.picard_rank))


def test_equal_factors_are_one_fan():
    fan = PRODUCTS["P1^4"]()
    assert len(fan._factors) == 4
    assert len({id(f) for _, f, _ in fan._factors}) == 1
    assert fan._factors[0][1] == P1
    ((_, first, _), (_, second, _)) = PRODUCTS["P2xP2"]()._factors
    assert first is second


def test_warm_product_class_reaches_no_factor(monkeypatch):
    fan = PRODUCTS["dP6xP2"]()
    asked = []
    real = cohomology_module._class_cohomology
    monkeypatch.setattr(cohomology_module, "_class_cohomology",
                        lambda f, coords: asked.append(f) or real(f, coords))
    D = TorusDivisor(fan, (1, -2, 0, 3, -1, 0, 2, -1, 0))
    cold = cohomology(fan, D)
    assert asked[0] is fan and {f.dim for f in asked[1:]} == {2} and len(asked) == 3
    asked.clear()
    assert cohomology(fan, D) == cold
    assert asked == [fan]
    assert "patterns" not in fan._rank_cache


def test_product_beyond_the_pattern_bound_answers_from_its_factors():
    # dP6^3 has 18 rays, beyond the pattern bound; its factors have 6 each
    fan = product(product(dP6, dP6), dP6)
    K = TorusDivisor(fan, (-1,) * fan.n_rays)
    h = cohomology(fan, K).dims
    assert h == (0,) * 6 + (1,)
    patterns = weight_patterns(fan, K)
    assert [sum(p.point_count * p.reduced_ranks[q] for p in patterns) for q in range(7)] == list(h)
    assert "patterns" not in fan._rank_cache


# --- validation and the Picard basis from the factors ------------------------------------------


def product_cases() -> dict:
    """Every catalog product, every PRODUCTS entry (the orlov-products fans among
    them), dP6xP2 with its rays shuffled, and dP6^3, each a fresh Fan."""
    cases = {n: (lambda f=builtin(n).fan: Fan(f.dim, f.rays, f.max_cones))
             for n in catalog_names() if "x" in n}
    return {**cases, **PRODUCTS, "dP6xP2-shuffled": lambda: interleaved(product(dP6, P2), 5),
            "dP6^3": lambda: product(product(dP6, dP6), dP6)}


PRODUCT_CASES = product_cases()


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_product_validation_by_factors_matches_the_full_route(name):
    fan = PRODUCT_CASES[name]()
    report = fan.validation
    assert fan._factors and "_ridge_walk" not in vars(fan)  # no product cone was inverted
    assert report == validate(fan) and report.ok


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_product_picard_basis_is_the_first_lattice_basis(name):
    fan = PRODUCT_CASES[name]()
    assert fan._pic[0] == first_lattice_basis(fan)
    rng = random.Random(name)
    for _ in range(2):
        shuffled = interleaved(fan, rng.randrange(1000))
        assert shuffled._factors and shuffled._pic[0] == first_lattice_basis(shuffled)


def dropped_cone():
    fan = product(dP6, P2)
    return Fan(fan.dim, fan.rays, fan.max_cones[1:])


def zero_ray_in_a_cone():
    # each cone still projects onto a factor cone, and the count still matches
    fan = product(P2, P1)
    cones = ((*fan.max_cones[0], fan.n_rays), *fan.max_cones[1:])
    return Fan(fan.dim, (*fan.rays, (0, 0, 0)), cones)


WP112 = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (2, 0)))  # cone (2, 0) has det 2
P1_TWICE = Fan(1, ((1,), (-1,), (1,)), ((0,), (1,), (2,)))  # the ray (1,) listed twice
BROKEN = {
    "dropped-cone": dropped_cone,
    "zero-ray": zero_ray_in_a_cone,
    "non-smooth-factor": lambda: product(WP112, P1),
    "duplicated-factor-ray": lambda: product(P2, P1_TWICE),
}


def cli_outcomes(capsys, path) -> list:
    out = []
    for command in ("describe", "orlov"):
        code = main([command, str(path)])
        out.append((code, *capsys.readouterr()))
    return out


@pytest.mark.parametrize("name", BROKEN)
def test_broken_product_reports_as_the_full_route(name, tmp_path, capsys, monkeypatch):
    fan = BROKEN[name]()
    assert not fan.validation.ok and fan.validation == validate(fan)
    save(CatalogEntry(name, fan, "broken product"), tmp_path / "broken.json")
    got = cli_outcomes(capsys, tmp_path / "broken.json")
    (describe_code, describe_out, _), (orlov_code, orlov_out, orlov_err) = got
    assert describe_code == 0 and json.loads(describe_out)["valid"] is False
    assert orlov_code == 2 and orlov_out == "" and orlov_err.count("\n") == 1
    assert orlov_err.startswith("error: ")
    monkeypatch.setattr(Fan, "validation", property(fan_module.validate))
    assert cli_outcomes(capsys, tmp_path / "broken.json") == got


def test_the_cone_count_rejects_a_product_missing_a_cone():
    # the factors are whole and valid; only the count tells the cone is missing
    fan = dropped_cone()
    assert [factor for _, factor, _ in fan._factors] == [dP6, P2]
    assert sum(len(rays) for rays, _, _ in fan._factors) == fan.n_rays
    assert len(fan.max_cones) == math.prod(len(f.max_cones) for _, f, _ in fan._factors) - 1
    assert not fan.validation.ok and fan._factors


# --- the Ext table of summands that are no product set ------------------------------------------


@pytest.mark.parametrize("name", ["dP6xP1", "P1^4"])
def test_product_ext_table_of_a_summand_list_that_is_no_product_set(name):
    fan = PRODUCTS[name]()
    copy = mixed(fan)
    bu = bu_set(fan)
    ample = divisor_class(-canonical_divisor(fan))
    assert not is_antinef(ample.representative())
    for summands in (bu[:3] + bu[4:], bu + (ample,)):
        table = build_candidate(fan, summands).ext_table
        assert table == tuple(tuple(ext_dims(fan, a, b) for b in summands) for a in summands)
        # the mixed copy shares the class coordinates and walks its whole pattern table
        on_copy = [DivisorClass(s.coords, copy) for s in summands]
        assert table == tuple(tuple(ext_dims(copy, a, b) for b in on_copy) for a in on_copy)
