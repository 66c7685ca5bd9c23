"""Product fans answered from their factors, against routes that do not use them.

A fan whose rays split into coordinate blocks takes Kunneth for its
cohomology and the factors' chamber walks for its frob set.  The checks
here are the product's own pattern route (oracles.counted_cohomology), the
chamber walk with an LP at every node, and unimodularly mixed copies: the
same fan under some g in GL(n, Z) that links every block, which takes
neither product route.
"""

import importlib
import json
import random

import pytest

from frobtilt.catalog import CatalogEntry, builtin, catalog_names, load, save
from frobtilt.cli import main
from frobtilt.cohomology import cohomology, weight_patterns
from frobtilt.fan import Fan, TorusDivisor, product
from frobtilt.frobenius import frob_set, minimal_stabilizing_ell
from frobtilt.tilting import build_candidate, orlov_check
from oracles import chamber_walk, counted_cohomology, subdivision_chain

cohomology_module = importlib.import_module("frobtilt.cohomology")

P1, P2, dP6 = (builtin(n).fan for n in ("P1", "P2", "dP6"))
# fresh Fans, so every per-fan cache starts empty
PRODUCTS = {
    "P1^4": lambda: product(product(P1, P1), product(P1, P1)),
    "BlptP3xP1": lambda: product(builtin("BlptP3").fan, P1),
    "dP6xP1": lambda: product(dP6, P1),
    "dP6xP2": lambda: product(dP6, P2),
    "P2xP2": lambda: product(P2, P2),
    "P1xP2": lambda: product(P1, P2),
}


def mixed(fan: Fan) -> Fan:
    """The fan under g: x_i -> x_0 + ... + x_i, which is unimodular and links the blocks."""
    rays = tuple(tuple(sum(ray[: i + 1]) for i in range(fan.dim)) for ray in fan.rays)
    return Fan(fan.dim, rays, fan.max_cones)


def interleaved(fan: Fan, seed: int) -> Fan:
    """The fan with its rays in a seeded order and its cones re-indexed."""
    order = list(range(fan.n_rays))
    random.Random(seed).shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    return Fan(fan.dim, tuple(fan.rays[i] for i in order),
               tuple(tuple(new[i] for i in cone) for cone in fan.max_cones))


@pytest.mark.parametrize("name", PRODUCTS)
def test_product_cohomology_matches_its_own_pattern_route(name):
    fan = PRODUCTS[name]()
    assert len(fan._factors) >= 2
    rng = random.Random(fan.n_rays * 31 + fan.dim)
    nonzero = 0
    for _ in range(10):
        D = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
        dims = cohomology(fan, D).dims
        assert dims == counted_cohomology(fan, D), D.coeffs
        nonzero += any(dims)
    assert nonzero


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
    # dP6^3 has 18 rays: its own pattern walk is refused, its factors have 6 each
    fan = product(product(dP6, dP6), dP6)
    K = TorusDivisor(fan, (-1,) * fan.n_rays)
    assert cohomology(fan, K).dims == (0,) * 6 + (1,)
    with pytest.raises(ValueError, match="the fan has 18 rays"):
        weight_patterns(fan, K)
