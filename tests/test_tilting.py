import importlib
import itertools
import math
import random
import sys

import pytest

import frobtilt.frobenius
from frobtilt.catalog import builtin, catalog_names
from frobtilt.cohomology import InfiniteCohomologyError, _top_degree, cohomology
from frobtilt.cones import NEITHER, bu_set, nef_fano_status
from frobtilt.fan import DivisorClass, Fan, TorusDivisor, canonical_divisor, divisor_class, product
from frobtilt.frobenius import frob_set
from frobtilt.lattice import dot, feasible_point
from frobtilt.tilting import (
    HYPOTHESIS_FAILED,
    NOT_APPLICABLE,
    VERIFIED,
    build_candidate,
    ext_vanishing,
    m0,
    orlov_check,
)
from oracles import m0_from_h_vectors, mixed, projection_chain_check, subdivision_chain, top_nonzero

cohomology_module = importlib.import_module("frobtilt.cohomology")

P1 = builtin("P1").fan
P2 = builtin("P2").fan
F2 = builtin("F2").fan
F3 = builtin("F3").fan


def cls_of(fan, coeffs):
    return divisor_class(TorusDivisor(fan, coeffs))


# --- build_candidate ---------------------------------------------------------


def test_p1_candidate():
    c = build_candidate(P1)
    assert [s.coords for s in c.summands] == [(-1,), (0,)]
    for row in c.ext_table:
        for vec in row:
            assert all(h == 0 for h in vec.dims[1:])


def test_p2_candidate_gram():
    c = build_candidate(P2)
    assert len(c.summands) == 3
    # summands sorted (-2), (-1), (0): chi table is the Euler pairing
    assert c.gram == ((1, 3, 6), (0, 1, 3), (0, 0, 1))
    assert c.gram_det == 1
    assert c.triangular_order() is not None


def test_f1_candidate_size():
    assert len(build_candidate(builtin("F1").fan).summands) == 4


def test_candidate_diagonals():
    for name in ("P1", "P2", "F2", "dP7"):
        c = build_candidate(builtin(name).fan)
        k = len(c.summands)
        for a in range(k):
            assert c.ext_table[a][a].dims == (1,) + (0,) * c.fan.dim
            assert c.gram[a][a] == 1


# --- ext_vanishing --------------------------------------------------------------


def test_ext_vanishing_p1_p2():
    assert ext_vanishing(build_candidate(P1)).ok
    assert ext_vanishing(build_candidate(P2)).ok


def test_artificial_pair_fails_with_witness():
    c = build_candidate(P1, (cls_of(P1, (0, 0)), cls_of(P1, (-2, 0))))
    ev = ext_vanishing(c)
    assert not ev.ok
    # Ext^1(O, O(-2)) has dimension 1
    assert (0, 1, 1, 1) in ev.violations


# --- m0 ---------------------------------------------------------------------------


def test_m0_p1_is_zero():
    c = build_candidate(P1)
    assert m0(c) == 0
    # direct check: every pairwise twist by -K has only sections
    K = canonical_divisor(P1)
    for a in c.summands:
        for b in c.summands:
            dims = cohomology(P1, b.representative() - a.representative() - K).dims
            assert all(h == 0 for h in dims[1:])


def test_m0_p2_is_zero():
    assert m0(build_candidate(P2)) == 0


def test_m0_f2_nef_fano_stress_case():
    assert m0(build_candidate(F2)) == 0


# The catalog and the product fans of the benchmark's cold orlov workload.
ROUTE_FANS = {name: builtin(name).fan for name in catalog_names()} | {
    name: product(builtin(x).fan, builtin(y).fan)
    for name, (x, y) in {
        "P1xP1xP1xP1": ("P1xP1", "P1xP1"),
        "BlptP3xP1": ("BlptP3", "P1"),
        "dP6xP1": ("dP6", "P1"),
        "dP6xP2": ("dP6", "P2"),
    }.items()
}


def fresh(fan):
    """An equal Fan with empty caches."""
    return Fan(fan.dim, fan.rays, fan.max_cones)


@pytest.mark.parametrize("name", list(ROUTE_FANS))
def test_ext_table_and_m0_match_the_representative_route(name):
    # each route fills its own fan's class cache
    c = build_candidate(fresh(ROUTE_FANS[name]))
    other = fresh(c.fan)
    K = canonical_divisor(other)
    reps = [TorusDivisor(other, L.representative().coeffs) for L in c.summands]
    assert c.ext_table == tuple(tuple(cohomology(other, b - a) for b in reps) for a in reps)
    top = max(top_nonzero(cohomology(other, b - a - K)) for a in reps for b in reps)
    assert m0(c) == top


# The route fans, the products whose m0 is positive, and two chains with m0 = 1.
ORACLE_FANS = ROUTE_FANS | {"F3xF3": product(F3, F3), "F3xP1": product(F3, P1),
                            "P3-chain": subdivision_chain("P3", 5, 11),
                            "P4-chain": subdivision_chain("P4", 5, 12)}


def seeded_subsets(fan, seed, count=3):
    """count seeded subsets of frob(X), none of them a product set on a product fan."""
    classes, rng, out = frob_set(fan).classes, random.Random(seed), []
    while len(out) < count:
        pick = tuple(rng.sample(classes, min(len(classes), rng.randint(2, 6))))
        sizes = [len({tuple(cls.coords[p] for p in positions) for cls in pick})
                 for _, _, positions in fan._factors]
        if not sizes or math.prod(sizes) != len(pick):
            out.append(pick)
    return out


@pytest.mark.parametrize("name", list(ORACLE_FANS))
def test_m0_matches_the_top_of_whole_h_vectors(name):
    # on the bu set and on seeded subsets of frob(X); a product's mixed copy
    # has no factors, so it takes the irreducible route on the same classes
    fan = fresh(ORACLE_FANS[name])
    copies = [fan] + ([mixed(fan)] if fan._factors else [])
    for summands in [bu_set(fan)] + seeded_subsets(fan, len(name)):
        want = m0_from_h_vectors(fresh(fan), summands)
        for copy in copies:
            moved = tuple(DivisorClass(cls.coords, copy) for cls in summands)
            assert m0(build_candidate(copy, moved)) == want, (copy._factors != (), summands)
    if name.endswith("chain"):
        assert m0(build_candidate(fan)) == 1


@pytest.mark.parametrize("name", ["dP6", "dP6xP2", "BlptP3xP1"])
def test_cold_m0_is_decided_by_the_certificate_masks_alone(name, monkeypatch):
    # no m0 class of these fans has a surviving region above degree 0
    c = build_candidate(fresh(ROUTE_FANS[name]))
    assert bool(c.fan._factors) == ("x" in name)
    calls = []
    for attr in ("weight_patterns", "_count_region", "_euler_characteristic"):
        real = getattr(cohomology_module, attr)
        monkeypatch.setattr(cohomology_module, attr, lambda *args, attr=attr, real=real, **kw:
                            calls.append(attr) or real(*args, **kw))
    real_rep = DivisorClass.representative
    monkeypatch.setattr(DivisorClass, "representative",
                        lambda cls: calls.append("representative") or real_rep(cls))
    assert m0(c) == 0
    assert calls == []


TOP_FANS = [name for name, fan in ORACLE_FANS.items() if not fan._factors]


@pytest.mark.parametrize("name", TOP_FANS)
def test_top_degree_is_the_top_of_the_h_vector_above_a_degree(name):
    fan = fresh(ORACLE_FANS[name])
    other = fresh(fan)
    rng = random.Random(fan.n_rays * 13 + fan.dim)
    for _ in range(12):
        D = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
        dims = cohomology(other, TorusDivisor(other, D.coeffs)).dims
        for above in range(-1, fan.dim + 1):
            want = max((q for q, h in enumerate(dims) if h and q > above), default=above)
            assert _top_degree(fan, divisor_class(D).coords, above) == want, (D.coeffs, above)


@pytest.mark.parametrize("name", ["dP6", "P3-chain"])
def test_top_degree_answers_by_integer_points_with_every_certificate_withheld(name, monkeypatch):
    # every active pattern then survives, empty regions too, so no region's
    # degree counts before its integer-point walk finds a point
    fan = fresh(ORACLE_FANS[name])
    other = fresh(fan)
    rng = random.Random(fan.n_rays)
    cases = []
    for _ in range(8):
        D = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
        cases.append((divisor_class(D).coords, cohomology(other, TorusDivisor(other, D.coeffs)).dims))
    monkeypatch.setattr(cohomology_module, "_emptied", lambda circuits, coords: 0)
    for coords, dims in cases:
        for above in range(-1, fan.dim + 1):
            want = max((q for q, h in enumerate(dims) if h and q > above), default=above)
            assert _top_degree(fan, coords, above) == want, (coords, above)


def test_top_degree_passes_over_a_region_with_no_integer_point(monkeypatch):
    # this degree-1 region of the class holds rational points but no weight;
    # with it the only survivor, nothing lies above degree 0
    fan = subdivision_chain("P3", 5, 2)
    coords = (-2, 1, -1, 0, 1, -2)
    survivor = next(p for p in cohomology_module._survivors(fan, coords)
                    if sorted(p[0]) == [1, 3, 5, 8])
    assert survivor[1] == (0, 1, 0, 0)
    region = cohomology_module._pattern_region(
        fan, DivisorClass(coords, fan).representative().coeffs, survivor[0])
    assert feasible_point(region) is not None
    # its rows give x, z >= 0, y = -1 and 2x + y + z <= 0, so it lies in [0, 1]^3 - (0, 1, 0)
    assert not any(all(dot(a, m) <= b for a, b, _ in region.rows)
                   for m in itertools.product(range(-2, 3), repeat=3))
    monkeypatch.setattr(cohomology_module, "_survivors", lambda fan, coords: [survivor])
    assert _top_degree(fan, coords, 0) == 0
    assert _top_degree(fan, coords, -1) == -1


def test_top_degree_raises_on_an_unbounded_surviving_region(monkeypatch):
    # the fan winds twice around the origin; validation refuses it, so bypass it
    monkeypatch.setattr(Fan, "require_valid", lambda self: None)
    rays = ((1, 0), (0, 1), (-1, -2), (1, 1), (-1, 0), (-3, -1), (-2, -1))
    fan = Fan(2, rays, tuple((i, (i + 1) % 7) for i in range(7)))
    coords = divisor_class(TorusDivisor(fan, (0,) * 7)).coords
    for above in (-1, 0):
        with pytest.raises(InfiniteCohomologyError, match="unbounded"):
            _top_degree(fan, coords, above)
    assert _top_degree(fan, coords, 1) == 1  # no survivor is ranked above degree 1


def test_warm_m0_builds_no_representative_and_reduces_only_k(monkeypatch):
    c = build_candidate(fresh(builtin("dP6").fan))
    first = m0(c)
    built, reduced = [], []
    real_rep = DivisorClass.representative
    monkeypatch.setattr(DivisorClass, "representative",
                        lambda cls: built.append(cls) or real_rep(cls))
    for name in ("frobtilt.cohomology", "frobtilt.tilting"):
        module = importlib.import_module(name)
        real = module.divisor_class
        monkeypatch.setattr(module, "divisor_class",
                            lambda D, name=name, real=real: reduced.append(name) or real(D))
    assert m0(c) == first
    assert built == []
    assert reduced == ["frobtilt.tilting"]  # K, once


# --- orlov_check -------------------------------------------------------------------


def test_orlov_p2():
    r = orlov_check(P2, "P2")
    assert r.status == VERIFIED
    assert r.gen_time_upper == 2 == r.rdim_lower
    assert r.ext_vanishing and r.m0 == 0


def test_orlov_f2_nef_fano_branch():
    r = orlov_check(F2, "F2")
    assert r.status == VERIFIED
    assert r.nef_fano == "nef_fano"


def test_orlov_f3_not_applicable_but_reported():
    r = orlov_check(F3, "F3")
    assert r.status == NOT_APPLICABLE
    assert r.reason == "-K not nef"
    assert r.m0 >= 0
    assert r.gen_time_upper == F3.dim + r.m0
    assert r.rdim_lower == F3.dim


def test_report_monotonicity_and_status_logic():
    for name in catalog_names():
        fan = builtin(name).fan
        r = orlov_check(fan, name)
        assert r.rdim_lower <= r.gen_time_upper
        assert (r.rdim_lower == r.gen_time_upper) == (r.m0 == 0)
        verified = r.ext_vanishing and r.nef_fano != NEITHER and r.m0 == 0
        assert (r.status == VERIFIED) == verified


def test_theorem_shadow_nef_plus_ext_vanishing_forces_m0_zero():
    # the content of the main generation-time argument, as a stopping test
    for name in catalog_names():
        fan = builtin(name).fan
        r = orlov_check(fan, name)
        if r.nef_fano != NEITHER and r.ext_vanishing:
            assert r.m0 == 0, f"{name}: m0 = {r.m0}"


def test_gram_unimodular_when_rank_matches():
    for name in catalog_names():
        r = orlov_check(builtin(name).fan, name)
        if r.status == VERIFIED:
            assert r.k_rank_match
            assert r.gram_unimodular


def test_orlov_runs_frob_set_once(monkeypatch):
    original = frobtilt.frobenius.frob_set
    calls = []

    def counting(fan):
        calls.append(fan)
        return original(fan)

    for name, module in list(sys.modules.items()):
        if name == "frobtilt" or name.startswith("frobtilt."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    fan = product(P1, P2)  # a fresh Fan: no cache carries over
    r = orlov_check(fan, "P1xP2")
    assert r.status == VERIFIED and r.n_bu == 6
    assert len(calls) == 1


def test_report_serialization_round_trip():
    r = orlov_check(P2, "P2")
    d = r.to_dict()
    assert d["status"] == VERIFIED
    assert d["gen_time_upper"] == 2


# --- projection_chain_check -----------------------------------------------------------


def test_chain_p1_ell2_by_hand():
    # summands of the square pushforward are O and O(-1); with K = -2pts,
    # both sides reduce to cohomology of twists of O(1) and O(2)
    K = canonical_divisor(P1)
    check = projection_chain_check(P1, 2)
    assert check.ok
    L = cls_of(P1, (-1, 0))
    lhs = [0, 0]
    for coeffs in ((0, 0), (-1, 0)):
        vec = cohomology(P1, TorusDivisor(P1, coeffs) - L.representative() - K)
        lhs = [x + y for x, y in zip(lhs, vec.dims)]
    rhs = cohomology(P1, -2 * (L.representative() + K)).dims
    assert tuple(lhs) == rhs


def test_chain_ell1_trivial():
    for name in ("P2", "F3", "dP6"):
        assert projection_chain_check(builtin(name).fan, 1).ok


@pytest.mark.parametrize("ell", [2, 3])
def test_chain_p2(ell):
    assert projection_chain_check(P2, ell).ok


@pytest.mark.parametrize("check", [orlov_check, bu_set, build_candidate])
def test_candidate_paths_walk_no_pushforward(monkeypatch, check):
    # bu(X) needs frob(X) only as a set: no minimal witness ell is swept
    real = frobtilt.frobenius.pushforward_summands
    ells = []

    def recording(fan, D, ell):
        ells.append(ell)
        return real(fan, D, ell)

    monkeypatch.setattr(frobtilt.frobenius, "pushforward_summands", recording)
    check(product(builtin("dP6").fan, P1))  # a fresh Fan: no cache carries over
    assert ells == []
