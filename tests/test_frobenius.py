import importlib
import itertools
import random
import time
from collections import Counter

import pytest

from frobtilt.catalog import builtin, catalog_names
from frobtilt.fan import DivisorClass, TorusDivisor, divisor_class, principal_divisor, product
from frobtilt.frobenius import FrobSet, frob_set, minimal_stabilizing_ell, pushforward_summands
from frobtilt.lattice import dot
from oracles import chamber_walk, residue_walk, stabilizing_ell_from_one, summand_divisor

P1 = builtin("P1").fan
P2 = builtin("P2").fan
P1xP1 = builtin("P1xP1").fan
F1 = builtin("F1").fan


def h0_p1(d):
    """Closed-form sections of O(d) on the projective line."""
    return max(d + 1, 0)


def zero(fan):
    return TorusDivisor(fan, (0,) * fan.n_rays)


def degree_p1(cls):
    return cls.coords[0]


# --- pushforward_summands ---------------------------------------------------


def test_p1_ell2_splits_into_o_and_o_minus_1():
    counts = pushforward_summands(P1, zero(P1), 2)
    assert {c.coords: m for c, m in counts.items()} == {(0,): 1, (-1,): 1}


def test_p1_ell2_projection_formula_dimension_oracle():
    # h0 of the summand sum twisted by O(j) must match h0(O(2j))
    counts = pushforward_summands(P1, zero(P1), 2)
    for j in range(4):
        lhs = sum(m * h0_p1(degree_p1(c) + j) for c, m in counts.items())
        assert lhs == h0_p1(2 * j)


def test_ell1_is_identity():
    for fan in (P1, P2, P1xP1, F1):
        D = TorusDivisor(fan, tuple(range(1, fan.n_rays + 1)))
        counts = pushforward_summands(fan, D, 1)
        assert counts == Counter({divisor_class(D): 1})


def test_p2_ell2_and_ell3():
    counts2 = pushforward_summands(P2, zero(P2), 2)
    assert {c.coords: m for c, m in counts2.items()} == {(0,): 1, (-1,): 3}
    counts3 = pushforward_summands(P2, zero(P2), 3)
    assert counts3[divisor_class(TorusDivisor(P2, (0, 0, -2)))] > 0
    assert sum(counts3.values()) == 9


def test_p2_floor_formula_direct_enumeration_oracle():
    # independent re-derivation of the ell=3 multiset straight from floors
    expected = Counter()
    for u in itertools.product(range(3), repeat=2):
        b = tuple((u[0] * r[0] + u[1] * r[1]) // 3 for r in P2.rays)
        expected[divisor_class(TorusDivisor(P2, b))] += 1
    assert pushforward_summands(P2, zero(P2), 3) == expected


@pytest.mark.parametrize("name", catalog_names())
def test_run_walk_matches_residue_walk_on_catalog(name):
    # P1 has an empty prefix; every other catalog fan has a ray whose last
    # coordinate is 0.  Coefficients up to 7 reach negative floors and |a| > ell.
    fan = builtin(name).fan
    rng = random.Random(f"run-walk {name}")
    for ell in range(1, 13):
        if ell ** fan.dim > 20_736:
            break
        seeded = TorusDivisor(fan, tuple(rng.randint(-7, 7) for _ in fan.rays))
        for D in (zero(fan), seeded):
            counts = pushforward_summands(fan, D, ell)
            assert dict(counts) == dict(residue_walk(fan, D, ell)), (ell, D.coeffs)


def steps_coincide(fan, D, ell):
    """Whether two rays' floors step between the same residues (u', x - 1) and (u', x)."""
    for u in itertools.product(range(ell), repeat=fan.dim):
        if u[-1]:
            before = u[:-1] + (u[-1] - 1,)
            stepping = [
                (a + dot(u, ray)) // ell != (a + dot(before, ray)) // ell
                for a, ray in zip(D.coeffs, fan.rays)
            ]
            if sum(stepping) >= 2:
                return True
    return False


# One ell above 12 per dimension that keeps the oracle within 10^4 residues,
# coefficients beyond ell, and two rays whose floors step at the same x.
@pytest.mark.parametrize(
    "name, ell, coeffs",
    [
        ("P1", 97, (-150, 246)),
        ("P2", 40, (-110, 101, -56)),
        ("dP6", 41, (76, 21, 108, -7, -90, -37)),
        ("BlptP3", 21, (32, -34, -41, 0, 33)),
    ],
)
def test_run_walk_matches_residue_walk_at_coinciding_breakpoints(name, ell, coeffs):
    fan = builtin(name).fan
    D = TorusDivisor(fan, coeffs)
    assert ell > 12 and ell ** fan.dim <= 10_000 and max(map(abs, coeffs)) > ell
    assert steps_coincide(fan, D, ell)
    counts = pushforward_summands(fan, D, ell)
    walk = residue_walk(fan, D, ell)
    assert dict(counts) == dict(walk)
    assert list(counts) == list(walk)


@pytest.mark.parametrize("coeffs", [(0, 0, 0), (-7, 3, 5)])
def test_run_walk_reduces_each_ray_once(monkeypatch, coeffs):
    # the class map is linear: n_rays reductions, whatever ell is
    frobenius = importlib.import_module("frobtilt.frobenius")
    calls = []

    def counted(D):
        calls.append(D)
        return divisor_class(D)

    monkeypatch.setattr(frobenius, "divisor_class", counted)
    ell = 1000
    counts = pushforward_summands(P2, TorusDivisor(P2, coeffs), ell)
    assert len(calls) <= P2.n_rays
    assert sum(counts.values()) == ell ** P2.dim


# F1 and P1xP1 both have 4 rays; P2 has fewer coefficients than F1 has rays.
@pytest.mark.parametrize(
    "fan, D",
    [(P1xP1, TorusDivisor(F1, (1, 0, 0, 0))), (F1, TorusDivisor(P2, (1, 0, 0)))],
    ids=["same-ray-count", "fewer-coefficients"],
)
def test_pushforward_rejects_a_divisor_of_another_fan(fan, D):
    with pytest.raises(ValueError, match="not on this fan"):
        pushforward_summands(fan, D, 2)


@pytest.mark.parametrize("name", ["P1", "P2", "P1xP1", "F1", "F2"])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_multiplicity_conservation(name, ell):
    fan = builtin(name).fan
    D = TorusDivisor(fan, tuple((-1) ** i for i in range(fan.n_rays)))
    counts = pushforward_summands(fan, D, ell)
    assert sum(counts.values()) == ell ** fan.dim


def test_residue_representative_independence():
    # shifting u by ell*w shifts the divisor by a principal divisor
    for fan in (P2, F1):
        ell = 3
        for u in itertools.product(range(ell), repeat=fan.dim):
            for w in ((1, 0), (0, 1), (2, -1)):
                u2 = tuple(a + ell * b for a, b in zip(u, w))
                d1 = summand_divisor(fan, zero(fan), ell, u)
                d2 = summand_divisor(fan, zero(fan), ell, u2)
                assert divisor_class(d1) == divisor_class(d2)
                assert (d2 - d1).coeffs == principal_divisor(fan, w).coeffs


@pytest.mark.parametrize("name", ["P1", "P2", "P1xP1", "F1", "F2", "F3", "dP6"])
@pytest.mark.parametrize("ell", [2, 3])
def test_rank_level_projection_formula(name, ell):
    # sum of h^0 over summands twisted by nef E equals h^0(D + ell*E)
    from frobtilt.cohomology import cohomology
    from frobtilt.cones import is_nef

    fan = builtin(name).fan
    nef_divs = [
        D
        for D in (
            TorusDivisor(fan, (1,) * fan.n_rays),
            TorusDivisor(fan, (1, 0) + (1,) * (fan.n_rays - 2)),
            zero(fan),
        )
        if is_nef(D).is_nef
    ]
    for D in (zero(fan), TorusDivisor(fan, tuple(i % 2 for i in range(fan.n_rays)))):
        counts = pushforward_summands(fan, D, ell)
        for E in nef_divs:
            lhs = sum(
                mult * cohomology(fan, B.representative() + E).dims[0]
                for B, mult in counts.items()
            )
            rhs = cohomology(fan, D + ell * E).dims[0]
            assert lhs == rhs, (name, ell, D.coeffs, E.coeffs)


# --- frob_set -----------------------------------------------------------------


def sweep_union(fan, max_ell):
    out = set()
    for ell in range(1, max_ell + 1):
        out |= set(pushforward_summands(fan, zero(fan), ell))
    return out


def test_frob_p1():
    assert {c.coords for c in frob_set(P1)} == {(0,), (-1,)}


def test_frob_p2():
    assert {c.coords for c in frob_set(P2)} == {(0,), (-1,), (-2,)}


def test_frob_p1xp1():
    assert {c.coords for c in frob_set(P1xP1)} == {(0, 0), (-1, 0), (0, -1), (-1, -1)}


def test_frob_f1_size():
    assert len(frob_set(F1)) == 4


@pytest.mark.parametrize("name", catalog_names())
def test_chamber_and_sweep_agree(name):
    fan = builtin(name).fan
    max_ell = 12 if fan.dim <= 3 else 8
    assert set(frob_set(fan).classes) == sweep_union(fan, max_ell)


def test_chamber_walk_reuses_the_parent_point(monkeypatch):
    # frob_set against the walk with one LP at every node: the same classes,
    # the same minimal witness ells, and fewer LPs.
    frobenius = importlib.import_module("frobtilt.frobenius")
    real = frobenius.feasible_point
    calls = []

    def counted(S):
        calls.append(S)
        return real(S)

    monkeypatch.setattr(frobenius, "feasible_point", counted)
    nodes = 0
    for fan in [builtin(name).fan for name in catalog_names()] + [product(builtin("dP6").fan, P1)]:
        expected, visited = chamber_walk(fan)
        nodes += visited
        fs = frob_set(fan)
        assert {w.cls: w.min_ell for w in fs.witnesses} == expected
    assert len(calls) < nodes


def test_frob_contains_trivial_class_with_witness_one():
    for name in ("P2", "F2", "dP6"):
        fan = builtin(name).fan
        fs = frob_set(fan)
        trivial = divisor_class(zero(fan))
        assert trivial in fs
        w = next(w for w in fs.witnesses if w.cls == trivial)
        assert w.min_ell == 1


def test_witness_ells_are_minimal():
    fs = frob_set(P2)
    by_coords = {w.cls.coords: w.min_ell for w in fs.witnesses}
    assert by_coords == {(0,): 1, (-1,): 2, (-2,): 3}


def test_witness_sweep_fails_instead_of_looping_on_a_missed_class(monkeypatch):
    # A pushforward that never yields P2's class (-1,) must end the sweep at
    # the chamber's witness ell with an error, not run on forever.
    frobenius = importlib.import_module("frobtilt.frobenius")
    real = frobenius.pushforward_summands

    def dropping(fan, D, ell):
        counts = real(fan, D, ell)
        counts.pop(DivisorClass((-1,), fan), None)
        return counts

    monkeypatch.setattr(frobenius, "pushforward_summands", dropping)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="missed a chamber class"):
        frob_set(P2).witnesses
    assert time.perf_counter() - start < 1


def pushforward_ells(monkeypatch):
    """Wrap the library's pushforward; the returned list records each ell walked."""
    frobenius = importlib.import_module("frobtilt.frobenius")
    real = frobenius.pushforward_summands
    ells = []

    def recording(fan, D, ell):
        ells.append(ell)
        return real(fan, D, ell)

    monkeypatch.setattr(frobenius, "pushforward_summands", recording)
    return ells


def test_frob_set_walks_no_pushforward_and_sweeps_witnesses_once(monkeypatch):
    ells = pushforward_ells(monkeypatch)
    fan = product(builtin("dP6").fan, P1)
    fs = frob_set(fan)
    assert len(fs) == len(fs.classes) and divisor_class(zero(fan)) in fs
    assert ells == []
    first = fs.witnesses
    swept = list(range(1, max(w.min_ell for w in first) + 1))
    assert ells == swept
    assert fs.witnesses is first and ells == swept


def test_frob_set_equality_ignores_chamber_ells():
    fs = frob_set(P2)
    other = FrobSet(fs.fan, fs.classes, tuple(2 * e for e in fs.chamber_ells))
    assert fs == other and hash(fs) == hash(other) and repr(fs) == repr(other)
    assert "chamber_ells" not in repr(fs)


@pytest.mark.parametrize("name", ["P2", "dP6", "BlptP3"])
def test_stabilize_walks_each_ell_once(monkeypatch, name):
    ells = pushforward_ells(monkeypatch)
    ell = minimal_stabilizing_ell(builtin(name).fan)
    assert ells == list(range(1, ell + 1))


def test_ell_sweeps_refuse_an_ell_beyond_the_residue_bound(monkeypatch):
    # P2's largest chamber ell and its stabilizing ell are 3: 3^2 = 9 residues
    ells = pushforward_ells(monkeypatch)
    frobenius = importlib.import_module("frobtilt.frobenius")
    monkeypatch.setattr(frobenius, "MAX_FROB_RESIDUES", 8)
    fs = frob_set(P2)
    with pytest.raises(ValueError, match=r"^ell = 3 walks ell\^dim = 3\^2 = 9 residues"):
        fs.witnesses
    assert ells == []
    with pytest.raises(ValueError, match="ell = 3"):
        minimal_stabilizing_ell(P2)
    assert ells == [1, 2, 3]  # the pushforward at ell = 3 refuses before it walks
    monkeypatch.setattr(frobenius, "MAX_FROB_RESIDUES", 9)
    assert max(w.min_ell for w in frob_set(P2).witnesses) == 3
    assert minimal_stabilizing_ell(P2) == 3


def test_pushforward_refuses_an_ell_beyond_the_residue_bound_before_walking(monkeypatch):
    frobenius = importlib.import_module("frobtilt.frobenius")
    reduced = []
    real = frobenius.divisor_class
    monkeypatch.setattr(frobenius, "divisor_class", lambda D: reduced.append(D) or real(D))
    P4 = builtin("P4").fan
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^ell = 10000 walks ell\^dim = 10000\^4 = "):
        pushforward_summands(P4, zero(P4), 10_000)
    assert time.perf_counter() - start < 1
    assert reduced == []
    monkeypatch.setattr(frobenius, "MAX_FROB_RESIDUES", 16)
    assert sum(pushforward_summands(P4, zero(P4), 2).values()) == 16
    with pytest.raises(ValueError, match="^ell = 3 walks "):
        pushforward_summands(P4, zero(P4), 3)


def test_frob_classes_sorted():
    for name in ("P2", "F1", "dP6"):
        coords = [c.coords for c in frob_set(builtin(name).fan).classes]
        assert coords == sorted(coords)


# --- minimal_stabilizing_ell -----------------------------------------------------


def test_stabilizing_ell_examples():
    assert minimal_stabilizing_ell(P1) == 2
    assert minimal_stabilizing_ell(P2) == 3
    assert minimal_stabilizing_ell(P1xP1) == 2


def test_stabilizing_ell_is_least():
    for fan, expected in ((P1, 2), (P2, 3)):
        for ell in range(1, expected):
            assert not set(frob_set(fan).classes) <= set(
                pushforward_summands(fan, zero(fan), ell)
            )
        assert set(frob_set(fan).classes) <= set(
            pushforward_summands(fan, zero(fan), expected)
        )


@pytest.mark.parametrize("name", catalog_names())
def test_stabilizing_ell_finite_on_catalog(name):
    fan = builtin(name).fan
    ell = minimal_stabilizing_ell(fan)
    assert ell >= 1
    assert set(frob_set(fan).classes) <= set(pushforward_summands(fan, zero(fan), ell))


PRODUCTS = {"dP6xP1": ("dP6", "P1"), "dP6xP2": ("dP6", "P2"), "BlptP3xP1": ("BlptP3", "P1")}


@pytest.mark.parametrize("name", list(catalog_names()) + list(PRODUCTS))
def test_stabilizing_ell_matches_search_from_one(name):
    if name in PRODUCTS:
        fan = product(*(builtin(f).fan for f in PRODUCTS[name]))
    else:
        fan = builtin(name).fan
    assert minimal_stabilizing_ell(fan) == stabilizing_ell_from_one(fan)
