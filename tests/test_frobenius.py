import importlib
import itertools
import math
import random
import time
from collections import Counter

import pytest

from frobtilt.catalog import builtin, catalog_names
from frobtilt.fan import (
    DivisorClass, TorusDivisor, divisor_class, product, projective_space,
)
from frobtilt.frobenius import (
    FrobSet, _chamber_leaves, _realizes, frob_set, minimal_stabilizing_ell, pushforward_summands,
)
from frobtilt.lattice import dot
from oracles import (
    chamber_leaves, chamber_walk, principal_divisor, residue_walk, scrambled,
    stabilizing_ell_from_one, subdivision_chain, summand_divisor,
)

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
            walk = residue_walk(fan, D, ell)
            assert dict(counts) == dict(walk), (ell, D.coeffs)
            assert list(counts) == sorted(walk), (ell, D.coeffs)


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
    assert list(counts) == sorted(walk)


# Products and P^n, where prefixes with equal live-ray remainders merge, and
# the subdivision chains, where nearly every prefix keeps a state of its own;
# then the fans of dimension <= 2, summed piece by piece over y: every
# catalog surface, P1, and two chains from F3, one with lcm |v_rho[1]| = 60
# below every ell here and one with 420 above them, one piece per y.
SURFACES = [(name, builtin(name).fan) for name in catalog_names() if builtin(name).fan.dim == 2]
SURFACES += [("F3-chain-L60", subdivision_chain("F3", 4, 0)), ("F3-chain-L420", subdivision_chain("F3", 4, 5))]


@pytest.mark.parametrize(
    "fan, ell",
    [
        pytest.param(P1xP1, 97, id="P1xP1"),
        pytest.param(builtin("P1xP2").fan, 21, id="P1xP2"),
        pytest.param(builtin("P1xP1xP1").fan, 21, id="P1xP1xP1"),
        pytest.param(builtin("P2xP2").fan, 10, id="P2xP2"),
        pytest.param(product(builtin("dP6").fan, P1), 21, id="dP6xP1"),
        pytest.param(builtin("P3").fan, 21, id="P3"),
        pytest.param(builtin("P4").fan, 10, id="P4"),
        pytest.param(subdivision_chain("P4", 8, 5), 10, id="P4-chain13"),
        pytest.param(subdivision_chain("P3", 6, 2), 21, id="P3-chain10"),
        pytest.param(P1, 97, id="P1-97"),
        *(
            pytest.param(fan, ell, id=f"{name}-{ell}")
            for name, fan in SURFACES
            for ell in (61, 97, 100)
            if (name, ell) != ("P1xP1", 97)
        ),
    ],
)
def test_level_walk_matches_residue_walk_where_states_merge_or_not(fan, ell):
    rng = random.Random(f"level walk {fan.rays}")
    D = TorusDivisor(fan, tuple(rng.randint(-3 * ell, 3 * ell) for _ in fan.rays))
    assert ell ** fan.dim <= 10_000 and max(map(abs, D.coeffs)) > ell
    counts = pushforward_summands(fan, D, ell)
    walk = residue_walk(fan, D, ell)
    assert dict(counts) == dict(walk)
    assert list(counts) == sorted(walk)


def projective_closed_form(n, ell):
    """{k: multiplicity of O(-k)} in the pushforward of O on P^n.

    The residue u has floors 0 on e_1..e_n and -ceil(s / ell) on the last
    ray, s = sum(u); N(s) residues in [0, ell)^n have sum s, by inclusion
    and exclusion over the coordinates that reach ell.
    """
    out = Counter()
    for s in range(n * (ell - 1) + 1):
        out[-(-s // ell)] += sum(
            (-1) ** i * math.comb(n, i) * math.comb(s - i * ell + n - 1, n - 1)
            for i in range(s // ell + 1)
        )
    return out


@pytest.mark.parametrize("n, ell", [(2, 3), (3, 7), (4, 5), (3, 100), (4, 31)])
def test_projective_space_pushforward_has_a_closed_form(n, ell):
    # the residue walk checks the closed form where it can; ell = 100 on P3
    # and ell = 31 on P4 are 10^6 and 923,521 residues, beyond its reach
    fan = projective_space(n)
    expected = {
        divisor_class(TorusDivisor(fan, (0,) * n + (-k,))): m
        for k, m in projective_closed_form(n, ell).items()
    }
    if ell ** n <= 10_000:
        assert dict(residue_walk(fan, zero(fan), ell)) == expected
    assert dict(pushforward_summands(fan, zero(fan), ell)) == expected


@pytest.mark.parametrize("left, right", [("dP6", "P2"), ("BlptP3", "P1"), ("P2", "P2")])
def test_pushforward_on_a_product_convolves_its_factors(left, right):
    # residues and floors split by factor, so F_ell*(O(D_X) x O(D_Y)) is the
    # sum over pairs of factor summands, each pair's representatives joined
    X, Y = builtin(left).fan, builtin(right).fan
    fan, ell = product(X, Y), 31
    rng = random.Random(f"convolution {left} {right}")
    DX = TorusDivisor(X, tuple(rng.randint(-2 * ell, 2 * ell) for _ in X.rays))
    DY = TorusDivisor(Y, tuple(rng.randint(-2 * ell, 2 * ell) for _ in Y.rays))
    expected = Counter()
    for cx, mx in residue_walk(X, DX, ell).items():
        for cy, my in residue_walk(Y, DY, ell).items():
            joined = cx.representative().coeffs + cy.representative().coeffs
            expected[divisor_class(TorusDivisor(fan, joined))] += mx * my
    counts = pushforward_summands(fan, TorusDivisor(fan, DX.coeffs + DY.coeffs), ell)
    assert dict(counts) == dict(expected)
    assert sum(counts.values()) == ell ** fan.dim


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


@pytest.mark.parametrize("name", ["dP6", "F3"])
def test_piece_walk_does_not_grow_with_ell(monkeypatch, name):
    # Along one residue class of y mod step, a piece ends where a floor at
    # x = 0 or x = ell - 1 moves, at most |v_rho[0]| times each, or where
    # two breakpoints cross.  A ray's breakpoint for one k is affine in y on
    # the whole class and it has at most |v_rho[0]| + |v_rho[1]| of them, so
    # each pair crosses at most once: a bound with no ell in it.
    pieces = recorded_calls(monkeypatch, "_piece")
    fan = builtin(name).fan
    step = math.lcm(*(abs(g) for _, g in fan.rays if g))
    moves = sum(2 * abs(h) for h, _ in fan.rays)
    lines = sum(abs(h) + abs(g) for h, g in fan.rays if g)
    bound = step * (1 + moves + lines * (lines - 1) // 2)
    rng = random.Random(f"pieces {name}")
    for ell in (97, 997):
        for D in (zero(fan), TorusDivisor(fan, tuple(rng.randint(-3000, 3000) for _ in fan.rays))):
            pieces.clear()
            counts = pushforward_summands(fan, D, ell)
            assert sum(counts.values()) == ell**2
            assert 1 <= len(pieces) <= bound, (ell, D.coeffs)


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
    # every chamber child warm-starts from its parent's tableau, so frob_set
    # solves no LP from scratch, and its minimal witness ells are the walk's
    # with one LP at every node.
    lattice = importlib.import_module("frobtilt.lattice")
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)
        return wrapper

    monkeypatch.setattr(lattice, "feasible_point", counted(lattice.feasible_point))
    fans = [builtin(name).fan for name in catalog_names()]
    for fan in fans + [product(builtin("dP6").fan, P1), projective_space(5), projective_space(6)]:
        expected = chamber_walk(fan)
        calls.clear()
        fs = frob_set(fan)
        assert {w.cls: w.min_ell for w in fs.witnesses} == expected
        assert calls == []


@pytest.mark.parametrize("base,steps,seed", [
    ("P2", 3, 1), ("P2", 5, 2), ("P2", 7, 3), ("P3", 2, 4), ("P3", 4, 5), ("P3", 6, 6),
])
def test_warm_walk_finds_the_oracle_leaves(base, steps, seed):
    # chains of up to 10 rays: the same floor vectors as the walk with an LP
    # at every node, and each leaf's cell has a point at its chamber ell
    fan = subdivision_chain(base, steps, seed)
    leaves = _chamber_leaves(fan)
    assert sorted(b for b, _ in leaves) == sorted(chamber_leaves(fan))
    assert all(_realizes(fan, b, ell) for b, ell in leaves)


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


def closed_form_witness_ell(n, k):
    """The least ell at which O(-k) splits off the pushforward of O on P^n.

    A residue u has class O(-k) iff (k-1)*ell < sum(u) <= k*ell, and
    sum(u) <= n*(ell-1), so k >= 1 needs ell*(n+1-k) > n.
    """
    return n // (n + 1 - k) + 1 if k else 1


@pytest.mark.parametrize("n", range(1, 9))
def test_projective_space_witness_and_stabilizing_ells_have_closed_forms(n):
    fs = frob_set(projective_space(n))
    assert {w.cls.coords: w.min_ell for w in fs.witnesses} == {
        (-k,): closed_form_witness_ell(n, k) for k in range(n + 1)
    }
    assert minimal_stabilizing_ell(projective_space(n)) == n + 1


def miss_p2_class(monkeypatch):
    """P2's frob set, with the cell test patched to never find its class (-1,)."""
    frobenius = importlib.import_module("frobtilt.frobenius")
    fs = frob_set(P2)
    ((missed, _),) = fs.cells[fs.classes.index(DivisorClass((-1,), P2))]
    real = frobenius._realizes
    monkeypatch.setattr(frobenius, "_realizes",
                        lambda fan, b, ell: b != missed and real(fan, b, ell))
    return fs


def test_witnesses_fail_on_a_leaf_whose_cell_has_no_point(monkeypatch):
    # A cell test that never finds P2's class (-1,) must end that leaf's
    # search at its chamber ell with an error.
    fs = miss_p2_class(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="no residue at its chamber ell"):
        fs.witnesses
    assert time.perf_counter() - start < 1


def test_stabilize_fails_on_a_class_whose_cells_have_no_point(monkeypatch):
    # the stabilizing search is the witness sweep over every class, ended at
    # the lcm of the chamber ells
    miss_p2_class(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="no residue at its chamber ell"):
        minimal_stabilizing_ell(P2)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", ["P2", "dP6", "F3", "P3", "BlptP3"])
def test_witness_and_stabilizing_ells_on_classes_with_several_leaves(name):
    # On the catalog fans every class has one leaf.  A scrambled copy cuts the
    # cube along other hyperplanes, so a class's residues fall into several
    # chambers; seed 3 maps dP6's hexagon onto itself, seed 5 splits every fan.
    fan = builtin(name).fan
    copy = scrambled(fan, 5)
    fs = frob_set(copy)
    assert max(len(leaves) for leaves in fs.cells) >= 2
    witnesses = {w.cls: w.min_ell for w in fs.witnesses}
    assert witnesses == chamber_walk(copy)
    ell = minimal_stabilizing_ell(copy)
    assert ell == stabilizing_ell_from_one(copy)
    assert sorted(witnesses.values()) == sorted(w.min_ell for w in frob_set(fan).witnesses)
    assert ell == minimal_stabilizing_ell(fan)


@pytest.mark.parametrize("name", ["P2", "dP6", "BlptP3", "P2xP2"])
def test_frob_set_and_stabilize_walk_no_pushforward(monkeypatch, name):
    frobenius = importlib.import_module("frobtilt.frobenius")
    pushed, tests = [], []
    for attr, record in (("pushforward_summands", pushed), ("_realizes", tests)):
        real = getattr(frobenius, attr)
        monkeypatch.setattr(frobenius, attr, lambda *args, real=real, record=record:
                            record.append(args) or real(*args))
    fan = builtin(name).fan
    fs = frob_set(fan)
    assert len(fs) == len(fs.classes) and divisor_class(zero(fan)) in fs
    assert tests == []
    first = fs.witnesses
    decided = len(tests)
    assert decided >= len(fs)
    assert fs.witnesses is first and len(tests) == decided
    assert minimal_stabilizing_ell(fan) >= max(w.min_ell for w in first)
    assert pushed == []


def recorded_calls(monkeypatch, attr):
    """Wrap a frobenius function; the returned list records each call's arguments."""
    frobenius = importlib.import_module("frobtilt.frobenius")
    real = getattr(frobenius, attr)
    calls = []
    monkeypatch.setattr(frobenius, attr, lambda *args: calls.append(args) or real(*args))
    return calls


def test_frob_set_walks_no_pushforward_and_sweeps_witnesses_once(monkeypatch):
    pushed = recorded_calls(monkeypatch, "pushforward_summands")
    tests = recorded_calls(monkeypatch, "_realizes")
    fan = product(builtin("dP6").fan, P1)
    fs = frob_set(fan)
    assert len(fs) == len(fs.classes) and divisor_class(zero(fan)) in fs
    assert tests == []
    first = fs.witnesses
    decided = len(tests)
    assert decided >= len(fs)
    assert fs.witnesses is first and len(tests) == decided
    assert pushed == []


@pytest.mark.parametrize("name", ["P2", "dP6", "BlptP3"])
def test_stabilize_walks_each_ell_once(monkeypatch, name):
    # the cell tests run ell by ell upward: each ell is one pass, never revisited
    pushed = recorded_calls(monkeypatch, "pushforward_summands")
    tests = recorded_calls(monkeypatch, "_realizes")
    ell = minimal_stabilizing_ell(builtin(name).fan)
    ells = [e for _, _, e in tests]
    assert ells == sorted(ells)
    assert list(dict.fromkeys(ells)) == list(range(1, ell + 1))
    assert pushed == []


def test_ell_searches_ignore_the_residue_bound(monkeypatch):
    # MAX_FROB_RESIDUES bounds pushforward_summands alone
    frobenius = importlib.import_module("frobtilt.frobenius")
    monkeypatch.setattr(frobenius, "MAX_FROB_RESIDUES", 0)
    with pytest.raises(ValueError, match=r"^ell = 1 walks "):
        pushforward_summands(P2, zero(P2), 1)
    assert max(w.min_ell for w in frob_set(P2).witnesses) == 3
    assert minimal_stabilizing_ell(P2) == 3


def test_frob_set_equality_ignores_cells():
    fs = frob_set(P2)
    other = FrobSet(fs.fan, fs.classes, tuple(
        leaves + tuple((b, 2 * ell) for b, ell in leaves) for leaves in fs.cells
    ))
    assert fs == other and hash(fs) == hash(other) and repr(fs) == repr(other)
    assert "cells" not in repr(fs)


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


@pytest.mark.parametrize("name", ["P4", "P2xP2"])
def test_pushforward_walks_the_last_coordinate_once_per_remainder_key(monkeypatch, name):
    # one ray mixes P4's coordinates, and P2xP2's second factor is walked with
    # the first factor settled, so the last level holds at most ell keys of
    # two stepping rays: 2*ell breakpoint walks, where each prefix took two
    breakpoints = recorded_calls(monkeypatch, "_breakpoints")
    fan, ell = builtin(name).fan, 31
    D = TorusDivisor(fan, tuple(range(-2, fan.n_rays - 2)))
    counts = pushforward_summands(fan, D, ell)
    assert sum(counts.values()) == ell ** fan.dim
    assert len(breakpoints) <= 2 * ell


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


@pytest.mark.parametrize("name", list(catalog_names()) + list(PRODUCTS) + ["P5", "P6"])
def test_stabilizing_ell_matches_search_from_one(name):
    if name in PRODUCTS:
        fan = product(*(builtin(f).fan for f in PRODUCTS[name]))
    elif name in ("P5", "P6"):
        fan = projective_space(int(name[1:]))
    else:
        fan = builtin(name).fan
    assert minimal_stabilizing_ell(fan) == stabilizing_ell_from_one(fan)
