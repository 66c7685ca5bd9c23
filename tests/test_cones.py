import random

import pytest

from frobtilt.catalog import builtin, catalog_names
from frobtilt.cohomology import cohomology
from frobtilt.cones import FANO, NEF_FANO, NEITHER, bu_set, is_nef, nef_fano_status
from frobtilt.fan import TorusDivisor, canonical_divisor, divisor_class, product
from frobtilt.frobenius import frob_set
from frobtilt.lattice import dot
from oracles import (
    is_antinef, nef_by_support_function, nef_by_walls, principal_divisor, scrambled, solve_integer,
    subdivision_chain,
)

P1 = builtin("P1").fan
P2 = builtin("P2").fan
F1 = builtin("F1").fan
F2 = builtin("F2").fan
F3 = builtin("F3").fan
P1xP1 = builtin("P1xP1").fan

WALL_FANS = {name: builtin(name).fan for name in catalog_names()}
WALL_FANS.update({
    "dP6xP1": product(builtin("dP6").fan, P1),
    "dP6xP2": product(builtin("dP6").fan, P2),
    "BlptP3xP1": product(builtin("BlptP3").fan, P1),
    "chain4": subdivision_chain("P4", 8, 5),
})
# GL(n, Z) images with their rays reordered: no product, other wall relations
WALL_FANS.update({f"{name}-scrambled": scrambled(builtin(name).fan, 7) for name in catalog_names()})


# --- is_nef / is_antinef ------------------------------------------------------


@pytest.mark.parametrize("name", WALL_FANS)
def test_is_nef_matches_wall_curve_oracle(name):
    fan = WALL_FANS[name]
    rng = random.Random(f"walls-{name}")
    divisors = [TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays)) for _ in range(40)]
    divisors += [-canonical_divisor(fan), TorusDivisor(fan, (0,) * fan.n_rays)]
    nef, ample = nef_by_walls(-canonical_divisor(fan))
    assert nef_fano_status(fan) == (FANO if ample else NEF_FANO if nef else NEITHER)
    for D in divisors:
        v = is_nef(D)
        assert (v.is_nef, v.is_ample) == nef_by_walls(D)
        assert (v.is_nef, v.is_ample, v.failing) == nef_by_support_function(D)
        assert is_antinef(D) == nef_by_walls(-D)[0]
        if v.is_ample:
            assert v.failing is None
            continue
        # the reported pair violates (not nef) or meets (nef, not ample) its inequality
        ci, ri = v.failing
        cone = fan.max_cones[ci]
        assert ri not in cone
        m = solve_integer(fan.cone_matrix(cone), [-D.coeffs[i] for i in cone])
        val = dot(m, fan.rays[ri])
        assert val == -D.coeffs[ri] if v.is_nef else val < -D.coeffs[ri]


def test_p1_degree_criterion():
    v = is_nef(TorusDivisor(P1, (1, 0)))
    assert v.is_nef and v.is_ample
    v = is_nef(TorusDivisor(P1, (-1, 0)))
    assert not v.is_nef and not v.is_ample
    assert v.failing is not None


def test_f2_anticanonical_nef_not_ample():
    v = is_nef(-canonical_divisor(F2))
    assert v.is_nef and not v.is_ample
    assert v.failing is not None  # the equality wall


def test_zero_divisor_nef_not_ample():
    for fan in (P1, P2, F2, P1xP1):
        v = is_nef(TorusDivisor(fan, (0,) * fan.n_rays))
        assert v.is_nef and not v.is_ample


def test_antinef_trivials():
    assert is_antinef(TorusDivisor(P1, (-1, 0)))
    assert not is_antinef(TorusDivisor(P1, (1, 0)))
    assert is_antinef(TorusDivisor(P2, (0, 0, 0)))


def test_nef_class_invariance():
    rng = random.Random(11)
    for fan in (P2, F1, F2):
        for _ in range(10):
            D = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
            v0 = is_nef(D)
            for i in range(fan.dim):
                w = tuple(int(i == j) for j in range(fan.dim))
                v1 = is_nef(D + principal_divisor(fan, w))
                assert (v0.is_nef, v0.is_ample) == (v1.is_nef, v1.is_ample)
                assert v0.cls == v1.cls


def test_sum_of_nef_is_nef():
    rng = random.Random(12)
    for name in ("P2", "F1", "F2", "P1xP1"):
        fan = builtin(name).fan
        nef_divs = []
        for _ in range(60):
            D = TorusDivisor(fan, tuple(rng.randint(0, 2) for _ in fan.rays))
            if is_nef(D).is_nef:
                nef_divs.append(D)
            if len(nef_divs) >= 6:
                break
        for A in nef_divs:
            for B in nef_divs:
                assert is_nef(A + B).is_nef


def test_demazure_shadow_nef_implies_no_higher_cohomology():
    rng = random.Random(13)
    for name in ("P1", "P2", "F1", "F2", "P1xP1"):
        fan = builtin(name).fan
        for _ in range(25):
            D = TorusDivisor(fan, tuple(rng.randint(-2, 3) for _ in fan.rays))
            if is_nef(D).is_nef:
                dims = cohomology(fan, D).dims
                assert all(h == 0 for h in dims[1:]), (name, D.coeffs, dims)


# --- bu_set ----------------------------------------------------------------------


def test_bu_p2_is_all_of_frob():
    assert [c.coords for c in bu_set(P2)] == [(-2,), (-1,), (0,)]


def test_bu_p1xp1_all_four():
    assert len(bu_set(P1xP1)) == 4
    assert set(bu_set(P1xP1)) == set(frob_set(P1xP1).classes)


def test_bu_f1_explicit_classes():
    # f = fiber class of D3, s = class of D4 in the ray order of hirzebruch(1)
    f = divisor_class(TorusDivisor(F1, (0, 0, 1, 0)))
    s = divisor_class(TorusDivisor(F1, (0, 0, 0, 1)))
    zero = divisor_class(TorusDivisor(F1, (0, 0, 0, 0)))
    assert set(bu_set(F1)) == {zero, -f, -s, -f - s}


def test_bu_subset_of_frob_contains_trivial():
    for name in catalog_names():
        fan = builtin(name).fan
        bu = bu_set(fan)
        fs = frob_set(fan)
        assert set(bu) <= set(fs.classes)
        assert divisor_class(TorusDivisor(fan, (0,) * fan.n_rays)) in bu
        assert len(bu) <= len(fs)


def test_bu_set_refuses_a_frob_set_of_another_fan():
    # a product would read the other fan's classes at its own Picard positions
    for fan, other in [(F3, P2), (product(F3, F3), product(F3, P1))]:
        with pytest.raises(ValueError):
            bu_set(fan, frob_set(other))
    equal = product(F3, F3)
    assert bu_set(product(F3, F3), frob_set(equal)) == bu_set(equal)


def test_bu_sorted_lexicographically():
    for name in ("F2", "dP6", "P2xP2"):
        coords = [c.coords for c in bu_set(builtin(name).fan)]
        assert coords == sorted(coords)


# --- nef_fano_status ----------------------------------------------------------------


@pytest.mark.parametrize("left, right", [("F2", "F3"), ("F3", "F2"), ("F2", "P1"), ("F1", "P2"),
                                         ("F3", "F3"), ("P1", "P1")])
def test_product_status_matches_the_wall_oracle_on_the_product(left, right):
    fan = product(builtin(left).fan, builtin(right).fan)
    nef, ample = nef_by_walls(-canonical_divisor(fan))
    assert nef_fano_status(fan) == (FANO if ample else NEF_FANO if nef else NEITHER)


def test_status_examples():
    assert nef_fano_status(P2) == FANO
    assert nef_fano_status(F2) == NEF_FANO
    assert nef_fano_status(F3) == NEITHER


def test_f3_failure_is_at_the_steep_ray():
    v = is_nef(-canonical_divisor(F3))
    assert not v.is_nef
    ci, ri = v.failing
    assert ri == 2  # the (-1, 3) ray
    assert ri not in F3.max_cones[ci]


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_flags_match_computed_status(name):
    entry = builtin(name)
    assert nef_fano_status(entry.fan) == entry.expected
