import gc
import importlib
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from frobtilt.catalog import builtin, catalog_names
from frobtilt.cohomology import cohomology
from frobtilt.fan import (
    DivisorClass,
    Fan,
    InvalidFanError,
    TorusDivisor,
    canonical_divisor,
    cartier_data,
    divisor_class,
    hirzebruch,
    product,
    projective_space,
    star_subdivision,
    validate,
)
from frobtilt.frobenius import frob_set, pushforward_summands
from frobtilt.lattice import dot
from frobtilt.tilting import orlov_check
from oracles import (
    catalog_copies_and_chains, cone_contains, cone_inverses, first_lattice_basis,
    hermite_normal_form, principal_divisor, scrambled, subdivision_chain, validate_by_adjugates,
)


fan_module = importlib.import_module("frobtilt.fan")
P1 = projective_space(1)
P2 = projective_space(2)
F1 = hirzebruch(1)
P1xP1 = product(P1, P1)


def fans_isomorphic(f, g):
    """Search for a unimodular map + relabeling identifying the fans."""
    if f.dim != g.dim or f.n_rays != g.n_rays or len(f.max_cones) != len(g.max_cones):
        return False
    n = f.dim
    basis = next(
        (c for c in f.max_cones if abs(_det(tuple(f.rays[i] for i in c))) == 1), None
    )
    if basis is None:
        return False
    _, B_inv = hermite_normal_form(tuple(f.rays[i] for i in basis))  # H = I: unimodular
    for image in itertools.permutations(range(g.n_rays), n):
        # U.B[k] = g.rays[image[k]] for each k, so U = C^T.(B^-1)^T with C's rows the images
        C = [g.rays[image[k]] for k in range(n)]
        U = tuple(tuple(dot(col, inv_row) for inv_row in B_inv) for col in zip(*C))
        mapped = [tuple(dot(row, r) for row in U) for r in f.rays]
        if sorted(mapped) != sorted(g.rays):
            continue
        perm = {i: g.rays.index(m) for i, m in enumerate(mapped)}
        cones = sorted(tuple(sorted(perm[i] for i in c)) for c in f.max_cones)
        if cones == sorted(g.max_cones):
            return True
    return False


def _det(rows):
    from frobtilt.lattice import determinant

    return determinant(rows)


# --- validate -------------------------------------------------------------


def test_p2_valid_smooth_complete():
    rep = validate(P2)
    assert rep.ok and rep.smooth and rep.complete


def test_non_smooth_cone_detected():
    f = Fan(2, ((1, 0), (1, 2)), ((0, 1),))
    rep = validate(f)
    assert not rep.smooth
    assert any("determinant 2" in msg for msg in rep.failures)


def test_p1xp1_valid():
    assert validate(P1xP1).ok


def test_p1_valid():
    assert validate(P1).ok


def test_incomplete_fan_flagged():
    f = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    rep = validate(f)
    assert not rep.complete and not rep.ok


def test_folded_fan_flagged_by_local_injectivity():
    # cyclic unimodular cones that fold back: the generic direction (1, 1)
    # lies in one cone, but (3, -1) lies in three
    rays = ((1, 0), (-2, -1), (-1, 0), (-2, 1), (-1, 1), (2, -1))
    f = Fan(2, rays, tuple((i, (i + 1) % 6) for i in range(6)))
    rep = validate(f)
    assert rep.smooth and rep.ridge_paired and rep.connected
    assert not rep.complete
    assert rep.failures == ("rays 1 and 5 lie on the same side of ridge (0,)",)
    assert sum(cone_contains(f, c, (3, -1)) for c in f.max_cones) == 3


def test_nonprimitive_ray_flagged():
    f = Fan(2, ((2, 0), (0, 1), (-2, -1)), ((0, 1), (1, 2), (2, 0)))
    rep = validate(f)
    assert not rep.primitive


@pytest.mark.parametrize("bad", [1.9, Fraction(19, 10), "1"])
def test_fan_rejects_non_integer_rays_and_cones(bad):
    # int() would truncate 1.9 to 1 and validate the fan of P2
    with pytest.raises(TypeError):
        Fan(2, ((bad, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(TypeError):
        Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, bad), (1, 2), (2, 0)))


def test_catalog_style_invariant_rank_pic():
    for f in (P1, P2, F1, P1xP1, projective_space(3)):
        assert f.picard_rank == f.n_rays - f.dim


def _solve_fraction(M, x):
    """lam with sum lam_k M[k] = x, by Gauss-Jordan over the rationals."""
    n = len(M)
    A = [[Fraction(M[k][i]) for k in range(n)] + [Fraction(x[i])] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if A[i][c])
        A[c], A[piv] = A[piv], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for i in range(n):
            if i != c:
                A[i] = [v - A[i][c] * w for v, w in zip(A[i], A[c])]
    return [row[n] for row in A]


def test_cone_contains_matches_rational_solve():
    # random directions, plus points on the cones' faces (some lam_k = 0)
    wedge = Fan(2, ((1, 0), (1, 3), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    fans = [builtin(n).fan for n in catalog_names()]
    fans += [product(builtin("dP6").fan, P2), wedge]
    rng = random.Random(17)
    inside = 0
    for fan in fans:
        for cone in fan.max_cones:
            M = fan.cone_matrix(cone)
            for _ in range(12):
                if rng.random() < 0.5:
                    x = tuple(rng.randint(-9, 9) for _ in range(fan.dim))
                else:
                    lam = [rng.choice((0, 0, 1, 2, -1)) for _ in M]
                    x = tuple(sum(l * r[i] for l, r in zip(lam, M)) for i in range(fan.dim))
                expected = all(v >= 0 for v in _solve_fraction(M, x))
                assert cone_contains(fan, cone, x) == expected, (fan.rays, cone, x)
                inside += expected
    assert inside > 0


WALK_FANS = {name: lambda name=name: builtin(name).fan for name in catalog_names()}
WALK_FANS.update({f"{name}-scrambled-{seed}": lambda name=name, seed=seed: scrambled(builtin(name).fan, seed)
                  for name in catalog_names() for seed in (1, 2)})
WALK_FANS["dP6xP2-scrambled"] = lambda: scrambled(product(builtin("dP6").fan, P2), 3)
WALK_FANS["chain4"] = lambda: subdivision_chain("P4", 8, 5)


@pytest.mark.parametrize("name", WALK_FANS)
def test_ridge_walk_inverts_every_cone_as_the_adjugates_do(name):
    fan = WALK_FANS[name]()
    fresh = Fan(fan.dim, fan.rays, fan.max_cones)
    assert validate(fresh) == validate_by_adjugates(fresh) and fresh.validation.ok
    assert fresh._cone_inverses == cone_inverses(fresh)
    ridges, _, flips, seeds = fresh._ridge_walk
    assert seeds == 1 and len(flips) == len(ridges)
    # one wall relation per ridge: v_o1 + v_o2 - sum_{i != o1} y_i v_i = 0
    for ci, k, o2, y in flips.values():
        cone = fresh.max_cones[ci]
        wall = [(cone[k], 1), (o2, 1),
                *((i, -yi) for j, (i, yi) in enumerate(zip(cone, y)) if j != k)]
        assert all(sum(c * fresh.rays[i][d] for i, c in wall) == 0 for d in range(fan.dim))


def test_the_walk_computes_one_adjugate_on_a_connected_fan(monkeypatch):
    calls = []
    real = fan_module.adjugate
    monkeypatch.setattr(fan_module, "adjugate", lambda A: calls.append(A) or real(A))
    fan = subdivision_chain("P4", 8, 5)
    validate(Fan(fan.dim, fan.rays, fan.max_cones))
    assert len(calls) == 1
    # cones of determinant 3 and 2 are crossed too: one adjugate, the oracle's report
    calls.clear()
    wedge = Fan(2, ((1, 0), (1, 3), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    assert validate(wedge) == validate_by_adjugates(wedge)
    assert len(calls) == 1 and [det for det, _ in wedge._ridge_walk[1]] == [3, -1, 2]


# --- divisor_class ----------------------------------------------------------


@pytest.mark.parametrize("bad", [-2.5, Fraction(-5, 2), "-2"])
def test_torus_divisor_rejects_non_integer_coefficients(bad):
    # int() would truncate -2.5 to -2, a divisor with other cohomology
    with pytest.raises(TypeError):
        TorusDivisor(P2, (bad, 0, 0))


def test_p1_principal_divisor_is_zero_class():
    D = TorusDivisor(P1, (1, -1))
    assert divisor_class(D).coords == (0,)


def test_p2_generators_coincide():
    cls = [divisor_class(TorusDivisor(P2, tuple(int(i == j) for j in range(3))))
           for i in range(3)]
    assert cls[0] == cls[1] == cls[2]
    assert cls[0].coords != (0,)


def test_f1_d1_equals_d3():
    # D1 - D3 = div(chi^{e1}) on rays (1,0),(0,1),(-1,1),(0,-1)
    d1 = divisor_class(TorusDivisor(F1, (1, 0, 0, 0)))
    d3 = divisor_class(TorusDivisor(F1, (0, 0, 1, 0)))
    assert d1 == d3
    pairing = principal_divisor(F1, (1, 0))
    assert pairing.coeffs == (1, 0, -1, 0)


@pytest.mark.parametrize("fan", [P1, P2, F1, P1xP1])
def test_principal_divisors_are_zero_classes(fan):
    for i in range(fan.dim):
        w = tuple(int(i == j) for j in range(fan.dim))
        assert divisor_class(principal_divisor(fan, w)).coords == tuple(
            0 for _ in range(fan.picard_rank)
        )


def test_class_representative_round_trip():
    rng = random.Random(3)
    for fan in (P2, F1, P1xP1):
        for _ in range(20):
            D = TorusDivisor(fan, tuple(rng.randint(-5, 5) for _ in fan.rays))
            c = divisor_class(D)
            assert divisor_class(c.representative()) == c


def _relabel(fan, perm):
    """The same fan with ray i renamed perm[i]."""
    rays = [None] * fan.n_rays
    for i, r in enumerate(fan.rays):
        rays[perm[i]] = r
    return Fan(fan.dim, tuple(rays), tuple(tuple(perm[i] for i in c) for c in fan.max_cones))


def _orlov_summary(fan):
    rep = orlov_check(fan)
    return rep.status, rep.n_frob, rep.n_bu, rep.m0, abs(rep.gram_det), rep.ext_vanishing


@pytest.mark.parametrize("name", (*catalog_names(), "P1^4"))
def test_ray_relabelings_keep_the_picard_basis_and_the_orlov_report(name):
    # the first independent rays need not be a lattice basis; the Picard
    # basis must still be found whatever order the rays come in
    fan = product(P1xP1, P1xP1) if name == "P1^4" else builtin(name).fan
    expected = _orlov_summary(fan)
    rng = random.Random(name)
    for _ in range(6):
        perm = list(range(fan.n_rays))
        rng.shuffle(perm)
        g = _relabel(fan, perm)
        assert validate(g).ok, perm
        assert g.picard_rank == g.n_rays - g.dim
        for k in range(g.dim):
            w = tuple(int(j == k) for j in range(g.dim))
            assert divisor_class(principal_divisor(g, w)).coords == (0,) * g.picard_rank
        assert _orlov_summary(g) == expected, perm


FAN5 = Fan(2, ((1, 0), (1, 2), (1, 1), (0, 1), (-1, -1)),
           ((0, 2), (2, 1), (1, 3), (3, 4), (4, 0)))


def test_fan_whose_first_independent_rays_are_no_basis_verifies():
    # rays 0 and 1 span a sublattice of index 2; rays 0 and 2 are the basis
    assert validate(FAN5).ok
    assert FAN5.picard_rank == 3
    assert _orlov_summary(FAN5) == ("VERIFIED_MODULO_FULLNESS", 6, 5, 0, 1, True)


COPIES_AND_CHAINS = catalog_copies_and_chains()


@pytest.mark.parametrize("name", COPIES_AND_CHAINS)
def test_picard_basis_is_the_first_lattice_basis(name):
    # irreducible fans as well as products: the first unimodular set of dim rays
    fan = COPIES_AND_CHAINS[name]
    assert fan._pic[0] == first_lattice_basis(fan)


def test_picard_basis_missing_raises_invalid_fan_error():
    fan = Fan(2, ((1, 0), (1, 2), (-1, -2)), ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(InvalidFanError, match="lattice basis"):
        divisor_class(TorusDivisor(fan, (0, 0, 0)))


def test_class_arithmetic_matches_divisor_arithmetic():
    rng = random.Random(4)
    for _ in range(20):
        a = TorusDivisor(F1, tuple(rng.randint(-4, 4) for _ in F1.rays))
        b = TorusDivisor(F1, tuple(rng.randint(-4, 4) for _ in F1.rays))
        assert divisor_class(a + b) == divisor_class(a) + divisor_class(b)
        assert divisor_class(a - b) == divisor_class(a) - divisor_class(b)


# --- cartier_data -----------------------------------------------------------


def test_p1_cartier_example():
    D = TorusDivisor(P1, (-2, 0))
    cd = cartier_data(D)
    by_cone = dict(zip(P1.max_cones, cd))
    assert by_cone[(0,)] == (2,)
    assert by_cone[(1,)] == (0,)


def test_zero_divisor_zero_cartier():
    for fan in (P1, P2, F1):
        cd = cartier_data(TorusDivisor(fan, (0,) * fan.n_rays))
        assert all(all(x == 0 for x in m) for m in cd)


def test_p2_anticanonical_cartier():
    D = -canonical_divisor(P2)
    cd = cartier_data(D)
    for cone, m in zip(P2.max_cones, cd):
        for i in cone:
            assert dot(m, P2.rays[i]) == -1


def test_cartier_back_substitution_random():
    rng = random.Random(9)
    for fan in (P2, F1, P1xP1, projective_space(3)):
        for _ in range(10):
            D = TorusDivisor(fan, tuple(rng.randint(-4, 4) for _ in fan.rays))
            cd = cartier_data(D)
            for cone, m in zip(fan.max_cones, cd):
                for i in cone:
                    assert dot(m, fan.rays[i]) == -D.coeffs[i]


def test_cartier_data_refuses_a_non_unimodular_cone():
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))  # det(0, 1) = 2
    with pytest.raises(InvalidFanError, match="not smooth"):
        cartier_data(TorusDivisor(fan, (0, 0, 0)))


# --- canonical divisor --------------------------------------------------------


@pytest.mark.parametrize("fan,n", [(P1, 2), (P2, 3), (F1, 4)])
def test_canonical_divisor_all_minus_one(fan, n):
    assert canonical_divisor(fan).coeffs == (-1,) * n


# --- constructors ---------------------------------------------------------------


def test_projective_line_rays():
    assert set(P1.rays) == {(1,), (-1,)}


def test_p1xp1_shape():
    assert P1xP1.n_rays == 4
    assert len(P1xP1.max_cones) == 4


def test_star_subdivision_of_p2_is_f1():
    blown = star_subdivision(P2, (0, 1))
    assert (1, 1) in blown.rays
    assert validate(blown).ok
    assert fans_isomorphic(blown, F1)


def test_star_subdivision_counts_and_validity():
    f = projective_space(3)
    blown = star_subdivision(f, f.max_cones[0])
    assert blown.n_rays == f.n_rays + 1
    assert len(blown.max_cones) == len(f.max_cones) + f.dim - 1
    assert validate(blown).ok


def test_star_subdivision_rejects_non_face():
    with pytest.raises(ValueError):
        star_subdivision(P1xP1, (0, 1))  # opposite rays, not a cone


def test_star_subdivision_rejects_single_ray():
    with pytest.raises(ValueError):
        star_subdivision(P2, (0,))


def test_hirzebruch_rays():
    assert hirzebruch(2).rays == ((1, 0), (0, 1), (-1, 2), (0, -1))
    assert validate(hirzebruch(2)).ok
    assert validate(hirzebruch(3)).ok


def fresh_dP6():
    dP6 = builtin("dP6").fan
    return Fan(dP6.dim, dP6.rays, dP6.max_cones)


@pytest.mark.parametrize(
    "make, run",
    [
        (fresh_dP6, frob_set),
        (fresh_dP6, lambda fan: cohomology(fan, TorusDivisor(fan, (-3, 3, 1, -2, -1, -1)))),
        (fresh_dP6, orlov_check),
        (lambda: product(fresh_dP6(), projective_space(2)), orlov_check),
        (fresh_dP6, lambda fan: pushforward_summands(fan, TorusDivisor(fan, (0,) * 6), 97)),
    ],
    ids=["frob_set", "cohomology", "orlov_check", "orlov_check-dP6xP2", "pushforward_summands"],
)
def test_a_cold_fan_is_freed_without_the_cycle_collector(make, run):
    # every cache lives on the Fan, so a walk that closed over the fan in a
    # reference cycle would keep the fan and its caches until gc runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        fan = make()
        run(fan)
        refs = [weakref.ref(fan)] + [weakref.ref(factor) for _, factor, _ in fan._factors]
        del fan
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
