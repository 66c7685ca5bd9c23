import importlib
import itertools
import math
import random
from math import comb

import pytest

from frobtilt.catalog import builtin, catalog_names
from frobtilt.cohomology import (
    InfiniteCohomologyError,
    _active_patterns,
    _circuits,
    _class_cohomology,
    _count_region,
    _emptied,
    _euler_characteristic,
    _localization,
    _pattern_region,
    _slack_caps,
    _survivors,
    cohomology,
    weight_patterns,
)
from frobtilt.fan import (
    DivisorClass,
    Fan,
    InvalidFanError,
    TorusDivisor,
    ValidationReport,
    canonical_divisor,
    divisor_class,
    product,
    projective_space,
)
from frobtilt.cones import is_nef
from frobtilt.lattice import dot, feasible
from frobtilt.tilting import build_candidate, orlov_check
from oracles import (
    brute_circuits, brute_count, catalog_copies_and_chains, certificates_on_coefficients,
    counted_cohomology, ext_dims, fm_interval,
    localized_chi_on_coefficients, principal_divisor, recession_cone_is_zero, subcomplex_ranks,
    subdivision_chain, weight_cohomology,
)

P1 = builtin("P1").fan
P2 = builtin("P2").fan
P3 = builtin("P3").fan
P1xP1 = builtin("P1xP1").fan
dP6 = builtin("dP6").fan
dP6xP1 = product(dP6, P1)
dP6xP2 = product(dP6, P2)
BlptP3xP1 = product(builtin("BlptP3").fan, P1)


def h_pn_oracle(n, j):
    """Closed-form cohomology of O(j) on projective n-space."""
    dims = [0] * (n + 1)
    if j >= 0:
        dims[0] = comb(n + j, n)
    if j <= -n - 1:
        dims[n] = comb(-j - 1, n)
    return tuple(dims)


def h_p1xp1_oracle(a, b):
    """Kunneth from the line factors."""
    ha = h_pn_oracle(1, a)
    hb = h_pn_oracle(1, b)
    dims = [0, 0, 0]
    for i in range(2):
        for j in range(2):
            dims[i + j] += ha[i] * hb[j]
    return tuple(dims)


def pn_divisor(fan, j):
    return TorusDivisor(fan, (j,) + (0,) * (fan.n_rays - 1))


def fm_box(dim, rows):
    """The integer box of bounded, nonempty rows from their Fourier-Motzkin intervals."""
    return [(math.ceil(lo), math.floor(hi))
            for lo, hi in (fm_interval(dim, rows, k) for k in range(dim))]


# --- weight_cohomology (Cech-by-hand oracle values) -------------------------


def test_p1_weight_one_of_minus_two():
    # both charts negative at m=1: two points, reduced H^0 rank 1 -> h^1
    D = TorusDivisor(P1, (-2, 0))
    assert weight_cohomology(P1, D, (1,)) == (0, 1)


def test_p1_weight_minus_one_of_minus_two():
    D = TorusDivisor(P1, (-2, 0))
    assert weight_cohomology(P1, D, (-1,)) == (0, 0)


def test_interior_weight_gives_section():
    D = TorusDivisor(P2, (2, 0, 0))
    # m = (-1, 0) satisfies every inequality strictly enough: Neg empty
    assert weight_cohomology(P2, D, (-1, 0)) == (1, 0, 0)


def test_weight_sum_over_box_matches_total():
    divisors = [TorusDivisor(P1, c) for c in ((-2, 0), (3, 0), (-1, -1))]
    rng = random.Random(5)
    for name in ("P2", "F1", "dP7"):
        fan = builtin(name).fan
        divisors += [
            TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays)) for _ in range(6)
        ]
    for D in divisors:
        fan = D.fan
        total = [0] * (fan.dim + 1)
        for m in itertools.product(range(-9, 10), repeat=fan.dim):
            w = weight_cohomology(fan, D, m)
            total = [a + b for a, b in zip(total, w)]
        assert tuple(total) == cohomology(fan, D).dims, (fan, D.coeffs)


# --- cohomology: frozen trivials and closed-form sweeps -----------------------


def test_trivial_examples():
    assert cohomology(P1, TorusDivisor(P1, (-2, 0))).dims == (0, 1)
    assert cohomology(P2, TorusDivisor(P2, (2, 0, 0))).dims == (6, 0, 0)
    assert cohomology(P2, TorusDivisor(P2, (-3, 0, 0))).dims == (0, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_space_closed_form(n):
    fan = {1: P1, 2: P2, 3: P3}[n]
    for j in range(-n - 4, n + 5):
        got = cohomology(fan, pn_divisor(fan, j)).dims
        assert got == h_pn_oracle(n, j), (n, j)


def test_p1xp1_kunneth_all_small_coefficients():
    for coeffs in itertools.product(range(-4, 5), repeat=4):
        D = TorusDivisor(P1xP1, coeffs)
        a = coeffs[0] + coeffs[1]
        b = coeffs[2] + coeffs[3]
        assert cohomology(P1xP1, D).dims == h_p1xp1_oracle(a, b)
    # dP6 x P1, against dP6's own cohomology and the line's closed form
    rng = random.Random(7)
    for _ in range(40):
        a = tuple(rng.randint(-3, 3) for _ in dP6.rays)
        b = tuple(rng.randint(-3, 3) for _ in P1.rays)
        hx = cohomology(dP6, TorusDivisor(dP6, a)).dims
        hy = h_pn_oracle(1, sum(b))
        dims = [0] * 4
        for i, j in itertools.product(range(3), range(2)):
            dims[i + j] += hx[i] * hy[j]
        assert cohomology(dP6xP1, TorusDivisor(dP6xP1, a + b)).dims == tuple(dims), (a, b)


def test_p2_brute_force_small_coefficients():
    for coeffs in itertools.product(range(-4, 5), repeat=3):
        D = TorusDivisor(P2, coeffs)
        assert cohomology(P2, D).dims == h_pn_oracle(2, sum(coeffs))


def test_p1_brute_force_small_coefficients():
    for coeffs in itertools.product(range(-4, 5), repeat=2):
        D = TorusDivisor(P1, coeffs)
        assert cohomology(P1, D).dims == h_pn_oracle(1, sum(coeffs))


# --- structural invariants ------------------------------------------------------


@pytest.mark.parametrize("name", ["P1", "P2", "F1", "F2", "F3", "dP6", "P1xP1", "P3"])
def test_serre_duality_randomized(name):
    fan = builtin(name).fan
    K = canonical_divisor(fan)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(12):
        D = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
        h = cohomology(fan, D).dims
        hd = cohomology(fan, K - D).dims
        assert h == tuple(reversed(hd)), (name, D.coeffs)


def test_sign_pattern_partition_counts_sections():
    for name in ("P2", "F1", "F2"):
        fan = builtin(name).fan
        for coeffs in [(1,) * fan.n_rays, (2, 1) + (0,) * (fan.n_rays - 2)]:
            D = TorusDivisor(fan, coeffs)
            if not is_nef(D).is_nef:
                continue
            pats = weight_patterns(fan, D)
            empties = [p for p in pats if p.neg_rays == ()]
            assert len(empties) == 1
            rows = [(tuple(-x for x in ray), c, False) for ray, c in zip(fan.rays, D.coeffs)]
            assert empties[0].point_count == brute_count(rows, fm_box(fan.dim, rows))
            assert cohomology(fan, D).dims[0] == empties[0].point_count


def test_euler_invariant_under_principal_twist():
    rng = random.Random(21)
    for name in ("P2", "F2", "dP7"):
        fan = builtin(name).fan
        for _ in range(8):
            D = TorusDivisor(fan, tuple(rng.randint(-3, 3) for _ in fan.rays))
            chi0 = cohomology(fan, D).euler()
            for i in range(fan.dim):
                w = tuple(int(i == j) for j in range(fan.dim))
                assert cohomology(fan, D + principal_divisor(fan, w)).euler() == chi0


# --- per-fan pattern table against the rank oracle ------------------------------------


# The 13-ray 4-fold is not Fano; P1xP4 and dP6xP3 rank degree 1 (n >= 5) by coboundaries.
@pytest.mark.parametrize(
    "fan",
    [builtin(n).fan for n in catalog_names()] + [dP6xP1, dP6xP2, BlptP3xP1]
    + [subdivision_chain("P4", 8, 5), product(P1, builtin("P4").fan), product(dP6, P3)],
    ids=list(catalog_names())
    + ["dP6xP1", "dP6xP2", "BlptP3xP1", "P4-chain13", "P1xP4", "dP6xP3"],
)
def test_active_patterns_match_rank_oracle(fan):
    expected = {}
    for bits in range(1 << fan.n_rays):
        verts = frozenset(i for i in range(fan.n_rays) if bits >> i & 1)
        ranks = subcomplex_ranks(fan, verts)
        if any(ranks):
            expected[verts] = ranks
    _, patterns, *_ = _active_patterns(fan)
    got = {verts: ranks for verts, ranks, *_ in patterns}
    assert len(got) == len(patterns)
    assert got == expected


def test_active_patterns_of_a_product_are_joins():
    # The nerve of X x Y is the join of the factors' nerves, so over Q
    # b~_{k+1}(K_{S1+S2}) = sum_{i+j=k} b~_i(K_S1) b~_j(K_S2): with index
    # q holding b~_{q-1}, the rank vectors multiply as polynomials.
    factor = {}
    for bits in range(1 << dP6.n_rays):
        verts = frozenset(i for i in range(dP6.n_rays) if bits >> i & 1)
        ranks = subcomplex_ranks(dP6, verts)
        if any(ranks):
            factor[verts] = ranks
    expected = {}
    for v1, r1 in factor.items():
        for v2, r2 in factor.items():
            joined = [0] * (len(r1) + len(r2) - 1)
            for i, x in enumerate(r1):
                for j, y in enumerate(r2):
                    joined[i + j] += x * y
            expected[v1 | {dP6.n_rays + i for i in v2}] = tuple(joined)
    _, patterns, *_ = _active_patterns(product(dP6, dP6))
    assert len(expected) == 34 ** 2
    assert {verts: ranks for verts, ranks, *_ in patterns} == expected


# --- Farkas certificates against the LP route ----------------------------------------


@pytest.mark.parametrize(
    "fan", [builtin(n).fan for n in catalog_names()] + [dP6xP1, dP6xP2],
    ids=list(catalog_names()) + ["dP6xP1", "dP6xP2"],
)
def test_certificates_agree_with_feasibility_lp(fan):
    circuits, patterns, *_ = _active_patterns(fan)
    rng = random.Random(fan.n_rays * 1000 + fan.dim)
    nonempty = 0
    for _ in range(30):
        coeffs = tuple(rng.randint(-3, 3) for _ in fan.rays)
        emptied = _emptied(circuits, divisor_class(TorusDivisor(fan, coeffs)).coords)
        for verts, _, mask, *_ in patterns:
            lp = feasible(fan.dim, _pattern_region(fan, coeffs, verts))
            assert lp == (not mask & emptied), (coeffs, sorted(verts))
            nonempty += lp
    assert nonempty > 0


@pytest.mark.parametrize("x, y", [("dP6", "P1"), ("dP6", "P2"), ("P1xP1", "F2"), ("P2", "BlptP3")])
def test_circuits_of_product_are_those_of_the_factors(x, y):
    fx, fy = builtin(x).fan, builtin(y).fan
    expected = {c + (0,) * fy.n_rays for c in _circuits(fx)}
    expected |= {(0,) * fx.n_rays + c for c in _circuits(fy)}
    got = _circuits(product(fx, fy))
    assert len(got) == len(set(got))
    assert set(got) == expected


@pytest.mark.parametrize("x, y", [("dP6", "P1"), ("dP6", "P2")])
def test_product_regions_are_counted_per_factor(x, y):
    # a product's pattern region is the product of its factors' regions, so
    # its weight patterns are counted by the factors and obey Kunneth; the
    # product builds no pattern table of its own
    fx, fy = builtin(x).fan, builtin(y).fan
    fan = product(fx, fy)
    rng = random.Random(31)
    for _ in range(12):
        ax = tuple(rng.randint(-4, 4) for _ in fx.rays)
        ay = tuple(rng.randint(-4, 4) for _ in fy.rays)
        hx = cohomology(fx, TorusDivisor(fx, ax)).dims
        hy = cohomology(fy, TorusDivisor(fy, ay)).dims
        expected = [0] * (fan.dim + 1)
        for i, j in itertools.product(range(fx.dim + 1), range(fy.dim + 1)):
            expected[i + j] += hx[i] * hy[j]
        D = TorusDivisor(fan, ax + ay)
        assert counted_cohomology(fan, D) == tuple(expected)
        assert cohomology(fan, D).dims == tuple(expected)
    assert "patterns" not in fan._rank_cache


COPIES_AND_CHAINS = catalog_copies_and_chains()


@pytest.mark.parametrize("name", COPIES_AND_CHAINS)
def test_circuits_are_the_brute_force_circuits(name):
    # each minimal relation once, against a rational null space per ray set
    fan = COPIES_AND_CHAINS[name]
    got = _circuits(fan)
    assert len(got) == len(set(got))
    assert set(got) == brute_circuits(fan)


def test_circuit_counts():
    # dP6's six rays: three opposite pairs, and the 8 triples without one
    assert [len(_circuits(f)) for f in (P2, P1xP1, dP6)] == [1, 2, 11]


# --- chi by localization, one degree left uncounted ----------------------------------


def fake_validated(fan):
    """The fan with validation bypassed, to reach the guards behind it."""
    fan.__dict__["validation"] = ValidationReport(True, True, True, True, True, True, ())
    return fan


P1xP1xP1xP1 = product(P1xP1, P1xP1)
dP6xdP6 = product(dP6, dP6)
P4_CHAIN = subdivision_chain("P4", 8, 5)
ORLOV_FANS = {"P1xP1xP1xP1": P1xP1xP1xP1, "BlptP3xP1": BlptP3xP1, "dP6xP1": dP6xP1,
              "dP6xP2": dP6xP2}
LOCALIZED = (
    [(n, builtin(n).fan, 16, 6) for n in catalog_names()]
    + [(n, f, 12, 5) for n, f in ORLOV_FANS.items()]
    + [("dP6xdP6", dP6xdP6, 6, 3), ("P4-chain13", P4_CHAIN, 6, 3)]
)


@pytest.mark.parametrize("name, fan, draws, bound", LOCALIZED, ids=[c[0] for c in LOCALIZED])
def test_localized_chi_and_dims_match_the_all_count_route(name, fan, draws, bound):
    rng = random.Random(fan.n_rays * 100 + fan.dim)
    K = canonical_divisor(fan)
    for _ in range(draws):
        D = TorusDivisor(fan, tuple(rng.randint(-bound, bound) for _ in fan.rays))
        counted = counted_cohomology(fan, D)
        chi = sum((-1) ** q * h for q, h in enumerate(counted))
        assert _euler_characteristic(fan, divisor_class(D).coords) == chi, D.coeffs
        assert cohomology(fan, D).dims == counted, D.coeffs
        dual = divisor_class(K - D).coords
        assert _euler_characteristic(fan, dual) == (-1) ** fan.dim * chi, D.coeffs


def test_middle_degree_ranks_and_dims_stay_integers():
    # the middle rank of an even-dimensional nerve is what the Euler
    # characteristic leaves; every rank and every h^q is an int
    _, patterns, *_ = _active_patterns(P4_CHAIN)
    assert all(type(r) is int for _, ranks, *_ in patterns for r in ranks)
    D = TorusDivisor(P4_CHAIN, (3, 2, 2, -1, -3, 0, 2, 1, -3, 3, -2, 1, 3))
    dims = cohomology(P4_CHAIN, D).dims
    assert dims == (3, 284, 25, 0, 0) and all(type(h) is int for h in dims)


@pytest.mark.parametrize("name", catalog_names())
def test_localized_chi_holds_where_cohomology_skips_no_region(name, monkeypatch):
    # with no surviving single-degree region every region is counted and chi
    # is not called, so the localization is checked against those counts here
    # (a product's classes go to its factors, which may skip and call chi)
    base = builtin(name).fan
    fan = Fan(base.dim, base.rays, base.max_cones)  # a fresh Fan: an empty cache
    real = _euler_characteristic
    called = []
    monkeypatch.setattr(cohomology_module, "_euler_characteristic",
                        lambda *args: called.append(args) or real(*args))
    rng = random.Random(fan.n_rays * 13 + fan.dim)
    checked = 0
    for _ in range(40):
        D = TorusDivisor(fan, tuple(rng.randint(-1, 1) for _ in fan.rays))
        coords = divisor_class(D).coords
        if all(single == -1 for *_, single, _ in _survivors(fan, coords)):
            dims = cohomology(fan, D)
            assert real(fan, coords) == dims.euler(), D.coeffs
            checked += 1
    assert checked
    assert called == [] or fan._factors


@pytest.mark.parametrize("n", range(1, 7))
def test_localized_chi_on_projective_space(n):
    fan = projective_space(n)
    for k in range(-2 * n, 2 * n + 1):
        expected = math.prod(range(k + 1, k + n + 1)) // math.factorial(n)
        coords = divisor_class(TorusDivisor(fan, (k,) + (0,) * n)).coords
        assert _euler_characteristic(fan, coords) == expected, (n, k)


@pytest.mark.parametrize("name, fan", [(c[0], c[1]) for c in LOCALIZED],
                         ids=[c[0] for c in LOCALIZED])
def test_every_active_pattern_of_a_valid_fan_is_bounded(name, fan):
    _, patterns, *_ = _active_patterns(fan)
    for verts, _, _, _, bounded in patterns:
        assert bounded and recession_cone_is_zero(fan, verts), sorted(verts)


@pytest.mark.parametrize("fan", [Fan(1, ((1,),), ((0,),)), Fan(2, ((1, 0), (0, 1)), ((0, 1),))],
                         ids=["half-line", "quadrant"])
def test_incomplete_fans_have_unbounded_patterns(fan):
    _, patterns, *_ = _active_patterns(fake_validated(fan))
    assert patterns
    for verts, _, _, _, bounded in patterns:
        assert not bounded and not recession_cone_is_zero(fan, verts), sorted(verts)
    with pytest.raises(InfiniteCohomologyError):
        cohomology(fan, TorusDivisor(fan, (0,) * fan.n_rays))


# --- unimodular-basis vertices before the survivor LP ----------------------------------

cohomology_module = importlib.import_module("frobtilt.cohomology")
lattice_module = importlib.import_module("frobtilt.lattice")
WITNESSED = ([(n, builtin(n).fan) for n in catalog_names()] + list(ORLOV_FANS.items())
             + [("P4-chain13", P4_CHAIN)])


@pytest.fixture
def survivor_lps(monkeypatch):
    """The systems whose nonemptiness lattice.feasible proves by the LP."""
    calls = []
    real = lattice_module.feasible_point

    def counted(dim, rows):
        calls.append(rows)
        return real(dim, rows)

    monkeypatch.setattr(lattice_module, "feasible_point", counted)
    return calls


@pytest.mark.parametrize("name, fan", WITNESSED, ids=[c[0] for c in WITNESSED])
def test_accepted_cone_witnesses_lie_in_their_regions(name, fan, monkeypatch, survivor_lps):
    # each candidate is the vertex of the basis that gave it, in one fixed order: the maximal
    # cones in the fan's order, then the unimodular bases that are no cone; an accepted one
    # is integral, tight on that basis's rows and in its region
    yielded, accepted = [], []
    real_vertices = cohomology_module._basis_vertices

    def vertices(on, coeffs, neg):
        cones = on.max_cones
        for k, m in enumerate(real_vertices(on, coeffs, neg)):
            if k < len(cones):
                basis, source = cones[k], "cone"
            else:
                if k == len(cones):  # the other bases are found when first reached
                    others = [basis for basis, _ in cohomology_module._other_bases(on)]
                basis, source = others[k - len(cones)], "other"
                assert basis not in cones and len(set(basis)) == on.dim, basis
            yielded.append((on, coeffs, neg, basis, source, m))
            yield m

    def recording(dim, rows, candidates=()):
        lps = len(survivor_lps)
        ok = feasible(dim, rows, candidates)
        if len(survivor_lps) == lps:  # no LP: the last candidate yielded fits
            accepted.append((rows, yielded[-1]))
        return ok

    monkeypatch.setattr(cohomology_module, "_basis_vertices", vertices)
    monkeypatch.setattr(cohomology_module, "feasible", recording)
    fan = Fan(fan.dim, fan.rays, fan.max_cones)  # no cached classes or bases yet
    rng = random.Random(fan.n_rays * 7 + fan.dim)
    for _ in range(8):
        D = TorusDivisor(fan, tuple(rng.randint(-5, 5) for _ in fan.rays))
        assert cohomology(fan, D).dims == counted_cohomology(fan, D), D.coeffs
    assert accepted
    for on, coeffs, neg, basis, _, m in yielded:
        assert all(type(x) is int for x in m)
        assert all(dot(m, on.rays[j]) == -coeffs[j] - (j in neg) for j in basis), (basis, m)
    for rows, (_, _, _, _, _, m) in accepted:
        assert all(dot(a, m) <= b - strict for a, b, strict in rows), (rows, m)
    sources = {entry[4] for _, entry in accepted}
    assert "cone" in sources, sources
    if "dP6" in name:
        assert "other" in sources


CLASS_FANS = [(n, builtin(n).fan) for n in catalog_names()] + [
    (f"dP6xP1-factor{k}", factor) for k, (_, factor, _) in enumerate(dP6xP1._factors)]


@pytest.mark.parametrize("name, fan", CLASS_FANS, ids=[c[0] for c in CLASS_FANS])
def test_unimodular_vertices_prove_every_survivor(name, fan, survivor_lps):
    # a nonempty bounded region has a vertex; on these fans one is always where the rows
    # of a unimodular set of dim rays are tight, so no survivor reaches the LP
    fresh = Fan(fan.dim, fan.rays, fan.max_cones)  # no class cache
    rng = random.Random(f"vertices-{name}")
    for _ in range(40):
        D = TorusDivisor(fresh, tuple(rng.randint(-4, 4) for _ in fresh.rays))
        assert cohomology(fresh, D).dims == counted_cohomology(fresh, D), D.coeffs
    assert survivor_lps == []


@pytest.mark.parametrize("name, fan", CLASS_FANS, ids=[c[0] for c in CLASS_FANS])
def test_counting_every_region_builds_no_simplex_tableau(name, fan, monkeypatch):
    # the slack box to count comes from the certificates, and every survivor of these classes
    # holds a basis vertex, so a scan that counts every region solves no LP at all
    calls = []
    real = lattice_module._strict_tableau
    monkeypatch.setattr(lattice_module, "_strict_tableau",
                        lambda *args: calls.append(args) or real(*args))
    fresh = Fan(fan.dim, fan.rays, fan.max_cones)  # no class cache
    rng = random.Random(f"vertices-{name}")
    counted = 0
    for _ in range(40):
        D = TorusDivisor(fresh, tuple(rng.randint(-4, 4) for _ in fresh.rays))
        counted += sum(p.point_count for p in weight_patterns(fresh, D))
    assert counted
    assert calls == []


# --- the slack box of the certificates against Fourier-Motzkin and the LP ------------------

COUNT_FANS = [(n, builtin(n).fan) for n in catalog_names() if not builtin(n).fan._factors] + [
    ("P3-chain8", subdivision_chain("P3", 4, 3))]
CAP_FANS = COUNT_FANS + [("P4-chain13", P4_CHAIN)]


def seeded_survivors(fan, seed, draws, bound):
    """(coords, representative coefficients, pattern) for each survivor of seeded classes."""
    rng = random.Random(seed)
    for _ in range(draws):
        D = TorusDivisor(fan, tuple(rng.randint(-bound, bound) for _ in fan.rays))
        coords = divisor_class(D).coords
        coeffs = DivisorClass(coords, fan).representative().coeffs
        for pattern in _survivors(fan, coords):
            yield coords, coeffs, pattern


@pytest.mark.parametrize("name, fan", COUNT_FANS, ids=[c[0] for c in COUNT_FANS])
def test_region_count_is_the_brute_count_of_its_fourier_motzkin_box(name, fan):
    seen = nonzero = 0
    for coords, coeffs, (verts, _, mask, _, bounded) in seeded_survivors(fan, f"fm-{name}", 40, 4):
        assert bounded
        region = _pattern_region(fan, coeffs, verts)
        count = _count_region(fan, coords, coeffs, verts, mask)
        assert count == brute_count(region, fm_box(fan.dim, region)), (coeffs, sorted(verts))
        assert bool(_count_region(fan, coords, coeffs, verts, mask, any)) == (count > 0)
        seen += 1
        nonzero += count > 0
    assert nonzero, seen


@pytest.mark.parametrize("name, fan", CAP_FANS, ids=[c[0] for c in CAP_FANS])
def test_each_slack_cap_is_the_floor_of_the_slack_maximum(name, fan):
    # the region with slack_j >= cap_j is feasible, and with slack_j >= cap_j + 1 it is not
    circuits = _active_patterns(fan)[0]
    seen = 0
    for coords, coeffs, (verts, _, mask, _, _) in seeded_survivors(fan, f"caps-{name}", 6, 4):
        rows = _pattern_region(fan, coeffs, verts)
        caps = _slack_caps(circuits, coords, mask)
        assert sorted(caps) == list(range(fan.n_rays)), sorted(verts)
        for j, cap in caps.items():
            a, b, _ = rows[j]
            for extra, want in ((cap, True), (cap + 1, False)):
                moved = rows[:j] + ((a, b - extra, False),) + rows[j + 1:]
                assert feasible(fan.dim, moved) == want, (coeffs, sorted(verts), j)
            seen += 1
    assert seen


@pytest.mark.parametrize("name, fan", [("dP6", dP6), ("BlptP3", builtin("BlptP3").fan),
                                       ("dP6xP1", dP6xP1)], ids=["dP6", "BlptP3", "dP6xP1"])
def test_cold_class_with_a_survivor_is_reduced_once(name, fan, monkeypatch):
    # cohomology reduces D to its class; the weight_patterns scan of the class's
    # representative takes the class from _counted instead of reducing it again
    rng = random.Random(f"reduced-{name}")
    draws = [tuple(rng.randint(-4, 4) for _ in fan.rays) for _ in range(12)]
    expected = [counted_cohomology(fan, TorusDivisor(fan, coeffs)) for coeffs in draws]
    calls, scans = [], []
    real_reduce, real_scan = cohomology_module.divisor_class, cohomology_module.weight_patterns
    monkeypatch.setattr(cohomology_module, "divisor_class",
                        lambda E: calls.append(E) or real_reduce(E))
    monkeypatch.setattr(cohomology_module, "weight_patterns",
                        lambda *args, **kw: scans.append(args) or real_scan(*args, **kw))
    scanned = 0
    for coeffs, dims in zip(draws, expected):
        fresh = Fan(fan.dim, fan.rays, fan.max_cones)  # an empty class cache
        calls.clear()
        scans.clear()
        assert cohomology(fresh, TorusDivisor(fresh, coeffs)).dims == dims, coeffs
        assert len(calls) == 1, coeffs
        scanned += bool(scans)
        # a divisor handed to weight_patterns from outside is reduced there, per factor
        calls.clear()
        weight_patterns(fresh, TorusDivisor(fresh, coeffs))
        assert len(calls) == (len(fresh._factors) or 1), coeffs
    assert scanned


@pytest.mark.parametrize("make", [lambda: product(dP6, P2), lambda: product(P1xP1, P1xP1)],
                         ids=["dP6xP2", "P1xP1xP1xP1"])
def test_orlov_classes_solve_no_survivor_lp(make, survivor_lps):
    # every surviving region of the Ext table's and m0's classes holds a cone vertex;
    # those classes are the factors', asked of the factors' caches
    fan = make()
    orlov_check(fan)
    assert all(factor._cohomology_cache for _, factor, _ in fan._factors)
    assert not fan._cohomology_cache
    assert survivor_lps == []


def test_empty_survivor_still_reaches_the_lp_and_fails(monkeypatch, survivor_lps):
    # with every certificate withheld, P1xP1's region {x <= -1, x >= 1} survives;
    # no cone vertex lies in it, so the LP decides, and it is fatal
    monkeypatch.setattr(cohomology_module, "_emptied", lambda circuits, coords: 0)
    fan = product(P1, P1)
    with pytest.raises(AssertionError, match="no circuit certifies"):
        cohomology(fan, TorusDivisor(fan, (0, 0, 0, 0)))
    assert survivor_lps


# --- class coordinates against the coefficients of every representative -----------------------

@pytest.mark.parametrize("name, fan", CLASS_FANS, ids=[c[0] for c in CLASS_FANS])
def test_class_route_does_not_depend_on_the_representative(name, fan, monkeypatch):
    # the certificate mask, the survivors and chi read on a class's coordinates
    # are the oracle's on D and on D + div(chi^m); an irreducible fan answers a
    # class with no survivor with no divisor and no weight_patterns call
    circuits, patterns, *_ = _active_patterns(fan)
    lams, localization = _circuits(fan), _localization(fan)
    rng = random.Random(fan.n_rays * 31 + fan.dim)
    empty = []
    for _ in range(20):
        D = TorusDivisor(fan, tuple(rng.randint(-2, 2) for _ in fan.rays))
        m = tuple(rng.randint(-3, 3) for _ in range(fan.dim))
        coords = divisor_class(D).coords
        mask, survivors = _emptied(circuits, coords), _survivors(fan, coords)
        chi = _euler_characteristic(fan, coords)
        for E in (D, D + principal_divisor(fan, m)):
            assert divisor_class(E).coords == coords
            emptied = certificates_on_coefficients(lams, E.coeffs)
            assert mask == emptied, E.coeffs
            assert survivors == [p for p in patterns if not p[2] & emptied], E.coeffs
            assert chi == localized_chi_on_coefficients(localization, E.coeffs), E.coeffs
        if not survivors:
            empty.append((coords, counted_cohomology(fan, D)))
    assert empty
    if fan._factors:
        return  # a product's classes go by Kunneth to its factors
    fresh = Fan(fan.dim, fan.rays, fan.max_cones)  # an empty class cache
    built, scanned = [], []
    real_init, real_scan = TorusDivisor.__post_init__, cohomology_module.weight_patterns
    monkeypatch.setattr(TorusDivisor, "__post_init__",
                        lambda self: built.append(self) or real_init(self))
    monkeypatch.setattr(cohomology_module, "weight_patterns",
                        lambda *args, **kw: scanned.append(args) or real_scan(*args, **kw))
    for coords, counted in empty:
        assert _class_cohomology(fresh, coords) == counted == (0,) * (fan.dim + 1), coords
    assert built == [] and scanned == []


# --- ext_dims and their Euler characteristic ----------------------------------------------------------


def cls_of(fan, coeffs):
    return divisor_class(TorusDivisor(fan, coeffs))


def test_ext_examples_on_p1():
    o = cls_of(P1, (0, 0))
    o_m1 = cls_of(P1, (-1, 0))
    o_m2 = cls_of(P1, (-2, 0))
    assert ext_dims(P1, o_m1, o).dims == (2, 0)
    assert ext_dims(P1, o, o_m2).dims == (0, 1)


@pytest.mark.parametrize("name", catalog_names())
def test_ext_self_is_structure_sheaf_cohomology(name):
    fan = builtin(name).fan
    L = cls_of(fan, tuple(range(fan.n_rays)))
    expected = (1,) + (0,) * fan.dim
    assert ext_dims(fan, L, L).dims == expected
    assert ext_dims(fan, L, L).euler() == 1


def test_euler_chi_p2_twists():
    o = cls_of(P2, (0, 0, 0))
    for j, expected in ((0, 1), (1, 3), (2, 6)):
        assert ext_dims(P2, o, cls_of(P2, (j, 0, 0))).euler() == expected
    assert ext_dims(P2, o, cls_of(P2, (-1, 0, 0))).euler() == 0


def test_ext_dims_of_a_cached_class_runs_no_weight_patterns(monkeypatch):
    fan = Fan(dP6.dim, dP6.rays, dP6.max_cones)  # a fresh Fan: an empty cache
    D = TorusDivisor(fan, (2, -1, 0, -3, 1, 0))
    dims = cohomology(fan, D)
    cohomology_mod = importlib.import_module("frobtilt.cohomology")
    scanned = []
    real = cohomology_mod.weight_patterns
    monkeypatch.setattr(cohomology_mod, "weight_patterns",
                        lambda *args, **kw: scanned.append(args) or real(*args, **kw))
    L = cls_of(fan, (1, 0, 0, 2, 0, 0))
    assert ext_dims(fan, L, L + divisor_class(D)) == dims
    assert ext_dims(fan, cls_of(fan, (0,) * 6), divisor_class(D)) == dims
    assert scanned == []


# --- error paths ---------------------------------------------------------------------


def test_divisor_from_another_fan_raises_and_leaves_the_cache():
    # K_F1 has class coordinates (-1, -2) on F1; on P1xP1 those are O(-1) x O(-2)
    fan = Fan(P1xP1.dim, P1xP1.rays, P1xP1.max_cones)  # a fresh Fan: an empty cache
    F1 = builtin("F1").fan
    K_F1 = canonical_divisor(F1)
    assert divisor_class(K_F1).coords == (-1, -2)
    O = cls_of(fan, (0, 0, 0, 0))
    calls = [
        lambda: cohomology(fan, K_F1),
        lambda: weight_patterns(fan, K_F1),
        lambda: build_candidate(fan, (O, divisor_class(K_F1))),
        lambda: build_candidate(fan, (divisor_class(K_F1), O)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^the divisor is not on this fan$"):
            call()
        assert fan._cohomology_cache == {}
    assert cohomology(fan, DivisorClass((-1, -2), fan).representative()).dims == (0, 0, 0)
    assert cohomology(fan, TorusDivisor(fan, K_F1.coeffs)).dims == h_p1xp1_oracle(-2, -2)


def test_invalid_fan_rejected():
    half_plane = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(InvalidFanError):
        cohomology(half_plane, TorusDivisor(half_plane, (0, 0)))


def test_unbounded_active_region_is_fatal():
    # a half line is not complete; bypass validation to hit the guard
    half_line = Fan(1, ((1,),), ((0,),))
    fake = ValidationReport(True, True, True, True, True, True, ())
    half_line.__dict__["validation"] = fake
    with pytest.raises(InfiniteCohomologyError):
        cohomology(half_line, TorusDivisor(half_line, (0,)))
