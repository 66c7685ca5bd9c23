"""Property tests of the fan certificate and the exact results over generated fans.

Fans are random chains of star subdivisions and products starting from the
catalog, kept to at most 10 rays.  Hypothesis runs derandomized, so every
run draws the same examples.  Cohomology and frob sets are checked against
Serre duality, Kuenneth and the product rule for frob, and m0 against the
top degrees of whole h-vectors, on fewer and smaller fans, since each
costs a cold per-fan set-up that doubles with every ray.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobtilt.catalog import builtin, catalog_names
from frobtilt.cohomology import cohomology
from frobtilt.cones import bu_set
from frobtilt.fan import (
    Fan,
    TorusDivisor,
    canonical_divisor,
    divisor_class,
    product,
    star_subdivision,
    validate,
)
from frobtilt.frobenius import frob_set, pushforward_summands
from frobtilt.tilting import build_candidate, m0
from oracles import m0_from_h_vectors, residue_walk, validate_by_adjugates

MAX_RAYS = 10
EXACT_RAYS = 8
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)
EXACT = settings(derandomize=True, deadline=None, database=None, max_examples=20)

# 2-D fans whose cyclic cones are unimodular and wind k times around the
# origin; ridge pairing and dual-graph connectivity accept them
WINDING = {
    2: ((1, 0), (0, 1), (-1, -2), (1, 1), (-1, 0), (-3, -1), (-2, -1)),
    3: ((1, 0), (0, 1), (-1, -3), (1, 2), (-2, -3), (3, 4), (-1, -1), (0, -1)),
}


def _subdivide(draw, fan: Fan) -> Fan:
    """Star-subdivide a drawn face of a drawn maximal cone, if the ray is new."""
    cone = draw(st.sampled_from(fan.max_cones))
    face = draw(st.lists(st.sampled_from(cone), min_size=2, max_size=len(cone), unique=True))
    try:
        return star_subdivision(fan, tuple(face))
    except ValueError:  # the face's ray sum is already a ray
        return fan


@st.composite
def smooth_fans(draw, max_rays: int = MAX_RAYS) -> Fan:
    names = [n for n in catalog_names() if builtin(n).fan.n_rays <= max_rays]
    fan = builtin(draw(st.sampled_from(names))).fan
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            other = builtin(draw(st.sampled_from(catalog_names()))).fan
            if fan.n_rays + other.n_rays <= max_rays:
                fan = product(fan, other)
        elif fan.dim >= 2 and fan.n_rays < max_rays:
            fan = _subdivide(draw, fan)
    return fan


@st.composite
def fan_pairs(draw) -> tuple[Fan, Fan]:
    """Two generated fans whose product has at most EXACT_RAYS rays."""
    x = draw(smooth_fans(EXACT_RAYS - 2))
    return x, draw(smooth_fans(EXACT_RAYS - x.n_rays))


def small_divisor(fan: Fan):
    coeffs = st.lists(st.integers(-2, 2), min_size=fan.n_rays, max_size=fan.n_rays)
    return coeffs.map(lambda a: TorusDivisor(fan, tuple(a)))


@PROPERTY
@given(smooth_fans())
def test_certificate_accepts_generated_fans(fan):
    rep = validate(fan)
    assert rep.ok and rep.complete, rep.failures
    assert fan.picard_rank == fan.n_rays - fan.dim


@PROPERTY
@given(st.sampled_from(sorted(WINDING)), st.data())
def test_certificate_rejects_winding_fans(k, data):
    rays = WINDING[k]
    fan = Fan(2, rays, tuple((i, (i + 1) % len(rays)) for i in range(len(rays))))
    for _ in range(data.draw(st.integers(0, 3))):
        fan = _subdivide(data.draw, fan)
    rep = validate(fan)
    assert rep.smooth and rep.ridge_paired and rep.connected
    assert not rep.complete and not rep.ok
    assert any(f"degree {k}," in msg for msg in rep.failures)


@st.composite
def perturbed_fans(draw) -> Fan:
    """A generated fan after one to three random edits of its rays or cones.

    An edit bumps one coordinate of a ray by 1, doubles or negates a ray,
    drops a cone, or puts another ray into a cone, in place of one of its
    rays or as a new cone; most results are invalid in one way or several.
    """
    fan = draw(smooth_fans())
    rays, cones = [list(r) for r in fan.rays], [list(c) for c in fan.max_cones]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("bump", "double", "negate", "drop", "swap", "add")))
        i = draw(st.integers(0, len(rays) - 1))
        if edit == "bump":
            rays[i][draw(st.integers(0, fan.dim - 1))] += draw(st.sampled_from((-1, 1)))
        elif edit in ("double", "negate"):
            rays[i] = [(2 if edit == "double" else -1) * x for x in rays[i]]
        elif edit == "drop" and len(cones) > 1:
            cones.pop(draw(st.integers(0, len(cones) - 1)))
        elif edit in ("swap", "add"):
            at = draw(st.integers(0, len(cones) - 1))
            cone = list(cones[at])
            cone[draw(st.integers(0, len(cone) - 1))] = i
            cones[at:at + (edit == "swap")] = [cone]
    return Fan(fan.dim, tuple(map(tuple, rays)), tuple(map(tuple, cones)))


@PROPERTY
@given(perturbed_fans())
def test_ridge_walk_reports_as_the_adjugate_oracle_on_perturbed_fans(fan):
    assert validate(fan) == validate_by_adjugates(fan)


@st.composite
def pushforwards(draw) -> tuple[TorusDivisor, int]:
    """A divisor with coefficients in [-7, 7] and an ell <= 12 with ell^dim <= 4096."""
    fan = draw(smooth_fans(EXACT_RAYS))
    top = max(e for e in range(1, 13) if e ** fan.dim <= 4096)
    coeffs = draw(st.lists(st.integers(-7, 7), min_size=fan.n_rays, max_size=fan.n_rays))
    return TorusDivisor(fan, tuple(coeffs)), draw(st.integers(1, top))


@EXACT
@given(pushforwards())
@example((TorusDivisor(builtin("P1").fan, (-7, 5)), 12))  # empty prefix
def test_run_walk_matches_residue_walk(case):
    D, ell = case
    assert dict(pushforward_summands(D.fan, D, ell)) == dict(residue_walk(D.fan, D, ell))


@EXACT
@given(smooth_fans(EXACT_RAYS), st.data())
def test_serre_duality(fan, data):
    D = data.draw(small_divisor(fan))
    K = canonical_divisor(fan)
    dual = TorusDivisor(fan, tuple(k - a for k, a in zip(K.coeffs, D.coeffs)))
    assert cohomology(fan, D).dims == cohomology(fan, dual).dims[::-1]


@EXACT
@given(fan_pairs(), st.data())
def test_kuenneth_on_products(pair, data):
    x, y = pair
    a, b = data.draw(small_divisor(x)), data.draw(small_divisor(y))
    xy = product(x, y)
    hx, hy = cohomology(x, a).dims, cohomology(y, b).dims
    expected = [0] * (xy.dim + 1)
    for i, j in itertools.product(range(x.dim + 1), range(y.dim + 1)):
        expected[i + j] += hx[i] * hy[j]
    assert cohomology(xy, TorusDivisor(xy, a.coeffs + b.coeffs)).dims == tuple(expected)


@EXACT
@given(fan_pairs())
def test_frob_of_product_is_product_of_frobs(pair):
    x, y = pair
    split = set()
    for cls in frob_set(product(x, y)):
        coeffs = cls.representative().coeffs
        split.add((
            divisor_class(TorusDivisor(x, coeffs[:x.n_rays])).coords,
            divisor_class(TorusDivisor(y, coeffs[x.n_rays:])).coords,
        ))
    pairs = {(cx.coords, cy.coords) for cx in frob_set(x) for cy in frob_set(y)}
    assert split == pairs


@EXACT
@given(smooth_fans(EXACT_RAYS), st.data())
def test_m0_is_the_top_of_whole_h_vectors(fan, data):
    # on the bu set and on a drawn subset of frob(X), against a fresh copy's h-vectors
    drawn = data.draw(st.lists(st.sampled_from(frob_set(fan).classes), min_size=1, max_size=5,
                               unique=True))
    for summands in (bu_set(fan), tuple(drawn)):
        want = m0_from_h_vectors(Fan(fan.dim, fan.rays, fan.max_cones), summands)
        assert m0(build_candidate(fan, summands)) == want
