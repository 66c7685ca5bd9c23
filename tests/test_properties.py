"""Property tests of the fan certificate over generated fans.

Fans are random chains of star subdivisions and products starting from the
catalog, kept to at most 10 rays.  Hypothesis runs derandomized, so every
run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from frobtilt.catalog import builtin, catalog_names
from frobtilt.fan import Fan, product, star_subdivision, validate

MAX_RAYS = 10
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)

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
def smooth_fans(draw) -> Fan:
    fan = builtin(draw(st.sampled_from(catalog_names()))).fan
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            other = builtin(draw(st.sampled_from(catalog_names()))).fan
            if fan.n_rays + other.n_rays <= MAX_RAYS:
                fan = product(fan, other)
        elif fan.dim >= 2 and fan.n_rays < MAX_RAYS:
            fan = _subdivide(draw, fan)
    return fan


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
