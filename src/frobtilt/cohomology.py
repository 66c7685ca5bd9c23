"""Exact line-bundle cohomology on smooth complete toric varieties.

H^p(X, O(D)) is graded by the character lattice; the weight-m piece is the
reduced simplicial cohomology H~^{p-1} of the full subcomplex of the fan's
ray nerve on Neg(m) = {rho : <m, v_rho> < -a_rho}.  Weights are grouped
into sign-pattern regions (one inequality per ray), so each fan needs the
reduced-cohomology ranks of every vertex subset only once; per divisor only
the regions whose subcomplex has nonzero reduced cohomology are examined,
and the weights in each are counted exactly, never listed.

Most of those regions are empty.  A region's constraint matrix depends only
on the fan and the pattern, so emptiness is decided by Farkas certificates
computed once per fan: the sign-consistent circuits of the rays.  Per class
each circuit costs one dot product with its Picard coordinates, and only the
regions that no certificate empties are proven nonempty and counted; a class
with none has h = 0 and builds no divisor.  m0 asks a class only for its top
degree above the best so far (_top_degree), and one with no survivor ranked
higher builds none either.

The per-fan set-up is one walk over the ray subsets.  The nerve is a
triangulated sphere, so Alexander duality ranks every full subcomplex from
1-skeleton components, the reduced Euler characteristic and, from dimension
5 on, coboundary ranks in the low degrees; each active pattern gets its
certificates in the same pass, and with them a boundedness flag: the
certificates are the conformal circuits of the region's rows, and those
rows positively span R^n iff the circuits cover every ray.  The same
set-up writes chi(O(D)) by Brion's localization as one integer polynomial
per maximal cone, in an exponent read on the class coordinates too.

Per class, every surviving region is proven nonempty and bounded.  The
integer point where the rows of a unimodular set of dim rays are tight
proves it nonempty with no LP when it meets the other rows.  The sets are
tried in one fixed order: the maximal cones (whose points are the Cartier
points of D plus the divisors of the region's negative rays), then the
other unimodular sets, found and inverted the first time no cone's point
fits.  The LP runs only when no such vertex lies in the region.  The
class's coordinates come with the representative that is scanned, so a
class is reduced once.  The regions whose ranks are nonzero in one degree
q* alone, q* the degree with the most of them, are not counted: h^{q*} is
what chi leaves of the other degrees, and chi is evaluated only when such a
region survives.

A region is counted in the slack coordinates of one maximal cone.  By LP
duality its certificates are the dual vertices, so they also bound it:
each certificate y caps every row slack in its support by y.b // y_j, and
the weights are the integer points of that slack box that meet the other
rows.  No LP runs to find the box.

A product fan (Fan._factors) never builds its own patterns.  A class goes
by Kunneth, H^*(X x Y, L x M) = H^*(X, L) (x) H^*(Y, M): the factors'
h-vectors, each from that factor's per-class cache, are convolved, and so
are cohomology and the Ext table.  weight_patterns joins the
factors' patterns: the full subcomplex on S_X + S_Y is the join of theirs,
whose ranks are the factors' convolved, and its region is R_X x R_Y.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .fan import DivisorClass, Fan, TorusDivisor, _require_on_fan, divisor_class
from .lattice import (
    IntMat,
    IntVec,
    LinearSystem,
    _count_box,
    adjugate,
    dot,
    feasible,
    integer_rank,
)

# _active_patterns visits all 2^r ray subsets, and its time about doubles
# with each ray: 0.19 s at 14 rays and 0.9 s at 16 in dimension 3, 1.3 s at
# 16 rays in dimension 4 (star subdivision chains).  From dimension 5 on the
# per-subset Bareiss ranks cost more: at 11 rays 0.45 s in dimension 5 and
# 0.65 s in dimension 6 (star subdivision chains of P5 and P6).  Medians of
# 3; 2-vCPU host, CPython 3.11.  A product fan never builds its own
# patterns, so the bound applies to each of its factors.
MAX_PATTERN_RAYS = 16

# lambda on the class coordinates, positive-part sums of +-lambda, (ray, |lambda|) on its support
Circuit = tuple[IntVec, int, int, tuple[tuple[int, int], ...]]
# rays, ranks, certificate mask, the one degree with a nonzero rank (or -1), bounded
Pattern = tuple[frozenset[int], tuple[int, ...], int, int, bool]
# the denominator, and per maximal cone alpha on the class coordinates and chi's numerators
Localization = tuple[int, tuple[tuple[IntVec, IntVec], ...]]


class InfiniteCohomologyError(ArithmeticError):
    """An unbounded weight region carries nonzero reduced cohomology.

    On a complete fan this cannot happen; it signals that an incomplete
    fan slipped past validation.
    """


def _unbounded(verts: frozenset[int]) -> InfiniteCohomologyError:
    return InfiniteCohomologyError(
        f"weight region of sign pattern {sorted(verts)} is unbounded; the fan cannot be complete")


@dataclass(frozen=True)
class WeightPattern:
    """A sign pattern over rays with its reduced ranks and weight count."""

    neg_rays: tuple[int, ...]
    reduced_ranks: tuple[int, ...]  # index q holds rank H~^{q-1}
    point_count: int


@dataclass(frozen=True)
class CohomologyVector:
    """(h^0, ..., h^n)."""

    dims: tuple[int, ...]

    def __getitem__(self, q: int) -> int:
        return self.dims[q]

    def euler(self) -> int:
        return sum(self.dims[::2]) - sum(self.dims[1::2])


# ---------------------------------------------------------------------------
# reduced cohomology of ray subcomplexes


def _nerve_ranks(fan: Fan, nerve: list[tuple[int, tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Ranks of H~^{-1..n-1} of the full subcomplex K_s on every ray subset s.

    The nerve (pairs of face bitmask and face, the empty face too) of a
    complete simplicial fan is a triangulated (n-1)-sphere, so for s neither
    empty nor all rays Alexander duality gives H~^i(K_s) = H~_{n-2-i}(K_c)
    on the complement c (Buchstaber-Panov, Toric Topology, AMS 2015).
    Every degree below the middle is ranked on s, every degree above it as
    a low degree on c, and the middle one (n even) is what the reduced
    Euler characteristic leaves.  Degree 0 is the number of components of
    the 1-skeleton minus 1; only n >= 5 has low degrees above 0, ranked
    through the coboundaries of the faces in s.
    """
    n, full = fan.dim, (1 << fan.n_rays) - 1
    nbr = [0] * fan.n_rays
    for bits, f in nerve:
        if len(f) == 2:
            nbr[f[0]] |= bits
            nbr[f[1]] |= bits
    comps = [0] * (full + 1)  # comps[s]: components of the 1-skeleton on s
    for s in range(1, full + 1):
        comp = todo = s & -s
        while todo:
            low = todo & -todo
            todo ^= low
            new = nbr[low.bit_length() - 1] & s & ~comp
            comp |= new
            todo |= new
        comps[s] = comps[s ^ comp] + 1
    nlow = max(1, (n - 1) // 2)  # degrees i with i < n - 2 - i, and degree 0
    low = [[c - 1 for c in comps]] + [[0] * (full + 1) for _ in range(1, nlow)]
    if nlow > 1:
        for s in range(1, full):
            faces = [[f for bits, f in nerve if len(f) == k and bits & s == bits]
                     for k in range(nlow + 2)]
            d = [0, len(faces[1]) - comps[s]]  # d[k]: rank of the coboundary out of size k
            for k in range(2, nlow + 1):
                index = {f: j for j, f in enumerate(faces[k])}
                rows = [[0] * len(index) for _ in faces[k + 1]]
                for row, tau in zip(rows, faces[k + 1]):
                    for j in range(k + 1):
                        row[index[tau[:j] + tau[j + 1:]]] = (-1) ** j
                d.append(integer_rank(rows))
            for i in range(1, nlow):
                low[i][s] = len(faces[i + 1]) - d[i + 1] - d[i]
    mid = (n - 2) // 2 if n % 2 == 0 and n >= 4 else None
    if mid is not None:
        euler = [0] * (full + 1)  # subset sums of the signed face indicator
        for bits, f in nerve:
            euler[bits] = 1 if len(f) % 2 else -1
        for i in range(fan.n_rays):
            step = 1 << i
            for base in range(0, full + 1, 2 * step):
                hi = slice(base + step, base + 2 * step)
                euler[hi] = map(operator.add, euler[hi], euler[base:base + step])
    out = [(1,) + (0,) * n] + [()] * (full - 1) + [(0,) * n + (1,)]
    for s in range(1, full):
        b = [low[i][s] if i < nlow else low[n - 2 - i][full ^ s] if n - 2 - i < nlow else 0
             for i in range(n - 1)]
        if mid is not None:
            b[mid] = (-1) ** mid * euler[s] - sum((-1) ** (i + mid) * x for i, x in enumerate(b))
        out[s] = (0, *b, 0)
    return out


def require_pattern_rays(fan: Fan) -> None:
    """Raise ValueError when the fan, or a factor of a product, has more than MAX_PATTERN_RAYS rays.

    A product's cohomology and frob set are read from its factors, so only
    their ray subsets are walked.
    """
    for part in [factor for _, factor, _ in fan._factors] or [fan]:
        if part.n_rays > MAX_PATTERN_RAYS:
            raise ValueError(
                f"cohomology walks all 2^r subsets of the rays; the fan has {part.n_rays} rays "
                f"and at most {MAX_PATTERN_RAYS} are supported"
            )


def _circuits(fan: Fan) -> tuple[IntVec, ...]:
    """The minimal linear relations sum lambda_i v_i = 0 among the rays, up to sign.

    A depth-first walk over the independent ray sets in index order keeps
    each set in fraction-free echelon form, with every echelon row's
    combination of the rays.  A later ray that reduces to zero gives the
    unique relation on the set and that ray; it is a circuit when it uses
    all of them, and is stored primitive with its first entry positive.
    """
    out: list[IntVec] = []
    _grow_circuits(fan.rays, [], [], out)
    return tuple(out)


def _grow_circuits(rays: tuple[IntVec, ...], support: list[int], echelon: list, out: list) -> None:
    """Extend the independent set support by each later ray; append the circuits found to out."""
    for j in range(support[-1] + 1 if support else 0, len(rays)):
        vec, lam = list(rays[j]), [int(i == j) for i in range(len(rays))]
        for c, row, comb in echelon:
            p, q = row[c], vec[c]
            if q:
                vec = [p * a - q * b for a, b in zip(vec, row)]
                lam = [p * a - q * b for a, b in zip(lam, comb)]
        if any(vec):
            nxt = echelon + [(next(c for c, x in enumerate(vec) if x), vec, lam)]
            _grow_circuits(rays, support + [j], nxt, out)
        elif all(lam[i] for i in support):
            g = math.gcd(*lam) * (1 if lam[support[0]] > 0 else -1)
            out.append(tuple(x // g for x in lam))


def _localization(fan: Fan) -> tuple[int, tuple[tuple[tuple[int, ...], IntVec, IntVec], ...]]:
    """Brion's localization of chi(O(D)): per maximal cone its rays, beta and polynomial.

    chi(O(D)) is the sum over the maximal cones sigma of the constant term at
    s = 0 of e^{s alpha} / prod_j (1 - e^{s beta_j}), where alpha = <m_sigma,
    xi> for the Cartier data m_sigma, beta_j = <u_j, xi> for the columns u_j
    of A_sigma^-1, and xi is any vector making every beta_j nonzero (Brion,
    Points entiers dans les polyedres convexes, 1988; Cox-Little-Schenck,
    Toric Varieties, ch. 13).  With td(x) = x / (e^x - 1) the term is
    (-1)^n / prod beta_j * [s^n] e^{s alpha} prod_j td(s beta_j), a
    polynomial of degree n in alpha.  The td coefficients B_i / i! are
    integer pairs, and each cone's polynomial is kept as integer numerators,
    highest degree first, over one denominator for the fan.
    """
    n = fan.dim
    nums, dens = [1], [1]  # td's coefficients: sum_{k<=i} t_k / (i-k+1)! is 1 at i = 0, else 0
    for i in range(1, n + 1):
        steps = [d * math.factorial(i - k + 1) for k, d in enumerate(dens)]
        den = math.lcm(*steps)
        num = -sum(x * (den // step) for x, step in zip(nums, steps))
        g = math.gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    tden = math.lcm(*dens)
    todd = [x * (tden // d) for x, d in zip(nums, dens)]
    columns = [tuple(zip(*U)) for U in fan._cone_inverses]
    for k in itertools.count(1):
        xi = tuple(k ** i for i in range(n))  # the moment curve meets each u's hyperplane < n times
        betas = [tuple(dot(u, xi) for u in cols) for cols in columns]
        if all(map(all, betas)):
            break
    lcm = math.lcm(*map(math.prod, betas))
    polys = []
    for beta in betas:
        ser = [1] + [0] * n  # prod_j td(s beta_j) to degree n, over tden^n
        for b in beta:
            ser = [sum(ser[i - k] * todd[k] * b ** k for k in range(i + 1)) for i in range(n + 1)]
        scale = (-1) ** n * (lcm // math.prod(beta))
        polys.append([scale * math.perm(n, n - k) * ser[n - k] for k in range(n, -1, -1)])
    den = math.factorial(n) * tden ** n * lcm
    g = math.gcd(den, *itertools.chain.from_iterable(polys))
    return den // g, tuple((cone, beta, tuple(c // g for c in poly))
                           for cone, beta, poly in zip(fan.max_cones, betas, polys))


def _euler_characteristic(fan: Fan, coords: IntVec) -> int:
    """chi of the class from the localization: a dot product and a Horner pass per cone."""
    den, cones = _active_patterns(fan)[2]
    total = 0
    for alpha_of, poly in cones:
        alpha = sum(map(operator.mul, alpha_of, coords))
        acc = 0
        for c in poly:
            acc = acc * alpha + c
        total += acc
    chi, rest = divmod(total, den)
    if rest:
        raise AssertionError(f"localized Euler characteristic {total}/{den} is not an integer")
    return chi


def _active_patterns(fan: Fan) -> tuple[tuple[Circuit, ...], tuple[Pattern, ...], Localization,
                                         tuple[IntVec, ...]]:
    """The circuits, the active patterns, chi's localization and the negated rays, once per fan.

    A pattern is a ray subset S whose full subcomplex has nonzero reduced
    cohomology, with its ranks and the bitmask of the Farkas certificates
    that can empty its region {m : A_S m <= b_S}, with rows v_i (i in S) and
    -v_i (i not in S).  It is empty iff an extreme ray y of
    {y >= 0 : y^T A_S = 0} has y^T b_S < 0.  Those rays are the circuits
    lambda read in an orientation sigma with sigma*lambda_i > 0 only on S
    and sigma*lambda_i < 0 only off S.  Certificate 2c reads circuit c as
    lambda, 2c + 1 as -lambda; each circuit comes with the positive-part
    sums of lambda and -lambda.  Both lambda and chi's exponent alpha =
    -sum beta_j a_j are kept on the class coordinates (the representative's
    coefficients, 0 on the basis rays), as lambda.a is the same for every
    divisor of a class.  A nonempty region is bounded iff the rows
    of A_S positively span R^n: the rays span R^n and the certificates'
    supports (the conformal circuits of the rows) cover every ray.  Each
    pattern also carries the degree q when its ranks are nonzero in q
    alone, -1 otherwise.  The walk visits all 2^r ray subsets, so fans with
    more than MAX_PATTERN_RAYS rays raise ValueError first.
    """
    hit = fan._rank_cache.get("patterns")
    if hit is not None:
        return hit
    require_pattern_rays(fan)
    circuits = []
    supports = []  # per certificate, its rays
    need_in = [0] * fan.n_rays  # the certificates that need ray i in S
    need_out = [0] * fan.n_rays  # and those that need it off S
    for c, lam in enumerate(_circuits(fan)):
        for i, x in enumerate(lam):
            if x:
                need_in[i] |= 1 << 2 * c + (x < 0)
                need_out[i] |= 1 << 2 * c + (x > 0)
        support = tuple((i, abs(x)) for i, x in enumerate(lam) if x)
        circuits.append((tuple([lam[j] for j in fan._pic[1]]), sum(x for x in lam if x > 0),
                         -sum(x for x in lam if x < 0), support))
        supports += [sum(1 << i for i, _ in support)] * 2
    every = (1 << 2 * len(circuits)) - 1
    full, spans = (1 << fan.n_rays) - 1, integer_rank(fan.rays) == fan.dim
    faces = {f for cone in fan.max_cones for k in range(len(cone) + 1)
             for f in itertools.combinations(cone, k)}
    nerve = [(sum(1 << i for i in f), f) for f in sorted(faces)]
    patterns = []
    for s, ranks in enumerate(_nerve_ranks(fan, nerve)):
        if any(ranks):
            mask = every
            for i in range(fan.n_rays):
                mask &= ~(need_out[i] if s >> i & 1 else need_in[i])
            cover, rest = 0, mask
            while rest:
                low = rest & -rest
                cover |= supports[low.bit_length() - 1]
                rest ^= low
            degrees = [q for q, r in enumerate(ranks) if r]
            patterns.append((frozenset(i for i in range(fan.n_rays) if s >> i & 1), ranks, mask,
                             degrees[0] if len(degrees) == 1 else -1, spans and cover == full))
    patterns.sort(key=lambda p: (len(p[0]), sorted(p[0])))
    den, cones = _localization(fan)
    chi = den, tuple((tuple([-beta[cone.index(j)] if j in cone else 0 for j in fan._pic[1]]), poly)
                     for cone, beta, poly in cones)
    negated = tuple(tuple(-x for x in ray) for ray in fan.rays)
    result = fan._rank_cache["patterns"] = (tuple(circuits), tuple(patterns), chi, negated)
    return result


def _emptied(circuits: tuple[Circuit, ...], coords: IntVec) -> int:
    """Bitmask of the certificates proving their patterns' regions empty for the class.

    With y = sigma*lambda, y^T b_S = -(<y, a> + sum of the positive y_i),
    so the certificate applies when <y, a> plus that sum is positive.
    """
    out = 0
    for c, (lam, pos_sum, neg_sum, _) in enumerate(circuits):
        t = sum(map(operator.mul, lam, coords))
        if t + pos_sum > 0:
            out |= 1 << 2 * c
        if neg_sum - t > 0:
            out |= 1 << 2 * c + 1
    return out


def _survivors(fan: Fan, coords: IntVec) -> list[Pattern]:
    """The active patterns of the class that no certificate empties, for the last class asked.

    _counted tallies them before weight_patterns scans them for the
    class's representative, so the certificate mask is computed once per
    class.  The entry's last slot holds the coefficients of the representative
    that _counted builds, so weight_patterns, handed a divisor with that very
    coefficient tuple, takes the class from it without reducing it again.
    """
    last = fan._rank_cache.get("survivors")
    if last is None or last[0] != coords:
        circuits, patterns, *_ = _active_patterns(fan)
        emptied = _emptied(circuits, coords)
        last = fan._rank_cache["survivors"] = (
            coords, [p for p in patterns if not p[2] & emptied], None)
    return last[1]


def _basis_vertices(fan: Fan, coeffs: IntVec, neg: frozenset[int]) -> Iterator[IntVec]:
    """Per unimodular ray basis B, the m with <m, v_j> = -a_j - [j in neg] on B's rays.

    m = U.t, t_j = -a_j - [j in neg], with U the inverse of B's ray matrix.
    It is integral because B is unimodular, and a vertex of neg's region
    whenever it meets the region's other rows.  The maximal cones come first,
    in the fan's order (there m is the Cartier point of D + sum_{j in neg}
    D_j), then the other unimodular sets of dim rays.
    """
    for basis, U in itertools.chain(zip(fan.max_cones, fan._cone_inverses), _other_bases(fan)):
        t = [-coeffs[j] - (j in neg) for j in basis]
        yield tuple([sum(map(operator.mul, row, t)) for row in U])


def _other_bases(fan: Fan) -> Iterator[tuple[tuple[int, ...], IntMat]]:
    """The unimodular sets of dim rays that are no maximal cone, with their inverses.

    They are found, and inverted, only when first reached, so a fan whose
    surviving regions each hold a cone's vertex never pays for its C(r, n)
    ray sets.  An inverse is det.adj, as det = +-1.
    """
    known = fan._rank_cache.get("other bases")
    if known is None:
        cones, found = set(fan.max_cones), []
        for basis in itertools.combinations(range(fan.n_rays), fan.dim):
            if basis not in cones:
                det, adj = adjugate(fan.cone_matrix(basis))
                if det in (1, -1):
                    found.append((basis, tuple(tuple(det * x for x in row) for row in adj)))
        known = fan._rank_cache["other bases"] = tuple(found)
    yield from known


def _pattern_region(fan: Fan, coeffs: IntVec, neg: frozenset[int]) -> LinearSystem:
    """Weights m with <m, v_rho> <= -a_rho - 1 on neg rays, >= -a_rho off them.

    The strict < of the negativity condition is integer-tight, so a neg row
    is stored as <v_rho, m> <= -a_rho - 1, and any other as <-v_rho, m> <= a_rho,
    with -v_rho from the fan's negated rays.  The rays and the coefficients
    of a library divisor are ints already, so the rows are not normalized again.
    """
    rows = zip(fan.rays, _active_patterns(fan)[3], coeffs)
    return LinearSystem._of_ints(fan.dim, tuple([
        (ray, -a - 1, False) if i in neg else (down, a, False)
        for i, (ray, down, a) in enumerate(rows)]))


def _slack_caps(circuits: tuple[Circuit, ...], coords: IntVec, mask: int) -> dict[int, int]:
    """Per ray in the certificates' supports, the least y.b // |lambda_j| over the mask's y.

    Certificate 2c has y.b = -(lambda.a + the positive sum), 2c + 1 has
    y.b = lambda.a - the negative sum, with lambda.a read on the class coordinates.
    """
    caps: dict[int, int] = {}
    while mask:
        low = mask & -mask
        mask ^= low
        bit = low.bit_length() - 1
        lam, pos_sum, neg_sum, support = circuits[bit >> 1]
        t = sum(map(operator.mul, lam, coords))
        yb = t - neg_sum if bit & 1 else -t - pos_sum
        for j, y in support:
            cap = yb // y
            if cap < caps.get(j, cap + 1):
                caps[j] = cap
    return caps


def _count_region(fan: Fan, coords: IntVec, coeffs: IntVec, neg: frozenset[int], mask: int,
                  total=sum) -> int:
    """The integer weights of neg's bounded, surviving region; with total=any, whether there is one.

    Row i of the region is e_i <v_i, m> <= b_i, with e_i = 1 and b_i = -a_i - 1
    on neg, e_i = -1 and b_i = a_i off it; its slack is s_i = b_i - e_i <v_i, m>.
    A certificate y of the mask has y^T A = 0, so sum y_i s_i = y.b, and none
    of them empties a survivor, so y.b >= 0 caps each slack in y's support
    by y.b // |lambda_j| (_slack_caps).  The certificates of a bounded region
    cover every ray, and as they are the dual vertices, the least cap on s_j
    is the floor of its maximum.  On a maximal cone sigma, m = U_sigma.(e_j
    (b_j - s_j))_j maps the integer slacks of sigma's rays one to one onto
    the weights, so the region is s_j in [0, cap_j] on sigma's rays and, for
    each other ray i, -g_i.s <= b_i - g_i.b_sigma with g_ij = e_i e_j <v_i,
    u_j>, u_j the columns of U_sigma.  The cone taken is the one whose box
    has fewest points once its largest side is left out, and its rays are
    walked by increasing cap, so the largest is counted as one interval.
    """
    caps = _slack_caps(_active_patterns(fan)[0], coords, mask)
    k = min(range(len(fan.max_cones)),
            key=lambda k: math.prod(sorted(caps[j] + 1 for j in fan.max_cones[k])[:-1]))
    cone, U = fan.max_cones[k], fan._cone_inverses[k]
    walk = sorted(zip(cone, zip(*U)), key=lambda ju: caps[ju[0]])
    sign = [1 if i in neg else -1 for i in range(fan.n_rays)]
    b = [-a - 1 if i in neg else a for i, a in enumerate(coeffs)]
    rows = []
    for i, ray in enumerate(fan.rays):
        if i not in cone:
            g = [sign[i] * sign[j] * dot(ray, u) for j, u in walk]
            rows.append((tuple([-x for x in g]),
                         b[i] - sum(x * b[j] for x, (j, _) in zip(g, walk)), False))
    return _count_box(rows, [(0, caps[j]) for j, _ in walk], total)


# ---------------------------------------------------------------------------
# public operations


def weight_patterns(fan: Fan, D: TorusDivisor, skip: Optional[int] = None
                    ) -> tuple[WeightPattern, ...]:
    """The cohomologically active sign patterns of D with exact point counts.

    With skip = q, a region whose ranks are nonzero in degree q alone is
    proven nonempty and bounded but neither counted nor returned.
    """
    fan.require_valid()
    _require_on_fan(fan, D)
    if fan._factors:
        return _joined_patterns(fan, D, skip)
    last = fan._rank_cache.get("survivors")
    if last and last[2] is D.coeffs:  # the representative _counted built: its class is known
        coords, survivors = last[0], last[1]
    else:
        coords = divisor_class(D).coords
        survivors = _survivors(fan, coords)
    out = []
    for verts, ranks, mask, single, bounded in survivors:
        region = _pattern_region(fan, D.coeffs, verts)
        if not feasible(region, _basis_vertices(fan, D.coeffs, verts)):
            raise AssertionError(
                f"weight region of sign pattern {sorted(verts)} is empty "
                "but no circuit certifies it"
            )
        if not bounded:
            raise _unbounded(verts)
        if single == skip:
            continue
        count = _count_region(fan, coords, D.coeffs, verts, mask)
        if count:
            out.append(WeightPattern(tuple(sorted(verts)), ranks, count))
    return tuple(out)


def _joined_patterns(fan: Fan, D: TorusDivisor, skip: Optional[int]) -> tuple[WeightPattern, ...]:
    """A product's patterns of D: per join of one pattern per factor, the
    factors' ranks convolved (index q = q_X + q_Y) and their counts multiplied.
    """
    per_factor = [
        [(tuple(rays[i] for i in p.neg_rays), p.reduced_ranks, p.point_count)
         for p in weight_patterns(factor, TorusDivisor(factor, tuple(D.coeffs[i] for i in rays)))]
        for rays, factor, _ in fan._factors
    ]
    out = []
    for combo in itertools.product(*per_factor):
        ranks = functools.reduce(_convolve, (r for _, r, _ in combo))
        if [q for q, x in enumerate(ranks) if x] != [skip]:
            neg = tuple(sorted(i for verts, _, _ in combo for i in verts))
            out.append(WeightPattern(neg, ranks, math.prod(c for _, _, c in combo)))
    out.sort(key=lambda p: (len(p.neg_rays), p.neg_rays))
    return tuple(out)


def _class_cohomology(fan: Fan, coords: IntVec) -> tuple[int, ...]:
    """The h-vector of the class with these coordinates, cached per fan under them.

    A product fan's miss is answered by Kunneth from its factors' caches.
    Any other miss with a surviving region builds the class's representative
    divisor; the degree q* with the most surviving single-degree regions is
    not counted, and h^{q*} is what chi leaves of the other degrees.
    """
    cache = fan._cohomology_cache
    dims = cache.get(coords)
    if dims is None:
        dims = cache[coords] = _kunneth(fan, coords) if fan._factors else _counted(fan, coords)
    return dims


def _kunneth(fan: Fan, coords: IntVec) -> tuple[int, ...]:
    """H^*(X x Y, L x M) = H^*(X, L) (x) H^*(Y, M): the factors' h-vectors convolved.

    Each factor's class is its own coordinates picked out of the product's,
    answered from that factor's cache.
    """
    return _convolved((_class_cohomology(factor, tuple([coords[p] for p in positions]))
                       for _, factor, positions in fan._factors), fan.dim)


def _convolved(vectors: Iterable[tuple[int, ...]], dim: int) -> tuple[int, ...]:
    """The factors' h-vectors convolved into one of length dim + 1; zero as soon as one is."""
    dims = (1,)
    for h in vectors:
        if not any(h):
            return (0,) * (dim + 1)
        dims = _convolve(dims, h)
    return dims


def _convolve(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of the product of the polynomials with coefficients u and v."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v, i):
                out[j] += x * y
    return tuple(out)


def _counted(fan: Fan, coords: IntVec) -> tuple[int, ...]:
    """The class's surviving regions counted, h^{q*} left to chi when a region is skipped."""
    survivors = _survivors(fan, coords)
    if not survivors:
        return (0,) * (fan.dim + 1)
    tally = [0] * (fan.dim + 2)  # the last slot collects the multi-degree patterns
    for _, _, _, single, _ in survivors:
        tally[single] += 1
    skip = tally.index(max(tally[:-1]))
    total = [0] * (fan.dim + 1)
    D = DivisorClass(coords, fan).representative()
    fan._rank_cache["survivors"] = (coords, survivors, D.coeffs)
    for p in weight_patterns(fan, D, skip=skip):
        for q, r in enumerate(p.reduced_ranks):
            total[q] += p.point_count * r
    if tally[skip]:
        total[skip] = 0
        rest = sum((-1) ** q * h for q, h in enumerate(total))
        total[skip] = (-1) ** skip * (_euler_characteristic(fan, coords) - rest)
    return tuple(total)


def _top_degree(fan: Fan, coords: IntVec, above: int) -> int:
    """The largest q > above with h^q of the class nonzero, on an irreducible fan; else above.

    h^q != 0 iff a survivor ranked in q has an integer point, so the survivors
    go from their top degree down; with none ranked above `above` no divisor is built.
    """
    tops = sorted(((max(q for q, r in enumerate(ranks) if r), verts, mask, bounded)
                   for verts, ranks, mask, _, bounded in _survivors(fan, coords)
                   if any(ranks[above + 1:])), key=operator.itemgetter(0), reverse=True)
    if not tops:
        return above
    coeffs = DivisorClass(coords, fan).representative().coeffs
    for q, verts, mask, bounded in tops:
        if not bounded:
            raise _unbounded(verts)
        if _count_region(fan, coords, coeffs, verts, mask, any):
            return q
    return above


def cohomology(fan: Fan, D: TorusDivisor) -> CohomologyVector:
    """All cohomology dimensions of O(D), exactly.

    Dimensions depend only on the divisor class, so D is reduced to its
    class and answered from the fan's per-class cache.  Raises ValueError
    when D is a divisor on another fan.
    """
    fan.require_valid()
    _require_on_fan(fan, D)
    return CohomologyVector(_class_cohomology(fan, divisor_class(D).coords))

