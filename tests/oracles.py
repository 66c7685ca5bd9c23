"""Second, independent routes to quantities the library computes one way.

The tests compare the library's answers with these: the per-weight brute
force for cohomology, m0 as the largest top degree of whole h-vectors (the
library decides only each class's top degree), the sum over every active
region with each region counted (the library leaves one degree to the Euler
characteristic), the integer points of a region's Fourier-Motzkin box, each
one tried (the library walks the slack box of its certificates), the
emptiness certificates and the localized Euler characteristic read on all
n_rays coefficients of a divisor (the library reads both on its class
coordinates), the recession cone of a pattern region decided by feasibility,
the reduced-cohomology ranks of one ray subcomplex built from the maximal
cones alone (the reference for the per-fan pattern table), the
residue-by-residue walk for pushforwards, the chamber walk with one LP at
every node for frob(X), the ell sweep from 1 for the stabilizing ell, the
projection-formula identity between pushforwards and cohomology, wall-curve
intersection numbers by a rational solve per wall and the support-function
scan for nefness, an integer solve per cone for Cartier data, through the
row Hermite normal form, the fan certificate and the cone inverses with an
adjugate per cone (the library walks the ridges from one adjugate instead),
and the first lattice basis of rays by trying every set of dim rays in order
(the library walks prefixes, and a product joins its factors' bases).

It keeps the public routes the library no longer exports: Ext dimensions
as the cohomology of a divisor of M - L, principal divisors, and
anti-nefness as nefness of -D.

It also builds the seeded chains of star subdivisions that the cohomology
and Frobenius tests share, GL(n, Z) images of fans with their rays
reordered, and the mixed copy of a product, whose blocks one unimodular
map links.
"""

import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from frobtilt.catalog import builtin
from frobtilt.cohomology import CohomologyVector, cohomology, weight_patterns
from frobtilt.cones import is_nef
from frobtilt.fan import (
    DivisorClass, Fan, TorusDivisor, ValidationReport, canonical_divisor, divisor_class,
    star_subdivision,
)
from frobtilt.frobenius import frob_set, pushforward_summands
from frobtilt.lattice import (
    IntMat,
    IntVec,
    adjugate,
    dot,
    feasible,
    feasible_point,
    identity_matrix,
    integer_rank,
)


def weight_cohomology(fan: Fan, D: TorusDivisor, m: IntVec) -> tuple[int, ...]:
    """(h^0_m, ..., h^n_m) for the single weight m."""
    fan.require_valid()
    neg = frozenset(
        i for i, ray in enumerate(fan.rays) if dot(m, ray) < -D.coeffs[i]
    )
    return subcomplex_ranks(fan, neg)


def counted_cohomology(fan: Fan, D: TorusDivisor) -> tuple[int, ...]:
    """(h^0, ..., h^n) with the weights of every active region counted.

    On a product fan the regions are joins of its factors' regions; the
    independent route there is a unimodularly mixed copy, which has no
    factors and counts the regions of its whole pattern table.
    """
    total = [0] * (fan.dim + 1)
    for p in weight_patterns(fan, D):
        for q, r in enumerate(p.reduced_ranks):
            total[q] += p.point_count * r
    return tuple(total)


def ext_dims(fan: Fan, L: DivisorClass, M: DivisorClass) -> CohomologyVector:
    """Ext^*(O(L), O(M)) = H^*(X, O(M - L)), from the cohomology of a divisor of M - L.

    Both classes must lie on fan; the library's Ext table reads its
    per-class cache on the coordinates of M - L instead.
    """
    return cohomology(fan, M.representative() - L.representative())


def principal_divisor(fan: Fan, w: IntVec) -> TorusDivisor:
    """div of the character with exponent w: coefficients <w, v_rho>."""
    return TorusDivisor(fan, tuple(dot(w, r) for r in fan.rays))


def is_antinef(D: TorusDivisor) -> bool:
    """Whether -D is nef; the library's bu_set reads the wall degrees of a class directly."""
    return is_nef(-D).is_nef


def top_nonzero(vec: CohomologyVector) -> Optional[int]:
    """The highest degree q with h^q != 0, or None for the zero vector."""
    nz = [q for q, h in enumerate(vec.dims) if h]
    return nz[-1] if nz else None


def m0_from_h_vectors(fan: Fan, summands: Sequence[DivisorClass]) -> int:
    """m0 as the largest top degree of the whole h-vector cohomology(b - a - K) over all pairs.

    The summands' representatives are read onto fan, so it may be a fresh
    copy of theirs whose caches the library route has not filled.
    """
    K = canonical_divisor(fan)
    reps = [TorusDivisor(fan, L.representative().coeffs) for L in summands]
    tops = (top_nonzero(cohomology(fan, b - a - K)) for a in reps for b in reps)
    return max(top for top in tops if top is not None)


def certificates_on_coefficients(circuits: Sequence[IntVec], coeffs: IntVec) -> int:
    """The bitmask of the Farkas certificates that empty their regions, read on all of D's a.

    circuits are the full relations lambda among the rays; certificate 2c
    reads circuit c as y = lambda and 2c + 1 as y = -lambda, and applies
    when <y, a> plus the sum of y's positive entries is positive.
    """
    out = 0
    for c, lam in enumerate(circuits):
        t = dot(lam, coeffs)
        if t + sum(x for x in lam if x > 0) > 0:
            out |= 1 << 2 * c
        if -t - sum(x for x in lam if x < 0) > 0:
            out |= 1 << 2 * c + 1
    return out


def localized_chi_on_coefficients(localization, coeffs: IntVec) -> int:
    """chi(O(D)) from Brion's localization (den, per cone its rays, beta_j and
    polynomial), with each cone's exponent alpha = -sum beta_j a_j over its rays."""
    den, cones = localization
    total = 0
    for cone, beta, poly in cones:
        alpha = -sum(b * coeffs[i] for i, b in zip(cone, beta))
        acc = 0
        for c in poly:
            acc = acc * alpha + c
        total += acc
    chi, rest = divmod(total, den)
    assert rest == 0, (total, den)
    return chi


def recession_cone_is_zero(fan: Fan, verts: frozenset[int]) -> bool:
    """True iff {d : <v_i, d> <= 0 for i in verts, >= 0 otherwise} is {0}.

    That cone is the recession cone of every pattern region of verts, so a
    nonempty region is bounded iff it is {0}.  A cone holds a d != 0 iff it
    holds one with some +-d_k >= 1, so it is {0} iff no such system is feasible.
    """
    rows = tuple((ray if i in verts else tuple(-x for x in ray), 0, False)
                 for i, ray in enumerate(fan.rays))
    return not any(
        feasible(fan.dim, rows + ((tuple(-sign * (j == k) for j in range(fan.dim)), -1, False),))
        for k in range(fan.dim)
        for sign in (1, -1)
    )


def fm_interval(dim: int, rows: Sequence[tuple[IntVec, int, bool]], k: int
                ) -> Optional[tuple[Fraction, Fraction]]:
    """Fourier-Motzkin projection of the rows' non-strict relaxation onto x_k.

    The exact rational (min, max) of x_k, or None when the relaxation is
    empty; assumes x_k bounded.
    """
    rows = [(list(a), b) for a, b, _ in rows]
    for j in range(dim):
        if j == k:
            continue
        lower = [(a, b) for a, b in rows if a[j] < 0]
        upper = [(a, b) for a, b in rows if a[j] > 0]
        rows = [(a, b) for a, b in rows if a[j] == 0] + [
            ([-la[j] * u + ua[j] * l for l, u in zip(la, ua)], -la[j] * ub + ua[j] * lb)
            for la, lb in lower
            for ua, ub in upper
        ]
    if any(a[k] == 0 and b < 0 for a, b in rows):
        return None
    lo = max(Fraction(b, a[k]) for a, b in rows if a[k] < 0)
    hi = min(Fraction(b, a[k]) for a, b in rows if a[k] > 0)
    return None if lo > hi else (lo, hi)


def brute_count(rows: Sequence[tuple[IntVec, int, bool]], box: Sequence[tuple[int, int]]) -> int:
    """The integer points of the box [lo_k, hi_k] meeting every row (a, b, strict), each one tried."""
    return sum(
        all(dot(a, pt) <= b - strict for a, b, strict in rows)
        for pt in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
    )


def subcomplex_ranks(fan: Fan, verts: frozenset[int]) -> tuple[int, ...]:
    """Ranks of H~^{-1..n-1} of the full subcomplex on the given rays.

    Simplices are the ray subsets spanning a cone of the fan, i.e. the
    subsets of the maximal cones' ray sets (the fan is simplicial).
    """
    n = fan.dim
    faces: set[tuple[int, ...]] = set()
    for cone in fan.max_cones:
        inside = tuple(i for i in cone if i in verts)
        for k in range(1, len(inside) + 1):
            faces.update(itertools.combinations(inside, k))
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for f in faces:
        by_dim[len(f) - 1].append(f)
    for lst in by_dim:
        lst.sort()
    index = [{f: i for i, f in enumerate(lst)} for lst in by_dim]

    # coboundary delta_p: C^p -> C^{p+1}; store rank of each
    co_rank = [0] * n  # co_rank[p] = rank delta_p for p = 0..n-1 (delta_{n-1}=0)
    for p in range(n - 1):
        rows = []
        for tau in by_dim[p + 1]:
            row = [0] * len(by_dim[p])
            for i in range(len(tau)):
                face = tau[:i] + tau[i + 1 :]
                row[index[p][face]] = (-1) ** i
            rows.append(row)
        if rows:
            co_rank[p] = integer_rank(rows)

    # augmentation C^{-1} = Q -> C^0
    aug_rank = 1 if by_dim[0] else 0
    ranks = [0] * (n + 1)
    # q = 0 entry is rank H~^{-1}
    ranks[0] = 1 - aug_rank
    for p in range(n):
        dim_cp = len(by_dim[p])
        below = aug_rank if p == 0 else co_rank[p - 1]
        above = co_rank[p] if p < n - 1 else 0
        ranks[p + 1] = dim_cp - above - below
    return tuple(ranks)


def summand_divisor(fan: Fan, D: TorusDivisor, ell: int, u: IntVec) -> TorusDivisor:
    """The summand of residue u: coefficients floor((a_rho + <u, v_rho>) / ell)."""
    coeffs = tuple(
        (D.coeffs[i] + dot(u, ray)) // ell for i, ray in enumerate(fan.rays)
    )
    return TorusDivisor(fan, coeffs)


def subdivision_chain(base: str, steps: int, seed: int) -> Fan:
    """The fan after steps star subdivisions of faces drawn by random.Random(seed)."""
    rng = random.Random(seed)
    fan = builtin(base).fan
    for _ in range(steps):
        cone = rng.choice(fan.max_cones)
        fan = star_subdivision(fan, tuple(rng.sample(cone, rng.randint(2, fan.dim))))
    return fan


def mixed(fan: Fan) -> Fan:
    """The fan under g: x_i -> x_0 + ... + x_i, which is unimodular and links the blocks."""
    rays = tuple(tuple(sum(ray[: i + 1]) for i in range(fan.dim)) for ray in fan.rays)
    return Fan(fan.dim, rays, fan.max_cones)


def scrambled(fan: Fan, seed: int) -> Fan:
    """The fan under a seeded g in GL(n, Z), with its rays in a seeded order.

    g is a product of 3n elementary steps (add or subtract one coordinate to
    another) and a coordinate negation, so it mixes every block of a product.
    """
    rng = random.Random(seed)
    n = fan.dim
    g = [list(row) for row in identity_matrix(n)]
    for _ in range(3 * n if n > 1 else 0):
        (i, j), sign = rng.sample(range(n), 2), rng.choice((-1, 1))
        g[i] = [a + sign * b for a, b in zip(g[i], g[j])]
    k = rng.randrange(n)
    g[k] = [-a for a in g[k]]
    order = list(range(fan.n_rays))
    rng.shuffle(order)
    at = {old: new for new, old in enumerate(order)}
    rays = tuple(tuple(dot(row, fan.rays[i]) for row in g) for i in order)
    return Fan(n, rays, tuple(tuple(at[i] for i in cone) for cone in fan.max_cones))


def residue_walk(fan: Fan, D: TorusDivisor, ell: int) -> Counter:
    """Multiset of summand classes of the degree-ell pushforward of O(D)."""
    fan.require_valid()
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    counts: Counter = Counter()
    classes: dict[IntVec, DivisorClass] = {}  # residues share few floor vectors
    for u in itertools.product(range(ell), repeat=fan.dim):
        b = tuple((a + dot(u, ray)) // ell for a, ray in zip(D.coeffs, fan.rays))
        if b not in classes:
            classes[b] = divisor_class(TorusDivisor(fan, b))
        counts[classes[b]] += 1
    return counts


def chamber_system(fan: Fan, bs: tuple[int, ...]) -> tuple[tuple[IntVec, int, bool], ...]:
    """The rows of t in [0,1)^n with <t, v_rho> in [b_rho, b_rho + 1) for the first len(bs) rays."""
    n = fan.dim
    rows = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        rows.append((tuple(-x for x in e), 0, False))
        rows.append((e, 1, True))
    for ray, b in zip(fan.rays, bs):
        rows.append((tuple(-x for x in ray), -b, False))
        rows.append((ray, b + 1, True))
    return tuple(rows)


def chamber_leaves(fan: Fan) -> dict[IntVec, int]:
    """The chamber walk with one LP at every node.

    Returns each leaf's floor vector with the chamber ell of its LP point,
    in walk order.
    """
    fan.require_valid()
    leaves: dict[IntVec, int] = {}
    ranges = []
    for ray in fan.rays:
        lo = sum(min(x, 0) for x in ray)
        hi = sum(max(x, 0) for x in ray)
        ranges.append(range(lo, max(hi, 1)))

    def descend(k: int, prefix: tuple[int, ...]) -> None:
        point = feasible_point(fan.dim, chamber_system(fan, prefix))
        if point is None:
            return
        if k == fan.n_rays:
            leaves[prefix] = point[1] // math.gcd(point[1], *point[0])
            return
        for b in ranges[k]:
            descend(k + 1, prefix + (b,))

    descend(0, ())
    return leaves


def chamber_classes(fan: Fan) -> dict[DivisorClass, int]:
    """frob(X) from chamber_leaves: each class with the chamber ell of its first leaf."""
    out: dict[DivisorClass, int] = {}
    for b, ell in chamber_leaves(fan).items():
        out.setdefault(divisor_class(TorusDivisor(fan, b)), ell)
    return out


def chamber_walk(fan: Fan) -> dict[DivisorClass, int]:
    """frob(X) with minimal witness ells, by chamber_leaves and a residue-walk sweep.

    Returns each class's minimal witness ell, from a sweep of ell = 1 up to
    the largest chamber ell.
    """
    chamber_ells = chamber_classes(fan)
    zero = TorusDivisor(fan, (0,) * fan.n_rays)
    found: dict[DivisorClass, int] = {}
    for ell in range(1, max(chamber_ells.values()) + 1):
        for cls in residue_walk(fan, zero, ell):
            if cls in chamber_ells:
                found.setdefault(cls, ell)
    return found


def stabilizing_ell_from_one(fan: Fan) -> int:
    """Least ell whose pushforward of O contains every frob class, searched from 1.

    The classes come from chamber_leaves and each ell from residue_walk, so
    no library routine of frob(X) or of the pushforward takes part.
    """
    classes = set(chamber_classes(fan))
    zero = TorusDivisor(fan, (0,) * fan.n_rays)
    ell = 1
    while not classes <= set(residue_walk(fan, zero, ell)):
        ell += 1
    return ell


@dataclass(frozen=True)
class ChainCheck:
    ok: bool
    violation: Optional[tuple[DivisorClass, int, int]]  # (L, ell, degree)


def projection_chain_check(fan: Fan, ell: int) -> ChainCheck:
    """Dimension-level identity behind the twist computation.

    For every frob class L and every degree m, the summed cohomology of
    the pushforward summands twisted by -L - K equals the cohomology of
    -ell*(L + K); this is the rank shadow of the projection-formula and
    adjunction steps.
    """
    fan.require_valid()
    K = canonical_divisor(fan)
    zero = TorusDivisor(fan, (0,) * fan.n_rays)
    push = pushforward_summands(fan, zero, ell)
    for L in frob_set(fan).classes:
        DL = L.representative()
        lhs = [0] * (fan.dim + 1)
        for B, mult in sorted(push.items()):
            vec = cohomology(fan, B.representative() - DL - K)
            for q, h in enumerate(vec.dims):
                lhs[q] += mult * h
        rhs = cohomology(fan, -ell * (DL + K))
        for q in range(fan.dim + 1):
            if lhs[q] != rhs.dims[q]:
                return ChainCheck(False, (L, ell, q))
    return ChainCheck(True, None)


def hermite_normal_form(A: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U.A, U unimodular, H in row echelon form with
    positive pivots and the entries above each pivot reduced into
    [0, pivot).
    """
    H = [list(map(operator.index, row)) for row in A]
    if not H or not H[0]:
        raise ValueError("matrix must be nonempty")
    m, n = len(H), len(H[0])
    U = [list(row) for row in identity_matrix(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        # Euclid on column c: swap the minimal entry up, reduce the others.
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            if len(nz) == 1:
                break
            p = H[r][c]
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // p
                    if q:
                        H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                        U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        if H[r][c] == 0:
            continue
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        p = H[r][c]
        for i in range(r):
            q = H[i][c] // p
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def first_lattice_basis(fan: Fan) -> tuple[int, ...]:
    """The lexicographically first dim rays that form a Z-basis: the first whose
    Hermite normal form is the identity."""
    unit = identity_matrix(fan.dim)
    return next(c for c in itertools.combinations(range(fan.n_rays), fan.dim)
                if hermite_normal_form([fan.rays[i] for i in c])[0] == unit)


def solve_integer(A: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[IntVec]:
    """One integer solution of A.x = b, or None when none exists.

    Works through the column-style HNF: with H = U.A^T we have
    A.U^T = H^T, and H^T.y = b is triangular in the pivot order.
    """
    m = len(A)
    n = len(A[0])
    if len(b) != m:
        raise ValueError("dimension mismatch")
    H, U = hermite_normal_form(tuple(zip(*A)))  # H: n x m
    y = [0] * n
    resid = [int(v) for v in b]
    for i in range(n):
        row = H[i]
        p = next((j for j in range(m) if row[j] != 0), None)
        if p is None:
            break
        num, den = resid[p], row[p]
        if num % den:
            return None
        q = num // den
        y[i] = q
        if q:
            resid = [r - q * h for r, h in zip(resid, row)]
    if any(resid):
        return None
    x = tuple(sum(U[i][k] * y[i] for i in range(n)) for k in range(n))
    if any(dot(A[i], x) != b[i] for i in range(m)):
        raise AssertionError("solve_integer produced a non-solution")
    return x


def nef_by_walls(D: TorusDivisor) -> tuple[bool, bool]:
    """(nef, ample) from the intersection numbers of D with the wall curves.

    A wall tau is the common facet of two maximal cones, with v_a and v_b
    their rays off tau.  On a smooth fan the wall relation reads
    v_a + v_b + sum_{i in tau} c_i v_i = 0, and D.V(tau) = a_a + a_b +
    sum c_i a_i (Cox-Little-Schenck, Toric Varieties, Prop. 6.4.4).  D is
    nef iff every D.V(tau) >= 0 and ample iff every one is > 0 (toric
    Kleiman criterion, ibid. Thm. 6.3.13).
    """
    fan = D.fan
    fan.require_valid()
    walls: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cone in fan.max_cones:
        for tau in itertools.combinations(cone, fan.dim - 1):
            walls.setdefault(tau, []).append(cone)
    degrees = []
    for tau, (s1, s2) in walls.items():
        (a,) = set(s1) - set(tau)
        (b,) = set(s2) - set(tau)
        # v_b = x_a v_a + sum_{i in tau} x_i v_i over Q; smoothness gives x_a = -1.
        basis = (a,) + tau
        x = _fraction_solve([fan.rays[i] for i in basis], fan.rays[b])
        if x[0] != -1:
            raise ValueError(f"wall {tau} is not a smooth wall")
        degrees.append(D.coeffs[a] + D.coeffs[b] - sum(xi * D.coeffs[i] for xi, i in zip(x[1:], tau)))
    return all(d >= 0 for d in degrees), all(d > 0 for d in degrees)


def _fraction_solve(vectors: Sequence[IntVec], target: IntVec) -> list[Fraction]:
    """The coefficients x with sum_k x_k vectors[k] = target, for a basis of Q^n."""
    n = len(target)
    # Gauss-Jordan on the n x (n+1) matrix [vectors^T | target].
    M = [[Fraction(v[r]) for v in vectors] + [Fraction(target[r])] for r in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                M[r] = [x - M[r][c] * y for x, y in zip(M[r], M[c])]
    return [M[r][n] for r in range(n)]


def validate_by_adjugates(fan: Fan) -> ValidationReport:
    """The fan certificate with the adjugate of every cone's ray matrix.

    The library crosses ridges from one adjugate instead (Fan._ridge_walk); the
    reports, failure strings included, must be equal.
    """
    failures: list[str] = []
    n = fan.dim

    primitive = True
    for i, r in enumerate(fan.rays):
        if all(x == 0 for x in r):
            primitive = False
            failures.append(f"ray {i} is zero")
        else:
            g = math.gcd(*r)
            if g != 1:
                primitive = False
                failures.append(f"ray {i} = {r} is not primitive (gcd {g})")
    if len(set(fan.rays)) != fan.n_rays:
        primitive = False
        failures.append("rays are not pairwise distinct")

    used = set(itertools.chain.from_iterable(fan.max_cones))
    if used != set(range(fan.n_rays)):
        failures.append("some ray lies in no maximal cone")

    adjugates = {c: adjugate(fan.cone_matrix(c)) for c in fan.max_cones if len(c) == n}
    simplicial = True
    smooth = True
    for c in fan.max_cones:
        if len(c) != n:
            simplicial = False
            failures.append(f"cone {c} does not have {n} rays")
            continue
        d = adjugates[c][0]
        if d == 0:
            simplicial = False
            failures.append(f"cone {c} is degenerate (determinant 0)")
        elif abs(d) != 1:
            smooth = False
            failures.append(f"cone {c} is not smooth (determinant {d})")

    ridge_paired = True
    connected = True
    if simplicial:
        ridges: dict[tuple[int, ...], list[int]] = {}
        for ci, c in enumerate(fan.max_cones):
            for ridge in itertools.combinations(c, n - 1):
                ridges.setdefault(ridge, []).append(ci)
        for ridge, owners in sorted(ridges.items()):
            if len(owners) != 2:
                ridge_paired = False
                failures.append(
                    f"ridge {ridge} lies in {len(owners)} maximal cone(s), expected 2"
                )
        neighbours: list[set[int]] = [set() for _ in fan.max_cones]
        for owners in ridges.values():
            for ci in owners:
                neighbours[ci].update(owners)
        seen = {0}
        frontier = [0]
        while frontier:
            for cj in neighbours[frontier.pop()] - seen:
                seen.add(cj)
                frontier.append(cj)
        if len(seen) != len(fan.max_cones):
            connected = False
            failures.append("dual graph of maximal cones is disconnected")
    else:
        ridge_paired = connected = False

    covers_once = simplicial and ridge_paired and connected and _covers_once_by_adjugates(
        fan, adjugates, ridges, failures
    )
    return ValidationReport(primitive, simplicial, smooth, ridge_paired, connected, covers_once,
                            tuple(failures))


def _covers_once_by_adjugates(fan: Fan, adjugates: dict, ridges: dict[tuple[int, ...], list[int]],
                              failures: list[str]) -> bool:
    """Local injectivity at every ridge, by the Cramer sign in the ridge's
    first cone, and degree one at the first (1, t, ..., t^(n-1)) off every
    ridge hyperplane."""
    normals = []  # per ridge, the adj column of o1 in c1
    for ridge, (c1, c2) in sorted(ridges.items()):
        o1, o2 = (next(i for i in fan.max_cones[c] if i not in ridge) for c in (c1, c2))
        cone = fan.max_cones[c1]
        det, adj = adjugates[cone]
        column = tuple(row[cone.index(o1)] for row in adj)
        if det * dot(fan.rays[o2], column) >= 0:
            failures.append(f"rays {o1} and {o2} lie on the same side of ridge {ridge}")
            return False
        normals.append(column)
    t = 1
    while True:
        x = tuple(t**k for k in range(fan.dim))
        if all(dot(x, column) for column in normals):
            break
        t += 1
    degree = sum(1 for c in fan.max_cones if cone_contains(fan, c, x))
    if degree != 1:
        failures.append(
            f"the cones cover R^{fan.dim} with degree {degree}, not 1: "
            f"direction {x} lies in {degree} maximal cones"
        )
        return False
    return True


def cone_contains(fan: Fan, cone: tuple[int, ...], x: IntVec) -> bool:
    """x is a nonnegative combination of the cone's rays, decided by Cramer's rule.

    The coefficient of ray k is (x.adj)_k / det, so each (x.adj)_k must
    share det's sign.
    """
    det, adj = adjugate(fan.cone_matrix(cone))
    return det != 0 and all(det * dot(x, column) >= 0 for column in zip(*adj))


def cone_inverses(fan: Fan) -> tuple[IntMat, ...]:
    """Per maximal cone, det.adj of its ray matrix, the inverse when det = +-1."""
    out = []
    for cone in fan.max_cones:
        det, adj = adjugate(fan.cone_matrix(cone))
        assert det in (1, -1), cone
        out.append(tuple(tuple(det * v for v in row) for row in adj))
    return tuple(out)


def nef_by_support_function(D: TorusDivisor) -> tuple[bool, bool, Optional[tuple[int, int]]]:
    """(nef, ample, failing) by convexity of the support function.

    With Cartier data m_sigma (an integer solve per cone), D is nef iff
    <m_sigma, v_rho> >= -a_rho for every maximal cone sigma and every ray
    rho outside it, and ample iff all those inequalities are strict.
    failing is the first (cone index, ray) pair that is violated, or when D
    is nef the first that is tight, or None when D is ample.
    """
    fan = D.fan
    fan.require_valid()
    first_violation = None
    first_equality = None
    for ci, cone in enumerate(fan.max_cones):
        m = solve_integer(fan.cone_matrix(cone), [-D.coeffs[i] for i in cone])
        for ri, ray in enumerate(fan.rays):
            if ri in cone:
                continue
            val = dot(m, ray)
            if val < -D.coeffs[ri] and first_violation is None:
                first_violation = (ci, ri)
            elif val == -D.coeffs[ri] and first_equality is None:
                first_equality = (ci, ri)
    nef = first_violation is None
    ample = nef and first_equality is None
    return nef, ample, first_violation if not nef else first_equality
