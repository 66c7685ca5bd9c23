"""Fans of smooth projective toric varieties and their divisor theory.

A Fan is the combinatorial model of the variety: primitive ray generators
in Z^n plus the maximal cones as ray index sets.  Completeness is proven
exactly: ridge pairing, dual-graph connectivity, local injectivity at every
ridge, and degree one at a generic point; see validate().

Cone and basis questions are answered by integer adjugates of ray matrices.
Divisor classes live in Pic = Z^{#rays} / M, coordinatized once and for all
by the one representative that vanishes on a fixed lattice basis of rays, so
class equality is plain integer-vector equality.

A fan whose rays split into coordinate blocks, two coordinates joined when
a ray is nonzero on both, is a product: its cones are the products of the
blocks' cones, and its basis is the union of the factors' bases, so a
factor's class is the factor's coordinates picked out of the product's.
A product is certified by its factors' certificates plus the cone count
(Fan.validation); its basis, cohomology, frob set, anti-nef set, -K
status, Ext table and m0 are answered from its factors.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from typing import Iterable, Optional

from .lattice import IntMat, IntVec, adjugate, dot, integer_rank


class InvalidFanError(ValueError):
    """The fan is not a valid smooth complete simplicial fan."""


@dataclass(frozen=True)
class ValidationReport:
    primitive: bool
    simplicial: bool
    smooth: bool
    ridge_paired: bool
    connected: bool
    covers_once: bool  # local injectivity at every ridge and degree one
    failures: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return self.ridge_paired and self.connected and self.covers_once

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Fan:
    """dim, primitive rays in Z^dim, and maximal cones as ray index tuples."""

    dim: int
    rays: tuple[IntVec, ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rays = tuple(tuple(map(operator.index, r)) for r in self.rays)
        cones = tuple(sorted({tuple(sorted(set(map(operator.index, c)))) for c in self.max_cones}))
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        if self.dim < 1:
            raise ValueError("fan dimension must be >= 1")
        if not rays or any(len(r) != self.dim for r in rays):
            raise ValueError("rays must be nonempty vectors of length dim")
        for c in cones:
            if any(not 0 <= i < len(rays) for i in c):
                raise ValueError(f"cone {c} references a missing ray")
        if not cones:
            raise ValueError("fan needs at least one maximal cone")

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def cone_matrix(self, cone: tuple[int, ...]) -> tuple[IntVec, ...]:
        return tuple(self.rays[i] for i in cone)

    @cached_property
    def validation(self) -> "ValidationReport":
        """validate(self), or for a product its factors' reports and the cone count.

        A fan with valid factors (_split) and every ray in a block is valid
        when it has as many cones as the product of its factors' counts.
        Projection maps its cones one to one to tuples of factor cones (a
        cone is the union of its projections), and the factor cones are
        those projections, so the count makes the cones exactly the products
        of factor cones.  Such a product of smooth complete fans is smooth
        and complete: each ray is a primitive factor ray padded with zeros, a
        cone's determinant is +-the product of its factors', and the support
        is the product of theirs.  Any other fan gets the full validate.
        """
        split = self._split
        if (split and sum(len(rays) for rays, _ in split) == self.n_rays
                and len(self.max_cones) == prod(len(factor.max_cones) for _, factor in split)):
            return ValidationReport(True, True, True, True, True, True, ())
        return validate(self)

    def require_valid(self) -> None:
        rep = self.validation
        if not rep.ok:
            raise InvalidFanError("; ".join(rep.failures))

    # -- cone inverses and Picard coordinates ------------------------------

    @cached_property
    def _adjugates(self) -> dict[tuple[int, ...], tuple[int, Optional[IntMat]]]:
        """(det, adj) of the ray matrix of each maximal cone with dim rays."""
        return {c: adjugate(self.cone_matrix(c)) for c in self.max_cones if len(c) == self.dim}

    @cached_property
    def _cone_inverses(self) -> tuple[IntMat, ...]:
        """Per maximal cone, the inverse det.adj of its unimodular ray matrix."""
        out = []
        for cone in self.max_cones:
            det, adj = self._adjugates.get(cone, (0, None))
            if det not in (1, -1):
                raise InvalidFanError(f"cone {cone} is not smooth: no integral Cartier data")
            out.append(tuple(tuple(det * x for x in row) for row in adj))
        return tuple(out)

    @cached_property
    def _pic(self) -> tuple[tuple[int, ...], tuple[int, ...], IntMat]:
        """The basis rays B, the other rays N, and each N ray's coordinates in B.

        B is the lexicographically first set of dim rays that is a Z-basis,
        found depth first over the rays in index order, dropping every
        dependent prefix.  The class of D is a_N - P.a_B, with P the rows of
        coordinates: D plus the principal divisor of m = B^-1(-a_B), which
        vanishes on B.  Rays of a product form a Z-basis iff each block's do,
        and the least element of the symmetric difference of two sets
        decides their order, so a product takes its factors' first bases.
        """
        rays, split = self.rays, self._split
        if split:
            basis = tuple(sorted(idx[j] for idx, factor in split for j in factor._pic[0]))
            det, adj = adjugate([rays[i] for i in basis])
        else:
            found = _first_basis(rays, self.dim, ())
            if found is None:
                raise InvalidFanError("no dim rays form a lattice basis; fan is not smooth+complete")
            basis, det, adj = found
        others = tuple(j for j in range(self.n_rays) if j not in basis)
        return basis, others, tuple(tuple(det * dot(rays[j], col) for col in zip(*adj))
                                    for j in others)

    @property
    def picard_rank(self) -> int:
        return len(self._pic[1])

    @cached_property
    def _split(self) -> tuple[tuple[tuple[int, ...], "Fan"], ...]:
        """Per coordinate block of a fan of two or more: its rays and its factor Fan.

        The blocks are the components of the coordinates, two joined when a
        ray is nonzero on both; each factor keeps its rays in the product's
        order, and its cones are the projections of the product's.  Equal
        factors are one Fan object, so they share one cohomology cache.  A
        fan of one block, or with a factor that is not a valid fan, gives ().
        """
        masks = [sum(1 << k for k, x in enumerate(ray) if x) for ray in self.rays]
        blocks = _coordinate_blocks(masks)
        if len(blocks) < 2:
            return ()
        split, shared = [], {}
        for block in sorted(blocks, key=lambda m: m & -m):
            coords = [k for k in range(self.dim) if block >> k & 1]
            rays = tuple(i for i, mask in enumerate(masks) if mask & block)
            local = {i: j for j, i in enumerate(rays)}
            factor = Fan(len(coords), tuple(tuple(self.rays[i][k] for k in coords) for i in rays),
                         tuple(tuple(local[i] for i in c if i in local) for c in self.max_cones))
            factor = shared.setdefault(factor, factor)
            if not factor.validation.ok:
                return ()
            split.append((rays, factor))
        return tuple(split)

    @cached_property
    def _factors(self) -> tuple[tuple[tuple[int, ...], "Fan", tuple[int, ...]], ...]:
        """Per factor of a product fan: its rays, its Fan, and its Picard positions.

        The positions are where the factor's class coordinates sit among the
        product's, whose basis is the union of the factors'.  () when _split is.
        """
        others = self._pic[1] if self._split else ()
        return tuple((rays, factor, tuple(others.index(rays[j]) for j in factor._pic[1]))
                     for rays, factor in self._split)

    # mutable per-fan caches, filled lazily; a Fan is immutable otherwise
    @cached_property
    def _rank_cache(self) -> dict:
        return {}

    @cached_property
    def _cohomology_cache(self) -> dict:
        return {}


def _coordinate_blocks(masks: Iterable[int]) -> list[int]:
    """The components of the coordinates, two joined when some mask holds both, as bitmasks."""
    blocks: list[int] = []
    for mask in masks:
        if mask:
            joined = [m for m in blocks if m & mask]
            blocks = [m for m in blocks if not m & mask] + [mask | sum(joined)]
    return blocks


def _first_basis(rays: tuple[IntVec, ...], n: int, chosen: tuple[int, ...]):
    """(basis, det, adj) for the first n rays after chosen that extend it to a Z-basis, or None."""
    if len(chosen) == n:
        det, adj = adjugate([rays[i] for i in chosen])
        return (chosen, det, adj) if det in (1, -1) else None
    for i in range(chosen[-1] + 1 if chosen else 0, len(rays)):
        nxt = chosen + (i,)
        found = integer_rank([rays[j] for j in nxt]) == len(nxt) and _first_basis(rays, n, nxt)
        if found:
            return found
    return None


@dataclass(frozen=True)
class TorusDivisor:
    """An invariant divisor sum(a_rho D_rho), one coefficient per ray."""

    fan: Fan
    coeffs: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(map(operator.index, self.coeffs)))
        if len(self.coeffs) != self.fan.n_rays:
            raise ValueError("one coefficient per ray required")

    def __add__(self, other: "TorusDivisor") -> "TorusDivisor":
        return TorusDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TorusDivisor") -> "TorusDivisor":
        return TorusDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TorusDivisor":
        return TorusDivisor(self.fan, tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "TorusDivisor":
        return TorusDivisor(self.fan, tuple(k * a for a in self.coeffs))


@dataclass(frozen=True, order=True)
class DivisorClass:
    """A point of Pic: the non-basis coefficients of its representative."""

    coords: IntVec = field(compare=True)
    fan: Fan = field(compare=False)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)), self.fan)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)), self.fan)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords), self.fan)

    def representative(self) -> TorusDivisor:
        """The divisor with the class coordinates on non-basis rays, 0 elsewhere."""
        _, others, _ = self.fan._pic
        coeffs = [0] * self.fan.n_rays
        for j, v in zip(others, self.coords):
            coeffs[j] = v
        return TorusDivisor(self.fan, tuple(coeffs))


def _require_on_fan(fan: Fan, *items) -> None:
    """Raise ValueError when a divisor or class lives on another fan.

    The identity test keeps the common call cheap; only a different Fan
    object is compared field by field.
    """
    for x in items:
        if x.fan is not fan and x.fan != fan:
            raise ValueError("the divisor is not on this fan")


def divisor_class(D: TorusDivisor) -> DivisorClass:
    """Reduce the coefficient vector modulo the principal-divisor lattice."""
    fan = D.fan
    basis, others, coords = fan._pic
    a = D.coeffs
    a_basis = [a[i] for i in basis]
    return DivisorClass(tuple(a[j] - dot(p, a_basis) for j, p in zip(others, coords)), fan)


def cartier_data(D: TorusDivisor) -> tuple[IntVec, ...]:
    """Per maximal cone (in fan.max_cones order), the m with <m, v_rho> = -a_rho.

    m = A^-1.(-a_sigma), with A^-1 from the fan's cone inverses.
    """
    fan = D.fan
    out = []
    for cone, U in zip(fan.max_cones, fan._cone_inverses):
        b = tuple(-D.coeffs[i] for i in cone)
        m = tuple(dot(row, b) for row in U)
        if any(dot(m, fan.rays[i]) != -D.coeffs[i] for i in cone):
            raise AssertionError(f"Cartier data of cone {cone} is wrong")
        out.append(m)
    return tuple(out)


def canonical_divisor(fan: Fan) -> TorusDivisor:
    """K = -sum(D_rho)."""
    return TorusDivisor(fan, tuple(-1 for _ in fan.rays))


def principal_divisor(fan: Fan, w: IntVec) -> TorusDivisor:
    """div of the character with exponent w: coefficients <w, v_rho>."""
    return TorusDivisor(fan, tuple(dot(w, r) for r in fan.rays))


# ---------------------------------------------------------------------------
# validation


def validate(fan: Fan) -> ValidationReport:
    failures: list[str] = []
    n = fan.dim

    primitive = True
    for i, r in enumerate(fan.rays):
        if all(x == 0 for x in r):
            primitive = False
            failures.append(f"ray {i} is zero")
        else:
            g = 0
            for x in r:
                g = gcd(g, x)
            if g != 1:
                primitive = False
                failures.append(f"ray {i} = {r} is not primitive (gcd {g})")
    if len(set(fan.rays)) != fan.n_rays:
        primitive = False
        failures.append("rays are not pairwise distinct")

    used = set(itertools.chain.from_iterable(fan.max_cones))
    if used != set(range(fan.n_rays)):
        failures.append("some ray lies in no maximal cone")

    simplicial = True
    smooth = True
    for c in fan.max_cones:
        if len(c) != n:
            simplicial = False
            failures.append(f"cone {c} does not have {n} rays")
            continue
        d = fan._adjugates[c][0]
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
        # dual graph connectivity over shared ridges
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

    covers_once = simplicial and ridge_paired and connected and _covers_once(
        fan, ridges, failures
    )

    return ValidationReport(
        primitive=primitive,
        simplicial=simplicial,
        smooth=smooth,
        ridge_paired=ridge_paired,
        connected=connected,
        covers_once=covers_once,
        failures=tuple(failures),
    )


def _covers_once(fan: Fan, ridges: dict[tuple[int, ...], list[int]],
                 failures: list[str]) -> bool:
    """The paired, connected simplicial cones cover R^n exactly once.

    Local injectivity: the two cones on each ridge lie strictly on opposite
    sides of its hyperplane, so the cones are coherently oriented and the
    number of cones containing a point stays constant off the ridges.
    Degree one: a point on no ridge hyperplane lies in exactly one cone.
    That point is the first (1, t, ..., t^(n-1)), t = 1, 2, ..., off every
    ridge hyperplane; each hyperplane meets this curve at most n - 1 times.
    Both are Cramer signs in the ridge's first cone c1: det(c1).<y, adj
    column of o1> has the sign of y's side of the ridge, o1 c1's other ray.
    """
    normals = []  # per ridge, the adj column of o1 in c1
    for ridge, (c1, c2) in sorted(ridges.items()):
        o1, o2 = (
            next(i for i in fan.max_cones[c] if i not in ridge) for c in (c1, c2)
        )
        cone = fan.max_cones[c1]
        det, adj = fan._adjugates[cone]
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
    degree = sum(1 for c in fan.max_cones if _cone_contains(fan, c, x))
    if degree != 1:
        failures.append(
            f"the cones cover R^{fan.dim} with degree {degree}, not 1: "
            f"direction {x} lies in {degree} maximal cones"
        )
        return False
    return True


def _cone_contains(fan: Fan, cone: tuple[int, ...], x: IntVec) -> bool:
    """x is a nonnegative combination of the cone's rays, decided by Cramer's rule.

    The coefficient of ray k is (x.adj)_k / det, so each (x.adj)_k must
    share det's sign.
    """
    det, adj = fan._adjugates[cone]
    return det != 0 and all(det * dot(x, column) >= 0 for column in zip(*adj))


# ---------------------------------------------------------------------------
# constructors


def projective_space(n: int) -> Fan:
    """Rays e_1..e_n and -(e_1+..+e_n); cones all n-subsets."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = list(itertools.combinations(range(n + 1), n))
    return Fan(n, tuple(rays), tuple(cones))


def hirzebruch(a: int) -> Fan:
    """The ruled surface with rays (1,0),(0,1),(-1,a),(0,-1)."""
    if a < 0:
        raise ValueError("a must be >= 0")
    rays = ((1, 0), (0, 1), (-1, a), (0, -1))
    cones = ((0, 1), (1, 2), (2, 3), (3, 0))
    return Fan(2, rays, cones)


def product(f1: Fan, f2: Fan) -> Fan:
    """Product fan with coordinates blocked as (f1 block, f2 block)."""
    n1, n2 = f1.dim, f2.dim
    rays = [r + (0,) * n2 for r in f1.rays]
    rays += [(0,) * n1 + r for r in f2.rays]
    off = f1.n_rays
    cones = [
        c1 + tuple(i + off for i in c2)
        for c1 in f1.max_cones
        for c2 in f2.max_cones
    ]
    return Fan(n1 + n2, tuple(rays), tuple(cones))


def star_subdivision(fan: Fan, cone: tuple[int, ...]) -> Fan:
    """Insert the ray sum of the given smooth cone and re-triangulate its star.

    Models the blowup of the torus orbit of that cone; requires the index
    set to be a face of some maximal cone with at least two rays.
    """
    target = tuple(sorted(set(cone)))
    if len(target) < 2:
        raise ValueError("star subdivision target needs at least two rays")
    owners = [c for c in fan.max_cones if set(target) <= set(c)]
    if not owners:
        raise ValueError(f"{target} is not a face of any maximal cone")
    new_ray = tuple(sum(fan.rays[i][k] for i in target) for k in range(fan.dim))
    if new_ray in fan.rays:
        raise ValueError("subdivision ray already present")
    new_idx = fan.n_rays
    cones = []
    for c in fan.max_cones:
        if set(target) <= set(c):
            for drop in target:
                cones.append(tuple(sorted((set(c) - {drop}) | {new_idx})))
        else:
            cones.append(c)
    return Fan(fan.dim, fan.rays + (new_ray,), tuple(cones))
