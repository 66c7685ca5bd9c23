"""Fans of smooth projective toric varieties and their divisor theory.

A Fan is the combinatorial model of the variety: primitive ray generators
in Z^n plus the maximal cones as ray index sets.  Completeness is proven
exactly: ridge pairing, dual-graph connectivity, local injectivity at every
ridge, and degree one at a generic point; see validate().

One walk over the ridges from a single adjugate gives every cone's
determinant and inverse, each ridge's side test, and each wall relation;
a cone no neighbour reaches gets an adjugate of its own (Fan._ridge_walk).
Divisor classes live in Pic = Z^{#rays} / M, coordinatized once and for all
by the one representative that vanishes on a fixed lattice basis of rays, so
class equality is plain integer-vector equality.

The walls' degree functions D.V(tau) are rows on these class coordinates,
each distinct function once (Fan._walls).

A fan whose rays split into coordinate blocks, two coordinates joined when
a ray is nonzero on both, is a product (Fan._factors): its cones are the
products of the blocks' cones, and its basis is the union of the factors'
bases, so a factor's class is the factor's coordinates picked out of the
product's.  A product is certified by its factors' certificates plus the
cone count (Fan.validation); its basis and wall rows are its factors',
and its cohomology, frob set, Ext table and m0 are answered from them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from typing import Iterable

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

        A fan with valid factors (_factors) and every ray in a block is valid
        when it has as many cones as the product of its factors' counts.
        Projection maps its cones one to one to tuples of factor cones (a
        cone is the union of its projections), and the factor cones are
        those projections, so the count makes the cones exactly the products
        of factor cones.  Such a product of smooth complete fans is smooth
        and complete: each ray is a primitive factor ray padded with zeros, a
        cone's determinant is +-the product of its factors', and the support
        is the product of theirs.  Any other fan gets the full validate.
        """
        factors = self._factors
        if (factors and sum(len(rays) for rays, _, _ in factors) == self.n_rays
                and len(self.max_cones) == prod(len(factor.max_cones) for _, factor, _ in factors)):
            return ValidationReport(True, True, True, True, True, True, ())
        return validate(self)

    def require_valid(self) -> None:
        rep = self.validation
        if not rep.ok:
            raise InvalidFanError("; ".join(rep.failures))

    # -- the ridge walk, cone inverses and Picard coordinates ---------------

    @cached_property
    def _ridge_walk(self) -> tuple[dict, list, dict, int]:
        """The ridges with their owners, per cone (det, adjugate columns), the flips, the seeds.

        From each cone not yet reached (one adjugate there) the walk crosses
        every shared ridge tau = sigma - {o1} = sigma' - {o2}.  With x_i =
        <adj_i, v_o2> over sigma's adjugate columns, sigma' has determinant
        +-c, c = x[o1], and columns +-(c.adj_i - x_i.adj_o1) / det sigma with
        adj_o1 for o2, the sign that of moving o2 to its sorted place; a cone
        of determinant 0 is not crossed from.  A paired ridge's flip is
        (sigma, k, o2, y), k o1's place, y = det sigma . x: v_o2 is on o1's
        side iff y[k] > 0, and on a unimodular sigma v_o2 = sum_i y_i v_i.
        """
        n, rays, cones = self.dim, self.rays, self.max_cones
        ridges: dict[tuple[int, ...], list[int]] = {}
        for ci, cone in enumerate(cones):
            if len(cone) == n:
                for k in range(n):
                    ridges.setdefault(cone[:k] + cone[k + 1:], []).append(ci)
        adjugates: list = [None] * len(cones)
        flips: dict[tuple[int, ...], tuple] = {}
        seeds = 0
        for seed, cone in enumerate(cones):
            if len(cone) != n or adjugates[seed]:
                continue
            det, adj = adjugate(self.cone_matrix(cone))
            adjugates[seed], stack, seeds = (det, adj and tuple(zip(*adj))), [seed], seeds + 1
            while stack:
                ci = stack.pop()
                cone, (det, cols) = cones[ci], adjugates[ci]
                for k in range(n if det else 0):
                    ridge = cone[:k] + cone[k + 1:]
                    owners = ridges[ridge]
                    paired = len(owners) == 2 and ridge not in flips
                    for cj in owners:
                        if cj == ci or not (paired or adjugates[cj] is None):
                            continue
                        o2 = next(i for i in cones[cj] if i not in ridge)
                        x = [dot(col, rays[o2]) for col in cols]
                        if paired:
                            flips[ridge] = (ci, k, o2, tuple(det * xi for xi in x))
                        if adjugates[cj] is None:
                            c, p = x[k], cones[cj].index(o2)
                            new = [tuple((c * u - xi * v) // det for u, v in zip(col, cols[k]))
                                   for j, (col, xi) in enumerate(zip(cols, x)) if j != k]
                            new.insert(p, cols[k])
                            s = -1 if (k - p) % 2 else 1
                            adjugates[cj] = (s * c, tuple(tuple(s * v for v in col) for col in new)
                                             if c else None)
                            stack.append(cj)
        return ridges, adjugates, flips, seeds

    @cached_property
    def _cone_inverses(self) -> tuple[IntMat, ...]:
        """Per maximal cone, the inverse det.adj of its unimodular ray matrix."""
        out = []
        for cone, (det, cols) in zip(self.max_cones, (a or (0, None) for a in self._ridge_walk[1])):
            if det not in (1, -1):
                raise InvalidFanError(f"cone {cone} is not smooth: no integral Cartier data")
            out.append(tuple(tuple(det * v for v in row) for row in zip(*cols)))
        return tuple(out)

    @cached_property
    def _walls(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The distinct functions D.V(tau) over the walls tau of a valid fan, on class coordinates.

        A flip's v_o2 = sum_{i in sigma} y_i v_i, y_o1 = -1, is the wall
        relation, and D.V(tau) = a_o2 - sum y_i a_i = a_o1 + a_o2 - sum_{i in
        tau} y_i a_i (Cox-Little-Schenck, Toric Varieties, Prop. 6.4.4).  A
        class's representative is 0 on the basis rays, so a row keeps the
        other rays, as (class coordinate, coefficient) pairs sorted by
        coordinate; equal functions are one row.  A wall of a product is a
        factor's wall times a cone of the others, where D.V(tau) is the
        factor class's degree, so a product's rows are its factors', moved
        to their Picard positions.
        """
        if self._factors:
            return tuple(tuple((positions[p], c) for p, c in row)
                         for _, factor, positions in self._factors for row in factor._walls)
        place = {j: p for p, j in enumerate(self._pic[1])}
        rows = set()
        for ci, _, o2, y in self._ridge_walk[2].values():
            row = [(place[i], -yi) for i, yi in zip(self.max_cones[ci], y) if yi and i in place]
            if o2 in place:
                row.append((place[o2], 1))
            rows.add(tuple(sorted(row)))
        return tuple(sorted(rows))

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
        rays, factors = self.rays, self._factors
        if factors:
            basis = tuple(sorted(idx[j] for idx, factor, _ in factors for j in factor._pic[0]))
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
    def _factors(self) -> tuple[tuple[tuple[int, ...], "Fan", tuple[int, ...]], ...]:
        """Per coordinate block of a fan of two or more: its rays, its Fan, its Picard positions.

        The blocks are the components of the coordinates, two joined when a
        ray is nonzero on both; each factor keeps its rays in the product's
        order, and its cones are the projections of the product's.  Equal
        factors are one Fan object, so they share one cohomology cache.  The
        positions are where the factor's class coordinates sit among the
        product's, whose basis is the union of the factors' bases.  A fan of
        one block, or with a factor that is not a valid fan, gives ().
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
        basis = {rays[j] for rays, factor in split for j in factor._pic[0]}
        place = {i: p for p, i in enumerate(i for i in range(self.n_rays) if i not in basis)}
        return tuple((rays, factor, tuple(place[rays[j]] for j in factor._pic[1]))
                     for rays, factor in split)

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
    return DivisorClass(tuple([a[j] - sum(map(operator.mul, p, a_basis))
                               for j, p in zip(others, coords)]), fan)


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


# ---------------------------------------------------------------------------
# validation


def validate(fan: Fan) -> ValidationReport:
    """Every check of the certificate, with determinants and sides from Fan._ridge_walk."""
    failures: list[str] = []
    n = fan.dim
    primitive = True
    for i, r in enumerate(fan.rays):
        g = gcd(*r)
        if g != 1:
            primitive = False
            failures.append(f"ray {i} = {r} is not primitive (gcd {g})" if g
                            else f"ray {i} is zero")
    if len(set(fan.rays)) != fan.n_rays:
        primitive = False
        failures.append("rays are not pairwise distinct")
    if set(itertools.chain.from_iterable(fan.max_cones)) != set(range(fan.n_rays)):
        failures.append("some ray lies in no maximal cone")

    ridges, adjugates, _, seeds = fan._ridge_walk
    for c, entry in zip(fan.max_cones, adjugates):
        if entry is None:
            failures.append(f"cone {c} does not have {n} rays")
        elif entry[0] == 0:
            failures.append(f"cone {c} is degenerate (determinant 0)")
        elif abs(entry[0]) != 1:
            failures.append(f"cone {c} is not smooth (determinant {entry[0]})")
    simplicial = all(entry and entry[0] for entry in adjugates)
    smooth = all(abs(entry[0]) <= 1 for entry in adjugates if entry)
    ridge_paired = connected = simplicial
    if simplicial:
        for ridge, owners in sorted(ridges.items()):
            if len(owners) != 2:
                ridge_paired = False
                failures.append(f"ridge {ridge} lies in {len(owners)} maximal cone(s), expected 2")
        connected = seeds == 1  # the walk crosses every shared ridge from a nonzero determinant
        if not connected:
            failures.append("dual graph of maximal cones is disconnected")
    covers_once = ridge_paired and connected and _covers_once(fan, ridges, failures)
    return ValidationReport(primitive, simplicial, smooth, ridge_paired, connected, covers_once,
                            tuple(failures))


def _covers_once(fan: Fan, ridges: dict[tuple[int, ...], list[int]],
                 failures: list[str]) -> bool:
    """The paired, connected simplicial cones cover R^n exactly once.

    Local injectivity: the two cones on each ridge lie strictly on opposite
    sides of its hyperplane, so the cones are coherently oriented and the
    number of cones containing a point stays constant off the ridges.
    Degree one: a point on no ridge hyperplane lies in exactly one cone.
    That point is the first (1, t, ..., t^(n-1)), t = 1, 2, ..., off every
    ridge hyperplane; each hyperplane meets this curve at most n - 1 times.
    Both are Cramer signs read off the ridge walk (Fan._ridge_walk): the flip
    coefficient y[k] has the sign of v_o2's side of the ridge, o1's side
    positive, and x lies in a cone iff det.<x, adj column> >= 0 for each
    of its columns.
    """
    _, adjugates, flips, _ = fan._ridge_walk
    for ridge, (c1, c2) in sorted(ridges.items()):
        _, k, _, y = flips[ridge]
        if y[k] >= 0:
            o1, o2 = (next(i for i in fan.max_cones[c] if i not in ridge) for c in (c1, c2))
            failures.append(f"rays {o1} and {o2} lie on the same side of ridge {ridge}")
            return False
    normals = [adjugates[ci][1][k] for ci, k, _, _ in flips.values()]
    t = 1
    while True:
        x = tuple(t**k for k in range(fan.dim))
        if all(dot(x, column) for column in normals):
            break
        t += 1
    degree = sum(all(det * dot(x, column) >= 0 for column in cols) for det, cols in adjugates)
    if degree != 1:
        failures.append(
            f"the cones cover R^{fan.dim} with degree {degree}, not 1: "
            f"direction {x} lies in {degree} maximal cones"
        )
        return False
    return True


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
