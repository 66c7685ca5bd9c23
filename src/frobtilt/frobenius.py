"""Splitting of line bundles under the toric power endomorphisms.

The degree-ell endomorphism F_ell acts as the ell-th power map on the
torus; the pushforward of O(D) splits into the ell^n line bundles indexed
by the residues u in {0..ell-1}^n, with coefficients
b_rho(u) = floor((a_rho + <u, v_rho>) / ell).  Along the last coordinate
the floors are constant on runs between at most sum_rho |v_rho[n-1]|
breakpoints, and the class map is linear, so the split is counted run by
run on Picard coordinates: one class reduction per ray, then ell^(n-1)
prefixes, each an integer class sum plus one +-[D_rho] step per
breakpoint.

The full summand set over every ell is computed exactly from the chambers
of the arrangement {<t, v_rho> = k} inside the half-open unit cube, one
LP per chamber node except the child that holds its parent's point.  A
leaf's point t realizes its class at the chamber ell that clears t's
denominators.  The least ell at which a class, or every class, appears is
found with no pushforward, by asking whether a leaf's chamber scaled by
ell holds an integer point.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .fan import DivisorClass, Fan, TorusDivisor, _require_on_fan, divisor_class
from .lattice import IntVec, LinearSystem, _count_box, dot, feasible_point, identity_matrix

# A walk at ell visits ell^(dim-1) residue prefixes, each an integer class
# sum over the rays plus one class step per floor breakpoint, at 6-15 us a
# prefix on a 2-vCPU host: a million residues of P4 (ell = 31) take
# 0.2-0.5 s end to end, as the host's load varies.  pushforward_summands,
# and with it frob --ell, refuses an ell with more residues; the bound
# stays until the cost no longer grows with ell.
MAX_FROB_RESIDUES = 1_000_000


@dataclass(frozen=True)
class FrobWitness:
    cls: DivisorClass
    min_ell: int


@dataclass(frozen=True)
class FrobSet:
    """The finite set of summand classes, sorted by class coordinates.

    cells[i] holds (b, chamber ell) for each leaf of the walk whose floor
    vector b has the class classes[i].  The ells depend on the LP vertex
    found, so equality and repr skip cells.  witnesses are read lazily.
    """

    fan: Fan
    classes: tuple[DivisorClass, ...]
    cells: tuple[tuple[tuple[IntVec, int], ...], ...] = field(compare=False, repr=False)

    @cached_property
    def witnesses(self) -> tuple[FrobWitness, ...]:
        """Each class's least ell, over its leaves, at which a leaf's cell has a point."""
        return tuple(
            FrobWitness(cls, min(_least_ell(self.fan, b, last) for b, last in leaves))
            for cls, leaves in zip(self.classes, self.cells)
        )

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def pushforward_summands(fan: Fan, D: TorusDivisor, ell: int) -> Counter:
    """Multiset of summand classes of the degree-ell pushforward of O(D).

    divisor_class is linear, a_N - P.a_B in the Picard coordinates, so
    each ray divisor D_rho is reduced once and a floor vector b has the
    class sum_rho b_rho [D_rho].  For each prefix u[:n-1], with
    c_rho = a_rho + <u[:n-1], v_rho[:n-1]>, the class at x = 0 is
    sum_rho (c_rho // ell) [D_rho]; at each breakpoint of the last
    coordinate x, every ray whose floor steps there adds +-[D_rho], and
    each run adds its length to its class.  Cost: n_rays class
    reductions, then ell^(n-1) prefixes with at most
    sum_rho |v_rho[n-1]| breakpoints each, in integer arithmetic on
    Picard coordinates.  Raises ValueError, before any walk, when ell has
    more than MAX_FROB_RESIDUES residues.
    """
    fan.require_valid()
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    _require_on_fan(fan, D)
    residues = ell ** fan.dim
    if residues > MAX_FROB_RESIDUES:
        raise ValueError(
            f"ell = {ell} walks ell^dim = {ell}^{fan.dim} = {residues} residues; "
            f"at most {MAX_FROB_RESIDUES} are supported"
        )
    rays = []
    for a, ray, e in zip(D.coeffs, fan.rays, identity_matrix(fan.n_rays)):
        unit = divisor_class(TorusDivisor(fan, e)).coords
        step = unit if ray[-1] >= 0 else tuple(-x for x in unit)
        rays.append((a, ray[:-1], ray[-1], unit, step))
    origin = (0,) * fan.picard_rank
    counts: dict[IntVec, int] = {}
    for prefix in itertools.product(range(ell), repeat=fan.dim - 1):
        cls = origin
        steps: dict[int, IntVec] = {}
        for a, head, g, unit, step in rays:
            c = a + sum(map(operator.mul, prefix, head))
            q = c // ell
            if q:
                cls = tuple(x + q * y for x, y in zip(cls, unit))
            if g:
                for x in _breakpoints(c, g, ell):
                    steps[x] = tuple(map(operator.add, steps[x], step)) if x in steps else step
        start = 0
        for x in sorted(steps):
            counts[cls] = counts.get(cls, 0) + x - start
            cls = tuple(map(operator.add, cls, steps[x]))
            start = x
        counts[cls] = counts.get(cls, 0) + ell - start
    return Counter({DivisorClass(coords, fan): m for coords, m in counts.items()})


def _breakpoints(c: int, g: int, ell: int) -> list[int]:
    """The x in (0, ell) where floor((c + g*x) / ell) differs from its value at x - 1.

    The floor moves from c // ell at x = 0 to (c + g*(ell-1)) // ell at
    x = ell - 1, one step per multiple k*ell that c + g*x crosses: the
    first x with c + g*x >= k*ell when g > 0, with c + g*x < k*ell when
    g < 0.  That is at most |g| breakpoints.
    """
    first, final = c // ell, (c + g * (ell - 1)) // ell
    if g > 0:
        return [-((c - k * ell) // g) for k in range(first + 1, final + 1)]
    return [(c - k * ell) // -g + 1 for k in range(final + 1, first + 1)]


def frob_set(fan: Fan) -> FrobSet:
    """The exact set of classes appearing in some pushforward of O.

    Chamber enumeration over the floor vector b: ray by ray, each partial
    assignment keeps only values whose chamber is still nonempty.  Since
    t < 1 in every coordinate, <t, v_rho> < hi whenever hi > 0, so b = hi
    occurs only when hi = 0.  A node's feasible point t lies in the child
    b = floor(<t, v_k>), which inherits t instead of solving an LP; every
    other child solves one.
    """
    fan.require_valid()
    cells: dict[DivisorClass, list[tuple[IntVec, int]]] = {}
    normals = identity_matrix(fan.dim) + fan.rays
    ranges = []
    for ray in fan.rays:
        lo = sum(min(x, 0) for x in ray)
        hi = sum(max(x, 0) for x in ray)
        ranges.append(range(lo, max(hi, 1)))

    def descend(k: int, prefix: tuple[int, ...], point: Optional[tuple[IntVec, int]]) -> None:
        if point is None:
            point = feasible_point(LinearSystem(fan.dim, _cell(normals, (0,) * fan.dim + prefix)))
            if point is None:
                return
        num, den = point
        if k == fan.n_rays:
            # u = ell*t is a residue at ell = the lcm of t's denominators,
            # and its summand has floor vector prefix.
            cls = divisor_class(TorusDivisor(fan, prefix))
            cells.setdefault(cls, []).append((prefix, den // math.gcd(den, *num)))
            return
        inside = dot(num, fan.rays[k]) // den
        for b in ranges[k]:
            descend(k + 1, prefix + (b,), point if b == inside else None)

    descend(0, (), None)

    classes = tuple(sorted(cells))
    return FrobSet(fan, classes, tuple(tuple(cells[cls]) for cls in classes))


def _cell(vectors: tuple[IntVec, ...], bs: tuple[int, ...], ell: int = 1) -> tuple:
    """The rows ell*b_i <= <u, vectors[i]> < ell*(b_i + 1) for i < len(bs).

    A chamber of the walk is the cell of the unit vectors, each with b = 0,
    then the rays.  Scaled by ell, a leaf's chamber holds the residues u
    whose floor vector is the leaf's; they lie in [0, ell-1]^n, a box that
    replaces the unit vectors' rows.
    """
    rows = []
    for v, b in zip(vectors, bs):
        rows += [(tuple(-x for x in v), -ell * b, False), (v, ell * (b + 1), True)]
    return tuple(rows)


def _realizes(fan: Fan, b: IntVec, ell: int) -> bool:
    """Whether the pushforward of O at ell has a residue with floor vector b."""
    return bool(_count_box(_cell(fan.rays, b, ell), [(0, ell - 1)] * fan.dim, any))


def _least_ell(fan: Fan, b: IntVec, last: int) -> int:
    """The least ell at which b's cell has a point; at its chamber ell last it must."""
    for ell in range(1, last + 1):
        if _realizes(fan, b, ell):
            return ell
    raise AssertionError("a chamber leaf has no residue at its chamber ell")


def minimal_stabilizing_ell(fan: Fan) -> int:
    """Least ell whose single pushforward of O contains every frob class.

    A class is in the pushforward at ell iff one of its leaves' cells has
    a point there.  A class seen at ell through residue u is seen again at
    k*ell through k*u, so every class appears at the lcm of the chamber
    ells, which ends the search from ell = 1.
    """
    fs = frob_set(fan)
    last = math.lcm(*(e for leaves in fs.cells for _, e in leaves))
    for ell in range(1, last + 1):
        if all(any(_realizes(fan, b, ell) for b, _ in leaves) for leaves in fs.cells):
            return ell
    raise AssertionError("stabilization bound violated; chamber ells inconsistent")
