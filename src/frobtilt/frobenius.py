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
of the arrangement {<t, v_rho> = k} inside the half-open unit cube.  The
rational point t found in a chamber realizes its class at every multiple
of the chamber ell that clears t's denominators.  The walk solves one LP
per chamber node except the child that holds its parent's point; minimal
witness ells are swept only when first read, and neither that sweep nor
the stabilizing search walks an ell with more than MAX_FROB_RESIDUES
residues.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .fan import DivisorClass, Fan, TorusDivisor, divisor_class
from .lattice import IntVec, LinearSystem, dot, feasible_point, identity_matrix

# A walk at ell visits ell^(dim-1) residue prefixes, each an integer class
# sum over the rays plus one class step per floor breakpoint, at 6-15 us a
# prefix on a 2-vCPU host: a million residues of P4 (ell = 31) take
# 0.2-0.5 s end to end, as the host's load varies.  frob --ell and the ell
# sweeps of frob-set and stabilize refuse an ell with more residues; the
# bound stays until the cost no longer grows with ell.
MAX_FROB_RESIDUES = 1_000_000


@dataclass(frozen=True)
class FrobWitness:
    cls: DivisorClass
    min_ell: int


@dataclass(frozen=True)
class FrobSet:
    """The finite set of summand classes, sorted by class coordinates.

    chamber_ells[i] is an ell at which the walk's point realizes
    classes[i]; it depends on the LP vertex found, so equality and repr
    skip it.  witnesses (minimal witness ells) are swept on first read.
    """

    fan: Fan
    classes: tuple[DivisorClass, ...]
    chamber_ells: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def witnesses(self) -> tuple[FrobWitness, ...]:
        """Each class's least ell, sweeping ell = 1 up to the largest chamber ell.

        Raises ValueError, before any walk, when that ell has more than
        MAX_FROB_RESIDUES residues.
        """
        last = max(self.chamber_ells)
        _require_residue_bound(self.fan, last)
        found: dict[DivisorClass, int] = {}
        for ell in range(1, last + 1):
            for cls in pushforward_summands(self.fan, _zero(self.fan), ell):
                found.setdefault(cls, ell)
            if all(cls in found for cls in self.classes):
                return tuple(FrobWitness(cls, found[cls]) for cls in self.classes)
        raise AssertionError("the ell sweep missed a chamber class by its witness ell")

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def pushforward_summands(fan: Fan, D: TorusDivisor, ell: int) -> Counter:
    """Multiset of summand classes of the degree-ell pushforward of O(D).

    divisor_class is linear, since every pivot of the Picard Hermite form
    is 1, so each ray divisor D_rho is reduced once and a floor vector b
    has the class sum_rho b_rho [D_rho].  For each prefix u[:n-1], with
    c_rho = a_rho + <u[:n-1], v_rho[:n-1]>, the class at x = 0 is
    sum_rho (c_rho // ell) [D_rho]; at each breakpoint of the last
    coordinate x, every ray whose floor steps there adds +-[D_rho], and
    each run adds its length to its class.  Cost: n_rays class
    reductions, then ell^(n-1) prefixes with at most
    sum_rho |v_rho[n-1]| breakpoints each, in integer arithmetic on
    Picard coordinates.
    """
    fan.require_valid()
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if D.fan != fan:
        raise ValueError("the divisor is not on this fan")
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
    chamber_ells: dict[DivisorClass, int] = {}
    ranges = []
    for ray in fan.rays:
        lo = sum(min(x, 0) for x in ray)
        hi = sum(max(x, 0) for x in ray)
        ranges.append(range(lo, max(hi, 1)))

    def descend(k: int, prefix: tuple[int, ...], point: Optional[tuple[IntVec, int]]) -> None:
        if point is None:
            point = feasible_point(_chamber_system_partial(fan, prefix))
            if point is None:
                return
        num, den = point
        if k == fan.n_rays:
            # u = ell*t is a residue at ell = the lcm of t's denominators,
            # and its summand has floor vector prefix.
            cls = divisor_class(TorusDivisor(fan, prefix))
            chamber_ells.setdefault(cls, den // math.gcd(den, *num))
            return
        inside = dot(num, fan.rays[k]) // den
        for b in ranges[k]:
            descend(k + 1, prefix + (b,), point if b == inside else None)

    descend(0, (), None)

    classes = tuple(sorted(chamber_ells))
    return FrobSet(fan, classes, tuple(chamber_ells[cls] for cls in classes))


def _chamber_system_partial(fan: Fan, bs: tuple[int, ...]) -> LinearSystem:
    """t in [0,1)^n with <t, v_rho> in [b_rho, b_rho + 1) for assigned rays."""
    n = fan.dim
    rows = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        rows.append((tuple(-x for x in e), 0, False))
        rows.append((e, 1, True))
    for ray, b in zip(fan.rays, bs):
        rows.append((tuple(-x for x in ray), -b, False))
        rows.append((ray, b + 1, True))
    return LinearSystem(n, tuple(rows))


def minimal_stabilizing_ell(fan: Fan) -> int:
    """Least ell whose single pushforward of O contains every frob class.

    The search runs from ell = 1, so each ell is walked once.  A class
    seen at ell through residue u is seen again at k*ell through k*u, so
    every class appears at the lcm of the chamber ells, which ends the
    search.  Raises ValueError before walking an ell with more than
    MAX_FROB_RESIDUES residues.
    """
    fs = frob_set(fan)
    classes = set(fs.classes)
    for ell in range(1, math.lcm(*fs.chamber_ells) + 1):
        _require_residue_bound(fan, ell)
        if classes <= set(pushforward_summands(fan, _zero(fan), ell)):
            return ell
    raise AssertionError("stabilization bound violated; chamber ells inconsistent")


def _require_residue_bound(fan: Fan, ell: int) -> None:
    residues = ell ** fan.dim
    if residues > MAX_FROB_RESIDUES:
        raise ValueError(
            f"the ell sweep reaches ell = {ell}, which walks ell^dim = {ell}^{fan.dim} = "
            f"{residues} residues; at most {MAX_FROB_RESIDUES} are supported"
        )


def _zero(fan: Fan) -> TorusDivisor:
    return TorusDivisor(fan, (0,) * fan.n_rays)
