"""Splitting of line bundles under the toric power endomorphisms.

The degree-ell endomorphism F_ell acts as the ell-th power map on the
torus; the pushforward of O(D) splits into the ell^n line bundles indexed
by the residues u in {0..ell-1}^n, with coefficients
b_rho(u) = floor((a_rho + <u, v_rho>) / ell).  The class map is linear,
so the split is counted on Picard coordinates after one class reduction
per ray.  On a surface, u = (y, x), the floors are constant on runs of x
between at most sum_rho |v_rho[1]| breakpoints, and along each residue
class of y mod lcm |v_rho[1]| the breakpoints move by fixed integer
steps, so y is summed in pieces on which every run keeps its class and
its length is affine in y: a number of pieces that does not grow with
ell.  On every other fan, P1 included, the residues are walked one
coordinate at a time, and residue prefixes merge when the rays still to
be walked have equal remainders mod ell and the floors settled so far
have equal classes: P^n and product fans take about ell^2 steps, and at
most ell^(n-1) states reach the last coordinate, which is counted run by
run by the same routine that finds a surface's runs, at a single y.

The full summand set over every ell is computed exactly from the chambers
of the arrangement {<t, v_rho> = k} inside the half-open unit cube.  Each
chamber node hands its simplex tableau on to its children, which add
their two rows and re-optimize it by dual simplex.  A leaf's point t
realizes its class at the chamber ell that clears t's denominators.  A
product fan's chambers are products of its factors' chambers, so only
the distinct factors are walked, and the product's leaves are the tuples
of theirs.  The least ell at which a class, or
every class, appears is found with no pushforward by one upward sweep
over ell, which asks whether a leaf's chamber scaled by ell holds an
integer point.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .fan import DivisorClass, Fan, TorusDivisor, _require_on_fan, divisor_class
from .lattice import IntVec, _count_box, _strict_tableau, _Tableau, identity_matrix

# From dimension 3 on, a walk at ell keeps at most ell^(dim-1) merged
# residue prefixes, 5-10 us each when none merge: on a 2-vCPU host the
# 13-ray 4-fold at ell = 31 (923,521 residues, 29,791 prefixes) takes
# 0.3 s in process, while P4 and P2xP2 at ell = 31 merge down to 1-2 ms,
# and frob --ell 31 on them takes 0.15 s end to end, mostly interpreter
# start-up.  pushforward_summands, and with it frob --ell, refuses an ell
# with more residues; the bound stays until the cost no longer grows with
# ell.  On fans of dimension <= 2
# that now holds (P2, dP6 and F3 take 0.04-0.08 ms in process at every ell
# up to 1000), yet the bound is kept for every dimension alike.
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
        """Each class's least ell, by its least chamber ell, at which a leaf's cell has a point."""
        return tuple(
            FrobWitness(cls, _least_ell(self.fan, (leaves,), min(e for _, e in leaves)))
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
    class sum_rho b_rho [D_rho].  On a surface the classes are summed
    over pieces of y (_piece_counts).  Otherwise, P1 included, the residues
    are walked one coordinate at a time, with c_rho = a_rho +
    <u[:j], v_rho[:j]> split by floor((c + t) / ell) = c // ell +
    floor((c % ell + t) / ell): a state holds the remainders c_rho % ell
    of the rays still live (nonzero at some later coordinate) and the base
    class sum_rho (c_rho // ell) [D_rho] of the quotients so far.
    Prefixes whose states agree have the same summands from there on, so
    they merge into one state with the sum of their multiplicities.  Each
    coordinate before the last steps u_j over [0, ell) once per distinct
    remainder key; along the last one the floors are constant on runs
    between at most sum_rho |v_rho[n-1]| breakpoints, found once per key
    by _piece at the single y = 0 and added to each state's base.

    On P^n the keys differ only in the remainder of the ray that mixes
    every coordinate, and on a product fan one factor's remainders stay
    fixed while the other's coordinates are walked, so both cost about
    ell^2 steps; with every ray mixing every coordinate, the states are
    the ell^(n-1) prefixes.  Classes are packed into integers,
    sum_i coords[i] * width^i with width above twice any coordinate a
    partial floor sum can reach, so each step is one integer addition.
    The Counter lists the classes in sorted order.  Raises ValueError,
    before any walk, when ell has more than MAX_FROB_RESIDUES residues.
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
    units = [divisor_class(TorusDivisor(fan, e)).coords for e in identity_matrix(fan.n_rays)]
    # |c_rho // ell| <= |a_rho| // ell + |v_rho|_1 + 1 for every partial sum c_rho
    bound = sum(
        (abs(a) // ell + sum(map(abs, ray)) + 1) * max(map(abs, unit), default=0)
        for a, ray, unit in zip(D.coeffs, fan.rays, units)
    )
    width = 1 << (2 * bound + 1).bit_length()
    packed = [sum(x * width**i for i, x in enumerate(unit)) for unit in units]
    if fan.dim == 2:
        counts = _piece_counts(D.coeffs, fan.rays, packed, ell)
    else:
        counts = _merged_counts(fan, D.coeffs, packed, ell)
    rank = fan.picard_rank
    classes = sorted((_unpack(z, width, rank), m) for z, m in counts.items())
    return Counter({DivisorClass(coords, fan): m for coords, m in classes})


def _merged_counts(fan: Fan, coeffs: IntVec, packed: list[int], ell: int) -> dict[int, int]:
    """Packed class -> multiplicity by the merged walk."""
    last = [max(i for i, x in enumerate(ray) if x) for ray in fan.rays]
    live = list(range(fan.n_rays))
    base = sum(a // ell * unit for a, unit in zip(coeffs, packed))
    states = {(tuple(a % ell for a in coeffs), base): 1}
    for j in range(fan.dim - 1):
        moving = [(pos, fan.rays[i][j], packed[i]) for pos, i in enumerate(live) if fan.rays[i][j]]
        kept = [pos for pos, i in enumerate(live) if last[i] > j]
        live = [live[pos] for pos in kept]
        successors: dict[IntVec, tuple[list, list]] = {}
        merged: dict[tuple[IntVec, int], int] = {}
        for (key, base), m in states.items():
            succ = successors.get(key)
            if succ is None:
                succ = successors[key] = _level_steps(key, moving, kept, ell)
            for succ_key, off in zip(*succ):
                state = (succ_key, base + off)
                merged[state] = merged.get(state, 0) + m
        states = merged
    lasts = [(fan.rays[i][-1], packed[i]) for i in live]
    runs: dict[IntVec, list] = {}
    counts: dict[int, int] = {}
    for (key, base), m in states.items():
        run = runs.get(key)
        if run is None:
            walk = [(r, 0, g, unit) for r, (g, unit) in zip(key, lasts)]
            runs[key] = run = [r[:2] for r in _piece(walk, ell, 0, 1, 1)[2] if r[1]]
        for off, length in run:
            cls = base + off
            counts[cls] = counts.get(cls, 0) + m * length
    return counts


def _piece_counts(coeffs: IntVec, rays: tuple[IntVec, ...], packed: list[int], ell: int) -> dict:
    """Packed class -> multiplicity on a surface.

    The residues are u = (y, x).  The y are walked one residue class mod
    step = lcm |v_rho[1]| at a time, in pieces y, y + step, ... given by
    _piece, on which every x-run keeps its class and has a length affine
    in the piece index t; the lengths are summed in closed form.
    """
    walk = [(a, h, g, unit) for a, (h, g), unit in zip(coeffs, rays, packed)]
    step = math.lcm(*(abs(g) for _, g in rays if g))
    counts: dict[int, int] = {}
    for y in range(min(step, ell)):
        while y < ell:
            size, base, runs = _piece(walk, ell, y, step, (ell - 1 - y) // step + 1)
            for off, length, grow in runs:
                total = size * length + grow * size * (size - 1) // 2
                if total:
                    counts[base + off] = counts.get(base + off, 0) + total
            y += size * step
    return counts


def _piece(walk: list, ell: int, y: int, step: int, left: int) -> tuple[int, int, list]:
    """The x-runs at u_0 = y, and how many of the left values y + t*step keep their classes.

    walk holds (a_rho, h = v_rho[0], g = v_rho[1], packed [D_rho]).  With
    c = a + h*y, the breakpoint ceil((k*ell - c)/g) (its mirror for g < 0)
    moves by exactly -h*step/g per t, since g divides step, as long as its
    k stays, that is, as long as the ray's floors at x = 0 and at
    x = ell - 1 stay; they also set the base class and keep every
    breakpoint in [1, ell - 1].  A ray with h = 0 never moves them.  The
    piece ends at the first t where one of those floors changes, or where
    two neighbours in (x, slope) order cross, x = 0 and x = ell bounding
    the first and last run.  Returns (size, packed class at x = 0, runs),
    each run (packed offset from that class, length at t = 0, the length's
    growth per t); breakpoints of several rays at one x leave runs of
    length 0 between them.  The merged walk's last coordinate is the
    single y = 0 (left = 1) of a walk with h = 0 and a = the remainder.
    """
    size, base, events = left, 0, []
    for a, h, g, unit in walk:
        c = a + h * y
        base += c // ell * unit
        if h:
            size = min(size, _steady(c, h * step, ell), _steady(c + g * (ell - 1), h * step, ell))
        if g:
            slope, jump = -h * step // g, unit if g > 0 else -unit
            events += [(x, slope, jump) for x in _breakpoints(c, g, ell)]
    events.sort()
    runs, off, x, dx = [], 0, 0, 0
    for nx, ndx, jump in events + [(ell, 0, 0)]:
        if dx > ndx:
            size = min(size, (nx - x) // (dx - ndx) + 1)
        runs.append((off, nx - x, ndx - dx))
        off, x, dx = off + jump, nx, ndx
    return size, base, runs


def _steady(c: int, d: int, ell: int) -> int:
    """The least t >= 1 with (c + d*t) // ell != c // ell, for d != 0."""
    if d > 0:
        return (ell - 1 - c % ell) // d + 1
    return c % ell // -d + 1


def _level_steps(key: IntVec, moving: list, kept: list, ell: int) -> tuple[list, list]:
    """For u_j = y in [0, ell): the kept rays' remainders and the quotients' packed class.

    moving holds (position in key, v_rho[j], packed [D_rho]) for the rays
    with v_rho[j] != 0; kept holds the positions of the rays live after j.
    """
    ys = range(ell)
    cols = {pos: [key[pos]] * ell for pos in kept}
    offsets = [0] * ell
    for pos, g, unit in moving:
        r = key[pos]
        offsets = [off + (r + g * y) // ell * unit for off, y in zip(offsets, ys)]
        if pos in cols:
            cols[pos] = [(r + g * y) % ell for y in ys]
    return list(zip(*cols.values())), offsets


def _unpack(z: int, width: int, rank: int) -> IntVec:
    """The coordinates c with sum_i c_i * width^i = z and every |c_i| < width / 2."""
    coords = []
    for _ in range(rank):
        c = (z + width // 2) % width - width // 2
        coords.append(c)
        z = (z - c) // width
    return tuple(coords)


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

    The leaves of the chamber walk, each a floor vector b and its chamber
    ell, reduced to classes on the fan.  A product fan's chambers are the
    products of its factors' chambers, so its leaves are the tuples of
    factor leaves: b is the factor b's placed at the factors' rays, and the
    chamber ell is the lcm of theirs, the denominator of the point
    (t_X, t_Y).  Each distinct factor is walked once.
    """
    fan.require_valid()
    if fan._factors:
        walks: dict[Fan, list[tuple[IntVec, int]]] = {}
        for _, factor, _ in fan._factors:
            if factor not in walks:
                walks[factor] = _chamber_leaves(factor)
        leaves = []
        for combo in itertools.product(*(walks[factor] for _, factor, _ in fan._factors)):
            b = [0] * fan.n_rays
            for (rays, _, _), (fb, _) in zip(fan._factors, combo):
                for i, x in zip(rays, fb):
                    b[i] = x
            leaves.append((tuple(b), math.lcm(*(ell for _, ell in combo))))
    else:
        leaves = _chamber_leaves(fan)
    cells: dict[DivisorClass, list[tuple[IntVec, int]]] = {}
    for b, ell in leaves:
        cells.setdefault(divisor_class(TorusDivisor(fan, b)), []).append((b, ell))
    classes = tuple(sorted(cells))
    return FrobSet(fan, classes, tuple(tuple(cells[cls]) for cls in classes))


def _chamber_leaves(fan: Fan) -> list[tuple[IntVec, int]]:
    """The floor vectors b of the nonempty chambers, each with its chamber ell.

    Chamber enumeration over b: ray by ray, each partial assignment keeps
    only values whose chamber is still nonempty.  Since t < 1 in every
    coordinate, <t, v_rho> < hi whenever hi > 0, so b = hi occurs only when
    hi = 0.  The root's tableau holds t in [0, 1)^n, the rows of the unit
    vectors, and each child adds b <= <t, v_k> < b + 1 to a copy of its
    parent's tableau and re-optimizes it by dual simplex; no child solves
    an LP from scratch, and a unit vector's one child keeps its parent's
    tableau.  A leaf's chamber ell clears the denominators of its
    tableau's vertex t.
    """
    units = identity_matrix(fan.dim)
    steps = []  # per ray: None for a unit vector, else each floor b with its cell's rows
    for ray in fan.rays:
        floors = range(sum(min(x, 0) for x in ray), max(sum(max(x, 0) for x in ray), 1))
        steps.append(None if ray in units else [(b, _cell((ray,), (b,), 1)) for b in floors])
    leaves: list[tuple[IntVec, int]] = []
    root = _strict_tableau(fan.dim, [(e, 1, True) for e in units])
    _descend(fan.dim, steps, (), root, leaves)
    return leaves


def _descend(dim: int, steps: list, prefix: IntVec, tab: _Tableau, leaves: list) -> None:
    """Try each floor of the ray after prefix; append the leaves below tab to leaves."""
    k = len(prefix)
    if k == len(steps):
        # u = ell*t is a residue at ell = the lcm of t's denominators,
        # and its summand has floor vector prefix.
        num = [row[-1] for row, col in zip(tab.rows, tab.basis) if col < dim]
        leaves.append((prefix, tab.den // math.gcd(tab.den, *num)))
        return
    if steps[k] is None:  # a unit vector: its rows 0 <= t_i < 1 are the cube's
        _descend(dim, steps, prefix + (0,), tab, leaves)
        return
    for b, rows in steps[k]:
        child = _strict_tableau(dim, rows, tab)
        if child is not None:
            _descend(dim, steps, prefix + (b,), child, leaves)


def _cell(vectors: tuple[IntVec, ...], bs: tuple[int, ...], ell: int) -> tuple:
    """The rows ell*b_i <= <u, vectors[i]> < ell*(b_i + 1) for i < len(bs).

    Scaled by ell, a leaf's chamber holds the residues u whose floor vector
    is the leaf's; they lie in [0, ell-1]^n, a box that replaces the unit
    cube's rows.
    """
    rows = []
    for v, b in zip(vectors, bs):
        rows += [(tuple(-x for x in v), -ell * b, False), (v, ell * (b + 1), True)]
    return tuple(rows)


def _realizes(fan: Fan, b: IntVec, ell: int) -> bool:
    """Whether the pushforward of O at ell has a residue with floor vector b."""
    return bool(_count_box(_cell(fan.rays, b, ell), [(0, ell - 1)] * fan.dim, any))


def _least_ell(fan: Fan, cells: tuple[tuple[tuple[IntVec, int], ...], ...], last: int) -> int:
    """The least ell <= last at which every class in cells has a leaf whose cell has a point.

    cells holds, per class, its leaves (b, chamber ell).  The ells are
    tried upward from 1, each class's leaves in order until one has a
    point.  A leaf's cell has a point at its chamber ell, so a caller's
    last is an ell at which every class must be found.
    """
    for ell in range(1, last + 1):
        if all(any(_realizes(fan, b, ell) for b, _ in leaves) for leaves in cells):
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
    return _least_ell(fan, fs.cells, math.lcm(*(e for leaves in fs.cells for _, e in leaves)))
