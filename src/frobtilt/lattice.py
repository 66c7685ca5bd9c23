"""Exact integer linear algebra.

All arithmetic is arbitrary precision: integer vectors and matrices are
plain tuples of Python ints.  A linear system is a tuple of integer rows
a.x <= b, strict (a.x < b) where flagged.  Rational values stay integer
numerators over one shared denominator (an LP optimum or point is read
off the simplex tableau), and coordinate bounds are the integer box.  No
floating point is used anywhere; strict rows are decided exactly (via an
auxiliary slack maximization, never a numeric tolerance).  Every LP
tableau is built by one routine from a dual-feasible basis, so one dual
simplex is its phase 1 and no artificial columns are used.  A system
over nonnegative variables can also grow row by row: each step writes
its new rows into a copy of the last optimal tableau, in its basis, and
dual simplex re-optimizes it, so no step solves its LP from scratch.
Coordinate bounds keep one optimal tableau per constraint matrix and
direction: a new right-hand side is written into its rhs column, and
dual simplex re-optimizes it.  The integer points of a bounded system
are counted, not listed, per independent coordinate block (the
coordinates that rows link), and the block counts are multiplied.  A
block whose relaxation is empty makes the count 0 even beside an
unbounded block; otherwise an unbounded block raises
UnboundedSystemError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class UnboundedSystemError(ValueError):
    """Raised when an operation requires a bounded solution set."""


@dataclass(frozen=True)
class LinearSystem:
    """Integer rows (a, b, strict) over dim free rational variables.

    Each row means a.x <= b, or a.x < b when strict is set; non-integer
    coefficients or right-hand sides raise TypeError.
    """

    dim: int
    rows: tuple[tuple[IntVec, int, bool], ...]

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError("system dimension must be positive")
        rows = tuple(
            (tuple(map(operator.index, a)), operator.index(b), bool(strict))
            for a, b, strict in self.rows
        )
        if any(len(a) != self.dim for a, _, _ in rows):
            raise ValueError("row dimension mismatch")
        object.__setattr__(self, "rows", rows)


# ---------------------------------------------------------------------------
# integer linear algebra


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum(map(operator.mul, u, v))


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def adjugate(A: Sequence[Sequence[int]]) -> tuple[int, Optional[IntMat]]:
    """(det, adj) of a square integer A, with A.adj = det.I; adj is None when det = 0.

    Fraction-free Gauss-Jordan on [A | I], the exact-division update of
    _bareiss applied above each pivot too: [A | I] ends at s.[det.I | adj],
    s the sign of the row swaps.
    """
    n = len(A)
    M = [list(map(operator.index, row)) + list(e) for row, e in zip(A, identity_matrix(n))]
    if any(len(row) != 2 * n for row in M):
        raise ValueError("matrix must be square")
    sign, prev = 1, 1
    for c in range(n):
        if M[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if M[i][c] != 0), None)
            if piv is None:
                return 0, None
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        prow = M[c]
        p = prow[c]
        for i in range(n):
            if i != c:
                row = M[i]
                f = row[c]
                M[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in M)


def _bareiss(M: list[list[int]]) -> tuple[int, int]:
    """Bareiss (fraction-free) elimination of the integer rows M, in place.

    Returns (rank, det), det the determinant of a square M and 0 for any
    other shape.  A column with no pivot left is skipped; every entry
    stays a minor of M, so each division is exact.
    """
    m, n = len(M), len(M[0]) if M else 0
    sign, prev, r = 1, 1, 0
    for c in range(n):
        if r == m:
            break
        if M[r][c] == 0:
            piv = next((i for i in range(r + 1, m) if M[i][c] != 0), None)
            if piv is None:
                continue
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        prow = M[r]
        p = prow[c]
        for i in range(r + 1, m):
            row = M[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - f * prow[j]) // prev
            row[c] = 0
        prev = p
        r += 1
    return r, sign * prev if r == m == n else 0


def determinant(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    M = [list(map(operator.index, row)) for row in A]
    if any(len(row) != len(M) for row in M):
        raise ValueError("matrix must be square")
    return _bareiss(M)[1]


def integer_rank(A: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix (Bareiss elimination)."""
    return _bareiss([list(map(operator.index, row)) for row in A])[0]


# ---------------------------------------------------------------------------
# exact simplex (fraction-free tableau with integer pivoting, Bland's rule)

_OPTIMAL = "optimal"
_INFEASIBLE = "infeasible"
_UNBOUNDED = "unbounded"


class _Tableau:
    """Dense integer simplex tableau sharing one positive denominator.

    rows holds one row per constraint, then the objective row last, which
    pivots like any other row.  Pivoting uses the exact-division update
    T'[i][j] = (T[r][c]*T[i][j] - T[i][c]*T[r][j]) / den, so all entries
    stay integral (the standard integer-pivoting rule of exact LP codes).
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int, den: int = 1):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols  # structural columns; column ncols is the rhs
        self.den = den

    def pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        if p <= 0:
            raise AssertionError("simplex pivot must be positive")
        den = self.den
        for i in range(len(rows)):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
            elif p != den:
                rows[i] = [(p * a) // den for a in row]
        self.den = p
        self.basis[r] = c

    def leaving_row(self, col: int) -> Optional[int]:
        """Bland's ratio test: the row that leaves when col enters, or None.

        Among the constraint rows with a positive entry in col, the one of
        least rhs/entry, ties to the smallest basic column.
        """
        rhs, basis = self.ncols, self.basis
        best = None
        for i in range(len(basis)):
            row = self.rows[i]
            a = row[col]
            if a > 0:
                if best is None:
                    best, br, ba = i, row[rhs], a
                else:
                    cmp = row[rhs] * ba - br * a
                    if cmp < 0 or (cmp == 0 and basis[i] < basis[best]):
                        best, br, ba = i, row[rhs], a
        return best

    def maximize(self) -> str:
        """Run simplex on the objective row, the last row."""
        while True:
            obj = self.rows[-1]
            enter = next((j for j in range(self.ncols) if obj[j] < 0), None)
            if enter is None:
                return _OPTIMAL
            r = self.leaving_row(enter)
            if r is None:
                return _UNBOUNDED
            self.pivot(r, enter)

    def dual_simplex(self) -> str:
        """Run dual simplex from an objective row >= 0 until every rhs is >= 0.

        Bland's rule on both sides: the leaving row is the one of negative
        rhs with the smallest basic column; the entering column, among
        those with a negative entry there, is the one of least
        objective/-entry, ties to the smallest.  The row is negated so the
        pivot is positive.  _INFEASIBLE when the row has no negative entry.
        """
        rows, basis, rhs = self.rows, self.basis, self.ncols
        while True:
            r = min((i for i in range(len(basis)) if rows[i][rhs] < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return _OPTIMAL
            row, obj = rows[r], rows[-1]
            enter = None
            for j in range(rhs):
                a = row[j]
                if a < 0 and (enter is None or obj[j] * ea > obj[enter] * a):
                    enter, ea = j, a
            if enter is None:
                return _INFEASIBLE
            rows[r] = [-x for x in row]
            self.pivot(r, enter)


def _strict_tableau(dim: int, rows: Sequence[tuple[Sequence[int], int, bool]],
                    parent: Optional[_Tableau] = None) -> Optional[_Tableau]:
    """Whether the rows (a, b, strict) over x >= 0 have a point, warm-started from parent.

    The columns are x (dim), the strictness slack s, then one slack per
    row; every variable is >= 0.  The LP maximizes s subject to s <= 1 and
    a.x + strict*s <= b per row, and the rows meet at some x, strict ones
    strictly, iff the optimum s* is positive.  parent is the optimal
    tableau of the rows before, left unchanged; without one it is that of
    s <= 1 alone, with s basic.  A copy gains one slack column and one row
    per new row, each row written in the current basis over the shared
    denominator (minus a_c times the row of each basic x_c or s).  The
    objective row stays >= 0, so dual simplex restores feasibility, and
    it is the only phase 1 of every LP here.  Returns the optimal tableau,
    or None when the rows meet nowhere (infeasible, or s* = 0).  x_c is
    the rhs of the row with c basic, over den, and 0 when c is not basic.
    """
    if parent is None:
        parent = _Tableau([[0] * dim + [1, 1, 1], [0] * dim + [0, 1, 1]], [dim], dim + 2)
    m, n, den = len(rows), parent.ncols, parent.den
    pad = [0] * m
    body = [row[:-1] + pad + row[-1:] for row in parent.rows]
    obj = body.pop()
    basic = [(row, col) for row, col in zip(body, parent.basis) if col <= dim]
    for j, (a, b, strict) in enumerate(rows):
        coeffs = (*map(operator.index, a), int(strict))
        new = [den * x for x in coeffs] + [0] * (n - dim - 1) + pad + [den * operator.index(b)]
        new[n + j] = den
        for row, col in basic:
            f = coeffs[col]
            if f:
                new = [x - f * y for x, y in zip(new, row)]
        body.append(new)
    body.append(obj)
    tab = _Tableau(body, parent.basis + list(range(n, n + m)), n + m, den)
    if tab.dual_simplex() != _OPTIMAL or tab.rows[-1][-1] == 0:
        return None
    return tab


def lp_maximize(dim: int, rows: Sequence[tuple[Sequence[int], int]], objective: Sequence[int]
                ) -> tuple[str, Optional[int], Optional[_Tableau]]:
    """Maximize objective.x over {x : a.x <= b for each row (a, b)}, x free.

    Rows and objective are integer; returns (status, value, tableau).
    Phase 1 is _strict_tableau over x+ and x- with no strict row, so the
    columns are x+ (dim), x- (dim), the strictness slack s, the slack of
    s <= 1, then one slack per row; s stays basic at 1 and plays no part.
    The objective, priced in that feasible basis, is then maximized by
    primal simplex.  At an optimum the maximum is value / tableau.den,
    tableau.basis holds the basic column of each row, and x_k is the rhs
    of a row with x+_k basic (column k) less that of a row with x-_k basic
    (column dim + k), over tableau.den.  Every row, the objective row
    included, has as rhs its slack block (columns 2*dim + 1 on) times
    (1, b).  Otherwise value and tableau are None.
    """
    if dim <= 0:
        raise ValueError("dimension must be positive")
    tab = _strict_tableau(2 * dim, [((*a, *(-v for v in a)), b, False) for a, b in rows])
    if tab is None:
        return _INFEASIBLE, None, None
    cost = list(objective) + [-v for v in objective]
    obj = [-tab.den * v for v in cost] + [0] * (tab.ncols - 2 * dim + 1)
    for row, col in zip(tab.rows, tab.basis):
        if col < 2 * dim and cost[col]:
            obj = [x + cost[col] * y for x, y in zip(obj, row)]
    tab.rows[-1] = obj
    if tab.maximize() == _UNBOUNDED:
        return _UNBOUNDED, None, None
    return _OPTIMAL, tab.rows[-1][-1], tab


def feasible_point(S: LinearSystem) -> Optional[tuple[IntVec, int]]:
    """An exact rational point satisfying S (strictness included), or None.

    The point is returned as (numerators, denominator), the denominator
    positive.  It is x = x+ - x- at the optimal tableau of _strict_tableau
    over the nonnegative x+ and x-: the strictness slack s shared by the
    strict rows is maximized, and S has a point iff its optimum is positive.
    The one dual simplex from the tableau of s <= 1 is the whole solve,
    with no artificial columns and no second phase.
    """
    n = S.dim
    tab = _strict_tableau(2 * n, [(a + tuple(-x for x in a), b, strict) for a, b, strict in S.rows])
    if tab is None:
        return None
    num = [0] * n
    for row, col in zip(tab.rows, tab.basis):
        if col < n:
            num[col] += row[-1]
        elif col < 2 * n:
            num[col - n] -= row[-1]
    return tuple(num), tab.den


def feasible(S: LinearSystem, candidates: Iterable[Sequence[int]] = ()) -> bool:
    """True iff some rational point satisfies every row of S.

    The integer candidates, each of length S.dim, are tried first, in
    order: the first that meets every row (a.m <= b, or a.m <= b - 1 on a
    strict row) proves S nonempty with no LP.  Only when none does is the
    LP solved.
    """
    for m in candidates:
        if len(m) != S.dim:
            raise ValueError("candidate dimension mismatch")
        if all(sum(map(operator.mul, a, m)) <= b - strict for a, b, strict in S.rows):
            return True
    return feasible_point(S) is not None


def coordinate_bounds(S: LinearSystem, bases: Optional[dict] = None
                      ) -> Optional[list[tuple[int, int]]]:
    """The integer box [ceil(min), floor(max)] of each coordinate over the
    non-strict relaxation.

    Returns None when the relaxation is empty; raises UnboundedSystemError
    when some coordinate is unbounded.  bases, a dict the caller keeps
    across systems, holds the optimal lp_maximize tableau of each
    constraint matrix and direction.  Its objective row does not depend on
    the right-hand sides, so a cached direction overwrites each row's rhs,
    in place, with its slack block times (1, b) and re-optimizes by dual
    simplex; only a direction with no tableau yet calls lp_maximize.
    """
    A = tuple(a for a, _, _ in S.rows)
    rhs = (1, *(b for _, b, _ in S.rows))  # the leading 1 is the rhs of s <= 1
    known = ({} if bases is None else bases).setdefault(A, {})
    out = []
    for k in range(S.dim):
        pair = []
        for sgn in (-1, 1):
            # the maximum of sgn * x_k is the objective row's rhs over den
            tab = known.get((k, sgn))
            if tab is not None:
                for row in tab.rows:
                    row[-1] = sum(map(operator.mul, row[2 * S.dim + 1:-1], rhs))
                if tab.dual_simplex() == _INFEASIBLE:
                    return None
            else:
                obj = [0] * S.dim
                obj[k] = sgn
                status, _, tab = lp_maximize(S.dim, list(zip(A, rhs[1:])), obj)
                if status == _INFEASIBLE:
                    return None
                if status == _UNBOUNDED:
                    raise UnboundedSystemError("coordinate %d unbounded" % k)
                known[k, sgn] = tab
            pair.append(sgn * (tab.rows[-1][-1] // tab.den))
        out.append((pair[0], pair[1]))
    return out


def coordinate_blocks(masks: Iterable[int]) -> list[int]:
    """The coordinates that the masks join, as disjoint bitmasks.

    Each mask is the set of coordinates a vector is nonzero on, and two
    coordinates are joined when some mask holds both; coordinates in no
    mask are left out.
    """
    blocks: list[int] = []
    for mask in masks:
        if mask:
            joined = [m for m in blocks if m & mask]
            blocks = [m for m in blocks if not m & mask] + [mask | sum(joined)]
    return blocks


def count_points(S: LinearSystem, bases: Optional[dict] = None) -> int:
    """The number of integer points satisfying S.

    S splits into independent coordinate blocks: the connected components
    of the coordinates, two joined when some row is nonzero on both.  Each
    block keeps the rows that touch it, in their order, and its count is
    independent of the others', so the count is their product.  An
    all-zero row is decided alone (0 <= b, or 0 < b when strict).  The
    non-strict relaxation of any block being empty gives 0, even beside an
    unbounded block; otherwise an unbounded block raises
    UnboundedSystemError, and otherwise a block with no integer point in
    its box gives 0.  Each block's box is walked with per-coordinate
    interval tightening, counting the last coordinate's interval in one
    step.  bases is passed to coordinate_bounds, so it is keyed by block
    matrices.
    """
    row_masks = [sum(1 << k for k, x in enumerate(a) if x) for a, _, _ in S.rows]
    if any(not mask and b < strict for mask, (_, b, strict) in zip(row_masks, S.rows)):
        return 0
    blocks = coordinate_blocks(row_masks)
    blocks += [1 << k for k in range(S.dim) if not any(m >> k & 1 for m in blocks)]
    boxed, unbounded = [], None
    for block_mask in blocks:
        coords = [k for k in range(S.dim) if block_mask >> k & 1]
        block = LinearSystem(len(coords), tuple(
            (tuple(a[k] for k in coords), b, strict)
            for (a, b, strict), mask in zip(S.rows, row_masks) if mask & block_mask
        ))
        try:
            boxes = coordinate_bounds(block, bases)
        except UnboundedSystemError:
            unbounded = unbounded or coords
            continue
        if boxes is None:
            return 0
        boxed.append((block, boxes))
    if unbounded:
        raise UnboundedSystemError("coordinates %s unbounded" % unbounded)
    if any(lo > hi for _, boxes in boxed for lo, hi in boxes):
        return 0
    return math.prod(_count_box(block.rows, boxes) for block, boxes in boxed)


def _count_box(rows: Sequence[tuple[IntVec, int, bool]], boxes: list[tuple[int, int]],
               total=sum) -> int:
    """The number of integer points meeting rows (a, b, strict) in the nonempty box.

    With total=any it is whether there is one, the walk stopping at the first.
    """
    # caps[k][i]: row i's part in x[:k+1] is at most b - strict minus the
    # least value the still-free x[k+1:] can give it (on integer points
    # a.x < b is a.x <= b - 1).  It depends only on the level k.
    caps = [[] for _ in boxes]
    for a, b, strict in rows:
        cap = b - strict
        for k in range(len(boxes) - 1, -1, -1):
            caps[k].append(cap)
            cap -= a[k] * boxes[k][a[k] < 0]  # the box end where a[k] * x is least
    return _count(tuple(a for a, _, _ in rows), boxes, caps, 0, [0] * len(rows), total)


def _count(rows: tuple[IntVec, ...], boxes: list[tuple[int, int]], caps: list[list[int]],
           k: int, partial: list[int], total) -> int:
    """The number of points of the box extending x[:k] that meet every row.

    Row i means rows[i].x <= caps[k][i] given the free x[k+1:]; partial[i]
    is the part of that dot product fixed by x[:k].  At the last
    coordinate the tightened interval is exact, so its length is the count.
    total (sum, or any to stop at the first point) combines x[k]'s values.
    """
    lo, hi = boxes[k]
    for g, cap, s in zip(rows, caps[k], partial):
        gk = g[k]
        c = cap - s
        if gk > 0:
            hi = min(hi, c // gk)
        elif gk < 0:
            lo = max(lo, -(c // -gk))
        elif c < 0:
            return 0
        if lo > hi:
            return 0
    if k == len(boxes) - 1:
        return hi - lo + 1
    return total(
        _count(rows, boxes, caps, k + 1, [s + g[k] * v for g, s in zip(rows, partial)], total)
        for v in range(lo, hi + 1)
    )
