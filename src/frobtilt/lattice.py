"""Exact integer linear algebra.

All arithmetic is arbitrary precision: integer vectors and matrices are
plain tuples of Python ints.  A linear system is a tuple of integer rows
a.x <= b, strict (a.x < b) where flagged.  Rational values stay integer
numerators over one shared denominator (an LP optimum or point is read
off the simplex tableau), and coordinate bounds are the integer box.  No
floating point is used anywhere; strict rows are decided exactly (via an
auxiliary slack maximization, never a numeric tolerance).  A tableau
stores only its nonbasic columns and the rhs; every LP tableau is built
by one routine from a dual-feasible basis, so one dual simplex is its
phase 1 and no artificial columns are used.  A system over nonnegative
variables can also grow row by row: each step appends its new rows, in
the current basis, to a copy of the last optimal tableau, whose rows
keep their width, and dual simplex re-optimizes it.  Coordinate bounds
keep one optimal tableau per constraint matrix and direction: a new
right-hand side is written into its rhs column, and dual simplex
re-optimizes it.  The integer points of a bounded system are counted in
its coordinate box, not listed; an empty relaxation counts 0, and
otherwise an unbounded coordinate raises UnboundedSystemError.
"""

from __future__ import annotations

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
                if f:
                    M[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
                elif p != prev:
                    M[i] = [(p * a) // prev for a in row]
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
    """Integer simplex tableau over one positive denominator, nonbasic columns only.

    basis[i] is the basic variable of row i and nonbasic[j] that of column
    j.  rows holds one row per constraint, then the objective row, which
    pivots like any other; a row keeps its nonbasic columns, then the rhs,
    as a basic variable's column is den times a unit vector.  Pivoting on
    (r, c) uses the exact-division update T'[i][j] = (T[r][c]*T[i][j] -
    T[i][c]*T[r][j]) / den on the rows i != r, so all entries stay integral
    (the integer-pivoting rule of exact LP codes), and the leaving variable
    takes column c.  A copied tableau shares rows, so a pivot writes new lists.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], nonbasic: list[int], den: int = 1):
        self.rows = rows
        self.basis = basis
        self.nonbasic = nonbasic
        self.den = den

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c), negating row r first on a negative entry (dual simplex):
        the leaving variable's column reads den in row r and -T[i][c] in each
        other row i, or their negatives after a negation.
        """
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        den = self.den
        if p == 0:
            raise AssertionError("simplex pivot must be nonzero")
        sign = 1 if p > 0 else -1
        prow, p = [sign * x for x in prow], sign * p
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                if f:
                    row = rows[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
                    row[c] = -sign * f
                elif p != den:
                    rows[i] = [(p * a) // den for a in row]
        prow[c] = sign * den
        rows[r] = prow
        self.den = p
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def maximize(self) -> str:
        """Run simplex on the objective row by Bland's rule: the smallest variable
        with a negative objective entry enters, and the least rhs/entry over the
        rows with a positive entry there leaves, ties to the smallest basic one.
        """
        rows, basis = self.rows, self.basis
        while True:
            enter = min(((v, j) for j, (o, v) in enumerate(zip(rows[-1], self.nonbasic))
                         if o < 0), default=(None, None))[1]
            if enter is None:
                return _OPTIMAL
            r = None
            for i, (row, v) in enumerate(zip(rows, basis)):
                a = row[enter]
                if a > 0 and (r is None or (cmp := row[-1] * ra - rb * a) < 0 or cmp == 0 and v < rv):
                    r, rb, ra, rv = i, row[-1], a, v
            if r is None:
                return _UNBOUNDED
            self.pivot(r, enter)

    def dual_simplex(self) -> str:
        """Run dual simplex from an objective row >= 0 until every rhs is >= 0.

        Bland's rule on both sides: the row of negative rhs with the smallest
        basic variable leaves; of the columns with a negative entry there,
        the least objective/-entry enters, ties to the smallest variable.
        _INFEASIBLE when the row has no negative entry.
        """
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        while True:
            r = min((i for i in range(len(basis)) if rows[i][-1] < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return _OPTIMAL
            enter = None
            for j, (a, o, v) in enumerate(zip(rows[r], rows[-1], nonbasic)):
                if a < 0 and (enter is None or (cmp := o * ea - eo * a) > 0 or cmp == 0 and v < ev):
                    enter, ea, eo, ev = j, a, o, v
            if enter is None:
                return _INFEASIBLE
            self.pivot(r, enter)


def _strict_tableau(dim: int, rows: Sequence[tuple[Sequence[int], int, bool]],
                    parent: Optional[_Tableau] = None) -> Optional[_Tableau]:
    """Whether the rows (a, b, strict) over x >= 0 have a point, warm-started from parent.

    The variables are x (0 to dim - 1), the strictness slack s (dim), the
    slack of s <= 1 (dim + 1), then one slack per row, all >= 0.  The LP
    maximizes s subject to s <= 1 and a.x + strict*s <= b per row, and the
    rows meet at some x, strict ones strictly, iff the optimum s* is
    positive.  parent, left unchanged, is the optimal tableau of the rows
    before; without one it is that of s <= 1 alone, with s basic.  A copy
    shares its parent's rows and appends one per new row, with its new
    slack basic, written in the current basis over the shared denominator
    (minus a_c times the row of each basic x_c or s).  The objective row
    stays >= 0, so dual simplex restores feasibility, and it is the only
    phase 1 of every LP here.  Returns the optimal tableau, or None when
    the rows meet nowhere (infeasible, or s* = 0).  x_c is the rhs of the
    row with c basic, over den, and 0 when c is not basic.
    """
    if parent is None:
        parent = _Tableau([[0] * dim + [1, 1], [0] * dim + [1, 1]], [dim], [*range(dim), dim + 1])
    den, nonbasic = parent.den, parent.nonbasic
    n = len(parent.basis) + len(nonbasic)  # the variables so far; the new slacks follow
    body = parent.rows[:-1]
    basic = [(row, col) for row, col in zip(body, parent.basis) if col <= dim]
    for a, b, strict in rows:
        coeffs = (*map(operator.index, a), int(strict))
        new = [den * coeffs[v] if v <= dim else 0 for v in nonbasic] + [den * operator.index(b)]
        for row, col in basic:
            f = coeffs[col]
            if f:
                new = [x - f * y for x, y in zip(new, row)]
        body.append(new)
    body.append(parent.rows[-1])
    tab = _Tableau(body, parent.basis + list(range(n, n + len(rows))), nonbasic.copy(), den)
    if tab.dual_simplex() != _OPTIMAL or tab.rows[-1][-1] == 0:
        return None
    return tab


def lp_maximize(dim: int, rows: Sequence[tuple[Sequence[int], int]], objective: Sequence[int]
                ) -> tuple[str, Optional[int], Optional[_Tableau]]:
    """Maximize objective.x over {x : a.x <= b for each row (a, b)}, x free.

    Rows and objective are integer; returns (status, value, tableau).
    Phase 1 is _strict_tableau over x+ and x- with no strict row, so the
    variables are x+ (dim), x- (dim), the strictness slack s, the slack of
    s <= 1, then one slack per row; s stays basic at 1 and plays no part.
    The objective, priced in that feasible basis, is then maximized by
    primal simplex.  At an optimum the maximum is value / tableau.den, and
    x_k is the rhs of a row with x+_k basic (tableau.basis holds k) less
    that of a row with x-_k basic (dim + k), over tableau.den.  Every row,
    the objective row included, has as rhs its stored slack columns times
    (1, b), plus den times b_j when its basic variable is the slack of b_j
    (b_0 = 1).  Otherwise value and tableau are None.
    """
    if dim <= 0:
        raise ValueError("dimension must be positive")
    tab = _strict_tableau(2 * dim, [((*a, *(-v for v in a)), b, False) for a, b in rows])
    if tab is None:
        return _INFEASIBLE, None, None
    cost = [*objective, *(-v for v in objective)]
    obj = [-tab.den * cost[v] if v < 2 * dim else 0 for v in tab.nonbasic] + [0]
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
    when some coordinate is unbounded.  The first direction's solve sees
    every row, so an empty relaxation is found before any direction can be
    unbounded.  bases, a dict the caller keeps across systems, holds the
    optimal lp_maximize tableau of each constraint matrix and direction.
    Its objective row does not depend on the right-hand sides, so a cached
    direction overwrites each row's rhs, in place, with its stored slack
    columns times (1, b), plus den times b_j when the row's basic variable
    is the slack of row j, and re-optimizes by dual simplex; only a
    direction with no tableau yet calls lp_maximize.
    """
    A = tuple(a for a, _, _ in S.rows)
    rhs = (1, *(b for _, b, _ in S.rows))  # the leading 1 is the rhs of s <= 1
    first = 2 * S.dim + 1  # the variable of the slack of s <= 1; the row slacks follow
    known = ({} if bases is None else bases).setdefault(A, {})
    out = []
    for k in range(S.dim):
        pair = []
        for sgn in (-1, 1):
            # the maximum of sgn * x_k is the objective row's rhs over den
            tab = known.get((k, sgn))
            if tab is not None:
                slacks = [(c, rhs[v - first]) for c, v in enumerate(tab.nonbasic) if v >= first]
                for row, v in zip(tab.rows, [*tab.basis, 0]):  # the objective row's 0 is no slack
                    own = tab.den * rhs[v - first] if v >= first else 0
                    row[-1] = own + sum(row[c] * b for c, b in slacks)
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


def count_points(S: LinearSystem, bases: Optional[dict] = None, total=sum) -> int:
    """The number of integer points satisfying S; with total=any, whether there is one.

    The box of S is coordinate_bounds(S, bases): an empty non-strict
    relaxation gives 0 (phase 1 finds it before any coordinate can be
    unbounded), an unbounded coordinate raises UnboundedSystemError, and a
    box with no integer point gives 0.  Otherwise the box is walked with
    per-coordinate interval tightening, counting the last coordinate's
    interval in one step; a strict row is a.x <= b - 1 on integer points,
    so a strict 0 < 0 row leaves no point.
    """
    boxes = coordinate_bounds(S, bases)
    if boxes is None or any(lo > hi for lo, hi in boxes):
        return 0
    return _count_box(S.rows, boxes, total)


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
