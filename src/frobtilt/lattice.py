"""Exact integer linear algebra.

All arithmetic is arbitrary precision: integer vectors and matrices are
plain tuples of Python ints.  A linear system is a tuple of integer rows
a.x <= b, strict (a.x < b) where flagged.  A rational point stays integer
numerators over one shared denominator, read off the simplex tableau.  No
floating point is used anywhere; strict rows are decided exactly (via an
auxiliary slack maximization, never a numeric tolerance).  A tableau
stores only its nonbasic columns and the rhs; every tableau is built by
one routine from a dual-feasible basis, so one dual simplex is its whole
solve and no artificial columns are used.  A system over nonnegative
variables can also grow row by row: each step appends its new rows, in
the current basis, to a copy of the last optimal tableau, whose rows keep
their width, and dual simplex re-optimizes it.  The integer points of
rows inside a box the caller gives are counted by walking the box with
per-coordinate interval tightening, not listed.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


# ---------------------------------------------------------------------------
# integer linear algebra


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum(map(operator.mul, u, v))


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _eliminate(M: list[list[int]], width: int, above: bool = False) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows M in place.

    Pivots in the first width columns, skipping a column with no pivot
    left, and clears each pivot's column below it, and with above=True
    above it too (Gauss-Jordan).  Row i becomes (p.row_i - f.prow) / prev,
    f its entry in the pivot column: every entry stays a minor of M, so
    each division is exact.  Returns (rank, the sign of the row swaps, the
    last pivot); a square M of full rank has determinant sign * last pivot.
    """
    m = len(M)
    sign, prev, r = 1, 1, 0
    for c in range(width):
        if r == m:
            break
        if M[r][c] == 0:
            piv = next((i for i in range(r + 1, m) if M[i][c]), None)
            if piv is None:
                continue
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        prow = M[r]
        p = prow[c]
        for i in range(0 if above else r + 1, m):
            if i != r:
                row = M[i]
                f = row[c]
                if f:
                    M[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
                elif p != prev:
                    M[i] = [(p * a) // prev for a in row]
        prev = p
        r += 1
    return r, sign, prev


def adjugate(A: Sequence[Sequence[int]]) -> tuple[int, Optional[IntMat]]:
    """(det, adj) of a square integer A, with A.adj = det.I; adj is None when det = 0.

    Gauss-Jordan _eliminate on [A | I] ends at s.[det.I | adj], s the sign
    of the row swaps.
    """
    n = len(A)
    M = [list(map(operator.index, row)) + list(e) for row, e in zip(A, identity_matrix(n))]
    if any(len(row) != 2 * n for row in M):
        raise ValueError("matrix must be square")
    rank, sign, last = _eliminate(M, n, above=True)
    if rank < n:
        return 0, None
    return sign * last, tuple(tuple(sign * x for x in row[n:]) for row in M)


def determinant(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    M = [list(map(operator.index, row)) for row in A]
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    rank, sign, last = _eliminate(M, n)
    return sign * last if rank == n else 0


def integer_rank(A: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix (fraction-free elimination)."""
    M = [list(map(operator.index, row)) for row in A]
    return _eliminate(M, len(M[0]) if M else 0)[0]


# ---------------------------------------------------------------------------
# exact simplex (fraction-free tableau with integer pivoting, Bland's rule)

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

    def dual_simplex(self) -> bool:
        """Run dual simplex from an objective row >= 0 until every rhs is >= 0.

        Bland's rule on both sides: the row of negative rhs with the smallest
        basic variable leaves; of the columns with a negative entry there,
        the least objective/-entry enters, ties to the smallest variable.
        False, infeasible, when the row has no negative entry.
        """
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        while True:
            r = min((i for i in range(len(basis)) if rows[i][-1] < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return True
            enter = None
            for j, (a, o, v) in enumerate(zip(rows[r], rows[-1], nonbasic)):
                if a < 0 and (enter is None or (cmp := o * ea - eo * a) > 0 or cmp == 0 and v < ev):
                    enter, ea, eo, ev = j, a, o, v
            if enter is None:
                return False
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
    if not tab.dual_simplex() or tab.rows[-1][-1] == 0:
        return None
    return tab


def feasible_point(dim: int, rows: Sequence[tuple[Sequence[int], int, bool]]
                   ) -> Optional[tuple[IntVec, int]]:
    """An exact rational point meeting the integer rows (a, b, strict) over dim variables, or None.

    The point is returned as (numerators, denominator), the denominator
    positive.  It is x = x+ - x- at the optimal tableau of _strict_tableau
    over the nonnegative x+ and x-: the strictness slack s shared by the
    strict rows is maximized, and the rows have a point iff its optimum is
    positive.  The one dual simplex from the tableau of s <= 1 is the whole
    solve, with no artificial columns and no second phase.  A row of another
    length raises ValueError, a non-integer entry TypeError.
    """
    if any(len(a) != dim for a, _, _ in rows):
        raise ValueError("row dimension mismatch")
    tab = _strict_tableau(2 * dim, [((*a, *[-x for x in a]), b, strict) for a, b, strict in rows])
    if tab is None:
        return None
    num = [0] * dim
    for row, col in zip(tab.rows, tab.basis):
        if col < dim:
            num[col] += row[-1]
        elif col < 2 * dim:
            num[col - dim] -= row[-1]
    return tuple(num), tab.den


def feasible(dim: int, rows: Sequence[tuple[Sequence[int], int, bool]],
             candidates: Iterable[Sequence[int]] = ()) -> bool:
    """True iff some rational point meets every row (a, b, strict) over dim variables.

    The integer candidates, each of length dim, are tried first, in order:
    the first that meets every row (a.m <= b, or a.m <= b - 1 on a strict
    row) proves the rows meet with no LP.  Only when none does is the LP
    solved.
    """
    for m in candidates:
        if len(m) != dim:
            raise ValueError("candidate dimension mismatch")
        for a, b, strict in rows:
            if sum(map(operator.mul, a, m)) > b - strict:
                break
        else:
            return True
    return feasible_point(dim, rows) is not None


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
