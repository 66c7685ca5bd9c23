"""Exact integer and rational linear algebra.

All arithmetic is arbitrary precision: integer vectors and matrices are
plain tuples of Python ints.  A linear system is a tuple of integer rows
a.x <= b, strict (a.x < b) where flagged; only genuinely rational values
(LP optima and points, coordinate bounds) use fractions.Fraction.  No
floating point is used anywhere; strict rows are decided exactly (via an
auxiliary slack maximization, never a numeric tolerance).  The integer
points of a bounded system are counted, not listed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]
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
    return sum(a * b for a, b in zip(u, v, strict=True))


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def hermite_normal_form(A: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U.A, U unimodular, H in row echelon form with
    positive pivots and the entries above each pivot reduced into
    [0, pivot).
    """
    H = [list(map(int, row)) for row in A]
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


def determinant(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    M = [list(map(int, row)) for row in A]
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def integer_rank(A: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix (Bareiss elimination)."""
    M = [list(map(int, row)) for row in A]
    if not M or not M[0]:
        return 0
    m, n = len(M), len(M[0])
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
        p = M[r][c]
        for i in range(r + 1, m):
            if any(M[i][c:]):
                mic = M[i][c]
                M[i] = [
                    (M[i][j] * p - mic * M[r][j]) // prev if j >= c else 0
                    for j in range(n)
                ]
        prev = p
        r += 1
    return r


# ---------------------------------------------------------------------------
# exact simplex (fraction-free tableau with integer pivoting, Bland's rule)

_OPTIMAL = "optimal"
_INFEASIBLE = "infeasible"
_UNBOUNDED = "unbounded"


class _Tableau:
    """Dense integer simplex tableau sharing one positive denominator.

    Pivoting uses the exact-division update T'[i][j] =
    (T[r][c]*T[i][j] - T[i][c]*T[r][j]) / den, so all entries stay
    integral (the standard integer-pivoting rule of exact LP codes).
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols  # structural columns; column ncols is the rhs
        self.den = 1

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
        if r < len(self.basis):
            self.basis[r] = c

    def maximize(self, obj: list[int], allowed: Sequence[int]) -> str:
        """Run simplex on the given objective row (modified in place)."""
        rows = self.rows
        nbody = len(self.basis)
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return _OPTIMAL
            # Bland ratio test: min rhs/entry over positive entries,
            # ties resolved by smallest basic column.
            best = None
            for i in range(nbody):
                a = rows[i][enter]
                if a <= 0:
                    continue
                r = rows[i][self.ncols]
                if best is None:
                    best = (i, r, a)
                else:
                    cmp = r * best[2] - best[1] * a
                    if cmp < 0 or (cmp == 0 and self.basis[i] < self.basis[best[0]]):
                        best = (i, r, a)
            if best is None:
                return _UNBOUNDED
            r0 = best[0]
            prow = rows[r0]
            p = prow[enter]
            den = self.den
            f = obj[enter]
            new_obj = [(p * a - f * b) // den for a, b in zip(obj, prow)]
            self.pivot(r0, enter)
            obj[:] = new_obj


def lp_maximize(dim: int, rows: Sequence[tuple[Sequence[int], int]], objective: Sequence[int]
                ) -> tuple[str, Optional[Fraction], Optional[RatVec], Optional[_Tableau]]:
    """Maximize objective.x over {x : a.x <= b for each row (a, b)}, x free.

    Rows and objective are integer; returns (status, value, point, tableau),
    with value and point exact Fractions and, at an optimum, the final
    tableau: column 2*dim + i is row i's slack, and tableau.basis holds the
    basic column of each row.
    """
    if dim <= 0:
        raise ValueError("dimension must be positive")
    # Columns: x+ (dim), x- (dim), one slack per row, then one artificial
    # per row with negative rhs (such a row is negated, so its slack
    # cannot start basic).
    m = len(rows)
    nstruct = 2 * dim + m
    ncols = nstruct + sum(1 for _, b in rows if b < 0)
    body: list[list[int]] = []
    basis: list[int] = []
    art_rows: list[int] = []
    for i, (coeffs, rhs) in enumerate(rows):
        sign = -1 if rhs < 0 else 1
        ic = [sign * v for v in coeffs]
        row = ic + [-v for v in ic] + [0] * (ncols - 2 * dim) + [sign * rhs]
        row[2 * dim + i] = sign
        if sign > 0:
            basis.append(2 * dim + i)
        else:
            row[nstruct + len(art_rows)] = 1
            basis.append(nstruct + len(art_rows))
            art_rows.append(i)
        body.append(row)
    tab = _Tableau(body, basis, ncols)

    obj2 = [-v for v in objective] + list(objective) + [0] * (ncols - 2 * dim) + [0]

    if art_rows:
        obj1 = [0] * (ncols + 1)
        for i in art_rows:
            obj1 = [a - b for a, b in zip(obj1, tab.rows[i])]
        for col in range(nstruct, ncols):
            obj1[col] = 0
        # Carry the phase-2 row through phase-1 pivots by pivoting on a
        # combined tableau: append obj2 as a passive row.
        tab.rows.append(obj2)
        if tab.maximize(obj1, range(ncols)) != _OPTIMAL:
            raise AssertionError("phase 1 of the simplex cannot be unbounded")
        if obj1[ncols] != 0:
            return _INFEASIBLE, None, None, None
        # Drive leftover basic artificials out (degenerate pivots at rhs 0)
        # so that phase 2 cannot raise an artificial above zero.  Every row
        # has a slack, so the structural columns have full row rank and
        # each such row has a nonzero structural entry.
        for i, col in enumerate(tab.basis):
            if col >= nstruct:
                c = next(j for j in range(nstruct) if tab.rows[i][j] != 0)
                if tab.rows[i][c] < 0:
                    tab.rows[i] = [-x for x in tab.rows[i]]
                tab.pivot(i, c)
        obj2 = tab.rows.pop()
        allowed = range(nstruct)  # artificials may not re-enter
    else:
        allowed = range(ncols)

    status = tab.maximize(obj2, allowed)
    if status == _UNBOUNDED:
        return _UNBOUNDED, None, None, None
    # x_k = x+_k - x-_k: sum the basic rows' numerators over the shared
    # denominator, one Fraction per coordinate.
    num = [0] * dim
    for row, col in zip(tab.rows, tab.basis):
        if col < dim:
            num[col] += row[ncols]
        elif col < 2 * dim:
            num[col - dim] -= row[ncols]
    return _OPTIMAL, Fraction(obj2[ncols], tab.den), tuple(Fraction(v, tab.den) for v in num), tab


def feasible_point(S: LinearSystem) -> Optional[RatVec]:
    """An exact rational point satisfying S (strictness included), or None.

    Strict rows are handled by maximizing a shared slack t in
    a.x + t <= b with t <= 1: the system has a solution iff the optimum
    is positive.
    """
    n = S.dim
    rows = [(a + (int(strict),), b) for a, b, strict in S.rows]
    rows.append(((0,) * n + (1,), 1))
    status, value, point, _ = lp_maximize(n + 1, rows, (0,) * n + (1,))
    if status != _OPTIMAL or value <= 0:
        return None
    return point[:n]


def feasible(S: LinearSystem) -> bool:
    """True iff some rational point satisfies every row of S."""
    return feasible_point(S) is not None


def coordinate_bounds(S: LinearSystem, bases: Optional[dict] = None
                      ) -> Optional[list[tuple[Fraction, Fraction]]]:
    """Exact [min, max] of each coordinate over the non-strict relaxation.

    Returns None when the relaxation is empty; raises UnboundedSystemError
    when some coordinate is unbounded.  bases, a dict the caller keeps
    across systems, collects optimal bases per constraint matrix and
    direction.  Dual feasibility does not depend on the right-hand sides,
    so a basis whose vertex meets every row gives the bound with no LP.
    """
    A = tuple(a for a, _, _ in S.rows)
    rhs = [b for _, b, _ in S.rows]
    known = {} if bases is None else bases.setdefault(A, {})
    out = []
    for k in range(S.dim):
        pair = []
        for sgn in (-1, 1):
            cached = known.setdefault((k, sgn), [])
            for pos, (B, P, d, checks) in enumerate(cached):
                bB = [rhs[i] for i in B]
                if all(sum(map(operator.mul, row, bB)) <= d * rhs[i] for i, row in checks):
                    cached.insert(0, cached.pop(pos))
                    pair.append(Fraction(sum(map(operator.mul, P[k], bB)), d))
                    break
            else:
                obj = [0] * S.dim
                obj[k] = sgn
                status, value, _, tab = lp_maximize(S.dim, list(zip(A, rhs)), obj)
                if status == _INFEASIBLE:
                    return None
                if status == _UNBOUNDED:
                    raise UnboundedSystemError("coordinate %d unbounded" % k)
                pair.append(sgn * value)
                basis = None if bases is None else _optimal_basis(tab, S.dim, len(A), k, sgn)
                if basis is not None:
                    cached.append(basis)
        out.append((pair[0], pair[1]))
    return out


def _optimal_basis(tab: _Tableau, dim: int, m: int, k: int, sgn: int) -> Optional[tuple]:
    """The optimal basis of a final tableau as (rows B, P, d, checks), or None.

    The optimum may lie inside a face: a coordinate with neither x+ nor x-
    basic has zero reduced cost, so pivoting one of them in by the usual
    ratio test keeps the optimum and reaches a vertex (none can enter when
    the region contains a line).  Then B is the rows with non-basic slacks,
    and the tableau holds d * A_B^-1 in their columns: x = P b_B / d, and a
    basic slack b_j - A_j.x stays >= 0 iff checks_j . b_B <= d * b_j.  The
    dual sgn * P[k] / d must be >= 0; it does not depend on b.
    """
    for c in range(dim):
        if c in tab.basis or dim + c in tab.basis:
            continue
        for col in (c, dim + c):
            up = [(Fraction(row[tab.ncols], row[col]), i) for i, row in enumerate(tab.rows)
                  if row[col] > 0]
            if up:
                tab.pivot(min(up)[1], col)
                break
        else:
            return None
    B = [i for i in range(m) if 2 * dim + i not in tab.basis]
    P, checks = [None] * dim, []
    for row, col in zip(tab.rows, tab.basis):
        t = [row[2 * dim + i] for i in B]
        if col < 2 * dim:
            P[col % dim] = t if col < dim else [-v for v in t]
        else:
            checks.append((col - 2 * dim, [-v for v in t]))
    if any(sgn * y < 0 for y in P[k]):
        return None
    return B, P, tab.den, checks


def count_points(S: LinearSystem, bases: Optional[dict] = None) -> int:
    """The number of integer points satisfying S.

    Walks the exact bounding box with per-coordinate interval tightening,
    counting the last coordinate's interval in one step; errors on
    unbounded input.  bases is passed to coordinate_bounds.
    """
    bounds = coordinate_bounds(S, bases)
    if bounds is None:
        return 0
    boxes = [(math.ceil(lo), math.floor(hi)) for lo, hi in bounds]
    if any(lo > hi for lo, hi in boxes):
        return 0
    # caps[k][i]: row i's part in x[:k+1] is at most b - strict minus the
    # least value the still-free x[k+1:] can give it (on integer points
    # a.x < b is a.x <= b - 1).  It depends only on the level k.
    caps = [
        [
            b - strict - sum(min(g * lo, g * hi) for g, (lo, hi) in zip(a[k + 1:], boxes[k + 1:]))
            for a, b, strict in S.rows
        ]
        for k in range(S.dim)
    ]
    return _count(tuple(a for a, _, _ in S.rows), boxes, caps, 0, [0] * len(S.rows))


def _count(rows: tuple[IntVec, ...], boxes: list[tuple[int, int]], caps: list[list[int]],
           k: int, partial: list[int]) -> int:
    """The number of points of the box extending x[:k] that meet every row.

    Row i means rows[i].x <= caps[k][i] given the free x[k+1:]; partial[i]
    is the part of that dot product fixed by x[:k].  At the last
    coordinate the tightened interval is exact, so its length is the count.
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
    return sum(
        _count(rows, boxes, caps, k + 1, [s + g[k] * v for g, s in zip(rows, partial)])
        for v in range(lo, hi + 1)
    )
