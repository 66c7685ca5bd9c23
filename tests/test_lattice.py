import gc
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from frobtilt import lattice
from frobtilt.catalog import builtin, catalog_names
from frobtilt.frobenius import _chamber_leaves
from frobtilt.lattice import (
    LinearSystem,
    UnboundedSystemError,
    adjugate,
    coordinate_bounds,
    count_points,
    determinant,
    dot,
    feasible,
    feasible_point,
    integer_rank,
)
from oracles import hermite_normal_form, solve_integer, subdivision_chain


def system(dim, rows):
    """A LinearSystem from (coeffs, rel, rhs) triples, rel one of <=, <, >=, >, =.

    >= and > rows are negated; = becomes two <= rows.
    """
    out = []
    for coeffs, rel, rhs in rows:
        if rel in ("<=", "<", "="):
            out.append((tuple(coeffs), rhs, rel == "<"))
        if rel in (">=", ">", "="):
            out.append((tuple(-c for c in coeffs), -rhs, rel == ">"))
    return LinearSystem(dim, tuple(out))


# --- independent oracles -----------------------------------------------


def matmul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def naive_det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        total += (-1) ** j * A[0][j] * naive_det(minor)
    return total


def is_row_hermite(H):
    """Echelon, positive pivots, entries above each pivot in [0, pivot)."""
    last = -1
    seen_zero_row = False
    for row in H:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False
        p = nz[0]
        if p <= last:
            return False
        last = p
    pivots = []
    for i, row in enumerate(H):
        nz = [j for j, x in enumerate(row) if x]
        if nz:
            pivots.append((i, nz[0]))
    for i, p in pivots:
        if H[i][p] <= 0:
            return False
        for k in range(i):
            if not 0 <= H[k][p] < H[i][p]:
                return False
    return True


def fm_feasible(S):
    """Fourier-Motzkin elimination; exact, strictness-aware feasibility."""
    rows = [(list(a), b, strict) for a, b, strict in S.rows]
    for k in range(S.dim):
        lower, upper, rest = [], [], []
        for row in rows:
            a = row[0][k]
            (upper if a > 0 else lower if a < 0 else rest).append(row)
        new = rest
        for lc, lrhs, lstrict in lower:
            for uc, urhs, ustrict in upper:
                la, ua = -lc[k], uc[k]
                coeffs = [la * u + ua * l for l, u in zip(lc, uc)]
                new.append((coeffs, la * urhs + ua * lrhs, lstrict or ustrict))
        rows = new
    return all(0 < rhs if strict else 0 <= rhs for _, rhs, strict in rows)


def fm_interval(S, k):
    """Fourier-Motzkin projection of the non-strict relaxation onto x_k.

    The exact rational (min, max) of x_k, or None when the relaxation is
    empty; assumes x_k bounded.
    """
    rows = [(list(a), b) for a, b, _ in S.rows]
    for j in range(S.dim):
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


def satisfies(S, point, den=1):
    """point / den satisfies every row of S (den > 0)."""
    for a, b, strict in S.rows:
        v = sum(c * x for c, x in zip(a, point))
        if not (v < b * den if strict else v <= b * den):
            return False
    return True


# --- hermite_normal_form (the oracle in oracles.py) ---------------------


def test_hnf_identity():
    H, U = hermite_normal_form([[1, 0], [0, 1]])
    assert H == ((1, 0), (0, 1))
    assert U == ((1, 0), (0, 1))


def test_hnf_zero_row():
    H, U = hermite_normal_form([[0, 0, 0]])
    assert H == ((0, 0, 0),)
    assert U == ((1,),)


def test_hnf_2x2_predicates():
    A = ((2, 4), (1, 3))
    H, U = hermite_normal_form(A)
    assert matmul(U, A) == H
    assert abs(naive_det(U)) == 1
    assert is_row_hermite(H)


@pytest.mark.parametrize("seed", range(40))
def test_hnf_random_predicates(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    A = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
    H, U = hermite_normal_form(A)
    assert matmul(U, A) == H
    assert abs(naive_det(U)) == 1
    assert is_row_hermite(H)


def test_hnf_idempotent_on_hermite_forms():
    for A in [((1, 2, 0), (0, 5, 3)), ((3, 1), (0, 2)), ((1, 0), (0, 1))]:
        H, _ = hermite_normal_form(A)
        H2, _ = hermite_normal_form(H)
        assert H2 == H


# --- solve_integer (the integer-solve oracle in oracles.py) -------------


def test_solve_identity():
    assert solve_integer([[1, 0], [0, 1]], [3, -1]) == (3, -1)


def test_solve_parity_obstruction():
    assert solve_integer([[2]], [1]) is None


def test_solve_p1_cartier():
    # <m, 1> = 2, i.e. the 1x1 system over the first chart of a 2-point fan
    assert solve_integer([[1]], [2]) == (2,)


@pytest.mark.parametrize("seed", range(40))
def test_solve_random_substitution(seed):
    rng = random.Random(1000 + seed)
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    x0 = [rng.randint(-4, 4) for _ in range(n)]
    b = [dot(row, x0) for row in A]
    x = solve_integer(A, b)
    assert x is not None
    assert [dot(row, x) for row in A] == b


def test_solve_no_rational_solution():
    assert solve_integer([[1], [1]], [0, 1]) is None


@pytest.mark.parametrize("seed", range(30))
def test_solve_none_agrees_with_box_search(seed):
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    b = [rng.randint(-4, 4) for _ in range(m)]
    x = solve_integer(A, b)
    if x is None:
        # no solution may exist in a box that would surely contain one of
        # the bounded-size solutions produced by the triangular solve
        for cand in itertools.product(range(-8, 9), repeat=n):
            assert any(dot(row, cand) != v for row, v in zip(A, b))
    else:
        assert [dot(row, x) for row in A] == b


# --- determinant / rank --------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_determinant_matches_cofactor_expansion(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    A = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
    assert determinant(A) == naive_det(A)


@pytest.mark.parametrize("seed", range(60))
def test_adjugate_inverts_up_to_the_determinant(seed):
    rng = random.Random(3000 + seed)
    n = seed % 6 + 1
    A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    if seed % 4 == 3:  # singular: the last row a multiple of the first
        k = rng.randint(-2, 2)
        A[-1] = [k * x for x in A[0]]
    det, adj = adjugate(A)
    assert det == determinant(A) == naive_det(A)
    if det == 0:
        assert adj is None
    else:
        assert matmul(A, adj) == tuple(tuple(det * (i == j) for j in range(n)) for i in range(n))


def test_adjugate_on_sparse_matrices():
    # ray matrices are mostly 0 and +-1; zero pivot-column entries skip their row update
    rng = random.Random(29)
    singular = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        A = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-3, 3))) for _ in range(n)]
             for _ in range(n)]
        det, adj = adjugate(A)
        assert det == determinant(A), A
        if det == 0:
            singular += 1
            assert adj is None, A
        else:
            assert matmul(A, adj) == tuple(tuple(det * (i == j) for j in range(n))
                                           for i in range(n)), A
    assert 200 < singular < 1800


def test_adjugate_singular_examples():
    assert adjugate([[0]]) == (0, None)
    assert adjugate([[1, 2], [2, 4]]) == (0, None)
    assert adjugate([[0, 1, 0], [0, 0, 1], [0, 1, 1]]) == (0, None)


def test_adjugate_examples():
    assert adjugate([[3]]) == (3, ((1,),))
    assert adjugate([[1, 2], [3, 4]]) == (-2, ((4, -2), (-3, 1)))
    assert adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))


@pytest.mark.parametrize("A", [[[1, 2]], [[1, 0], [0, 1], [1, 1]], [[1, 2], [3]]])
def test_adjugate_rejects_non_square(A):
    with pytest.raises(ValueError):
        adjugate(A)


def test_integer_rank_examples():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2, 3]]) == 1


@pytest.mark.parametrize("seed", range(20))
def test_integer_rank_vs_row_count_of_hnf(seed):
    rng = random.Random(77 + seed)
    m = rng.randint(1, 5)
    n = rng.randint(1, 5)
    A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    H, _ = hermite_normal_form(A)
    assert integer_rank(A) == sum(1 for row in H if any(row))


# --- feasible ------------------------------------------------------------


def test_feasible_strict_triangle():
    S = system(2, [
        ((1, 1), ">", 1),
        ((1, 0), ">=", 0), ((1, 0), "<", 1),
        ((0, 1), ">=", 0), ((0, 1), "<", 1),
    ])
    assert feasible(S)
    assert satisfies(S, *feasible_point(S))


def test_feasible_contradiction():
    S = system(1, [((1,), ">=", 1), ((1,), "<", 1)])
    assert not feasible(S)


def test_feasible_equality_vs_strict():
    S = system(1, [((2,), "=", 1), ((2,), "<", 1)])
    assert not feasible(S)


def test_feasible_no_constraints():
    assert feasible(system(3, []))


def seeded_feasibility_system(seed):
    """A small seeded system over 2 or 3 variables, strict and equality rows mixed in."""
    rng = random.Random(4000 + seed)
    n = rng.randint(2, 3)
    cons = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        rel = rng.choice(["<=", "<", ">=", ">", "="] if rng.random() < 0.3
                         else ["<=", "<", ">=", ">"])
        # rhs num/den, cleared by scaling the row with den
        num = rng.randint(-4, 4)
        den = rng.choice([1, 1, 2])
        cons.append(([den * c for c in coeffs], rel, num))
    return system(n, cons)


@pytest.mark.parametrize("seed", range(60))
def test_feasible_agrees_with_fourier_motzkin(seed):
    S = seeded_feasibility_system(seed)
    got = feasible(S)
    assert got == fm_feasible(S)
    if got:
        num, den = feasible_point(S)
        assert den > 0 and satisfies(S, num, den)
        # the witness ell of frob_set: the lcm of the reduced denominators
        assert den // math.gcd(den, *num) == math.lcm(*(Fraction(x, den).denominator for x in num))


@pytest.mark.parametrize("seed", range(40))
def test_warm_tableau_grows_like_feasible_point(seed):
    # rows over x >= 0 added one at a time, each tableau warm-started from
    # the last: the verdict is Fourier-Motzkin's (and feasible_point's, which
    # runs the same kernel), and the basic x meets every row so far, strict
    # ones strictly
    rng = random.Random(9000 + seed)
    n = rng.randint(1, 3)
    nonneg = tuple((tuple(-int(i == j) for j in range(n)), 0, False) for i in range(n))
    rows, tab = [], lattice._strict_tableau(n, [])  # s <= 1 alone
    for _ in range(rng.randint(1, 8)):
        row = (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 4), rng.random() < 0.5)
        rows.append(row)
        tab = lattice._strict_tableau(n, [row], tab)
        S = LinearSystem(n, nonneg + tuple(rows))
        assert (tab is not None) == fm_feasible(S) == (feasible_point(S) is not None)
        if tab is None:
            break
        num = [0] * n
        for r, col in zip(tab.rows, tab.basis):
            if col < n:
                num[col] = r[-1]
        assert tab.den > 0 and satisfies(S, num, tab.den)


@pytest.mark.parametrize("seed", range(20))
def test_feasible_grid_hits_imply_feasible(seed):
    rng = random.Random(8000 + seed)
    cons = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [rng.randint(-2, 2) for _ in range(2)]
        rel = rng.choice(["<=", "<", ">=", ">"])
        cons.append((coeffs, rel, rng.randint(-3, 3)))
    S = system(2, cons)
    hit = any(
        satisfies(S, (i, j), 4)
        for i in range(-12, 13)
        for j in range(-12, 13)
    )
    if hit:
        assert feasible(S)


# --- lp_maximize: dual simplex from the tableau of s <= 1 is phase 1 ---------


def lp_point(tab, dim):
    """The optimal x of an lp_maximize tableau, as numerators over tab.den."""
    num = [0] * dim
    for row, col in zip(tab.rows, tab.basis):
        if col < 2 * dim:
            num[col % dim] += row[-1] if col < dim else -row[-1]
    return num


def negative_rhs_lp(seed):
    """(dim, rows, objective): a box (often empty) and cuts, the first rhs negative.

    The slack basis starts primal infeasible; every eighth seed makes every
    rhs negative, which empties the box.
    """
    rng = random.Random(15000 + seed)
    dim = rng.randint(1, 3)
    rows = [(tuple(s * int(i == j) for j in range(dim)), rng.randint(-2, 5))
            for i in range(dim) for s in (1, -1)]
    rows += [(tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-2, 6))
             for _ in range(rng.randint(0, 4))]
    rows[0] = (rows[0][0], rng.randint(-2, -1))
    if seed % 8 == 0:
        rows = [(a, -abs(b) - 1) for a, b in rows]
    return dim, rows, tuple(rng.randint(-2, 2) for _ in range(dim))


@pytest.mark.parametrize("seed", range(40))
def test_lp_maximize_from_negative_rhs_agrees_with_fourier_motzkin(seed):
    # Fourier-Motzkin reads the maximum of c.x as that of y, a last
    # coordinate with y = c.x
    dim, rows, c = negative_rhs_lp(seed)
    status, value, tab = lattice.lp_maximize(dim, rows, c)
    y = LinearSystem(dim + 1, tuple((a + (0,), b, False) for a, b in rows) + (
        (c + (-1,), 0, False), (tuple(-x for x in c) + (1,), 0, False)))
    interval = fm_interval(y, dim)
    assert (status == lattice._INFEASIBLE) == (interval is None)
    if interval is not None:
        assert status == lattice._OPTIMAL and tab.den > 0
        assert Fraction(value, tab.den) == interval[1]
        num = lp_point(tab, dim)
        assert satisfies(LinearSystem(dim, tuple((a, b, False) for a, b in rows)), num, tab.den)
        assert dot(c, num) == value


def test_lp_maximize_on_a_half_line_is_unbounded():
    # x >= 2 and y >= 1 + x: no slack starts feasible, and x grows freely
    rows = [((-1, 0), -2), ((1, -1), -1)]
    assert lattice.lp_maximize(2, rows, (1, 0))[0] == lattice._UNBOUNDED
    status, value, tab = lattice.lp_maximize(2, rows, (-1, -1))
    assert status == lattice._OPTIMAL and Fraction(value, tab.den) == -5
    assert lattice.lp_maximize(1, [((1,), -1), ((-1,), -1)], (1,))[0] == lattice._INFEASIBLE


# all 26 rows a.x <= a.v, a in {-1, 0, 1}^3 \ 0, are tight at the one point
# v = (1/2, -1, 2), and half of them start infeasible
V2 = (1, -2, 4)  # 2v
DEGENERATE_ROWS = [(tuple(2 * x for x in a), dot(a, V2))
                   for a in itertools.product((-1, 0, 1), repeat=3) if any(a)]
UNIT_DIRECTIONS = [(k, sgn) for k in range(3) for sgn in (1, -1)]


def unit(k, sgn):
    return tuple(sgn * int(j == k) for j in range(3))


def test_lp_maximize_ends_on_a_degenerate_vertex():
    # the zero-objective dual simplex must end at v under Bland's rule
    assert sum(b < 0 for _, b in DEGENERATE_ROWS) >= 10
    for k, sgn in UNIT_DIRECTIONS:
        status, value, tab = lattice.lp_maximize(3, DEGENERATE_ROWS, unit(k, sgn))
        assert status == lattice._OPTIMAL
        assert Fraction(value, tab.den) == Fraction(sgn * V2[k], 2)
        assert [Fraction(x, tab.den) for x in lp_point(tab, 3)] == [Fraction(x, 2) for x in V2]


# --- feasible with integer candidates ----------------------------------------


def random_rows(rng, n):
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        rows.append((coeffs, rng.choice(["<=", "<", ">=", ">"]), rng.randint(-3, 3)))
    return system(n, rows)


@pytest.fixture
def point_counter(monkeypatch):
    """Counts the feasible_point calls, the LP behind feasible."""
    calls = []
    original = lattice.feasible_point

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "feasible_point", counted)
    return calls


@pytest.mark.parametrize("seed", range(60))
def test_candidates_never_change_feasibility(seed, point_counter):
    rng = random.Random(12000 + seed)
    n = rng.randint(1, 3)
    S = random_rows(rng, n)
    candidates = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 8))]
    fits = [m for m in candidates if satisfies(S, m)]
    assert feasible(S, candidates) == fm_feasible(S)
    # an LP runs exactly when no candidate fits
    assert len(point_counter) == (not fits)


@pytest.mark.parametrize("seed", range(20))
def test_no_candidates_is_the_plain_lp(seed, point_counter):
    rng = random.Random(13000 + seed)
    S = random_rows(rng, rng.randint(1, 3))
    assert feasible(S, []) == feasible(S) == fm_feasible(S)
    assert feasible(S, iter(())) == fm_feasible(S)
    assert len(point_counter) == 3


def test_candidate_on_a_strict_boundary_does_not_count(point_counter):
    # x < 1 holds at no point with x = 1, even though 1 <= 1
    assert feasible(system(1, [((1,), "<", 1), ((1,), ">=", 0)]), [(1,)])
    assert len(point_counter) == 1
    assert not feasible(system(1, [((1,), "<", 1), ((1,), ">=", 1)]), [(1,)])
    assert feasible(system(1, [((1,), "<=", 1), ((1,), ">=", 1)]), [(1,)])
    assert len(point_counter) == 2


def test_candidate_breaking_one_row_falls_through_to_the_lp(point_counter):
    S = system(2, [((1, 0), "<=", 2), ((0, 1), "<=", 2), ((1, 1), ">=", 1)])
    assert feasible(S, [(3, 0)])
    assert len(point_counter) == 1
    assert feasible(S, [(3, 0), (2, -1)])
    assert len(point_counter) == 1
    assert not feasible(system(2, [((1, 1), ">=", 5), ((1, 0), "<=", 2), ((0, 1), "<=", 2)]),
                        [(3, 2), (2, 3)])
    assert len(point_counter) == 2


def test_candidate_of_the_wrong_dimension_raises():
    with pytest.raises(ValueError):
        feasible(system(2, [((1, 0), "<=", 2)]), [(0,)])


def test_dot_of_different_lengths_raises():
    assert dot((1, 2, 3), [4, 5, 6]) == 32
    assert dot((), ()) == 0
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        dot((1, 2, 3), (1, 2))


# --- count_points ----------------------------------------------------------


def test_lattice_points_square():
    S = system(2, [
        ((1, 0), ">=", 0), ((1, 0), "<=", 2),
        ((0, 1), ">=", 0), ((0, 1), "<=", 2),
    ])
    assert count_points(S) == 9


def test_lattice_points_open_interval_empty():
    S = system(1, [((1,), ">", 0), ((1,), "<", 1)])
    assert count_points(S) == 0


def test_lattice_points_degree_two_triangle():
    S = system(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0), ((-1, -1), ">=", -2)])
    assert count_points(S) == 6


def test_lattice_points_unbounded_errors():
    with pytest.raises(UnboundedSystemError):
        count_points(system(1, [((1,), ">=", 0)]))


def test_lattice_points_leaves_no_reference_cycles():
    S = system(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0), ((-1, -1), ">=", -2)])
    gc.collect()
    gc.disable()
    try:
        assert count_points(S) == 6
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_linear_system_rejects_non_integer_data():
    with pytest.raises(TypeError):
        LinearSystem(1, (((1,), Fraction(1, 2), True),))
    with pytest.raises(TypeError):
        LinearSystem(1, (((Fraction(1, 2),), 1, False),))
    assert system(2, [((1, 2), ">", 3)]) == LinearSystem(2, (((-1, -2), -3, True),))


def test_lattice_points_empty_relaxation():
    S = system(2, [((1, 0), ">=", 1), ((1, 0), "<=", 0)])
    assert count_points(S) == 0


def seeded_box_system(seed):
    """A system inside the box [-3, 3]^n, with random cuts of every relation."""
    rng = random.Random(500 + seed)
    n = rng.randint(1, 3)
    cons = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        cons.append((list(e), ">=", -3))
        cons.append((list(e), "<=", 3))
    for _ in range(rng.randint(0, 4)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        rel = rng.choice(["<=", "<", ">=", ">", "="])
        cons.append((coeffs, rel, rng.randint(-3, 3)))
    return system(n, cons)


@pytest.mark.parametrize("seed", range(25))
def test_lattice_points_vs_brute_force(seed):
    S = seeded_box_system(seed)
    n = S.dim
    brute = [
        pt
        for pt in itertools.product(range(-3, 4), repeat=n)
        if satisfies(S, pt)
    ]
    assert count_points(S) == len(brute)


def test_lattice_point_count_unimodular_invariance():
    # x -> U x with U unimodular maps lattice points bijectively
    S = system(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0), ((-1, -1), ">=", -3)])
    U = ((1, 1), (0, 1))  # substitute x = U y in each constraint
    T = LinearSystem(2, tuple(
        (tuple(dot(a, col) for col in zip(*U)), b, strict) for a, b, strict in S.rows
    ))
    assert count_points(S) == count_points(T)


# --- count_points on independent coordinate blocks -------------------------


def brute_count(S, radius=3):
    return sum(
        satisfies(S, pt) for pt in itertools.product(range(-radius, radius + 1), repeat=S.dim)
    )


def interleaved_blocks(seed):
    """A system of independent blocks and each block's brute-force count.

    Coordinate k goes to block k % nblocks, so every block but the last
    sits on non-contiguous coordinates; the rows are shuffled together.
    """
    rng = random.Random(7000 + seed)
    dim = rng.randint(2, 5)
    nblocks = rng.randint(2, min(3, dim))
    rows, factors = [], []
    for j in range(nblocks):
        coords = list(range(j, dim, nblocks))
        local = []
        for k in range(len(coords)):
            e = tuple(int(i == k) for i in range(len(coords)))
            local.append((e, rng.randint(0, 3), False))
            local.append((tuple(-x for x in e), rng.randint(0, 3), False))
        for _ in range(rng.randint(0, 3)):
            a = tuple(rng.randint(-2, 2) for _ in coords)
            local.append((a, rng.randint(-2, 4), rng.random() < 0.3))
        factors.append(brute_count(LinearSystem(len(coords), tuple(local))))
        for a, b, strict in local:
            full = [0] * dim
            for k, x in zip(coords, a):
                full[k] = x
            rows.append((tuple(full), b, strict))
    rng.shuffle(rows)
    return LinearSystem(dim, tuple(rows)), factors


@pytest.mark.parametrize("seed", range(20))
def test_count_is_the_product_of_interleaved_block_counts(seed):
    S, factors = interleaved_blocks(seed)
    assert count_points(S) == brute_count(S) == math.prod(factors)


def test_empty_block_beside_unbounded_block_counts_zero():
    # x_e >= 1 and x_e <= 0 is empty; x_u >= 0 is unbounded; either
    # coordinate and either row order may come first
    for e, u in ((0, 1), (1, 0)):
        empty = (
            (tuple(-int(k == e) for k in range(2)), -1, False),
            (tuple(int(k == e) for k in range(2)), 0, False),
        )
        unbounded = ((tuple(-int(k == u) for k in range(2)), 0, False),)
        assert count_points(LinearSystem(2, empty + unbounded)) == 0
        assert count_points(LinearSystem(2, unbounded + empty)) == 0


def test_unbounded_block_wins_over_integer_empty_block():
    # 2x = 1 has no integer point, but y >= 0 is unbounded
    S = LinearSystem(2, (((2, 0), 1, False), ((-2, 0), -1, False), ((0, -1), 0, False)))
    with pytest.raises(UnboundedSystemError):
        count_points(S)


def test_untouched_coordinate_is_unbounded():
    S = system(3, [((1, 0, 0), ">=", 0), ((1, 0, 0), "<=", 2),
                   ((0, 0, 1), ">=", 0), ((0, 0, 1), "<=", 2)])
    with pytest.raises(UnboundedSystemError):
        count_points(S)


def test_all_zero_rows_are_decided_alone():
    square = ((1, 0), 2, False), ((-1, 0), 0, False), ((0, 1), 2, False), ((0, -1), 0, False)
    for b, strict, count in ((-1, False, 0), (0, True, 0), (-1, True, 0),
                             (0, False, 9), (1, True, 9), (5, False, 9)):
        S = LinearSystem(2, square[:2] + (((0, 0), b, strict),) + square[2:])
        assert count_points(S) == count, (b, strict)
    # a false all-zero row empties the system even beside an unbounded coordinate
    assert count_points(LinearSystem(2, square[:2] + (((0, 0), -1, False),))) == 0


# --- the count walk stopped at the first point ------------------------------

EMPTY_SYSTEMS = [
    system(1, [((1,), ">", 0), ((1,), "<", 1)]),
    system(2, [((1, 0), ">=", 1), ((1, 0), "<=", 0)]),
    LinearSystem(2, (((0, 0), -1, False),)),
    LinearSystem(2, (((0, 0), 0, True),)),
    system(2, [((2, 0), "=", 1)]),
]


@pytest.mark.parametrize(
    "S",
    [seeded_box_system(seed) for seed in range(25)]
    + [interleaved_blocks(seed)[0] for seed in range(20)]
    + EMPTY_SYSTEMS,
    ids=[f"box{seed}" for seed in range(25)] + [f"blocks{seed}" for seed in range(20)]
    + [f"empty{i}" for i in range(len(EMPTY_SYSTEMS))],
)
def test_any_walk_decides_what_counting_counts(S):
    # every seeded point lies in [-3, 3]^n; the empty systems hold none there
    exists = lattice._count_box(S.rows, [(-3, 3)] * S.dim, any)
    assert bool(exists) == (brute_count(S) > 0)
    assert bool(exists) == (lattice._count_box(S.rows, [(-3, 3)] * S.dim) > 0)
    if S not in EMPTY_SYSTEMS:
        assert bool(exists) == (count_points(S) > 0)


def test_any_walk_stops_at_the_first_point(monkeypatch):
    calls = []
    real = lattice._count
    monkeypatch.setattr(lattice, "_count", lambda *args: calls.append(args[3]) or real(*args))
    cube = LinearSystem(3, (((1, 1, 1), 300, False),))
    assert lattice._count_box(cube.rows, [(0, 99)] * 3) == 100 ** 3
    assert len(calls) == 1 + 100 + 100 ** 2
    calls.clear()
    assert lattice._count_box(cube.rows, [(0, 99)] * 3, any)
    assert calls == [0, 1, 2]


# --- coordinate bounds from cached optimal tableaus --------------------------


def rows_with(A, rhs):
    return LinearSystem(len(A[0]), tuple((a, b, False) for a, b in zip(A, rhs)))


@pytest.fixture
def lp_counter(monkeypatch):
    """The statuses of the lp_maximize calls, in order."""
    calls = []
    original = lattice.lp_maximize

    def counted(*args):
        result = original(*args)
        calls.append(result[0])
        return result

    monkeypatch.setattr(lattice, "lp_maximize", counted)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_cached_bases_give_the_bounds_of_fresh_lps(seed, lp_counter):
    # a box around the origin keeps every region bounded; the cuts shape it
    rng = random.Random(900 + seed)
    dim = rng.randint(1, 4)
    A = [tuple(s * int(i == j) for j in range(dim)) for i in range(dim) for s in (1, -1)]
    A += [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
    # count_points fills a dict of its own, so bases holds only what
    # coordinate_bounds put there
    bases, count_bases = {}, {}
    cold = warm = warm_optimal = empty = 0
    for _ in range(40):
        rhs = [rng.randint(-1, 8) for _ in A]
        S = rows_with(A, rhs)
        before = len(lp_counter)
        expected = coordinate_bounds(S)
        cold += len(lp_counter) - before
        before = len(lp_counter)
        assert coordinate_bounds(S, bases) == expected
        warm += len(lp_counter) - before
        warm_optimal += lp_counter[before:].count(lattice._OPTIMAL)
        assert count_points(S, count_bases) == count_points(S)
        empty += expected is None
    assert list(bases) == [tuple(A)]
    assert 0 < empty < 40
    assert warm < cold
    # a direction solved once is re-solved from its tableau ever after
    assert warm_optimal <= 2 * dim


def test_warm_cache_still_sees_empty_and_unbounded_regions():
    bases = {}
    box = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1))
    assert coordinate_bounds(rows_with(box, (3, 0, 3, 0, 4)), bases) == [(0, 3), (0, 3)]
    assert coordinate_bounds(rows_with(box, (2, -1, 2, -1, 5)), bases) == [(1, 2), (1, 2)]
    # x >= 2, y >= 2 and x + y <= 3: empty, so the warm dual simplex is infeasible
    assert coordinate_bounds(rows_with(box, (3, -2, 3, -2, 3)), bases) is None
    assert count_points(rows_with(box, (3, -2, 3, -2, 3)), bases) == 0
    # y has no lower bound: the x bounds are cached before y raises, and a
    # later region of the same matrix reuses them and raises again
    strip = ((1, 0), (-1, 0), (0, 1))
    for rhs in ((2, 0, 5), (4, -1, 0)):
        with pytest.raises(UnboundedSystemError, match="coordinate 1"):
            coordinate_bounds(rows_with(strip, rhs), bases)
    assert set(bases[strip]) == {(0, -1), (0, 1)}
    assert coordinate_bounds(rows_with(strip, (-1, 0, 5)), bases) is None
    assert set(bases) == {box, strip}


def assert_rhs_is_slack_block_times(tab, dim, rhs):
    """Every row's rhs, the objective row's included, is its slack block times (1, rhs).

    The variables are x+, x-, s, then the slacks (of s <= 1, then of each
    row); a row stores the nonbasic columns and the rhs.  A slack's entry
    in a row's block is its stored column there when it is nonbasic, and
    den or 0 (its implicit unit column) when it is basic.
    """
    full = (1, *rhs)
    first = 2 * dim + 1
    assert sorted(tab.basis + tab.nonbasic) == list(range(first + len(full)))
    assert len(tab.nonbasic) == first and len(tab.rows) == len(tab.basis) + 1
    for i, row in enumerate(tab.rows):
        assert len(row) == first + 1
        stored = dict(zip(tab.nonbasic, row))
        block = [stored[v] if v in stored else tab.den * (i < len(tab.basis) and tab.basis[i] == v)
                 for v in range(first, first + len(full))]
        assert row[-1] == dot(block, full)


def boxed_lp(seed):
    """(dim, rows, objective): a box, nonempty when every bound is >= 0, and cuts."""
    rng = random.Random(16000 + seed)
    dim = rng.randint(1, 3)
    rows = [(tuple(s * int(i == j) for j in range(dim)), rng.randint(-1, 6))
            for i in range(dim) for s in (1, -1)]
    rows += [(tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-2, 6))
             for _ in range(rng.randint(0, 4))]
    return dim, rows, tuple(rng.randint(-2, 2) for _ in range(dim))


@pytest.mark.parametrize("seed", range(30))
def test_lp_maximize_rhs_is_the_slack_block_times_the_full_rhs(seed):
    # the invariant a cached coordinate bound re-solves from: the slack
    # block is den * A_B^-1, the first column that of s <= 1
    dim, rows, c = boxed_lp(seed)
    status, _, tab = lattice.lp_maximize(dim, rows, c)
    if status == lattice._OPTIMAL:
        assert_rhs_is_slack_block_times(tab, dim, [b for _, b in rows])


def test_warm_bound_pivots_when_the_cached_vertex_breaks_a_row(lp_counter, monkeypatch):
    # max x over the box 0 <= x, y <= 3 with x + y <= 4 ends at x = 3; with
    # x + y <= 5/2 (2x + 2y <= 5) that vertex breaks the cut, so dual
    # simplex must pivot to find max x = 5/2
    box = ((1, 0), (-1, 0), (0, 1), (0, -1), (2, 2))
    bases = {}
    assert coordinate_bounds(rows_with(box, (3, 0, 3, 0, 8)), bases) == [(0, 3), (0, 3)]
    tab = bases[box][0, 1]
    assert Fraction(tab.rows[-1][-1], tab.den) == 3
    pivots = []
    original = lattice._Tableau.pivot

    def counted(self, r, c):
        pivots.append(c)
        original(self, r, c)

    monkeypatch.setattr(lattice._Tableau, "pivot", counted)
    lp_counter.clear()
    rhs = (3, 0, 3, 0, 5)
    S = rows_with(box, rhs)
    intervals = [fm_interval(S, k) for k in range(2)]
    assert intervals[0][1] == Fraction(5, 2)
    assert coordinate_bounds(S, bases) == [(math.ceil(lo), math.floor(hi)) for lo, hi in intervals]
    assert lp_counter == [] and pivots
    assert bases[box][0, 1] is tab and Fraction(tab.rows[-1][-1], tab.den) == Fraction(5, 2)
    # the re-solved tableau keeps the invariant, s <= 1 row included
    for t in bases[box].values():
        assert_rhs_is_slack_block_times(t, 2, rhs)


@pytest.mark.parametrize("seed", range(20))
def test_coordinate_bounds_are_the_integer_box_of_fourier_motzkin(seed):
    # scaled box rows c*x_i <= b give fractional, often negative, optima,
    # where floor and ceiling differ from truncation toward zero
    rng = random.Random(6000 + seed)
    dim = rng.randint(1, 3)
    A = [tuple(s * rng.randint(2, 5) * int(i == j) for j in range(dim))
         for i in range(dim) for s in (1, -1)]
    A += [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
    bases = {}
    fractional = 0
    for _ in range(15):
        # rows loose by -1..8 at an integer centre, mostly negative: few regions are empty
        centre = [rng.randint(-4, 1) for _ in range(dim)]
        S = rows_with(A, [dot(a, centre) + rng.randint(-1, 8) for a in A])
        intervals = [fm_interval(S, k) for k in range(dim)]
        expected = None if None in intervals else [
            (math.ceil(lo), math.floor(hi)) for lo, hi in intervals
        ]
        assert coordinate_bounds(S) == expected
        assert coordinate_bounds(S, bases) == expected
        fractional += sum(x < 0 and x.denominator > 1 for iv in intervals if iv for x in iv)
    assert fractional > 0


# --- the pivot path, pinned --------------------------------------------------
# pivot_pins.json was captured from the tableau that stored every column, a
# basic variable's unit column included.  A row now stores only its nonbasic
# columns, and Bland's rule picks by variable number rather than by column
# position, so every LP must take the same pivots to the same vertex and
# denominator: the same basis, den and value, and the same chamber ells.

PINS = json.loads(Path(__file__).with_name("pivot_pins.json").read_text())
CHAINS = {"subdivision_chain P3 8 3": ("P3", 8, 3), "subdivision_chain P4 8 5": ("P4", 8, 5)}


def test_pins_cover_the_catalog_and_both_chains():
    assert list(PINS["chamber_ells"]) == [*catalog_names(), *CHAINS]


@pytest.mark.parametrize("name", list(PINS["chamber_ells"]))
def test_chamber_walk_keeps_its_pinned_ells(name):
    fan = subdivision_chain(*CHAINS[name]) if name in CHAINS else builtin(name).fan
    assert [ell for _, ell in _chamber_leaves(fan)] == PINS["chamber_ells"][name]


def lp_outcome(dim, rows, objective):
    status, value, tab = lattice.lp_maximize(dim, rows, objective)
    return [status, value, tab and tab.den, tab and tab.basis]


def test_lp_maximize_keeps_its_pinned_pivot_path():
    pins = PINS["lp_maximize"]
    assert [lp_outcome(*negative_rhs_lp(seed)) for seed in range(40)] == pins["negative_rhs_lp"]
    assert [lp_outcome(*boxed_lp(seed)) for seed in range(30)] == pins["boxed_lp"]
    assert [lp_outcome(3, DEGENERATE_ROWS, unit(k, sgn))
            for k, sgn in UNIT_DIRECTIONS] == pins["degenerate"]


@pytest.mark.parametrize("seed", range(60))
def test_feasible_point_keeps_its_pinned_pivot_path(seed):
    # [s* numerator, den, basis, x numerators] of the strict tableau that
    # feasible_point reads its point from, or None when S is empty
    S = seeded_feasibility_system(seed)
    tab = lattice._strict_tableau(2 * S.dim, [(a + tuple(-x for x in a), b, strict)
                                              for a, b, strict in S.rows])
    point = feasible_point(S)
    pin = PINS["feasible_point"][seed]
    if pin is None:
        assert tab is None and point is None
    else:
        assert [tab.rows[-1][-1], tab.den, tab.basis, list(point[0])] == pin
        assert point[1] == tab.den
