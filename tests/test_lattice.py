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
    adjugate,
    determinant,
    dot,
    feasible,
    feasible_point,
    integer_rank,
)
from oracles import brute_count, hermite_normal_form, solve_integer, subdivision_chain


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


# all 26 rows a.x <= a.v, a in {-1, 0, 1}^3 \ 0, are tight at the one point
# v = (1/2, -1, 2), and half of them start infeasible
V2 = (1, -2, 4)  # 2v
DEGENERATE_ROWS = [(tuple(2 * x for x in a), dot(a, V2))
                   for a in itertools.product((-1, 0, 1), repeat=3) if any(a)]


def test_feasible_point_ends_on_a_degenerate_vertex():
    # the dual simplex from the tableau of s <= 1 must end at v under Bland's rule
    assert sum(b < 0 for _, b in DEGENERATE_ROWS) >= 10
    num, den = feasible_point(LinearSystem(3, tuple((a, b, False) for a, b in DEGENERATE_ROWS)))
    assert [Fraction(x, den) for x in num] == [Fraction(x, 2) for x in V2]


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


# --- _count_box: the integer points of rows in an explicit box --------------


def count_in(S, boxes, total=sum):
    return lattice._count_box(S.rows, boxes, total)


def test_lattice_points_square():
    S = system(2, [
        ((1, 0), ">=", 0), ((1, 0), "<=", 2),
        ((0, 1), ">=", 0), ((0, 1), "<=", 2),
    ])
    assert count_in(S, [(-5, 5)] * 2) == 9


def test_lattice_points_open_interval_empty():
    S = system(1, [((1,), ">", 0), ((1,), "<", 1)])
    assert count_in(S, [(-5, 5)]) == 0


def test_lattice_points_degree_two_triangle():
    S = system(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0), ((-1, -1), ">=", -2)])
    assert count_in(S, [(0, 2)] * 2) == count_in(S, [(-9, 9)] * 2) == 6


def test_lattice_points_leaves_no_reference_cycles():
    S = system(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0), ((-1, -1), ">=", -2)])
    gc.collect()
    gc.disable()
    try:
        assert count_in(S, [(0, 2)] * 2) == 6
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
    assert count_in(S, [(-3, 3)] * 2) == 0


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
    assert count_in(S, [(-3, 3)] * n) == count_in(S, [(-5, 4)] * n) == len(brute)


def test_lattice_point_count_unimodular_invariance():
    # x -> U x with U unimodular maps lattice points bijectively
    S = system(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0), ((-1, -1), ">=", -3)])
    U = ((1, 1), (0, 1))  # substitute x = U y in each constraint
    T = LinearSystem(2, tuple(
        (tuple(dot(a, col) for col in zip(*U)), b, strict) for a, b, strict in S.rows
    ))
    # S lies in [0, 3]^2, and T, its points moved by U^-1, in [-3, 3] x [0, 3]
    assert count_in(S, [(0, 3)] * 2) == count_in(T, [(-3, 3), (0, 3)]) == 10


# --- _count_box on independent coordinate blocks ----------------------------

CUBE = [(-3, 3)] * 5


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
        factors.append(brute_count(LinearSystem(len(coords), tuple(local)), CUBE[:len(coords)]))
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
    assert count_in(S, CUBE[:S.dim]) == brute_count(S, CUBE[:S.dim]) == math.prod(factors)


def test_empty_block_beside_unbounded_block_counts_zero():
    # x_e >= 1 and x_e <= 0 is empty; x_u >= 0 leaves x_u bounded by the box
    # alone; either coordinate and either row order may come first
    for e, u in ((0, 1), (1, 0)):
        empty = (
            (tuple(-int(k == e) for k in range(2)), -1, False),
            (tuple(int(k == e) for k in range(2)), 0, False),
        )
        unbounded = ((tuple(-int(k == u) for k in range(2)), 0, False),)
        assert count_in(LinearSystem(2, empty + unbounded), [(-9, 9)] * 2) == 0
        assert count_in(LinearSystem(2, unbounded + empty), [(-9, 9)] * 2) == 0


def test_all_zero_rows_are_decided_alone():
    square = ((1, 0), 2, False), ((-1, 0), 0, False), ((0, 1), 2, False), ((0, -1), 0, False)
    for b, strict, count in ((-1, False, 0), (0, True, 0), (-1, True, 0),
                             (0, False, 9), (1, True, 9), (5, False, 9)):
        S = LinearSystem(2, square[:2] + (((0, 0), b, strict),) + square[2:])
        assert count_in(S, [(-4, 4)] * 2) == count, (b, strict)
    # a false all-zero row empties the system even where the box alone bounds a coordinate
    assert count_in(LinearSystem(2, square[:2] + (((0, 0), -1, False),)), [(-4, 4)] * 2) == 0


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
    exists = count_in(S, [(-3, 3)] * S.dim, any)
    assert bool(exists) == (brute_count(S, [(-3, 3)] * S.dim) > 0)
    assert bool(exists) == (count_in(S, [(-3, 3)] * S.dim) > 0)


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
