"""Exact line-bundle cohomology on smooth complete toric varieties.

H^p(X, O(D)) is graded by the character lattice; the weight-m piece is the
reduced simplicial cohomology H~^{p-1} of the full subcomplex of the fan's
ray nerve on Neg(m) = {rho : <m, v_rho> < -a_rho}.  Weights are grouped
into sign-pattern regions (one inequality per ray), so each fan needs the
reduced-cohomology ranks of every vertex subset only once; per divisor only
the regions whose subcomplex has nonzero reduced cohomology are examined,
and the weights in each are counted exactly, never listed.

Most of those regions are empty.  A region's constraint matrix depends only
on the fan and the pattern, so emptiness is decided by Farkas certificates
computed once per fan: the sign-consistent circuits of the rays.  Per
divisor each circuit costs one dot product, and only the regions that no
certificate empties reach the simplex and the lattice point count.

The per-fan set-up is one walk: the nerve is enumerated once, each full
subcomplex is ranked through its augmented cochain complex, and each active
pattern gets its certificates in the same pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .fan import DivisorClass, Fan, TorusDivisor, divisor_class
from .lattice import (
    IntVec,
    LinearSystem,
    UnboundedSystemError,
    count_points,
    dot,
    feasible,
    hermite_normal_form,
    integer_rank,
)

# _active_patterns visits all 2^r ray subsets, and its time doubles with
# each ray: about 3 s at 14 rays in dimension 3 on a 2-vCPU host.
MAX_PATTERN_RAYS = 16

Circuit = tuple[IntVec, int, int]  # lambda and the positive-part sums of +-lambda
Pattern = tuple[frozenset[int], tuple[int, ...], int]  # rays, ranks, certificate mask


class InfiniteCohomologyError(ArithmeticError):
    """An unbounded weight region carries nonzero reduced cohomology.

    On a complete fan this cannot happen; it signals that an incomplete
    fan slipped past validation.
    """


@dataclass(frozen=True)
class WeightPattern:
    """A sign pattern over rays with its reduced ranks and weight count."""

    neg_rays: tuple[int, ...]
    reduced_ranks: tuple[int, ...]  # index q holds rank H~^{q-1}
    point_count: int


@dataclass(frozen=True)
class CohomologyVector:
    """(h^0, ..., h^n)."""

    dims: tuple[int, ...]

    def __getitem__(self, q: int) -> int:
        return self.dims[q]

    def euler(self) -> int:
        return sum((-1) ** q * h for q, h in enumerate(self.dims))

    def top_nonzero(self) -> Optional[int]:
        nz = [q for q, h in enumerate(self.dims) if h]
        return nz[-1] if nz else None


# ---------------------------------------------------------------------------
# reduced cohomology of ray subcomplexes


def _subcomplex_ranks(faces: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Ranks of H~^{-1..n-1} of the complex whose faces (the empty one too) are given.

    Entry q is the number of faces of size q minus the ranks of the
    coboundaries of the augmented cochain complex out of and into size q.
    """
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for f in faces:
        by_size[len(f)].append(f)
    d = [0] * (n + 2)  # d[k]: size k -> k + 1; d[-1] = d[n] = d[n + 1] = 0
    d[0] = 1 if by_size[1] else 0  # the augmentation is onto iff a vertex exists
    for k in range(1, n):
        index = {f: i for i, f in enumerate(by_size[k])}
        rows = []
        for tau in by_size[k + 1]:
            row = [0] * len(by_size[k])
            for i in range(k + 1):
                row[index[tau[:i] + tau[i + 1 :]]] = (-1) ** i
            rows.append(row)
        if rows:
            d[k] = integer_rank(rows)
    return tuple(len(by_size[q]) - d[q] - d[q - 1] for q in range(n + 1))


def require_pattern_rays(fan: Fan) -> None:
    """Raise ValueError when the fan has more than MAX_PATTERN_RAYS rays."""
    if fan.n_rays > MAX_PATTERN_RAYS:
        raise ValueError(
            f"cohomology walks all 2^r subsets of the rays; the fan has {fan.n_rays} rays "
            f"and at most {MAX_PATTERN_RAYS} are supported"
        )


def _circuits(fan: Fan) -> tuple[IntVec, ...]:
    """The minimal linear relations sum lambda_i v_i = 0 among the rays, up to sign.

    A support is a circuit when its rays satisfy exactly one relation and
    that relation uses all of them.  The relation is the row of U giving a
    zero row of the Hermite form H = U.A, primitive since U is unimodular.
    """
    out = []
    for k in range(2, fan.dim + 2):
        for support in itertools.combinations(range(fan.n_rays), k):
            H, U = hermite_normal_form([fan.rays[i] for i in support])
            relations = [u for h, u in zip(H, U) if not any(h)]
            if len(relations) == 1 and all(relations[0]):
                lam = [0] * fan.n_rays
                for i, x in zip(support, relations[0]):
                    lam[i] = x
                out.append(tuple(lam))
    return tuple(out)


def _active_patterns(fan: Fan) -> tuple[tuple[Circuit, ...], tuple[Pattern, ...]]:
    """The circuits and the active patterns of the fan, in one walk, once per fan.

    A pattern is a ray subset S whose full subcomplex has nonzero reduced
    cohomology, with its ranks and the bitmask of the Farkas certificates
    that can empty its region {m : A_S m <= b_S}, with rows v_i (i in S) and
    -v_i (i not in S).  It is empty iff an extreme ray y of
    {y >= 0 : y^T A_S = 0} has y^T b_S < 0.  Those rays are the circuits
    lambda read in an orientation sigma with sigma*lambda_i > 0 only on S
    and sigma*lambda_i < 0 only off S.  Certificate 2c reads circuit c as
    lambda, 2c + 1 as -lambda; each circuit comes with the positive-part
    sums of lambda and -lambda.  The walk visits all 2^r ray subsets, so
    fans with more than MAX_PATTERN_RAYS rays raise ValueError first.
    """
    hit = fan._rank_cache.get("patterns")
    if hit is not None:
        return hit
    require_pattern_rays(fan)
    circuits = []
    signs = []  # (positive support, negative support) of each certificate
    for lam in _circuits(fan):
        pos = sum(1 << i for i, x in enumerate(lam) if x > 0)
        neg = sum(1 << i for i, x in enumerate(lam) if x < 0)
        signs += [(pos, neg), (neg, pos)]
        circuits.append((lam, sum(x for x in lam if x > 0), -sum(x for x in lam if x < 0)))
    faces = {f for cone in fan.max_cones for k in range(len(cone) + 1)
             for f in itertools.combinations(cone, k)}
    nerve = [(sum(1 << i for i in f), f) for f in sorted(faces)]
    patterns = []
    for s in range(1 << fan.n_rays):
        ranks = _subcomplex_ranks([f for bits, f in nerve if bits & s == bits], fan.dim)
        if any(ranks):
            mask = sum(
                1 << k for k, (pos, neg) in enumerate(signs) if pos & s == pos and not neg & s
            )
            patterns.append((frozenset(i for i in range(fan.n_rays) if s >> i & 1), ranks, mask))
    patterns.sort(key=lambda p: (len(p[0]), sorted(p[0])))
    result = fan._rank_cache["patterns"] = (tuple(circuits), tuple(patterns))
    return result


def _emptied(circuits: tuple[Circuit, ...], coeffs: IntVec) -> int:
    """Bitmask of the certificates proving their patterns' regions empty for D.

    With y = sigma*lambda, y^T b_S = -(<y, a> + sum of the positive y_i),
    so the certificate applies when <y, a> plus that sum is positive.
    """
    out = 0
    for c, (lam, pos_sum, neg_sum) in enumerate(circuits):
        t = dot(lam, coeffs)
        if t + pos_sum > 0:
            out |= 1 << 2 * c
        if neg_sum - t > 0:
            out |= 1 << 2 * c + 1
    return out


def _pattern_region(fan: Fan, coeffs: IntVec, neg: frozenset[int]) -> LinearSystem:
    """Weights m with <m, v_rho> <= -a_rho - 1 on neg rays, >= -a_rho off them.

    The strict < of the negativity condition is integer-tight, so a neg row
    is stored as <v_rho, m> <= -a_rho - 1, and any other as <-v_rho, m> <= a_rho.
    """
    rows = []
    for i, ray in enumerate(fan.rays):
        if i in neg:
            rows.append((ray, -coeffs[i] - 1, False))
        else:
            rows.append((tuple(-x for x in ray), coeffs[i], False))
    return LinearSystem(fan.dim, tuple(rows))


# ---------------------------------------------------------------------------
# public operations


def weight_patterns(fan: Fan, D: TorusDivisor) -> tuple[WeightPattern, ...]:
    """The cohomologically active sign patterns of D with exact point counts."""
    fan.require_valid()
    circuits, patterns = _active_patterns(fan)
    emptied = _emptied(circuits, D.coeffs)
    out = []
    for verts, ranks, mask in patterns:
        if mask & emptied:
            continue
        region = _pattern_region(fan, D.coeffs, verts)
        if not feasible(region):
            raise AssertionError(
                f"weight region of sign pattern {sorted(verts)} is empty "
                "but no circuit certifies it"
            )
        try:
            count = count_points(region)
        except UnboundedSystemError as exc:
            raise InfiniteCohomologyError(
                f"weight region of sign pattern {sorted(verts)} is unbounded; "
                "the fan cannot be complete"
            ) from exc
        if count:
            out.append(WeightPattern(tuple(sorted(verts)), ranks, count))
    return tuple(out)


def cohomology(fan: Fan, D: TorusDivisor) -> CohomologyVector:
    """All cohomology dimensions of O(D), exactly.

    Dimensions depend only on the divisor class, so results are cached per
    fan under the canonical class coordinates.
    """
    fan.require_valid()
    cls = divisor_class(D)
    cache = fan._cohomology_cache
    dims = cache.get(cls.coords)
    if dims is None:
        total = [0] * (fan.dim + 1)
        for p in weight_patterns(fan, cls.representative()):
            for q, r in enumerate(p.reduced_ranks):
                total[q] += p.point_count * r
        dims = cache[cls.coords] = tuple(total)
    return CohomologyVector(dims)


def ext_dims(fan: Fan, L: DivisorClass, M: DivisorClass) -> CohomologyVector:
    """Ext^*(O(L), O(M)) = H^*(X, O(M - L)) for line bundles."""
    return cohomology(fan, (M - L).representative())
