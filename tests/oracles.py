"""Second, independent routes to quantities the library computes one way.

The tests compare the library's answers with these: the per-weight brute
force for cohomology, the residue-by-residue walk for pushforwards, the ell
sweep from 1 for the stabilizing ell, and the projection-formula identity
between pushforwards and cohomology.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from frobtilt.cohomology import _subcomplex_ranks, cohomology
from frobtilt.fan import DivisorClass, Fan, TorusDivisor, canonical_divisor, divisor_class
from frobtilt.frobenius import frob_set, pushforward_summands, summand_divisor
from frobtilt.lattice import IntVec, dot


def weight_cohomology(fan: Fan, D: TorusDivisor, m: IntVec) -> tuple[int, ...]:
    """(h^0_m, ..., h^n_m) for the single weight m."""
    fan.require_valid()
    neg = frozenset(
        i for i, ray in enumerate(fan.rays) if dot(m, ray) < -D.coeffs[i]
    )
    return _subcomplex_ranks(fan, neg)


def residue_walk(fan: Fan, D: TorusDivisor, ell: int) -> Counter:
    """Multiset of summand classes of the degree-ell pushforward of O(D)."""
    fan.require_valid()
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    counts: Counter = Counter()
    for u in itertools.product(range(ell), repeat=fan.dim):
        counts[divisor_class(summand_divisor(fan, D, ell, u))] += 1
    return counts


def stabilizing_ell_from_one(fan: Fan) -> int:
    """Least ell whose pushforward of O contains every frob class, searched from 1."""
    classes = set(frob_set(fan).classes)
    zero = TorusDivisor(fan, (0,) * fan.n_rays)
    ell = 1
    while not classes <= set(pushforward_summands(fan, zero, ell)):
        ell += 1
    return ell


@dataclass(frozen=True)
class ChainCheck:
    ok: bool
    violation: Optional[tuple[DivisorClass, int, int]]  # (L, ell, degree)


def projection_chain_check(fan: Fan, ell: int) -> ChainCheck:
    """Dimension-level identity behind the twist computation.

    For every frob class L and every degree m, the summed cohomology of
    the pushforward summands twisted by -L - K equals the cohomology of
    -ell*(L + K); this is the rank shadow of the projection-formula and
    adjunction steps.
    """
    fan.require_valid()
    K = canonical_divisor(fan)
    zero = TorusDivisor(fan, (0,) * fan.n_rays)
    push = pushforward_summands(fan, zero, ell)
    for L in frob_set(fan).classes:
        DL = L.representative()
        lhs = [0] * (fan.dim + 1)
        for B, mult in sorted(push.items()):
            vec = cohomology(fan, B.representative() - DL - K)
            for q, h in enumerate(vec.dims):
                lhs[q] += mult * h
        rhs = cohomology(fan, -ell * (DL + K))
        for q in range(fan.dim + 1):
            if lhs[q] != rhs.dims[q]:
                return ChainCheck(False, (L, ell, q))
    return ChainCheck(True, None)
