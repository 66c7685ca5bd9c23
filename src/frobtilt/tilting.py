"""Tilting-candidate checks and the generation-time report.

The candidate bundle is the direct sum of the anti-nef frob classes.  The
report records every computable hypothesis: Ext vanishing in nonzero
degrees, nefness of -K, the top twisted degree m0, the K-theoretic
necessary conditions for generation (summand count = number of maximal
cones, unimodular Euler pairing), and the resulting bounds

    dim X  <=  rouquier dim  <=  generation time  <=  dim X + m0.

On an irreducible fan each Ext group is read from the per-class cohomology
cache on the difference of the summands' class coordinates: one lookup per
pair, and a miss builds a divisor only when a weight region survives.  m0
needs only each class's top degree above the best so far, which the
certificate masks alone settle for most classes.  A product's Ext table
comes from factor tables, one cache read per factor and distinct pair of
projected summands; a pair's Ext is their convolution (Kunneth), zero when
a factor's is and else topped by the sum of the factor tops t_f, so m0 is
the largest such sum, and m0(X x Y) = m0(X) + m0(Y) for a product set.

Fullness of the candidate is never decided here; a clean run is reported
as VERIFIED_MODULO_FULLNESS.  K_0 has rank the number of maximal cones,
so a candidate with another number of summands cannot be full and fails.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

from .cohomology import (
    CohomologyVector, _class_cohomology, _convolved, _top_degree, require_pattern_rays,
)
from .cones import NEITHER, bu_set, nef_fano_status
from .fan import DivisorClass, Fan, _require_on_fan, canonical_divisor, divisor_class
from .frobenius import frob_set
from .lattice import determinant

VERIFIED = "VERIFIED_MODULO_FULLNESS"
HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class TiltingCandidate:
    fan: Fan
    summands: tuple[DivisorClass, ...]
    ext_table: tuple[tuple[CohomologyVector, ...], ...]
    gram: tuple[tuple[int, ...], ...]  # gram[a][b] = chi(L_a, L_b)

    @cached_property
    def gram_det(self) -> int:
        return determinant(self.gram)

    def triangular_order(self) -> Optional[tuple[int, ...]]:
        """A summand order making the Gram matrix upper triangular, if any.

        Topological sort of the digraph a -> b whenever chi(L_a, L_b) != 0
        for a != b; None when the digraph has a cycle.
        """
        k = len(self.summands)
        succs = {a: set() for a in range(k)}
        indeg = {a: 0 for a in range(k)}
        for a in range(k):
            for b in range(k):
                if a != b and self.gram[a][b]:
                    succs[a].add(b)
                    indeg[b] += 1
        order = []
        ready = sorted(a for a in range(k) if indeg[a] == 0)
        while ready:
            a = ready.pop(0)
            order.append(a)
            for b in sorted(succs[a]):
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
            ready.sort()
        return tuple(order) if len(order) == k else None


@dataclass(frozen=True)
class ExtVanishing:
    ok: bool
    violations: tuple[tuple[int, int, int, int], ...]  # (a, b, degree, dim)


@dataclass(frozen=True)
class OrlovReport:
    name: str
    dim: int
    n_rays: int
    n_max_cones: int
    n_frob: int
    n_bu: int
    nef_fano: str
    ext_vanishing: bool
    ext_violations: tuple[tuple[int, int, int, int], ...]
    k_rank_match: bool
    gram_det: int
    gram_unimodular: bool
    m0: int
    gen_time_upper: int
    rdim_lower: int
    status: str
    reason: Optional[str]

    def to_dict(self) -> dict:
        return {
            "nef_fano_status" if f.name == "nef_fano" else f.name: getattr(self, f.name)
            for f in fields(self)
        }


def build_candidate(fan: Fan, summands: Optional[tuple[DivisorClass, ...]] = None) -> TiltingCandidate:
    """Assemble the candidate: summands (bu set by default), Ext table, Gram."""
    fan.require_valid()
    require_pattern_rays(fan)  # before bu_set's chamber walk
    if summands is None:
        summands = bu_set(fan)
    _require_on_fan(fan, *summands)
    if fan._factors:
        pairs = _factor_pairs(fan, summands)
        ext = {key: CohomologyVector(_convolved(key, fan.dim))
               for key in set(itertools.chain.from_iterable(pairs))}
        chi = {key: vec.euler() for key, vec in ext.items()}
        table = tuple(tuple(map(ext.__getitem__, row)) for row in pairs)
        gram = tuple(tuple(map(chi.__getitem__, row)) for row in pairs)
    else:
        table = tuple(tuple(CohomologyVector(_class_cohomology(
            fan, tuple(map(operator.sub, b.coords, a.coords)))) for b in summands) for a in summands)
        gram = tuple(tuple(v.euler() for v in row) for row in table)
    return TiltingCandidate(fan, tuple(summands), table, gram)


def ext_vanishing(candidate: TiltingCandidate) -> ExtVanishing:
    """No Ext in nonzero degrees between any two summands."""
    violations = []
    for a, row in enumerate(candidate.ext_table):
        for b, vec in enumerate(row):
            if any(vec.dims[1:]):
                violations += [(a, b, q, h) for q, h in enumerate(vec.dims) if q and h]
    return ExtVanishing(not violations, tuple(violations))


def m0(candidate: TiltingCandidate) -> int:
    """Top degree with Hom(T, T x w^-1 [m]) nonzero, computed directly.

    The top degree of Ext^*(L_a + K, L_b) = H^*(L_b - L_a - K) over all
    summand pairs, each class decided above the best so far up to dim X,
    with K reduced to its class once.  For a = b it has H^0(-K) (-K is
    effective), so m0 >= 0.  A product sums its factors' tops (module docstring).
    """
    fan, summands = candidate.fan, candidate.summands
    if fan._factors:
        factors = []  # per factor: the factor, each summand's slot, per slot pair the class and t_f
        for _, factor, positions in fan._factors:
            K = divisor_class(canonical_divisor(factor)).coords
            slots, classes = _projected(summands, positions)
            twisted = [[tuple(map(operator.sub, b, map(operator.add, a, K))) for b in classes]
                       for a in classes]
            factors.append((factor, slots, twisted, [[_top_degree(factor, c, 0) for c in row]
                                                     for row in twisted]))
        if not any(t for *_, tops in factors for row in tops for t in row):
            return 0  # every sum is 0, and the diagonal pair has h^0(-K) != 0
        projected = set(zip(*[slots for _, slots, _, _ in factors]))  # a summand's slot per factor
        keys = {tuple(zip(a, b)) for a in projected for b in projected}
        ranked = sorted(((sum(tops[x][y] for (x, y), (*_, tops) in zip(key, factors)), key)
                         for key in keys), reverse=True)
        # a factor class with t_f = 0 is nonzero only when its h^0 is, as the diagonal pair's are
        return next(total for total, key in ranked if not total or all(
            tops[x][y] or _top_degree(factor, twisted[x][y], -1) == 0
            for (x, y), (factor, _, twisted, tops) in zip(key, factors)))
    K = divisor_class(canonical_divisor(fan)).coords
    top = 0
    for a in summands:
        aK = tuple(map(operator.add, a.coords, K))
        for b in summands:
            top = _top_degree(fan, tuple(map(operator.sub, b.coords, aK)), top)
            if top == fan.dim:
                return top
    return top


def _factor_pairs(fan: Fan, summands: tuple[DivisorClass, ...]
                  ) -> list[list[tuple[tuple[int, ...], ...]]]:
    """Per summand pair of a product, the tuple of its factors' Ext^*(a_f, b_f) h-vectors.

    Their convolution is the pair's Ext (Kunneth).  Each factor projects the
    summands to its class coordinates and reads its cache once per distinct pair.
    """
    parts = []
    for _, factor, positions in fan._factors:
        slots, classes = _projected(summands, positions)
        rows = [[_class_cohomology(factor, tuple(map(operator.sub, b, a))) for b in classes]
                for a in classes]
        parts.append((slots, [[row[x] for x in slots] for row in rows]))
    return [list(zip(*[wide[s[i]] for s, wide in parts])) for i in range(len(summands))]


def _projected(summands: tuple[DivisorClass, ...], positions: tuple[int, ...]
               ) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each summand's slot on a factor, and the distinct factor classes the slots index.

    positions picks the factor's class coordinates out of the product's.
    """
    index: dict[tuple[int, ...], int] = {}
    slots = [index.setdefault(tuple([s.coords[p] for p in positions]), len(index))
             for s in summands]
    return slots, list(index)


def orlov_check(fan: Fan, name: str = "") -> OrlovReport:
    """Evaluate every computable hypothesis and assemble the report."""
    fan.require_valid()
    require_pattern_rays(fan)  # before frob_set's chamber walk
    fs = frob_set(fan)
    candidate = build_candidate(fan, bu_set(fan, fs))
    ev = ext_vanishing(candidate)
    status_k = nef_fano_status(fan)
    m0_val = m0(candidate)
    k_rank = len(candidate.summands) == len(fan.max_cones)
    gdet = candidate.gram_det
    if status_k == NEITHER:
        status, reason = NOT_APPLICABLE, "-K not nef"
    elif not ev.ok:
        status, reason = HYPOTHESIS_FAILED, "ext vanishing fails"
    elif m0_val != 0:
        status, reason = HYPOTHESIS_FAILED, f"m0 = {m0_val} > 0"
    elif not k_rank:
        status = HYPOTHESIS_FAILED
        reason = f"K_0 rank: {len(candidate.summands)} summands for {len(fan.max_cones)} maximal cones"
    else:
        status, reason = VERIFIED, None
    return OrlovReport(
        name=name,
        dim=fan.dim,
        n_rays=fan.n_rays,
        n_max_cones=len(fan.max_cones),
        n_frob=len(fs),
        n_bu=len(candidate.summands),
        nef_fano=status_k,
        ext_vanishing=ev.ok,
        ext_violations=ev.violations,
        k_rank_match=k_rank,
        gram_det=gdet,
        gram_unimodular=abs(gdet) == 1,
        m0=m0_val,
        gen_time_upper=fan.dim + m0_val,
        rdim_lower=fan.dim,
        status=status,
        reason=reason,
    )
