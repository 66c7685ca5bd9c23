"""Nef and anti-nef membership, and the anti-nef part of the frob set.

Nefness is decided by convexity of the support function: with Cartier data
m_sigma, the divisor is nef iff <m_sigma, v_rho> >= -a_rho for every
maximal cone sigma and every ray rho outside it, and ample iff all those
inequalities are strict.  This is equivalent to the curve-pairing
definition on complete toric varieties and reuses data already computed.

A product fan (Fan._factors) answers bu_set and nef_fano_status from its
factors and builds no Cartier data of its own.  A class on X x Y is
L x M with L and M its factor classes (its coordinates picked at each
factor's Picard positions), and L x M is nef iff L and M are; so a frob
class is anti-nef iff each factor class is, and -K_{X x Y} = -K_X x -K_Y
is ample (nef) iff every factor's -K is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fan import (DivisorClass, Fan, TorusDivisor, _require_on_fan, canonical_divisor, cartier_data,
                  divisor_class)
from .frobenius import FrobSet, frob_set
from .lattice import IntVec, dot

FANO = "fano"
NEF_FANO = "nef_fano"
NEITHER = "neither"


@dataclass(frozen=True)
class NefVerdict:
    cls: DivisorClass
    is_nef: bool
    is_ample: bool
    failing: Optional[tuple[int, int]]  # (max cone index, ray index)


def is_nef(D: TorusDivisor) -> NefVerdict:
    """Support-function convexity check; also decides ampleness."""
    fan = D.fan
    fan.require_valid()
    first_violation = None
    first_equality = None
    for ci, (cone, m) in enumerate(zip(fan.max_cones, cartier_data(D))):
        inside = set(cone)
        for ri, ray in enumerate(fan.rays):
            if ri in inside:
                continue
            val = dot(m, ray)
            if val < -D.coeffs[ri] and first_violation is None:
                first_violation = (ci, ri)
            elif val == -D.coeffs[ri] and first_equality is None:
                first_equality = (ci, ri)
    nef = first_violation is None
    ample = nef and first_equality is None
    failing = first_violation if not nef else first_equality
    return NefVerdict(divisor_class(D), nef, ample, failing)


def is_antinef(D: TorusDivisor) -> bool:
    return is_nef(-D).is_nef


def bu_set(fan: Fan, frob: Optional[FrobSet] = None) -> tuple[DivisorClass, ...]:
    """The anti-nef frob classes, sorted by canonical coordinates.

    A caller already holding frob_set(fan) passes it as frob, so the
    chamber enumeration is not run again; a frob set of another fan raises
    ValueError.  On a product each distinct factor class is decided once.
    """
    fan.require_valid()
    if frob is None:
        frob = frob_set(fan)
    _require_on_fan(fan, frob)
    if not fan._factors:
        return tuple(sorted(cls for cls in frob.classes if is_antinef(cls.representative())))
    verdicts: dict[Fan, dict[IntVec, bool]] = {}
    parts = [(positions, factor, verdicts.setdefault(factor, {}))
             for _, factor, positions in fan._factors]

    def antinef(cls: DivisorClass) -> bool:
        for positions, factor, seen in parts:
            coords = tuple([cls.coords[p] for p in positions])
            verdict = seen.get(coords)
            if verdict is None:
                verdict = seen[coords] = is_antinef(DivisorClass(coords, factor).representative())
            if not verdict:
                return False
        return True

    return tuple(sorted(cls for cls in frob.classes if antinef(cls)))


def nef_fano_status(fan: Fan) -> str:
    """fano / nef_fano / neither, from the anticanonical verdict.

    A product is neither if a factor is, else nef_fano if a factor is.
    """
    fan.require_valid()
    if fan._factors:
        statuses = {nef_fano_status(factor) for factor in dict.fromkeys(f for _, f, _ in fan._factors)}
        return NEITHER if NEITHER in statuses else NEF_FANO if NEF_FANO in statuses else FANO
    v = is_nef(-canonical_divisor(fan))
    if v.is_ample:
        return FANO
    if v.is_nef:
        return NEF_FANO
    return NEITHER
