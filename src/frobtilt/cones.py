"""Nef and anti-nef membership, and the anti-nef part of the frob set.

Nefness is decided by convexity of the support function: with Cartier data
m_sigma, the divisor is nef iff <m_sigma, v_rho> >= -a_rho for every
maximal cone sigma and every ray rho outside it, and ample iff all those
inequalities are strict.  This is equivalent to the curve-pairing
definition on complete toric varieties and reuses data already computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fan import DivisorClass, Fan, TorusDivisor, canonical_divisor, cartier_data, divisor_class
from .frobenius import FrobSet, frob_set
from .lattice import dot

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
    chamber enumeration is not run again.
    """
    fan.require_valid()
    if frob is None:
        frob = frob_set(fan)
    out = [cls for cls in frob.classes if is_antinef(cls.representative())]
    return tuple(sorted(out))


def nef_fano_status(fan: Fan) -> str:
    """fano / nef_fano / neither, from the anticanonical verdict."""
    fan.require_valid()
    v = is_nef(-canonical_divisor(fan))
    if v.is_ample:
        return FANO
    if v.is_nef:
        return NEF_FANO
    return NEITHER
