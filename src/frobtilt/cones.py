"""Nef and anti-nef membership, and the anti-nef part of the frob set.

D is nef iff D.V(tau) >= 0 on every wall curve V(tau), and ample iff every
D.V(tau) > 0 (toric Kleiman criterion, Cox-Little-Schenck, Toric
Varieties, Thm. 6.3.13); each D.V(tau) is a sparse integer row in the ray
coefficients (Fan._walls).  Only for a D that is not ample does is_nef build
Cartier data m_sigma, to name the first maximal cone sigma and ray rho off
it with <m_sigma, v_rho> below -a_rho (not nef) or equal to it (nef).

A product fan (Fan._factors) answers bu_set and nef_fano_status from its
factors and builds no walls of its own.  A class on X x Y is L x M with L
and M its factor classes (its coordinates picked at each factor's Picard
positions), and L x M is nef iff L and M are; so a frob class is anti-nef
iff each factor class is, and -K_{X x Y} = -K_X x -K_Y is ample (nef) iff
every factor's -K is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .fan import DivisorClass, Fan, TorusDivisor, _require_on_fan, cartier_data, divisor_class
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


def _wall_degrees(fan: Fan, coeffs: IntVec) -> Iterator[int]:
    """D.V(tau) for each wall tau of the valid fan, D = sum coeffs_rho D_rho, lazily."""
    fan.require_valid()
    return (sum(c * coeffs[i] for i, c in wall) for wall in fan._walls)


def is_nef(D: TorusDivisor) -> NefVerdict:
    """The wall-curve verdict; when D is not ample, the first failing (cone, ray) pair."""
    fan = D.fan
    least = min(_wall_degrees(fan, D.coeffs))
    failing = None
    if least <= 0:  # the first violated inequality, or when D is nef the first tight one
        bound = 0 if least == 0 else -1
        failing = next((ci, ri) for ci, (cone, m) in enumerate(zip(fan.max_cones, cartier_data(D)))
                       for ri, ray in enumerate(fan.rays)
                       if ri not in cone and dot(m, ray) + D.coeffs[ri] <= bound)
    return NefVerdict(divisor_class(D), least >= 0, least > 0, failing)


def is_antinef(D: TorusDivisor) -> bool:
    return all(degree <= 0 for degree in _wall_degrees(D.fan, D.coeffs))


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
    """fano / nef_fano / neither, from the wall degrees of -K = sum D_rho.

    A product is neither if a factor is, else nef_fano if a factor is.
    """
    fan.require_valid()
    if fan._factors:
        statuses = {nef_fano_status(factor) for factor in dict.fromkeys(f for _, f, _ in fan._factors)}
        return NEITHER if NEITHER in statuses else NEF_FANO if NEF_FANO in statuses else FANO
    least = min(_wall_degrees(fan, (1,) * fan.n_rays))
    return FANO if least > 0 else NEF_FANO if least == 0 else NEITHER
