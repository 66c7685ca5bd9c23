"""Nef and anti-nef membership, and the anti-nef part of the frob set.

D is nef iff D.V(tau) >= 0 on every wall curve V(tau), and ample iff every
D.V(tau) > 0 (toric Kleiman criterion, Cox-Little-Schenck, Toric
Varieties, Thm. 6.3.13); each distinct D.V(tau) is a sparse integer row in
the class coordinates of D (Fan._walls).  Only for a D that is not ample
does is_nef build Cartier data m_sigma, to name the first maximal cone
sigma and ray rho off it with <m_sigma, v_rho> below -a_rho (not nef) or
equal to it (nef).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .fan import DivisorClass, Fan, TorusDivisor, _require_on_fan, cartier_data, divisor_class
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


def _wall_degrees(cls: DivisorClass) -> Iterator[int]:
    """D.V(tau) for each distinct wall function of the class's valid fan, lazily."""
    coords = cls.coords
    return (sum(c * coords[p] for p, c in wall) for wall in cls.fan._walls)


def is_nef(D: TorusDivisor) -> NefVerdict:
    """The wall-curve verdict; when D is not ample, the first failing (cone, ray) pair."""
    fan = D.fan
    fan.require_valid()
    cls = divisor_class(D)
    least = min(_wall_degrees(cls))
    failing = None
    if least <= 0:  # the first violated inequality, or when D is nef the first tight one
        bound = 0 if least == 0 else -1
        failing = next((ci, ri) for ci, (cone, m) in enumerate(zip(fan.max_cones, cartier_data(D)))
                       for ri, ray in enumerate(fan.rays)
                       if ri not in cone and dot(m, ray) + D.coeffs[ri] <= bound)
    return NefVerdict(cls, least >= 0, least > 0, failing)


def bu_set(fan: Fan, frob: Optional[FrobSet] = None) -> tuple[DivisorClass, ...]:
    """The anti-nef frob classes, sorted by canonical coordinates.

    A caller already holding frob_set(fan) passes it as frob, so the
    chamber enumeration is not run again; a frob set of another fan raises
    ValueError.
    """
    fan.require_valid()
    if frob is None:
        frob = frob_set(fan)
    _require_on_fan(fan, frob)
    return tuple(sorted(cls for cls in frob.classes
                        if all(degree <= 0 for degree in _wall_degrees(cls))))


def nef_fano_status(fan: Fan) -> str:
    """fano / nef_fano / neither, from the wall degrees of -K = sum D_rho."""
    fan.require_valid()
    least = min(_wall_degrees(divisor_class(TorusDivisor(fan, (1,) * fan.n_rays))))
    return FANO if least > 0 else NEF_FANO if least == 0 else NEITHER
