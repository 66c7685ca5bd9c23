"""Built-in named fans and fan-file ingestion.

The builtin list covers projective spaces and their products, Hirzebruch
surfaces, the toric del Pezzo surfaces reachable by fixed-point blowups,
and the blowup of P3 at a point.  Larger classification runs (e.g. the
smooth toric Fano threefolds or fourfolds) are meant to be ingested from
fan files rather than hard-coded.

Fan file format (JSON, 0-based ray indices):

    {"name": str, "dim": n, "rays": [[int, ...], ...],
     "max_cones": [[int, ...], ...]}

save() emits a normalized form (sorted cones, two-space indent) and
save(load(path)) reproduces a normalized file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .cones import FANO, NEF_FANO, NEITHER
from .fan import Fan, hirzebruch, product, projective_space, star_subdivision

BUILTIN = "builtin-constructor"
USER_FILE = "user-file"


class FanFileError(ValueError):
    """A fan file violates the schema; the message names the bad field."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    fan: Fan
    provenance: str
    expected: Optional[str] = None  # fano / nef_fano / neither when known


def _del_pezzo7() -> Fan:
    # blow up the fixed point of F1 on the +1 section, fiber D3
    return star_subdivision(hirzebruch(1), (2, 3))


def _del_pezzo6() -> Fan:
    # second fixed-point blowup, on the other fiber through the +1 section
    return star_subdivision(_del_pezzo7(), (0, 3))


def _blowup_point_p3() -> Fan:
    f = projective_space(3)
    return star_subdivision(f, (0, 1, 2))


_BUILDERS = {
    "P1": (lambda: projective_space(1), FANO),
    "P2": (lambda: projective_space(2), FANO),
    "P3": (lambda: projective_space(3), FANO),
    "P4": (lambda: projective_space(4), FANO),
    "P1xP1": (lambda: product(projective_space(1), projective_space(1)), FANO),
    "P1xP2": (lambda: product(projective_space(1), projective_space(2)), FANO),
    "P1xP1xP1": (
        lambda: product(product(projective_space(1), projective_space(1)), projective_space(1)),
        FANO,
    ),
    "P2xP2": (lambda: product(projective_space(2), projective_space(2)), FANO),
    "F1": (lambda: hirzebruch(1), FANO),
    "F2": (lambda: hirzebruch(2), NEF_FANO),
    "F3": (lambda: hirzebruch(3), NEITHER),
    "dP7": (_del_pezzo7, FANO),
    "dP6": (_del_pezzo6, FANO),
    "BlptP3": (_blowup_point_p3, FANO),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def builtin(name: str) -> CatalogEntry:
    """The named builtin fan; raises KeyError with the known names."""
    try:
        build, expected = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; known: {', '.join(catalog_names())}"
        ) from None
    fan = build()
    fan.require_valid()
    return CatalogEntry(name, fan, BUILTIN, expected)


def entries() -> tuple[CatalogEntry, ...]:
    return tuple(builtin(name) for name in catalog_names())


# ---------------------------------------------------------------------------
# fan files


def _expect(cond: bool, field: str, detail: str) -> None:
    if not cond:
        raise FanFileError(f"field {field!r}: {detail}")


def _is_int(x) -> bool:
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def entry_from_dict(data: dict) -> CatalogEntry:
    _expect(isinstance(data, dict), "<root>", "expected a JSON object")
    for key in ("name", "dim", "rays", "max_cones"):
        _expect(key in data, key, "missing")
    name = data["name"]
    _expect(isinstance(name, str), "name", "expected a string")
    dim = data["dim"]
    _expect(_is_int(dim) and dim >= 1, "dim", "expected a positive integer")
    rays = data["rays"]
    _expect(isinstance(rays, list) and rays, "rays", "expected a nonempty list")
    # a ray's or cone's field name and detail are formatted only when it fails
    for i, ray in enumerate(rays):
        if not (isinstance(ray, list) and len(ray) == dim and all(map(_is_int, ray))):
            _expect(False, f"rays[{i}]", f"expected a list of {dim} integers")
    cones = data["max_cones"]
    _expect(isinstance(cones, list) and cones, "max_cones", "expected a nonempty list")
    for i, cone in enumerate(cones):
        if not (isinstance(cone, list) and all(map(_is_int, cone))):
            _expect(False, f"max_cones[{i}]", "expected a list of integers")
        for x in cone:
            if not 0 <= x < len(rays):
                _expect(False, f"max_cones[{i}]", f"ray index {x} out of range")
    fan = Fan(dim, tuple(tuple(r) for r in rays), tuple(tuple(c) for c in cones))
    return CatalogEntry(name, fan, USER_FILE)


def entry_to_dict(entry: CatalogEntry) -> dict:
    return {
        "name": entry.name,
        "dim": entry.fan.dim,
        "rays": [list(r) for r in entry.fan.rays],
        "max_cones": [list(c) for c in entry.fan.max_cones],
    }


def read_json(path):
    """The JSON value in a UTF-8 file; FanFileError naming the path when it is not one."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FanFileError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise FanFileError(f"{path}: not valid JSON (line {exc.lineno}, col {exc.colno})") from exc


def load(path) -> CatalogEntry:
    data = read_json(path)
    try:
        return entry_from_dict(data)
    except FanFileError as exc:
        raise FanFileError(f"{path}: {exc}") from None


def save(entry: CatalogEntry, path) -> None:
    Path(path).write_text(json.dumps(entry_to_dict(entry), indent=2) + "\n")


def resolve(target: str) -> CatalogEntry:
    """A builtin name, or a path to a fan file."""
    if target in _BUILDERS:
        return builtin(target)
    p = Path(target)
    if p.exists():
        return load(p)
    raise KeyError(
        f"{target!r} is neither a builtin name nor an existing file; "
        f"builtins: {', '.join(catalog_names())}"
    )
