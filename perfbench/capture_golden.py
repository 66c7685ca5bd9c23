#!/usr/bin/env python3
"""Capture the golden outputs every benchmark operation is checked against.

    python3 perfbench/capture_golden.py

Writes perfbench/golden.json from the program as it is in the working tree:

- ``cli``: exit code and SHA-256 of stdout of ``orlov``, ``frob-set`` and
  ``stabilize`` on every fan a workload reads;
- ``orlov_reports``: the orlov report of every batch entry, from which the
  expected stdout of ``batch`` is composed for any manifest order;
- ``cohom_pool``: per target, seeded divisors with their h-vector and the
  number of lattice points the query enumerates (its cost rank);
- ``frob_pool``: per fan, seeded (ell, D) with the exit code and stdout
  SHA-256 of ``frob --ell ell --divisor D``.

The golden file is pinned: a change that claims a speed-up must reproduce it
byte for byte, so rerun this only when outputs are meant to change.  The
pools are drawn from fixed seeds, so a rerun on unchanged code reproduces
the file.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def main() -> int:
    ft = run.import_frobtilt()
    golden: dict = {"cli": {}, "orlov_reports": {}, "cohom_pool": {}, "frob_pool": {}}
    out = run.HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        workdir = Path(tmp)
        for size in ("tiny", "full"):
            names = {n for w in wl.WORKLOADS for n in wl.fan_names(ft, w, size)}
            paths = wl.write_fans(ft, sorted(names), workdir)
            for name in sorted(set(wl.fan_names(ft, "orlov-products", size))
                               | set(wl.fan_names(ft, "batch-catalog", size))):
                code, text = wl.run_cli(ft, ["orlov", paths[name]])
                golden["cli"][f"orlov {name}"] = [code, wl.digest(text)]
                golden["orlov_reports"][name] = json.loads(text)
                print(f"orlov {name}: exit {code}", file=sys.stderr)
            for name in wl.fan_names(ft, "frob-sweep", size):
                for cmd in ("frob-set", "stabilize"):
                    code, text = wl.run_cli(ft, [cmd, paths[name]])
                    golden["cli"][f"{cmd} {name}"] = [code, wl.digest(text)]
            golden["frob_pool"][size] = frob_pool(ft, size, paths)
            golden["cohom_pool"][size] = cohom_pool(ft, size, paths)
            check_batch(ft, size, paths, golden, workdir)
            wl.check_cold(ft)
    path = run.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=False) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def frob_pool(ft, size: str, paths: dict) -> dict:
    rng = random.Random(f"frob-pool:{size}")
    lo, hi = wl.FROB_RESIDUES[size]
    n = wl.FROB_POOL[size]
    pools = {}
    for name in wl.fan_names(ft, "frob-sweep", size):
        fan = ft.load(paths[name]).fan
        if fan.dim < wl.FROB_MIN_DIM[size]:
            continue
        ells = [e for e in range(1, hi + 1) if lo <= e ** fan.dim <= hi]
        pool = []
        for i in range(n):
            ell = ells[i * len(ells) // n]
            coeffs = [rng.randint(-wl.FROB_COEFF, wl.FROB_COEFF) for _ in range(fan.n_rays)]
            code, text = wl.run_cli(ft, wl.frob_argv(paths[name], ell, coeffs))
            pool.append([ell, coeffs, code, wl.digest(text)])
        pools[name] = pool
        print(f"frob pool {name}: ell {ells[0]}..{ells[-1]}", file=sys.stderr)
    return pools


def cohom_pool(ft, size: str, paths: dict) -> dict:
    rng = random.Random(f"cohom-pool:{size}")
    n, bound = wl.COHOM_POOL[size]
    pools = {}
    for name in wl.fan_names(ft, "cohom-queries", size):
        fan = ft.load(paths[name]).fan
        seen = set()
        pool = []
        while len(pool) < n:
            coeffs = [rng.randint(-bound, bound) for _ in range(fan.n_rays)]
            D = ft.TorusDivisor(fan, coeffs)
            cls = ft.divisor_class(D).coords
            if cls in seen:
                continue
            seen.add(cls)
            h = list(ft.cohomology(fan, D).dims)
            points = sum(p.point_count for p in ft.weight_patterns(fan, D))
            pool.append([coeffs, h, points])
        pool.sort(key=lambda item: (item[2], item[0]))
        pools[name] = pool
        print(f"cohom pool {name}: points {pool[0][2]}..{pool[-1][2]}", file=sys.stderr)
    return pools


def check_batch(ft, size: str, paths: dict, golden: dict, workdir: Path) -> None:
    """The composed batch output must equal a real batch run."""
    names = wl.fan_names(ft, "batch-catalog", size)
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps([paths[n] for n in names]))
    got = wl.run_cli(ft, ["batch", "--manifest", str(manifest)])
    want = wl.batch_expected([golden["orlov_reports"][n] for n in names])
    if got != want:
        raise SystemExit(f"composed batch output differs from the CLI ({size})")


if __name__ == "__main__":
    sys.exit(main())
