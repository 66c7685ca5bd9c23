"""Workload inputs: fan files, seeded operation lists, golden outputs.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation is a call the user of
frobtilt would make -- ``frobtilt.cli.main(argv)`` in-process, or the
library's public ``cohomology`` -- and each one is checked against the
golden outputs in ``golden.json``, captured by ``capture_golden.py``.

Cold operations read their fan from a fan file, so each sees a fresh
``Fan``: ``builtin()`` is ``lru_cache``d and every other cache lives on the
``Fan`` object.  ``check_cold`` asserts that no builtin fan was cached.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("orlov-products", "cohom-queries", "frob-sweep", "batch-catalog")

# Product fans as pairs of builtin names; the ray order is the product's.
PRODUCTS = {
    "P1xP1xP1xP1": ("P1xP1", "P1xP1"),
    "BlptP3xP1": ("BlptP3", "P1"),
    "dP6xP1": ("dP6", "P1"),
    "dP6xP2": ("dP6", "P2"),
}

# Per workload and size, the fans the workload reads.  dP6xdP6 is left out
# of orlov-products: one cold orlov on it takes about 18 minutes.
FANS = {
    ("orlov-products", "full"): ("P1xP1xP1xP1", "BlptP3xP1", "dP6xP1", "dP6xP2"),
    ("cohom-queries", "full"): ("dP6", "P2xP2", "BlptP3", "dP6xP1"),
    ("frob-sweep", "full"): ("catalog",),
    ("batch-catalog", "full"): ("P1xP1xP1xP1", "BlptP3xP1", "catalog"),
    ("orlov-products", "tiny"): ("P1", "P2"),
    ("cohom-queries", "tiny"): ("P1", "P2"),
    ("frob-sweep", "tiny"): ("P1", "P2"),
    ("batch-catalog", "tiny"): ("P1", "P2"),
}

# cohom-queries: per target, a seed asks COHOM_PICKS classes of the pool,
# sorted by the number of lattice points each query enumerates.  The
# COHOM_HEAVY costliest classes are always asked, first in each pass and in
# pool order; the rest of the pool is cut into equal strata, one class is
# drawn from each, and these are asked in a seeded order.  So every seed
# gets the same cost profile (the point total has a coefficient of
# variation of 0.9 %, a free draw one of 23 %), and the peak memory, set by
# the largest lattice point lists, does not depend on where they fall among
# the other queries.  One extra query per REASK re-asks an earlier class
# as D + div(chi^w).
COHOM_POOL = {"full": (96, 20), "tiny": (8, 3)}  # (pool size, max |a|)
COHOM_PICKS = {"full": 24, "tiny": 3}
COHOM_HEAVY = {"full": 6, "tiny": 1}
REASK = 3  # one re-ask per REASK fresh queries: a quarter of all queries
REASK_W = 4  # |w_i| bound of the character shifting a re-asked divisor

# frob-sweep: per fan of dimension >= 2 (all dimensions when tiny), a pool
# of (ell, D); ell is drawn so that the walk covers ell^dim residues in the
# band below.  A seed takes one pool entry from the lower half and one from
# the upper half of the pool sorted by ell^dim.
FROB_POOL = {"full": 12, "tiny": 4}
FROB_RESIDUES = {"full": (12_000, 21_000), "tiny": (2, 30)}
FROB_MIN_DIM = {"full": 2, "tiny": 1}
FROB_COEFF = 3


def fan_names(ft, workload: str, size: str) -> tuple[str, ...]:
    out: list[str] = []
    for item in FANS[workload, size]:
        out.extend(ft.catalog_names() if item == "catalog" else (item,))
    return tuple(out)


def build_fan(ft, name: str):
    if name in PRODUCTS:
        a, b = PRODUCTS[name]
        return ft.product(ft.builtin(a).fan, ft.builtin(b).fan)
    return ft.builtin(name).fan


def write_fans(ft, names, workdir: Path) -> dict[str, str]:
    """Write each named fan as a fan file; builtin() is left with no cache."""
    paths = {}
    for name in names:
        path = workdir / f"{name}.json"
        ft.save(ft.CatalogEntry(name, build_fan(ft, name), "benchmark"), path)
        paths[name] = str(path)
    if hasattr(ft.builtin, "cache_clear"):
        ft.builtin.cache_clear()
    return paths


def check_cold(ft) -> None:
    if hasattr(ft.builtin, "cache_info") and ft.builtin.cache_info().currsize:
        raise RuntimeError("a builtin fan was cached; operations must read fan files")


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_cli(ft, argv: list[str]) -> tuple[int, str]:
    """frobtilt.cli.main(argv) in-process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ft.cli.main(argv)
    return code, out.getvalue()


def batch_expected(reports: list[dict]) -> tuple[int, str]:
    """The batch subcommand's exit code and stdout for the given reports.

    Composed from the golden per-entry orlov reports, so any manifest order
    can be checked; capture_golden.py checks it against a real batch run.
    """
    summary = {"verified": 0, "hypothesis_failed": 0, "not_applicable": 0,
               "total": len(reports)}
    for r in reports:
        key = {"VERIFIED_MODULO_FULLNESS": "verified",
               "NOT_APPLICABLE": "not_applicable"}.get(r["status"], "hypothesis_failed")
        summary[key] += 1
    text = json.dumps({"entries": reports, "summary": summary}, indent=2) + "\n"
    return (0 if summary["verified"] == summary["total"] else 1), text


def frob_argv(path: str, ell: int, coeffs) -> list[str]:
    return ["frob", path, "--ell", str(ell), "--divisor", ",".join(map(str, coeffs))]


# ---------------------------------------------------------------------------
# operations and plans


@dataclass
class Op:
    kind: str  # the span name of the operation in the traced run
    label: str
    call: Callable[[], object]
    expected: object


class Plan:
    """The seeded operations of one workload run.

    next_pass() returns the operations of one pass; begin_pass() runs at
    the start of each timed pass.
    """

    def __init__(self, rng: random.Random, passes: Callable, begin=None, jobs=1):
        self.rng = rng
        self._passes = passes
        self._begin = begin
        self.jobs = jobs

    def next_pass(self) -> list[Op]:
        return self._passes(self.rng)

    def begin_pass(self) -> None:
        if self._begin is not None:
            self._begin()


def cli_op(ft, kind: str, argv: list[str], expected: tuple[int, str]) -> Op:
    label = " ".join([argv[0], Path(argv[1]).stem, *argv[2:]])
    return Op(kind, label, lambda: run_cli(ft, argv), expected)


def plan_orlov(ft, size, paths, golden, rng):
    gold = golden["cli"]
    ops = [cli_op(ft, "op.orlov", ["orlov", paths[n]], tuple(gold[f"orlov {n}"]))
           for n in paths]
    return Plan(rng, lambda r: r.sample(ops, len(ops)))


def plan_frob(ft, size, paths, golden, rng):
    gold = golden["cli"]
    ops = []
    for n, p in paths.items():
        ops.append(cli_op(ft, "op.frob-set", ["frob-set", p], tuple(gold[f"frob-set {n}"])))
        ops.append(cli_op(ft, "op.stabilize", ["stabilize", p], tuple(gold[f"stabilize {n}"])))
    for n, pool in golden["frob_pool"][size].items():
        half = len(pool) // 2
        for part in (pool[:half], pool[half:]):
            ell, coeffs, code, sha = rng.choice(part)
            ops.append(cli_op(ft, "op.frob", frob_argv(paths[n], ell, coeffs), (code, sha)))
    return Plan(rng, lambda r: r.sample(ops, len(ops)))


def plan_batch(ft, size, paths, golden, rng, workdir: Path, jobs: int):
    reports = golden["orlov_reports"]
    names = list(paths)
    heavy = [n for n in names if n in PRODUCTS]  # largest entries first
    light = [n for n in names if n not in PRODUCTS]
    count = itertools.count()

    def passes(r):
        order = heavy + r.sample(light, len(light))
        manifest = workdir / f"manifest-{next(count)}.json"
        manifest.write_text(json.dumps([paths[n] for n in order]))
        code, text = batch_expected([reports[n] for n in order])
        argv = ["batch", "--manifest", str(manifest), "--jobs", str(plan.jobs)]
        return [Op("op.batch", f"batch {len(order)} entries --jobs {plan.jobs}",
                   lambda: run_cli(ft, argv), (code, digest(text)))]

    plan = Plan(rng, passes, jobs=jobs)
    return plan


def plan_cohom(ft, size, paths, golden, rng):
    fans: dict = {}
    heavy, drawn = [], []  # (target, coeffs, expected h)
    reasks = []  # (query re-asked, its shifted form)
    for target, pool in golden["cohom_pool"][size].items():
        rays = json.loads(Path(paths[target]).read_text())["rays"]
        ranked = sorted(pool, key=lambda item: (item[2], item[0]))
        n_heavy = COHOM_HEAVY[size]
        rest = ranked[:len(ranked) - n_heavy]
        k = COHOM_PICKS[size] - n_heavy
        picks = [rng.choice(rest[i * len(rest) // k:(i + 1) * len(rest) // k])
                 for i in range(k)]
        heavy += [(target, tuple(c), h) for c, h, _ in ranked[len(rest):]]
        drawn += [(target, tuple(c), h) for c, h, _ in picks]
        fresh = heavy[-n_heavy:] + drawn[-k:]
        for q in rng.sample(fresh, -(-len(fresh) // REASK)):
            w = [rng.randint(-REASK_W, REASK_W) for _ in rays[0]]
            shifted = tuple(a + sum(x * y for x, y in zip(w, ray))
                            for a, ray in zip(q[1], rays))
            reasks.append((q, (target, shifted, q[2])))
    rng.shuffle(drawn)
    order = heavy + drawn
    for q, again in reasks:
        # after the query it repeats, so the class is in the cache
        first = next(i for i, o in enumerate(order) if o is q)
        order.insert(rng.randint(first + 1, len(order)), again)

    def begin():
        fans.clear()
        for target in golden["cohom_pool"][size]:
            fan = ft.load(paths[target]).fan
            if "validation" in vars(fan):
                raise RuntimeError("cohom-queries needs a fresh Fan per target and pass")
            fans[target] = fan

    def query(target, coeffs):
        fan = fans[target]
        return list(ft.cohomology(fan, ft.TorusDivisor(fan, coeffs)).dims)

    ops = [Op("op.cohomology", f"cohomology {t} {list(c)}",
              (lambda t=t, c=c: query(t, c)), h) for t, c, h in order]
    return Plan(rng, lambda r: ops, begin=begin)


def check(op: Op, result) -> bool:
    if op.kind == "op.cohomology":
        return result == op.expected
    code, text = result
    return (code, digest(text)) == tuple(op.expected)


def make_plan(ft, workload: str, size: str, seed: int, paths, golden, workdir: Path,
              jobs: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "orlov-products":
        return plan_orlov(ft, size, paths, golden, rng)
    if workload == "cohom-queries":
        return plan_cohom(ft, size, paths, golden, rng)
    if workload == "frob-sweep":
        return plan_frob(ft, size, paths, golden, rng)
    return plan_batch(ft, size, paths, golden, rng, workdir, jobs)
