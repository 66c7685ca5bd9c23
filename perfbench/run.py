#!/usr/bin/env python3
"""frobtilt benchmark: one run of one workload.

    python3 perfbench/run.py --workload orlov-products --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
workloads and the reasons for them are described in perfbench/README.md.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (setup_s is the
median), then runs whole passes of the workload until ``--seconds`` have
passed, at least one.  It reports the end-to-end metrics: setup_s, wall_s
(median over passes of the pass's summed operation times), op_p50_ms and
op_p90_ms (over every operation of the run; see tail_quantile), and peak_rss_mb (the larger of
this process's peak resident set and that of its largest child, which for
batch-catalog is a pool worker).  Times are nominal seconds: each measured
time is scaled by the speed probe of speed.py, taken on the same CPUs just
before and after it.

With ``--trace 1`` it runs one untraced pass and one traced pass and reports
the per-layer metrics of the traced pass (see tracing.py; layer times are
scaled by the traced pass's nominal over raw time), the traced pass time and
the tracing overhead (traced minus untraced pass time).  The traced
pass of batch-catalog runs the manifest serially, because spans in forked
pool workers do not reach this process; for cli.batch_parallel_efficiency
the run also times untraced serial and pool passes, alternating, and the
overhead is taken against the last serial one.

Every operation's output is checked against golden.json.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Each run also appends a record, stamped with the git sha, Python version,
nproc, seed and --jobs value, to perfbench/out/records.jsonl; the traced run
writes its spans to perfbench/out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
MAX_JOBS = 2
UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
    **{name: unit for name, unit, _ in tracing.PER_LAYER},
}


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit code 2."""


def import_frobtilt():
    """A fresh import of frobtilt from src/, with no module state kept."""
    src = ROOT / "src"
    if not (src / "frobtilt" / "__init__.py").is_file():
        raise BenchError(f"no frobtilt package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "frobtilt" or n.startswith("frobtilt.")]:
        del sys.modules[name]
    ft = importlib.import_module("frobtilt")
    importlib.import_module("frobtilt.cli")
    if Path(ft.__file__).resolve().parent != (src / "frobtilt").resolve():
        raise BenchError(f"imported frobtilt from {ft.__file__}, not from {src}")
    return ft


def setup(args, golden, workdir: Path, jobs: int):
    ft = import_frobtilt()
    names = wl.fan_names(ft, args.workload, args.size)
    paths = wl.write_fans(ft, names, workdir)
    plan = wl.make_plan(ft, args.workload, args.size, args.seed, paths, golden, workdir, jobs)
    return ft, plan


def run_pass(ft, plan, tally, tracer=None) -> float:
    """One pass; adds to the tally and returns the pass's nominal seconds.

    Each operation runs on one CPU, alternating from operation to operation,
    or on every CPU when it runs a process pool, and its time is scaled to
    nominal seconds by the speed probes on those CPUs (speed.timed).
    """
    cpus = tally["cpus"]
    ops = plan.next_pass()
    plan.begin_pass()
    total = 0.0
    for op in ops:
        wl.check_cold(ft)
        pooled = plan.jobs > 1  # workers on every CPU
        op_cpus = cpus if pooled else [cpus[tally["attempted"] % len(cpus)]]
        if tracer is None:
            call = op.call
        else:
            tracer.op_id += 1
            call = functools.partial(tracer.span, op.kind, op.call)
        result, elapsed, nominal = speed.timed(call, op_cpus, not pooled)
        if isinstance(result, Exception):
            if not tally["errors"]:
                traceback.print_exception(result, file=sys.stderr)
            tally["errors"] += 1
            result = None
        tally["attempted"] += 1
        tally["op_s"].append(nominal)
        tally["raw_s"] += elapsed
        total += nominal
        if result is None or not wl.check(op, result):
            tally["failed"] += 1
            print(f"perfbench: FAILED {op.label}", file=sys.stderr)
    return total


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident set of this process and of its largest child, in MiB."""
    return tuple(resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def end_to_end(args, golden, workdir, jobs, tally) -> dict:
    cpus = tally["cpus"]
    setup_s = []
    for i in range(SETUP_REPEATS):
        outcome, _, nominal = speed.timed(
            lambda: setup(args, golden, workdir, jobs), [cpus[i % len(cpus)]], True)
        if isinstance(outcome, Exception):
            raise outcome
        ft, plan = outcome
        setup_s.append(nominal)
    passes = []
    t_start = perf_counter()
    while not passes or perf_counter() - t_start < args.seconds:
        passes.append(run_pass(ft, plan, tally))
    op_s = tally["op_s"]
    rss = peak_rss_mb()
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(passes),
        "op_p50_ms": statistics.median(op_s) * 1000,
        "op_p90_ms": tail_quantile(op_s) * 1000,
        "peak_rss_mb": max(rss),
    }, {"passes": len(passes), "pass_s": passes, "setup_runs_s": setup_s,
        "peak_rss_self_mb": rss[0], "peak_rss_children_mb": rss[1]}


def per_layer(args, golden, workdir, jobs, tally) -> dict:
    ft, plan = setup(args, golden, workdir, jobs)
    untraced = run_pass(ft, plan, tally)
    extra = {}
    efficiency = 0.0
    if args.workload == "batch-catalog":
        # Serial passes are probed throughout on one CPU, pool passes around
        # the pass on every CPU, so the efficiency compares raw times: the
        # medians of alternating passes.
        serial_raw, pool_raw = [], [tally["raw_s"]]  # the pass above ran the pool
        for n in (1, jobs, 1, jobs, 1):  # the traced pass that follows is serial
            plan.jobs = n
            before = tally["raw_s"]
            untraced = run_pass(ft, plan, tally)
            (serial_raw if n == 1 else pool_raw).append(tally["raw_s"] - before)
        efficiency = statistics.median(serial_raw) / (jobs * statistics.median(pool_raw))
        extra.update(raw_pool_pass_s=pool_raw, raw_serial_pass_s=serial_raw)
    tracer = tracing.Tracer()
    ops_before, raw_before = tally["attempted"], tally["raw_s"]
    with tracing.installed(tracer):
        traced = run_pass(ft, plan, tally, tracer)
    ops = tally["attempted"] - ops_before
    to_nominal = traced / (tally["raw_s"] - raw_before)
    want_loads = {"cohom-queries": len(golden["cohom_pool"][args.size]),
                  "batch-catalog": ops * len(wl.fan_names(ft, args.workload, args.size))}
    if tracer.calls["catalog.load"] != want_loads.get(args.workload, ops):
        raise BenchError("an operation did not read its fan from its fan file")
    metrics = {name: value * to_nominal if UNITS[name] == "s" else value
               for name, value in tracer.layer_metrics().items()}
    metrics["cli.batch_parallel_efficiency"] = efficiency
    extra["untraced_pass_s"] = untraced
    metrics["bench.traced_wall_s"] = traced
    metrics["bench.trace_overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    extra["spans"] = len(tracer.spans)
    extra["hook_errors"] = tracer.counts["hook_errors"]
    extra["self_share"] = {k: round(v, 4) for k, v in tracer.self_shares().items()}
    return metrics, extra


def tail_quantile(values: list[float]) -> float:
    """p90, or with fewer than 100 samples the highest percentile that has
    at least ten samples beyond it -- the median when none has."""
    q = max(50, min(90, 100 + (-1000 // len(values))))
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha():
    """The checked-out commit, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload on P1 and P2 (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = min(MAX_JOBS, len(os.sched_getaffinity(0)))
    cpus = sorted(os.sched_getaffinity(0))
    tally = {"attempted": 0, "failed": 0, "errors": 0, "op_s": [], "raw_s": 0.0, "cpus": cpus}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        golden = json.loads((HERE / "golden.json").read_text())
        workdir.mkdir()
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(args, golden, workdir, jobs, tally)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs if args.workload == "batch-catalog" else 1,
        "fail_frac": tally["failed"] / tally["attempted"], "raw_op_s": tally["raw_s"],
        **extra, "result": result,
    }
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_frac {record['fail_frac']:.6g} "
          f"({tally['failed']} of {tally['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
