"""Spans and per-layer counters for the benchmark's traced run.

The program is traced from outside: each traced function is replaced, in
every ``frobtilt`` module that holds a reference to it (the lookup sites of
``from ... import`` names included), by a wrapper that records a span.  The
originals are put back when the traced pass ends, so nothing under ``src/``
changes and the untraced passes run the program as shipped.

A span is (op id, span id, parent span id, name, start, end).  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time covered by its child spans; children of one span
never overlap, because the traced pass runs in one thread of one process.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function); the span name is "<module>.<function>" without the
# package prefix.
TRACED = (
    ("frobtilt.lattice", "lp_maximize"),
    ("frobtilt.lattice", "feasible"),
    ("frobtilt.lattice", "lattice_points"),
    ("frobtilt.cohomology", "cohomology"),
    ("frobtilt.cohomology", "weight_patterns"),
    ("frobtilt.cohomology", "_active_patterns"),
    ("frobtilt.frobenius", "frob_set"),
    ("frobtilt.frobenius", "pushforward_summands"),
    ("frobtilt.frobenius", "minimal_stabilizing_ell"),
    ("frobtilt.fan", "validate"),
    ("frobtilt.fan", "divisor_class"),
    ("frobtilt.cones", "bu_set"),
    ("frobtilt.cones", "is_nef"),
    ("frobtilt.tilting", "build_candidate"),
    ("frobtilt.tilting", "m0"),
    ("frobtilt.tilting", "orlov_check"),
    ("frobtilt.catalog", "load"),
    ("frobtilt.cli", "_render"),
    ("frobtilt.cli", "_batch_worker"),
)

# divisor_class runs once per pushforward residue (about 5 us a call), so
# its calls are timed and counted but not kept as span records; the self
# time of its callers still excludes it.
UNRECORDED = frozenset({"fan.divisor_class"})

# name, unit, better -- the per_layer list of BENCHMARK.json, in order.
PER_LAYER = (
    ("lattice.lp_calls", "count", "lower"),
    ("lattice.lp_infeasible_calls", "count", "lower"),
    ("lattice.lp_self_s", "s", "lower"),
    ("lattice.feasible_calls", "count", "lower"),
    ("lattice.feasible_yield", "ratio", "higher"),
    ("lattice.feasible_s", "s", "lower"),
    ("lattice.feasible_self_s", "s", "lower"),
    ("lattice.lattice_points_calls", "count", "lower"),
    ("lattice.points_enumerated", "count", "lower"),
    ("lattice.lattice_points_self_s", "s", "lower"),
    ("cohomology.calls", "count", "lower"),
    ("cohomology.class_cache_hits", "count", "higher"),
    ("cohomology.hit_ratio", "ratio", "higher"),
    ("cohomology.patterns_scanned", "count", "lower"),
    ("cohomology.patterns_nonempty", "count", "lower"),
    ("cohomology.weight_patterns_self_s", "s", "lower"),
    ("cohomology.active_patterns_s", "s", "lower"),
    ("frobenius.frob_set_calls", "count", "lower"),
    ("frobenius.frob_set_self_s", "s", "lower"),
    ("frobenius.pushforward_calls", "count", "lower"),
    ("frobenius.residues", "count", "lower"),
    ("frobenius.pushforward_self_s", "s", "lower"),
    ("frobenius.stabilize_s", "s", "lower"),
    ("fan.validate_s", "s", "lower"),
    ("fan.divisor_class_calls", "count", "lower"),
    ("fan.divisor_class_s", "s", "lower"),
    ("cones.bu_set_s", "s", "lower"),
    ("cones.is_nef_calls", "count", "lower"),
    ("tilting.ext_table_s", "s", "lower"),
    ("tilting.m0_s", "s", "lower"),
    ("catalog.load_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.batch_parallel_efficiency", "ratio", "higher"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)


def span_name(module: str, function: str) -> str:
    return module.removeprefix("frobtilt.") + "." + function


class Tracer:
    """Collects spans, per-name times and the layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 1
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # inclusive seconds
        self.self_time: defaultdict = defaultdict(float)
        self.pair_calls: Counter = Counter()  # (parent name, name)
        self.pair_total: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the span is closed even when fn raises."""
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            parent = self._stack[-1] if self._stack else None
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[3]
            if parent is not None:
                parent[3] += dur
                self.pair_calls[parent[1], name] += 1
                self.pair_total[parent[1], name] += dur
            if name not in UNRECORDED:
                self.spans.append(
                    (self.op_id, span_id, parent[0] if parent else 0, name, frame[2], end)
                )

    def _hook(self, hook, *args):
        # A counter hook that no longer fits a changed function must not
        # fail the operation it observes; its counter then reads low.
        if hook is None:
            return None
        try:
            return hook(self, *args)
        except Exception:
            self.counts["hook_errors"] += 1
            return None

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._hook(before, args, kwargs)
            result = self.span(name, fn, *args, **kwargs)
            self._hook(after, args, kwargs, result, token)
            return result

        return traced

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([op_id, span_id, parent, name, start, end]) + "\n")

    def self_shares(self) -> dict[str, float]:
        """Each span name's self time over the summed self time of all spans."""
        whole = sum(self.self_time.values())
        return {
            name: t / whole
            for name, t in sorted(self.self_time.items(), key=lambda kv: -kv[1])
        } if whole else {}

    def layer_metrics(self) -> dict[str, float]:
        c, t, s, n = self.calls, self.total, self.self_time, self.counts
        feasible_calls = c["lattice.feasible"]
        outer = n["cohomology.outer_calls"]
        return {
            "lattice.lp_calls": c["lattice.lp_maximize"],
            "lattice.lp_infeasible_calls": n["lattice.lp_infeasible"],
            "lattice.lp_self_s": s["lattice.lp_maximize"],
            "lattice.feasible_calls": feasible_calls,
            "lattice.feasible_yield": (
                n["lattice.feasible_true"] / feasible_calls if feasible_calls else 0.0
            ),
            "lattice.feasible_s": t["lattice.feasible"],
            "lattice.feasible_self_s": s["lattice.feasible"],
            "lattice.lattice_points_calls": c["lattice.lattice_points"],
            "lattice.points_enumerated": n["lattice.points"],
            "lattice.lattice_points_self_s": s["lattice.lattice_points"],
            "cohomology.calls": outer,
            "cohomology.class_cache_hits": n["cohomology.hits"],
            "cohomology.hit_ratio": n["cohomology.hits"] / outer if outer else 0.0,
            "cohomology.patterns_scanned": self.pair_calls[
                "cohomology.weight_patterns", "lattice.feasible"
            ],
            "cohomology.patterns_nonempty": n["cohomology.nonempty"],
            "cohomology.weight_patterns_self_s": s["cohomology.weight_patterns"],
            "cohomology.active_patterns_s": t["cohomology._active_patterns"],
            "frobenius.frob_set_calls": c["frobenius.frob_set"],
            "frobenius.frob_set_self_s": s["frobenius.frob_set"],
            "frobenius.pushforward_calls": c["frobenius.pushforward_summands"],
            "frobenius.residues": n["frobenius.residues"],
            "frobenius.pushforward_self_s": s["frobenius.pushforward_summands"],
            "frobenius.stabilize_s": t["frobenius.minimal_stabilizing_ell"],
            "fan.validate_s": t["fan.validate"],
            "fan.divisor_class_calls": c["fan.divisor_class"],
            "fan.divisor_class_s": t["fan.divisor_class"],
            "cones.bu_set_s": t["cones.bu_set"],
            "cones.is_nef_calls": c["cones.is_nef"],
            "tilting.ext_table_s": (
                t["tilting.build_candidate"]
                - self.pair_total["tilting.build_candidate", "cones.bu_set"]
            ),
            "tilting.m0_s": t["tilting.m0"],
            "catalog.load_s": t["catalog.load"],
            "cli.render_s": t["cli._render"],
        }


# -- counters taken from arguments and results --------------------------------


def _lp_after(tr, args, kwargs, result, token):
    if result[0] == "infeasible":
        tr.counts["lattice.lp_infeasible"] += 1


def _feasible_after(tr, args, kwargs, result, token):
    if result:
        tr.counts["lattice.feasible_true"] += 1


def _points_after(tr, args, kwargs, result, token):
    tr.counts["lattice.points"] += len(result)


def _cohomology_before(tr, args, kwargs):
    # The outer call is the one a caller makes; cohomology() calls itself
    # once with with_patterns=True to fill its per-class cache.
    if tr.parent_name() == "cohomology.cohomology":
        return None
    return tr.calls["cohomology.weight_patterns"]


def _cohomology_after(tr, args, kwargs, result, token):
    if token is None:
        return
    tr.counts["cohomology.outer_calls"] += 1
    if tr.calls["cohomology.weight_patterns"] == token:
        tr.counts["cohomology.hits"] += 1


def _patterns_after(tr, args, kwargs, result, token):
    tr.counts["cohomology.nonempty"] += len(result)


def _pushforward_after(tr, args, kwargs, result, token):
    fan = args[0]
    ell = args[2] if len(args) > 2 else kwargs["ell"]
    tr.counts["frobenius.residues"] += ell ** fan.dim


_BEFORE = {"cohomology.cohomology": _cohomology_before}
_AFTER = {
    "lattice.lp_maximize": _lp_after,
    "lattice.feasible": _feasible_after,
    "lattice.lattice_points": _points_after,
    "cohomology.cohomology": _cohomology_after,
    "cohomology.weight_patterns": _patterns_after,
    "frobenius.pushforward_summands": _pushforward_after,
}


class installed:
    """Context manager: the TRACED functions replaced at every lookup site."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []

    def __enter__(self) -> Tracer:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "frobtilt" or n.startswith("frobtilt.")
        ]
        try:
            for module, function in TRACED:
                # a function a later change removed is skipped; its metrics read 0
                original = getattr(sys.modules.get(module), function, None)
                if original is None:
                    continue
                wrapper = self.tracer.wrap(span_name(module, function), original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            m, attr, original = self._undo.pop()
            setattr(m, attr, original)
