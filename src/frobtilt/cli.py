"""Command-line surface.

Every pipeline stage is exposed as a subcommand with deterministic output
in json (default), md, or csv.  Exit codes: 0 success / verified, 1 a
verification failed (e.g. orlov status is not VERIFIED_MODULO_FULLNESS),
2 invalid input (unknown target, malformed file or divisor, invalid fan,
a fan whose cohomology turns out infinite, i.e. one that is not complete,
or work beyond a supported bound: the residues of frob --ell, or the ray
count) or output that cannot be written (stdout closed or full, an answer
integer past the interpreter's digit limit).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .catalog import FanFileError, read_json, resolve
from .cohomology import InfiniteCohomologyError, cohomology, weight_patterns
from .cones import bu_set, is_nef, nef_fano_status
from .fan import InvalidFanError, TorusDivisor, canonical_divisor
from .frobenius import frob_set, minimal_stabilizing_ell, pushforward_summands
from .tilting import NOT_APPLICABLE, VERIFIED, build_candidate, ext_vanishing, orlov_check


@functools.cache  # parse_args leaves the parser as it was; building it costs 30x a parse
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="frobtilt",
        description="Exact Frobenius splitting and tilting-candidate checks on toric fans",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, target=True):
        if target:
            sp.add_argument("target", help="builtin name or fan file path")
            sp.add_argument("-v", "--verbose", action="store_true",
                            help="name the resolved target on stderr")
        sp.add_argument("--format", dest="fmt", choices=("json", "md", "csv"),
                        default="json")

    common(sub.add_parser("describe", help="fan data, ray order, validation"))
    sp = sub.add_parser("frob", help="summands of one pushforward")
    common(sp)
    sp.add_argument("--ell", type=int, default=2)
    sp.add_argument("--divisor", help="comma-separated ray coefficients (default 0)")
    common(sub.add_parser("frob-set", help="all summand classes with witnesses"))
    common(sub.add_parser("stabilize", help="least ell realizing every class at once"))
    sp = sub.add_parser("nef", help="nef/ample verdict for a divisor")
    common(sp)
    sp.add_argument("--divisor", required=True)
    sp = sub.add_parser("cohom", help="cohomology of a divisor")
    common(sp)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--patterns", action="store_true",
                    help="include the per-weight sign-pattern breakdown")
    common(sub.add_parser("bu", help="anti-nef frob classes"))
    common(sub.add_parser("tilting", help="candidate bundle, Ext table, Gram"))
    common(sub.add_parser("orlov", help="full hypothesis report"))
    sp = sub.add_parser("batch", help="orlov reports for a manifest of targets")
    common(sp, target=False)
    sp.add_argument("--manifest", required=True,
                    help="JSON array of builtin names / fan file paths")
    sp.add_argument("--jobs", type=int, default=1)
    return p


def _parse_divisor(text: Optional[str], fan) -> TorusDivisor:
    if text is None:
        return TorusDivisor(fan, (0,) * fan.n_rays)
    parts = text.split(",")
    try:
        coeffs = tuple(map(int, parts))
    except ValueError:
        # the interpreter refuses a run of more digits than its limit (0 is none)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and any(sum(c.isdigit() for c in x) > limit for x in parts):
            raise ValueError(f"a divisor coefficient has more than {limit} digits") from None
        # a long value is cut short: ascii() spends at most 10 bytes on a character
        shown = repr(text) if len(text) <= 80 else ascii(text[:12]) + "..."
        raise ValueError(f"divisor {shown} is not a comma-separated integer list") from None
    if len(coeffs) != fan.n_rays:
        raise ValueError(
            f"divisor needs {fan.n_rays} coefficients (one per ray), got {len(coeffs)}"
        )
    return TorusDivisor(fan, coeffs)


# --- command handlers; each returns (payload, headers, rows, exit_code) ----
# rows is a generator: only md and csv output iterate it, json never builds it.


def _cmd_describe(entry, args):
    fan = entry.fan
    rep = fan.validation
    payload = {
        "name": entry.name,
        "dim": fan.dim,
        "n_rays": fan.n_rays,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
        "picard_rank": fan.picard_rank if rep.ok else None,
        "valid": rep.ok,
        "smooth": rep.smooth,
        "complete": rep.complete,
        "failures": list(rep.failures),
        "canonical_divisor": list(canonical_divisor(fan).coeffs) if rep.ok else None,
        "nef_fano_status": nef_fano_status(fan) if rep.ok else None,
        "provenance": entry.provenance,
    }
    rows = ([i, json.dumps(list(r))] for i, r in enumerate(fan.rays))
    return payload, ["ray", "coords"], rows, 0


def _cmd_frob(entry, args):
    fan = entry.fan
    D = _parse_divisor(args.divisor, fan)
    counts = pushforward_summands(fan, D, args.ell)
    summands = [{"coords": list(cls.coords), "multiplicity": m} for cls, m in counts.items()]
    payload = {
        "name": entry.name,
        "ell": args.ell,
        "divisor": list(D.coeffs),
        "count": sum(counts.values()),
        "summands": summands,
    }
    rows = ([json.dumps(s["coords"]), s["multiplicity"]] for s in summands)
    return payload, ["class", "multiplicity"], rows, 0


def _cmd_frob_set(entry, args):
    fs = frob_set(entry.fan)
    classes = [
        {"coords": list(w.cls.coords), "min_witness_ell": w.min_ell}
        for w in fs.witnesses
    ]
    payload = {"name": entry.name, "size": len(fs), "classes": classes}
    rows = ([json.dumps(c["coords"]), c["min_witness_ell"]] for c in classes)
    return payload, ["class", "min_witness_ell"], rows, 0


def _cmd_stabilize(entry, args):
    payload = {"name": entry.name, "minimal_stabilizing_ell": minimal_stabilizing_ell(entry.fan)}
    return payload, None, None, 0


def _cmd_nef(entry, args):
    fan = entry.fan
    D = _parse_divisor(args.divisor, fan)
    v = is_nef(D)
    failing = None
    if v.failing is not None:
        ci, ri = v.failing
        failing = {"max_cone": list(fan.max_cones[ci]), "ray": ri}
    payload = {
        "name": entry.name,
        "divisor": list(D.coeffs),
        "class": list(v.cls.coords),
        "is_nef": v.is_nef,
        "is_ample": v.is_ample,
        "failing_pair": failing,
    }
    return payload, None, None, 0


def _cmd_cohom(entry, args):
    fan = entry.fan
    D = _parse_divisor(args.divisor, fan)
    vec = cohomology(fan, D)
    payload = {
        "name": entry.name,
        "divisor": list(D.coeffs),
        "h": list(vec.dims),
        "euler": vec.euler(),
    }
    if args.patterns:
        payload["patterns"] = [
            {
                "neg_rays": list(p.neg_rays),
                "point_count": p.point_count,
                "reduced_ranks": list(p.reduced_ranks),
            }
            for p in weight_patterns(fan, D)
        ]
    rows = ([q, h] for q, h in enumerate(vec.dims))
    return payload, ["degree", "dim"], rows, 0


def _cmd_bu(entry, args):
    classes = bu_set(entry.fan)
    payload = {
        "name": entry.name,
        "size": len(classes),
        "classes": [list(c.coords) for c in classes],
    }
    rows = ([json.dumps(list(c.coords))] for c in classes)
    return payload, ["class"], rows, 0


def _cmd_tilting(entry, args):
    cand = build_candidate(entry.fan)
    ev = ext_vanishing(cand)
    order = cand.triangular_order()
    payload = {
        "name": entry.name,
        "summands": [list(c.coords) for c in cand.summands],
        "ext_vanishing": ev.ok,
        "ext_violations": [list(v) for v in ev.violations],
        "gram": [list(row) for row in cand.gram],
        "gram_det": cand.gram_det,
        "gram_unimodular": abs(cand.gram_det) == 1,
        "triangular_order": list(order) if order is not None else None,
    }
    rows = (
        [json.dumps(list(c.coords))] + [cand.gram[a][b] for b in range(len(cand.summands))]
        for a, c in enumerate(cand.summands)
    )
    headers = ["summand"] + [f"chi->{b}" for b in range(len(cand.summands))]
    return payload, headers, rows, 0 if ev.ok else 1


def _cmd_orlov(entry, args):
    report = orlov_check(entry.fan, entry.name)
    return report.to_dict(), None, None, 0 if report.status == VERIFIED else 1


def _batch_worker(target: str) -> dict:
    entry = resolve(target)
    return orlov_check(entry.fan, entry.name).to_dict()


def _worker_count(jobs: int, n_targets: int) -> int:
    """Processes to run batch entries in, the parent included: --jobs, but
    no more than the entries or the CPUs this process may run on; 1 where
    os.fork is missing.

    Every process but the parent is forked before any entry is run, so an
    oversized --jobs would fork that many processes for nothing.
    """
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, n_targets, cpus)


def _claim_and_run(targets: list[str], token_r: int, token_w: int) -> dict:
    """index -> report, or the exception it raised, for each index claimed.

    The next unclaimed index circulates through a pipe as the only token:
    reading it claims the index and locks out every other process until
    index + 1 is written back.  A process killed between that read and
    write would leave the others waiting; nothing in this program exits
    there.
    """
    outcomes = {}
    while True:
        i = int.from_bytes(os.read(token_r, 8), "little")
        os.write(token_w, (i + 1).to_bytes(8, "little"))
        if i >= len(targets):
            return outcomes
        try:
            outcomes[i] = _batch_worker(targets[i])
        except Exception as exc:  # raised by the parent in manifest order
            outcomes[i] = exc


def _batch_parallel(targets: list[str], workers: int) -> list[dict]:
    """The reports of _batch_worker over targets, from the parent and
    workers - 1 forked children that claim entries from one counter.

    Each child pickles its outcomes into a pipe of its own once the
    entries run out, and leaves only through os._exit, never returning into
    the caller.  An entry that a child claimed but never reported (the
    child died) is run by the parent.  The first exception in manifest
    order is raised, as a serial run raises it.
    """
    import pickle
    import signal

    token_r, token_w = os.pipe()
    os.write(token_w, (0).to_bytes(8, "little"))
    children = []  # (pid, read end of its report pipe)
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # run on the processes there are
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    report = pickle.dumps(_claim_and_run(targets, token_r, token_w))
                    with open(w, "wb") as fh:
                        fh.write(report)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        outcomes = _claim_and_run(targets, token_r, token_w)
        for _, r in children:
            with open(r, "rb", closefd=False) as fh:
                report = fh.read()
            try:
                outcomes.update(pickle.loads(report))
            except (EOFError, pickle.UnpicklingError):  # died before or while reporting
                pass
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
        os.close(token_r)
        os.close(token_w)
    reports = []
    for i, target in enumerate(targets):
        outcome = outcomes[i] if i in outcomes else _batch_worker(target)
        if isinstance(outcome, Exception):
            raise outcome
        reports.append(outcome)
    return reports


def _cmd_batch(args):
    targets = read_json(args.manifest)
    if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
        raise FanFileError(f"{args.manifest}: manifest must be a JSON array of strings")
    workers = _worker_count(args.jobs, len(targets))
    if workers > 1:
        reports = _batch_parallel(targets, workers)
    else:
        reports = [_batch_worker(t) for t in targets]
    statuses = [r["status"] for r in reports]
    verified, not_applicable = statuses.count(VERIFIED), statuses.count(NOT_APPLICABLE)
    summary = {
        "verified": verified,
        "hypothesis_failed": len(reports) - verified - not_applicable,
        "not_applicable": not_applicable,
        "total": len(reports),
    }
    payload = {"entries": reports, "summary": summary}
    headers = ["name", "dim", "n_bu", "m0", "status"]
    rows = ([r["name"], r["dim"], r["n_bu"], r["m0"], r["status"]] for r in reports)
    code = 0 if summary["verified"] == summary["total"] else 1
    return payload, headers, rows, code


_HANDLERS = {
    "describe": _cmd_describe,
    "frob": _cmd_frob,
    "frob-set": _cmd_frob_set,
    "stabilize": _cmd_stabilize,
    "nef": _cmd_nef,
    "cohom": _cmd_cohom,
    "bu": _cmd_bu,
    "tilting": _cmd_tilting,
    "orlov": _cmd_orlov,
}


# --- rendering ---------------------------------------------------------------


def _render(payload, headers, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if headers is None:
        headers = ["field", "value"]
        rows = [[k, json.dumps(v)] for k, v in payload.items()]
    if fmt == "md":
        out = ["| " + " | ".join(str(h) for h in headers) + " |"]
        out.append("| " + " | ".join("---" for _ in headers) + " |")
        for row in rows:
            out.append("| " + " | ".join(str(x) for x in row) + " |")
        return "\n".join(out) + "\n"
    if fmt == "csv":
        import csv as _csv
        import io

        buf = io.StringIO()
        w = _csv.writer(buf, lineterminator="\n")
        w.writerow(headers)
        w.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # keep "--divisor -3,0,0" working: glue the value on so argparse does
    # not mistake a leading minus for an option
    for i, a in enumerate(argv[:-1]):
        if a == "--divisor":
            argv[i : i + 2] = [f"--divisor={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    if args.command == "frob" and args.ell < 1:
        print("error: --ell must be >= 1", file=sys.stderr)
        return 2
    if args.command == "batch" and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.command == "batch":
            payload, headers, rows, code = _cmd_batch(args)
        else:
            entry = resolve(args.target)
            if args.verbose:
                print(f"resolved {args.target} ({entry.provenance})", file=sys.stderr)
            payload, headers, rows, code = _HANDLERS[args.command](entry, args)
        text = _render(payload, headers, rows, args.fmt)  # an int past the digit limit: ValueError
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # the reader has gone (broken pipe) or the disk is full
            # the flush at exit would fail again: point fd 1 at devnull (the SIGPIPE
            # note of the signal module's docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OSError(f"output not written: {exc.strerror}") from None
    except (KeyError, FanFileError, InvalidFanError, InfiniteCohomologyError,
            ValueError, OSError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
