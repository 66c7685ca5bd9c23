#!/usr/bin/env python3
"""Run every workload once untraced and once traced; save a BENCH record.

    python3 perfbench/suite.py --label 0 --seed 1 --seconds 20

Run from the repository root.  Each run is a fresh ``run.py`` process.
Prints every end-to-end metric by name and unit for every workload, with
fail_frac (failed over attempted operations), and writes
perfbench/baseline/BENCH_<label>.json with the stamped record of each run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    records = HERE / "out" / "records.jsonl"
    before = records.read_text().count("\n") if records.exists() else 0
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = records.read_text().splitlines()
    if len(lines) != before + 1:
        raise SystemExit(f"{' '.join(cmd)} wrote no record")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)
    runs = []
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            rec = run_once(workload, args.seed, args.seconds, trace)
            runs.append(rec)
            if trace == 0:
                for name, m in rec["result"]["metrics"].items():
                    print(f"{workload:15} {name:12} {m['value']:12.6g} {m['unit']}")
                print(f"{workload:15} {'fail_frac':12} {rec['fail_frac']:12.6g} "
                      f"(of {rec['result']['attempted']} operations)", flush=True)
    out = HERE / "baseline" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"label": args.label, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
