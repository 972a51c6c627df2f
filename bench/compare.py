#!/usr/bin/env python3
"""Summarise one result set, or compare two, written by `bench/run.py --out`.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

Per workload and end-to-end metric: each side's median and quartiles, the
quartile spread as a share of the median, and with two sets the share of
pairs the change won (runs are paired in file order, so alternate the two
sides when collecting) and whether the change's median is worse than the
base's by more than the bound in BENCHMARK.json.  Also prints each set's
environment, its share of failed operations and the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(records: list[dict], workload: str, metric: str, trace: int = 0) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace and metric in r["result"]["metrics"]]


def describe_env(name: str, records: list[dict]) -> None:
    commits = sorted({r["env"].get("commit", "unknown") for r in records})
    env = records[0]["env"]
    print(f"{name}: {len(records)} runs, commit {', '.join(commits)}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}")
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        wrong = sum(not r["result"]["correct"] for r in runs)
        overhead = series(records, workload, "trace.overhead_pct", trace=1)
        tail = f", tracing overhead median {statistics.median(overhead):.1f} %" if overhead else ""
        print(f"  {workload}: failed {failed}/{attempted} operations, {wrong} runs not correct{tail}")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sides = [(path, load(path)) for path in argv[1:]]
    for path, records in sides:
        describe_env(path, records)
    base = sides[0][1]
    change = sides[1][1] if len(sides) == 2 else None
    worse_than_bound = False
    workloads = [w["name"] for w in spec["workloads"]]
    print()
    header = f"{'workload':15s} {'metric':12s} {'base q1/med/q3':>34s} {'spread':>7s}"
    if change is not None:
        header += f" {'change q1/med/q3':>34s} {'spread':>7s} {'won':>5s} {'verdict':>8s}"
    print(header)
    for workload in workloads:
        for m in spec["end_to_end"]:
            a = series(base, workload, m["name"])
            if not a:
                continue
            qa = quartiles(a)
            line = f"{workload:15s} {m['name']:12s} {_fmt(qa):>34s} {(qa[2] - qa[0]) / qa[1]:7.3f}"
            if change is not None:
                b = series(change, workload, m["name"])
                if not b:
                    print(line + "  (no runs in the change set)")
                    continue
                qb = quartiles(b)
                lower = m["better"] == "lower"
                pairs = list(zip(a, b))
                won = sum((y < x) if lower else (y > x) for x, y in pairs) / len(pairs)
                rel = (qb[1] - qa[1]) / qa[1]
                worse = rel > m["bound"] if lower else -rel > m["bound"]
                worse_than_bound |= worse
                line += (f" {_fmt(qb):>34s} {(qb[2] - qb[0]) / qb[1]:7.3f} {won:5.2f} "
                         f"{'WORSE' if worse else 'ok':>8s}")
            elif len(a) > 1 and (qa[2] - qa[0]) / qa[1] > m["bound"] and m["name"] != "setup_s":
                line += "  spread exceeds the bound"
            print(line)
    return 1 if worse_than_bound else 0


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.5g}" for v in q)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
