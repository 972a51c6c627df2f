#!/usr/bin/env python3
"""secstop benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload mc-calibration --seed 1 --seconds 30 --trace 0

Run from the root of the repository.  Each repetition is a fresh interpreter
(bench/worker.py) that imports secstop from ./src, runs the workload's
operations once and reports its timings; repetitions follow one another
(one caller, closed loop) until the measuring time is used.  The first
repetition also checks every output against references computed apart from
secstop.  Timings are scaled to a reference host speed by a probe that each
repetition times (see at_reference_speed and worker.probe).  With --trace 0
the last line of stdout is a JSON object with the
end-to-end metrics, with --trace 1 the per-layer metrics from spans recorded
around the public functions of each module (traced and untraced repetitions
alternate, so the tracing overhead is measured in the same run).

Exit codes: 0 result printed; 1 a repetition crashed; 2 no secstop sources
under ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"  # names and units of the metrics
PROBE_REF_S = 0.030  # worker.probe() at the usual speed of the machine the bounds were set on
WORKLOADS = ("mc-calibration", "exact-large", "cli-session")
REP_TIMEOUT_S = 150


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(root: Path, env: dict, workload: str, seed: int, traced: bool, check: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced)), "--check", str(int(check))]
    t_spawn = time.perf_counter()
    # its own session, so a timeout also stops the CLI subprocesses it started
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    duration = time.perf_counter() - t_spawn
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
    rep = json.loads(stdout.splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the two processes agree
    rep["setup_s"] = rep["t_imported"] - t_spawn
    rep["duration_s"] = duration
    rep["traced"] = traced
    return rep


def failing_ops(rep: dict, check_problems: dict) -> dict:
    """name -> message for every operation of this repetition that failed."""
    out = {name: op["error"] for name, op in rep["ops"].items() if op["error"]}
    for name, problems in check_problems.items():
        out.setdefault(name, "; ".join(problems))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append the result, with run details, to this JSON-lines file")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "secstop" / "__init__.py").is_file():
        print(f"error: no secstop sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    # compile the package once so every timed repetition imports from bytecode
    subprocess.run([sys.executable, "-c", "import secstop.cli"], cwd=root, env=env, check=True,
                   timeout=REP_TIMEOUT_S)

    traced_run = bool(args.trace)
    reps: list[dict] = []
    measured = 0.0
    try:
        while True:
            traced = traced_run and len(reps) % 2 == 1
            rep = run_rep(root, env, args.workload, args.seed, traced, check=not reps)
            reps.append(rep)
            measured += rep["duration_s"] - rep["check_s"]
            typical = statistics.median(r["duration_s"] - r["check_s"] for r in reps)
            enough = len(reps) >= (3 if traced_run else 1)
            if enough and measured + typical > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload} repetition {len(reps)} failed: {exc}", file=sys.stderr)
        return 1

    first = reps[0]
    problems = first["problems"]
    failures = failing_ops(first, problems)
    known = first["known_faults"]
    correct = not first["global_problems"] and all(name in known for name in failures)
    digests = {name: op["digest"] for name, op in first["ops"].items()}
    for i, rep in enumerate(reps[1:], start=1):
        if {name: op["digest"] for name, op in rep["ops"].items()} != digests:
            correct = False
            print(f"repetition {i} produced different outputs from repetition 0")
    ops_per_rep = len(first["ops"])
    attempted = ops_per_rep * len(reps)
    failed = sum(len(failing_ops(rep, problems)) for rep in reps)

    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{ops_per_rep} operations each, {len(failures)} failing")
    for name, msg in sorted(failures.items()):
        tag = "known fault" if name in known else "UNEXPECTED"
        print(f"  FAILED [{tag}] {name}: {msg}")
    for msg in first["global_problems"]:
        print(f"  CHECK {msg}")

    spec = json.loads(SPEC.read_text())["per_layer" if traced_run else "end_to_end"]
    values = _layer_metrics(reps) if traced_run else _end_to_end(args.workload, reps, ops_per_rep - len(failures))
    if set(values) != {m["name"] for m in spec}:
        print(f"error: measured {sorted(values)} but {SPEC.name} lists {[m['name'] for m in spec]}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "repetitions": len(reps), "env": {**first["env"], "commit": _commit(root)},
                  "failures": failures, "result": result,
                  "per_repetition": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "probe_s", "rss_mb", "check_s")}
                                     for r in reps]}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    if traced_run:
        _write_spans(root, args.workload, args.seed, reps)
    print(json.dumps(result))
    return 0


def at_reference_speed(rep: dict, key: str) -> float:
    """A repetition's time scaled to the host's reference speed: the measured
    seconds times PROBE_REF_S over the probe time of the same repetition
    (see worker.probe)."""
    return rep[key] * PROBE_REF_S / rep["probe_s"]


def _end_to_end(workload: str, reps: list[dict], ok_ops: int) -> dict:
    """Medians over repetitions, at reference speed.  The unit of work: a
    trial (mc-calibration), a successful query (exact-large), a command
    (cli-session)."""
    wall = statistics.median(at_reference_speed(r, "wall_s") for r in reps)
    work = ok_ops if workload == "exact-large" else reps[0]["units"]
    return {
        "setup_s": statistics.median(at_reference_speed(r, "setup_s") for r in reps),
        "wall_s": wall,
        "ops_per_s": work / wall,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def _layer_metrics(reps: list[dict]) -> dict:
    """Medians over the traced repetitions; the overhead compares their
    wall_s with the untraced repetitions' of the same run, as end to end."""
    med = statistics.median
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {
        "import.numpy_s": med(r["import_numpy_s"] for r in traced),
        "import.secstop_s": med(r["import_secstop_s"] for r in traced),
    }
    for name in traced[0]["layers"]:
        out[name] = med(r["layers"][name] for r in traced)
    wall_traced = med(at_reference_speed(r, "wall_s") for r in traced)
    wall_plain = med(at_reference_speed(r, "wall_s") for r in plain)
    out["trace.overhead_pct"] = 100.0 * (wall_traced / wall_plain - 1.0)
    return out


def _write_spans(root: Path, workload: str, seed: int, reps: list[dict]) -> None:
    out_dir = root / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans = [{"repetition": i, "spans": r["spans"]} for i, r in enumerate(reps) if r["traced"]]
    (out_dir / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans))


def _commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
