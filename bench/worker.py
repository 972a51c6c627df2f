"""One repetition of a workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --check 0|1

Times `import numpy` and `import secstop` first, runs the workload's
operations once (the timed region), then, outside it, the checks (with
--check 1) and, with --trace 1, the per-layer metrics from the spans.  Prints
one JSON object on stdout.  `--cli-one KIND ARG...` runs one CLI command
in-process under the tracer; the traced cli-session starts one per command.
Run from the root of the repository with PYTHONPATH=src.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

T0 = time.perf_counter()
import numpy  # noqa: E402

T1 = time.perf_counter()
import secstop  # noqa: E402,F401

T2 = time.perf_counter()

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# self time of these is measured in the timed region; the oracle's in the checks
LAYER_STEMS = [s for s in dict.fromkeys(name for _, _, name in tr.TRACED) if s != "dp.exhaustive_oracle"]


def probe() -> float:
    """Time a fixed mix of interpreter and numpy work that secstop never runs.

    The host runs at its usual speed with intermittent phases about 1.45x
    faster; this time moves with them, so it measures the host's speed at the
    moment a repetition runs."""
    t = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += (i * i) % 7
    a = numpy.arange(1 << 14, dtype=numpy.uint64)
    for _ in range(300):
        a = (a * numpy.uint64(0x9E3779B1)) ^ (a >> numpy.uint64(7))
    return time.perf_counter() - t


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _run_ops(ops):
    outputs, errors = {}, {}
    for name, fn in ops:
        try:
            outputs[name] = fn()
        except Exception as exc:  # an operation that fails is counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
    return outputs, errors


def _cli_argv(spec, traced: bool):
    if traced:
        return [sys.executable, os.path.join("bench", "worker.py"), "--cli-one", spec["kind"], *spec["argv"]]
    return [sys.executable, "-m", "secstop.cli", *spec["argv"]]


def _run_cli(specs, traced: bool):
    outputs, errors, children = {}, {}, []
    for spec in specs:
        name = spec["name"]
        proc = subprocess.run(_cli_argv(spec, traced), capture_output=True, text=True, timeout=120)
        if traced:
            child = json.loads(proc.stdout.splitlines()[-1])
            children.append(child)
            code, stdout = child["exit"], child["stdout"]
        else:
            code, stdout = proc.returncode, proc.stdout
        outputs[name] = {"exit": code, "stdout": stdout}
        if code != spec["exit"]:
            errors[name] = f"exit code {code}, expected {spec['exit']}: {proc.stderr.strip()[-300:]}"
    return outputs, errors, children


def cli_one(kind: str, argv: list[str]) -> int:
    from secstop import cli

    tracer = tr.Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), tracer.span(f"cli.{kind}"):
        code = cli.main(argv)
    print(json.dumps({"exit": code, "stdout": buf.getvalue(), "spans": tracer.spans,
                      "counts": tracer.counts}))
    return 0


def layer_metrics(workload: str, spans, counts) -> dict:
    self_t = tr.self_times(spans)
    out = {f"{stem}_s": self_t.get((stem, "run"), 0.0) for stem in LAYER_STEMS}
    out["dp.exhaustive_oracle_s"] = sum(self_t.get(("dp.exhaustive_oracle", p), 0.0) for p in ("run", "check"))
    out["exact.truncation_terms"] = float(counts.get("exact.truncation_terms", 0))
    bi = tr.total_times(spans, "dp.backward_induction")
    out["dp.backward_induction.steps_per_s"] = counts.get("dp.horizon_steps", 0) / bi if bi else 0.0
    sim = tr.total_times(spans, "mc.simulate")
    out["mc.trial_steps_per_s"] = wl.mc_trial_steps() / sim if sim and workload == "mc-calibration" else 0.0
    for kind in tr.CLI_KINDS:
        out[f"cli.{kind}_s"] = self_t.get((f"cli.{kind}", "run"), 0.0)
    return out


def run_workload(workload: str, seed: int, traced: bool, check: bool) -> dict:
    tracer = tr.Tracer()
    reports = None
    probe()  # the first pass warms the probe itself
    before = probe()
    if workload == "cli-session":
        specs = wl.cli_session_specs(seed)
        ta = time.perf_counter()
        outputs, errors, children = _run_cli(specs, traced)
        wall = time.perf_counter() - ta
        units = len(specs)
    else:
        if workload == "mc-calibration":
            ops, reports = wl.mc_calibration_ops(seed)
            units = wl.mc_units()
        else:
            ops = wl.exact_large_ops(seed)
            units = None
        if traced:
            tracer.install(extra_modules=[wl])
        ta = time.perf_counter()
        outputs, errors = _run_ops(ops)
        wall = time.perf_counter() - ta
    rss = _peak_rss_mb()
    after = probe()

    result = {
        "t_imported": T2,
        "import_numpy_s": T1 - T0,
        "import_secstop_s": T2 - T1,
        "wall_s": wall,
        "rss_mb": rss,
        "probe_s": (before + after) / 2.0,
        "units": units,
        "ops": {name: {"error": errors.get(name), "digest": _digest(outputs.get(name))}
                for name in sorted({*outputs, *errors})},
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__, "nproc": os.cpu_count()},
        "known_faults": wl.EXACT_KNOWN_FAULTS if workload == "exact-large" else {},
    }

    tc = time.perf_counter()
    refs = None
    if workload == "mc-calibration" and (check or traced):
        tracer.phase = "check"
        refs = wl.mc_secstop_refs(seed, outputs, reports)
    if check:
        result["problems"], result["global_problems"] = _check(workload, seed, outputs, refs)
    result["check_s"] = time.perf_counter() - tc

    if traced:
        spans, counts = tracer.spans, tracer.counts
        if workload == "cli-session":
            spans, counts = _merge_children(children)
        result["layers"] = layer_metrics(workload, spans, counts)
        result["spans"] = spans
    return result


def _merge_children(children):
    spans, counts = [], {}
    for child in children:
        offset = len(spans)
        for name, start, end, parent, phase in child["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, phase])
        for key, value in child["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return spans, counts


def _check(workload, seed, outputs, refs):
    """Per-operation problems and run-wide problems; neither is timed."""
    import checks

    per_op, run_wide = {}, []
    if workload == "exact-large":
        for name, out in outputs.items():
            per_op[name] = checks.check_exact_op(out)
    elif workload == "cli-session":
        for spec in wl.cli_session_specs(seed):
            out = outputs[spec["name"]]
            per_op[spec["name"]] = checks.check_cli(spec, out["exit"], out["stdout"])
    else:
        cells = [outputs[f"cell{i:02d}"] for i in range(len(wl.MC_GRID))]
        cells = json.loads(json.dumps(cells))  # the checkers see plain data
        ref_values = []
        for i, cell in enumerate(cells):
            ref_values.append(checks.mc_cell_reference(cell["variant"], cell["model"], cell["cutoff"],
                                                       refs["oracle"].get(i)))
            problems = checks.check_mc_bookkeeping(cell)
            if cell["searched"]:
                problems += checks.check_mc_cutoff(cell)
            per_op[f"cell{i:02d}"] = problems
        run_wide += checks.check_mc_grid(cells, ref_values)
        run_wide += refs["problems"]
    return {k: v for k, v in per_op.items() if v}, run_wide


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--cli-one":
        return cli_one(sys.argv[2], sys.argv[3:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["mc-calibration", "exact-large", "cli-session"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    result = run_workload(args.workload, args.seed, bool(args.trace), bool(args.check))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
