#!/usr/bin/env python3
"""Self-test of the benchmark's checkers: each must accept a right result and
reject the same result perturbed.

    python3 bench/selftest.py

The right results are built from the references themselves, so this runs
without secstop.  Perturbations: a simulated p_hat moved by 5 sigma, a
cutoff moved by +-1, a Poisson value moved by 1e-10 relative, and a wrong
CLI exit code.  Exits 1 if any checker lets a perturbed result through or
rejects an unperturbed one.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

CASES: list[tuple[str, bool, list[str]]] = []


def expect(label: str, accepted: bool, problems: list[str]) -> None:
    CASES.append((label, accepted, problems))


def mc_cases() -> None:
    n = 1 << 17
    ref = float(checks.known_value("bw", 50, 25))
    sigma = math.sqrt(ref * (1 - ref) / n)
    cell = {"trials": n, "p_hat": round(ref * n) / n}
    expect("mc cell at its exact value", True, checks.check_mc_cell(cell, ref))
    for sign in (1, -1):
        moved = {**cell, "p_hat": cell["p_hat"] + sign * 5 * sigma}
        expect(f"mc cell moved by {sign * 5} sigma", False, checks.check_mc_cell(moved, ref))
    grid = [dict(cell) for _ in range(20)]
    grid[3]["p_hat"] += 5 * sigma
    expect("mc grid with one cell outside (allowed)", True, checks.check_mc_grid(grid, [ref] * 20))
    grid[7]["p_hat"] -= 5 * sigma
    expect("mc grid with two cells outside", False, checks.check_mc_grid(grid, [ref] * 20))


def cutoff_cases() -> None:
    n = 10**6
    est = checks.round_half_away(float(n * checks.theta()))
    vals = {r: checks.uniform_value("bw", n, r) for r in range(est - 3, est + 4)}
    m = max(vals, key=vals.__getitem__)
    out = {"kind": "best_cutoff", "variant": "bw", "model": ("uniform", n), "cutoff": m, "prob": float(vals[m])}
    expect("bw/Uniform(10^6) cutoff", True, checks.check_exact_op(out))
    for d in (-1, 1):
        moved = {**out, "cutoff": m + d, "prob": float(vals[m + d])}
        expect(f"bw/Uniform(10^6) cutoff moved by {d:+d}", False, checks.check_exact_op(moved))
    n = 10**6
    p = n / (2 * (n - 1))
    out = {"kind": "best_cutoff", "variant": "bw", "model": ("known", n), "cutoff": n // 2, "prob": p}
    expect("bw/Known(10^6) cutoff", True, checks.check_exact_op(out))
    for d in (-1, 1):
        expect(f"bw/Known(10^6) cutoff moved by {d:+d}", False,
               checks.check_exact_op({**out, "cutoff": n // 2 + d}))


def poisson_cases() -> None:
    ref = float(checks.poisson_step("bw", 100.0, 40, "reject"))
    out = {"kind": "step", "what": "reject", "variant": "bw", "model": ("poisson", 100.0), "r": 40, "prob": ref}
    expect("Poisson(100) P_R(40)", True, checks.check_exact_op(out))
    expect("Poisson(100) P_R(40) moved by 1e-10 relative", False,
           checks.check_exact_op({**out, "prob": ref * (1 + 1e-10)}))
    vals = checks.poisson_values("pd", 1000.0, [498, 499, 500])
    out = {"kind": "backward_induction", "variant": "pd", "model": ("poisson", 1000.0), "horizon": 1400,
           "value": float(vals[499]), "is_threshold": True, "threshold": 499, "witness": None}
    expect("pd/Poisson(1000) induction value", True, checks.check_exact_op(out))
    expect("pd/Poisson(1000) induction value moved by 1e-10 relative", False,
           checks.check_exact_op({**out, "value": float(vals[499]) * (1 + 1e-10)}))


# output of `secstop verify counterexample` and of `secstop dp --variant
# classic --model table:bench/data/twopoint.csv`, as the CLI prints them
CLI_OUTPUTS = (
    ({"check": "verify", "suite": "counterexample", "checks": 1, "exit": 0},
     "PASS two-point classic model is not a threshold problem: witness (100, 101): "
     "accept at 100, reject at 101\n1/1 checks passed\n"),
    ({"check": "two_point", "exit": 0},
     "command  variant  model                          horizon  value           is_threshold  threshold  witness \n"
     "dp       classic  table:bench/data/twopoint.csv  1000     0.369065717488  false                    100->101\n"),
)


def exit_code_cases() -> None:
    for spec, stdout in CLI_OUTPUTS:
        expect(f"cli {spec['check']} with exit {spec['exit']}", True, checks.check_cli(spec, spec["exit"], stdout))
        for wrong in (1, 2, 3):
            if wrong != spec["exit"]:
                expect(f"cli {spec['check']} with exit {wrong}", False, checks.check_cli(spec, wrong, stdout))


def main() -> int:
    mc_cases()
    cutoff_cases()
    poisson_cases()
    exit_code_cases()
    bad = 0
    for label, accepted, problems in CASES:
        ok = accepted == (not problems)
        bad += not ok
        verdict = "accepted" if not problems else "rejected"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}" + (f" ({problems[0][:90]})" if problems else ""))
    print(f"{len(CASES) - bad}/{len(CASES)} checker cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
