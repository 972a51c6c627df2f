"""The three workloads: their inputs (from the seed), their operations, and
the secstop-side references some checks need.

An operation is a (name, thunk) pair; the thunk calls secstop and returns a
JSON-able summary of what it computed, which is all the checkers see.  Only
the seed decides the inputs; what it picks (random streams, cutoffs, sample
points, small model sizes) barely changes the work a repetition does.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np
from secstop import (
    Explicit,
    Known,
    Poisson,
    ThresholdPolicy,
    Uniform,
    Variant,
    asymptote_probe,
    backward_induction,
    best_cutoff,
    exhaustive_oracle,
    merge,
    simulate,
    step_accept_prob,
    step_reject_prob,
    success_curve,
    support,
    truncate_to_explicit,
)
from secstop.mc import SimConfig, draw_uniform, run_episode, trial_base

CL, BW, PD = Variant.CLASSIC, Variant.BEST_OR_WORST, Variant.POSTDOC

# ------------------------------------------------------------ model tuples


def model_tuple(model) -> tuple:
    if isinstance(model, Known):
        return ("known", model.n)
    if isinstance(model, Uniform):
        return ("uniform", model.n)
    if isinstance(model, Poisson):
        return ("poisson", model.lam)
    return ("explicit", tuple(model.items))


def mean_count(model) -> float:
    """E[X] from the model's definition."""
    kind, param = model_tuple(model)
    if kind == "known":
        return float(param)
    if kind == "uniform":
        return (param + 1) / 2.0
    if kind == "poisson":
        return float(param)
    return sum(k * p for k, p in param)


# ----------------------------------------------------------- mc-calibration

MC_TRIALS = 1 << 14  # per cell; 20 cells a round
_EXPLICIT = Explicit(((0, 0.2), (3, 0.3), (7, 0.5)))

# the criterion-9 grid: every variant and count model, None = optimal cutoff
MC_GRID = (
    (CL, Known(50), None),
    (CL, Known(50), 10),
    (BW, Known(50), 25),
    (BW, Known(51), 25),
    (PD, Known(50), 25),
    (CL, Uniform(40), None),
    (BW, Uniform(40), None),
    (PD, Uniform(40), None),
    (BW, Uniform(40), 3),
    (CL, Uniform(100), 13),
    (BW, Uniform(100), 20),
    (CL, Poisson(5.0), None),
    (BW, Poisson(5.0), None),
    (PD, Poisson(5.0), None),
    (BW, Poisson(2.0), 0),
    (BW, Poisson(10.0), 4),
    (PD, Poisson(10.0), 4),
    (CL, _EXPLICIT, 2),
    (BW, _EXPLICIT, 2),
    (PD, _EXPLICIT, 2),
)


def mc_calibration_ops(seed: int) -> list:
    reports = {}

    def cell(i, variant, model, cutoff):
        def run():
            r = best_cutoff(variant, model).cutoff if cutoff is None else cutoff
            rep = simulate(SimConfig(variant, model, ThresholdPolicy(r), MC_TRIALS, seed=seed + i))
            reports[i] = rep
            return {
                "variant": variant.value,
                "model": model_tuple(model),
                "cutoff": r,
                "searched": cutoff is None,
                "trials": rep.config.trials,
                "seed": rep.config.seed,
                "successes": rep.successes,
                "p_hat": rep.p_hat,
                "stderr": rep.stderr,
                "draws_of_zero": rep.draws_of_zero,
            }

        return run

    ops = [(f"cell{i:02d}", cell(i, *spec)) for i, spec in enumerate(MC_GRID)]
    return ops, reports


def mc_units() -> float:
    return float(MC_TRIALS * len(MC_GRID))


def mc_trial_steps() -> float:
    """Sum over cells of trials * E[X]: the step-loop work if every trial
    were walked to its own count."""
    return sum(MC_TRIALS * mean_count(model) for _, model, _ in MC_GRID)


def mc_secstop_refs(seed: int, outputs: dict, reports: dict) -> dict:
    """Checks that need secstop itself: the permutation oracle for the
    explicit cells, merging two adjacent trial ranges, and replaying single
    trials through run_episode."""
    rng = random.Random(seed * 7919 + 1)
    problems = []
    oracle = {}
    for i, (variant, model, _) in enumerate(MC_GRID):
        if isinstance(model, Explicit):
            oracle[i] = exhaustive_oracle(variant, model, ThresholdPolicy(outputs[f"cell{i:02d}"]["cutoff"]))

    i = rng.randrange(len(MC_GRID))
    config = reports[i].config
    half = config.trials // 2
    a = simulate(SimConfig(config.variant, config.model, config.policy, half, config.seed, 0))
    b = simulate(SimConfig(config.variant, config.model, config.policy, config.trials - half, config.seed, half))
    if merge(a, b) != reports[i]:
        problems.append(f"cell {i}: merging two halves differs from the single run")

    for i, (variant, model, _) in enumerate(MC_GRID):
        config = reports[i].config
        ks, ps = support(model)
        cdf = np.cumsum(ps)
        for t in rng.sample(range(config.trials), 2):
            one = simulate(SimConfig(variant, model, config.policy, 1, config.seed, t))
            base = trial_base(config.seed, t)
            u0 = draw_uniform(base, 0)
            j = min(int(np.searchsorted(cdf, u0, side="right")), len(ks) - 1)
            k = int(ks[j])
            won = k >= 1 and run_episode(variant, k, config.policy.cutoff, base)
            if one.successes != int(won) or one.draws_of_zero != int(k == 0):
                problems.append(f"cell {i} trial {t}: simulate gives {one.successes}, replay {int(won)}")
    return {"oracle": oracle, "problems": problems}


# -------------------------------------------------------------- exact-large

# operations that fail on every run, with the fault behind each
EXACT_KNOWN_FAULTS = {
    "best_cutoff:classic:known:20000": "harmonic cache capped at 10000",
    "best_cutoff:classic:poisson:9000": "harmonic cache capped at 10000",
    "truncate:poisson:3000": "log-space Poisson pmf sums to 1 +- >1e-12",
    "truncate:poisson:10000": "log-space Poisson pmf sums to 1 +- >1e-12",
    "best_cutoff:bw:poisson:10000": "log-space Poisson pmf, 8.9e-12 relative",
    "best_cutoff:bw:poisson:100000": "log-space Poisson pmf, 1.9e-11 relative",
    "best_cutoff:pd:poisson:100000": "log-space Poisson pmf, 1.9e-11 relative",
    "success_curve:bw:poisson:100000": "log-space Poisson pmf, 1.9e-11 relative",
    "success_curve:pd:poisson:100000": "log-space Poisson pmf, 1.9e-11 relative",
    "best_cutoff:classic:poisson:5000": "log-space Poisson pmf, 3.9e-12 relative",
    "best_cutoff:pd:uniform:1000000": "absolute 1e-12 tie band picks M-1 below the argmax",
    "step_accept:bw:uniform:1000000:r=n": "closed form vs direct sum AssertionError at r = n",
    "step_reject:bw:uniform:1000000:r=n-1": "cancellation in r - n + n(psi(n) - psi(r)) near r = n",
}


def exact_large_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []

    def add(name, fn):
        ops.append((name, fn))

    def best(variant, model):
        def run():
            rep = best_cutoff(variant, model)
            return {"kind": "best_cutoff", "variant": variant.value, "model": model_tuple(model),
                    "cutoff": rep.cutoff, "prob": rep.prob}

        add(f"best_cutoff:{variant.value}:{_model_name(model)}", run)

    def curve(variant, model, r_max, samples):
        def run():
            c = success_curve(variant, model, r_max)
            return {"kind": "success_curve", "variant": variant.value, "model": model_tuple(model),
                    "r_max": r_max, "length": len(c.values),
                    "samples": {str(r): c.value(r) for r in samples}}

        add(f"success_curve:{variant.value}:{_model_name(model)}", run)

    def dp(variant, model, name=None, truncate=False):
        def run():
            m = truncate_to_explicit(model) if truncate else model
            pol = backward_induction(variant, m)
            return {"kind": "backward_induction", "variant": variant.value, "model": model_tuple(model),
                    "horizon": pol.horizon, "value": pol.value, "is_threshold": pol.is_threshold,
                    "threshold": pol.threshold, "witness": pol.witness}

        add(name or f"backward_induction:{variant.value}:{_model_name(model)}", run)

    def step(what, variant, model, r, label=None):
        def run():
            fn = step_accept_prob if what == "accept" else step_reject_prob
            return {"kind": "step", "what": what, "variant": variant.value, "model": model_tuple(model),
                    "r": r, "prob": fn(variant, model, r)}

        add(f"step_{what}:{variant.value}:{_model_name(model)}" + (f":{label}" if label else ""), run)

    def truncate(lam):
        def run():
            e = truncate_to_explicit(Poisson(lam))
            k_mode = int(lam)
            return {"kind": "truncate", "model": ("poisson", lam), "mass": math.fsum(p for _, p in e.items),
                    "support": len(e.items), "k_mode": k_mode, "p_mode": dict(e.items)[k_mode]}

        add(f"truncate:poisson:{lam:.10g}", run)

    n6 = 10**6
    for variant in (BW, PD):
        best(variant, Uniform(n6))
        best(variant, Known(n6))
        best(variant, Poisson(1e5))
    r_u = rng.randrange(1000, 5001)
    r_k = rng.randrange(1000, 5001)
    for variant in (BW, PD):
        curve(variant, Uniform(n6), r_u, sorted({0, 1, rng.randrange(2, r_u), r_u}))
        curve(variant, Known(n6), r_k, sorted({0, 1, rng.randrange(2, r_k), r_k}))
        curve(variant, Poisson(1e5), 50_000, (25_000, 49_999))
    best(CL, Uniform(10**4))
    best(CL, Poisson(5000.0))
    best(CL, Known(20_000))
    best(CL, Poisson(9000.0))
    for variant in (CL, BW, PD):
        dp(variant, Uniform(10**4))
    dp(BW, Uniform(10**5))
    dp(PD, Poisson(1000.0), name="truncate+backward_induction:pd:poisson:1000", truncate=True)
    truncate(3000.0)
    truncate(10_000.0)
    best(BW, Poisson(1e4))

    def two_point():
        pol = backward_induction(CL, Explicit(((100, 0.99), (1000, 0.01))))
        return {"kind": "two_point", "is_threshold": pol.is_threshold, "witness": pol.witness,
                "value": pol.value}

    add("backward_induction:classic:two_point", two_point)
    r = rng.randrange(1, n6 // 2 + 1)
    for variant in (BW, PD):
        step("accept", variant, Uniform(n6), r)
        step("reject", variant, Uniform(n6), r)
    step("accept", BW, Uniform(n6), n6, "r=n")
    step("reject", BW, Uniform(n6), n6 - 1, "r=n-1")
    r = rng.randrange(1, 151)
    for variant in (CL, BW, PD):
        step("accept", variant, Poisson(100.0), r)
        step("reject", variant, Poisson(100.0), r)

    def probe():
        rep = asymptote_probe()
        return {"kind": "asymptote_probe", "uniform_rows": rep.uniform_rows,
                "poisson_rows": rep.poisson_rows, "mixture_rows": rep.mixture_rows,
                "uniform_limit": rep.uniform_limit}

    add("asymptote_probe", probe)
    return ops


def _model_name(model) -> str:
    kind, param = model_tuple(model)
    return f"{kind}:{param:.10g}" if kind != "explicit" else kind


# -------------------------------------------------------------- cli-session

def cli_session_specs(seed: int) -> list[dict]:
    """About twenty commands; each spec holds argv and what its checker needs."""
    rng = random.Random(seed)
    two_point = os.path.join("bench", "data", "twopoint.csv")
    n_classic = rng.randrange(100, 1000)
    lam_pd = rng.randrange(20, 81) / 2.0
    n_curve = rng.randrange(20, 81)
    n_dp = rng.randrange(50, 301)
    lam_hi = rng.randrange(60, 81)
    specs = [
        {"argv": ["cutoff", "--variant", "bw", "--model", "uniform:n=1000000"],
         "check": "cutoff", "variant": "bw", "model": ("uniform", 10**6)},
        {"argv": ["cutoff", "--variant", "classic", "--model", f"known:n={n_classic}"],
         "check": "cutoff", "variant": "classic", "model": ("known", n_classic)},
        {"argv": ["cutoff", "--variant", "pd", "--model", f"poisson:lambda={lam_pd:g}"],
         "check": "cutoff", "variant": "pd", "model": ("poisson", lam_pd)},
        {"argv": ["curve", "--variant", "bw", "--model", f"known:n={n_curve}", "--format", "csv"],
         "check": "curve_known", "variant": "bw", "model": ("known", n_curve)},
        {"argv": ["curve", "--variant", "bw", "--sweep", "lambda", "--from", "0.5", "--to", "6",
                  "--step", "0.25", "--format", "csv"], "check": "sweep", "rows": 23},
        {"argv": ["dp", "--variant", "bw", "--model", f"uniform:n={n_dp}"],
         "check": "dp", "variant": "bw", "model": ("uniform", n_dp)},
        {"argv": ["dp", "--variant", "classic", "--model", f"table:{two_point}"], "check": "two_point"},
        {"argv": ["table"], "check": "table"},
        {"argv": ["convergents", "--constant", "einv"], "check": "convergents", "constant": "einv", "count": 12},
        {"argv": ["convergents", "--constant", "theta"], "check": "convergents", "constant": "theta", "count": 12},
        {"argv": ["scan-failures", "--estimator", "affinetheta", "--from", "2", "--to", "3000"],
         "check": "scan_uniform", "estimator": "affinetheta", "lo": 2, "hi": 3000},
        {"argv": ["scan-failures", "--estimator", "halflambdaminusone", "--from", "2", "--to", str(lam_hi)],
         "check": "scan_poisson", "lo": 2, "hi": lam_hi},
        {"argv": ["verify", "thresholds"], "check": "verify", "suite": "thresholds", "checks": 8},
        {"argv": ["verify", "constants"], "check": "verify", "suite": "constants", "checks": 5},
        {"argv": ["verify", "failures"], "check": "verify", "suite": "failures", "checks": 4, "exit": 1,
         "fails": ["round(n*theta) failures [2,121] match the known list",
                   "lambert estimate never fails above 4"]},
        {"argv": ["verify", "convergents"], "check": "verify", "suite": "convergents", "checks": 2},
        {"argv": ["verify", "counterexample"], "check": "verify", "suite": "counterexample", "checks": 1},
        {"argv": ["verify", "conjecture"], "check": "verify", "suite": "conjecture", "checks": 8},
        {"argv": ["simulate", "--variant", "bw", "--model", "uniform:n=50", "--cutoff", "10",
                  "--trials", "20000", "--seed", str(seed)],
         "check": "simulate", "variant": "bw", "model": ("uniform", 50), "cutoff": 10,
         "trials": 20000, "seed": seed},
    ]
    for i, spec in enumerate(specs):
        spec.setdefault("exit", 0)
        spec["kind"] = spec["argv"][0].replace("-", "_")
        spec["name"] = f"{i:02d} {' '.join(spec['argv'])}"
    return specs
