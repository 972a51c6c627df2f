"""Command-line surface: cutoffs, curves, simulation, induction, scans.

Every command renders flat key -> value records in one of three formats
(human-aligned text, CSV, JSON); floats are printed with 12 significant
digits, so the CSV and JSON forms carry identical values and round-trip.

Exit codes: 0 success; 1 a verification check failed; 2 usage or parse
error; 3 numeric failure (an estimator's series past its cap of 10^6
terms, a pmf whose masses miss 1 by more than a table allows, a Poisson
window past 2*10^7 points, a Uniform support past 2*10^8) or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .core_model import (
    CountModel,
    Explicit,
    Known,
    Poisson,
    ThresholdPolicy,
    Uniform,
    Variant,
    explicit_from_dict,
    truncate_to_explicit,
)
from .dp import backward_induction
from .estimate import (
    EstimatorId,
    g_theta,
    lambda0,
    lambda_m,
    theta,
    with_estimates,
)
from .exact import best_cutoff, success_curve
from .lab import (
    cf_convergents,
    scan_estimator_failures,
    verify_convergent_cutoffs,
)
from .mc import SimConfig, simulate, trial_steps


# cap on the points swept by `curve --sweep lambda` (rates) and by
# `scan-failures` (n or rates); each point is one exact argmax
_MAX_SWEEP_RATES = 10_000

# cap on the trial-steps of one `simulate` run, trials * E[(X - cutoff)+]:
# about 11 s at the step loop's 1.8e8 steps/s, the best of nine runs of bw
# Uniform(100) at cutoff 20 and 10^6 trials on a 2-core Xeon
_MAX_TRIAL_STEPS = 2e9


class ModelSpecError(ValueError):
    pass


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def parse_model(spec: str) -> CountModel:
    """`known:n=10 | uniform:n=100 | poisson:lambda=2.5 | table:<csv path>`."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ModelSpecError(f"expected ':' after model kind in {spec!r} (position {len(kind)})")
    if kind == "table":
        return _read_pmf_table(rest)
    key, eq, val = rest.partition("=")
    if not eq:
        raise ModelSpecError(f"expected '=' in {spec!r} (position {len(kind) + 1 + len(key)})")
    try:
        if kind == "known" and key == "n":
            return Known(int(val))
        if kind == "uniform" and key == "n":
            return Uniform(int(val))
        if kind == "poisson" and key == "lambda":
            return Poisson(float(val))
    except ValueError as exc:
        raise ModelSpecError(f"bad value in {spec!r}: {exc}") from exc
    raise ModelSpecError(
        f"unknown model {spec!r}; expected known:n=, uniform:n=, poisson:lambda=, or table:<path>"
    )


def _read_pmf_table(path: str) -> Explicit:
    """The pmf in a CSV file with the header `k,p` and one row per k (blank
    lines skipped); `Explicit` checks the masses."""
    lineno = 1
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["k", "p"]:
                raise ValueError("pmf table needs header 'k,p'")
            pmf: dict[int, float] = {}
            line_of: dict[int, int] = {}
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError("expected two fields")
                k = int(row[0])
                if k in line_of:
                    raise ValueError(f"k = {k} repeats line {line_of[k]}")
                line_of[k] = lineno
                pmf[k] = float(row[1])
    except OSError as exc:
        raise ModelSpecError(f"cannot read pmf table: {exc}") from exc
    except ValueError as exc:
        raise ModelSpecError(f"{path}:{lineno}: {exc}") from exc
    try:
        return explicit_from_dict(pmf)
    except ValueError as exc:
        raise ModelSpecError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- rendering

def _records_to_human(records: list[dict]) -> str:
    if not records:
        return ""
    keys = list(records[0])
    rows = [keys] + [[_fmt(r[k]) for k in keys] for r in records]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in rows)
    return "\n".join(lines) + "\n"


def _records_to_csv(records: list[dict]) -> str:
    if not records:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys = list(records[0])
    writer.writerow(keys)
    for r in records:
        writer.writerow([_fmt(r[k]) for k in keys])
    return buf.getvalue()


def _records_to_json(records: list[dict]) -> str:
    out = [{k: _fmt(v) for k, v in r.items()} for r in records]
    return json.dumps(out, indent=2) + "\n"


_RENDERERS = {
    "human": _records_to_human,
    "csv": _records_to_csv,
    "json": _records_to_json,
}


def _emit(records: list[dict], fmt: str) -> None:
    sys.stdout.write(_RENDERERS[fmt](records))


# ----------------------------------------------------------------- commands

def _default_rmax(model: CountModel) -> int | None:
    """Past lam + 8 sqrt(lam) a Poisson curve only decays, so it is complete
    there; None is the top of the support, for every other model."""
    if isinstance(model, Poisson):
        return int(math.ceil(model.lam + 8.0 * math.sqrt(model.lam))) + 2
    return None


def cmd_cutoff(args) -> int:
    model = parse_model(args.model)
    variant = Variant(args.variant)
    rep = with_estimates(best_cutoff(variant, model))
    rec = {
        "command": "cutoff",
        "variant": variant.value,
        "model": args.model,
        "M": rep.cutoff,
        "P": rep.prob,
    }
    for check in rep.estimators:
        rec[f"est_{check.name}"] = check.value
        rec[f"est_{check.name}_rounded"] = check.rounded
        rec[f"est_{check.name}_agrees"] = check.agrees
    _emit([rec], args.format)
    return 0


def cmd_curve(args) -> int:
    variant = Variant(args.variant)
    if args.sweep == "lambda":
        if args.from_ is None or args.to is None or args.step is None:
            raise ModelSpecError("--sweep lambda needs --from, --to, --step")
        if not args.step > 0:
            raise ModelSpecError(f"--step must be positive, got {args.step}")
        if args.to < args.from_:
            raise ModelSpecError(f"--to {args.to} is below --from {args.from_}")
        # the rates up to --to, whose span may round a few ulps short of a
        # whole number: 0.1 to 0.7 by 0.1 (span 5.999999999999999) ends at 0.7;
        # floor(span) + 1 rates are at most the cap where span < cap
        span = (args.to - args.from_) / args.step * (1.0 + 2.0**-50)
        if not span < _MAX_SWEEP_RATES:  # also inf and nan
            raise ModelSpecError(f"--sweep lambda is capped at {_MAX_SWEEP_RATES} rates")
        count = math.floor(span) + 1
        records = []
        for i in range(count):
            lam = args.from_ + i * args.step
            rep = best_cutoff(variant, Poisson(lam))
            records.append({"lambda": lam, "M": rep.cutoff, "P": rep.prob})
        _emit(records, args.format)
        return 0
    if args.model is None:
        raise ModelSpecError("curve needs --model (or --sweep lambda)")
    model = parse_model(args.model)
    rmax = args.rmax if args.rmax is not None else _default_rmax(model)
    curve = success_curve(variant, model, rmax)
    records = [{"r": r, "F": curve.value(r)} for r in range(curve.r_max + 1)]
    _emit(records, args.format)
    return 0


def cmd_simulate(args) -> int:
    model = parse_model(args.model)
    variant = Variant(args.variant)
    config = SimConfig(
        variant=variant,
        model=model,
        policy=ThresholdPolicy(args.cutoff),
        trials=args.trials,
        seed=args.seed,
    )
    steps = trial_steps(config)
    if not steps <= _MAX_TRIAL_STEPS:
        raise ModelSpecError(
            f"simulate would walk about {steps:.3g} trial-steps; the cap is {_MAX_TRIAL_STEPS:.0e}"
        )
    rep = simulate(config)
    exact = success_curve(variant, model, args.cutoff).value(args.cutoff)
    z = (rep.p_hat - exact) / rep.stderr if rep.stderr > 0 else 0.0
    _emit(
        [
            {
                "command": "simulate",
                "variant": variant.value,
                "model": args.model,
                "cutoff": args.cutoff,
                "trials": args.trials,
                "seed": args.seed,
                "successes": rep.successes,
                "p_hat": rep.p_hat,
                "stderr": rep.stderr,
                "exact": exact,
                "z": z,
                "draws_of_zero": rep.draws_of_zero,
            }
        ],
        args.format,
    )
    return 0


def cmd_dp(args) -> int:
    model = parse_model(args.model)
    if isinstance(model, Poisson):
        model = truncate_to_explicit(model)
    variant = Variant(args.variant)
    pol = backward_induction(variant, model)
    rec = {
        "command": "dp",
        "variant": variant.value,
        "model": args.model,
        "horizon": pol.horizon,
        "value": pol.value,
        "is_threshold": pol.is_threshold,
        "threshold": pol.threshold if pol.threshold is not None else "",
        "witness": "" if pol.witness is None else f"{pol.witness[0]}->{pol.witness[1]}",
    }
    _emit([rec], args.format)
    return 0


def cmd_table(args) -> int:
    n, lam = 1000, 100.0
    th = theta()
    e = math.e
    rows = [
        ("known", "classic", "n/e", n / e, "1/e", 1 / e),
        ("known", "bw", "n/2", n / 2, "1/2", 0.5),
        ("known", "pd", "n/2", n / 2, "1/4", 0.25),
        ("uniform", "classic", "n/e^2", n / e**2, "2/e^2", 2 / e**2),
        ("uniform", "bw", "n*theta", n * th, "2(theta-theta^2)", g_theta()),
        ("uniform", "pd", "n*theta", n * th, "theta-theta^2", g_theta() / 2),
        ("poisson", "classic", "lambda/e", lam / e, "1/e", 1 / e),
        ("poisson", "bw", "lambda/2", lam / 2, "1/2", 0.5),
        ("poisson", "pd", "lambda/2", lam / 2, "1/4", 0.25),
    ]
    records = []
    for family, var, m_sym, m_asym, p_sym, p_asym in rows:
        model: CountModel
        if family == "known":
            model = Known(n)
        elif family == "uniform":
            model = Uniform(n)
        else:
            model = Poisson(lam)
        rep = best_cutoff(Variant(var), model)
        records.append(
            {
                "family": family,
                "size": n if family != "poisson" else lam,
                "variant": var,
                "cutoff_sym": m_sym,
                "cutoff_exact": rep.cutoff,
                "cutoff_asym": m_asym,
                "prob_sym": p_sym,
                "prob_exact": rep.prob,
                "prob_asym": p_asym,
                "prob_gap": rep.prob - p_asym,
            }
        )
    _emit(records, args.format)
    return 0


_CONSTANTS = {"einv": lambda: math.exp(-1.0), "theta": theta}
_CONSTANT_VARIANT = {"einv": Variant.CLASSIC, "theta": Variant.BEST_OR_WORST}


def cmd_convergents(args) -> int:
    x = _CONSTANTS[args.constant]()
    convs = cf_convergents(x, args.count)
    variant = _CONSTANT_VARIANT[args.constant]
    rows = verify_convergent_cutoffs(variant, convs)
    verdicts = {(p, q): (m, match) for p, q, m, match in rows}
    records = []
    for c in convs:
        m, match = verdicts.get((c.p, c.q), ("", ""))
        records.append(
            {
                "index": c.index,
                "p": c.p,
                "q": c.q,
                "value": c.p / c.q,
                "M": m,
                "match": match,
            }
        )
    _emit(records, args.format)
    return 0


_ESTIMATOR_FLAGS = {e.value.lower(): e for e in EstimatorId}


def cmd_scan_failures(args) -> int:
    if not 1 <= args.from_ <= args.to <= _MAX_SWEEP_RATES:  # also inf and nan
        raise ModelSpecError(f"scan-failures needs 1 <= --from <= --to <= {_MAX_SWEEP_RATES}")
    if not (args.from_.is_integer() and args.to.is_integer()):
        raise ModelSpecError(f"scan-failures needs whole-number bounds, got --from {args.from_} --to {args.to}")
    scan = scan_estimator_failures(
        _ESTIMATOR_FLAGS[args.estimator], int(args.from_), int(args.to)
    )
    records = [
        {"estimator": args.estimator, "n": n, "rounded": rounded, "exact_M": m}
        for n, rounded, m in scan.details
    ]
    _emit(records, args.format)
    if args.format == "human":
        sys.stdout.write(
            f"{len(scan.failures)} failures in [{scan.n_min}, {scan.n_max}], "
            f"max deviation {scan.max_deviation}\n"
        )
    return 0


# ------------------------------------------------------------ verify suites

def _suite_thresholds() -> list[tuple[str, bool, str]]:
    out = []
    for n in (5, 17, 40, 60):
        ok = backward_induction(Variant.BEST_OR_WORST, Uniform(n)).is_threshold
        out.append((f"bw uniform n={n} threshold", ok, "accept region is an up-set"))
    ok = backward_induction(Variant.POSTDOC, truncate_to_explicit(Poisson(8.0))).is_threshold
    out.append(("pd poisson lam=8 threshold", ok, "accept region is an up-set"))
    pol = backward_induction(Variant.BEST_OR_WORST, Known(30))
    out.append((
        "bw known n=30 cutoff",
        pol.threshold == 15,
        f"threshold {pol.threshold} vs floor(n/2) = 15",
    ))
    for lam in (5.0, 10.0):
        pol = backward_induction(
            Variant.BEST_OR_WORST, truncate_to_explicit(Poisson(lam))
        )
        rep = best_cutoff(Variant.BEST_OR_WORST, Poisson(lam))
        out.append((
            f"bw poisson lam={lam:g} induction vs curve",
            pol.threshold == rep.cutoff and abs(pol.value - rep.prob) < 1e-12,
            f"dp ({pol.threshold}, {pol.value:.12g}) vs argmax ({rep.cutoff}, {rep.prob:.12g})",
        ))
    return out


def _suite_constants() -> list[tuple[str, bool, str]]:
    th, g = theta(), g_theta()
    l0 = lambda0()
    lm, plm = lambda_m()
    return [
        ("theta", abs(th - 0.20318786997997998) < 1e-14, f"{th:.12g}"),
        ("g(theta)", abs(g - 0.3238051189459574) < 1e-14, f"{g:.12g}"),
        ("lambda0", abs(l0 - 2.2197714971047308) < 1e-12, f"{l0:.12g}"),
        ("lambda_m", abs(lm - 2.0177105027152712) < 1e-12, f"{lm:.12g}"),
        ("P(lambda_m)", abs(plm - 0.72647) < 1e-3, f"{plm:.12g}"),
    ]


_PRINTED_ROUND_N_THETA_FAILURES = (
    8, 13, 18, 23, 32, 37, 42, 47, 52, 57, 62, 67, 72, 77, 82,
    96, 101, 106, 111, 116, 121,
)


def _suite_failures() -> list[tuple[str, bool, str]]:
    out = []
    scan = scan_estimator_failures(EstimatorId.ROUND_N_THETA, 2, 121)
    ok = scan.failures == _PRINTED_ROUND_N_THETA_FAILURES
    extra = sorted(set(scan.failures) - set(_PRINTED_ROUND_N_THETA_FAILURES))
    missing = sorted(set(_PRINTED_ROUND_N_THETA_FAILURES) - set(scan.failures))
    out.append((
        "round(n*theta) failures [2,121] match the known list",
        ok,
        f"extra {extra}, missing {missing}",
    ))
    out.append((
        "round(n*theta) never off by more than 1",
        scan.max_deviation <= 1,
        f"max deviation {scan.max_deviation}",
    ))
    scan = scan_estimator_failures(EstimatorId.AFFINE_THETA, 2, 3000)
    out.append((
        "affine estimate fails only at 2, 3, 23, 2971",
        scan.failures == (2, 3, 23, 2971),
        f"failures {list(scan.failures)}",
    ))
    scan = scan_estimator_failures(EstimatorId.LAMBERT_UNIFORM, 2, 3000)
    out.append((
        "lambert estimate never fails above 4",
        all(n <= 4 for n in scan.failures),
        f"failures {list(scan.failures)} (23 and 2971 are knife-edge "
        "cells where the smoothed maximizer rounds up past the argmax)",
    ))
    return out


def _suite_convergents() -> list[tuple[str, bool, str]]:
    out = []
    for key, name, cutoffs in (("einv", "1/e", "classic"), ("theta", "theta", "uniform-model")):
        rows = verify_convergent_cutoffs(_CONSTANT_VARIANT[key], cf_convergents(_CONSTANTS[key](), 12))
        p, q = rows[-1][:2]
        out.append((
            f"{name} convergents coincide with {cutoffs} cutoffs",
            all(match for *_, match in rows),
            f"{len(rows)} fractions through {p}/{q}",
        ))
    return out


def _suite_counterexample() -> list[tuple[str, bool, str]]:
    pol = backward_induction(Variant.CLASSIC, Explicit(((100, 0.99), (1000, 0.01))))
    return [
        (
            "two-point classic model is not a threshold problem",
            (not pol.is_threshold) and pol.witness == (100, 101),
            f"witness {pol.witness}: accept at 100, reject at 101",
        )
    ]


def _suite_conjecture() -> list[tuple[str, bool, str]]:
    scan = scan_estimator_failures(EstimatorId.HALF_LAMBDA_MINUS_ONE, 2, 200)
    out = [
        (
            "floor(lambda/2 - 1) vs exact M over integer rates 2..200",
            True,
            f"{len(scan.failures)} deviations (findings, not failures)",
        )
    ]
    for lam, pred, actual in scan.details:
        out.append(
            (f"finding: lambda={lam}", True, f"predicted {pred}, exact {actual}")
        )
    return out


_SUITES = {
    "thresholds": _suite_thresholds,
    "constants": _suite_constants,
    "failures": _suite_failures,
    "convergents": _suite_convergents,
    "counterexample": _suite_counterexample,
    "conjecture": _suite_conjecture,
}


def cmd_verify(args) -> int:
    checks = _SUITES[args.suite]()
    failed = 0
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        sys.stdout.write(f"{tag} {name}: {detail}\n")
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 1 if failed else 0


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secstop",
        description="Exact optimal stopping with a random number of candidates.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--variant", choices=[v.value for v in Variant], required=True)
        p.add_argument("--model", required=True)
        _shared(p)

    def _shared(p):
        p.add_argument("--format", choices=["human", "csv", "json"], default="human")

    p = sub.add_parser("cutoff", help="exact optimal cutoff and estimators")
    common(p)
    p.set_defaults(fn=cmd_cutoff)

    p = sub.add_parser("curve", help="success probability per cutoff, or a rate sweep")
    p.add_argument("--variant", choices=[v.value for v in Variant], required=True)
    p.add_argument("--model")
    p.add_argument("--rmax", type=int, default=None)
    p.add_argument("--sweep", choices=["lambda"], default=None)
    p.add_argument("--from", dest="from_", type=float, default=None)
    p.add_argument("--to", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    _shared(p)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("simulate", help="seeded Monte Carlo against the exact value")
    common(p)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("dp", help="backward induction and threshold structure")
    common(p)
    p.set_defaults(fn=cmd_dp)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    _shared(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="asymptotic comparison across all variants")
    _shared(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("convergents", help="continued-fraction cutoff coincidences")
    p.add_argument("--constant", choices=sorted(_CONSTANTS), required=True)
    p.add_argument("--count", type=int, default=12)
    _shared(p)
    p.set_defaults(fn=cmd_convergents)

    p = sub.add_parser("scan-failures", help="where a rounded estimator misses M")
    p.add_argument("--estimator", choices=sorted(_ESTIMATOR_FLAGS), required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    _shared(p)
    p.set_defaults(fn=cmd_scan_failures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ModelSpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except MemoryError as exc:
        sys.stderr.write(f"numeric failure: out of memory: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
