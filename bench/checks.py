"""Reference values computed apart from secstop, and the checkers that hold
each workload's outputs against them.

Nothing here imports secstop.  References come from closed forms derived
afresh (partial fractions over the fixed-n cutoff values), from 30-digit
mpmath sums, and from scipy for the vectorised scans; a float result is only
trusted where its margin is wide, otherwise mpmath decides.  Every checker
takes plain data (the summaries the workload operations return) and gives
back a list of problems; an empty list means the output is accepted.

Model tuples: ("known", n), ("uniform", n), ("poisson", lam) and
("explicit", ((k, p), ...)).
"""

from __future__ import annotations

import csv
import math
import re
from functools import lru_cache

import mpmath
import numpy as np
from scipy.stats import poisson

mpmath.mp.dps = 30

CLASSIC, BW, PD = "classic", "bw", "pd"
Z_999 = 3.2905  # two-sided 99.9 %, for the grid: one cell of 20 may fall outside
Z_ALONE = 5.0  # a lone simulation: a 99.9 % gate would fail one seed in a thousand
REL_TOL = 1e-12  # exact values, relative
ABS_TOL = 1e-12  # induction vs curve, absolute (the project's convention)
PRINTED_TOL = 2e-11  # the CLI prints 12 significant digits
MAX_CELLS_OUTSIDE = 1


def rel_err(value, ref) -> float:
    ref = mpmath.mpf(ref)
    if ref == 0:
        return abs(float(value))
    return abs(float((mpmath.mpf(value) - ref) / ref))


# ------------------------------------------------------------ closed forms

def H(m: int):
    return mpmath.harmonic(m) if m > 0 else mpmath.mpf(0)


def H2(m: int):
    """Second-order harmonic number sum_{k<=m} 1/k^2."""
    return mpmath.zeta(2) - mpmath.zeta(2, m + 1) if m > 0 else mpmath.mpf(0)


def known_value(variant: str, n: int, r: int):
    """Success of 'reject the first r, take the next nice one' at exactly n."""
    if n < 1:
        return mpmath.mpf(0)
    if variant == CLASSIC:
        if r == 0:
            return mpmath.mpf(1) / n
        if r >= n:
            return mpmath.mpf(0)
        return mpmath.mpf(r) / n * (H(n - 1) - H(r - 1))
    if n == 1:
        return mpmath.mpf(1 if (variant == BW and r == 0) else 0)
    if r == 0:
        return mpmath.mpf(2 if variant == BW else 1) / n
    if r >= n:
        return mpmath.mpf(0)
    bw = mpmath.mpf(2 * r * (n - r)) / (n * (n - 1))
    return bw if variant == BW else bw / 2


def _pair_sum(m: int):
    """sum over 1 <= j < k <= m of 1/(jk) = (H_m^2 - H2_m)/2."""
    return (H(m) ** 2 - H2(m)) / 2


def uniform_value(variant: str, n: int, r: int):
    """Mean of known_value over k = 1..n, summed by partial fractions:
    (k-r)/(k(k-1)) = (1-r)/(k-1) + r/k, and sum H_{k-1}/k = pair sums."""
    n_ = mpmath.mpf(n)
    if r >= n:
        return mpmath.mpf(0)
    if variant == CLASSIC:
        if r == 0:
            return H(n) / n_
        inner = _pair_sum(n) - _pair_sum(r) - H(r - 1) * (H(n) - H(r))
        return r / n_ * inner
    if r == 0:
        head = 1 + 2 * (H(n) - 1) if variant == BW else H(n) - 1
        return head / n_
    bw = 2 * r / n_ * ((1 - r) * (H(n - 1) - H(r - 1)) + r * (H(n) - H(r)))
    return bw if variant == BW else bw / 2


def uniform_step_accept(variant: str, n: int, r: int):
    """E[accept weight | X >= r] under Uniform(1..n): r/k, or
    r(r-1)/(k(k-1)) for the postdoc rule (which telescopes to r/n)."""
    if variant == PD:
        return mpmath.mpf(r) / n if r >= 2 else mpmath.mpf(0)
    return r * (H(n) - H(r - 1)) / (n - r + 1)


def uniform_step_reject(variant: str, n: int, r: int):
    """E[cutoff-r value | X >= r] under Uniform(1..n), bw and pd rules."""
    bw = 2 * r * ((1 - r) * (H(n - 1) - H(r - 1)) + r * (H(n) - H(r))) / (n - r + 1)
    return bw if variant == BW else bw / 2


def _poisson_window(lam: float, k_from: int) -> tuple[int, int]:
    """Counts from k_from on that carry all but a share far below 1e-30."""
    width = 15.0 * math.sqrt(lam) + 60.0
    lo = max(k_from, int(lam - width), 0)
    hi = max(int(lam + width), k_from + 200)
    return lo, hi


def _poisson_pmf(lam, k: int):
    lam = mpmath.mpf(lam)
    return mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))


def poisson_values(variant: str, lam: float, rs) -> dict:
    """F(r) = sum_k pmf(k) known_value(k, r) for each r, one pmf pass."""
    rs = sorted(set(int(r) for r in rs))
    lo, hi = _poisson_window(lam, 0)
    lam_m = mpmath.mpf(lam)
    p = _poisson_pmf(lam, lo)
    totals = {r: mpmath.mpf(0) for r in rs}
    h_prev = H(lo - 1) if lo >= 1 else mpmath.mpf(0)  # H_{k-1}
    h_r = {r: H(r - 1) if r >= 1 else mpmath.mpf(0) for r in rs}
    for k in range(lo, hi + 1):
        if k >= 1:
            for r in rs:
                if variant == CLASSIC:
                    if r == 0:
                        w = mpmath.mpf(1) / k
                    elif k > r:
                        w = mpmath.mpf(r) / k * (h_prev - h_r[r])
                    else:
                        continue
                else:
                    w = known_value(variant, k, r)
                totals[r] += p * w
            h_prev += mpmath.mpf(1) / k
        p = p * lam_m / (k + 1)
    return totals


def poisson_step(variant: str, lam: float, r: int, kind: str):
    """E[weight(X) | X >= r] for Poisson X; kind 'accept' or 'reject'."""
    lo, hi = _poisson_window(lam, r)
    lam_m = mpmath.mpf(lam)
    p = _poisson_pmf(lam, lo)
    num = den = mpmath.mpf(0)
    for k in range(lo, hi + 1):
        if kind == "accept":
            if variant == PD:
                w = mpmath.mpf(r * (r - 1)) / (k * (k - 1)) if k > 1 else mpmath.mpf(0)
            else:
                w = mpmath.mpf(r) / k
        else:
            w = known_value(variant, k, r)
        num += p * w
        den += p
        p = p * lam_m / (k + 1)
    return num / den


def curve_values(variant: str, model: tuple, rs) -> dict:
    """F(r) for each r >= 0 in rs under a Known, Uniform or Poisson model."""
    kind, param = model
    rs = [r for r in rs if r >= 0]
    if kind == "poisson":
        return poisson_values(variant, param, rs)
    value = known_value if kind == "known" else uniform_value
    return {r: value(variant, param, r) for r in rs}


@lru_cache(maxsize=None)
def theta():
    return -mpmath.lambertw(-2 * mpmath.e ** -2).real / 2


def g_theta():
    th = theta()
    return 2 * (th - th * th)


def _first_step_poisson(lam):
    """Cutoff-0 bw success under Poisson(lam): p_1 + 2 sum_{k>=2} p_k/k."""
    lam = mpmath.mpf(lam)
    tail = mpmath.nsum(lambda k: lam ** k / mpmath.factorial(k) / k, [2, mpmath.inf])
    return mpmath.exp(-lam) * (lam + 2 * tail)


@lru_cache(maxsize=None)
def lambda0():
    """Root of P_A(1) - P_R(1) for bw under Poisson: p_1 = sum_{k>=2} p_k/k."""

    def h(lam):
        tail = mpmath.nsum(lambda k: lam ** k / mpmath.factorial(k) / k, [2, mpmath.inf])
        return lam - tail

    return mpmath.findroot(h, 2.2)


@lru_cache(maxsize=None)
def lambda_m():
    """(argmax, max) of the cutoff-0 bw success over the Poisson rate."""
    lam = mpmath.findroot(lambda x: mpmath.diff(_first_step_poisson, x), 2.0)
    return lam, _first_step_poisson(lam)


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def cf_convergents(x, count: int) -> list[tuple[int, int]]:
    """(p, q) of the first `count` convergents of x, from mpmath digits."""
    out = []
    p_prev, q_prev, p, q = 1, 0, 0, 1
    rest = mpmath.mpf(x)
    for i in range(count):
        a = int(mpmath.floor(rest))
        if i == 0:
            p, q = a, 1
        else:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        out.append((p, q))
        rest = 1 / (rest - a)
    return out


# ---------------------------------------------------- argmax and scan sets

def _argmax_with_margin(values) -> tuple[int, float]:
    i = int(np.argmax(values))
    top = values[i]
    rest = np.delete(values, i)
    margin = (top - rest.max()) / abs(top) if rest.size else math.inf
    return i, float(margin)


def bw_uniform_positive_cutoffs(n_max: int) -> list[int]:
    """M(n) over cutoffs r in [1, n] for the bw rule under Uniform(1..n).

    Floats from the partial-fraction form; any n whose top two values lie
    within 1e-9 of each other is settled in mpmath."""
    h = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n_max + 2))])
    out = [0, 1]
    for n in range(2, n_max + 1):
        r = np.arange(1, n + 1, dtype=float)
        vals = (1 - r) * (h[n - 1] - h[np.arange(0, n)]) + r * (h[n] - h[1 : n + 1])
        vals *= r
        i, margin = _argmax_with_margin(vals)
        m = i + 1
        if margin < 1e-9:
            window = range(max(1, m - 2), min(n, m + 2) + 1)
            m = max(window, key=lambda rr: uniform_value(BW, n, rr))
        out.append(m)
    return out


def _uniform_estimates(estimator: str, n: int) -> float:
    th = theta()
    if estimator == "roundntheta":
        return float(n * th)
    if estimator == "affinetheta":
        return float(n * th + th / (4 * th - 2))
    # lambertuniform: -(n/2) W(-2 e^{psi(n) - 2} / n)
    arg = -2 * mpmath.exp(mpmath.digamma(n) - 2) / n
    return float(-(mpmath.mpf(n) / 2) * mpmath.lambertw(arg).real)


def uniform_estimator_failures(estimator: str, n_lo: int, n_hi: int) -> list[int]:
    exact = bw_uniform_positive_cutoffs(n_hi)
    return [
        n
        for n in range(n_lo, n_hi + 1)
        if round_half_away(_uniform_estimates(estimator, n)) != exact[n]
    ]


def bw_poisson_cutoff(lam: float) -> int:
    """Full argmax (cutoff 0 included) of the bw curve under Poisson(lam),
    from scipy's pmf; narrow margins are settled in mpmath."""
    k_hi = int(lam + 15 * math.sqrt(lam) + 60)
    k = np.arange(0, k_hi + 1, dtype=float)
    p = poisson.pmf(k, lam)
    r = np.arange(0, int(lam) + 20, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(k > r, 2 * r * (k - r) / (k * (k - 1)), 0.0)
    w[0] = np.where(k == 1, 1.0, np.where(k >= 2, 2.0 / np.maximum(k, 1), 0.0))
    vals = w @ p
    m, margin = _argmax_with_margin(vals)
    if margin < 1e-9:
        window = range(max(0, m - 2), m + 3)
        vals_mp = poisson_values(BW, lam, window)
        top = max(vals_mp.values())
        # ties inside 1e-12 resolve to the smallest cutoff, as the code documents
        m = min(rr for rr in window if vals_mp[rr] >= top * (1 - REL_TOL))
    return m


def half_lambda_findings(lam_lo: int, lam_hi: int) -> list[tuple[int, int, int]]:
    """(lam, floor(lam/2 - 1), exact M) wherever the two differ."""
    out = []
    for lam in range(lam_lo, lam_hi + 1):
        pred = int(math.floor(lam / 2.0 - 1.0))
        m = bw_poisson_cutoff(float(lam))
        if pred != m:
            out.append((lam, pred, m))
    return out


# ------------------------------------------------------- generic helpers

def check_local_max(m: int, values: dict) -> list[str]:
    """M attains the curve's maximum over its neighbours (reference values)."""
    problems = []
    for r in (m - 1, m + 1):
        if r in values and values[r] > values[m]:
            problems.append(
                f"F({r}) = {mpmath.nstr(values[r], 17)} exceeds F(M={m}) = "
                f"{mpmath.nstr(values[m], 17)}"
            )
    return problems


def check_rel(label: str, value, ref, tol: float = REL_TOL) -> list[str]:
    err = rel_err(value, ref)
    if err > tol:
        return [f"{label}: {value!r} vs reference {mpmath.nstr(ref, 17)} (rel {err:.2e} > {tol:g})"]
    return []


def check_abs(label: str, value, ref, tol: float = ABS_TOL) -> list[str]:
    err = abs(float(mpmath.mpf(value) - ref))
    if err > tol:
        return [f"{label}: {value!r} vs reference {mpmath.nstr(ref, 17)} (abs {err:.2e} > {tol:g})"]
    return []


# ------------------------------------------------------------ mc-calibration

def mc_cell_reference(variant: str, model: tuple, r: int, oracle=None):
    """Exact success of cutoff r: fixed-n closed form (Known), partial-
    fraction closed form (Uniform), mpmath sum (Poisson), or the permutation
    oracle's rational (Explicit, passed in as `oracle`)."""
    if model[0] == "explicit":
        return mpmath.mpf(oracle.numerator) / oracle.denominator
    return curve_values(variant, model, [r])[r]


def check_mc_cell(cell: dict, ref, z_max: float = Z_999) -> list[str]:
    """One simulated cell against its reference, |z| <= z_max."""
    n = cell["trials"]
    ref = float(ref)
    sigma = math.sqrt(ref * (1.0 - ref) / n)
    z = (cell["p_hat"] - ref) / sigma if sigma > 0 else math.inf
    if abs(z) > z_max:
        return [f"p_hat {cell['p_hat']:.6f} vs exact {ref:.6f}: z = {z:.2f}"]
    return []


def check_mc_bookkeeping(cell: dict) -> list[str]:
    problems = []
    n = cell["trials"]
    if cell["p_hat"] != cell["successes"] / n:
        problems.append("p_hat is not successes / trials")
    se = math.sqrt(cell["p_hat"] * (1 - cell["p_hat"]) / n)
    if abs(cell["stderr"] - se) > 1e-15:
        problems.append(f"stderr {cell['stderr']} vs {se}")
    kind, param = cell["model"]
    p0 = math.exp(-param) if kind == "poisson" else dict(param).get(0, 0.0) if kind == "explicit" else 0.0
    zero_sd = math.sqrt(p0 * (1 - p0) / n)
    if zero_sd == 0:
        if cell["draws_of_zero"] != 0:
            problems.append(f"{cell['draws_of_zero']} draws of X = 0 from a model without mass at 0")
    elif abs(cell["draws_of_zero"] / n - p0) > 5 * zero_sd:
        problems.append(f"draws of X = 0: {cell['draws_of_zero']} of {n}, expected share {p0:.4f}")
    return problems


def check_mc_cutoff(cell: dict) -> list[str]:
    """A cutoff found by best_cutoff attains the reference maximum."""
    variant, model, m = cell["variant"], cell["model"], cell["cutoff"]
    hi = {"known": model[1], "uniform": model[1]}.get(model[0], 40)
    rs = range(0, hi + 1)
    vals = curve_values(variant, model, rs)
    top = max(vals.values())
    if vals[m] < top * (1 - REL_TOL):
        best = max(rs, key=vals.__getitem__)
        return [f"cutoff {m} is not optimal: reference argmax {best}"]
    return []


def check_mc_grid(cells: list[dict], refs: list) -> list[str]:
    outside = []
    for i, (cell, ref) in enumerate(zip(cells, refs)):
        for p in check_mc_cell(cell, ref):
            outside.append(f"cell {i}: {p}")
    if len(outside) > MAX_CELLS_OUTSIDE:
        return [f"{len(outside)} cells outside their 99.9 % interval: " + "; ".join(outside)]
    return []


# --------------------------------------------------------------- exact-large

def check_exact_op(out: dict) -> list[str]:
    """Dispatch on the operation kind recorded in its summary."""
    return _EXACT_CHECKS[out["kind"]](out)


def _check_best_cutoff(out: dict) -> list[str]:
    variant, model, m, prob = out["variant"], out["model"], out["cutoff"], out["prob"]
    kind, param = model
    problems = []
    if kind == "known":
        if m != param // 2 and variant != CLASSIC:
            problems.append(f"cutoff {m} != floor(n/2) = {param // 2}")
        if variant != CLASSIC:
            p_bw = mpmath.mpf(param) / (2 * (param - 1)) if param % 2 == 0 else mpmath.mpf(param + 1) / (2 * param)
            problems += check_rel("prob vs pbw_known", prob, p_bw if variant == BW else p_bw / 2)
            return problems
    if kind == "uniform" and variant != CLASSIC:
        est = param * theta()
        if abs(m - est) > 1:
            problems.append(f"cutoff {m} is not within 1 of n*theta = {mpmath.nstr(est, 12)}")
    values = curve_values(variant, model, (m - 1, m, m + 1))
    problems += check_local_max(m, values)
    problems += check_rel("prob", prob, values[m])
    return problems


def _check_curve(out: dict) -> list[str]:
    variant, model = out["variant"], out["model"]
    problems = []
    if out["r_max"] + 1 != out["length"]:
        problems.append(f"curve has {out['length']} values for r_max {out['r_max']}")
    refs = curve_values(variant, model, [int(r) for r in out["samples"]])
    for r, v in out["samples"].items():
        problems += check_rel(f"F({r})", v, refs[int(r)])
    return problems


def _check_dp(out: dict) -> list[str]:
    variant, model = out["variant"], out["model"]
    problems = []
    if not out["is_threshold"] or out["threshold"] is None:
        return [f"policy is not a threshold rule (witness {out['witness']})"]
    t = out["threshold"]
    values = curve_values(variant, model, (t - 1, t, t + 1))
    problems += check_local_max(t, values)
    problems += check_abs("value vs F(threshold)", out["value"], values[t])
    return problems


def _check_two_point(out: dict) -> list[str]:
    if out["is_threshold"] or tuple(out["witness"] or ()) != (100, 101):
        return [f"expected a non-threshold policy with witness (100, 101), got "
                f"is_threshold={out['is_threshold']} witness={out['witness']}"]
    return []


def _check_step(out: dict) -> list[str]:
    variant, (kind, param), r, what = out["variant"], out["model"], out["r"], out["what"]
    if kind == "uniform":
        fn = uniform_step_accept if what == "accept" else uniform_step_reject
        ref = fn(variant, param, r)
    else:
        ref = poisson_step(variant, param, r, what)
    return check_rel(f"P_{what[0].upper()}({r})", out["prob"], ref)


def _check_truncation(out: dict) -> list[str]:
    lam = out["model"][1]
    problems = []
    if abs(out["mass"] - 1.0) > 1e-12:
        problems.append(f"truncated mass sums to {out['mass']!r}")
    ref = _poisson_pmf(lam, out["k_mode"])
    problems += check_rel(f"pmf({out['k_mode']})", out["p_mode"], ref)
    return problems


def _check_asymptote(out: dict) -> list[str]:
    problems = []
    for n, p, gap in out["uniform_rows"]:
        m = round_half_away(float(n * theta()))
        vals = {r: uniform_value(BW, n, r) for r in range(m - 2, m + 3)}
        problems += check_rel(f"uniform P({n})", p, max(vals.values()))
        problems += check_rel(f"uniform gap({n})", gap, max(vals.values()) - g_theta(), 1e-9)
    for lam, p, _ in out["poisson_rows"]:
        m = int(lam // 2)
        vals = poisson_values(BW, lam, range(m - 3, m + 3))
        problems += check_rel(f"poisson P({lam:g})", p, max(vals.values()))
    for lam, series, closed, gap in out["mixture_rows"]:
        ref = _mixture_series(lam)
        problems += check_rel(f"mixture series({lam:g})", series, ref)
        problems += check_rel(f"mixture closed({lam:g})", closed, ref, 1e-10)
        if gap > 1e-10:
            problems.append(f"mixture gap at {lam:g}: {gap:.3e}")
    problems += check_rel("uniform limit", out["uniform_limit"], g_theta(), 1e-15)
    return problems


def _mixture_series(lam: float):
    """sum_k P_bw(k) pmf(k) with k played at floor(k/2)."""
    total = mpmath.mpf(0)
    lo, hi = _poisson_window(lam, 1)
    p = _poisson_pmf(lam, lo)
    for k in range(lo, hi + 1):
        total += p * known_value(BW, k, k // 2)
        p = p * lam / (k + 1)
    return total


_EXACT_CHECKS = {
    "best_cutoff": _check_best_cutoff,
    "success_curve": _check_curve,
    "backward_induction": _check_dp,
    "two_point": _check_two_point,
    "step": _check_step,
    "truncate": _check_truncation,
    "asymptote_probe": _check_asymptote,
}


# --------------------------------------------------------------- cli-session

def parse_records(stdout: str, fmt: str) -> list[dict]:
    """Records from the CLI's csv or human rendering.  Human columns are
    left-justified under their header, so the header gives each column's
    start; values may be empty."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if fmt == "csv":
        rows = list(csv.reader(lines))
        return [dict(zip(rows[0], row)) for row in rows[1:]]
    header = lines[0]
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    keys = header.split()
    bounds = list(zip(starts, starts[1:] + [None]))
    return [{k: ln[a:b].strip() for k, (a, b) in zip(keys, bounds)} for ln in lines[1:]]


def check_cli(spec: dict, exit_code: int, stdout: str) -> list[str]:
    """Exit code per the documented contract, then the printed numbers."""
    if exit_code != spec["exit"]:
        return [f"exit code {exit_code}, expected {spec['exit']}"]
    try:
        return _CLI_CHECKS[spec["check"]](spec, stdout)
    except (KeyError, IndexError, ValueError) as exc:
        return [f"could not parse output: {exc!r}"]


def _cli_cutoff(spec, stdout):
    rec = parse_records(stdout, "human")[0]
    variant, model = spec["variant"], spec["model"]
    m, p = int(rec["M"]), float(rec["P"])
    problems = []
    if model[0] == "uniform" and variant != CLASSIC and model[1] >= 1000:
        est = model[1] * theta()
        if abs(m - est) > 1:
            problems.append(f"M = {m} not within 1 of n*theta")
    vals = curve_values(variant, model, (m - 1, m, m + 1))
    problems += check_local_max(m, vals)
    problems += check_rel("P", p, vals[m], PRINTED_TOL)
    return problems


def _cli_curve_known(spec, stdout):
    recs = parse_records(stdout, "csv")
    n = spec["model"][1]
    problems = []
    if [int(r["r"]) for r in recs] != list(range(0, n + 1)):
        problems.append("curve rows are not r = 0..n")
    for rec in recs:
        problems += check_rel(f"F({rec['r']})", float(rec["F"]),
                              known_value(spec["variant"], n, int(rec["r"])), PRINTED_TOL)
    return problems


def _cli_sweep(spec, stdout):
    recs = parse_records(stdout, "csv")
    problems = []
    if len(recs) != spec["rows"]:
        problems.append(f"{len(recs)} sweep rows, expected {spec['rows']}")
    for rec in recs:
        lam, m = float(rec["lambda"]), int(rec["M"])
        vals = curve_values(BW, ("poisson", lam), (m - 1, m, m + 1))
        problems += check_local_max(m, vals)
        problems += check_rel(f"P({lam:g})", float(rec["P"]), vals[m], PRINTED_TOL)
    return problems


def _cli_dp(spec, stdout):
    rec = parse_records(stdout, "human")[0]
    variant, model = spec["variant"], spec["model"]
    if rec["is_threshold"] != "true":
        return [f"not a threshold policy: {rec}"]
    t = int(rec["threshold"])
    vals = curve_values(variant, model, (t - 1, t, t + 1))
    problems = check_local_max(t, vals)
    problems += check_rel("value", float(rec["value"]), vals[t], PRINTED_TOL)
    if int(rec["horizon"]) != model[1]:
        problems.append(f"horizon {rec['horizon']} != n")
    return problems


def _cli_two_point(spec, stdout):
    rec = parse_records(stdout, "human")[0]
    if (rec["is_threshold"], rec["witness"], rec["horizon"]) != ("false", "100->101", "1000"):
        return [f"expected non-threshold, witness 100->101, horizon 1000: {rec}"]
    return []


def _cli_table(spec, stdout):
    recs = parse_records(stdout, "human")
    problems = []
    if len(recs) != 9:
        return [f"{len(recs)} table rows, expected 9"]
    th, n, lam = theta(), 1000, 100.0
    asym = {
        ("known", "classic"): (n / mpmath.e, 1 / mpmath.e),
        ("known", "bw"): (n / 2, mpmath.mpf(0.5)),
        ("known", "pd"): (n / 2, mpmath.mpf(0.25)),
        ("uniform", "classic"): (n / mpmath.e ** 2, 2 / mpmath.e ** 2),
        ("uniform", "bw"): (n * th, g_theta()),
        ("uniform", "pd"): (n * th, g_theta() / 2),
        ("poisson", "classic"): (lam / mpmath.e, 1 / mpmath.e),
        ("poisson", "bw"): (lam / 2, mpmath.mpf(0.5)),
        ("poisson", "pd"): (lam / 2, mpmath.mpf(0.25)),
    }
    for rec in recs:
        family, var = rec["family"], rec["variant"]
        m_asym, p_asym = asym[(family, var)]
        problems += check_rel(f"{family}/{var} cutoff_asym", float(rec["cutoff_asym"]), m_asym, PRINTED_TOL)
        problems += check_rel(f"{family}/{var} prob_asym", float(rec["prob_asym"]), p_asym, PRINTED_TOL)
        model = {"known": ("known", n), "uniform": ("uniform", n), "poisson": ("poisson", lam)}[family]
        m = int(rec["cutoff_exact"])
        vals = curve_values(var, model, (m - 1, m, m + 1))
        problems += [f"{family}/{var}: {p}" for p in check_local_max(m, vals)]
        problems += check_rel(f"{family}/{var} prob_exact", float(rec["prob_exact"]), vals[m], PRINTED_TOL)
    return problems


def _classic_known_cutoff(q: int) -> int:
    m = round_half_away(q / math.e)
    window = range(max(1, m - 3), min(q, m + 3) + 1)
    return max(window, key=lambda r: known_value(CLASSIC, q, r))


def _bw_uniform_cutoff(q: int) -> int:
    m = round_half_away(float(q * theta()))
    window = range(max(1, m - 3), min(q, m + 3) + 1)
    return max(window, key=lambda r: uniform_value(BW, q, r))


def _cli_convergents(spec, stdout):
    recs = parse_records(stdout, "human")
    x = 1 / mpmath.e if spec["constant"] == "einv" else theta()
    ref = cf_convergents(x, len(recs))
    argmax = _classic_known_cutoff if spec["constant"] == "einv" else _bw_uniform_cutoff
    problems = []
    for rec, (p, q) in zip(recs, ref):
        if (int(rec["p"]), int(rec["q"])) != (p, q):
            problems.append(f"convergent {rec['index']}: {rec['p']}/{rec['q']} != {p}/{q}")
            continue
        if rec.get("M", "") == "":
            if 0 < p and q <= 9999:
                problems.append(f"convergent {p}/{q} was not checked")
            continue
        m = argmax(q)
        if int(rec["M"]) != m or rec["match"] != str(m == p).lower():
            problems.append(f"{p}/{q}: printed M={rec['M']} match={rec['match']}, exact M={m}")
    if len(recs) != spec["count"]:
        problems.append(f"{len(recs)} convergents, expected {spec['count']}")
    return problems


def _cli_scan_uniform(spec, stdout):
    lines = stdout.splitlines()
    recs = parse_records("\n".join(lines[:-1]), "human") if len(lines) > 1 else []
    got = [int(r["n"]) for r in recs]
    want = uniform_estimator_failures(spec["estimator"], spec["lo"], spec["hi"])
    problems = [] if got == want else [f"failures {got}, exact {want}"]
    if not lines[-1].startswith(f"{len(want)} failures in [{spec['lo']}, {spec['hi']}]"):
        problems.append(f"summary line {lines[-1]!r}")
    return problems


def _cli_scan_poisson(spec, stdout):
    lines = stdout.splitlines()
    recs = parse_records("\n".join(lines[:-1]), "human") if len(lines) > 1 else []
    got = [(int(r["n"]), int(r["rounded"]), int(r["exact_M"])) for r in recs]
    want = half_lambda_findings(spec["lo"], spec["hi"])
    return [] if got == want else [f"findings {got}, exact {want}"]


def _verify_lines(stdout):
    lines = stdout.splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    return lines, checks


def _cli_verify(spec, stdout):
    lines, checks = _verify_lines(stdout)
    suite = spec["suite"]
    problems = []
    fails = [ln for ln in checks if ln.startswith("FAIL ")]
    want_fails = spec.get("fails", [])
    got_fails = [ln[5:].split(":")[0] for ln in fails]
    if got_fails != want_fails:
        problems.append(f"FAIL lines {got_fails}, expected {want_fails}")
    if lines[-1] != f"{len(checks) - len(fails)}/{len(checks)} checks passed":
        problems.append(f"summary line {lines[-1]!r}")
    if len(checks) != spec["checks"]:
        problems.append(f"{len(checks)} checks, expected {spec['checks']}")
    problems += _VERIFY_DETAIL.get(suite, lambda c: [])(checks)
    return problems


def _detail(checks, name):
    for ln in checks:
        if ln[5:].startswith(name + ":"):
            return ln[5 + len(name) + 1 :].strip()
    raise KeyError(name)


def _verify_constants(checks):
    lm, plm = lambda_m()
    problems = []
    problems += check_rel("theta", float(_detail(checks, "theta")), theta(), PRINTED_TOL)
    problems += check_rel("g(theta)", float(_detail(checks, "g(theta)")), g_theta(), PRINTED_TOL)
    problems += check_rel("lambda0", float(_detail(checks, "lambda0")), lambda0(), 1e-8)
    problems += check_rel("lambda_m", float(_detail(checks, "lambda_m")), lm, 1e-6)
    problems += check_rel("P(lambda_m)", float(_detail(checks, "P(lambda_m)")), plm, 1e-9)
    return problems


def _verify_failures(checks):
    problems = []
    printed = (8, 13, 18, 23, 32, 37, 42, 47, 52, 57, 62, 67, 72, 77, 82,
               96, 101, 106, 111, 116, 121)
    rnt = uniform_estimator_failures("roundntheta", 2, 121)
    extra = sorted(set(rnt) - set(printed))
    missing = sorted(set(printed) - set(rnt))
    detail = _detail(checks, "round(n*theta) failures [2,121] match the known list")
    if detail != f"extra {extra}, missing {missing}":
        problems.append(f"round(n*theta) detail {detail!r}, exact extra {extra} missing {missing}")
    affine = uniform_estimator_failures("affinetheta", 2, 3000)
    detail = _detail(checks, "affine estimate fails only at 2, 3, 23, 2971")
    if detail != f"failures {affine}":
        problems.append(f"affine detail {detail!r}, exact {affine}")
    lambert = uniform_estimator_failures("lambertuniform", 2, 3000)
    detail = _detail(checks, "lambert estimate never fails above 4")
    if not detail.startswith(f"failures {lambert} "):
        problems.append(f"lambert detail {detail!r}, exact {lambert}")
    return problems


def _verify_counterexample(checks):
    detail = _detail(checks, "two-point classic model is not a threshold problem")
    return [] if detail.startswith("witness (100, 101)") else [f"witness detail {detail!r}"]


def _verify_conjecture(checks):
    findings = half_lambda_findings(2, 200)
    got = []
    for ln in checks:
        m = re.match(r"PASS finding: lambda=(\d+): predicted (-?\d+), exact (\d+)", ln)
        if m:
            got.append(tuple(int(g) for g in m.groups()))
    return [] if got == findings else [f"findings {got}, exact {findings}"]


def _verify_convergents(checks):
    problems = []
    einv = [(p, q) for p, q in cf_convergents(1 / mpmath.e, 12) if p > 0]
    if not all(_classic_known_cutoff(q) == p for p, q in einv):
        problems.append("1/e convergents do not all coincide with classic cutoffs")
    return problems


_VERIFY_DETAIL = {
    "constants": _verify_constants,
    "failures": _verify_failures,
    "counterexample": _verify_counterexample,
    "conjecture": _verify_conjecture,
    "convergents": _verify_convergents,
}


def _cli_simulate(spec, stdout):
    rec = parse_records(stdout, "human")[0]
    variant, model, r = spec["variant"], spec["model"], spec["cutoff"]
    ref = curve_values(variant, model, [r])[r]
    problems = check_rel("exact", float(rec["exact"]), ref, PRINTED_TOL)
    trials = int(rec["trials"])
    if int(rec["trials"]) != spec["trials"] or int(rec["seed"]) != spec["seed"]:
        problems.append("trials or seed not echoed")
    cell = {"trials": trials, "p_hat": int(rec["successes"]) / trials}
    problems += check_mc_cell(cell, ref, Z_ALONE)
    return problems


_CLI_CHECKS = {
    "cutoff": _cli_cutoff,
    "curve_known": _cli_curve_known,
    "sweep": _cli_sweep,
    "dp": _cli_dp,
    "two_point": _cli_two_point,
    "table": _cli_table,
    "convergents": _cli_convergents,
    "scan_uniform": _cli_scan_uniform,
    "scan_poisson": _cli_scan_poisson,
    "verify": _cli_verify,
    "simulate": _cli_simulate,
}
