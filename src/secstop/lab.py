"""Numeric studies around the exact engine.

Three families of experiments: where the rounded estimators disagree with
the exact optimal cutoff, how the continued-fraction convergents of 1/e and
of theta coincide with exact cutoff fractions M(q)/q, and how fast the
success probabilities approach their limits.

Scan convention: the uniform-model scans and the convergent checks compare
against the best POSITIVE cutoff M(n), the argmax over r in [1, n], which
`exact.positive_cutoff` finds from the sign of the curve's first difference
(classic against Known(n), best-or-worst against Uniform(n)).  For small n the
unrestricted optimum is r = 0 (accept the first nice candidate outright),
which no n-proportional estimator can express; the published failure lists
only make sense against the positive-cutoff optimum.  The Poisson conjecture
scan, by contrast, uses the full argmax including 0 — its prediction
lambda/2 - 1 genuinely goes negative-to-zero on exactly the rates where 0 is
optimal, so restricting there would hide real behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core_model import Known, Poisson, Uniform, Variant, support, threshold_success_known
from .estimate import (
    EstimatorId,
    integer_estimate,
    poisson_cutoff_estimates,
    theta,
    uniform_cutoff_estimates,
)
from .exact import best_cutoff, positive_cutoff
from .specfun import sinh_integral


# ------------------------------------------------------ continued fractions

@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int


_CF_MAX_COUNT = 12


def cf_convergents(x: float, count: int) -> list[Convergent]:
    """First `count` convergents of the simple continued fraction of x.

    x is taken as the exact binary rational of the double.  A convergent is
    emitted only while it is forced by every real within a few ulps of x
    (p_k/q_k is shared by all y with |y - x| < 1/(q_k q_{k+1}), so the guard
    is q_k * q_{k+1} against 1/8 ulp); past that depth the expansion digests
    representation noise and a precision error is raised instead.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must be in (0, 1)")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _CF_MAX_COUNT:
        raise ValueError(f"count capped at {_CF_MAX_COUNT} for double input")
    ulp = math.ulp(x)
    budget = 0.125 / ulp

    rest = Fraction(x)
    terms: list[int] = []
    while len(terms) < count + 1 and rest != 0:
        a = rest.numerator // rest.denominator
        terms.append(a)
        rest -= a
        rest = 1 / rest if rest else Fraction(0)

    out: list[Convergent] = []
    p_prev, q_prev = 1, 0
    p, q = terms[0], 1
    for i in range(count):
        if i > 0:
            if i >= len(terms):
                break  # exact rational: expansion ended at x itself
            p, p_prev = terms[i] * p + p_prev, p
            q, q_prev = terms[i] * q + q_prev, q
        exact_tail = i + 1 >= len(terms) and rest == 0
        if not exact_tail and i + 1 < len(terms):
            q_next = terms[i + 1] * q + q_prev
            if q * q_next > budget:
                raise ValueError(
                    f"convergent {i} not certified by double precision"
                )
        out.append(Convergent(p=p, q=q, index=i))
    return out


# ------------------------------------------------------ convergent cutoffs

def verify_convergent_cutoffs(
    variant: Variant, convergents: list[Convergent]
) -> list[tuple[int, int, int, bool]]:
    """(p, q, M(q), match) per convergent: does the exact positive-cutoff
    optimum at horizon q hit the numerator?  classic runs against the
    known-n curve, the two-sided rule against the uniform-model curve.
    Index-0 convergents (p = 0) are skipped — a cutoff at horizon 1 is
    vacuous."""
    if variant is Variant.CLASSIC:
        model = Known
    elif variant is Variant.BEST_OR_WORST:
        model = Uniform
    else:
        raise ValueError("convergent coincidences exist for classic and bw only")
    return [
        (c.p, c.q, m, m == c.p)
        for c in convergents
        if c.p > 0
        for m in (positive_cutoff(variant, model(c.q)),)
    ]


# ------------------------------------------------------------ failure scans

@dataclass(frozen=True)
class FailureScan:
    estimator: EstimatorId
    n_min: int
    n_max: int
    failures: tuple[int, ...]
    max_deviation: int
    details: tuple[tuple[int, int, int], ...]  # (n, rounded estimate, exact M)


_UNIFORM_ESTIMATORS = {
    EstimatorId.ROUND_N_THETA,
    EstimatorId.AFFINE_THETA,
    EstimatorId.LAMBERT_UNIFORM,
}
_POISSON_ESTIMATORS = {
    EstimatorId.HALF_LAMBDA_MINUS_ONE,
    EstimatorId.R_STAR_LAMBDA,
}


def scan_estimator_failures(
    estimator: EstimatorId, n_min: int, n_max: int
) -> FailureScan:
    """All n (or integer rates) in [n_min, n_max] where the rounded estimate
    misses the exact optimal cutoff, with the worst absolute miss."""
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    if estimator in _UNIFORM_ESTIMATORS:
        estimates = uniform_cutoff_estimates
        exact_m = lambda n: positive_cutoff(Variant.BEST_OR_WORST, Uniform(n))
    elif estimator in _POISSON_ESTIMATORS:
        estimates = lambda n: poisson_cutoff_estimates(float(n))
        exact_m = lambda n: best_cutoff(Variant.BEST_OR_WORST, Poisson(float(n))).cutoff
    else:
        raise ValueError(f"unknown estimator {estimator}")
    failures: list[int] = []
    details: list[tuple[int, int, int]] = []
    max_dev = 0
    for n in range(n_min, n_max + 1):
        rounded = integer_estimate(estimator, dict(estimates(n))[estimator])
        m = exact_m(n)
        if rounded != m:
            failures.append(n)
            details.append((n, rounded, m))
            max_dev = max(max_dev, abs(rounded - m))
    return FailureScan(
        estimator=estimator,
        n_min=n_min,
        n_max=n_max,
        failures=tuple(failures),
        max_deviation=max_dev,
        details=tuple(details),
    )


# ------------------------------------------------------------- limit probes

@dataclass(frozen=True)
class AsymptoteReport:
    uniform_rows: tuple[tuple[int, float, float], ...]  # (n, P(n), gap to limit)
    poisson_rows: tuple[tuple[float, float, float], ...]  # (lam, P(lam), gap)
    mixture_rows: tuple[tuple[float, float, float, float], ...]  # (lam, series, closed, |gap|)
    uniform_limit: float
    poisson_limit: float


def _mixture_series(lam: float) -> float:
    """Sum_k P_bw(k) pmf(k): success when the realized count is revealed and
    each k is played at its own optimum floor(k/2)."""
    ks, p = support(Poisson(lam))
    total = 0.0
    for k, pk in zip(ks.tolist(), p.tolist()):
        if k:
            total += threshold_success_known(Variant.BEST_OR_WORST, k, k // 2) * pk
    return total


def _mixture_closed(lam: float) -> float:
    s = sinh_integral(lam)
    e = math.exp(-lam)
    return 0.5 * lam * e * s + 0.5 * math.sinh(lam) * e + 0.5 * s * e


def asymptote_probe() -> AsymptoteReport:
    th = theta()
    g_th = 2.0 * (th - th * th)
    uniform_rows = []
    for n in (250, 500, 1000, 2000):
        p = best_cutoff(Variant.BEST_OR_WORST, Uniform(n)).prob
        uniform_rows.append((n, p, p - g_th))
    poisson_rows = []
    for lam in (25.0, 50.0, 100.0, 200.0):
        p = best_cutoff(Variant.BEST_OR_WORST, Poisson(lam)).prob
        poisson_rows.append((lam, p, p - 0.5))
    mixture_rows = []
    for lam in (2.0, 5.0, 10.0, 20.0, 25.0, 30.0):
        series = _mixture_series(lam)
        closed = _mixture_closed(lam)
        mixture_rows.append((lam, series, closed, abs(series - closed)))
    return AsymptoteReport(
        uniform_rows=tuple(uniform_rows),
        poisson_rows=tuple(poisson_rows),
        mixture_rows=tuple(mixture_rows),
        uniform_limit=g_th,
        poisson_limit=0.5,
    )
