"""Asymptotic cutoff estimators and the transcendental constants behind them.

The limiting success probability of a cutoff fraction x (reject the first
x*n of a two-sided search) is g(x) = -2x ln x - 2x(1 - x), maximized at
theta = -W(-2/e^2)/2, where g(theta) = 2(theta - theta^2).  Around that
limit sit three practical estimators of the exact uniform-model cutoff and
two for the Poisson model; the exact argmax itself stays in `exact`.  The
two Poisson rates are roots of closed forms in I(lam) = sum lam^k/(k k!):
lambda0 of 2 lam - I(lam), lambda_m of 2(e^lam - 1)/lam - 1 - 2 I(lam) + lam.
"""

from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum
from functools import lru_cache

from .core_model import (
    CutoffReport,
    EstimatorCheck,
    Poisson,
    Uniform,
    Variant,
)
from .exact import best_cutoff, poisson_smoothing_coefficients
from .specfun import EULER_GAMMA, ein_series, harmonic, lambert_w0


class EstimatorId(str, Enum):
    ROUND_N_THETA = "RoundNTheta"
    AFFINE_THETA = "AffineTheta"
    LAMBERT_UNIFORM = "LambertUniform"
    HALF_LAMBDA_MINUS_ONE = "HalfLambdaMinusOne"
    R_STAR_LAMBDA = "RStarLambda"


@lru_cache(maxsize=1)
def theta() -> float:
    """-W(-2/e^2)/2 = 0.20318786997997998, the optimal cutoff fraction."""
    return -0.5 * lambert_w0(-2.0 * math.exp(-2.0))


@lru_cache(maxsize=1)
def g_theta() -> float:
    """g at its maximum: 2(theta - theta^2) = 0.3238051189459574."""
    th = theta()
    return 2.0 * (th - th * th)


@lru_cache(maxsize=1)
def affine_shift() -> float:
    """The constant correction 1/(4 - 2e^{2-2 theta}) = -0.17114181786158375.

    Since ln theta = 2 theta - 2 at the fixed point, this equals
    theta/(4 theta - 2); we keep the published-looking form.
    """
    return 1.0 / (4.0 - 2.0 * math.exp(2.0 - 2.0 * theta()))


def round_half_away(x: float) -> int:
    """Nearest integer, halves away from zero (not banker's rounding)."""
    return int(math.floor(x + 0.5)) if x >= 0.0 else int(math.ceil(x - 0.5))


def integer_estimate(estimator: "EstimatorId", value: float) -> int:
    """Integer form of a real-valued estimate.

    lam/2 - 1 is floored — it predicts a count offset and its halves land on
    odd rates where flooring is the stated convention; every other estimator
    is a smooth-curve maximizer and rounds to nearest (half away from zero).
    """
    if estimator is EstimatorId.HALF_LAMBDA_MINUS_ONE:
        return int(math.floor(value))
    return round_half_away(value)


def uniform_cutoff_estimates(n: int) -> list[tuple[EstimatorId, float]]:
    """Three real-valued estimates of the optimal cutoff when X ~ U[1, n].

    RoundNTheta is the bare first-order term n*theta; AffineTheta adds the
    constant correction; LambertUniform keeps the full finite-n maximizer
    -(n/2) W(-2 e^{psi(n) - 2}/n) of the smoothed curve, psi(n) = H_{n-1} -
    gamma.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    th = theta()
    lam_arg = -2.0 * math.exp(-2.0 + (harmonic(n - 1) - EULER_GAMMA)) / n
    return [
        (EstimatorId.ROUND_N_THETA, n * th),
        (EstimatorId.AFFINE_THETA, n * th + affine_shift()),
        (EstimatorId.LAMBERT_UNIFORM, -(n / 2.0) * lambert_w0(lam_arg)),
    ]


def poisson_cutoff_estimates(lam: float) -> list[tuple[EstimatorId, float]]:
    """Two estimates for X ~ Poisson(lam): the exact maximizer r_lam of the
    smoothed curve 2r(eS1 - r eS2), namely eS1/(2 eS2), and the asymptote
    lam/2 - 1 that r_lam drifts toward."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    exp_s1, exp_s2 = poisson_smoothing_coefficients(lam)
    return [
        (EstimatorId.R_STAR_LAMBDA, exp_s1 / (2.0 * exp_s2)),
        (EstimatorId.HALF_LAMBDA_MINUS_ONE, lam / 2.0 - 1.0),
    ]


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi], f(lo) > 0 > f(hi), bisected down to adjacent
    doubles."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def lambda0() -> float:
    """Rate at which accepting a nice first candidate stops dominating.

    Root of P_A(1) - P_R(1) for the two-sided rule under Poisson arrivals
    (step probabilities in the single-identity convention of `exact`), which
    is e^-lam (2 lam - I(lam)); bisected on [1, 3].  Below it the accept curve
    stays on top at every step, so cutoff 0 is unbeatable.
    """
    return _bisect(lambda lam: 2.0 * lam - ein_series(lam), 1.0, 3.0)


def lambda_m() -> tuple[float, float]:
    """(argmax, max) of lam -> optimal two-sided success under Poisson(lam).

    Near the optimum the best cutoff is 0, with success e^-lam (2 I(lam) - lam),
    whose rate derivative is e^-lam (2(e^lam - 1)/lam - 1 - 2 I(lam) + lam);
    its root on [1, 3] is bisected, and the max is best_cutoff's value there.
    """
    lam = _bisect(
        lambda x: 2.0 * math.expm1(x) / x - 1.0 - 2.0 * ein_series(x) + x, 1.0, 3.0
    )
    return lam, best_cutoff(Variant.BEST_OR_WORST, Poisson(lam)).prob


def with_estimates(report: CutoffReport) -> CutoffReport:
    """Attach the applicable estimator checks (rounded vs. exact cutoff):
    the two-sided rules' on Uniform and Poisson, none for classic, whose
    cutoff they do not estimate."""
    model = report.model
    if report.variant is Variant.CLASSIC:
        return report
    if isinstance(model, Uniform):
        pairs = uniform_cutoff_estimates(model.n)
    elif isinstance(model, Poisson):
        pairs = poisson_cutoff_estimates(model.lam)
    else:
        return report
    checks = tuple(
        EstimatorCheck(
            name=eid.value,
            value=val,
            rounded=integer_estimate(eid, val),
            agrees=integer_estimate(eid, val) == report.cutoff,
        )
        for eid, val in pairs
    )
    return replace(report, estimators=checks)
