"""Reference forms that only the tests read: the fixed-n accept value, the
closed-form optimum of a known count, the split of the Poisson bw curve by
the smoothing identity F(r) = f*(r) - f(r), and a whole-array table of H_m."""

from dataclasses import dataclass

import numpy as np

from secstop.core_model import Poisson, Variant, support
from secstop.exact import poisson_smoothing_coefficients
from secstop.specfun import _CACHE_TOP, _EXPANSION_FROM, harmonic


def accept_success_known(variant: Variant, n: int, r: int) -> float:
    """Success chance when the r-th of n objects is nice and gets accepted.

    classic and best-or-worst: r/n; postdoc: r(r-1)/(n(n-1)).  For
    best-or-worst at r = 1 this is the single-identity convention (a best-so-
    far object extends to the overall best with chance r/n); the behavioral
    value is larger at r = 1 because the first object is simultaneously
    worst-so-far — the induction engine in `dp` accounts for that separately.
    """
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")
    if variant is Variant.POSTDOC:
        if n == 1:
            return 0.0
        return r * (r - 1) / (n * (n - 1))
    return r / n


@dataclass(frozen=True)
class KnownOptimum:
    cutoff: int
    p_bw: float
    p_pd: float


def pbw_known(n: int) -> KnownOptimum:
    """Optimal cutoff floor(n/2) and the closed-form success probabilities
    for exactly n objects: n/(2(n-1)) for even n, (n+1)/(2n) for odd n; the
    second-best variant achieves exactly half (0 when n = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        p_bw = n / (2.0 * (n - 1))
    else:
        p_bw = (n + 1) / (2.0 * n)
    p_pd = 0.0 if n == 1 else 0.5 * p_bw
    return KnownOptimum(n // 2, p_bw, p_pd)


def poisson_fstar_and_f(r: int, lam: float) -> tuple[float, float]:
    """The signed full series f*(r, lam) = sum_{k>=2} 2r(k-r)/(k(k-1)) pmf(k)
    and its head f(r, lam) = sum_{k=2..r} (same summand), a dot over the
    Poisson support, so that the cutoff curve satisfies F(r) = f* - f.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    ks, p = support(Poisson(lam))
    exp_s1, exp_s2 = poisson_smoothing_coefficients(lam)
    fstar = 2.0 * r * exp_s1 - 2.0 * r * r * exp_s2
    keep = (ks >= 2) & (ks <= r)
    k = ks[keep].astype(float)
    return fstar, float(np.dot(2.0 * r * (k - r) / (k * (k - 1.0)), p[keep]))


def harmonic_table(limit: int) -> np.ndarray:
    """[H_0, H_1, ..., H_limit]: `harmonic`'s own values up to 10^4, and past
    them H_1000 plus the terms of `_expansion_gap(m, 1000)` in floats,
    within a few eps H_m of `harmonic` (tests/test_specfun.py), where one
    scalar call per entry costs about 2 us past 10^4."""
    top = min(limit, _CACHE_TOP)
    head = np.fromiter(map(harmonic, range(top + 1)), float, top + 1)
    if limit <= _CACHE_TOP:
        return head
    a = np.arange(_CACHE_TOP + 1, limit + 1, dtype=float)
    b = float(_EXPANSION_FROM)
    a2, b2 = a * a, b * b
    gap = np.log1p((a - b) / b) + ((b - a) / (2 * a * b) + (a2 - b2) / (12 * a2) / b2 + (1 / (a2 * a2) - 1 / (b2 * b2)) / 120)
    return np.concatenate([head, harmonic(_EXPANSION_FROM) + gap])
