"""Exact success probabilities when the number of candidates is random.

The central object is the cutoff -> success-probability curve

    F(r) = sum_k p(X = k) * threshold_success_known(variant, k, r),

evaluated for a whole range of r in O(support) via suffix sums.  On top of it
sit the conditional step probabilities (accept now vs. reject and continue),
closed forms for the uniform and Poisson families, and the optimal-cutoff
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import (
    CountModel,
    CutoffReport,
    Explicit,
    Known,
    Poisson,
    Uniform,
    Variant,
    poisson_k_max,
    support,
    tail_prob,
)
from .specfun import (
    DEFAULT_POLICY,
    EULER_GAMMA,
    TruncationPolicy,
    digamma,
    ein_integral,
    harmonic_numbers,
    poisson_pmf,
    poisson_pmf_array,
)

# relative slack for treating two curve values as tied (see best_cutoff)
_TIE_REL = 1e-12


class ConditioningError(ValueError):
    """Conditional step probability requested where p(X >= r) = 0."""


@dataclass(frozen=True)
class SuccessCurve:
    variant: Variant
    model: CountModel
    r_min: int
    r_max: int
    values: np.ndarray
    truncation_terms_used: int

    def value(self, r: int) -> float:
        if not (self.r_min <= r <= self.r_max):
            raise IndexError("r outside the computed range")
        return float(self.values[r - self.r_min])


def _policy_of(model: CountModel) -> TruncationPolicy:
    return model.tp if isinstance(model, Poisson) else DEFAULT_POLICY


def _accept_weight(variant: Variant, r: int, k: np.ndarray) -> np.ndarray:
    """Definition-style success weight of accepting a nice r-th object when
    X = k.  Single-identity convention: r/k for classic and best-or-worst."""
    k = np.asarray(k, dtype=float)
    if variant is Variant.POSTDOC:
        return np.where(k > 1, r * (r - 1) / np.maximum(k * (k - 1), 1.0), 0.0)
    return r / k


def _reject_weight(variant: Variant, r: int, k: np.ndarray) -> np.ndarray:
    """Success weight of the cutoff-r policy when X = k (k >= r)."""
    k = np.asarray(k, dtype=float)
    if variant is Variant.CLASSIC:
        # (r/k)(H_{k-1} - H_{r-1}) for k > r, else 0
        kk = k.astype(int)
        hs = harmonic_numbers(int(kk.max()) if kk.size else 1)
        vals = np.where(k > r, (r / k) * (hs[np.maximum(kk - 1, 0)] - hs[r - 1]), 0.0)
        return vals
    bw = np.where(k > r, 2.0 * r * (k - r) / np.maximum(k * (k - 1.0), 1.0), 0.0)
    bw = np.where(k <= 1, 0.0, bw)
    return bw if variant is Variant.BEST_OR_WORST else 0.5 * bw


def _accept_weight_scalar(variant: Variant, r: int, k: int) -> float:
    if variant is Variant.POSTDOC:
        return r * (r - 1) / (k * (k - 1)) if k > 1 else 0.0
    return r / k


def _reject_weight_scalar(variant: Variant, r: int, k: int) -> float:
    if k <= r or k <= 1:
        return 0.0
    if variant is Variant.CLASSIC:
        from .specfun import harmonic

        return (r / k) * (harmonic(k - 1) - harmonic(r - 1))
    bw = 2.0 * r * (k - r) / (k * (k - 1.0))
    return bw if variant is Variant.BEST_OR_WORST else 0.5 * bw


def _poisson_conditional(weights, lam: float, r: int, tp: TruncationPolicy) -> float:
    """E[w(X) | X >= r] for Poisson X via pmf-ratio series from k = r.

    Terms are normalized by pmf(r), so the conditioning survives r far above
    lam where pmf and tail both underflow.  Assumes 0 <= w <= 1.
    """
    num = den = cn = cd = 0.0
    t = 1.0
    k = r
    for _ in range(tp.max_terms):
        w = float(weights(k))
        y = t * w - cn
        s = num + y
        cn = (s - num) - y
        num = s
        y = t - cd
        s = den + y
        cd = (s - den) - y
        den = s
        ratio = lam / (k + 1.0)
        if ratio < 1.0 and t * ratio / (1.0 - ratio) <= tp.rel_tol * den:
            return num / den
        t *= ratio
        k += 1
    raise RuntimeError("conditional expectation did not converge")


def _uniform_tail_sums(r: int, n: int) -> tuple[float, float]:
    """(sum_{k=r..n} 1/k, sum_{k=r..n-1} (n-k)/k) for 1 <= r <= n.

    The digamma forms psi(n+1) - psi(r) and r - n + n(psi(n) - psi(r))
    cancel as r nears n; the second is off by 1e-12 relative at r = 0.95n
    and 6.6e-4 at r = n - 1 for n = 10^6, and by up to 2e-13 at r = 7n/8
    for n in 10^4..10^7.  Within n/8 of n the short sums are added directly.
    """
    if 8 * (n - r) <= n:
        k = np.arange(r, n + 1, dtype=float)
        return float(np.sum(1.0 / k)), float(np.sum((n - k) / k))
    return digamma(n + 1) - digamma(r), r - n + n * (digamma(n) - digamma(r))


def step_accept_prob(variant: Variant, model: CountModel, r: int) -> float:
    """P_A(r): success chance accepting a nice candidate at step r, averaged
    over X conditioned on X >= r (single-identity accept weights)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if isinstance(model, Uniform):
        n = model.n
        if r > n:
            raise ConditioningError(f"p(X >= {r}) = 0 under Uniform(1..{n})")
        if variant is Variant.POSTDOC:
            if r == 1:
                return 0.0
            # telescoping sum of 1/(k(k-1)) collapses to r/n as well
            return r / n
        return float(r * _uniform_tail_sums(r, n)[0] / (n + 1 - r))
    if isinstance(model, Poisson):
        return _poisson_conditional(
            lambda k: _accept_weight_scalar(variant, r, k), model.lam, r, model.tp
        )
    ks, ps = support(model, min_k=r)
    mask = ks >= r
    tail = ps[mask].sum()
    if tail <= 0.0:
        raise ConditioningError(f"p(X >= {r}) = 0")
    return float(np.dot(_accept_weight(variant, r, ks[mask]), ps[mask]) / tail)


def step_reject_prob(variant: Variant, model: CountModel, r: int) -> float:
    """P_R(r): success chance of rejecting at step r and accepting the next
    nice candidate, averaged over X conditioned on X >= r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if isinstance(model, Uniform):
        n = model.n
        if r > n:
            raise ConditioningError(f"p(X >= {r}) = 0 under Uniform(1..{n})")
        if variant is not Variant.CLASSIC:
            bw = 2.0 * r * _uniform_tail_sums(r, n)[1] / (n * (n + 1 - r))
            return float(bw) if variant is Variant.BEST_OR_WORST else float(0.5 * bw)
        ks = np.arange(r, n + 1)
        return float(np.mean(_reject_weight(variant, r, ks)))
    if isinstance(model, Poisson):
        return _poisson_conditional(
            lambda k: _reject_weight_scalar(variant, r, k), model.lam, r, model.tp
        )
    ks, ps = support(model, min_k=r)
    mask = ks >= r
    tail = ps[mask].sum()
    if tail <= 0.0:
        raise ConditioningError(f"p(X >= {r}) = 0")
    return float(np.dot(_reject_weight(variant, r, ks[mask]), ps[mask]) / tail)


def _first_step_values(variant: Variant, ks: np.ndarray) -> np.ndarray:
    """Per-k success of 'accept the first nice candidate from step 1 on'.

    classic: first object is always nice -> 1/k.  best-or-worst: the first
    object is both best and worst so far -> 1 for k = 1, 2/k after.  postdoc:
    the first object is never nice, so the wait begins at step 2 -> 1/k for
    k >= 2 and 0 for k <= 1.
    """
    k = np.asarray(ks, dtype=float)
    safe = np.maximum(k, 1.0)
    if variant is Variant.CLASSIC:
        return np.where(k >= 1, 1.0 / safe, 0.0)
    if variant is Variant.BEST_OR_WORST:
        return np.where(k == 1, 1.0, np.where(k >= 2, 2.0 / safe, 0.0))
    return np.where(k >= 2, 1.0 / safe, 0.0)


def success_curve(variant: Variant, model: CountModel, r_max: int) -> SuccessCurve:
    """F(r) for r = 0..r_max in one pass of suffix sums over the support."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    ks, ps = support(model, min_k=r_max)
    kf = ks.astype(float)
    top = int(ks.max(initial=0))

    values = np.zeros(r_max + 1)
    values[0] = float(np.dot(_first_step_values(variant, ks), ps))

    if r_max >= 1:
        r = np.arange(1, r_max + 1, dtype=float)
        if variant is Variant.CLASSIC:
            hs = harmonic_numbers(max(top, r_max))
            with np.errstate(divide="ignore", invalid="ignore"):
                w_c = np.where(kf >= 1, hs[np.maximum(ks - 1, 0)] * ps / np.maximum(kf, 1.0), 0.0)
                w_d = np.where(kf >= 1, ps / np.maximum(kf, 1.0), 0.0)
            C = _suffix_sums(ks, w_c, r_max)
            D = _suffix_sums(ks, w_d, r_max)
            values[1:] = r * (C[1:] - hs[np.arange(0, r_max)] * D[1:])
        else:
            denom = np.maximum(kf * (kf - 1.0), 1.0)
            w_a = np.where(ks >= 2, ps / np.maximum(kf - 1.0, 1.0), 0.0)
            w_b = np.where(ks >= 2, ps / denom, 0.0)
            A = _suffix_sums(ks, w_a, r_max)
            B = _suffix_sums(ks, w_b, r_max)
            bw = 2.0 * r * (A[1:] - r * B[1:])
            values[1:] = bw if variant is Variant.BEST_OR_WORST else 0.5 * bw

    np.clip(values, 0.0, 1.0, out=values)
    return SuccessCurve(variant, model, 0, r_max, values, truncation_terms_used=len(ks))


def _suffix_sums(ks: np.ndarray, weights: np.ndarray, r_max: int) -> np.ndarray:
    """S[r] = sum of weights over support points k > r, for r = 0..r_max."""
    out = np.zeros(r_max + 1)
    if len(ks) == 0:
        return out
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    # first support index strictly greater than each r
    idx = np.searchsorted(ks, np.arange(r_max + 1), side="right")
    return suffix[idx]


def closed_form_uniform(r: int, n: int) -> float:
    """Best-or-worst cutoff-success under Uniform[1, n]:
    F(r, n) = 2r(r - n + n(psi(n) - psi(r)))/n^2 for 1 <= r <= n."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    return 2.0 * r * (r - n + n * (digamma(n) - digamma(r))) / (n * n)


def poisson_smoothing_coefficients(
    lam: float, tp: TruncationPolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """(e^-lam S1, e^-lam S2) with

        S1 = 1 - e^lam + lam - gamma*lam + lam*E(lam) - lam*ln(lam),
        S2 = 1 - e^lam + 2lam + (gamma - E(lam) + ln(lam))(1 - lam),

    so that the smoothed cutoff curve is f*(r) = 2r e^-lam S1 - 2r^2 e^-lam S2.
    The closed forms cancel catastrophically for large lam; beyond lam = 30
    the two factors are summed directly as the equivalent pmf series
    sum_{k>=2} pmf(k)/(k-1) and sum_{k>=2} pmf(k)/(k(k-1)).
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if lam <= 30.0:
        e_lam = math.exp(lam)
        ein = ein_integral(lam, tp)
        log_lam = math.log(lam)
        s1 = 1.0 - e_lam + lam - EULER_GAMMA * lam + lam * ein - lam * log_lam
        s2 = 1.0 - e_lam + 2.0 * lam + (EULER_GAMMA - ein + log_lam) * (1.0 - lam)
        return s1 / e_lam, s2 / e_lam
    k_max = poisson_k_max(lam, tp=tp)
    p = poisson_pmf_array(lam, k_max)
    k = np.arange(k_max + 1, dtype=float)
    m2 = k >= 2
    exp_s1 = float(np.sum(p[m2] / (k[m2] - 1.0)))
    exp_s2 = float(np.sum(p[m2] / (k[m2] * (k[m2] - 1.0))))
    return exp_s1, exp_s2


def poisson_fstar_and_f(
    r: int, lam: float, tp: TruncationPolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """The signed full series f*(r, lam) = sum_{k>=2} 2r(k-r)/(k(k-1)) pmf(k)
    and its head f(r, lam) = sum_{k=2..r} (same summand), so that the cutoff
    curve satisfies F(r) = f* - f.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    exp_s1, exp_s2 = poisson_smoothing_coefficients(lam, tp)
    fstar = 2.0 * r * exp_s1 - 2.0 * r * r * exp_s2

    head = 0.0
    for k in range(2, r + 1):
        head += 2.0 * r * (k - r) / (k * (k - 1.0)) * poisson_pmf(k, lam)
    return fstar, head


def best_cutoff(variant: Variant, model: CountModel, r_max: int | None = None) -> CutoffReport:
    """Argmax of the cutoff curve over r in [0, r_max], ties to the smallest r.

    r = 0 means "accept the first nice candidate immediately"; for small or
    front-loaded models that genuinely dominates every positive cutoff.
    Values within a 1e-12 relative band of the maximum count as tied, so
    analytically equal policies (e.g. cutoffs 0 and 1 for the postdoc rule,
    whose first step is never nice) resolve deterministically.
    """
    if r_max is None:
        if isinstance(model, (Known, Uniform)):
            r_max = model.n
        elif isinstance(model, Poisson):
            r_max = poisson_k_max(model.lam, tp=model.tp)
        else:
            r_max = max(k for k, _ in model.items)
    curve = success_curve(variant, model, r_max)
    vmax = float(curve.values.max())
    tol = _TIE_REL * abs(vmax)
    m = int(np.argmax(curve.values >= vmax - tol))
    return CutoffReport(model=model, variant=variant, cutoff=m, prob=float(curve.values[m]))
