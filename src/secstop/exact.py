"""Exact success probabilities when the number of candidates is random.

The central object is the cutoff -> success-probability curve

    F(r) = sum_k p(X = k) * threshold_success_known(variant, k, r).

F(0) is sum_k p(k) nu_k.  For r >= 1 all three rules share one shape of
positive terms, F(r) = c r K(r + 1) with K a suffix sum over the integer
steps (`SuffixMoments.cutoff_values`), so a curve costs O(support + r_max)
and nothing is subtracted.  The suffix sums live in one place,
SuffixMoments, which the curve, the step probabilities on finite tables and
the backward induction in `dp` read.  They are compensated, and every curve
value is within 1e-13 of exact rationals (1.5 ulp at 10^6 points).  On top
of the curve sit the conditional step probabilities (accept now vs. reject
and continue): table reads on finite tables, closed forms on Uniform (the
classic reject aside, which is a table read) and pmf-ratio series on
Poisson, which reach steps past the support.  The optimal-cutoff search has
two routes.  On Known(n), and on Uniform(n) for the two-sided rules,
ΔF(r) = F(r + 1) - F(r) has a closed form that changes sign once, so the
best positive cutoff is a bisection on its sign: O(log n) scalar
evaluations, each decided in floats only where |ΔF| exceeds the explicit
error bound of `specfun.harmonic_form_sign` and exactly otherwise.  Every
other model takes the argmax of the whole curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core_model import (
    _NICE_FIRST,
    _NICE_NUMERATOR,
    _TWO_SIDED,
    CountModel,
    CutoffReport,
    Known,
    Poisson,
    Uniform,
    Variant,
    accept_success_known,
    nice_probabilities,
    poisson_k_max,
    support,
    threshold_success_known,
)
from .specfun import (
    DEFAULT_POLICY,
    TruncationPolicy,
    digamma,
    harmonic,
    harmonic_form_sign,
    harmonic_gap_ratio,
    poisson_pmf,
    poisson_pmf_array,
    series,
)

# relative slack for treating two curve values as tied, and the float error
# bound of the closed-form F values compared at r = 0 and M (see best_cutoff)
_TIE_REL = 1e-12
# block length of the compensated suffix sums (SuffixMoments._suffix)
_BLOCK = 512


class ConditioningError(ValueError):
    """Conditional step probability requested where p(X >= r) = 0."""


@dataclass(frozen=True)
class SuccessCurve:
    variant: Variant
    model: CountModel
    r_max: int
    values: np.ndarray  # F(0), ..., F(r_max)
    truncation_terms_used: int

    def value(self, r: int) -> float:
        if not (0 <= r <= self.r_max):
            raise IndexError("r outside the computed range")
        return float(self.values[r])


class SuffixMoments:
    """Suffix sums of the count pmf over k >= t, on the sorted support:

        S(t) = p(X >= t),   U1(t) = sum p(k)/k,   U2(t) = sum p(k)/(k(k-1)),

    U1 without k = 0 and U2 without k <= 1, each with a trailing 0 and built
    on first use by `_suffix`.  Their weights p(k)/d(k) go into the
    instance's one scratch buffer, zeroed only below the table's first
    point; F(0)'s nu and the T of `cutoff_values` reuse it.  The slot of a
    step t is the first support point >= t.  read(table, t0, out) reads a
    table at the consecutive steps t0, t0 + 1, ...: on a contiguous support
    (Known, Uniform, Poisson, a gapless table) a head fill, a slice copy and
    a tail fill; on a table with gaps a gather at searched slots.  at(t)
    gives single slots.
    """

    def __init__(self, model: CountModel, min_k: int = 0) -> None:
        self.ks, self.ps = support(model, min_k)
        n = len(self.ks)
        self._k0 = int(self.ks[0]) if n and self.ks[-1] - self.ks[0] == n - 1 else None
        self._buf = np.empty(0)

    def at(self, t) -> np.ndarray:
        if self._k0 is None:
            return np.searchsorted(self.ks, t, side="left")
        i = np.subtract(t, self._k0)
        return np.clip(i, 0, len(self.ks), out=i if i.ndim else None)

    def read(self, table: np.ndarray, t0: int, out: np.ndarray) -> np.ndarray:
        """out[j] = table[slot of t0 + j] for every j of out."""
        if self._k0 is None:
            return np.take(table, self.at(np.arange(t0, t0 + len(out))), out=out)
        return _shifted_read(table, t0 - self._k0, out)

    def scratch(self, n: int) -> np.ndarray:
        """The first n slots of the instance's scratch buffer, grown if short.
        Its contents are whatever the last user left; building a table
        overwrites it."""
        if len(self._buf) < n:
            self._buf = np.empty(max(n, len(self.ks)))
        return self._buf[:n]

    @staticmethod
    def _suffix(w: np.ndarray) -> np.ndarray:
        """[sum w[i:] for i = 0..len(w)], the last 0: a sequential cumsum
        from the top in blocks of _BLOCK, in place in the reversed output,
        each block then lifted by the Kahan sum of the totals above it.  On
        10^6 flat points S is within 1.2e-14 of exact, where one sequential
        cumsum drifts by 1.3e-11."""
        n = len(w)
        out = np.empty(n + 1)
        out[-1] = 0.0
        rev, w = out[-2::-1], w[::-1]
        full = n - n % _BLOCK
        blocks = rev[:full].reshape(-1, _BLOCK)
        np.cumsum(w[:full].reshape(-1, _BLOCK), axis=1, out=blocks)
        offsets = np.empty(len(blocks))
        s = c = 0.0
        for j, x in enumerate(blocks[:, -1].tolist()):
            offsets[j] = s - c
            y = x - c
            t = s + y
            c = (t - s) - y
            s = t
        blocks += offsets[:, None]
        np.cumsum(w[full:], out=rev[full:])
        rev[full:] += s - c
        return out

    def _weights(self, k_min: int) -> tuple[np.ndarray, slice]:
        """(w, s): the scratch buffer over the support, zeroed below k_min,
        and the slice of its points k >= k_min, where each table writes its
        p(k)/d(k)."""
        w = self.scratch(len(self.ks))
        i = int(self.at(k_min))
        w[:i] = 0.0
        return w, slice(i, None)

    @cached_property
    def S(self) -> np.ndarray:
        return self._suffix(self.ps)

    @cached_property
    def U1(self) -> np.ndarray:
        w, s = self._weights(1)
        np.divide(self.ps[s], self.ks[s], out=w[s])
        return self._suffix(w)

    @cached_property
    def U2(self) -> np.ndarray:
        w, s = self._weights(2)
        k, d = self.ks[s], w[s]
        np.subtract(k, 1.0, out=d)
        np.multiply(k, d, out=d)
        np.divide(self.ps[s], d, out=d)
        return self._suffix(w)

    def accept_mass(self, variant: Variant, t: np.ndarray) -> np.ndarray:
        """B(t) = S(t) A(t) at the consecutive steps t, A(t) the success of
        accepting a nice t-th object given X >= t in the single-identity
        convention: t U1(t), or t(t-1) U2(t) for postdoc; 0 where p(X >= t)
        = 0, since both U tables are 0 there."""
        if variant is Variant.POSTDOC:
            table, weight = self.U2, t * (t - 1)
        else:
            table, weight = self.U1, t
        out = self.read(table, int(t[0]), np.empty(len(t)))
        out *= weight
        return out

    def cutoff_values(self, variant: Variant, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """F(r) at the consecutive cutoffs r >= 1, into out:

            F(r) = c r K(r + 1),   K(t) = sum over integer steps s >= t of T(s),

        T = U2 and c = 2 (bw) or 1 (pd); T(s) = U1(s)/(s - 1) and c = 1 for
        classic, since sum_{s=r+1..k} 1/(s - 1) = H_{k-1} - H_{r-1}.  K is
        summed by `_suffix` over the steps a..top, gaps included.  classic
        starts at a = r + 1; for the two-sided rules T is constant below the
        first support point k_0, so a = max(r + 1, k_0) and K(t) = K(a) +
        (a - t) U2(a) below it: Known(n) costs O(r_max), not O(n)."""
        t0, top = int(r[0]) + 1, int(self.ks[-1])
        classic = variant is Variant.CLASSIC
        table = self.U1 if classic else self.U2  # built before the scratch holds T
        a = t0 if classic else max(t0, int(self.ks[0]))
        T = self.read(table, a, self.scratch(max(top - a + 1, 0)))
        if classic:
            T /= np.arange(a - 1, top, dtype=float)
        K = self._suffix(T)  # K(a), ..., K(top), K(top + 1) = 0
        _shifted_read(K, t0 - a, out)
        below = out[: min(a - t0, len(out))]  # steps t = r + 1 < a
        if len(below):
            np.subtract(a - 1, r[: len(below)], out=below)
            below *= T[0]
            below += K[0]
        out *= r
        if not classic:
            out *= _TWO_SIDED[variant]
        return out


def _shifted_read(table: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """out[j] = table[d + j], the index clipped to the table: a head fill, a
    slice copy and a tail fill."""
    m = len(out)
    lo = min(max(-d, 0), m)
    hi = min(max(len(table) - d, lo), m)
    out[:lo] = table[0]
    out[lo:hi] = table[d + lo : d + hi]
    out[hi:] = table[-1]
    return out


def _poisson_conditional(weights, lam: float, r: int, tp: TruncationPolicy) -> float:
    """E[w(X) | X >= r] for Poisson X via the pmf-ratio series from k = r.

    Terms are normalized by pmf(r), so the conditioning survives r far above
    lam where pmf and tail both underflow.  Assumes 0 <= w <= 1.
    """
    return series(1.0, lambda k: lam / (k + 1.0), r, tp, weight=weights)


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


def _table_step(model: CountModel, r: int) -> tuple[SuffixMoments, np.ndarray, np.ndarray]:
    """(moments, [r], [S(r)]) on a finite table; ConditioningError where
    p(X >= r) = 0."""
    mom = SuffixMoments(model, min_k=r)
    S = mom.read(mom.S, r, np.empty(1))
    if not S[0] > 0.0:
        raise ConditioningError(f"p(X >= {r}) = 0")
    return mom, np.array([r]), S


def _check_step(model: CountModel, r: int) -> None:
    if r < 1:
        raise ValueError("r must be >= 1")
    if isinstance(model, Uniform) and r > model.n:
        raise ConditioningError(f"p(X >= {r}) = 0 under Uniform(1..{model.n})")


def step_accept_prob(variant: Variant, model: CountModel, r: int) -> float:
    """P_A(r): success chance accepting a nice candidate at step r, averaged
    over X conditioned on X >= r (single-identity accept weights); on finite
    tables the induction's A(r)."""
    _check_step(model, r)
    if isinstance(model, Uniform):
        n = model.n
        if variant is Variant.POSTDOC:
            # telescoping sum of 1/(k(k-1)) collapses to r/n as well
            return 0.0 if r == 1 else r / n
        return float(r * _uniform_tail_sums(r, n)[0] / (n + 1 - r))
    if isinstance(model, Poisson):
        return _poisson_conditional(
            lambda k: accept_success_known(variant, k, r), model.lam, r, model.tp
        )
    mom, t, S = _table_step(model, r)
    return float(mom.accept_mass(variant, t)[0] / S[0])


def step_reject_prob(variant: Variant, model: CountModel, r: int) -> float:
    """P_R(r): success chance of rejecting at step r and accepting the next
    nice candidate, averaged over X conditioned on X >= r; F(r)/S(r) on
    finite tables and for classic on Uniform."""
    _check_step(model, r)
    if isinstance(model, Uniform) and variant is not Variant.CLASSIC:
        n = model.n
        return float(_TWO_SIDED[variant] * r * _uniform_tail_sums(r, n)[1] / (n * (n + 1 - r)))
    if isinstance(model, Poisson):
        return _poisson_conditional(
            lambda k: threshold_success_known(variant, k, r), model.lam, r, model.tp
        )
    mom, t, S = _table_step(model, r)
    return float(mom.cutoff_values(variant, t, np.empty(1))[0] / S[0])


def success_curve(variant: Variant, model: CountModel, r_max: int | None = None) -> SuccessCurve:
    """F(r) for r = 0..r_max (default: the top of the support): F(0) =
    sum_k p(k) nu_k, a dot over the support, and F(r) = c r K(r + 1) past
    it (`SuffixMoments.cutoff_values`)."""
    if r_max is not None and r_max < 0:
        raise ValueError("r_max must be >= 0")
    mom = SuffixMoments(model, min_k=r_max or 0)
    if r_max is None:
        r_max = int(mom.ks[-1])
    values = np.zeros(r_max + 1)
    nu = nice_probabilities(variant, mom.ks, out=mom.scratch(len(mom.ks)))
    values[0] = float(np.dot(nu, mom.ps))
    if r_max >= 1:
        mom.cutoff_values(variant, np.arange(1, r_max + 1, dtype=float), values[1:])
    np.clip(values, 0.0, 1.0, out=values)
    return SuccessCurve(variant, model, r_max, values, truncation_terms_used=len(mom.ks))


def closed_form_uniform(r: int, n: int) -> float:
    """Best-or-worst cutoff-success under Uniform[1, n]:
    F(r, n) = 2r(r - n + n(psi(n) - psi(r)))/n^2 for 1 <= r <= n, with the
    bracket, sum_{k=r..n-1} (n-k)/k, taken from _uniform_tail_sums so that it
    does not cancel as r nears n."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    return 2.0 * r * _uniform_tail_sums(r, n)[1] / (n * n)


def poisson_smoothing_coefficients(
    lam: float, tp: TruncationPolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """(e^-lam S1, e^-lam S2) with

        S1 = 1 - e^lam + lam - gamma*lam + lam*E(lam) - lam*ln(lam),
        S2 = 1 - e^lam + 2lam + (gamma - E(lam) + ln(lam))(1 - lam),

    so that the smoothed cutoff curve is f*(r) = 2r e^-lam S1 - 2r^2 e^-lam S2.
    Those closed forms cancel (1 - e^lam + ..., and gamma + ln(lam) inside
    E(lam)), so the two factors are summed as the equivalent pmf series
    sum_{k>=2} pmf(k)/(k-1) and sum_{k>=2} pmf(k)/(k(k-1)) at every rate.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    k_max = poisson_k_max(lam, tp=tp)
    p = poisson_pmf_array(lam, k_max)[2:]
    k = np.arange(2, k_max + 1, dtype=float)
    return float(np.sum(p / (k - 1.0))), float(np.sum(p / (k * (k - 1.0))))


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


def _closed_form_search(variant: Variant, model: CountModel) -> bool:
    """Whether ΔF has a closed form whose sign is unimodal: every variant on
    Known(n), the two-sided rules on Uniform(n)."""
    return isinstance(model, Known) or (isinstance(model, Uniform) and variant is not Variant.CLASSIC)


def _delta_sign(variant: Variant, model: Known | Uniform, r: int) -> int:
    """The sign of ΔF(r) = F(r + 1) - F(r) for 1 <= r < n, from

        Known, two-sided   F(r) = c r(n - r)/(n(n - 1)):       n - 2r - 1
        Known, classic     F(r) = (r/n)(H_{n-1} - H_{r-1}):    H_{n-1} - H_r - 1
        Uniform, two-sided n^2 F(r)/c = r(n(H_{n-1} - H_{r-1}) - n + r):
                                                n(H_{n-1} - H_r) - 2n + 2r + 1

    each ΔF over a positive factor.  All three change sign once, from + to -:
    the first two decrease in r, the third is convex and -1 at r = n - 1."""
    n = model.n
    if isinstance(model, Uniform):
        return harmonic_form_sign(n, n - 1, r, 2 * n - 2 * r - 1)
    if variant is Variant.CLASSIC:
        return harmonic_form_sign(1, n - 1, r, 1)
    g = n - 2 * r - 1
    return (g > 0) - (g < 0)


def positive_cutoff(variant: Variant, model: CountModel) -> int:
    """M, the best cutoff r >= 1: the first r in [1, n - 1] with ΔF(r) <= 0
    (n when there is none, at n = 1), by bisection on the certified sign of
    `_delta_sign`, for every variant on Known(n) and the two-sided rules on
    Uniform(n).  O(log n) sign evaluations and no arrays."""
    if not _closed_form_search(variant, model):
        raise ValueError("the closed-form search covers Known, and Uniform for bw and pd")
    lo, hi = 1, model.n
    while lo < hi:
        mid = (lo + hi) // 2
        if _delta_sign(variant, model, mid) > 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _closed_value(variant: Variant, model: Known | Uniform, r: int) -> float:
    """F(r) in floats: threshold_success_known on Known; on Uniform F(0) =
    (c H_n - 1)/n and closed_form_uniform, halved for postdoc."""
    n = model.n
    if isinstance(model, Known):
        return threshold_success_known(variant, n, r)
    if r == 0:
        return (_TWO_SIDED[variant] * harmonic(n) - 1.0) / n
    return 0.5 * _TWO_SIDED[variant] * closed_form_uniform(r, n)


def _exact_value(variant: Variant, model: Known | Uniform, r: int) -> Fraction:
    """F(r) as an exact fraction, from the same closed forms."""
    n = model.n

    def gap(a: int, b: int) -> Fraction:
        return Fraction(*harmonic_gap_ratio(a, b))

    if isinstance(model, Known):
        if r == 0:
            return Fraction(_NICE_FIRST[variant]) if n == 1 else Fraction(_NICE_NUMERATOR[variant]) / n
        if r >= n:
            return Fraction(0)
        if variant is Variant.CLASSIC:
            return Fraction(r, n) * gap(n - 1, r - 1)
        return Fraction(_TWO_SIDED[variant]) * r * (n - r) / (n * (n - 1))
    c = Fraction(_TWO_SIDED[variant])
    if r == 0:
        return (c * gap(n, 0) - 1) / n
    return c * r * (n * gap(n - 1, r - 1) - n + r) / (n * n)


def best_cutoff(variant: Variant, model: CountModel) -> CutoffReport:
    """Argmax of the cutoff curve over r from 0 to the top of the support,
    ties to the smallest r.

    r = 0 means "accept the first nice candidate immediately"; for small or
    front-loaded models that genuinely dominates every positive cutoff.

    Two routes.  On Known(n), and on Uniform(n) for the two-sided rules, the
    best positive cutoff M is `positive_cutoff`'s bisection on the sign of
    ΔF, each sign decided in floats only outside an explicit error bound
    and exactly inside it, so no curve is built and no tie band is used.
    F(0) and F(M) come from closed forms, and where they lie within 1e-12
    relative of each other (those forms are within 2e-15 of mpmath at every
    n <= 3000 measured) they are compared as exact fractions, so the
    analytic ties (postdoc cutoffs 0 and 1, Known(2) and Known(3)) resolve
    to 0.  Classic on Uniform, Poisson and
    explicit tables take the argmax of `success_curve`, where values within
    a 1e-12 relative band of the maximum count as tied.
    """
    if _closed_form_search(variant, model):
        m = positive_cutoff(variant, model)
        f0, fm = _closed_value(variant, model, 0), _closed_value(variant, model, m)
        if abs(f0 - fm) <= _TIE_REL * max(f0, fm):
            zero = _exact_value(variant, model, 0) >= _exact_value(variant, model, m)
        else:
            zero = f0 > fm
        return CutoffReport(model=model, variant=variant, cutoff=0 if zero else m, prob=f0 if zero else fm)
    curve = success_curve(variant, model)
    vmax = float(curve.values.max())
    tol = _TIE_REL * abs(vmax)
    m = int(np.argmax(curve.values >= vmax - tol))
    return CutoffReport(model=model, variant=variant, cutoff=m, prob=float(curve.values[m]))
