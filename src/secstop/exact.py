"""Exact success probabilities when the number of candidates is random.

The central object is the cutoff -> success-probability curve

    F(r) = sum_k p(X = k) * threshold_success_known(variant, k, r).

F(0) is sum_k p(k) nu_k.  For r >= 1 all three rules share one shape of
positive terms, F(r) = c r K(r + 1) with K a suffix sum over the integer
steps (`SuffixMoments.cutoff_values`), so a curve costs O(support + r_max)
and nothing is subtracted; a two-sided prefix of a Uniform curve reads its
T(s) and K in closed form and costs O(r_max).  The suffix sums live in one place,
SuffixMoments, which the curve, the step probabilities and the backward
induction in `dp` read.  They are compensated, and every curve value is
within 1e-13 of exact rationals (1.5 ulp at 10^6 points).  On top of the
curve sit the conditional step probabilities (accept now vs. reject and
continue): closed forms on Uniform (the classic reject aside), and table
reads elsewhere, on Poisson of the law of X given X >= r, which reaches
steps past the support.  The optimal-cutoff search reads the sign of
ΔF(r) = F(r + 1) - F(r) and has two routes.  On Known(n), and on Uniform(n)
for the two-sided rules, ΔF has a closed form that changes sign once, so
the best positive cutoff is a bisection on its sign: O(log n) scalar
evaluations, each decided in floats only where |ΔF| exceeds the explicit
error bound of `specfun.harmonic_form_sign` and exactly otherwise.  Every
other model (Poisson, tables, and classic on Uniform(n), whose support is a
table) takes one scan of ΔF(r) = c [K(r + 2) - r T(r + 1)] over the T and K
tables the curve sums: closed forms below the first support point, one
vectorised compare over the window, O(window) in all.  Each decision
compares a float difference against its own derived rounding bound, and a
difference inside it is a tie that goes to the smaller cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core_model import (
    _MAX_POINTS,
    _NICE_FIRST,
    _NICE_NUMERATOR,
    CountModel,
    CutoffReport,
    Known,
    Poisson,
    Uniform,
    Variant,
    nice_probabilities,
    support,
    threshold_success_known,
)
from .specfun import (
    EULER_GAMMA,
    harmonic,
    harmonic_form_sign,
    harmonic_gap,
    harmonic_gap_ratio,
    np,
    poisson_step_table,
)

# the unit roundoff; the relative error bound of the float ΔF and F of
# `_scan_cutoff`, which derives it, and the factor of its rise test
_U = 2.0**-53
_DF_REL = 1100 * _U
_DF_GAMMA = (1.0 + _DF_REL) / (1.0 - _DF_REL)
# the float error of the closed forms `_closed_at_least` compares at r = 0
# and M, where they come close (n <= 200, H_n < 6): a `harmonic_gap` within 8 eps
# H_n, cancelled by at most 16 in `_uniform_tail_sums`, and a few roundings
_CLOSED_REL = 2e-13
# block length of the compensated suffix sums (SuffixMoments._suffix)
_BLOCK = 512
# points that `_times_ramp` and the parabola of `cutoff_values` take at a time
_CHUNK = 4096


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
    """Suffix sums over k >= t of a pmf on sorted points ks, masses ps:

        S(t) = p(X >= t),   U1(t) = sum p(k)/k,   U2(t) = sum p(k)/(k(k-1)),

    on a `support` or a Poisson step table, U1 without k = 0 and U2 without
    k <= 1, each with a trailing 0 and built on first use by `_suffix`.
    Every table a method returns is its own array.  The slot of a step t is
    the first point >= t.  read(table, t0, out) reads a table at the steps
    t0, t0 + 1, ...: on contiguous points (Known, Uniform, Poisson, a
    gapless table) a head fill, a slice copy and a tail fill; with gaps a
    gather at searched slots.  at(t) gives single slots.
    """

    def __init__(self, ks: np.ndarray, ps: np.ndarray) -> None:
        self.ks, self.ps = ks, ps
        n = len(self.ks)
        self._k0 = int(self.ks[0]) if n and self.ks[-1] - self.ks[0] == n - 1 else None

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

    @staticmethod
    def _suffix(w: np.ndarray, out: np.ndarray | None = None, carry: list | None = None) -> np.ndarray:
        """[sum w[i:] for i = 0..len(w)], the last 0, into out (len(w) + 1
        points; w may be its head) when given: a sequential cumsum from the
        top in blocks of _BLOCK, in place in the reversed output, each block
        then lifted by the Kahan sum of the totals above it.  On 10^6 flat
        points S is within 1.2e-14 of exact, where one sequential cumsum
        drifts by 1.3e-11.  Summed from the top in pieces, w runs on from
        carry = [s, c, x, k], the Kahan state (s, c) above it and the raw sum
        x of the k points of an open block, and leaves it for the next."""
        n = len(w)
        if out is None:
            out = np.empty(n + 1)
        out[-1] = 0.0
        rev, w = out[-2::-1], w[::-1]
        if n < _BLOCK and carry is None:
            np.cumsum(w, out=rev)
            return out
        s, c, x, k = carry or (0.0, 0.0, 0.0, 0)
        h = min(n, -k % _BLOCK)  # the points that go on with the open block
        if h:
            rev[:h] = w[:h]
            rev[0] += x
            np.cumsum(rev[:h], out=rev[:h])
            x, k = float(rev[h - 1]), k + h
            rev[:h] += s - c
        full = n - (n - h) % _BLOCK
        if full > h or k == _BLOCK:  # whole blocks, or an open one just closed
            blocks = rev[h:full].reshape(-1, _BLOCK)
            np.add.accumulate(w[h:full].reshape(-1, _BLOCK), axis=1, out=blocks)
            offsets = []
            for t in ([x] if k == _BLOCK else []) + blocks[:, -1].tolist():
                offsets.append(s - c)
                y = t - c
                t = s + y
                c = (t - s) - y
                s = t
            if k == _BLOCK:
                x, k = 0.0, 0
            # on the forward view numpy buffers one temporary, on the reversed one three
            out[n - full : n - h].reshape(-1, _BLOCK)[:] += np.array(offsets[::-1][: len(blocks)])[:, None]
        if full < n:
            np.cumsum(w[full:], out=rev[full:])
            x, k = float(rev[-1]), n - full
            rev[full:] += s - c
        if carry is not None:
            carry[:] = s, c, x, k
        return out

    @staticmethod
    def _weights(order: int, ks: np.ndarray, ps: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The terms of the U table of that order at the sorted points ks,
        into out: p(k)/k (order 1) or p(k)/(k(k - 1)) (2), 0 where k < order."""
        z = int(np.searchsorted(ks, order))
        out[:z] = 0.0
        k, d = ks[z:], out[z:]
        if order == 2:
            np.subtract(k, 1.0, out=d)
            np.multiply(k, d, out=d)
            np.divide(ps[z:], d, out=d)
        else:
            np.divide(ps[z:], k, out=d)
        return out

    @cached_property
    def S(self) -> np.ndarray:
        return self._suffix(self.ps)

    @cached_property
    def U1(self) -> np.ndarray:
        return self._suffix(self._weights(1, self.ks, self.ps, np.empty(len(self.ks))))

    @cached_property
    def U2(self) -> np.ndarray:
        return self._suffix(self._weights(2, self.ks, self.ps, np.empty(len(self.ks))))

    def accept_mass(self, variant: Variant, t: np.ndarray) -> np.ndarray:
        """B(t) = S(t) A(t) at the consecutive steps t, A(t) the success of
        accepting a nice t-th object given X >= t in the single-identity
        convention: t U1(t), or t(t-1) U2(t) for postdoc; 0 where p(X >= t)
        = 0, since both U tables are 0 there."""
        if variant is Variant.POSTDOC:
            table = self.U2
            weight = np.subtract(t, 1.0)
            np.maximum(weight, 0.0, out=weight)  # a +0 weight at t = 0, as in integers
            weight *= t
        else:
            table, weight = self.U1, t
        out = self.read(table, int(t[0]), np.empty(len(t)))
        out *= weight
        return out

    def step_tables(self, variant: Variant, a: int) -> tuple[np.ndarray, np.ndarray, float]:
        """(T, K, u) at the integer steps s = a..top, a >= 2, gaps included:
        T(s) = U2(s) (bw, pd) or U1(s)/(s - 1) (classic), K(t) = sum_{s >=
        t} T(s) (its `_suffix`, K(top + 1) = 0), and u = U2(a) or U1(a), 0.0
        where a > top.  For all three rules F(r) = c r K(r + 1), c = 2 (bw)
        or 1, as sum_{s=r+1..k} 1/(s - 1) = H_{k-1} - H_{r-1}; so ΔF(r) =
        F(r + 1) - F(r) = c [K(r + 2) - r T(r + 1)].
        Both U tables are constant below the first support point k_0, so
        there T(s) = u (bw, pd) or u/(s - 1) (classic), from a >= k_0 down."""
        top = int(self.ks[-1])
        classic = variant is Variant.CLASSIC
        T = self.read(self.U1 if classic else self.U2, a, np.empty(max(top - a + 1, 0)))
        u = float(T[0]) if len(T) else 0.0
        if classic:
            T /= np.arange(a - 1, top, dtype=float)
        return T, self._suffix(T), u

    def cutoff_values(self, variant: Variant, r0: int, out: np.ndarray) -> None:
        """F(r) = c r K(r + 1) at the consecutive cutoffs r = r0, r0 + 1, ...
        (r0 >= 1), into out (at least one point), from the `step_tables` at
        a = max(r0 + 1, k_0).  Below a, K(t) = K(a) + (a - t) u for the
        two-sided rules, a parabola in r, and K(a) + u (H_{a-2} - H_{t-2})
        for classic, that gap taken from `harmonic_gap` at the last step
        below a and lifted by a `_suffix` of 1/(s - 1) under it: Known(n)
        costs O(r_max), not O(n), and Poisson the length of its mass
        window.  Each K(r + 1) is written into out and multiplied by r in
        place (`_times_ramp`), so no array of r is built."""
        t0 = r0 + 1
        a = max(t0, int(self.ks[0]))
        T, K, u = self.step_tables(variant, a)
        Ka = float(K[0])
        nb = min(a - t0, len(out))  # cutoffs below a - 1, whose steps t = r + 1 < a
        window = out[nb:]
        m = min(len(window), len(K))  # the first window cutoff's step is a
        window[:m] = K[:m]
        window[m:] = 0.0
        if nb and variant is Variant.CLASSIC:
            t1 = t0 + nb - 1
            steps = np.arange(t0 - 1, t1 - 1, dtype=float)
            below = self._suffix(np.divide(1.0, steps, out=steps), out=out[:nb])
            below += harmonic_gap(a - 2, t1 - 2)[0]
            below *= u
            below += Ka
        else:
            for i in range(0, nb, _CHUNK):  # (a - 1 - r) u + Ka, the first factor exact
                y = out[i : min(i + _CHUNK, nb)]
                y[:] = np.arange(a - 1 - r0 - i, a - 1 - r0 - i - len(y), -1, dtype=float)
                y *= u
                y += Ka
        _times_ramp(out, r0)
        out *= _NICE_NUMERATOR[variant]


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


def _uniform_tail_sums(r: int, n: int) -> tuple[float, float]:
    """(sum_{k=r..n} 1/k, sum_{k=r..n-1} (n-k)/k) for 1 <= r <= n.

    The forms H_n - H_{r-1} and n(H_{n-1} - H_{r-1}) - (n - r) take the
    harmonic differences from `harmonic_gap`, which does not cancel; the
    second still cancels as r nears n (by a factor 2n/(n - r)), so within
    n/8 of n the short sums are added directly.
    """
    if 8 * (n - r) <= n:
        k = np.arange(r, n + 1, dtype=float)
        return float(np.sum(1.0 / k)), float(np.sum((n - k) / k))
    return harmonic_gap(n, r - 1)[0], n * harmonic_gap(n - 1, r - 1)[0] - (n - r)


def _table_step(model: CountModel, r: int) -> tuple[SuffixMoments, np.ndarray, np.ndarray]:
    """(moments, [r], [S(r)]) on the model's support, or on Poisson's step
    table; ConditioningError where p(X >= r) = 0."""
    table = poisson_step_table(model.lam, r) if isinstance(model, Poisson) else support(model)
    mom = SuffixMoments(*table)
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
    over X conditioned on X >= r (single-identity accept weights); on tables
    the induction's A(r)."""
    _check_step(model, r)
    if isinstance(model, Uniform):
        n = model.n
        if variant is Variant.POSTDOC:
            # telescoping sum of 1/(k(k-1)) collapses to r/n as well
            return 0.0 if r == 1 else r / n
        return float(r * _uniform_tail_sums(r, n)[0] / (n + 1 - r))
    mom, t, S = _table_step(model, r)
    return float(mom.accept_mass(variant, t)[0] / S[0])


def step_reject_prob(variant: Variant, model: CountModel, r: int) -> float:
    """P_R(r): success chance of rejecting at step r and accepting the next
    nice candidate, averaged over X conditioned on X >= r; F(r)/S(r) on
    tables and for classic on Uniform."""
    _check_step(model, r)
    if isinstance(model, Uniform) and variant is not Variant.CLASSIC:
        n = model.n
        return float(_NICE_NUMERATOR[variant] * r * _uniform_tail_sums(r, n)[1] / (n * (n + 1 - r)))
    mom, t, S = _table_step(model, r)
    F = np.empty(1)
    mom.cutoff_values(variant, r, F)
    return float(F[0] / S[0])


def _uniform_prefix_curve(variant: Variant, model: Uniform, r_max: int) -> np.ndarray:
    """F(0), ..., F(r_max) for a two-sided rule on Uniform(n), r_max < n,
    without the support: F(0) from `_closed_value`, and F(r) = c r K(r + 1)
    with the steps' T(s) = U2(s) = (n - s + 1)/(n^2 (s - 1)) in closed form.
    K(a) at a = r_max + 2 is sum_{k=a-1..n-1} (n - k)/k / n^2 from
    `_uniform_tail_sums`, and below a, K is a `_suffix` of T over the steps
    2..a - 1 lifted by K(a): O(r_max) time and memory."""
    n = model.n
    values = np.empty(r_max + 1)
    values[0] = _closed_value(variant, model, 0)
    s = np.arange(2.0, r_max + 2.0)
    T = np.subtract(n + 1, s)
    T /= np.subtract(s, 1.0, out=s)
    T /= n * n
    K = SuffixMoments._suffix(T)[:r_max]  # K(2), ..., K(r_max + 1) less K(a)
    K += _uniform_tail_sums(r_max + 1, n)[1] / (n * n)
    np.multiply(K, s, out=values[1:])  # s holds r = 1..r_max
    values[1:] *= _NICE_NUMERATOR[variant]
    return values


def _first_value(variant: Variant, mom: SuffixMoments) -> float:
    """F(0) = sum_k p(k) nu_k, a dot."""
    return float(np.dot(nice_probabilities(variant, mom.ks), mom.ps))


def success_curve(variant: Variant, model: CountModel, r_max: int | None = None) -> SuccessCurve:
    """F(r) for r = 0..r_max, at most _MAX_POINTS (default: the top of the
    support, past which F(r) is 0.0; r_max never moves a bit): F(0) a dot,
    F(r) = c r K(r + 1) (`SuffixMoments.cutoff_values`), and a two-sided
    prefix of a Uniform curve, r_max < n, by `_uniform_prefix_curve`."""
    if r_max is not None and r_max < 0:
        raise ValueError("r_max must be >= 0")
    prefix = isinstance(model, Uniform) and variant is not Variant.CLASSIC and r_max is not None and r_max < model.n
    mom = None if prefix else SuffixMoments(*support(model))
    r_max = int(mom.ks[-1]) if r_max is None else r_max
    if r_max + 1 > _MAX_POINTS:
        raise RuntimeError(f"the curve F(0..{r_max}) holds {r_max + 1} points, past the cap of {_MAX_POINTS}")
    if prefix:
        values, terms = _uniform_prefix_curve(variant, model, r_max), model.n
    else:
        values, terms = np.empty(r_max + 1), len(mom.ks)
        values[0] = _first_value(variant, mom)
        if r_max >= 1:
            mom.cutoff_values(variant, 1, values[1:])
    np.clip(values, 0.0, 1.0, out=values)
    return SuccessCurve(variant, model, r_max, values, truncation_terms_used=terms)


def closed_form_uniform(r: int, n: int) -> float:
    """Best-or-worst cutoff-success under Uniform[1, n]:
    F(r, n) = 2r(r - n + n(psi(n) - psi(r)))/n^2 for 1 <= r <= n, with the
    bracket, sum_{k=r..n-1} (n-k)/k, taken from _uniform_tail_sums so that it
    does not cancel as r nears n."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    return 2.0 * r * _uniform_tail_sums(r, n)[1] / (n * n)


def poisson_smoothing_coefficients(lam: float) -> tuple[float, float]:
    """(e^-lam S1, e^-lam S2) with

        S1 = 1 - e^lam + lam - gamma*lam + lam*E(lam) - lam*ln(lam),
        S2 = 1 - e^lam + 2lam + (gamma - E(lam) + ln(lam))(1 - lam),

    so that the smoothed cutoff curve is f*(r) = 2r e^-lam S1 - 2r^2 e^-lam S2.
    Those closed forms cancel (1 - e^lam + ..., and gamma + ln(lam) inside
    E(lam)), so the two factors are summed as the equivalent pmf series
    sum_{k>=2} pmf(k)/(k-1) and sum_{k>=2} pmf(k)/(k(k-1)) at every rate.
    """
    ks, p = support(Poisson(lam))
    k, p = ks[ks >= 2].astype(float), p[ks >= 2]
    return float(np.sum(p / (k - 1.0))), float(np.sum(p / (k * (k - 1.0))))


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


def positive_cutoff(variant: Variant, model: CountModel, near: int | None = None) -> int:
    """M, the best cutoff r >= 1: the first r in [1, n - 1] with ΔF(r) <= 0
    (n when there is none, at n = 1), by bisection on the certified sign of
    `_delta_sign`, for every variant on Known(n) and the two-sided rules on
    Uniform(n).  O(log n) sign evaluations and no arrays; from a guess near
    (a scan's M at the last n), O(log |M - near|), 2 where M is near or
    near + 1."""
    if not _closed_form_search(variant, model):
        raise ValueError("the closed-form search covers Known, and Uniform for bw and pd")
    return _first_fall(lambda r: _delta_sign(variant, model, r) > 0, 1, model.n, near)


def _first_fall(rises, lo: int, hi: int, near: int | None = None) -> int:
    """The first r in [lo, hi) where rises(r) is false, hi where there is
    none, by bisection: rises must hold on a prefix of the range.  From a
    guess near in the range, steps that double outward from it bracket r
    first; since rises falls once, the bracket holds the same r."""
    if near is not None and lo <= near < hi:
        step = 1
        if rises(near):
            lo = near + 1
            while near + step < hi and rises(near + step):
                lo, step = near + step + 1, 2 * step
            hi = min(hi, near + step)
        else:
            hi = near
            while near - step >= lo and not rises(near - step):
                hi, step = near - step, 2 * step
            lo = max(lo, near - step + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if rises(mid):
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
        return (_NICE_NUMERATOR[variant] * harmonic(n) - 1.0) / n
    return 0.5 * _NICE_NUMERATOR[variant] * closed_form_uniform(r, n)


def _exact_value(variant: Variant, model: Known | Uniform, r: int) -> Fraction:
    """F(r) as an exact fraction, from the same closed forms."""
    from fractions import Fraction

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
        return Fraction(_NICE_NUMERATOR[variant]) * r * (n - r) / (n * (n - 1))
    c = Fraction(_NICE_NUMERATOR[variant])
    if r == 0:
        return (c * gap(n, 0) - 1) / n
    return c * r * (n * gap(n - 1, r - 1) - n + r) / (n * n)


def _uniform_first_bound(variant: Variant, n: int) -> float:
    """An upper bound on F(0) = (c H_n - 1)/n under Uniform(n), in O(1):
    H_n < ln n + gamma + 1/(2n) for every n >= 1, as H_n - ln n - gamma
    lies in (1/(2n + 1), 1/(2n)).  The roundings of log (within 1 ulp),
    gamma, 1/(2n), the two sums, the product, the difference and the
    division move it by at most 7 u c s/n, so a margin of 16 u c s keeps
    it above F(0)."""
    s = math.log(n) + EULER_GAMMA + 0.5 / n
    return (_NICE_NUMERATOR[variant] * s * (1.0 + 16 * _U) - 1.0) / n


def _closed_at_least(variant: Variant, model: Known | Uniform, r: int, m: int) -> tuple[bool, float]:
    """(F(r) >= F(m), F(r) if so, else F(m)) from `_closed_value`, as exact
    fractions where the floats lie within _CLOSED_REL: an analytic tie goes
    to r.  F(0) on Uniform(n) is first bounded by `_uniform_first_bound`
    and computed only where the bound does not lie below F(m)'s _CLOSED_REL
    band, so an F(0) that loses to F(M) (at every n from 15 for bw and from
    9 for pd on) does not walk the harmonic table up to n, as H_n does for
    1000 < n <= 10^4."""
    fm = _closed_value(variant, model, m)
    if r == 0 and isinstance(model, Uniform) and _uniform_first_bound(variant, model.n) < fm * (1.0 - _CLOSED_REL):
        return False, fm
    fr = _closed_value(variant, model, r)
    if abs(fr - fm) <= _CLOSED_REL * max(fr, fm):
        wins = _exact_value(variant, model, r) >= _exact_value(variant, model, m)
    else:
        wins = fr > fm
    return wins, fr if wins else fm


def best_cutoff(variant: Variant, model: CountModel) -> CutoffReport:
    """Argmax of the cutoff curve over r from 0 to the top of the support,
    ties to the smallest r.

    r = 0 means "accept the first nice candidate immediately"; for small or
    front-loaded models that genuinely dominates every positive cutoff.

    Two routes, both on the sign of ΔF(r) = F(r + 1) - F(r), and neither
    builds the curve.  On Known(n), and on Uniform(n) for the two-sided
    rules, the best positive cutoff M is `positive_cutoff`'s bisection, each
    sign decided in floats only outside an explicit error bound and exactly
    inside it.  F(M) comes from a closed form.  On Uniform(n), F(0) is first
    bounded in O(1) (`_uniform_first_bound`), and where the bound lies below
    F(M)'s _CLOSED_REL band (from n = 15 for bw and n = 9 for pd on) M wins
    and F(0), whose H_n walks the harmonic table up to n for 1000 < n <=
    10^4, is never computed.  Otherwise F(0) comes from its closed form, and
    where F(0) and F(M) lie within _CLOSED_REL of each other they are
    compared as exact fractions, so the analytic ties (postdoc cutoffs 0 and
    1, Known(2) and Known(3)) resolve to 0.  Every other model (Poisson,
    explicit tables, and classic on Uniform(n), whose support is a table)
    takes `_scan_cutoff`: one scan
    of the sign of ΔF over the support's step tables, O(top - k_0) however
    far the first support point k_0 lies from 0, where a difference inside
    its rounding bound is a tie and goes to the smaller cutoff.
    """
    if _closed_form_search(variant, model):
        m = positive_cutoff(variant, model)
        zero, prob = _closed_at_least(variant, model, 0, m)
        return CutoffReport(model=model, variant=variant, cutoff=0 if zero else m, prob=prob)
    m, prob = _scan_cutoff(variant, model)
    return CutoffReport(model=model, variant=variant, cutoff=m, prob=prob)


def _scan_cutoff(variant: Variant, model: CountModel) -> tuple[int, float]:
    """(M, F(M)) on a support table, from the sign of ΔF(r) = c [K(r + 2) -
    r T(r + 1)] on the `step_tables` at a = max(2, k_0): the smallest of
    F(0) and the local maxima r >= 1 (ΔF(r) does not rise, and ΔF(r - 1)
    does or r = 1) whose F ties the largest.  Below a, ΔF(r)/c = Ka + (a -
    2 - 2r) u for the two-sided rules and Ka + u (H_{a-2} - H_r - 1) for
    classic, Ka = K(a): both fall once, found by `_first_fall` in O(log a)
    scalars.  Over the window r = a - 1..top - 1 the rises are one compare,
    and F = c r K(r + 1) is read at the local maxima only: O(top - a).

    The bound.  Each `_suffix` value of positive terms is a cumsum of at
    most _BLOCK terms ((_BLOCK - 1) u of the value, u = 2^-53) lifted by the
    Kahan sum of the block totals (2u) in two roundings: 515u.  With the U
    weights' 2u and classic's division, T is within 518u, K = _suffix(T)
    within 1033u, r T within 519u and F = c r K within 1034u.  So ΔF(r)
    rises where it exceeds _DF_REL (K(r + 2) + r T(r + 1)), _DF_REL = 1100u,
    that is where K(r + 2) > _DF_GAMMA r T(r + 1), whose roundings the margin
    covers; classic below a takes H_{a-2} - H_r at the low end of its
    `harmonic_gap` bound.  A difference inside the bound is a tie and goes
    to the smaller cutoff: ΔF(r) does not rise, and an F within the bounds
    of its value and of the largest is taken before a later one.  F(0), a
    dot of n = len(ks) positive products, is within (n + 2) u."""
    mom = SuffixMoments(*support(model))
    top = int(mom.ks[-1])
    rs, Fs = [0], [_first_value(variant, mom)]
    if top >= 2:
        c, classic = _NICE_NUMERATOR[variant], variant is Variant.CLASSIC
        a = max(2, int(mom.ks[0]))
        T, K, u = mom.step_tables(variant, a)
        Ka = float(K[0])

        def rises(r: int) -> bool:
            if classic:
                d, e = harmonic_gap(a - 2, r)
                return Ka + u * (d - e) > _DF_GAMMA * u
            return Ka + (a - 2 - r) * u > _DF_GAMMA * (r * u)

        m = _first_fall(rises, 1, a - 1)
        if m < a - 1:
            rs.append(m)  # F(m) as the curve's below-a forms, classic's gap from harmonic_gap
            Fs.append(m * (harmonic_gap(a - 2, m - 1)[0] * u + Ka) if classic else m * ((a - 1 - m) * u + Ka) * c)
        _times_ramp(T, a - 1)  # r T(r + 1) at r = a - 1..top - 1
        T *= _DF_GAMMA
        up = K[1:] > T
        falls = ((up[:-1] > up[1:]).nonzero()[0] + 1).tolist()
        if m == a - 1 and not up[0]:
            falls.insert(0, 0)
        for j, k in zip(falls, K[falls].tolist()):
            rs.append(a - 1 + j)
            Fs.append((a - 1 + j) * k * c)
    Fs = [min(max(f, 0.0), 1.0) for f in Fs]
    bounds = [f * _DF_REL for f in Fs]
    bounds[0] = Fs[0] * (len(mom.ks) + 2) * _U
    i = max(range(len(Fs)), key=Fs.__getitem__)
    j = next(j for j, (f, b) in enumerate(zip(Fs, bounds)) if Fs[i] - f <= b + bounds[i])
    return rs[j], Fs[j]


def _times_ramp(x: np.ndarray, r0: int) -> None:
    """x[j] *= r0 + j in place, _CHUNK points at a time, so that no array
    as long as x is built."""
    for i in range(0, len(x), _CHUNK):
        seg = x[i : i + _CHUNK]
        seg *= np.arange(r0 + i, r0 + i + len(seg), dtype=float)
