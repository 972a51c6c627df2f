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
steps past the support.  The optimal-cutoff search has three routes.  On
Known(n), and on Uniform(n) for the two-sided rules,
ΔF(r) = F(r + 1) - F(r) has a closed form that changes sign once, so the
best positive cutoff is a bisection on its sign: O(log n) scalar
evaluations, each decided in floats only where |ΔF| exceeds the explicit
error bound of `specfun.harmonic_form_sign` and exactly otherwise.  The
two-sided rules on Poisson and tables evaluate F over the support's window
and, below its first point, where F is a concave parabola, only at the
cutoffs near its vertex that can reach the tie band: O(window), with the
whole curve's argmax bit for bit.  Classic on Uniform, Poisson and tables
takes the argmax of the whole curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    chernoff_point,
    nice_probabilities,
    poisson_k_max,
    support,
    threshold_success_known,
)
from .specfun import (
    harmonic,
    harmonic_form_sign,
    harmonic_gap,
    harmonic_gap_ratio,
    np,
)

# relative slack for treating two curve values as tied, and the float error
# bound of the closed-form F values compared at r = 0 and M (see best_cutoff)
_TIE_REL = 1e-12
# block length of the compensated suffix sums (SuffixMoments._suffix)
_BLOCK = 512
# points of the row that `_ramp` repeats, and the fewest cutoffs below k_0
# that one pass of `_parabola` takes in a curve
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
    Their weights p(k)/d(k) go into the instance's one scratch buffer,
    zeroed only below the first point; F(0)'s nu, the T and the parabola
    of `cutoff_values`, the postdoc weights of `accept_mass` and the
    induction in `dp` reuse it.  The slot of a step t is the first point >= t.
    read(table, t0, out) reads a table at the steps t0, t0 + 1, ...: on
    contiguous points (Known, Uniform, Poisson, a gapless table) a head
    fill, a slice copy and a tail fill; with gaps a gather at searched
    slots.  at(t) gives single slots.
    """

    def __init__(self, ks: np.ndarray, ps: np.ndarray) -> None:
        self.ks, self.ps = ks, ps
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

    def divide_at_steps(self, table: np.ndarray, buf: np.ndarray, *xs: np.ndarray) -> None:
        """x[t] /= table[slot of t] at the steps t = 0..n - 1 of each x, all
        n <= top + 1 long: on contiguous points by table[0] below the first
        point and by a view of the table from it; with gaps by the table
        read into buf (n points)."""
        n = len(xs[0])
        if self._k0 is None:
            at_steps = self.read(table, 0, buf[:n])
            for x in xs:
                x /= at_steps
            return
        h = min(self._k0, n)
        for x in xs:
            x[:h] /= table[0]
            x[h:] /= table[: n - h]

    def scratch(self, n: int) -> np.ndarray:
        """The first n slots of the instance's scratch buffer, grown if short.
        Its contents are whatever the last user left; building a table
        overwrites it."""
        if len(self._buf) < n:
            self._buf = np.empty(max(n, len(self.ks)))
        return self._buf[:n]

    @staticmethod
    def _suffix(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """[sum w[i:] for i = 0..len(w)], the last 0, into out (len(w) + 1
        points) when given: a sequential cumsum from the top in blocks of
        _BLOCK, in place in the reversed output, each block then lifted by
        the Kahan sum of the totals above it.  On 10^6 flat points S is
        within 1.2e-14 of exact, where one sequential cumsum drifts by
        1.3e-11.  Shorter than one block, it is that block's cumsum alone."""
        n = len(w)
        if out is None:
            out = np.empty(n + 1)
        out[-1] = 0.0
        rev, w = out[-2::-1], w[::-1]
        if n < _BLOCK:
            np.cumsum(w, out=rev)
            return out
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
            table = self.U2  # built before the scratch holds the weights
            weight = np.subtract(t, 1.0, out=self.scratch(len(t)))
            np.maximum(weight, 0.0, out=weight)  # a +0 weight at t = 0, as in integers
            weight *= t
        else:
            table, weight = self.U1, t
        out = self.read(table, int(t[0]), np.empty(len(t)))
        out *= weight
        return out

    def cutoff_values(self, variant: Variant, r0: int, out: np.ndarray) -> tuple[float, float]:
        """F(r) at the consecutive cutoffs r = r0, r0 + 1, ... (r0 >= 1), into
        out:

            F(r) = c r K(r + 1),   K(t) = sum over integer steps s >= t of T(s),

        T = U2 and c = 2 (bw) or 1 (pd); T(s) = U1(s)/(s - 1) and c = 1 for
        classic, since sum_{s=r+1..k} 1/(s - 1) = H_{k-1} - H_{r-1}.  K is
        summed by `_suffix` over the steps a..top, gaps included, from a =
        max(r0 + 1, k_0), k_0 the first support point.  Below k_0 both U
        tables are constant, so K(t) = K(a) + (a - t) U2(a) for the two-sided
        rules (F is the parabola of `_parabola`) and K(a) + U1(a) (H_{a-2} -
        H_{t-2}) for classic, that gap taken from `harmonic_gap` at the last
        step below a and lifted by a `_suffix` of 1/(s - 1) under it: Known(n)
        costs O(r_max), not O(n), and Poisson the length of its mass window.
        The cutoffs r are written into out (at least one point) by `_ramp`
        first and each factor multiplies them in place, so no array of r is
        built; the parabola runs in chunks of the scratch buffer.  Returns
        (T(a), K(a)), T(a) = 0.0 where a > top."""
        t0, top = r0 + 1, int(self.ks[-1])
        classic = variant is Variant.CLASSIC
        table = self.U1 if classic else self.U2  # built before the scratch holds T
        a = max(t0, int(self.ks[0]))
        T = self.read(table, a, self.scratch(max(top - a + 1, 0)))
        Ta = float(T[0]) if len(T) else 0.0
        nb = min(a - t0, len(out))  # cutoffs below a - 1, whose steps t = r + 1 < a
        if classic:
            T /= np.arange(a - 1, top, dtype=float)
        K = self._suffix(T)  # K(a), ..., K(top), K(top + 1) = 0
        Ka = float(K[0])
        _ramp(out, r0)
        window = out[nb:]
        m = min(len(window), len(K))  # the first window cutoff's step is a
        window[:m] *= K[:m]
        window[m:] = 0.0
        if nb and classic:
            t1 = t0 + nb - 1
            below = self._suffix(1.0 / np.arange(t0 - 1, t1 - 1, dtype=float))
            below += harmonic_gap(a - 2, t1 - 2)[0]
            below *= Ta
            below += Ka
            out[:nb] *= below
        elif nb:
            x = self.scratch(min(nb, max(len(self.ks), _CHUNK)))  # T is spent
            for i in range(0, nb, len(x)):
                chunk = out[i : min(i + len(x), nb)]
                _parabola(chunk, a, Ta, Ka, x[: len(chunk)])
        if not classic:
            out *= _TWO_SIDED[variant]
        return Ta, Ka


def _ramp(out: np.ndarray, r0: int) -> np.ndarray:
    """out[j] = r0 + j in a contiguous out, integers and so exact in floats:
    up to _CHUNK points one arange, past it the outer sum of a column of
    block starts and a row of _CHUNK offsets, so that no array as long as
    out is built."""
    n = len(out)
    if n <= _CHUNK:
        out[:] = np.arange(r0, r0 + n, dtype=float)
        return out
    full = n - n % _CHUNK
    starts = np.arange(r0, r0 + full, _CHUNK, dtype=float)
    np.add.outer(starts, np.arange(_CHUNK, dtype=float), out=out[:full].reshape(-1, _CHUNK))
    out[full:] = np.arange(r0 + full, r0 + n, dtype=float)
    return out


def _parabola(r: np.ndarray, a: int, Ta: float, Ka: float, x: np.ndarray) -> np.ndarray:
    """r (Ka + (a - 1 - r) Ta) in place at the cutoffs r below a - 1, the
    two-sided F(r)/c under the first support point a, with x (as long as r)
    for the bracket: (a - 1 - r) is exact, then one rounding each for the
    product, the sum and the product with r."""
    np.subtract(a - 1, r, out=x)
    x *= Ta
    x += Ka
    r *= x
    return r


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


def _poisson_step_table(lam: float, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(ks, ps): the law of Poisson(lam) given X >= r, up to a constant: 1
    at a = max(r, floor(lam)), then the pmf ratios p(k - 1) = p(k) k/lam
    down to max(r, `chernoff_point`) and p(k + 1) = p(k) lam/(k + 1) up to
    b + L, b = max(r, k_max).  No value passes 1, so steps far past k_max
    do not overflow.  With q = lam/(b + 1), the rest past b + L is below
    p(b) q^(L + 1)/(1 - q) < 2^-60 p(b) at L = ceil(ln(2^-60 (1 - q))/ln q)."""
    lo, b = max(r, chernoff_point(lam)), max(r, poisson_k_max(lam))
    q, i = lam / (b + 1), max(r, math.floor(lam)) - lo  # i: the slot of a
    ks = np.arange(lo, b + math.ceil(math.log(2.0**-60 * (1.0 - q)) / math.log(q)) + 1)
    ps = np.ones(len(ks))
    np.cumprod(ks[i:0:-1] / lam, out=ps[:i][::-1])
    np.cumprod(lam / ks[i + 1 :], out=ps[i + 1 :])
    return ks, ps


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
    table = _poisson_step_table(model.lam, r) if isinstance(model, Poisson) else support(model)
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
        return float(_TWO_SIDED[variant] * r * _uniform_tail_sums(r, n)[1] / (n * (n + 1 - r)))
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
    values[1:] *= _TWO_SIDED[variant]
    return values


def _first_value(variant: Variant, mom: SuffixMoments) -> float:
    """F(0) = sum_k p(k) nu_k, a dot with nu in the scratch buffer."""
    nu = nice_probabilities(variant, mom.ks, out=mom.scratch(len(mom.ks)))
    return float(np.dot(nu, mom.ps))


def success_curve(variant: Variant, model: CountModel, r_max: int | None = None) -> SuccessCurve:
    """F(r) for r = 0..r_max (default: the top of the support, past which
    F(r) is 0.0; r_max never moves a bit): F(0) = sum_k p(k) nu_k, a dot,
    and F(r) = c r K(r + 1) (`SuffixMoments.cutoff_values`).  A two-sided
    prefix of a Uniform curve, r_max < n, takes `_uniform_prefix_curve`."""
    if r_max is not None and r_max < 0:
        raise ValueError("r_max must be >= 0")
    if isinstance(model, Uniform) and variant is not Variant.CLASSIC and r_max is not None and r_max < model.n:
        values, terms = _uniform_prefix_curve(variant, model, r_max), model.n
    else:
        mom = SuffixMoments(*support(model))
        if r_max is None:
            r_max = int(mom.ks[-1])
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
    return _smoothing_sums(*support(Poisson(lam)))


def _smoothing_sums(ks: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    k, p = ks[ks >= 2].astype(float), p[ks >= 2]
    return float(np.sum(p / (k - 1.0))), float(np.sum(p / (k * (k - 1.0))))


def poisson_fstar_and_f(r: int, lam: float) -> tuple[float, float]:
    """The signed full series f*(r, lam) = sum_{k>=2} 2r(k-r)/(k(k-1)) pmf(k)
    and its head f(r, lam) = sum_{k=2..r} (same summand), a dot over the
    Poisson support, so that the cutoff curve satisfies F(r) = f* - f.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    ks, p = support(Poisson(lam))
    exp_s1, exp_s2 = _smoothing_sums(ks, p)
    fstar = 2.0 * r * exp_s1 - 2.0 * r * r * exp_s2
    keep = (ks >= 2) & (ks <= r)
    k = ks[keep].astype(float)
    return fstar, float(np.dot(2.0 * r * (k - r) / (k * (k - 1.0)), p[keep]))


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

    Three routes.  On Known(n), and on Uniform(n) for the two-sided rules,
    the best positive cutoff M is `positive_cutoff`'s bisection on the sign
    of ΔF, each sign decided in floats only outside an explicit error bound
    and exactly inside it, so no curve is built and no tie band is used.
    F(0) and F(M) come from closed forms, and where they lie within 1e-12
    relative of each other (those forms are within 2e-15 of mpmath at every
    n <= 3000 measured) they are compared as exact fractions, so the
    analytic ties (postdoc cutoffs 0 and 1, Known(2) and Known(3)) resolve
    to 0.  The two-sided rules on Poisson and explicit tables take
    `_window_cutoff`: the curve over the window k_0 - 1..top and a few
    cutoffs of the parabola below it, O(top - k_0) however far k_0 lies
    from 0.  Classic on Uniform, Poisson and explicit tables takes the
    argmax of the whole `success_curve`.  Those two routes count values
    within a 1e-12 relative band of the maximum as tied (`_band_argmax`).
    """
    if _closed_form_search(variant, model):
        m = positive_cutoff(variant, model)
        f0, fm = _closed_value(variant, model, 0), _closed_value(variant, model, m)
        if abs(f0 - fm) <= _TIE_REL * max(f0, fm):
            zero = _exact_value(variant, model, 0) >= _exact_value(variant, model, m)
        else:
            zero = f0 > fm
        return CutoffReport(model=model, variant=variant, cutoff=0 if zero else m, prob=f0 if zero else fm)
    if variant is Variant.CLASSIC:
        m, prob = _band_argmax([(0, success_curve(variant, model).values)])
    else:
        m, prob = _window_cutoff(variant, model)
    return CutoffReport(model=model, variant=variant, cutoff=m, prob=prob)


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True of mask, or None."""
    if not len(mask):
        return None
    j = int(mask.argmax())
    return j if mask[j] else None


def _band_argmax(runs: list[tuple[int, np.ndarray]]) -> tuple[int, float]:
    """(M, F(M)) over runs (r, F at r, r + 1, ...) in increasing r: the
    smallest cutoff whose value lies within the _TIE_REL relative band of
    the largest."""
    vmax = max(float(v.max()) for _, v in runs if len(v))
    floor = vmax - _TIE_REL * abs(vmax)
    for r, v in runs:  # the run of the maximum always breaks
        j = _first(v >= floor)
        if j is not None:
            break
    return r + j, float(v[j])


def _window_cutoff(variant: Variant, model: CountModel) -> tuple[int, float]:
    """(M, F(M)) for a two-sided rule on a support table, the argmax of the
    whole curve 0..top in the tie band, bit for bit, from F(0), the window
    r = r0..top with r0 = max(1, k_0 - 1), and the cutoffs below k_0 - 1
    that can reach the band.

    Below the first support point k_0 (k_0 >= 3), the curve's float values
    v(r) are the expression of `_parabola` on g(r) = c r (Ka + (k_0 - 1 - r)
    Ta), Ta = U2(k_0) and Ka = K(k_0) from the window's one suffix sum; at r
    = k_0 - 1 the window's value is that same expression.  g is concave,
    g(r) = c Ta (r*^2 - (r - r*)^2) with vertex r* = Ka/(2 Ta) + (k_0 - 1)/2,
    and v = g (1 + d), |d| <= 3u (u = 2^-53: a product, a sum of positives
    and a product; c is a power of 2).  Let q be an integer of [1, k_0 - 1]
    nearest rc, r* clamped to that range.  The maximum V of all values is at
    least v(q), and a cutoff in the band has v(r) >= V (1 - rho)(1 - 2u),
    rho = _TIE_REL, so g(r) >= (1 - b) g(q) with b <= rho + 8u < 2 rho.
    With r* inside the range, g(q) >= c Ta (r*^2 - 1/4) and so
    (r - r*)^2 <= b r*^2 + 1/4; with r* past an end, g(q) is that end's
    value and |r - q| <= sqrt(b) r*.  Either way |r - rc| <= sqrt(2 rho) r*
    + 1/2, and 1/2 more covers the rounding of r* and the integer ends.
    Only those integers are evaluated, by the expression of the curve: a
    value outside them misses the band, and so is not the maximum either.
    Ta > 0 there, since all the mass lies at k >= k_0 >= 3."""
    mom = SuffixMoments(*support(model))
    k0, top = int(mom.ks[0]), int(mom.ks[-1])
    r0 = max(1, k0 - 1)
    values = np.empty(max(top - r0 + 2, 1))  # F(0), F(r0), ..., F(top)
    values[0] = _first_value(variant, mom)
    runs = [(0, values)]
    if top >= r0:
        Ta, Ka = mom.cutoff_values(variant, r0, values[1:])
        if r0 > 1:
            vertex = Ka / (2.0 * Ta) + 0.5 * (k0 - 1)
            rc, h = min(max(vertex, 1.0), k0 - 1.0), vertex * math.sqrt(2.0 * _TIE_REL) + 1.0
            lo, hi = max(1, math.ceil(rc - h)), min(k0 - 2, math.floor(rc + h))
            below = np.arange(lo, hi + 1, dtype=float)
            _parabola(below, k0, Ta, Ka, np.empty(len(below)))
            below *= _TWO_SIDED[variant]
            runs = [(0, values[:1]), (lo, np.clip(below, 0.0, 1.0, out=below)), (r0, values[1:])]
    np.clip(values, 0.0, 1.0, out=values)
    return _band_argmax(runs)
