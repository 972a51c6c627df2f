"""Scalar special functions backing the closed forms used everywhere else.

All arithmetic is 64-bit float.  The two infinite sums of the estimators,
I(lam) and the sinh integral, go through one kernel, `series`: a
Kahan-compensated sum of positive terms t_{k+1} = t_k * ratio(k), stopped
by one rule, a relative tail bound of 1e-15, and capped at 10^6 terms,
past which it raises TruncationError rather than return a short sum.  The
harmonic numbers H_0..H_10^4 are one compensated table that grows once per
process; past it, H_m is the table's H_1000 plus H_m - H_1000 from the one
float expansion of a harmonic gap, which `harmonic_gap` takes for every gap
from H_1000 up.  The Poisson pmf is Loader's
saddle-point form, exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k):
stirlerr, the error of Stirling's formula, from a table and a five-term
series, and bd0 = k ln(k/lam) + lam - k from a series without
cancellation for lam/2 < k < 2 lam and directly elsewhere.  Each mass is
within 4e-15 of exact wherever p(k) >= 1e-6 p(mode), and within 4e-13 down
to the smallest normal float.  `poisson_pmf_array` evaluates it over the
window of k it is asked for, in blocks of k, so a Poisson table costs the
length of its window, not of 0..k_max, and a window of one k has that k's
bits in every table.  The Poisson mass window lives here too, from the
`chernoff_point` to Bennett's `poisson_k_max`, each end leaving out at most
e^-72 of the mass, at most _MAX_WINDOW points; so do the step table of X
given X >= r, by pmf ratios, and the tail p(X >= r), one mass times its sum.

numpy is imported on first use: `np` here is the package's one binding of
it, and a command that stays on the scalar paths never loads it.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from array import array


def _lazy_numpy():
    """numpy as it is in sys.modules, or a module that imports it on its
    first attribute access (`importlib.util.LazyLoader`); either way the
    object that `import numpy` gives from then on."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

EULER_GAMMA = 0.5772156649015329


# `series` stops once its estimated remainder is below _REL_TOL times the
# sum, and gives up with TruncationError after _MAX_TERMS terms.  Both are
# read at call time, so a test can lower the cap to reach that error.
_REL_TOL = 1e-15
_MAX_TERMS = 1_000_000


class TruncationError(RuntimeError):
    """Raised when a series reaches its term cap before its tail bound."""


# Growing cache of harmonic numbers H_0, H_1, ..., H_10^4 at most, summed
# with a Kahan carry, which is kept per entry: _H[m] - _H_CARRY[m] undoes the
# rounding of the running sum, which `harmonic_gap` needs where two cached
# values cancel.  Past the cache, H_m is the cached H_1000 plus the
# expansion of H_m - H_1000, `_expansion_gap`.
_H = array("d", [0.0])
_H_CARRY = array("d", [0.0])
_CACHE_TOP = 10_000
# 2^-52: |x - fl(x)| <= eps |x| / 2 for every rounding of a double
_EPS = 2.0**-52
# the expansion of H_a - H_b is taken from this b on
_EXPANSION_FROM = 1000


def _grow_harmonic(limit: int) -> None:
    s = _H[-1]
    c = _H_CARRY[-1]
    for k in range(len(_H), limit + 1):
        y = 1.0 / k - c
        t = s + y
        c = (t - s) - y
        s = t
        _H.append(s)
        _H_CARRY.append(c)


def harmonic(m: int) -> float:
    """H_m = 1 + 1/2 + ... + 1/m (H_0 = 0): the compensated sum up to 10^4,
    the cached H_1000 plus `_expansion_gap(m, 1000)` above."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > _CACHE_TOP:
        return harmonic(_EXPANSION_FROM) + _expansion_gap(m, _EXPANSION_FROM)
    if m >= len(_H):
        _grow_harmonic(m)
    return _H[m]


def harmonic_numbers(limit: int) -> np.ndarray:
    """Array [H_0, H_1, ..., H_limit], each entry `harmonic`'s."""
    return np.fromiter(map(harmonic, range(limit + 1)), float, limit + 1)


def _expansion_gap(a: int, b: int) -> float:
    """H_a - H_b for a >= b >= 1000: log1p((a - b)/b) plus the differences
    of the expansion's 1/(2m), 1/(12m^2) and 1/(120m^4) terms, each one
    correctly rounded integer quotient, so nothing cancels; within 4 eps
    (1 + d) of exact, d the result, which covers the rounded quotient, two
    ulps of log1p, the sum and the omitted 1/(252 b^6) < 4e-21."""
    a2, b2 = a * a, b * b
    return math.log1p((a - b) / b) + (
        (b - a) / (2 * a * b) + (a2 - b2) / (12 * a2 * b2) + (b2 * b2 - a2 * a2) / (120 * a2 * a2 * b2 * b2)
    )


def harmonic_gap(a: int, b: int) -> tuple[float, float]:
    """(d, e): d = H_a - H_b for a >= b >= 0 in floats, and a bound e on its
    error, |d - (H_a - H_b)| <= e.

    With b >= 1000, d is `_expansion_gap(a, b)` and e = 4 eps (1 + d).
    Otherwise, up to a = 10^4, d is the difference of two cached sums less
    the difference of their Kahan carries, so the cancelling leading bits
    drop out; each cached sum is within 0.53 eps H of exact and each carry
    below eps H, so e = 8 eps H_a.  Past the cache, d is that gap up to
    1000 plus `_expansion_gap(a, 1000)`, and e is the sum of their two
    bounds and eps d for the rounding of the sum.
    """
    if not 0 <= b <= a:
        raise ValueError("need 0 <= b <= a")
    if b >= _EXPANSION_FROM:
        d = _expansion_gap(a, b)
        return d, 4.0 * _EPS * (1.0 + d)
    if a > _CACHE_TOP:
        h, e = harmonic_gap(_EXPANSION_FROM, b)
        x = _expansion_gap(a, _EXPANSION_FROM)
        return h + x, e + 4.0 * _EPS * (1.0 + x) + _EPS * (h + x)
    ha = harmonic(a)
    return (ha - _H[b]) - (_H_CARRY[a] - _H_CARRY[b]), 8.0 * _EPS * ha


def harmonic_gap_ratio(a: int, b: int) -> tuple[int, int]:
    """(p, q) with p/q = H_a - H_b exactly, for a >= b >= 0: the sum of 1/k
    over b < k <= a by binary splitting, not reduced (q = a!/b!)."""
    if not 0 <= b <= a:
        raise ValueError("need 0 <= b <= a")

    def split(lo: int, hi: int) -> tuple[int, int]:  # sum of 1/k, lo <= k < hi
        if hi - lo == 1:
            return 1, lo
        mid = (lo + hi) // 2
        p1, q1 = split(lo, mid)
        p2, q2 = split(mid, hi)
        return p1 * q2 + p2 * q1, q1 * q2

    return split(b + 1, a + 1) if a > b else (0, 1)


# 40-digit decimal harmonic numbers: gamma to 50 digits (a string, so that
# only this branch imports decimal), and the expansion
# H_m = ln m + gamma + 1/(2m) - sum_k B_2k/(2k m^2k) through k = 6, whose
# remainder |B_14|/(14 m^14) = 1/(12 m^14) is below 1e-43 from m = 1000 on,
# under 40 digits; below that the sum is taken term by term
_DEC_PREC = 40
_DEC_GAMMA = "0.57721566490153286060651209008240243104215933593992"
_DEC_BERNOULLI = ((1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132), (-691, 32760))
# longest sum of 1/k that harmonic_form_sign takes as an exact ratio before
# trying 40 digits: about 0.05 s of integer products
_RATIO_TERMS = 20_000


def _harmonic_decimal(m: int) -> Decimal:
    """H_m in the current decimal context."""
    from decimal import Decimal

    if m < _EXPANSION_FROM:
        return sum((1 / Decimal(k) for k in range(1, m + 1)), Decimal(0))
    x = Decimal(m)
    inv2 = 1 / (x * x)
    h = x.ln() + Decimal(_DEC_GAMMA) + 1 / (2 * x)
    power = inv2
    for num, den in _DEC_BERNOULLI:
        h -= num * power / den
        power *= inv2
    return h


def harmonic_form_sign(A: int, a: int, b: int, B: int) -> int:
    """The sign (-1, 0 or 1) of g = A (H_a - H_b) - B for integers A >= 0
    and a >= b >= 0, certified.

    Floats decide when |g| exceeds A e + eps (A d + |B|), the error bound of
    `harmonic_gap` carried through the product and the difference.  Inside
    that bound, a range of more than 2*10^4 terms is taken at 40 digits,
    which decide when |g| exceeds (A + |B| + 1) 1e-34 (the decimal gap is
    within 1e-35); whatever is left is decided by the exact ratio of
    `harmonic_gap_ratio`, in integers.
    """
    d, e = harmonic_gap(a, b)
    g = A * d - B
    if abs(g) > A * e + _EPS * (A * d + abs(B)):
        return 1 if g > 0 else -1
    if a - b > _RATIO_TERMS:
        from decimal import Context, Decimal, localcontext

        with localcontext(Context(prec=_DEC_PREC)):
            gd = A * (_harmonic_decimal(a) - _harmonic_decimal(b)) - B
        if abs(gd) > (A + abs(B) + 1) * Decimal("1e-34"):
            return 1 if gd > 0 else -1
    p, q = harmonic_gap_ratio(a, b)
    v = A * p - B * q
    return (v > 0) - (v < 0)


def lambert_w0(x: float) -> float:
    """The principal branch of w e^w = x for -1/e < x < 0, where -1 < w < 0
    (ValueError outside): the series about the branch point in p = sqrt(2(e
    x + 1)), as it is where p^2 < 1e-6, so close to -1/e that Halley would
    divide by about 0, and refined by Halley iteration elsewhere."""
    if not -math.exp(-1.0) < x < 0.0:
        raise ValueError("lambert_w0 requires -1/e < x < 0")
    p2 = 2.0 * (math.e * x + 1.0)
    p = math.sqrt(p2)
    w = -1.0 + p - p2 / 3.0 + 11.0 * p * p2 / 72.0
    if p2 < 1e-6:
        return w
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


# stirlerr(k) = ln k! - ln(sqrt(2 pi k) (k/e)^k), the error of Stirling's
# formula, at k = 1..15 (entry 0 is unused); above 15 it is the series of
# `_stirlerr_series`, whose first omitted term is below 1.1e-16
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
# near lam, bd0 = (k - lam) v + k v w q(w), with v = (k - lam)/(k + lam), w =
# v^2 and q(w) = sum_{j=0}^{15} a_j w^j, a_j = 2/(2j + 3): 16 terms at every
# k and rate, so that a mass's bits depend on (k, lam) alone; at |v| < 1/3
# the rest is below 1e-17 of bd0.  Horner's order, a_15 first.
_BD0_Q = tuple(2.0 / (2 * j + 3) for j in range(15, -1, -1))
_TWO_PI = 2.0 * math.pi
# masses are evaluated this many k at a time, so every temporary is a block
_PMF_BLOCK = 8192


def _stirlerr_series(x):
    """stirlerr at x >= 16: S0/x - S1/x^3 + S2/x^5 - S3/x^7 + S4/x^9."""
    xx = x * x
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / xx) / xx) / xx) / xx) / x


def _bd0_near(x, lam):
    """bd0(x, lam) = x ln(x/lam) + lam - x for lam/2 < x < 2 lam, where
    |v| < 1/3 and x - lam is exact, as two parts (tail, lead): lead =
    (x - lam)^2/(x + lam) and tail = x v w q(w), q's coefficients _BD0_Q.
    Nothing cancels, and the caller takes the large lead last, so that it
    is rounded once."""
    d = x - lam
    s = x + lam
    v = d / s
    w = v * v
    acc = w * _BD0_Q[0]
    for c in _BD0_Q[1:-1]:
        acc += c
        acc *= w
    acc += _BD0_Q[-1]
    acc *= w
    v *= x
    acc *= v
    d *= d
    d /= s
    return acc, d


def _bd0_far(x, lam):
    """bd0(x, lam) by its direct form, for x <= lam/2 or x >= 2 lam."""
    return x * np.log(x / lam) + (lam - x)


def _pmf_block(lam: float, a: int, out: np.ndarray) -> None:
    """The masses at k = a, ..., a + len(out) - 1 (a >= 1), into out, as
    exp(-stirlerr(k) - bd0(k, lam))/sqrt(2 pi k) over the whole block.
    stirlerr's table (k < 16) and series, and bd0's direct and near forms,
    each cover a contiguous slice of k; the direct form is taken once over
    the span of its slices below and above the near one."""
    n = len(out)
    x = np.arange(a, a + n, dtype=float)
    cut = min(max(len(_STIRLERR) - a, 0), n)  # out[:cut] is in the table
    out[:cut] = _STIRLERR[a : a + cut]
    out[cut:] = _stirlerr_series(x[cut:])
    np.negative(out, out=out)
    # lam/2 < k < 2 lam: near_lo <= k - a < near_hi
    near_lo = min(max(math.floor(lam / 2) + 1 - a, 0), n)
    near_hi = min(max(math.ceil(2 * lam) - a, near_lo), n)
    far = [(lo, hi) for lo, hi in ((0, near_lo), (near_hi, n)) if lo < hi]
    if far:
        first = far[0][0]
        bd0 = _bd0_far(x[first : far[-1][1]], lam)
        for lo, hi in far:
            out[lo:hi] -= bd0[lo - first : hi - first]
    if near_lo < near_hi:
        tail, lead = _bd0_near(x[near_lo:near_hi], lam)
        out[near_lo:near_hi] -= tail
        out[near_lo:near_hi] -= lead
    np.exp(out, out=out)
    x *= _TWO_PI
    out /= np.sqrt(x, out=x)


def poisson_pmf_array(lam: float, k_max: int, k_lo: int = 0) -> np.ndarray:
    """[pmf(k_lo), ..., pmf(k_max)], exp(-lam) at k = 0, in blocks of
    _PMF_BLOCK k, so that every temporary is a block whatever the window;
    each mass has the bits it has in a table from k = 0."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    out = np.empty(max(0, k_max + 1 - k_lo))
    start = k_lo
    if k_lo == 0 and len(out):
        out[0] = math.exp(-lam)
        start = 1
    for a in range(start, k_max + 1, _PMF_BLOCK):
        _pmf_block(lam, a, out[a - k_lo : a - k_lo + _PMF_BLOCK])
    return out


def series(term: float, ratio, k: int = 0) -> float:
    """Sum of positive terms t_k, t_{k+1} = t_k * ratio(k), from the given k
    and first term, Kahan-compensated.  The series stops once a term is 0,
    or once ratio(k) = q < 1 bounds the remaining tail, term q/(1 - q),
    below _REL_TOL = 1e-15 times the sum; TruncationError after _MAX_TERMS =
    10^6 terms.
    """
    s = c = 0.0
    for _ in range(_MAX_TERMS):
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        q = ratio(k)
        if term == 0.0 or (q < 1.0 and term * q / (1.0 - q) < _REL_TOL * s):
            return s
        term *= q
        k += 1
    raise TruncationError(f"series did not converge within {_MAX_TERMS} terms")


# the longest Poisson mass window, `chernoff_point` to `poisson_k_max`, that a
# support or a step table may hold: 160 MB of masses at about lam = 6.94e11
_MAX_WINDOW = 2 * 10**7


def chernoff_point(lam: float) -> int:
    """g = max(0, floor(lam - t)), t = 12 sqrt(lam): p(X < g) <= p(X <= lam - t)
    <= exp(-t^2/(2 lam)) = e^-72 by Chernoff, the top's bound.  The mass at g
    is above e^-146 at every rate the cap admits (e^-lam at g = 0): never 0.0."""
    return max(0, math.floor(lam - 12.0 * math.sqrt(lam)))


def poisson_k_max(lam: float) -> int:
    """Top of the Poisson support, ceil(lam + t), t = 12 sqrt(lam) + 50:
    Bennett's p(X >= lam + t) <= exp(-t^2/(2(lam + t/3))) is below e^-72 at
    every rate, since t^2 - 144 (lam + t/3) = 624 sqrt(lam) + 100 > 0.
    RuntimeError, before any table is built, where the window from
    `chernoff_point` up to it is longer than _MAX_WINDOW points."""
    k = int(math.ceil(lam + 12.0 * math.sqrt(lam) + 50.0))
    window = k - chernoff_point(lam) + 1
    if window > _MAX_WINDOW:
        raise RuntimeError(
            f"the mass window of Poisson(lam={lam!r}) holds {window} points, past the cap of {_MAX_WINDOW}"
        )
    return k


def poisson_step_table(lam: float, r: int) -> tuple[np.ndarray, np.ndarray]:
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


def poisson_tail(r: int, lam: float) -> float:
    """Psi(r, lam) = p(X >= r) for X ~ Poisson(lam): 1.0 up to the
    `chernoff_point` g, where the head is below e^-72 and 1 - e^-72 rounds
    to 1.0, and p(a) times the sum of `poisson_step_table` above it, a =
    max(r, floor(lam)) the table's anchor, clipped to 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if r <= chernoff_point(lam):
        return 1.0
    ps = poisson_step_table(lam, r)[1]
    a = max(r, math.floor(lam))
    return min(1.0, float(poisson_pmf_array(lam, a, a)[0]) * float(np.sum(ps)))


def ein_series(lam: float) -> float:
    """I(lam) = integral_0^lam (e^x - 1)/x dx = sum_{k>=1} lam^k / (k * k!)."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return series(lam, lambda k: lam * k / ((k + 1.0) * (k + 1.0)), 1)


def sinh_integral(lam: float) -> float:
    """S(lam) = integral_0^lam sinh(x)/x dx = sum_j lam^(2j+1)/((2j+1)(2j+1)!)."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")

    def ratio(j: int) -> float:
        m = 2 * j + 1
        return lam * lam * m / ((m + 2.0) * (m + 2.0) * (m + 1.0))

    return series(lam, ratio)
