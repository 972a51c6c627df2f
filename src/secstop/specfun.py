"""Scalar special functions backing the closed forms used everywhere else.

All arithmetic is 64-bit float.  Every Poisson-side infinite sum (the upper
Poisson tail, I(lam), the sinh integral and the conditional expectations of
`exact`) goes through one kernel, `series`: a Kahan-compensated sum of
positive terms t_{k+1} = t_k * ratio(k), truncated under an explicit
TruncationPolicy so callers control the tail bound instead of inheriting a
hidden one.  Two tables grow once per process and are sliced by every later
call: the compensated harmonic numbers H_0..H_10^4 and ln k! = lgamma(k + 1),
which `poisson_pmf_array` reads instead of rebuilding it per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

EULER_GAMMA = 0.5772156649015329

# Below this the digamma/harmonic values come from an exact compensated sum;
# above it the asymptotic expansion is already accurate to < 1e-18.
_HARMONIC_EXACT_LIMIT = 10_000


class TruncationError(RuntimeError):
    """Raised when a series exhausts max_terms before meeting its tail bound."""


@dataclass(frozen=True)
class TruncationPolicy:
    """How far to push an infinite series.

    rel_tol is a relative tail bound (the estimated remainder must drop below
    rel_tol times the accumulated sum); max_terms is a hard iteration cap.
    """

    rel_tol: float = 1e-15
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError("rel_tol must lie in (0, 1e-6]")
        if self.max_terms < 64:
            raise ValueError("max_terms must be >= 64")


DEFAULT_POLICY = TruncationPolicy()

# Growing cache of harmonic numbers H_0, H_1, ... maintained with a Kahan
# carry so every cached value is correctly rounded for practical purposes.
_H: list[float] = [0.0]
_H_carry: float = 0.0


def _grow_harmonic(limit: int) -> None:
    global _H_carry
    s = _H[-1]
    c = _H_carry
    for k in range(len(_H), limit + 1):
        y = 1.0 / k - c
        t = s + y
        c = (t - s) - y
        s = t
        _H.append(s)
    _H_carry = c


def harmonic(m: int) -> float:
    """H_m = 1 + 1/2 + ... + 1/m (H_0 = 0): exact summation up to 10^4,
    psi(m + 1) + gamma from the asymptotic expansion above."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > _HARMONIC_EXACT_LIMIT:
        return digamma(m + 1) + EULER_GAMMA
    if m >= len(_H):
        _grow_harmonic(m)
    return _H[m]


def harmonic_numbers(limit: int) -> np.ndarray:
    """Array [H_0, H_1, ..., H_limit]: the compensated cache up to 10^4, the
    expansion of `harmonic` past it, written in place into the result in the
    order of operations of `_psi_asymptotic`."""
    head = min(limit, _HARMONIC_EXACT_LIMIT)
    if head >= len(_H):
        _grow_harmonic(head)
    out = np.empty(limit + 1)
    out[: head + 1] = _H[: head + 1]
    tail = out[head + 1 :]
    inv = np.arange(head + 2, limit + 2, dtype=float)  # m + 1 for m past the cache
    np.log(inv, out=tail)
    np.divide(1.0, inv, out=inv)
    tmp = np.multiply(0.5, inv)
    tail -= tmp
    inv2 = np.multiply(inv, inv, out=inv)
    tail -= np.divide(inv2, 12.0, out=tmp)
    inv2 *= inv2
    inv2 /= 120.0
    tail += inv2
    tail += EULER_GAMMA
    return out


# 2^-52: |x - fl(x)| <= eps |x| / 2 for every rounding of a double
_EPS = 2.0**-52
# harmonic_gap takes H_a - H_b from the expansion from this b on: two cached
# H differ by eps H absolute, 2.4e-12 relative at (2999, 2998)
_GAP_EXPANSION_FROM = 1000


def harmonic_gap(a: int, b: int) -> tuple[float, float]:
    """(d, e): d = H_a - H_b for a >= b >= 0 in floats, and a bound e on its
    error, |d - (H_a - H_b)| <= e.

    With b >= 1000, d is log1p((a - b)/b) plus the differences of the
    expansion's 1/(2m), 1/(12m^2) and 1/(120m^4) terms, each one correctly
    rounded integer quotient, so nothing cancels: e = 4 eps (1 + d) covers
    the rounded quotient, two ulps of log1p, the sum and the omitted
    1/(252 b^6) < 4e-21.  Otherwise d is H_a - H_b from the compensated
    cache (each value within 0.53 eps H of exact up to 10^4) or, past it,
    from the expansion of `harmonic` (within 4 eps H): e = 8 eps H_a.
    """
    if not 0 <= b <= a:
        raise ValueError("need 0 <= b <= a")
    if b >= _GAP_EXPANSION_FROM:
        a2, b2 = a * a, b * b
        d = math.log1p((a - b) / b) + (
            (b - a) / (2 * a * b) + (a2 - b2) / (12 * a2 * b2) + (b2 * b2 - a2 * a2) / (120 * a2 * a2 * b2 * b2)
        )
        return d, 4.0 * _EPS * (1.0 + d)
    ha = harmonic(a)
    return ha - harmonic(b), 8.0 * _EPS * ha


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


# 40-digit decimal harmonic numbers: gamma to 50 digits, and the expansion
# H_m = ln m + gamma + 1/(2m) - sum_k B_2k/(2k m^2k) through k = 7, whose
# remainder |B_16|/(16 m^16) is below 5e-49 from m = 1000 on; below that the
# sum is taken term by term
_DEC_PREC = 40
_DEC_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
_DEC_BERNOULLI = ((1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132), (-691, 32760), (1, 12))
_DEC_DIRECT = 1000
# longest sum of 1/k that harmonic_form_sign takes as an exact ratio before
# trying 40 digits: about 0.05 s of integer products
_RATIO_TERMS = 20_000


def _harmonic_decimal(m: int) -> Decimal:
    """H_m in the current decimal context."""
    if m < _DEC_DIRECT:
        return sum((1 / Decimal(k) for k in range(1, m + 1)), Decimal(0))
    x = Decimal(m)
    inv2 = 1 / (x * x)
    h = x.ln() + _DEC_GAMMA + 1 / (2 * x)
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
        with localcontext(Context(prec=_DEC_PREC)):
            gd = A * (_harmonic_decimal(a) - _harmonic_decimal(b)) - B
        if abs(gd) > (A + abs(B) + 1) * Decimal("1e-34"):
            return 1 if gd > 0 else -1
    p, q = harmonic_gap_ratio(a, b)
    v = A * p - B * q
    return (v > 0) - (v < 0)


def _psi_asymptotic(m: int) -> float:
    """ln m - 1/(2m) - 1/(12m^2) + 1/(120m^4): psi(m) for m > 10^4."""
    inv = 1.0 / m
    inv2 = inv * inv
    return math.log(m) - 0.5 * inv - inv2 / 12.0 + inv2 * inv2 / 120.0


def digamma(m: int) -> float:
    """psi(m) at a positive integer: H_{m-1} - gamma.

    Exact harmonic summation up to the cache limit, then the standard
    asymptotic expansion (`_psi_asymptotic`).
    """
    if m < 1:
        raise ValueError("digamma defined here for positive integers only")
    if m <= _HARMONIC_EXACT_LIMIT:
        return harmonic(m - 1) - EULER_GAMMA
    return _psi_asymptotic(m)


_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of w*e^w = x, the unique real solution with w >= -1.

    Halley iteration from a branch-aware initial guess; near the branch point
    x = -1/e the series in p = sqrt(2(e*x + 1)) is used directly.
    """
    if x < _BRANCH_POINT:
        # allow for the representation error of -1/e itself
        if x < _BRANCH_POINT - 1e-12:
            raise ValueError("lambert_w0 requires x >= -1/e")
        x = _BRANCH_POINT
    if x == 0.0:
        return 0.0
    p2 = 2.0 * (math.e * x + 1.0)
    if p2 <= 0.0:
        return -1.0
    if p2 < 1e-6:
        # so close to the branch point that Halley would divide by ~0
        p = math.sqrt(p2)
        return -1.0 + p - p2 / 3.0 + 11.0 * p * p2 / 72.0
    if x < 0.0:
        p = math.sqrt(p2)
        w = -1.0 + p - p2 / 3.0 + 11.0 * p * p2 / 72.0
    elif x < math.e:
        w = x / (1.0 + x)  # crude but inside the basin
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def log_factorial(k: int) -> float:
    """ln(k!) for k >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.lgamma(k + 1.0)


def poisson_log_pmf(k: int, lam: float) -> float:
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    return k * math.log(lam) - lam - log_factorial(k)


def poisson_pmf(k: int, lam: float) -> float:
    """p(X = k) for X ~ Poisson(lam), evaluated in log space."""
    return math.exp(poisson_log_pmf(k, lam))


# Growing cache of ln k! = lgamma(k + 1.0) for k = 0, 1, ...; each value is
# math.lgamma's own, so slicing it gives the bits of a per-call table.
_LN_FACT = np.zeros(1)


def _log_factorials(k_max: int) -> np.ndarray:
    """[ln 0!, ..., ln k_max!], a view into the process-wide cache."""
    global _LN_FACT
    table = _LN_FACT  # sliced below even if another thread swaps the cache
    have = len(table)
    if k_max >= have:
        more = np.fromiter(map(math.lgamma, range(have + 1, k_max + 2)), float, k_max + 1 - have)
        table = _LN_FACT = np.concatenate([table, more])
    return table[: k_max + 1]


def poisson_pmf_array(lam: float, k_max: int) -> np.ndarray:
    """[pmf(0), ..., pmf(k_max)] in one log-space vector evaluation,
    k ln(lam) - lam - ln k!, with ln k! sliced from the cache."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    logs = np.arange(k_max + 1) * math.log(lam)
    logs -= lam
    logs -= _log_factorials(k_max)
    return np.exp(logs, out=logs)


def series(
    term: float, ratio, k: int = 0, tp: TruncationPolicy = DEFAULT_POLICY, weight=None
) -> float:
    """Sum of positive terms t_k, t_{k+1} = t_k * ratio(k), from the given k
    and first term; with weight, the weighted mean sum t_k w(k) / sum t_k.

    Both sums are Kahan-compensated.  The series stops once a term is 0, or
    once ratio(k) = q < 1 bounds the remaining tail, term q/(1 - q), below
    tp.rel_tol times the sum; TruncationError once tp.max_terms are used.
    With weight, a term past 2^900 rescales the term, both sums and their
    carries by the exact 2^-900, so conditional series, whose terms reach
    lam^(k-r) r!/k!, do not overflow; below 2^900 no bit changes.
    """
    s = c = ws = wc = 0.0
    for _ in range(tp.max_terms):
        if weight is not None:
            y = term * weight(k) - wc
            t = ws + y
            wc = (t - ws) - y
            ws = t
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        q = ratio(k)
        if term == 0.0 or (q < 1.0 and term * q / (1.0 - q) < tp.rel_tol * s):
            return s if weight is None else ws / s
        term *= q
        k += 1
        if weight is not None and term > 2.0**900:
            term, s, c, ws, wc = (x * 2.0**-900 for x in (term, s, c, ws, wc))
    raise TruncationError("series did not converge under the policy")


def poisson_tail(r: int, lam: float, tp: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Psi(r, lam) = p(X >= r) for X ~ Poisson(lam)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if r == 0:
        return 1.0
    if r <= lam + 1.0:
        # complement of a short head sum: better conditioned than the tail
        term = math.exp(-lam)
        if term < np.finfo(float).tiny:
            # exp(-lam) is subnormal or 0 (lam > 708.4): sum down from k = r - 1
            return max(0.0, 1.0 - series(poisson_pmf(r - 1, lam), lambda j: (r - 1 - j) / lam, 0, tp))
        acc = 0.0
        c = 0.0
        for k in range(r):
            y = term - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            term *= lam / (k + 1.0)
        return max(0.0, 1.0 - acc)
    # an underflowed leading term ends the series at 0: the tail is < 1e-300
    return series(poisson_pmf(r, lam), lambda k: lam / (k + 1.0), r, tp)


def ein_series(lam: float, tp: TruncationPolicy = DEFAULT_POLICY) -> float:
    """I(lam) = integral_0^lam (e^x - 1)/x dx = sum_{k>=1} lam^k / (k * k!)."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return series(lam, lambda k: lam * k / ((k + 1.0) * (k + 1.0)), 1, tp)


def sinh_integral(lam: float, tp: TruncationPolicy = DEFAULT_POLICY) -> float:
    """S(lam) = integral_0^lam sinh(x)/x dx = sum_j lam^(2j+1)/((2j+1)(2j+1)!)."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")

    def ratio(j: int) -> float:
        m = 2 * j + 1
        return lam * lam * m / ((m + 2.0) * (m + 2.0) * (m + 1.0))

    return series(lam, ratio, 0, tp)
