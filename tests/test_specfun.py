"""Special-function unit tests.

Every value here is pinned against an independent route: scipy's
implementations, adaptive quadrature of the defining integrals, or direct
partial sums — never against the module under test.  The one
same-algorithm comparisons are the bit-identity checks of the series kernel
against the loops it replaced, of the cached ln k! table against the
per-call one, and of the in-place harmonic table against the concatenated
one, kept below as references.
"""

import math
from decimal import Context, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from secstop import specfun
from secstop.core_model import poisson_k_max
from secstop.specfun import (
    DEFAULT_POLICY,
    EULER_GAMMA,
    TruncationError,
    TruncationPolicy,
    digamma,
    ein_series,
    harmonic,
    harmonic_form_sign,
    harmonic_gap,
    harmonic_gap_ratio,
    harmonic_numbers,
    lambert_w0,
    log_factorial,
    poisson_pmf,
    poisson_pmf_array,
    poisson_tail,
    series,
    sinh_integral,
)


def test_truncation_policy_validation():
    TruncationPolicy(rel_tol=1e-12, max_terms=100)
    with pytest.raises(ValueError):
        TruncationPolicy(rel_tol=1e-3)
    with pytest.raises(ValueError):
        TruncationPolicy(rel_tol=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(max_terms=10)


def test_harmonic_small_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert abs(harmonic(2) - 1.5) == 0.0
    # direct fraction sum for H_10 = 7381/2520
    assert abs(harmonic(10) - 7381 / 2520) < 1e-15


def test_harmonic_numbers_matches_scalar():
    hs = harmonic_numbers(2000)
    assert hs[0] == 0.0
    for m in (1, 2, 17, 999, 2000):
        assert hs[m] == harmonic(m)


@pytest.mark.parametrize("m", [10**4, 10**4 + 1, 5 * 10**4, 10**6])
def test_harmonic_past_the_cache_against_mpmath(m):
    with mpmath.workdps(40):
        ref = mpmath.harmonic(m)
    assert abs(harmonic(m) - ref) < 1e-15 * ref
    assert abs(harmonic_numbers(m)[m] - ref) < 1e-15 * ref


def _concatenated_harmonic_numbers(limit: int) -> np.ndarray:
    """harmonic_numbers as it was before it wrote in place, kept verbatim:
    the expansion on whole arrays, one fresh array per operation."""
    head = min(limit, 10_000)
    m = np.arange(head + 2, limit + 2, dtype=float)
    inv = 1.0 / m
    inv2 = inv * inv
    psi = np.log(m) - 0.5 * inv - inv2 / 12.0 + inv2 * inv2 / 120.0
    return np.concatenate([harmonic_numbers(head), psi + EULER_GAMMA])


@pytest.mark.parametrize("limit", [0, 1, 10_000, 10_001, 10_017, 20_000, 10**6])
def test_harmonic_numbers_bit_equal_to_the_concatenated_form(limit):
    assert harmonic_numbers(limit).tobytes() == _concatenated_harmonic_numbers(limit).tobytes()


def test_harmonic_numbers_past_the_cache_match_scalar():
    hs = harmonic_numbers(60_000)
    assert len(hs) == 60_001
    assert np.array_equal(hs[:10_001], harmonic_numbers(10_000))
    for m in (10_001, 10_002, 12_345, 33_333, 59_999, 60_000):
        h = harmonic(m)
        assert abs(hs[m] - h) <= math.ulp(h)


def _gap_pairs(seed, count):
    """(a, b) with a >= b >= 0 in the regimes of harmonic_gap: both in the
    cache, a past it, both past it, with b below or above 1000, where the
    differences come from the expansion."""
    rng = np.random.default_rng(seed)
    pairs = [(0, 0), (1, 0), (10_000, 0), (10_001, 10_000), (10_002, 10_001), (10**15, 10**15 - 1)]
    for _ in range(count):
        a = int(rng.integers(1, 10_001))
        pairs.append((a, int(rng.integers(0, a + 1))))
        a = int(10 ** rng.uniform(4.01, 15))
        pairs.append((a, int(rng.integers(0, 10_001))))
        pairs.append((a, int(rng.integers(10_001, a + 1))))
    return pairs


def test_harmonic_gap_within_its_error_bound():
    with mpmath.workdps(50):
        for a, b in _gap_pairs(3, 300):
            d, e = harmonic_gap(a, b)
            ref = mpmath.harmonic(a) - mpmath.harmonic(b)
            assert abs(d - ref) <= e, (a, b)
            assert e <= 1e-13 * max(1.0, ref)


def test_harmonic_gap_ratio_is_exact():
    for a, b in [(0, 0), (1, 0), (7, 3), (100, 99), (300, 17)]:
        p, q = harmonic_gap_ratio(a, b)
        assert Fraction(p, q) == sum((Fraction(1, k) for k in range(b + 1, a + 1)), Fraction(0))
    with pytest.raises(ValueError):
        harmonic_gap(3, 4)


def test_decimal_harmonic_within_1e_35():
    with mpmath.workdps(60), localcontext(Context(prec=40)):
        for m in (0, 1, 999, 1000, 1001, 54_321, 10**9, 10**15):
            ref = mpmath.harmonic(m)
            assert abs(mpmath.mpf(str(specfun._harmonic_decimal(m))) - ref) <= 1e-35 * max(1, ref), m


def _mp_form_sign(A, a, b, B):
    with mpmath.workdps(80):
        return int(mpmath.sign(A * (mpmath.harmonic(a) - mpmath.harmonic(b)) - B))


def test_harmonic_form_sign_decides_exact_ties_in_integers():
    # with A(H_a - H_b) = B exactly (H_3 - H_1 = 5/6, H_2000 - H_1999 =
    # 1/2000), g = 0 sits inside every float bound and the ratio decides it
    for a, b in [(3, 1), (10, 4), (30, 20), (2000, 1999)]:
        f = Fraction(*harmonic_gap_ratio(a, b))
        A, B = f.denominator, f.numerator
        assert harmonic_form_sign(A, a, b, B) == 0
        assert harmonic_form_sign(A, a, b, B - 1) == 1
        assert harmonic_form_sign(A, a, b, B + 1) == -1


def test_harmonic_form_sign_at_40_digits_where_floats_cannot_decide(monkeypatch):
    # |g| < 1 at A = 10^15 is far inside the float bound (about A eps); the
    # ranges are longer than the exact ratio takes, so 40 digits decide
    def no_ratio(a, b):
        raise AssertionError("the exact ratio was not needed")

    monkeypatch.setattr(specfun, "harmonic_gap_ratio", no_ratio)
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = int(10 ** rng.uniform(5, 12))
        b = int(rng.integers(0, a - 20_001))
        A = 10**15
        with mpmath.workdps(60):
            B = int(mpmath.nint(A * (mpmath.harmonic(a) - mpmath.harmonic(b))))
        d, e = harmonic_gap(a, b)
        assert abs(A * d - B) <= A * e + 2.0**-52 * (A * d + B)
        assert harmonic_form_sign(A, a, b, B) == _mp_form_sign(A, a, b, B), (a, b)


def test_harmonic_form_sign_against_mpmath():
    rng = np.random.default_rng(7)
    for a, b in _gap_pairs(5, 100):
        A = int(rng.integers(1, 10**6))
        with mpmath.workdps(40):
            B = int(mpmath.nint(A * (mpmath.harmonic(a) - mpmath.harmonic(b)))) + int(rng.integers(-2, 3))
        assert harmonic_form_sign(A, a, b, B) == _mp_form_sign(A, a, b, B), (A, a, b, B)


def test_digamma_frozen_values():
    assert abs(digamma(1) - (-EULER_GAMMA)) < 1e-15
    assert abs(digamma(2) - (1.0 - EULER_GAMMA)) < 1e-15
    # H_9 - gamma, summed independently here
    h9 = sum(1.0 / k for k in range(1, 10))
    assert abs(digamma(10) - (h9 - EULER_GAMMA)) < 1e-14
    assert abs(digamma(10) - 2.251752589066721) < 1e-14


def test_digamma_against_scipy_both_branches():
    for m in [1, 2, 3, 50, 9999, 10000, 10001, 50000, 1000000]:
        assert abs(digamma(m) - special.digamma(m)) < 1e-12 * max(1.0, abs(special.digamma(m)))


@given(st.integers(min_value=2, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence(m):
    assert abs(digamma(m + 1) - digamma(m) - 1.0 / m) < 1e-13


def test_lambert_frozen_values():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) < 1e-14
    w = lambert_w0(-2.0 * math.exp(-2.0))
    assert abs(w - (-0.40637573995996)) < 1e-13
    assert abs(-0.5 * w - 0.20318786997998) < 1e-13
    # exact branch point
    assert abs(lambert_w0(-math.exp(-1.0)) - (-1.0)) < 1e-6


def test_lambert_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-0.5)


@given(st.floats(min_value=-0.9999 / math.e, max_value=10.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_lambert_residual(x):
    w = lambert_w0(x)
    assert w >= -1.0 - 1e-12
    assert abs(w * math.exp(w) - x) < 1e-13 * max(1.0, abs(x))


def test_lambert_against_scipy_grid():
    # adjacent to -1/e the float evaluation of e*x + 1 cancels ~8 digits, so
    # any double implementation (scipy included) only pins w to ~2e-12 there
    xs = np.linspace(-1.0 / math.e + 1e-9, 10.0, 97)
    for x in xs:
        ref = special.lambertw(x).real
        assert abs(lambert_w0(float(x)) - ref) < 1e-11 * max(1.0, abs(ref))


def test_log_factorial():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert abs(log_factorial(10) - math.log(3628800)) < 1e-14
    assert abs(log_factorial(10) - 15.104412573075516) < 1e-13


def test_poisson_pmf_values():
    assert abs(poisson_pmf(0, 1.0) - math.exp(-1.0)) < 1e-16
    assert abs(poisson_pmf(1, 1.0) - math.exp(-1.0)) < 1e-16
    ref = stats.poisson.pmf(200, 200)
    assert abs(poisson_pmf(200, 200.0) - ref) < 1e-14
    assert abs(poisson_pmf(200, 200.0) - 0.0281977276859208) < 1e-12


def test_poisson_pmf_array_normalizes():
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        k_max = int(lam + 12 * math.sqrt(lam) + 50)
        p = poisson_pmf_array(lam, k_max)
        assert abs(p.sum() - 1.0) < 1e-12
        assert abs(p[3] - stats.poisson.pmf(3, lam)) < 1e-15


def _listcomp_poisson_pmf_array(lam: float, k_max: int) -> np.ndarray:
    """poisson_pmf_array as it was before the ln k! cache, kept verbatim."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    k = np.arange(k_max + 1)
    logs = k * math.log(lam) - lam - np.array([math.lgamma(i + 1.0) for i in range(k_max + 1)])
    return np.exp(logs)


def test_poisson_pmf_array_bit_equal_to_the_per_call_table(monkeypatch):
    # a fresh cache, grown upward by rising rates, read downward by smaller
    # ones, then grown again past a gap
    monkeypatch.setattr(specfun, "_LN_FACT", np.zeros(1))
    rates = [0.01, 0.1, 2.0, 30.0, 1e3, 1e4, 0.5, 5.0, 3000.0, 1e5, 0.01, 700.0]
    sizes = [(lam, poisson_k_max(lam)) for lam in rates] + [(1.0, 0), (1.0, 1), (2.5, 150_000)]
    for lam, k_max in sizes:
        got = poisson_pmf_array(lam, k_max)
        assert got.tobytes() == _listcomp_poisson_pmf_array(lam, k_max).tobytes(), (lam, k_max)
    assert len(specfun._LN_FACT) == 150_001


def test_poisson_tail_values():
    assert poisson_tail(0, 3.0) == 1.0
    assert abs(poisson_tail(1, 1.0) - (1.0 - math.exp(-1.0))) < 1e-15
    assert abs(poisson_tail(5, 3.0) - 0.18473675547622787) < 1e-13
    # deep tail, far beyond the mean
    ref = stats.poisson.sf(39, 2.0)
    assert abs(poisson_tail(40, 2.0) - ref) < 1e-12 * max(ref, 1e-300)


@given(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.3, max_value=30.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_poisson_tail_complement(r, lam):
    head = sum(poisson_pmf(k, lam) for k in range(r))
    assert abs(poisson_tail(r, lam) + head - 1.0) < 1e-12


def _head_cutoffs(lam: float) -> list[int]:
    """r = 1, lam/2, lam - 3 sqrt(lam), floor(lam) and floor(lam) + 1: every
    one at or below lam + 1, where the tail is the complement of a head sum."""
    f = math.floor(lam)
    return [1, int(lam / 2), int(lam - 3.0 * math.sqrt(lam)), f, f + 1]


@pytest.mark.parametrize("lam", [701.0, 720.0, 1000.0, 5000.0])
def test_poisson_tail_head_at_large_rates_against_mpmath(lam):
    # exp(-lam) is subnormal from lam = 708 and 0 from 746 on, so a head sum
    # started at k = 0 gives exactly 1.0 at (1001, 1000), where the tail is
    # 0.4916; the regularized lower gamma P(r, lam) is p(X >= r)
    for r in _head_cutoffs(lam):
        with mpmath.workdps(40):
            ref = float(mpmath.gammainc(r, 0, lam, regularized=True))
        assert abs(poisson_tail(r, lam) - ref) <= 5e-11 * ref, (r, lam)


def test_poisson_tail_truncation_error():
    with pytest.raises(TruncationError):
        poisson_tail(120, 100.0, TruncationPolicy(rel_tol=1e-15, max_terms=64))


def _ein(lam: float) -> float:
    """E(lam) = gamma + ln(lam) + I(lam), with I from `ein_series`."""
    return EULER_GAMMA + math.log(lam) + ein_series(lam)


def test_ein_frozen_values():
    # E(1) = gamma + sum 1/(k*k!)
    s = sum(1.0 / (k * math.factorial(k)) for k in range(1, 40))
    assert abs(_ein(1.0) - (EULER_GAMMA + s)) < 1e-14
    assert abs(_ein(1.0) - 1.8951178163559368) < 1e-13
    assert abs(_ein(10.0) - 2492.228976241877) < 1e-9 * 2492.0
    # scipy's expi equals gamma + ln x + integral of (e^t - 1)/t on (0, x)
    for lam in (0.25, 1.0, 3.0, 10.0, 30.0):
        assert abs(_ein(lam) - special.expi(lam)) < 1e-12 * max(1.0, abs(special.expi(lam)))


def test_ein_against_quadrature():
    for lam in (0.5, 2.0, 7.5, 30.0):
        integral, _ = integrate.quad(lambda x: math.expm1(x) / x, 0.0, lam)
        ref = EULER_GAMMA + math.log(lam) + integral
        assert abs(_ein(lam) - ref) < 1e-9 * max(1.0, abs(ref))


def test_sinh_integral_values():
    assert abs(sinh_integral(1.0) - 1.0572508753757285) < 1e-13
    shi5 = special.shichi(5.0)[0]
    assert abs(sinh_integral(5.0) - shi5) < 1e-12 * shi5
    for lam in (0.5, 2.0, 10.0, 30.0):
        integral, _ = integrate.quad(lambda x: math.sinh(x) / x if x > 0 else 1.0, 0.0, lam)
        assert abs(sinh_integral(lam) - integral) < 1e-9 * max(1.0, integral)


def test_series_respect_max_terms():
    tight = TruncationPolicy(rel_tol=1e-15, max_terms=64)
    with pytest.raises(TruncationError):
        ein_series(250.0, tight)
    with pytest.raises(TruncationError):
        sinh_integral(500.0, tight)
    with pytest.raises(TruncationError):
        series(1.0, lambda k: 250.0 / (k + 1.0), 1, tight, weight=lambda k: 0.5)


def test_series_kernel():
    # e = sum 1/k!, and the weighted mean of k under the Poisson(3) pmf ratios
    # from k = 0 is the Poisson mean
    assert series(1.0, lambda k: 1.0 / (k + 1.0)) == pytest.approx(math.e, rel=1e-16)
    assert series(1.0, lambda k: 3.0 / (k + 1.0), weight=float) == pytest.approx(3.0, rel=1e-15)
    # a zero leading term ends the sum at once
    assert series(0.0, lambda k: 2.0) == 0.0


# ------------------- references: the series loops before the shared kernel
#
# Verbatim copies of the loops that `series` replaced; the kernel must give
# the same bits wherever they return a value.


def _loop_poisson_tail(r: int, lam: float, tp: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Psi(r, lam) = p(X >= r) for X ~ Poisson(lam)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if r == 0:
        return 1.0
    if r <= lam + 1.0:
        # complement of a short head sum: better conditioned than the tail
        acc = 0.0
        c = 0.0
        term = math.exp(-lam)
        for k in range(r):
            y = term - c
            t = acc + y
            c = (t - acc) - y
            acc = t
            term *= lam / (k + 1.0)
        return max(0.0, 1.0 - acc)
    acc = 0.0
    c = 0.0
    term = poisson_pmf(r, lam)
    if term == 0.0:
        return 0.0  # leading term underflowed: the whole tail is < 1e-300
    k = r
    for _ in range(tp.max_terms):
        y = term - c
        t = acc + y
        c = (t - acc) - y
        acc = t
        ratio = lam / (k + 1.0)
        if term == 0.0 or (ratio < 1.0 and term * ratio / (1.0 - ratio) < tp.rel_tol * acc):
            return acc
        term *= ratio
        k += 1
    raise TruncationError("poisson_tail did not converge under the policy")


def _loop_ein_integral(lam: float, tp: TruncationPolicy = DEFAULT_POLICY) -> float:
    """E(lam) = gamma + ln(lam) + integral_0^lam (e^x - 1)/x dx.

    The integral expands into sum_{k>=1} lam^k / (k * k!), all terms positive.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    acc = 0.0
    c = 0.0
    term = lam  # k = 1 term
    k = 1
    for _ in range(tp.max_terms):
        y = term - c
        t = acc + y
        c = (t - acc) - y
        acc = t
        ratio = lam * k / ((k + 1.0) * (k + 1.0))
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < tp.rel_tol * acc:
            break
        term *= ratio
        k += 1
    else:
        raise TruncationError("ein_integral series did not converge")
    return EULER_GAMMA + math.log(lam) + acc


def _loop_sinh_integral(lam: float, tp: TruncationPolicy = DEFAULT_POLICY) -> float:
    """S(lam) = integral_0^lam sinh(x)/x dx = sum_j lam^(2j+1)/((2j+1)(2j+1)!)."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    acc = 0.0
    c = 0.0
    term = lam  # j = 0
    j = 0
    for _ in range(tp.max_terms):
        y = term - c
        t = acc + y
        c = (t - acc) - y
        acc = t
        m = 2 * j + 1
        ratio = lam * lam * m / ((m + 2.0) * (m + 2.0) * (m + 1.0))
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < tp.rel_tol * acc:
            return acc
        term *= ratio
        j += 1
    raise TruncationError("sinh_integral series did not converge")


# 700 rates on [0.01, 60] plus two large ones, and cutoffs on both sides of
# the head/tail switch at r = lam + 1
KERNEL_RATES = [float(x) for x in np.linspace(0.01, 60.0, 700)] + [100.0, 500.0]


def kernel_cutoffs(lam: float) -> list[int]:
    f = math.floor(lam)
    return [1, 2, 5, f + 2, 2 * f + 3, 50, 150, 400]


def test_series_match_the_loops_bit_for_bit():
    for lam in KERNEL_RATES:
        assert _ein(lam) == _loop_ein_integral(lam)
        assert sinh_integral(lam) == _loop_sinh_integral(lam)
        for r in kernel_cutoffs(lam):
            assert poisson_tail(r, lam) == _loop_poisson_tail(r, lam), (r, lam)
