"""Special-function unit tests.

Every value here is pinned against an independent route: scipy's
implementations, mpmath at 40 digits, adaptive quadrature of the defining
integrals, or direct partial sums — never against the module under test.
The one same-algorithm comparisons are the bit-identity checks of the
series kernel against the loops it replaced, of a Poisson mass window
against the same routine's table from k = 0 and against the window of the
bisection guard, and of the scalar pmf against the array, and the 1e-14
check of the Poisson tail against the loop it replaced, kept below as
references.
"""

import math
import time
from array import array
from decimal import Context, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from secstop import specfun
from secstop.core_model import Poisson, support
from secstop.specfun import (
    EULER_GAMMA,
    TruncationError,
    chernoff_point,
    ein_series,
    harmonic,
    harmonic_form_sign,
    harmonic_gap,
    harmonic_gap_ratio,
    harmonic_numbers,
    lambert_w0,
    poisson_k_max,
    poisson_pmf_array,
    poisson_tail,
    series,
    sinh_integral,
)

from oracles import harmonic_table


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


def test_harmonic_numbers_past_the_cache_match_scalar():
    hs = harmonic_numbers(60_000)
    assert len(hs) == 60_001
    assert np.array_equal(hs[:10_001], harmonic_numbers(10_000))
    for m in (10_001, 10_002, 12_345, 33_333, 59_999, 60_000):
        assert hs[m] == harmonic(m)


def test_the_oracles_harmonic_table_matches_scalar():
    # the test forms' vectorised H: harmonic's values up to 10^4, then within
    # 4 eps H_m of it at 200 sampled m up to 10^6
    hs = harmonic_table(10**6)
    assert len(hs) == 10**6 + 1
    assert np.array_equal(hs[:10_001], [harmonic(m) for m in range(10_001)])
    ms = np.random.default_rng(26).integers(10_001, 10**6 + 1, 196).tolist() + [10_001, 10_002, 999_999, 10**6]
    for m in ms:
        assert abs(hs[m] - harmonic(m)) <= 4 * np.finfo(float).eps * harmonic(m), m


def test_one_harmonic_past_the_cache_grows_it_to_h_1000(monkeypatch):
    monkeypatch.setattr(specfun, "_H", array("d", [0.0]))
    monkeypatch.setattr(specfun, "_H_CARRY", array("d", [0.0]))
    with mpmath.workdps(40):
        ref = mpmath.harmonic(10**6)
    assert abs(harmonic(10**6) - ref) < 1e-15 * ref
    assert len(specfun._H) == len(specfun._H_CARRY) == 1001


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


def test_harmonic_gap_inside_the_cache_against_mpmath():
    # b < 1000 <= a <= 10^4 and short ranges below 1000: the cached sums
    # cancel in their leading bits, and the carries give back the rest
    rng = np.random.default_rng(13)
    pairs = [(1001, 1000), (999, 998), (500, 499), (1002, 992), (2, 1), (10_000, 999)]
    for _ in range(300):
        a = int(rng.integers(1, 1050))
        pairs.append((a, int(rng.integers(max(0, a - 50), min(a, 999) + 1))))
        a = int(rng.integers(1, 10_001))
        pairs.append((a, int(rng.integers(0, min(a, 999) + 1))))
    with mpmath.workdps(50):
        for a, b in pairs:
            ref = mpmath.harmonic(a) - mpmath.harmonic(b)
            assert abs(harmonic_gap(a, b)[0] - ref) <= 1e-15 * ref, (a, b)


def test_harmonic_gap_ratio_is_exact():
    for a, b in [(0, 0), (1, 0), (7, 3), (100, 99), (300, 17)]:
        p, q = harmonic_gap_ratio(a, b)
        assert Fraction(p, q) == sum((Fraction(1, k) for k in range(b + 1, a + 1)), Fraction(0))
    with pytest.raises(ValueError):
        harmonic_gap(3, 4)


def test_decimal_harmonic_within_1e_35():
    # within 1e-38 relative of 60-digit mpmath, under the name it had at
    # 1e-35: the 40-digit route is within 7.6e-40 on these points
    with mpmath.workdps(60), localcontext(Context(prec=40)):
        for m in (0, 1, 999, 1000, 1001, 54_321, 10**9, 10**15):
            ref = mpmath.harmonic(m)
            assert abs(mpmath.mpf(str(specfun._harmonic_decimal(m))) - ref) <= 1e-38 * max(1, ref), m


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


def test_lambert_frozen_values():
    w = lambert_w0(-2.0 * math.exp(-2.0))
    assert abs(w - (-0.40637573995996)) < 1e-13
    assert abs(-0.5 * w - 0.20318786997998) < 1e-13
    # the float just above -1/e, where the series is taken as it is
    assert abs(lambert_w0(math.nextafter(-math.exp(-1.0), 0.0)) - (-1.0)) < 1e-6


def test_lambert_domain_error():
    for x in (-0.5, -math.exp(-1.0), 0.0, math.e):
        with pytest.raises(ValueError):
            lambert_w0(x)


@given(st.floats(min_value=-0.9999 / math.e, max_value=0.0, exclude_max=True, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_lambert_residual(x):
    w = lambert_w0(x)
    assert w >= -1.0 - 1e-12
    assert abs(w * math.exp(w) - x) < 1e-13 * max(1.0, abs(x))


def test_lambert_against_scipy_grid():
    # adjacent to -1/e the float evaluation of e*x + 1 cancels ~8 digits, so
    # any double implementation (scipy included) only pins w to ~2e-12 there
    xs = np.linspace(-1.0 / math.e + 1e-9, 0.0, 97)[:-1]
    for x in xs:
        ref = special.lambertw(x).real
        assert abs(lambert_w0(float(x)) - ref) < 1e-11 * max(1.0, abs(ref))


def _pmf(k: int, lam: float) -> float:
    """p(X = k) from a window of one k, as poisson_tail reads it."""
    return float(poisson_pmf_array(lam, k, k)[0])


def test_poisson_pmf_values():
    assert abs(_pmf(0, 1.0) - math.exp(-1.0)) < 1e-16
    assert abs(_pmf(1, 1.0) - math.exp(-1.0)) < 1e-16
    ref = stats.poisson.pmf(200, 200)
    assert abs(_pmf(200, 200.0) - ref) < 1e-14
    assert abs(_pmf(200, 200.0) - 0.0281977276859208) < 1e-12


def test_poisson_pmf_array_normalizes():
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        k_max = int(lam + 12 * math.sqrt(lam) + 50)
        p = poisson_pmf_array(lam, k_max)
        assert abs(p.sum() - 1.0) < 1e-12
        assert abs(p[3] - stats.poisson.pmf(3, lam)) < 1e-15


@pytest.mark.parametrize("lam", [5.0, 144.0, 146.0, 708.0, 745.0, 746.0, 1000.0, 1e4, 1e5, 1e6])
def test_poisson_support_is_the_mass_window_of_the_full_table(lam):
    # the support is the table from k = 0 cut at the Chernoff point g: every
    # mass it keeps has that table's bits, the first is not 0.0, and those
    # it drops sum to at most e^-72
    ks, ps = support(Poisson(lam))
    g, k_max = chernoff_point(lam), int(ks[-1])
    full = poisson_pmf_array(lam, k_max)
    assert ps.tobytes() == full[g:].tobytes()
    assert np.array_equal(ks, np.arange(g, k_max + 1))
    assert ps[0] > 0.0 and math.fsum(full[:g]) <= math.exp(-72.0)
    assert (g == 0) == (lam < 146.0)


# The Poisson window as an independent route builds it: the top grown from
# the first bound until its tail is below 1e-15, as it was built before both
# ends of the window came from closed tail bounds, and the bottom found by
# bisection on the exact condition of the Chernoff bound.


def _grown_k_max(lam: float) -> int:
    k = int(math.ceil(lam + 12.0 * math.sqrt(lam) + 50.0))
    for _ in range(64):
        if poisson_tail(k + 1, lam) < specfun._REL_TOL:
            return k
        k = int(k * 1.5) + 10
    raise RuntimeError("could not bound the Poisson support")


def _poisson_guard(lam: float) -> int:
    """The last k with (lam - k)^2 >= 144 lam and k <= lam, or 0, by
    bisection in rationals: floor(lam - 12 sqrt(lam)) without a float
    square root, as (lam - k)^2 falls over k <= lam."""
    x = Fraction(lam)

    def below(k: int) -> bool:
        return k <= x and (x - k) ** 2 >= 144 * x

    if not below(0):
        return 0
    lo, hi = 0, math.floor(lam) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _guarded_window(lam: float) -> tuple[np.ndarray, np.ndarray]:
    k_max, guard = _grown_k_max(lam), _poisson_guard(lam)
    return np.arange(guard, k_max + 1), poisson_pmf_array(lam, k_max, guard)


_WINDOW_RATES = [5.0, 745.0, 746.0, 1519.0, 1520.0, 1521.0, 1e4, 1e5, 1e6, 1e7]
_WINDOW_RATES += np.exp(np.random.default_rng(20181).uniform(math.log(0.01), math.log(1e7), 24)).tolist()


@pytest.mark.parametrize("lam", _WINDOW_RATES)
def test_poisson_window_from_tail_bounds_bit_equal_to_the_guarded_window(lam):
    # the Chernoff point and the first Bennett top give the window that the
    # bisection guard and the grown top give: its ends and every mass
    ks, ps = support(Poisson(lam))
    ref_ks, ref_ps = _guarded_window(lam)
    assert np.array_equal(ks, ref_ks) and ps.tobytes() == ref_ps.tobytes()
    assert poisson_tail(poisson_k_max(lam) + 1, lam) < 1e-30


def test_poisson_pmf_array_window_bit_equal_to_the_full_table():
    # a window has the bits of the same routine's table from k = 0, across
    # the head of cached k, stirlerr's table and the block edges
    cases = [(1.0, 0, 0), (1.0, 1, 1), (2.5, 40, 3), (3000.0, 3400, 2500), (0.01, 30, 29), (600.0, 1100, 1020)]
    cases += [(2e4, 26_000, 15_000), (5e3, 9_000, 4_100)]
    for lam, k_max, k_lo in cases:
        got = poisson_pmf_array(lam, k_max, k_lo)
        assert got.tobytes() == poisson_pmf_array(lam, k_max)[k_lo:].tobytes(), (lam, k_max, k_lo)


_LOADER_RATES = [0.5, 2.0, 37.3, 100.0, 1000.0, 3000.0, 1e4, 1e5, 1e6, 1e9]


def _mp_pmf(k: int, lam: float) -> float:
    with mpmath.workdps(40):
        return mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))


@pytest.mark.parametrize("lam", _LOADER_RATES)
def test_poisson_pmf_against_mpmath(lam):
    # every mass of a window up to 3000 points, 400 spread over a longer
    # one: within 4e-15 where p(k) >= 1e-6 p(mode); elsewhere within 2e-13
    # on bd0's series (lam/2 < k < 2 lam) and within 4e-13 on its direct
    # form, whose floor is the rounding of k ln(k/lam) (about 1100 near
    # k = lam/2 at lam = 3000), not of bd0; a subnormal mass, which holds
    # fewer bits, may be off by one unit of 2^-1074 besides
    ks, ps = support(Poisson(lam))
    mode = float(ps.max())
    picks = range(len(ks)) if len(ks) <= 3000 else np.unique(np.linspace(0, len(ks) - 1, 400).astype(int))
    for i in picks:
        k, p = int(ks[i]), float(ps[i])
        ref = _mp_pmf(k, lam)
        if p >= 1e-6 * mode:
            bound = 4e-15
        else:
            bound = 2e-13 if lam / 2 < k < 2 * lam else 4e-13
        assert abs(p - ref) <= bound * ref + 2.0**-1074, (lam, k, float(abs(p - ref) / ref))
    assert abs(math.fsum(ps.tolist()) - 1.0) <= 1e-14


@pytest.mark.parametrize("lam", [0.5, 2.0, 37.3, 1000.0, 1e5])
def test_poisson_pmf_scalar_equals_the_array(lam):
    # the one mass that poisson_tail scales its step table by, a window of
    # one k, has the support's bits at every k of the window, near and far
    # from the rate, where the short near part is summed one k at a time
    ks, ps = support(Poisson(lam))
    for k, p in zip(ks.tolist(), ps.tolist()):
        assert _pmf(k, lam) == p, (lam, k)


@pytest.mark.parametrize("lam", [2.0, 1e5])
def test_poisson_support_takes_no_lgamma(monkeypatch, lam):
    # the masses are one vector evaluation over the window, with no ln k!
    def no_lgamma(x):
        raise AssertionError("math.lgamma was called")

    monkeypatch.setattr(math, "lgamma", no_lgamma)
    ks, ps = support(Poisson(lam))
    assert len(ks) == len(ps) and ps.max() > 0.0


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
    head = sum(_pmf(k, lam) for k in range(r))
    assert abs(poisson_tail(r, lam) + head - 1.0) < 1e-12


def _head_cutoffs(lam: float) -> list[int]:
    """r = 1, lam/2, lam - 3 sqrt(lam), floor(lam) and floor(lam) + 1: every
    one at or below lam + 1, where the tail is close to 1."""
    f = math.floor(lam)
    return [1, int(lam / 2), int(lam - 3.0 * math.sqrt(lam)), f, f + 1]


@pytest.mark.parametrize("lam", [701.0, 720.0, 1000.0, 5000.0])
def test_poisson_tail_head_at_large_rates_against_mpmath(lam):
    # exp(-lam) is subnormal from lam = 708 and 0 from 746 on, so a head sum
    # started at k = 0 would give exactly 1.0 at (1001, 1000), where the
    # tail is 0.4916; the regularized lower gamma P(r, lam) is p(X >= r)
    for r in _head_cutoffs(lam):
        with mpmath.workdps(40):
            ref = float(mpmath.gammainc(r, 0, lam, regularized=True))
        assert abs(poisson_tail(r, lam) - ref) <= 5e-11 * ref, (r, lam)


def test_poisson_tail_just_above_the_chernoff_point_of_a_large_rate():
    # the series summed down from p(r - 1), a subnormal term here, never
    # ended and ran out of its 10^6 terms
    start = time.perf_counter()
    assert poisson_tail(7119870, 7221394.6112189265) == 1.0
    assert time.perf_counter() - start < 0.1


_BOUND_RATES = [145.0, 577.0, 1e3, 1e4, 1e6, 1e9]


@pytest.mark.parametrize("lam", _BOUND_RATES)
def test_chernoff_point_leaves_out_at_most_e_minus_72(lam):
    # p(X < g) = Q(g, lam), the regularized upper incomplete gamma, at 50
    # digits; 0 at g = 0
    g = chernoff_point(lam)
    with mpmath.workdps(50):
        below = mpmath.gammainc(g, lam, mpmath.inf, regularized=True) if g else mpmath.mpf(0)
        assert below <= mpmath.exp(-72), (lam, g)


# rates up to the last one the window cap admits, densest where the mass at
# the Chernoff point is least (about e^-146 near lam = 146)
_CAP_RATES = np.linspace(1.0, 1000.0, 3997).tolist() + np.geomspace(1000.0, 694440890106.5913, 400).tolist()


def test_mass_at_the_chernoff_point_is_never_zero():
    for lam in _CAP_RATES:
        g = chernoff_point(lam)
        assert poisson_pmf_array(lam, g, g)[0] > 0.0, lam


@pytest.mark.parametrize("lam", [0.5, 145.0, 146.0, 577.0, 1e3 + 0.5, 1e4 + 1, 123456.7, 1e6, 1e7 + 1])
def test_poisson_window_is_about_24_sqrt_lam_long(lam):
    # ceil(lam + 12 sqrt(lam) + 50) - floor(lam - 12 sqrt(lam)) + 1 <
    # 24 sqrt(lam) + 53, where both roundings go up by almost 1: 341 points
    # at 145 and 629 at 577, each above 24 sqrt(lam) + 52.  This guards the
    # window's length, which down to the float underflow was about 51 sqrt(lam)
    assert len(support(Poisson(lam))[0]) < 24.0 * math.sqrt(lam) + 53.0


@pytest.mark.parametrize("lam", [146.0, 406.0, 577.0, 1000.5, 3000.0, 1e4 + 1, 1e5, 7221394.6112189265, 1e9])
def test_poisson_tail_is_one_up_to_the_chernoff_point(lam):
    # the head below g is at most e^-72, and 1 - e^-72 rounds to 1.0: exactly
    # 1.0, where a step table's sum gave 0.9999999999999996 at lam = 406 and
    # r = floor(lam - 20 sqrt(lam))
    g = chernoff_point(lam)
    rs = {1, g // 2, max(math.floor(lam - 20.0 * math.sqrt(lam)), 1), g - 1, g}
    for r in sorted(rs):
        assert poisson_tail(r, lam) == 1.0, (lam, r)


def test_poisson_tail_at_the_mean_of_large_rates():
    # p(X >= n) = 1/2 + 1/(3 sqrt(2 pi n)) + O(1/n) at an integer mean n;
    # the series ran out of its 10^6 terms at 10^11, and gave
    # 0.5000013298076031 at 10^10
    for lam in (1e10, 1e11):
        start = time.perf_counter()
        got = poisson_tail(int(lam), lam)
        assert time.perf_counter() - start < 1.0
        assert abs(got - (0.5 + 1.0 / (3.0 * math.sqrt(2.0 * math.pi * lam)))) < 1e-10
    assert poisson_tail(10**10, 1e10) == pytest.approx(0.5000013298076031, rel=1e-14)


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


@pytest.mark.parametrize("fn", [ein_series, sinh_integral])
def test_series_refuse_a_rate_of_zero(fn):
    # both integrals are of a positive rate; at 0 the guard refuses, where
    # the series would sum to 0.0
    for lam in (0.0, -0.0, -1.0):
        with pytest.raises(ValueError, match="lam must be positive"):
            fn(lam)


def test_series_respect_max_terms(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 64)
    with pytest.raises(TruncationError):
        ein_series(250.0)
    with pytest.raises(TruncationError):
        sinh_integral(500.0)
    with pytest.raises(TruncationError):
        series(1.0, lambda k: 250.0 / (k + 1.0), 1)


def test_series_kernel():
    # e = sum 1/k!
    assert series(1.0, lambda k: 1.0 / (k + 1.0)) == pytest.approx(math.e, rel=1e-16)
    # a zero leading term ends the sum at once
    assert series(0.0, lambda k: 2.0) == 0.0


# ------------------- references: the series loops before the shared kernel
#
# Verbatim copies of the loops that `series` replaced; the kernel must give
# the same bits wherever they return a value.  The Poisson tail, now one
# mass times the sum of a step table, is held to 1e-14 of its loop.


def _loop_poisson_tail(r: int, lam: float) -> float:
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
    term = _pmf(r, lam)
    if term == 0.0:
        return 0.0  # leading term underflowed: the whole tail is < 1e-300
    k = r
    for _ in range(specfun._MAX_TERMS):
        y = term - c
        t = acc + y
        c = (t - acc) - y
        acc = t
        ratio = lam / (k + 1.0)
        if term == 0.0 or (ratio < 1.0 and term * ratio / (1.0 - ratio) < specfun._REL_TOL * acc):
            return acc
        term *= ratio
        k += 1
    raise TruncationError("poisson_tail did not converge under the policy")


def _loop_ein_integral(lam: float) -> float:
    """E(lam) = gamma + ln(lam) + integral_0^lam (e^x - 1)/x dx.

    The integral expands into sum_{k>=1} lam^k / (k * k!), all terms positive.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    acc = 0.0
    c = 0.0
    term = lam  # k = 1 term
    k = 1
    for _ in range(specfun._MAX_TERMS):
        y = term - c
        t = acc + y
        c = (t - acc) - y
        acc = t
        ratio = lam * k / ((k + 1.0) * (k + 1.0))
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < specfun._REL_TOL * acc:
            break
        term *= ratio
        k += 1
    else:
        raise TruncationError("ein_integral series did not converge")
    return EULER_GAMMA + math.log(lam) + acc


def _loop_sinh_integral(lam: float) -> float:
    """S(lam) = integral_0^lam sinh(x)/x dx = sum_j lam^(2j+1)/((2j+1)(2j+1)!)."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    acc = 0.0
    c = 0.0
    term = lam  # j = 0
    j = 0
    for _ in range(specfun._MAX_TERMS):
        y = term - c
        t = acc + y
        c = (t - acc) - y
        acc = t
        m = 2 * j + 1
        ratio = lam * lam * m / ((m + 2.0) * (m + 2.0) * (m + 1.0))
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < specfun._REL_TOL * acc:
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
    # a subnormal tail holds fewer bits than 1e-14 asks: there the two
    # routes may part by two units of 2^-1074
    for lam in KERNEL_RATES:
        assert _ein(lam) == _loop_ein_integral(lam)
        assert sinh_integral(lam) == _loop_sinh_integral(lam)
        for r in kernel_cutoffs(lam):
            ref = _loop_poisson_tail(r, lam)
            assert abs(poisson_tail(r, lam) - ref) <= 1e-14 * ref + 2 * 2.0**-1074, (r, lam)
