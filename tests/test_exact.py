"""Tests for the exact engine.

Oracle routes: direct per-k weighted sums (plain Python loops, scipy pmfs),
exact rationals for the uniform family, 50-digit mpmath sums, and frozen
literals derived from those routes.  The same-algorithm comparisons are
the checks against the curve's earlier cancelling forms (the per-curve
A/B/C/D suffix sums and the searched, whole-array tables), within those
forms' own error bounds, the bit-identity of the slots and of the table
reads, and the Poisson conditional series loop that the specfun kernel
replaced, bit for bit.  tests/test_exact_references.py holds the exact
`Fraction` and mpmath references for every curve, step probability and
induction value.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from secstop.core_model import (
    Explicit,
    Known,
    Poisson,
    Uniform,
    Variant,
    accept_success_known,
    explicit_from_dict,
    poisson_k_max,
    support,
    threshold_success_known,
    truncate_to_explicit,
)
from secstop.dp import backward_induction
from secstop.exact import (
    ConditioningError,
    SuffixMoments,
    _exact_value,
    best_cutoff,
    closed_form_uniform,
    poisson_fstar_and_f,
    poisson_smoothing_coefficients,
    positive_cutoff,
    step_accept_prob,
    step_reject_prob,
    success_curve,
)
from secstop.specfun import DEFAULT_POLICY, TruncationPolicy, harmonic_numbers

V = Variant


def uniform_bw_exact(r, n):
    """Rational direct sum for the best-or-worst cutoff curve, r >= 1."""
    return Fraction(1, n) * sum(
        Fraction(2 * r * (k - r), k * (k - 1)) for k in range(r + 1, n + 1)
    )


# ---------------------------------------------------------------- step probs


def test_step_accept_uniform_values():
    assert step_accept_prob(V.BEST_OR_WORST, Uniform(1), 1) == 1.0
    # (4/7) * sum_{k=4..10} 1/k  ==  4(psi(11) - psi(4))/7
    direct = sum(4.0 / k for k in range(4, 11)) / 7.0
    got = step_accept_prob(V.BEST_OR_WORST, Uniform(10), 4)
    assert got == pytest.approx(direct, abs=1e-14)
    assert got == pytest.approx(0.626077097505669, abs=1e-13)
    # postdoc collapses to r/n for r >= 2
    pd_direct = sum(3 * 2 / (k * (k - 1)) for k in range(3, 11)) / 8.0
    assert step_accept_prob(V.POSTDOC, Uniform(10), 3) == pytest.approx(pd_direct, abs=1e-14)
    assert step_accept_prob(V.POSTDOC, Uniform(10), 3) == pytest.approx(0.3, abs=1e-14)
    assert step_accept_prob(V.POSTDOC, Uniform(10), 1) == 0.0


def test_step_reject_uniform_values():
    assert step_reject_prob(V.BEST_OR_WORST, Uniform(1), 1) == 0.0
    direct = sum(8.0 * (k - 4) / (k * (k - 1)) for k in range(5, 11)) / 7.0
    got = step_reject_prob(V.BEST_OR_WORST, Uniform(10), 4)
    assert got == pytest.approx(direct, abs=1e-14)
    assert got == pytest.approx(0.4521541950113377, abs=1e-13)
    assert step_reject_prob(V.POSTDOC, Uniform(10), 4) == pytest.approx(got / 2, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 10, 57, 1000, 20000])
def test_uniform_step_accept_closed_form_matches_direct_sum(n):
    # r runs across the switch between the digamma form and the short tail
    # sums at n - r = n/8
    for r in sorted({1, 2, n // 2, n - n // 8 - 1, n - n // 8, n - 1, n} & set(range(1, n + 1))):
        direct = math.fsum(r / k for k in range(r, n + 1)) / (n + 1 - r)
        for variant in (V.CLASSIC, V.BEST_OR_WORST):
            assert step_accept_prob(variant, Uniform(n), r) == pytest.approx(direct, rel=1e-13)


def _uniform_step_refs(r, n):
    """(P_A, P_R) of the best-or-worst rule under Uniform(1..n) at 50 digits:
    r (H_n - H_{r-1})/(n+1-r) and 2r sum_{k=r..n-1} ((n-k)/k) / (n(n+1-r))."""
    with mpmath.workdps(50):
        accept = r * (mpmath.harmonic(n) - mpmath.harmonic(r - 1)) / (n + 1 - r)
        pairs = n * (mpmath.harmonic(n - 1) - mpmath.harmonic(r - 1)) - (n - r)
        return accept, 2 * r * pairs / (n * (n + 1 - r))


@pytest.mark.parametrize("r", [1, 500_000, 950_000, 990_000, 999_999, 1_000_000])
def test_uniform_step_probs_large_n_against_mpmath(r):
    # near r = n the digamma differences cancel; the values must hold anyway
    n = 10**6
    accept, reject = _uniform_step_refs(r, n)
    want = {
        (V.BEST_OR_WORST, "accept"): accept,
        (V.BEST_OR_WORST, "reject"): reject,
        (V.POSTDOC, "accept"): mpmath.mpf(r) / n if r >= 2 else mpmath.mpf(0),
        (V.POSTDOC, "reject"): reject / 2,
    }
    for (variant, what), ref in want.items():
        fn = step_accept_prob if what == "accept" else step_reject_prob
        got = fn(variant, Uniform(n), r)
        if ref == 0:
            assert got == 0.0
        else:
            assert abs((got - ref) / ref) <= 1e-12, (variant, what, got, ref)


def test_step_probs_poisson_against_direct_sums():
    # plain-loop oracle with scipy pmfs
    lam = 5.0
    p = stats.poisson.pmf(np.arange(400), lam)
    num = sum(3 * 2 / (k * (k - 1)) * p[k] for k in range(3, 400))
    den = p[3:].sum()
    assert step_accept_prob(V.POSTDOC, Poisson(lam), 3) == pytest.approx(num / den, abs=1e-13)
    assert step_accept_prob(V.POSTDOC, Poisson(lam), 3) == pytest.approx(
        0.3847798668977947, abs=1e-12
    )
    lam = 3.0
    p = stats.poisson.pmf(np.arange(400), lam)
    num = sum(4.0 * (k - 2) / (k * (k - 1)) * p[k] for k in range(3, 400))
    den = p[2:].sum()
    assert step_reject_prob(V.BEST_OR_WORST, Poisson(lam), 2) == pytest.approx(
        num / den, abs=1e-13
    )
    assert step_reject_prob(V.BEST_OR_WORST, Poisson(lam), 2) == pytest.approx(
        0.45445354167754615, abs=1e-12
    )


def test_step_probs_survive_deep_conditioning():
    # r far beyond lam: pmf and tail both underflow, the ratio series must not
    v = step_accept_prob(V.BEST_OR_WORST, Poisson(2.0), 400)
    assert 0.99 < v <= 1.0


# (rate, r): the running term lam^(k-r) r!/k! of the conditional series
# passes the double range at r = 1 from about lam = 710 on
_LARGE_RATE_CASES = [(720, 1), (720, 360), (1000, 1), (1000, 500), (5000, 1), (5000, 2500)]


def _poisson_conditional_mpmath(weight, lam, r):
    """E[w(X) | X >= r] for X ~ Poisson(lam) at 50 digits, summed directly
    over k = r .. lam + 40 sqrt(lam) + 100 from the pmf ratio."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        t = mpmath.mpf(1)
        num = den = mpmath.mpf(0)
        for k in range(r, int(lam + 40 * mpmath.sqrt(lam)) + 100):
            num += t * weight(k)
            den += t
            t = t * lam / (k + 1)
        return num / den


@pytest.mark.parametrize("lam, r", _LARGE_RATE_CASES)
def test_poisson_step_probs_at_large_rates_against_mpmath(lam, r):
    model = Poisson(float(lam))
    with mpmath.workdps(50):
        h_r = mpmath.harmonic(r - 1)
    refs = {
        "bw accept": (step_accept_prob(V.BEST_OR_WORST, model, r), lambda k: mpmath.mpf(r) / k),
        "bw reject": (
            step_reject_prob(V.BEST_OR_WORST, model, r),
            lambda k: mpmath.mpf(2 * r * (k - r)) / (k * (k - 1)) if k > 1 else 0,
        ),
        "classic reject": (
            step_reject_prob(V.CLASSIC, model, r),
            lambda k: mpmath.mpf(r) / k * (mpmath.harmonic(k - 1) - h_r),
        ),
    }
    for name, (got, weight) in refs.items():
        ref = _poisson_conditional_mpmath(weight, lam, r)
        assert abs(got - ref) < 1e-14 * ref, (name, got, float(ref))


def _loop_poisson_conditional(weights, lam: float, r: int, tp: TruncationPolicy) -> float:
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


def test_poisson_step_probs_match_the_loop_bit_for_bit():
    # the conditional series before the shared kernel, verbatim above, on the
    # rate and cutoff grid of tests/test_specfun.py
    rates = [float(x) for x in np.linspace(0.01, 60.0, 700)] + [100.0, 500.0]
    for lam in rates:
        model = Poisson(lam)
        f = math.floor(lam)
        for r in (1, 2, 5, f + 2, 2 * f + 3, 50, 150, 400):
            for v in V:
                for got, weight in (
                    (step_accept_prob(v, model, r), lambda k: accept_success_known(v, k, r)),
                    (step_reject_prob(v, model, r), lambda k: threshold_success_known(v, k, r)),
                ):
                    ref = _loop_poisson_conditional(weight, lam, r, DEFAULT_POLICY)
                    assert got == ref, (v, lam, r, got, ref)


def test_step_prob_conditioning_errors():
    with pytest.raises(ConditioningError):
        step_accept_prob(V.BEST_OR_WORST, Uniform(5), 6)
    with pytest.raises(ConditioningError):
        step_reject_prob(V.CLASSIC, explicit_from_dict({3: 1.0}), 4)


# ---------------------------------------------------------------- the curves


def test_curve_uniform_frozen_values():
    c = success_curve(V.BEST_OR_WORST, Uniform(2), 2)
    assert c.value(0) == pytest.approx(1.0, abs=1e-15)
    assert c.value(1) == pytest.approx(0.5, abs=1e-15)
    assert c.value(2) == 0.0
    c5 = success_curve(V.BEST_OR_WORST, Uniform(5), 5)
    assert c5.value(0) == pytest.approx(107.0 / 150.0, abs=1e-15)
    assert c5.value(1) == pytest.approx(float(uniform_bw_exact(1, 5)), abs=1e-15)
    assert c5.value(1) == pytest.approx(0.5133333333333333, abs=1e-15)


def test_curve_matches_known_forms():
    for n in (1, 2, 3, 7, 24):
        for variant in V:
            c = success_curve(variant, Known(n), n)
            for r in range(n + 1):
                if r == 0:
                    continue  # r = 0 known-model row checked separately below
                assert c.value(r) == pytest.approx(
                    threshold_success_known(variant, n, r), abs=1e-13
                ), (variant, n, r)


def test_curve_first_row_values():
    # accepting the first nice candidate straight away, per fixed k
    c = success_curve(V.BEST_OR_WORST, Known(1), 0)
    assert c.value(0) == 1.0
    assert success_curve(V.POSTDOC, Known(1), 0).value(0) == 0.0
    assert success_curve(V.CLASSIC, Known(4), 0).value(0) == pytest.approx(0.25, abs=1e-15)
    assert success_curve(V.BEST_OR_WORST, Known(4), 0).value(0) == pytest.approx(0.5, abs=1e-15)
    assert success_curve(V.POSTDOC, Known(4), 0).value(0) == pytest.approx(0.25, abs=1e-15)


def test_curve_poisson_against_direct_sums():
    lam = 4.0
    p = stats.poisson.pmf(np.arange(300), lam)
    c = success_curve(V.BEST_OR_WORST, Poisson(lam), 12)
    for r in range(1, 13):
        direct = sum(2.0 * r * (k - r) / (k * (k - 1)) * p[k] for k in range(r + 1, 300))
        assert c.value(r) == pytest.approx(direct, abs=1e-13), r
    f0 = p[1] + sum(2.0 / k * p[k] for k in range(2, 300))
    assert c.value(0) == pytest.approx(f0, abs=1e-13)
    # X = 0 counts as failure: total curve mass is bounded away from 1
    assert c.value(0) < 1.0 - p[0]


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(list(V)),
)
@settings(max_examples=80, deadline=None)
def test_curve_matches_weighted_sums_on_explicit_models(weights, variant):
    total = sum(weights.values())
    model = explicit_from_dict({k: w / total for k, w in weights.items()})
    r_top = 10
    c = success_curve(variant, model, r_top)
    for r in range(1, r_top + 1):
        direct = sum(
            p * threshold_success_known(variant, k, r) for k, p in model.items if k >= 1
        )
        assert c.value(r) == pytest.approx(direct, abs=5e-13), r
    bw = success_curve(V.BEST_OR_WORST, model, r_top)
    pd = success_curve(V.POSTDOC, model, r_top)
    for r in range(1, r_top + 1):
        assert bw.value(r) == pytest.approx(2 * pd.value(r), abs=1e-13)


# ------------------- reference: the curve from per-curve A/B/C/D suffix sums
#
# The form success_curve had before SuffixMoments, kept verbatim: each curve
# built its own weight arrays and suffix sums, and F(0) is a dot product of
# per-k first-step values.  F(0) is still the same dot, bit for bit; past it
# the form subtracts, and the curve lies within its error bound.


def _first_step_values(variant: Variant, ks: np.ndarray) -> np.ndarray:
    k = np.asarray(ks, dtype=float)
    safe = np.maximum(k, 1.0)
    if variant is Variant.CLASSIC:
        return np.where(k >= 1, 1.0 / safe, 0.0)
    if variant is Variant.BEST_OR_WORST:
        return np.where(k == 1, 1.0, np.where(k >= 2, 2.0 / safe, 0.0))
    return np.where(k >= 2, 1.0 / safe, 0.0)


def _suffix_sums(ks: np.ndarray, weights: np.ndarray, r_max: int) -> np.ndarray:
    out = np.zeros(r_max + 1)
    if len(ks) == 0:
        return out
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    idx = np.searchsorted(ks, np.arange(r_max + 1), side="right")
    return suffix[idx]


def _abcd_success_curve(variant, model, r_max):
    """(values, truncation terms) of the A/B/C/D form."""
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
    return values, len(ks)


def _accept_weight(variant: Variant, r: int, k: np.ndarray) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if variant is Variant.POSTDOC:
        return np.where(k > 1, r * (r - 1) / np.maximum(k * (k - 1), 1.0), 0.0)
    return r / k


def _dot_step_accept(variant, model, r):
    """The finite-support P_A(r) as a weighted dot, the form before
    SuffixMoments."""
    ks, ps = support(model, min_k=r)
    mask = ks >= r
    return float(np.dot(_accept_weight(variant, r, ks[mask]), ps[mask]) / ps[mask].sum())


_MIXED_MODELS = [
    explicit_from_dict({0: 0.2, 3: 0.3, 7: 0.5}),
    explicit_from_dict({0: 0.5, 1: 0.25, 4: 0.25}),
    explicit_from_dict({0: 1.0}),
    explicit_from_dict({100: 0.99, 1000: 0.01}),
] + [truncate_to_explicit(Poisson(lam)) for lam in (2.0, 5.0, 8.0, 1000.0)]


def _top(model):
    return max(k for k, _ in model.items) if isinstance(model, Explicit) else model.n


@pytest.mark.parametrize("variant", list(V))
def test_curve_matches_abcd_reference(variant):
    # F(0) is the same dot; past it the A/B/C/D form subtracts two sums, so
    # the curve must lie within that form's own error bound of it
    models = [Known(n) for n in range(1, 61)] + [Uniform(n) for n in range(1, 301)]
    models += _MIXED_MODELS + [Poisson(lam) for lam in (2.0, 5.0, 8.0)]
    for model in models:
        r_max = _top(model) + 2 if not isinstance(model, Poisson) else 30
        c = success_curve(variant, model, r_max)
        want, terms = _abcd_success_curve(variant, model, r_max)
        assert c.truncation_terms_used == terms
        assert c.values[0] == want[0], model
        assert np.all(np.abs(c.values[1:] - want[1:]) <= _cancellation_bound(variant, model, r_max)), model


# the weighted dot is within about 2e-16 of the exact rational value on
# these models; B(r)/S(r) is a ratio of suffix sums, sequential within
# blocks of 512 points, so each drifts by up to (m - 1) eps relative on a
# table of m points (7.9e-15 measured at 295 points): the bound is 2 m eps
# plus 4 eps for the roundings of B, S, the dot and the quotients.  Both are
# within 1e-13 of exact fractions (tests/test_exact_references.py).
_EPS = np.finfo(float).eps


@pytest.mark.parametrize("variant", list(V))
def test_step_accept_matches_weighted_dot(variant):
    # the table path runs for Known and Explicit models; Uniform pmfs reach
    # it as explicit tables
    models = [Known(n) for n in range(1, 61)]
    models += [truncate_to_explicit(Uniform(n)) for n in range(1, 301, 7)] + _MIXED_MODELS
    for model in models:
        top = _top(model)
        bound = (2 * len(support(model)[0]) + 4) * _EPS
        for r in range(1, top + 1):
            if r > 64 and r % 37 and r < top - 2:
                continue  # every r on small supports, a spread on large ones
            got = step_accept_prob(variant, model, r)
            want = _dot_step_accept(variant, model, r)
            assert abs(got - want) <= bound * want, (model, r)


@pytest.mark.parametrize("variant", list(V))
# every mixed model but the 1,400-point Poisson(1000) table
@pytest.mark.parametrize("model", [Known(9), truncate_to_explicit(Uniform(40)), *_MIXED_MODELS[:-1]])
def test_step_accept_is_the_induction_accept_value(variant, model):
    # on finite supports P_A(r) is the DP's A(r), a ratio of suffix sums,
    # except the best-or-worst step 1, where the DP counts the sole object
    # as both best and worst; the two add in different orders
    pol = backward_induction(variant, model)
    for r in range(1, pol.horizon + 1):
        if r == 1 and variant is V.BEST_OR_WORST:
            continue
        try:
            got = step_accept_prob(variant, model, r)
        except ConditioningError:
            continue
        assert got == pytest.approx(pol.value_accept[r], rel=1e-14, abs=0.0), r


# ------------------------------------------------------------- closed forms


def test_closed_form_uniform():
    assert closed_form_uniform(2, 2) == pytest.approx(0.0, abs=1e-15)
    assert closed_form_uniform(1, 2) == pytest.approx(0.5, abs=1e-15)
    for r, n in [(1, 5), (4, 23), (5, 23), (20, 100), (137, 500)]:
        assert closed_form_uniform(r, n) == pytest.approx(
            float(uniform_bw_exact(r, n)), abs=1e-13
        ), (r, n)
    assert closed_form_uniform(20, 100) == pytest.approx(0.33185514419837536, abs=1e-13)
    with pytest.raises(ValueError):
        closed_form_uniform(0, 5)


@pytest.mark.parametrize("n", [2, 10, 57, 10**4, 10**6])
def test_closed_form_uniform_near_n_against_mpmath(n):
    # the digamma form cancels as r nears n (6.6e-4 relative at n - 1 for
    # n = 10^6); the short tail sum must hold to double precision
    for r in sorted({1, n // 2, (95 * n) // 100, (99 * n) // 100, n - 1, n} - {0}):
        with mpmath.workdps(50):
            pairs = n * (mpmath.harmonic(n - 1) - mpmath.harmonic(r - 1)) - (n - r)
            ref = 2 * r * pairs / n**2
        got = closed_form_uniform(r, n)
        if r == n:
            assert got == 0.0
        else:
            assert abs((got - ref) / ref) <= 1e-14, (r, n, got, ref)


def test_poisson_fstar_identity():
    for lam in (1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
        c = success_curve(V.BEST_OR_WORST, Poisson(lam), 21)
        for r in (2, 3, 7, 15, 21):
            fstar, head = poisson_fstar_and_f(r, lam)
            assert fstar - head == pytest.approx(c.value(r), abs=1e-10), (r, lam)
    # the head sum is empty at r = 2 (its only summand carries factor k - r = 0)
    assert poisson_fstar_and_f(2, 1.0)[1] == 0.0


def test_poisson_fstar_series_fallback_consistent():
    # past lam = 30, where the closed forms used to end, the series factors
    # must still agree through the identity F = f* - f evaluated from the curve
    for lam in (31.0, 35.0):
        c = success_curve(V.BEST_OR_WORST, Poisson(lam), 20)
        for r in (5, 12, 20):
            fstar, head = poisson_fstar_and_f(r, lam)
            assert fstar - head == pytest.approx(c.value(r), abs=1e-10)


@pytest.mark.parametrize("lam", [0.01, 0.1, 2.0, 20.0, 29.9, 30.0, 30.1, 50.0])
def test_poisson_smoothing_coefficients_against_mpmath(lam):
    with mpmath.workdps(40):
        x = mpmath.mpf(lam)
        pmf = lambda k: mpmath.exp(-x) * x**k / mpmath.factorial(k)
        s1 = mpmath.nsum(lambda k: pmf(k) / (k - 1), [2, mpmath.inf])
        s2 = mpmath.nsum(lambda k: pmf(k) / (k * (k - 1)), [2, mpmath.inf])
    got1, got2 = poisson_smoothing_coefficients(lam)
    assert abs(got1 - s1) <= 1e-14 * s1, lam
    assert abs(got2 - s2) <= 1e-14 * s2, lam


# -------------------------------------------------------------- best_cutoff


def test_best_cutoff_known():
    rep = best_cutoff(V.BEST_OR_WORST, Known(10))
    assert rep.cutoff == 5
    assert rep.prob == pytest.approx(5.0 / 9.0, abs=1e-14)
    # odd n: the two central cutoffs tie, the smaller one is reported
    assert best_cutoff(V.BEST_OR_WORST, Known(7)).cutoff == 3
    for n in (4, 5, 12, 33, 100):
        assert best_cutoff(V.BEST_OR_WORST, Known(n)).cutoff == n // 2


def test_best_cutoff_uniform_small_sizes_prefer_accepting_immediately():
    rep = best_cutoff(V.BEST_OR_WORST, Uniform(2))
    assert (rep.cutoff, rep.prob) == (0, pytest.approx(1.0, abs=1e-15))
    # at n = 5 the r = 0 policy (0.7133...) dominates every positive cutoff
    rep5 = best_cutoff(V.BEST_OR_WORST, Uniform(5))
    assert rep5.cutoff == 0
    assert rep5.prob == pytest.approx(0.7133333333333334, abs=1e-14)
    # the crossover: interior cutoffs win from n = 15 on
    assert best_cutoff(V.BEST_OR_WORST, Uniform(14)).cutoff == 0
    assert best_cutoff(V.BEST_OR_WORST, Uniform(15)).cutoff == 3


def test_best_cutoff_uniform_100():
    rep = best_cutoff(V.BEST_OR_WORST, Uniform(100))
    assert rep.cutoff == 20
    assert rep.prob == pytest.approx(0.33185514419837536, abs=1e-13)


def test_best_cutoff_postdoc_ties_resolve_to_zero():
    # cutoffs 0 and 1 are the same behavioral policy for the postdoc rule
    for n in (2, 5, 10):
        rep = best_cutoff(V.POSTDOC, Uniform(n))
        c = success_curve(V.POSTDOC, Uniform(n), n)
        assert c.value(0) == pytest.approx(c.value(1), abs=1e-15)
        if rep.cutoff == 0:
            assert c.value(0) >= c.values.max() - 1e-13


def test_best_cutoff_tie_band_is_relative():
    # F(203188) exceeds F(203187) by 3.6e-12 relative, above the 1e-12 band;
    # an absolute band of 1e-12 on a curve near 0.2 would call them tied
    assert best_cutoff(V.POSTDOC, Uniform(10**6)).cutoff == 203188
    assert best_cutoff(V.BEST_OR_WORST, Uniform(10**6)).cutoff == 203188


def test_best_cutoff_poisson():
    rep = best_cutoff(V.BEST_OR_WORST, Poisson(10.0))
    assert rep.cutoff == 4
    assert rep.prob == pytest.approx(0.49434952017960376, abs=1e-12)
    # small rates: accepting the first nice candidate immediately is optimal
    assert best_cutoff(V.BEST_OR_WORST, Poisson(2.0)).cutoff == 0


# The cutoff-0 value and the default horizon as they were before F(0) became
# sum_k p(k) nu_k and the horizon the top of the support, kept verbatim: the
# per-variant `first` array, and best_cutoff's r_max dispatch by model type.
# Its argmax of the whole curve in the 1e-12 relative band is also the
# reference for the sign-of-ΔF search on Known and Uniform.


def _first_array_f0(variant, model, r_max):
    mom = SuffixMoments(model, min_k=r_max)
    k = mom.ks
    first = np.where(k >= (2 if variant is Variant.POSTDOC else 1), 1.0 / np.maximum(k, 1.0), 0.0)
    if variant is Variant.BEST_OR_WORST:
        first = np.where(k == 1, 1.0, 2.0 * first)
    return float(np.dot(first, mom.ps))


def _dispatched_best_cutoff(variant, model, r_max=None):
    if r_max is None:
        if isinstance(model, (Known, Uniform)):
            r_max = model.n
        elif isinstance(model, Poisson):
            r_max = poisson_k_max(model.lam, tp=model.tp)
        else:
            r_max = max(k for k, _ in model.items)
    curve = success_curve(variant, model, r_max)
    vmax = float(curve.values.max())
    m = int(np.argmax(curve.values >= vmax - 1e-12 * abs(vmax)))
    return m, float(curve.values[m])


_PINNED_RATES = [0.01, 0.1, 0.5, 1.0, 2.2, 5.0, 30.0, 100.0, 1000.0, 1e4, 1e5]


@pytest.mark.parametrize("variant", list(V))
def test_cutoff_zero_and_default_horizon_bit_equal_to_the_dispatched_forms(variant):
    models = [Known(n) for n in range(1, 301)] + [Uniform(n) for n in range(1, 301)]
    models += _MIXED_MODELS + [Poisson(lam) for lam in _PINNED_RATES]
    for model in models:
        for r_max in (0, 5):
            assert success_curve(variant, model, r_max).value(0) == _first_array_f0(variant, model, r_max)
        rep = best_cutoff(variant, model)
        m, p = _dispatched_best_cutoff(variant, model)
        if isinstance(model, Known) or (isinstance(model, Uniform) and variant is not V.CLASSIC):
            # these take M from the sign of ΔF and P from a closed form, not
            # from the curve: the same cutoff, and P within 2e-14 of it
            # (test_best_cutoff_closed_form_prob_against_mpmath)
            assert rep.cutoff == m and rep.prob == pytest.approx(p, rel=2e-14, abs=0.0), model
        else:
            assert (rep.cutoff, rep.prob) == (m, p), model


# ------------------------------------- the cutoff from the sign of ΔF


@pytest.mark.parametrize(
    "variant, family",
    [(V.CLASSIC, Known), (V.BEST_OR_WORST, Known), (V.POSTDOC, Known), (V.BEST_OR_WORST, Uniform), (V.POSTDOC, Uniform)],
)
def test_sign_search_equals_the_curve_argmax(variant, family):
    for n in range(1, 3001):
        model = family(n)
        m, p = _dispatched_best_cutoff(variant, model)
        rep = best_cutoff(variant, model)
        assert rep.cutoff == m, n
        assert rep.prob == pytest.approx(p, rel=2e-14, abs=0.0), n


def _mp_value(variant, model, r):
    """F(r) at the working mpmath precision, from the harmonic closed forms."""
    n = model.n
    c = 2 if variant is V.BEST_OR_WORST else 1
    if isinstance(model, Known):
        if r == 0:
            return mpmath.mpf(0 if variant is V.POSTDOC else 1) if n == 1 else mpmath.mpf(c) / n
        if variant is V.CLASSIC:
            return mpmath.mpf(r) / n * (mpmath.harmonic(n - 1) - mpmath.harmonic(r - 1))
        return mpmath.mpf(c * r * (n - r)) / (n * (n - 1))
    if r == 0:
        return (c * mpmath.harmonic(n) - 1) / n
    return c * r * (n * (mpmath.harmonic(n - 1) - mpmath.harmonic(r - 1)) - n + r) / mpmath.mpf(n * n)


def _mp_delta_sign(variant, model, r):
    """The sign of ΔF(r) from 50-digit mpmath, for the two harmonic rules."""
    n = model.n
    with mpmath.workdps(50):
        gap = mpmath.harmonic(n - 1) - mpmath.harmonic(r)
        g = gap - 1 if variant is V.CLASSIC else n * gap - 2 * n + 2 * r + 1
    return int(mpmath.sign(g))


@pytest.mark.parametrize("n", [10, 2971, 10**4, 10**6, 10**7])
def test_best_cutoff_closed_form_prob_against_mpmath(n):
    cases = [(v, Known(n)) for v in V] + [(V.BEST_OR_WORST, Uniform(n)), (V.POSTDOC, Uniform(n))]
    for variant, model in cases:
        rep = best_cutoff(variant, model)
        with mpmath.workdps(50):
            want = _mp_value(variant, model, rep.cutoff)
            assert abs(rep.prob - want) <= 1e-13 * want, (variant, model)
        if rep.cutoff > 1 and (isinstance(model, Uniform) or variant is V.CLASSIC):
            assert _mp_delta_sign(variant, model, rep.cutoff - 1) > 0
            assert _mp_delta_sign(variant, model, rep.cutoff) <= 0


def test_corrected_uniform_cutoffs():
    # F(9795) - F(9794) = 3.15e-13 (9.7e-13 relative) under Uniform(48205),
    # inside the curve argmax's tie band, which reported 9794; the induction
    # agrees with the sign of ΔF
    for variant in (V.BEST_OR_WORST, V.POSTDOC):
        assert best_cutoff(variant, Uniform(48205)).cutoff == 9795
        assert best_cutoff(variant, Uniform(1_007_027)).cutoff == 204616
        assert positive_cutoff(variant, Uniform(1_007_027)) == 204616
    assert backward_induction(V.BEST_OR_WORST, Uniform(48205)).threshold == 9795
    assert _dispatched_best_cutoff(V.BEST_OR_WORST, Uniform(48205))[0] == 9794
    with mpmath.workdps(50):
        dF = _mp_value(V.BEST_OR_WORST, Uniform(48205), 9795) - _mp_value(V.BEST_OR_WORST, Uniform(48205), 9794)
        assert 3.1e-13 < dF < 3.2e-13


def test_sign_of_delta_f_at_m_against_mpmath():
    # M is the first r with ΔF(r) <= 0: 50-digit ΔF is > 0 at M - 1 and <= 0
    # at M on a seeded sample of n in [10^4, 10^7] with the two knife edges
    rng = np.random.default_rng(20260)
    ns = [48205, 1_007_027, *(int(n) for n in rng.integers(10**4, 10**7, size=198))]
    for n in ns:
        m = positive_cutoff(V.BEST_OR_WORST, Uniform(n))
        assert _mp_delta_sign(V.BEST_OR_WORST, Uniform(n), m - 1) > 0, n
        assert _mp_delta_sign(V.BEST_OR_WORST, Uniform(n), m) <= 0, n
        assert best_cutoff(V.BEST_OR_WORST, Uniform(n)).cutoff == m


def test_positive_cutoff_covers_the_closed_form_models_only():
    assert positive_cutoff(V.CLASSIC, Known(1)) == 1
    assert positive_cutoff(V.POSTDOC, Known(7)) == 3
    for variant, model in [(V.CLASSIC, Uniform(10)), (V.BEST_OR_WORST, Poisson(5.0)), (V.POSTDOC, _MIXED_MODELS[0])]:
        with pytest.raises(ValueError):
            positive_cutoff(variant, model)


def test_analytic_ties_resolve_to_zero_exactly():
    # F(0) = F(1) for postdoc wherever M = 1, and F(0) = F(M) on Known(2)
    # and Known(3) for best-or-worst: exact ties, settled as fractions
    ties = [(V.BEST_OR_WORST, Known(2)), (V.BEST_OR_WORST, Known(3))]
    for n in range(2, 41):
        for model in (Known(n), Uniform(n)):
            if positive_cutoff(V.POSTDOC, model) == 1:
                ties.append((V.POSTDOC, model))
    assert len(ties) > 10
    for variant, model in ties:
        m = positive_cutoff(variant, model)
        assert _exact_value(variant, model, 0) == _exact_value(variant, model, m), model
        assert best_cutoff(variant, model).cutoff == 0, model


# ---------------------------------------------------- structural invariants


@pytest.mark.parametrize("n", [2, 9, 17, 60, 141, 300])
def test_single_crossing_uniform(n):
    pred = [
        step_accept_prob(V.BEST_OR_WORST, Uniform(n), r)
        > step_reject_prob(V.BEST_OR_WORST, Uniform(n), r)
        for r in range(1, n + 1)
    ]
    # once accept dominates it stays dominant
    assert pred == sorted(pred)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 2.21, 3.0, 5.0, 10.0, 30.0, 50.0])
def test_single_crossing_poisson(lam):
    horizon = int(lam + 12 * math.sqrt(lam) + 30)
    diffs = [
        step_accept_prob(V.BEST_OR_WORST, Poisson(lam), r)
        - step_reject_prob(V.BEST_OR_WORST, Poisson(lam), r)
        for r in range(1, horizon)
    ]
    signs = [d > 0 for d in diffs]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes <= 1
    if lam < 2.2197719:
        # below the crossing rate the accept value never dips under reject
        assert all(signs)


@pytest.mark.parametrize("lam", [1.0, 5.0, 10.0])
def test_accept_prob_tends_to_one(lam):
    found = None
    for r in range(1, 500):
        if step_accept_prob(V.BEST_OR_WORST, Poisson(lam), r) >= 0.999:
            found = r
            break
    assert found is not None
    for r in (found + 10, found + 100):
        assert step_accept_prob(V.BEST_OR_WORST, Poisson(lam), r) >= 0.999


def test_uniform_optimum_strictly_decreasing():
    probs = [best_cutoff(V.BEST_OR_WORST, Uniform(n)).prob for n in range(2, 301)]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.32380511


# ------------------------ SuffixMoments and the curve against the old forms

# SuffixMoments and the curve arithmetic as they were before the contiguous
# slot map, the written-in-place suffix and weights, kept verbatim: the
# binary-search at, the concatenate suffix, the np.where weights and the
# whole-array curve expressions, whose V and W tables subtract.


class _SearchedMoments:
    def __init__(self, model, min_k=0):
        self.ks, self.ps = support(model, min_k)
        self._k = self.ks.astype(float)

    def at(self, t):
        return np.searchsorted(self.ks, t, side="left")

    @staticmethod
    def _suffix(w):
        return np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])

    @property
    def S(self):
        return self._suffix(self.ps)

    @property
    def U1(self):
        return self._suffix(np.where(self._k >= 1, self.ps / np.maximum(self._k, 1.0), 0.0))

    @property
    def U2(self):
        k = self._k
        return self._suffix(np.where(k >= 2, self.ps / np.maximum(k * (k - 1.0), 1.0), 0.0))

    @property
    def V(self):
        return self._suffix(np.where(self._k >= 2, self.ps / np.maximum(self._k - 1.0, 1.0), 0.0))

    @property
    def W(self):
        h = harmonic_numbers(int(self.ks.max(initial=0)))[np.maximum(self.ks - 1, 0)]
        return self._suffix(np.where(self._k >= 1, h * self.ps / np.maximum(self._k, 1.0), 0.0))


def _whole_array_curve(variant, model, r_max=None):
    mom = _SearchedMoments(model, min_k=r_max or 0)
    if r_max is None:
        r_max = int(mom.ks[-1])
    values = np.zeros(r_max + 1)
    if r_max >= 1:
        i = mom.at(np.arange(2, r_max + 2))
        r = np.arange(1, r_max + 1, dtype=float)
        if variant is Variant.CLASSIC:
            h = harmonic_numbers(r_max)[:-1]
            values[1:] = r * (mom.W[i] - h * mom.U1[i])
        else:
            values[1:] = (2 if variant is Variant.BEST_OR_WORST else 1) * r * (mom.V[i] - r * mom.U2[i])
    np.clip(values, 0.0, 1.0, out=values)
    return values[1:]


def _cancellation_bound(variant, model, r_max):
    """Per r = 1..r_max, how far the curve may lie from the cancelling forms
    r (W - H_{r-1} U1) and c r (V - r U2), read at r + 1: their first-order
    error bound, eps (m + 4) times the sum of the two terms (m the support
    size, since their suffix sums run sequentially over m points and H, V
    and U2 carry a few roundings more), plus 1e-13 of the value, the
    curve's own bound against exact fractions and 50-digit mpmath
    (tests/test_exact_references.py)."""
    mom = _SearchedMoments(model, min_k=r_max)
    i = mom.at(np.arange(2, r_max + 2))
    r = np.arange(1, r_max + 1, dtype=float)
    if variant is Variant.CLASSIC:
        terms = r * mom.W[i], r * harmonic_numbers(r_max)[:-1] * mom.U1[i]
    else:
        c = 2 if variant is Variant.BEST_OR_WORST else 1
        terms = c * r * mom.V[i], c * r * r * mom.U2[i]
    return (len(mom.ks) + 4) * np.finfo(float).eps * (terms[0] + terms[1]) + 1e-13 * np.abs(terms[0] - terms[1])


_SLOT_MODELS = [Known(1), Known(2), Known(57), Known(1000)] + [Uniform(n) for n in range(1, 301)]
_SLOT_MODELS += _MIXED_MODELS + [
    explicit_from_dict({0: 0.3, 1: 0.3, 2: 0.4}),  # contiguous, with mass at 0
    explicit_from_dict({2: 0.25, 5: 0.25, 6: 0.25, 11: 0.25}),  # gaps, none at 0
    explicit_from_dict({1: 1.0}),
] + [Poisson(lam) for lam in (0.01, 0.5, 5.0, 30.0, 1e3)]


def test_suffix_moments_bit_equal_to_the_searched_tables():
    # the slots bit for bit; the tables within 2 m eps relative of the plain
    # cumsum on m points, the first-order drift bound of both sums (equal
    # bits up to one block of 512 points)
    for model in _SLOT_MODELS:
        new, old = SuffixMoments(model), _SearchedMoments(model)
        m = len(new.ks)
        for name in ("S", "U1", "U2"):
            got, want = getattr(new, name), getattr(old, name)
            if m <= 512:
                assert got.tobytes() == want.tobytes(), (model, name)
            assert np.all(np.abs(got - want) <= 2 * m * _EPS * want), (model, name)
        top = int(new.ks[-1])
        t = np.arange(0, top + 4)
        assert new.at(t).tobytes() == old.at(t).tobytes(), model
        for scalar in (0, 1, 2, top, top + 1, top + 50):
            got, want = new.at(scalar), old.at(scalar)
            assert got.dtype == want.dtype and got == want, (model, scalar)


@pytest.mark.parametrize("variant", list(V))
def test_curve_bit_equal_to_the_whole_array_form(variant):
    # within the whole-array form's own error bound, as for the A/B/C/D form
    for model in _SLOT_MODELS + [Uniform(10**5), Poisson(1e5)]:
        for r_max in (None, 0, 1, 7):
            got = success_curve(variant, model, r_max).values[1:]
            want = _whole_array_curve(variant, model, r_max)
            top = len(want)
            assert np.all(np.abs(got - want) <= _cancellation_bound(variant, model, top)), (model, r_max)


_READ_MODELS = [Known(1), Known(57)] + [Uniform(n) for n in range(1, 301)]
_READ_MODELS += [Poisson(lam) for lam in (0.01, 5.0, 1e5)] + [
    explicit_from_dict({2: 0.25, 5: 0.25, 6: 0.25, 11: 0.25}),  # gaps
    explicit_from_dict({0: 0.2, 3: 0.3, 7: 0.5}),  # gaps, mass at 0
    explicit_from_dict({0: 0.3, 1: 0.3, 2: 0.4}),  # contiguous, mass at 0
    explicit_from_dict({0: 1.0}),  # every table but S is zero
    explicit_from_dict({3: 0.0, 4: 1.0, 5: 0.0}),  # zero masses at both ends
    explicit_from_dict({1: 0.0, 4: 0.0, 9: 1.0}),  # zero masses and gaps
]


def test_read_bit_equal_to_the_gather():
    for model in _READ_MODELS:
        mom = SuffixMoments(model)
        k0, top, n = int(mom.ks[0]), int(mom.ks[-1]), len(mom.ks)
        starts = sorted({k0 - 3, k0 - 1, 0, k0, (k0 + top) // 2, top, top + 1, top + 5})
        for name in ("S", "U1", "U2"):
            tab = getattr(mom, name)
            for t0 in starts:
                for m in (0, 1, 2, n, n + 1, top + 2 - t0, n + 7):
                    if m < 0:
                        continue
                    want = tab[mom.at(np.arange(t0, t0 + m))]
                    got = mom.read(tab, t0, np.full(m, np.nan))
                    assert got.tobytes() == want.tobytes(), (model, name, t0, m)


@pytest.mark.parametrize("model, r_maxes", [(Uniform(10**6), (None,)), (Known(20_000), (None, 7, 20_002))])
def test_classic_curve_on_one_harmonic_table_bit_equal_to_two(model, r_maxes):
    # the whole-array form builds H for W and again for H_{r-1}; the curve
    # lies within that form's error bound of it
    for r_max in r_maxes:
        got = success_curve(V.CLASSIC, model, r_max).values[1:]
        want = _whole_array_curve(V.CLASSIC, model, r_max)
        assert np.all(np.abs(got - want) <= _cancellation_bound(V.CLASSIC, model, len(want))), r_max
