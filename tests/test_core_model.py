"""Core model tests: every closed form is pinned against brute-force
enumeration of arrival orders (exact rational counts) where feasible."""

import math
from fractions import Fraction
from itertools import permutations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secstop import core_model, specfun
from secstop.core_model import (
    CutoffReport,
    EstimatorCheck,
    Explicit,
    Known,
    PmfMassError,
    Poisson,
    ThresholdPolicy,
    Uniform,
    Variant,
    explicit_from_dict,
    nice_probabilities,
    nice_probability,
    support,
    tail_prob,
    threshold_success_known,
    truncate_to_explicit,
)
from secstop.specfun import EULER_GAMMA, chernoff_point, harmonic, harmonic_gap, harmonic_gap_ratio, poisson_k_max

from oracles import KnownOptimum, accept_success_known, pbw_known

_EPS = 2.0**-52

V = Variant


def _is_nice(variant, prefix):
    """Is the last element of `prefix` a nice candidate?  Larger = better."""
    t = len(prefix)
    x = prefix[-1]
    if variant is V.CLASSIC:
        return x == max(prefix)
    if variant is V.BEST_OR_WORST:
        return x == max(prefix) or x == min(prefix)
    return t >= 2 and x == sorted(prefix)[-2]


def _is_win(variant, accepted, n):
    if variant is V.CLASSIC:
        return accepted == n
    if variant is V.BEST_OR_WORST:
        return accepted in (1, n)
    return n >= 2 and accepted == n - 1


def brute_threshold_success(variant, n, r):
    """Exact rational success probability of the cutoff-r policy over all n!
    arrival orders."""
    wins = 0
    for perm in permutations(range(1, n + 1)):
        accepted = None
        for t in range(r + 1, n + 1):
            if _is_nice(variant, perm[:t]):
                accepted = perm[t - 1]
                break
        if accepted is not None and _is_win(variant, accepted, n):
            wins += 1
    return Fraction(wins, math.factorial(n))


def test_nice_probability_values():
    assert nice_probability(V.BEST_OR_WORST, 1) == 1.0
    assert nice_probability(V.BEST_OR_WORST, 4) == 0.5
    assert nice_probability(V.POSTDOC, 1) == 0.0
    assert nice_probability(V.POSTDOC, 2) == 0.5
    assert nice_probability(V.CLASSIC, 7) == 1.0 / 7
    with pytest.raises(ValueError):
        nice_probability(V.CLASSIC, 0)


@pytest.mark.parametrize("variant", list(V))
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_nice_probability_against_enumeration(variant, t):
    hits = sum(_is_nice(variant, perm) for perm in permutations(range(1, t + 1)))
    assert nice_probability(variant, t) == pytest.approx(hits / math.factorial(t), abs=1e-15)


@pytest.mark.parametrize("variant", list(V))
def test_nice_probabilities_bit_equal_scalar_and_formula(variant):
    first, numerator = {V.CLASSIC: (1.0, 1.0), V.BEST_OR_WORST: (1.0, 2.0), V.POSTDOC: (0.0, 1.0)}[variant]
    want = [0.0, first] + [numerator / t for t in range(2, 5001)]
    assert nice_probabilities(variant, np.arange(5001)).tolist() == want
    assert [nice_probability(variant, t) for t in range(1, 5001)] == want[1:]
    assert nice_probabilities(variant, np.arange(1)).tolist() == [0.0]
    steps = np.array([7, 0, 4999, 1, 2])
    assert nice_probabilities(variant, steps).tolist() == [want[t] for t in steps]


def test_accept_success_examples():
    assert accept_success_known(V.BEST_OR_WORST, 10, 5) == 0.5
    assert accept_success_known(V.POSTDOC, 10, 10) == 1.0
    assert accept_success_known(V.POSTDOC, 4, 2) == pytest.approx(1.0 / 6, abs=1e-15)
    with pytest.raises(ValueError):
        accept_success_known(V.CLASSIC, 5, 6)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_accept_success_against_enumeration(n):
    # condition on the r-th object being nice, accept it, count wins
    for variant in V:
        for r in range(1, n + 1):
            nice_count = 0
            win_count = 0
            for perm in permutations(range(1, n + 1)):
                if _is_nice(variant, perm[:r]):
                    nice_count += 1
                    if _is_win(variant, perm[r - 1], n):
                        win_count += 1
            if nice_count == 0:
                continue  # postdoc at r = 1: conditioning event is empty
            expected = Fraction(win_count, nice_count)
            got = accept_success_known(variant, n, r)
            if variant is V.BEST_OR_WORST and r == 1 and n >= 2:
                # the single-identity convention halves the true r = 1 value
                assert got == pytest.approx(float(expected) / 2, abs=1e-12)
            else:
                assert got == pytest.approx(float(expected), abs=1e-12)


def test_threshold_success_formula_examples():
    assert threshold_success_known(V.BEST_OR_WORST, 5, 2) == pytest.approx(0.6, abs=1e-15)
    assert threshold_success_known(V.BEST_OR_WORST, 3, 5) == 0.0
    assert threshold_success_known(V.POSTDOC, 6, 3) == pytest.approx(0.3, abs=1e-15)
    assert threshold_success_known(V.CLASSIC, 10, 0) == pytest.approx(0.1, abs=1e-15)
    # (r/n)(psi(n) - psi(r)) at n=4, r=1: (1/4) * H_3
    assert threshold_success_known(V.CLASSIC, 4, 1) == pytest.approx(11.0 / 24, abs=1e-15)
    # degenerate single-object edges
    assert threshold_success_known(V.BEST_OR_WORST, 1, 0) == 1.0
    assert threshold_success_known(V.BEST_OR_WORST, 1, 1) == 0.0
    assert threshold_success_known(V.POSTDOC, 1, 0) == 0.0
    assert threshold_success_known(V.CLASSIC, 1, 0) == 1.0


def _branched_threshold_success_known(variant: Variant, n: int, r: int) -> float:
    """threshold_success_known as it was before F(0) became nu_n and the
    two-sided rules shared one factor, kept verbatim but for psi(m), which
    is H_{m-1} - gamma."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if variant is Variant.CLASSIC:
        if r == 0:
            return 1.0 / n
        if r >= n:
            return 0.0
        return (r / n) * ((harmonic(n - 1) - EULER_GAMMA) - (harmonic(r - 1) - EULER_GAMMA))
    # best-or-worst core value; postdoc is exactly half of it
    if r == 0:
        bw = 1.0 if n == 1 else 2.0 / n
    elif r > n or n == 1:
        bw = 0.0
    else:
        bw = 2.0 * r * (n - r) / (n * (n - 1))
    if variant is Variant.BEST_OR_WORST:
        return bw
    if n == 1:
        return 0.0  # no second best exists
    return 0.5 * bw


@pytest.mark.parametrize("variant", list(V))
def test_threshold_success_bit_equal_to_the_branched_form(variant):
    # the two-sided rows bit for bit; the classic rows, whose harmonic
    # difference is now harmonic_gap's and not psi(n) - psi(r), within
    # (r/n) e + eps F of the exact fraction, e harmonic_gap's own error bound
    for n in range(1, 301):
        for r in range(0, n + 3):
            got = threshold_success_known(variant, n, r)
            if variant is V.CLASSIC and 1 <= r < n:
                exact = Fraction(r, n) * Fraction(*harmonic_gap_ratio(n - 1, r - 1))
                bound = r / n * harmonic_gap(n - 1, r - 1)[1] + _EPS * got
                assert abs(Fraction(got) - exact) <= bound, (n, r)
            else:
                assert got == _branched_threshold_success_known(variant, n, r), (n, r)


@pytest.mark.parametrize("n", [20001, 10**6, 10**7])
def test_classic_threshold_success_against_mpmath(n):
    # psi(n) - psi(r) from two expansions was off by 6.6e-10 at (10^6, n - 1)
    for r in (1, 2, int(n / math.e), n - 10, n - 1):
        with mpmath.workdps(50):
            want = mpmath.mpf(r) / n * (mpmath.harmonic(n - 1) - mpmath.harmonic(r - 1))
        got = threshold_success_known(V.CLASSIC, n, r)
        assert abs(got - want) <= 1e-15 * want, (r, got, want)


@pytest.mark.parametrize("n, r", [(1001, 1000), (999, 998), (500, 499), (1002, 992)])
def test_classic_threshold_success_inside_the_cache_against_mpmath(n, r):
    # with r - 1 < 1000 the gap is two cached sums less their Kahan carries;
    # without the carries it was 3.3e-13 off at (1001, 1000)
    with mpmath.workdps(50):
        want = mpmath.mpf(r) / n * (mpmath.harmonic(n - 1) - mpmath.harmonic(r - 1))
    got = threshold_success_known(V.CLASSIC, n, r)
    assert abs(got - want) <= 1e-15 * want, (got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_threshold_success_against_enumeration(n):
    for variant in V:
        for r in range(0, n + 2):
            exact = brute_threshold_success(variant, n, r)
            assert threshold_success_known(variant, n, r) == pytest.approx(
                float(exact), abs=1e-13
            ), (variant, n, r)


@given(st.integers(min_value=2, max_value=500), st.data())
@settings(max_examples=120, deadline=None)
def test_factor_of_two(n, data):
    r = data.draw(st.integers(min_value=0, max_value=n))
    bw = threshold_success_known(V.BEST_OR_WORST, n, r)
    pd = threshold_success_known(V.POSTDOC, n, r)
    assert abs(bw - 2.0 * pd) < 1e-15


def test_pbw_known_values():
    assert pbw_known(1) == KnownOptimum(0, 1.0, 0.0)
    assert pbw_known(2) == KnownOptimum(1, 1.0, 0.5)
    assert pbw_known(3).p_bw == pytest.approx(2.0 / 3, abs=1e-15)
    assert pbw_known(10).cutoff == 5
    assert pbw_known(10).p_bw == pytest.approx(5.0 / 9, abs=1e-15)


@given(st.integers(min_value=2, max_value=500))
@settings(max_examples=120, deadline=None)
def test_pbw_matches_threshold_maximum(n):
    opt = pbw_known(n)
    values = [threshold_success_known(V.BEST_OR_WORST, n, r) for r in range(n + 1)]
    assert opt.p_bw == pytest.approx(max(values), abs=1e-13)
    assert values[n // 2] == pytest.approx(opt.p_bw, abs=1e-13)
    assert opt.p_pd == pytest.approx(opt.p_bw / 2, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_expected_nice_count_telescopes(n):
    # E[#best-or-worst-nice among n] = 1 + sum_{t=2..n} 2/t
    total = 0
    for perm in permutations(range(1, n + 1)):
        total += sum(_is_nice(V.BEST_OR_WORST, perm[:t]) for t in range(1, n + 1))
    expected = 1.0 + sum(2.0 / t for t in range(2, n + 1))
    assert total / math.factorial(n) == pytest.approx(expected, abs=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        Known(0)
    with pytest.raises(ValueError):
        Uniform(0)
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        Explicit(((1, 0.5), (1, 0.5)))
    with pytest.raises(ValueError):
        Explicit(((1, 0.4), (2, 0.7)))
    with pytest.raises(ValueError):
        Explicit(((-1, 0.5), (2, 0.5)))
    # every comparison with NaN is false, so a NaN mass passes a >= 0 test
    # and makes the total NaN, which no tolerance test catches
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Explicit(((1, bad), (2, 1.0)))
    # a negative mass that the others make up for
    with pytest.raises(ValueError, match="finite and >= 0"):
        Explicit(((1, -0.5), (2, 1.5)))
    # k = 0 with explicit mass is allowed
    m = Explicit(((0, 0.25), (3, 0.75)))
    assert tail_prob(m, 1) == pytest.approx(0.75)
    # items out of order are sorted by k
    assert Explicit(((10, 0.5), (5, 0.5))).items == ((5, 0.5), (10, 0.5))


def test_support_and_tail():
    ks, ps = support(Uniform(4))
    assert list(ks) == [1, 2, 3, 4]
    assert ps.sum() == pytest.approx(1.0)
    assert tail_prob(Uniform(4), 3) == pytest.approx(0.5)
    assert tail_prob(Known(7), 7) == 1.0
    assert tail_prob(Known(7), 8) == 0.0
    ks, ps = support(Poisson(5.0))
    assert ks[0] == 0
    assert ps.sum() == pytest.approx(1.0, abs=1e-12)
    assert tail_prob(Poisson(5.0), 1) == pytest.approx(1.0 - math.exp(-5.0), abs=1e-13)
    for model in (Known(7), Uniform(4), Poisson(5.0), Explicit(((0, 0.25), (3, 0.75)))):
        assert tail_prob(model, 0) == 1.0


def test_poisson_k_max_is_a_closed_bound_of_the_rate():
    # ceil(lam + t), t = 12 sqrt(lam) + 50, where Bennett's bound on the
    # tail, exp(-t^2/(2(lam + t/3))), is below e^-72: t^2 > 144 lam + 48 t
    for lam in (0.01, 2.0, 100.0, 745.5, 1e5, 1e7):
        t = 12.0 * math.sqrt(lam) + 50.0
        assert poisson_k_max(lam) == math.ceil(lam + t)
        assert t * t > 144.0 * lam + 48.0 * t
    assert support(Poisson(2.0))[0][-1] == poisson_k_max(2.0) == 69


def test_poisson_window_cap_is_checked_before_any_table(monkeypatch):
    # adjacent floats: the window from chernoff_point to k_max holds 2*10^7
    # points at the first and one more at the second
    last_fit, first_past = 694440890106.5913, 694440890106.5914
    assert first_past == math.nextafter(last_fit, math.inf)
    assert poisson_k_max(last_fit) - chernoff_point(last_fit) + 1 == specfun._MAX_WINDOW
    message = r"Poisson\(lam=694440890106\.5914\) holds 20000001 points, past the cap of 20000000$"
    with pytest.raises(RuntimeError, match=message):
        poisson_k_max(first_past)

    def no_table(*_):
        raise AssertionError("a table was built")

    monkeypatch.setattr(core_model, "poisson_pmf_array", no_table)
    monkeypatch.setattr(specfun, "poisson_pmf_array", no_table)
    monkeypatch.setattr(np, "arange", no_table)
    tables = (
        lambda: support(Poisson(first_past)),
        lambda: specfun.poisson_step_table(first_past, 1),
        lambda: specfun.poisson_tail(int(first_past), first_past),
    )
    for table in tables:
        with pytest.raises(RuntimeError, match="past the cap"):
            table()

    # the cap is read at call time, where it is defined
    monkeypatch.setattr(specfun, "_MAX_WINDOW", 69)
    with pytest.raises(RuntimeError, match="holds 70 points, past the cap of 69$"):
        poisson_k_max(2.0)


def test_truncate_to_explicit_preserves_mass():
    m = truncate_to_explicit(Poisson(6.0))
    total = sum(p for _, p in m.items)
    assert abs(total - 1.0) < 1e-15
    assert m.items[0][0] == 0
    # tail probabilities agree with the live model away from the fold point
    for r in (1, 3, 8):
        assert tail_prob(m, r) == pytest.approx(tail_prob(Poisson(6.0), r), abs=1e-12)


def test_truncate_to_explicit_names_a_pmf_that_drifts_from_mass_one(monkeypatch):
    # a numeric limit of a valid model, so a RuntimeError (CLI exit 3), not
    # the ValueError of a bad table; masses scaled by 1 - 3e-12 stand in for
    # a pmf that drifts
    true_pmf = core_model.poisson_pmf_array
    monkeypatch.setattr(core_model, "poisson_pmf_array", lambda *args: true_pmf(*args) * (1.0 - 3e-12))
    with pytest.raises(PmfMassError, match=r"Poisson\(lam=3000\.0\) sums to 1 -3\.0e-12 in floats") as info:
        truncate_to_explicit(Poisson(3000.0))
    assert isinstance(info.value, RuntimeError) and not isinstance(info.value, ValueError)


@pytest.mark.parametrize("lam", [3000.0, 1e4, 1e5])
def test_truncate_to_explicit_keeps_large_poisson_rates_within_the_mass_tolerance(lam):
    # the log-space pmf missed mass 1 by -2.7e-12, +8.9e-12 and +1.9e-11
    # here; Loader's masses sum to 1 within what a table allows
    table = truncate_to_explicit(Poisson(lam))
    assert abs(math.fsum(p for _, p in table.items) - 1.0) <= 1e-12


def test_mass_check_takes_the_exact_sum_of_a_long_table():
    # 10^5 masses of 1e-5 sum to 1 - 1.9e-12 one at a time; math.fsum gives
    # 1, so neither the table nor the truncation of Uniform(10^5) is refused
    n = 10**5
    items = tuple((k, 1e-5) for k in range(1, n + 1))
    assert sum(p for _, p in items) - 1.0 < -1e-12
    assert Explicit(items).items == items
    assert truncate_to_explicit(Uniform(n)).items == items
    # a real miss of 2e-12 is still refused
    with pytest.raises(ValueError, match="sum to 1 within 1e-12"):
        Explicit(items[:-1] + ((n, 1e-5 + 2e-12),))


def test_truncate_to_explicit_keeps_the_poisson_mass_window():
    # Poisson(1000)'s window starts at its Chernoff point, k = 620: the table
    # starts there, with the masses of support() and the tail folded into
    # its top, and nothing folded into its first point
    ks, ps = support(Poisson(1000.0))
    m = truncate_to_explicit(Poisson(1000.0))
    assert m.items[0][0] == int(ks[0]) == chernoff_point(1000.0) == 620
    assert m.items[0][1] == ps[0]
    assert [k for k, _ in m.items] == ks.tolist()
    assert [p for _, p in m.items[:-1]] == ps[:-1].tolist()


@pytest.mark.parametrize("lam", [0.5, 2.0, 100.0, 745.0, 746.0, 1e4, 1e5, 1e7])
def test_poisson_window_is_kept_per_rate_bit_for_bit(lam):
    # the same arrays again for the same rate, and a fresh build has their
    # bits; the window starts at 0 below lam = 146, where lam - 12 sqrt(lam)
    # is still below 1, and above 0 from 146 on
    ks, ps = support(Poisson(lam))
    again = support(Poisson(lam))
    assert again[0] is ks and again[1] is ps
    core_model._last_window = None
    fresh_ks, fresh_ps = support(Poisson(lam))
    assert fresh_ps is not ps
    assert fresh_ks.tobytes() == ks.tobytes() and fresh_ps.tobytes() == ps.tobytes()
    assert (ks[0] == 0) == (lam < 146.0)


def test_poisson_window_is_read_only():
    ks, ps = support(Poisson(100.0))
    with pytest.raises(ValueError, match="read-only"):
        ps[-1] += 1e-3
    with pytest.raises(ValueError, match="read-only"):
        ks[0] = 1
    # the other models' supports are the caller's own arrays
    for model in (Known(3), Uniform(3), Explicit(((1, 0.5), (4, 0.5)))):
        ks, ps = support(model)
        ps[0] = 0.0
        assert support(model)[1][0] != 0.0


def test_poisson_window_is_replaced_by_the_next_rate():
    first = support(Poisson(10.0))
    second = support(Poisson(20.0))
    assert support(Poisson(20.0))[1] is second[1]
    assert support(Poisson(10.0))[1] is not first[1]


def test_truncation_leaves_the_poisson_window_as_it_was():
    ks, ps = support(Poisson(1000.0))
    before = ps.tobytes()
    a, b = truncate_to_explicit(Poisson(1000.0)), truncate_to_explicit(Poisson(1000.0))
    assert a.items == b.items
    assert a.items[-1][1] > ps[-1]  # the tail went into the table's last mass
    assert support(Poisson(1000.0))[1] is ps and ps.tobytes() == before


def test_one_poisson_window_serves_the_cutoffs_and_curves_of_a_rate(monkeypatch):
    from secstop.exact import best_cutoff, success_curve

    builds = []
    true_pmf = core_model.poisson_pmf_array

    def counted(*args):
        builds.append(args)
        return true_pmf(*args)

    monkeypatch.setattr(core_model, "poisson_pmf_array", counted)
    model = Poisson(1e5)
    for variant in (V.BEST_OR_WORST, V.POSTDOC):
        best_cutoff(variant, model)
    for variant in (V.BEST_OR_WORST, V.POSTDOC):
        success_curve(variant, model, 50_000)
    assert len(builds) == 1


def test_poisson_window_cap_holds_for_a_kept_window(monkeypatch):
    # the cap is checked on every call, before the kept window is looked up
    ks, _ = support(Poisson(1e4))
    window = poisson_k_max(1e4) - chernoff_point(1e4) + 1
    monkeypatch.setattr(specfun, "_MAX_WINDOW", window - 1)
    with pytest.raises(RuntimeError, match=f"holds {window} points, past the cap of {window - 1}$"):
        support(Poisson(1e4))


@pytest.mark.parametrize(
    "items",
    [
        ((1, 0.5), (1, 0.5)),
        ((-1, 0.5), (2, 0.5)),
        ((1, 0.5), (-1, 0.5), (1, 0.0)),
        ((1, 0.4), (2, 0.7)),
        ((1, math.nan), (2, 1.0)),
        ((1, math.inf), (2, -math.inf)),
        ((1, -0.5), (2, 1.5)),
        ((1, 1e308), (2, 1e308)),
        ((10, 0.5), (5, 0.5)),
        ((0, 0.25), (3, 0.75)),
        (),
    ],
)
def test_a_table_from_columns_is_checked_as_its_pairs(items):
    # truncations build their table from the columns of a support; the
    # checks, their order and their messages are the constructor's
    ks, ps = [k for k, _ in items], [p for _, p in items]
    try:
        expected = Explicit(items)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as info:
            Explicit._from_columns(ks, ps)
        assert str(info.value) == str(exc)
    else:
        table = Explicit._from_columns(ks, ps)
        assert table == expected and table.items == expected.items


def test_report_types_round_trip():
    rep = CutoffReport(
        model=Uniform(10),
        variant=V.BEST_OR_WORST,
        cutoff=2,
        prob=0.5,
        estimators=(EstimatorCheck("x", 2.2, 2, True),),
    )
    assert rep.estimators[0].agrees
    with pytest.raises(ValueError):
        ThresholdPolicy(-1)
