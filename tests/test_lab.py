"""Failure scans, convergent coincidences, and limit probes."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from secstop import exact, lab
from secstop.core_model import Uniform, Variant
from secstop.estimate import EstimatorId, theta
from secstop.exact import best_cutoff, closed_form_uniform
from secstop.lab import (
    Convergent,
    asymptote_probe,
    cf_convergents,
    scan_estimator_failures,
    verify_convergent_cutoffs,
)

from oracles import poisson_fstar_and_f

E_INV_CONVERGENTS = [
    (0, 1), (1, 2), (1, 3), (3, 8), (4, 11), (7, 19), (32, 87), (39, 106),
    (71, 193), (465, 1264), (536, 1457), (1001, 2721),
]
THETA_CONVERGENTS = [
    (0, 1), (1, 4), (1, 5), (12, 59), (13, 64), (38, 187), (51, 251),
    (1262, 6211), (1313, 6462), (11766, 57907), (13079, 64369),
    (64082, 315383),
]


# ------------------------------------------------------ continued fractions

def test_e_inverse_convergents():
    got = [(c.p, c.q) for c in cf_convergents(math.exp(-1.0), 12)]
    assert got == E_INV_CONVERGENTS


def test_theta_convergents():
    got = [(c.p, c.q) for c in cf_convergents(theta(), 12)]
    assert got == THETA_CONVERGENTS


def test_convergents_are_reduced_and_alternate():
    cs = cf_convergents(math.exp(-1.0), 12)
    x = math.exp(-1.0)
    signs = []
    for c in cs:
        assert math.gcd(c.p, c.q) == 1
        signs.append(math.copysign(1.0, c.p / c.q - x))
    assert all(a != b for a, b in zip(signs, signs[1:]))


def test_exact_binary_rational_terminates():
    cs = cf_convergents(0.5, 12)
    assert [(c.p, c.q) for c in cs] == [(0, 1), (1, 2)]


def test_depth_cap_and_domain():
    with pytest.raises(ValueError):
        cf_convergents(math.exp(-1.0), 13)
    with pytest.raises(ValueError):
        cf_convergents(1.5, 3)
    with pytest.raises(ValueError):
        cf_convergents(0.3, 0)


def test_uncertifiable_depth_raises():
    # a float one ulp off 1/3 hides a huge partial quotient right behind
    # 1/3; its convergents past 1/2 are representation noise
    x = math.nextafter(1.0 / 3.0, 1.0)
    assert [(c.p, c.q) for c in cf_convergents(x, 2)] == [(0, 1), (1, 2)]
    with pytest.raises(ValueError, match="certified"):
        cf_convergents(x, 5)


# ------------------------------------------------------------- coincidences

def test_classic_convergents_all_match():
    cs = cf_convergents(math.exp(-1.0), 12)
    rows = verify_convergent_cutoffs(Variant.CLASSIC, cs)
    assert len(rows) == 11  # leading 0/1 skipped
    assert all(match for *_, match in rows)
    assert (7, 19, 7, True) in rows
    assert (1001, 2721, 1001, True) in rows


def test_theta_convergents_match_through_6462():
    cs = cf_convergents(theta(), 12)[:9]
    rows = verify_convergent_cutoffs(Variant.BEST_OR_WORST, cs)
    assert [(p, q) for p, q, _, _ in rows] == THETA_CONVERGENTS[1:9]
    assert all(match for *_, match in rows)


def test_deep_horizons_past_the_exact_harmonic_range():
    # past H_10000 a harmonic number is the cached H_1000 plus the expansion
    # of the gap from it; the argmax at q = 57907 against 40-digit harmonic
    # numbers near r = q theta
    n = 57907
    rows = verify_convergent_cutoffs(Variant.BEST_OR_WORST, [Convergent(11766, n, 9)])
    with mpmath.workdps(40):
        h = mpmath.harmonic(n - 1)
        vals = {r: r * (r - n) + n * r * (h - mpmath.harmonic(r - 1)) for r in range(11750, 11790)}
    assert rows == [(11766, n, max(vals, key=vals.get), True)]


def test_postdoc_has_no_coincidence_scan():
    with pytest.raises(ValueError):
        verify_convergent_cutoffs(Variant.POSTDOC, [Convergent(1, 4, 1)])


def test_positive_cutoff_matches_curve_argmax():
    for n in (5, 23, 64, 187):
        rows = verify_convergent_cutoffs(
            Variant.BEST_OR_WORST, [Convergent(1, n, 0)]
        )
        m = rows[0][2]
        vals = [closed_form_uniform(r, n) for r in range(1, n + 1)]
        assert m == 1 + int(np.argmax(vals))


def _bw_uniform_delta_sign(n, r):
    """The sign of ΔF(r) for bw under Uniform(n) in fractions: of
    n(H_{n-1} - H_r) - 2n + 2r + 1, which is n^2 ΔF(r)/2."""
    gap = sum((Fraction(1, k) for k in range(r + 1, n)), Fraction(0))
    g = n * gap - 2 * n + 2 * r + 1
    return (g > 0) - (g < 0)


@pytest.mark.parametrize("n, m", [(23, 4), (2971, 603)])
def test_criterion_05_cutoffs_pinned_by_the_sign_of_the_difference(n, m):
    # the knife edges where the affine and Lambert estimates round to m + 1
    assert _bw_uniform_delta_sign(n, m - 1) > 0
    assert _bw_uniform_delta_sign(n, m) < 0
    rows = verify_convergent_cutoffs(Variant.BEST_OR_WORST, [Convergent(1, n, 1)])
    assert rows[0][2] == m
    assert scan_estimator_failures(EstimatorId.AFFINE_THETA, n, n).details == ((n, m + 1, m),)


# ------------------------------------------------------------ failure scans

def test_round_n_theta_failures_to_121():
    scan = scan_estimator_failures(EstimatorId.ROUND_N_THETA, 2, 121)
    assert scan.failures == (
        2, 8, 13, 18, 23, 32, 37, 42, 47, 52, 57, 62, 67, 72, 77, 82,
        96, 101, 106, 111, 116, 121,
    )
    assert scan.max_deviation == 1


def test_affine_theta_failures_to_3000():
    scan = scan_estimator_failures(EstimatorId.AFFINE_THETA, 2, 3000)
    assert scan.failures == (2, 3, 23, 2971)
    assert scan.max_deviation == 1
    assert scan.details == ((2, 0, 1), (3, 0, 1), (23, 5, 4), (2971, 604, 603))


def test_lambert_failures_to_3000():
    # the knife edges: the smoothed maximizer lands at 4.50610... for n=23
    # and 603.50005... for n=2971, each rounding up past the true argmax
    scan = scan_estimator_failures(EstimatorId.LAMBERT_UNIFORM, 2, 3000)
    assert scan.failures == (2, 3, 23, 2971)
    assert scan.max_deviation == 1


def test_half_lambda_minus_one_deviations():
    scan = scan_estimator_failures(EstimatorId.HALF_LAMBDA_MINUS_ONE, 2, 200)
    assert scan.failures == (4, 5, 7, 9, 11, 13, 15)
    assert scan.details == (
        (4, 1, 0), (5, 1, 2), (7, 2, 3), (9, 3, 4), (11, 4, 5), (13, 5, 6),
        (15, 6, 7),
    )
    assert scan.max_deviation == 1


def test_r_star_lambda_deviations():
    scan = scan_estimator_failures(EstimatorId.R_STAR_LAMBDA, 2, 200)
    assert scan.failures == (2, 3, 4, 7, 9, 11, 13, 15)
    assert scan.max_deviation == 1


def test_a_scan_without_misses_has_no_deviation():
    scan = scan_estimator_failures(EstimatorId.AFFINE_THETA, 24, 400)
    assert (scan.failures, scan.details, scan.max_deviation) == ((), (), 0)


def test_scan_from_the_last_cutoff_equals_a_scan_of_fresh_bisections(monkeypatch):
    # each n's search starts at the last n's M; ΔF falls once, so every M is
    # the plain bisection's
    estimators = (EstimatorId.ROUND_N_THETA, EstimatorId.AFFINE_THETA, EstimatorId.LAMBERT_UNIFORM)
    scans = [scan_estimator_failures(e, 1, 700) for e in estimators]
    monkeypatch.setattr(lab, "positive_cutoff", lambda variant, model, near=None: exact.positive_cutoff(variant, model))
    assert scans == [scan_estimator_failures(e, 1, 700) for e in estimators]


def test_scan_validates_range():
    with pytest.raises(ValueError):
        scan_estimator_failures(EstimatorId.ROUND_N_THETA, 0, 10)
    with pytest.raises(ValueError):
        scan_estimator_failures(EstimatorId.ROUND_N_THETA, 10, 2)


# ------------------------------------------------------------- limit probes

@pytest.fixture(scope="module")
def probe():
    return asymptote_probe()


def test_uniform_gaps_positive_and_halving(probe):
    gaps = [g for _, _, g in probe.uniform_rows]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # the drift is first-order 1/n: doubling n should halve the gap
    for a, b in zip(gaps, gaps[1:]):
        assert b == pytest.approx(a / 2, rel=0.02)


def test_poisson_gaps_negative_and_shrinking(probe):
    gaps = [g for _, _, g in probe.poisson_rows]
    assert all(g < 0 for g in gaps)
    mags = [abs(g) for g in gaps]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    assert mags[0] == pytest.approx(0.002674, abs=2e-6)
    assert mags[-1] == pytest.approx(2.6e-5, abs=2e-6)


def test_mixture_identity_tight(probe):
    for _, series, closed, gap in probe.mixture_rows:
        assert gap < 1e-10
        assert 0.5 < closed < 1.0
    # the revealed-count mixture also drifts down to 1/2
    vals = [c for _, _, c, _ in probe.mixture_rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_f_head_vanishes():
    # the head f(floor(lam/2), lam) of the smoothing identity F = f* - f
    mags = [abs(poisson_fstar_and_f(int(lam) // 2, lam)[1]) for lam in (25.0, 50.0, 100.0, 200.0)]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    assert mags[-1] < 1e-12


def test_limits_recorded(probe):
    th = theta()
    assert probe.uniform_limit == pytest.approx(2 * (th - th * th), abs=1e-15)
    assert probe.poisson_limit == 0.5


def test_probe_consistent_with_direct_evaluation(probe):
    n, p, _ = probe.uniform_rows[0]
    assert p == best_cutoff(Variant.BEST_OR_WORST, Uniform(n)).prob
