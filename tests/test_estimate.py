"""Estimator constants and cutoff estimates vs. the exact argmax."""

import math

import mpmath
import pytest

from secstop.core_model import Poisson, Uniform, Variant
from secstop.estimate import (
    EstimatorId,
    affine_shift,
    g_theta,
    lambda0,
    lambda_m,
    poisson_cutoff_estimates,
    round_half_away,
    theta,
    uniform_cutoff_estimates,
    with_estimates,
)
from secstop.exact import (
    best_cutoff,
    closed_form_uniform,
    step_accept_prob,
    step_reject_prob,
)


# --------------------------------------------------------------- constants

def test_theta_frozen():
    assert theta() == pytest.approx(0.20318786997997998, abs=1e-16)


def test_theta_fixed_point():
    th = theta()
    assert abs(-2.0 * th * math.exp(-2.0 * th) + 2.0 * math.exp(-2.0)) < 1e-14


def test_g_at_theta():
    assert g_theta() == pytest.approx(0.3238051189459574, abs=1e-15)
    # the smooth form g(x) = -2x ln x - 2x(1-x) collapses to 2(x - x^2) at
    # the fixed point ln theta = 2 theta - 2
    th = theta()
    assert -2.0 * th * math.log(th) - 2.0 * th * (1.0 - th) == pytest.approx(g_theta(), abs=1e-15)


def test_g_stationary_at_theta():
    th = theta()
    assert abs(-2.0 * math.log(th) - 4.0 + 4.0 * th) < 1e-12


def test_affine_shift_frozen():
    assert affine_shift() == pytest.approx(-0.17114181786158375, abs=1e-15)
    th = theta()
    assert affine_shift() == pytest.approx(th / (4.0 * th - 2.0), abs=1e-15)


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(2.4999) == 2
    assert round_half_away(-0.5) == -1
    assert round_half_away(-1.5) == -2
    assert round_half_away(0.0) == 0


# -------------------------------------------------------------- estimators

def _by_id(pairs, eid):
    return next(v for i, v in pairs if i is eid)


def test_uniform_estimates_n100():
    est = uniform_cutoff_estimates(100)
    assert _by_id(est, EstimatorId.ROUND_N_THETA) == pytest.approx(
        20.318786997997998, abs=1e-12
    )
    assert round_half_away(_by_id(est, EstimatorId.ROUND_N_THETA)) == 20
    assert _by_id(est, EstimatorId.LAMBERT_UNIFORM) == pytest.approx(
        20.148567793066675, abs=1e-12
    )
    assert round_half_away(_by_id(est, EstimatorId.LAMBERT_UNIFORM)) == 20
    assert best_cutoff(Variant.BEST_OR_WORST, Uniform(100)).cutoff == 20


@pytest.mark.parametrize("n", [1, 2, 3, 10**4, 10**4 + 1, 10**6, 10**18])
def test_lambert_estimate_against_mpmath(n):
    # the argument -2 e^{psi(n) - 2}/n of W lies in (-2/e^2, -0.15] for
    # every n >= 1, since psi(n) < ln n; it comes closest to -2/e^2 at n =
    # 10^18
    with mpmath.workdps(40):
        ref = -(mpmath.mpf(n) / 2) * mpmath.lambertw(-2 * mpmath.exp(mpmath.digamma(n) - 2) / n)
        got = _by_id(uniform_cutoff_estimates(n), EstimatorId.LAMBERT_UNIFORM)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_round_n_theta_fails_at_8():
    # round(8 * theta) = 2, but the exact argmax over positive cutoffs is 1
    est = round_half_away(_by_id(uniform_cutoff_estimates(8), EstimatorId.ROUND_N_THETA))
    assert est == 2
    exact_m = max(range(1, 9), key=lambda r: closed_form_uniform(r, 8))
    assert exact_m != est
    assert exact_m == 1


def test_poisson_estimates():
    est = poisson_cutoff_estimates(10.0)
    assert _by_id(est, EstimatorId.HALF_LAMBDA_MINUS_ONE) == 4.0
    assert _by_id(est, EstimatorId.R_STAR_LAMBDA) == pytest.approx(
        3.6094727252403263, abs=1e-12
    )


def test_r_lambda_drifts_to_half_lambda_minus_one():
    est = poisson_cutoff_estimates(30.0)
    assert _by_id(est, EstimatorId.R_STAR_LAMBDA) - 15.0 == pytest.approx(-1.0, abs=0.1)


def test_r_lambda_rounds_to_exact_at_20():
    r = _by_id(poisson_cutoff_estimates(20.0), EstimatorId.R_STAR_LAMBDA)
    assert round_half_away(r) == best_cutoff(Variant.BEST_OR_WORST, Poisson(20.0)).cutoff


def test_r_lambda_continuity_across_series_fallback():
    # closed form below 30, direct pmf series above: the seam must be tight
    below = poisson_cutoff_estimates(29.999)
    above = poisson_cutoff_estimates(30.001)
    a = _by_id(below, EstimatorId.R_STAR_LAMBDA)
    b = _by_id(above, EstimatorId.R_STAR_LAMBDA)
    assert abs(a - b) < 1e-2


# ---------------------------------------------------- transcendental roots

def test_lambda0_frozen():
    root = lambda0()
    assert root == pytest.approx(2.2197714971047304, abs=2e-9)
    assert root == pytest.approx(2.2197719, abs=1e-6)


def test_lambda0_sign_change():
    for lam, sign in ((1.0, 1.0), (5.0, -1.0)):
        model = Poisson(lam)
        gap = step_accept_prob(Variant.BEST_OR_WORST, model, 1) - step_reject_prob(
            Variant.BEST_OR_WORST, model, 1
        )
        assert math.copysign(1.0, gap) == sign


def test_lambda_m_frozen():
    lam, p = lambda_m()
    assert lam == pytest.approx(2.017710499954865, abs=1e-7)
    assert p == pytest.approx(0.7264704765922492, abs=1e-12)
    assert lam == pytest.approx(2.01771, abs=1e-3)
    assert p == pytest.approx(0.72647, abs=1e-3)


def _mpmath_I(x):
    """I(x) = sum_{k>=1} x^k/(k k!) = Ei(x) - gamma - ln x."""
    return mpmath.ei(x) - mpmath.euler - mpmath.log(x)


def test_lambda0_against_mpmath():
    with mpmath.workdps(40):
        ref = mpmath.findroot(lambda x: 2 * x - _mpmath_I(x), 2.2)
    assert abs(lambda0() - ref) < 1e-14 * ref


def test_lambda_m_against_mpmath():
    # root of the rate derivative of the cutoff-0 success e^-x (2 I(x) - x)
    with mpmath.workdps(40):
        ref = mpmath.findroot(
            lambda x: mpmath.diff(lambda y: mpmath.exp(-y) * (2 * _mpmath_I(y) - y), x), 2.0
        )
    assert abs(lambda_m()[0] - ref) < 1e-14 * ref


def test_lambda0_is_where_the_step_one_gap_changes_sign():
    def gap(lam):
        model = Poisson(lam)
        return step_accept_prob(Variant.BEST_OR_WORST, model, 1) - step_reject_prob(
            Variant.BEST_OR_WORST, model, 1
        )

    root = lambda0()
    assert gap(root * (1.0 - 1e-9)) > 0.0 > gap(root * (1.0 + 1e-9))


def test_lambda_m_is_the_peak_of_the_optimal_success():
    lam, p = lambda_m()
    rep = best_cutoff(Variant.BEST_OR_WORST, Poisson(lam))
    assert rep.cutoff == 0 and rep.prob == p
    for other in (lam - 1e-3, lam + 1e-3):
        assert best_cutoff(Variant.BEST_OR_WORST, Poisson(other)).prob <= p


def test_success_vs_rate_is_unimodal_nearby():
    probs = [
        best_cutoff(Variant.BEST_OR_WORST, Poisson(lam)).prob for lam in (1.0, 2.0, 4.0)
    ]
    assert probs[0] < probs[1] and probs[1] > probs[2]


# ------------------------------------------------------------ report glue

def test_with_estimates_uniform():
    rep = with_estimates(best_cutoff(Variant.BEST_OR_WORST, Uniform(100)))
    names = [c.name for c in rep.estimators]
    assert names == ["RoundNTheta", "AffineTheta", "LambertUniform"]
    assert all(c.agrees for c in rep.estimators)
    assert all(c.rounded == 20 for c in rep.estimators)


def test_with_estimates_poisson():
    rep = with_estimates(best_cutoff(Variant.BEST_OR_WORST, Poisson(10.0)))
    assert rep.cutoff == 4
    assert {c.name: c.agrees for c in rep.estimators} == {
        "RStarLambda": True,
        "HalfLambdaMinusOne": True,
    }


def test_with_estimates_known_is_noop():
    from secstop.core_model import Known

    rep = best_cutoff(Variant.BEST_OR_WORST, Known(30))
    assert with_estimates(rep) == rep
    assert with_estimates(rep).estimators == ()


@pytest.mark.parametrize("model", [Uniform(1000), Poisson(100.0)])
def test_with_estimates_only_for_the_two_sided_rules(model):
    # the estimators approximate the bw and pd cutoff; a classic report
    # carries none of them
    assert with_estimates(best_cutoff(Variant.CLASSIC, model)).estimators == ()
    for variant in (Variant.BEST_OR_WORST, Variant.POSTDOC):
        rep = with_estimates(best_cutoff(variant, model))
        assert len(rep.estimators) == (3 if isinstance(model, Uniform) else 2)
        assert all(c.agrees for c in rep.estimators), (variant, rep.estimators)
