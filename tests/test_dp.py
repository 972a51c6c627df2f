"""Backward induction vs. closed forms, curve maxima, and brute force."""

from fractions import Fraction

import numpy as np
import pytest

from secstop.core_model import (
    Explicit,
    Known,
    Poisson,
    ThresholdPolicy,
    Uniform,
    Variant,
    nice_probability,
    pbw_known,
    support,
    threshold_success_known,
    truncate_to_explicit,
)
from secstop.dp import (
    DPPolicy,
    backward_induction,
    exhaustive_oracle,
    printed_recursion_gap,
    verify_threshold_structure,
)
from secstop.exact import best_cutoff, step_reject_prob, success_curve


# ---------------------------------------------------------------- known n

@pytest.mark.parametrize("n", range(1, 61))
def test_known_bw_value_and_threshold(n):
    pol = backward_induction(Variant.BEST_OR_WORST, Known(n))
    assert pol.is_threshold
    assert pol.value == pytest.approx(pbw_known(n).p_bw, abs=1e-13)
    if n >= 4:
        assert pol.threshold == n // 2
    else:
        # every step ties at the optimum, so accept-on-tie gives cutoff 0
        assert pol.threshold == 0


@pytest.mark.parametrize("n", range(1, 61))
def test_known_pd_value(n):
    pol = backward_induction(Variant.POSTDOC, Known(n))
    assert pol.is_threshold
    want = pbw_known(n).p_pd
    assert pol.value == pytest.approx(want, abs=1e-13)
    if n >= 4:
        assert pol.threshold == n // 2


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 55])
def test_known_classic_value_matches_threshold_formula(n):
    pol = backward_induction(Variant.CLASSIC, Known(n))
    assert pol.is_threshold
    best = max(threshold_success_known(Variant.CLASSIC, n, r) for r in range(n + 1))
    assert pol.value == pytest.approx(best, abs=1e-13)


# ------------------------------------------- step-by-step reference induction

def _loop_induction(variant, model):
    """Reference: the induction written as one scalar loop per stage, each
    step reading numpy scalars and nice_probability directly."""
    ks, ps = support(model)
    T = int(ks.max())
    dense = np.zeros(T + 1)
    dense[ks] = ps
    kf = np.arange(T + 1, dtype=float)
    S = np.concatenate([np.cumsum(dense[::-1])[::-1], [0.0]])
    w1 = np.where(kf >= 1, dense / np.maximum(kf, 1.0), 0.0)
    w2 = np.where(kf >= 2, dense / np.maximum(kf * (kf - 1.0), 1.0), 0.0)
    U1 = np.concatenate([np.cumsum(w1[::-1])[::-1], [0.0]])
    U2 = np.concatenate([np.cumsum(w2[::-1])[::-1], [0.0]])

    A = np.zeros(T + 1)
    for t in range(1, T + 1):
        if S[t] <= 0.0:
            continue
        if variant is Variant.POSTDOC:
            A[t] = t * (t - 1) * U2[t] / S[t] if t >= 2 else 0.0
        elif variant is Variant.BEST_OR_WORST and t == 1:
            A[1] = (2.0 * U1[1] - dense[1]) / S[1]
        else:
            A[t] = t * U1[t] / S[t]

    C = np.zeros(T + 1)
    for t in range(T - 1, -1, -1):
        if S[t] <= 0.0:
            continue
        q = S[t + 1] / S[t]
        nu = nice_probability(variant, t + 1)
        C[t] = q * (nu * max(A[t + 1], C[t + 1]) + (1.0 - nu) * C[t + 1])

    accept = [False] * (T + 1)
    for t in range(1, T + 1):
        accept[t] = bool(S[t] > 0.0 and A[t] >= C[t] - 1e-12 * max(1.0, C[t]))

    realizable = []
    for t in range(1, T + 1):
        nu = nice_probability(variant, t)
        if S[t] > 0.0 and nu > 0.0:
            realizable.append(t)
            if accept[t] and nu >= 1.0:
                break
    pattern = [accept[t] for t in realizable]
    pairs = list(zip(realizable, realizable[1:]))
    witness = next(((t1, t2) for t1, t2 in pairs if accept[t1] and not accept[t2]), None)
    threshold = None
    if witness is None:
        first = next((t for t, a in zip(realizable, pattern) if a), None)
        r = (realizable[-1] if realizable else T) if first is None else first - 1
        while r >= 1 and nice_probability(variant, r) == 0.0:
            r -= 1
        threshold = r
    return DPPolicy(variant, model, T, tuple(accept), tuple(A.tolist()), tuple(C.tolist()),
                    float(C[0]), witness is None, threshold, witness)


def _assert_same_policy(got, want):
    """The accept pattern, threshold and witness equal the loop's; the values
    lie within the loop's own drift, (T + 1) eps relative, the first-order
    bound of its sequential suffix sums over T + 1 points (measured: at most
    0.006 of that on these models).  The induction itself is within 1e-13
    of exact fractions (tests/test_exact_references.py)."""
    for field in ("variant", "model", "horizon", "is_threshold", "threshold", "witness"):
        assert getattr(got, field) == getattr(want, field), field
        assert type(getattr(got, field)) is type(getattr(want, field)), field
    assert np.array_equal(got.accept_at, np.array(want.accept_at))
    tol = (want.horizon + 1) * np.finfo(float).eps
    for field in ("value_accept", "value_reject"):
        g, w = getattr(got, field), np.array(getattr(want, field))
        assert np.all(np.abs(g - w) <= tol * np.abs(w)), field
    assert abs(got.value - want.value) <= tol * want.value
    assert type(got.value) is float


@pytest.mark.parametrize("variant", list(Variant))
def test_induction_matches_loop_reference_known_and_uniform(variant):
    for n in range(1, 61):
        _assert_same_policy(backward_induction(variant, Known(n)), _loop_induction(variant, Known(n)))
    for n in range(1, 301):
        _assert_same_policy(backward_induction(variant, Uniform(n)), _loop_induction(variant, Uniform(n)))


_EXPLICIT_MODELS = [
    Explicit(((0, 1.0),)),
    Explicit(((0, 0.5), (3, 0.5))),
    Explicit(((0, 0.2), (1, 0.3), (4, 0.5))),
    Explicit(((100, 0.99), (1000, 0.01))),
    *(truncate_to_explicit(Poisson(lam)) for lam in (2.0, 5.0, 8.0, 1000.0)),
]
# every model the induction runs on in this module
_MODELS = [Known(n) for n in range(1, 61)] + [Uniform(n) for n in range(1, 301)] + _EXPLICIT_MODELS
_MODELS += [truncate_to_explicit(Poisson(lam)) for lam in (10.0, 20.0)] + [Explicit(((2, 0.25), (5, 0.5), (8, 0.25)))]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("model", _EXPLICIT_MODELS)
def test_induction_matches_loop_reference_explicit(variant, model):
    _assert_same_policy(backward_induction(variant, model), _loop_induction(variant, model))


# ------------------------------------------------- coherence with the curve

@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", [2, 3, 7, 15, 24, 41, 60])
def test_uniform_dp_matches_best_cutoff(variant, n):
    pol = backward_induction(variant, Uniform(n))
    rep = best_cutoff(variant, Uniform(n))
    assert pol.is_threshold
    assert pol.threshold == rep.cutoff
    assert pol.value == pytest.approx(rep.prob, abs=1e-12)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("lam", [2.0, 5.0, 10.0, 20.0])
def test_poisson_dp_matches_best_cutoff(variant, lam):
    trunc = truncate_to_explicit(Poisson(lam))
    pol = backward_induction(variant, trunc)
    rep = best_cutoff(variant, Poisson(lam))
    assert pol.is_threshold
    assert pol.threshold == rep.cutoff
    assert pol.value == pytest.approx(rep.prob, abs=1e-12)


def test_poisson_requires_truncation():
    with pytest.raises(ValueError):
        backward_induction(Variant.CLASSIC, Poisson(3.0))


# ------------------------------------------------------ threshold structure

def test_classic_two_point_mass_is_not_threshold():
    # almost surely 100 objects, tiny chance of 1000: accepting the best-so-
    # far near step 100 is good, but just past it the rare long horizon makes
    # waiting better, so the accept region is not an up-set.
    model = Explicit(((100, 0.99), (1000, 0.01)))
    ok, witness = verify_threshold_structure(Variant.CLASSIC, model)
    assert not ok
    assert witness == (100, 101)
    pol = backward_induction(Variant.CLASSIC, model)
    assert pol.accept_at[100]
    assert not pol.accept_at[101]
    assert pol.threshold is None


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", [5, 17, 36, 60])
def test_uniform_is_threshold(variant, n):
    ok, witness = verify_threshold_structure(variant, Uniform(n))
    assert ok and witness is None


# ----------------------------------------------- continue-value dominance

@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("model", [Uniform(25), Known(17)])
def test_commit_to_reject_is_dominated(variant, model):
    # step_reject_prob is the value of rejecting *everything* after r; the
    # adaptive continue-value can only be better.
    pol = backward_induction(variant, model)
    for r in range(1, pol.horizon):
        assert step_reject_prob(variant, model, r) <= pol.value_reject[r] + 1e-12


# ------------------------------------------------------- printed recursion

@pytest.mark.parametrize("variant", [Variant.CLASSIC, Variant.POSTDOC])
@pytest.mark.parametrize("model", [Uniform(30), Known(19)])
def test_printed_recursion_exact_for_single_identity_rules(variant, model):
    assert printed_recursion_gap(variant, model) <= 1e-12


@pytest.mark.parametrize("model", [Uniform(30), Known(19), Uniform(7)])
def test_printed_recursion_underweights_best_or_worst(model):
    # the two-sided rule needs weight 2/(t+1); the 1/(t+1) system is a
    # different quantity and lands visibly below the behavioral values
    assert printed_recursion_gap(Variant.BEST_OR_WORST, model) > 1e-3


# --------------------------------------------------------------- oracle

def test_oracle_caps_support():
    with pytest.raises(ValueError):
        exhaustive_oracle(Variant.CLASSIC, Known(10), ThresholdPolicy(3))


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_known_bw_exact(n):
    for r in range(n + 1):
        got = exhaustive_oracle(Variant.BEST_OR_WORST, Known(n), ThresholdPolicy(r))
        want = threshold_success_known(Variant.BEST_OR_WORST, n, r)
        # both sides are exact: integer arithmetic and one float division
        assert float(got) == want


@pytest.mark.parametrize("n", range(2, 9))
def test_oracle_known_pd_exact(n):
    for r in range(n + 1):
        got = exhaustive_oracle(Variant.POSTDOC, Known(n), ThresholdPolicy(r))
        want = threshold_success_known(Variant.POSTDOC, n, r)
        assert float(got) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_known_classic(n):
    for r in range(n + 1):
        got = exhaustive_oracle(Variant.CLASSIC, Known(n), ThresholdPolicy(r))
        want = threshold_success_known(Variant.CLASSIC, n, r)
        assert float(got) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("variant", list(Variant))
def test_oracle_matches_curve_on_mixtures(variant):
    model = Explicit(((2, 0.25), (5, 0.5), (8, 0.25)))
    curve = success_curve(variant, model, r_max=8)
    for r in range(9):
        got = exhaustive_oracle(variant, model, ThresholdPolicy(r))
        assert float(got) == pytest.approx(curve.value(r), abs=1e-12)


def test_oracle_counts_zero_support_as_loss():
    model = Explicit(((0, 0.5), (3, 0.5)))
    got = exhaustive_oracle(Variant.CLASSIC, model, ThresholdPolicy(1))
    want = Fraction(0.5) * Fraction(3, 6)  # X=3, cutoff 1 wins in 3 of 6 orders
    assert got == want


def test_dp_on_zero_support_mass():
    model = Explicit(((0, 0.5), (3, 0.5)))
    pol = backward_induction(Variant.CLASSIC, model)
    best = max(
        float(exhaustive_oracle(Variant.CLASSIC, model, ThresholdPolicy(r)))
        for r in range(4)
    )
    assert pol.value == pytest.approx(best, abs=1e-13)
