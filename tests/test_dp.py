"""Backward induction vs. closed forms, curve maxima, and brute force."""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secstop.core_model import (
    Explicit,
    Known,
    Poisson,
    ThresholdPolicy,
    Uniform,
    Variant,
    explicit_from_dict,
    nice_probability,
    support,
    threshold_success_known,
    truncate_to_explicit,
)
from secstop.cli import parse_model
from secstop import dp
from secstop.dp import _RUN_WINDOW, backward_induction, exhaustive_oracle
from secstop.exact import best_cutoff, step_reject_prob, success_curve

from oracles import WholeArrayPolicy, accept_success_known, checked_induction, mask_runs, pbw_known


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
    return WholeArrayPolicy(variant, model, T, tuple(accept), tuple(A.tolist()), tuple(C.tolist()),
                            float(C[0]), witness is None, threshold, witness)


def _assert_same_policy(got, want):
    """The whole-array induction's accept pattern, threshold and witness
    equal the loop's (and `checked_induction` holds the streamed library
    induction to it bit for bit); the values lie within the loop's own
    drift, (T + 1) eps relative, the first-order
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
        _assert_same_policy(checked_induction(variant, Known(n)), _loop_induction(variant, Known(n)))
    for n in range(1, 301):
        _assert_same_policy(checked_induction(variant, Uniform(n)), _loop_induction(variant, Uniform(n)))


# with Known and Uniform(1..3) above, the tables on which every step is one
# of the steps s <= c that the induction takes one at a time (nu_1 is the
# variant's first-step chance, nu_2 = 1 for best-or-worst), and two whose
# explicit zero masses at the top end the live steps, where S > 0, before
# the horizon
_EXPLICIT_MODELS = [
    Explicit(((0, 1.0),)),
    Explicit(((1, 1.0),)),
    Explicit(((2, 1.0),)),
    Explicit(((0, 0.5), (1, 0.5))),
    Explicit(((0, 0.5), (3, 0.5))),
    Explicit(((0, 0.2), (1, 0.3), (4, 0.5))),
    Explicit(((100, 0.99), (1000, 0.01))),
    Explicit(((3, 0.5), (7, 0.5), (12, 0.0))),
    Explicit(((0, 0.5), (4, 0.5), (9, 0.0))),
    *(truncate_to_explicit(Poisson(lam)) for lam in (2.0, 5.0, 8.0, 1000.0)),
]
# every model the induction runs on in this module
_MODELS = [Known(n) for n in range(1, 61)] + [Uniform(n) for n in range(1, 301)] + _EXPLICIT_MODELS
_MODELS += [truncate_to_explicit(Poisson(lam)) for lam in (10.0, 20.0)] + [Explicit(((2, 0.25), (5, 0.5), (8, 0.25)))]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("model", _EXPLICIT_MODELS)
def test_induction_matches_loop_reference_explicit(variant, model):
    _assert_same_policy(checked_induction(variant, model), _loop_induction(variant, model))


def _normalized(weights: dict) -> Explicit:
    total = sum(weights.values())
    return explicit_from_dict({k: w / total for k, w in weights.items()})


# tables with gaps, with mass at 0, 1 and 2, and islands of mass at k0 r^i
_GAPPED = st.dictionaries(
    st.one_of(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=400)),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=8,
)
_ISLANDS = st.builds(
    lambda k0, r, ws: {k0 * r**i: w for i, w in enumerate(ws)},
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=4),
)


@given(st.one_of(_GAPPED, _ISLANDS))
@settings(max_examples=150, deadline=None)
def test_induction_matches_loop_reference_on_random_tables(weights):
    model = _normalized(weights)
    for variant in Variant:
        _assert_same_policy(checked_induction(variant, model), _loop_induction(variant, model))


def _runs(accept: np.ndarray) -> int:
    """Maximal runs of equal decisions over the steps 1..T."""
    return 1 + int(np.count_nonzero(accept[2:] != accept[1:-1]))


# twelve spikes at 5 * 2^i with masses 2^-i: for the two-sided rules the
# accept set switches at every spike, 22 runs over 10240 steps
_SPIKES = _normalized({5 * 2**i: 0.5**i for i in range(12)})


def test_induction_matches_loop_reference_over_twenty_runs():
    for variant in Variant:
        pol = checked_induction(variant, _SPIKES)
        _assert_same_policy(pol, _loop_induction(variant, _SPIKES))
        if variant is not Variant.CLASSIC:
            assert _runs(pol.accept_at) >= 20


def _random_gapped_tables(count: int, seed: int) -> list:
    """Tables of 1 to 8 points with gaps, drawn once: points up to 10, 400,
    5000 or 20000 (so up to five chunks of steps) and integer weights."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        ks = sorted(rng.sample(range(rng.choice([10, 400, 5000, 20000])), rng.randint(1, 8)))
        tables.append(_normalized({k: rng.randint(1, 50) for k in ks}))
    return tables


_ISLANDS_TABLE = parse_model(f"table:{Path(__file__).resolve().parent / 'data' / 'islands.csv'}")


# a last chunk of steps that ends at step 1, where the first step's mass
# moves the two-sided value, and postdoc with no reachable live step
_EDGES = [Explicit(((1, 0.5), (2, 0.3), (4097, 0.2))), Explicit(((0, 0.5), (1, 0.5), (5, 0.0)))]


@pytest.mark.parametrize("model", [_ISLANDS_TABLE, _SPIKES, *_EDGES, *_random_gapped_tables(80, 31)], ids=str)
def test_accept_runs_are_the_runs_of_the_whole_array_mask(model):
    # the streamed induction keeps only the runs of accepting steps;
    # checked_induction holds them to the runs of the whole-array
    # induction's mask, here with the islands' eight runs of accept and
    # reject steps and the spikes' 22 for the two-sided rules
    for variant in Variant:
        runs = mask_runs(checked_induction(variant, model).accept_at)
        if model is _SPIKES and variant is not Variant.CLASSIC:
            assert len(runs) >= 10


# gapless tables with the masses of Uniform(n) and of Known(n), small (at
# odd n, A and C tie exactly at step (n + 1)/2; Uniform(1..60) are criterion
# 4's models) and at and past the edges of the 4,096-step chunks: the models
# that `dp` reads from the monotone case, here through the streamed induction
_GAPLESS = {f"known:{n}": (Known(n), Explicit(((n, 1.0),))) for n in [*range(1, 61), 4095, 4096, 4097, 8193, 10**5]}
_GAPLESS |= {
    f"uniform:{n}": (Uniform(n), Explicit(tuple((k, 1.0 / n) for k in range(1, n + 1)))) for n in [*range(1, 61), 10**5]
}


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("name", list(_GAPLESS))
def test_streamed_induction_on_gapless_copies_of_the_monotone_models(variant, name):
    model, table = _GAPLESS[name]
    assert np.array_equal(support(table)[1], support(model)[1])
    streamed, closed = backward_induction(variant, table), backward_induction(variant, model)
    checked_induction(variant, table)  # bit for bit with the whole-array induction
    for field in ("horizon", "accept_runs", "is_threshold", "threshold", "witness"):
        assert getattr(streamed, field) == getattr(closed, field), field
    assert streamed.value == pytest.approx(closed.value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("model", [_ISLANDS_TABLE, _SPIKES, Explicit(((2, 0.5), (3, 0.5), (20000, 0.0)))], ids=str)
def test_run_searches_scan_each_step_a_bounded_number_of_times(model, monkeypatch):
    # both kinds of run are searched on windows that double down from the
    # run's top, so the searches scan O(T + runs * _RUN_WINDOW) steps, a
    # chunk's many runs too; past the last mass, where B = D = 0 (a tie),
    # is one reject run, not one accept window a step
    scanned = []
    last = dp._last
    monkeypatch.setattr(dp, "_last", lambda mask: scanned.append(len(mask)) or last(mask))
    for variant in Variant:
        scanned.clear()
        pol = backward_induction(variant, model)
        assert sum(scanned) <= 3 * (pol.horizon + 1) + 2 * _RUN_WINDOW * (2 * len(pol.accept_runs) + 1)


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


# n in [10^4, 2*10^5], drawn once, and the first n where the curve argmax's
# tie band had moved the cutoff
_AGREEMENT_NS = sorted(random.Random(14).sample(range(10**4, 2 * 10**5 + 1), 11)) + [48_205]


@pytest.mark.parametrize("n", _AGREEMENT_NS)
def test_induction_threshold_equals_the_certified_cutoff(n):
    # dp's threshold against best_cutoff's M from the sign of the difference
    cases = [(v, Known(n)) for v in Variant] + [(v, Uniform(n)) for v in (Variant.BEST_OR_WORST, Variant.POSTDOC)]
    for variant, model in cases:
        assert backward_induction(variant, model).threshold == best_cutoff(variant, model).cutoff, (variant, model)


@pytest.fixture(scope="module")
def uniform_1007027_table():
    n = 1_007_027
    return Explicit(tuple((k, 1.0 / n) for k in range(1, n + 1)))


@pytest.mark.parametrize("variant", [Variant.BEST_OR_WORST, Variant.POSTDOC])
def test_induction_threshold_at_the_knife_edge_of_1007027(variant, uniform_1007027_table):
    # (A - C)/C at step 204616 is -4.7e-13 (bw) and -9.5e-13 (pd): an
    # absolute band of 1e-12 accepted there and gave threshold 204615.  The
    # streamed induction meets that step on the masses as a table
    model = Uniform(1_007_027)
    want = best_cutoff(variant, model).cutoff
    assert backward_induction(variant, model).threshold == want
    assert backward_induction(variant, uniform_1007027_table).threshold == want


def test_poisson_requires_truncation():
    with pytest.raises(ValueError):
        backward_induction(Variant.CLASSIC, Poisson(3.0))


# ------------------------------------------------------ threshold structure

def test_classic_two_point_mass_is_not_threshold():
    # almost surely 100 objects, tiny chance of 1000: accepting the best-so-
    # far near step 100 is good, but just past it the rare long horizon makes
    # waiting better, so the accept region is not an up-set.
    pol = checked_induction(Variant.CLASSIC, Explicit(((100, 0.99), (1000, 0.01))))
    assert not pol.is_threshold
    assert pol.witness == (100, 101)
    assert pol.accept_at[100]
    assert not pol.accept_at[101]
    assert pol.threshold is None


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", [5, 17, 36, 60])
def test_uniform_is_threshold(variant, n):
    pol = backward_induction(variant, Uniform(n))
    assert pol.is_threshold and pol.witness is None


# ----------------------------------------------- continue-value dominance

@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("model", [Uniform(25), Known(17)])
def test_commit_to_reject_is_dominated(variant, model):
    # step_reject_prob is the value of rejecting *everything* after r; the
    # adaptive continue-value can only be better.
    pol = checked_induction(variant, model)
    for r in range(1, pol.horizon):
        assert step_reject_prob(variant, model, r) <= pol.value_reject[r] + 1e-12


# ------------------------------------------------------- printed recursion

def _printed_recursion_gap(variant, model):
    """The largest gap between the induction's continue-values C(t) and the
    printed recursion, which weights the max-term by 1/(t+1), the chance
    that the (t+1)-th object is best-so-far (or second-best-so-far):

        C(t) = q_t [ max(A(t+1), C(t+1))/(t+1) + (1 - 1/(t+1)) C(t+1) ],

    C(T) = 0, q_t = S(t+1)/S(t), and A(t) = E[accept_success_known(X, t) |
    X >= t], one step at a time in floats."""
    pmf = dict(zip(*(a.tolist() for a in support(model))))
    top = max(pmf)
    S = [sum(p for k, p in pmf.items() if k >= t) for t in range(top + 2)]
    A = [0.0] + [sum(p * accept_success_known(variant, k, t) for k, p in pmf.items() if k >= t) / S[t]
                 for t in range(1, top + 1)]
    C = [0.0] * (top + 1)
    for t in range(top - 1, -1, -1):
        w = 1.0 / (t + 1)
        C[t] = S[t + 1] / S[t] * (w * max(A[t + 1], C[t + 1]) + (1.0 - w) * C[t + 1])
    return max(abs(c - v) for c, v in zip(C, checked_induction(variant, model).value_reject.tolist()))


@pytest.mark.parametrize("variant", [Variant.CLASSIC, Variant.POSTDOC])
@pytest.mark.parametrize("model", [Uniform(30), Known(19)])
def test_printed_recursion_exact_for_single_identity_rules(variant, model):
    assert _printed_recursion_gap(variant, model) <= 1e-12


@pytest.mark.parametrize("model", [Uniform(30), Known(19), Uniform(7)])
def test_printed_recursion_underweights_best_or_worst(model):
    # the two-sided rule needs weight 2/(t+1); the 1/(t+1) system is a
    # different quantity and lands visibly below the behavioral values
    assert _printed_recursion_gap(Variant.BEST_OR_WORST, model) > 1e-3


# --------------------------------------------------------------- oracle

def test_oracle_caps_support():
    with pytest.raises(ValueError):
        exhaustive_oracle(Variant.CLASSIC, Known(10), ThresholdPolicy(3))
    # a support up to 9 is within the cap; a zero mass at 9 enumerates nothing
    assert exhaustive_oracle(Variant.CLASSIC, explicit_from_dict({1: 1.0, 9: 0.0}), ThresholdPolicy(0)) == 1


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


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "model",
    [Uniform(50), Known(17), explicit_from_dict({2: 0.25, 5: 0.25, 9: 0.5}), explicit_from_dict({3: 0.0, 4: 1.0, 5: 0.0})],
    ids=str,
)
def test_policy_arrays_are_read_only_values_not_views(variant, model):
    # the policy holds no array of the steps, only its accept runs: a tuple
    # of tuples of plain ints, disjoint and apart, from the lowest, inside
    # the live steps 1..horizon
    pol = backward_induction(variant, model)
    runs = pol.accept_runs
    assert type(runs) is tuple and all(type(r) is tuple and len(r) == 2 for r in runs)
    assert all(type(f) is int and type(t) is int for f, t in runs)
    steps = [s for r in runs for s in r]
    assert steps == sorted(steps) and all(1 <= s <= pol.horizon for s in steps)
    assert all(b[0] > a[1] + 1 for a, b in zip(runs, runs[1:]))
