"""Simulator vs. exact engine: determinism, splitting, and calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from secstop import mc
from secstop.core_model import (
    Explicit,
    Known,
    Poisson,
    ThresholdPolicy,
    Uniform,
    Variant,
    support,
    threshold_success_known,
)
from secstop.exact import best_cutoff, success_curve
from secstop.mc import (
    _GAMMA,
    _INV_2_53,
    _MASK,
    SimConfig,
    SimReport,
    _mix_array,
    _top,
    draw_uniform,
    merge,
    run_episode,
    simulate,
    trial_base,
    trial_steps,
)

Z999 = 3.2905  # two-sided 99.9%


def _config(variant, model, r, trials, seed=0, offset=0):
    return SimConfig(
        variant=variant,
        model=model,
        policy=ThresholdPolicy(r),
        trials=trials,
        seed=seed,
        trial_offset=offset,
    )


def _z(report, exact):
    se = max(report.stderr, 1e-12)
    return abs(report.p_hat - exact) / se


# ------------------------------------------------------------ tiny episodes

def test_single_object_best_or_worst_always_wins():
    for t in range(50):
        assert run_episode(Variant.BEST_OR_WORST, 1, 0, trial_base(7, t))


def test_single_object_postdoc_always_loses():
    for t in range(50):
        assert not run_episode(Variant.POSTDOC, 1, 0, trial_base(7, t))
        assert not run_episode(Variant.POSTDOC, 1, 3, trial_base(7, t))


def test_cutoff_at_or_past_horizon_never_accepts():
    for t in range(50):
        assert not run_episode(Variant.CLASSIC, 4, 4, trial_base(11, t))


# ------------------------------------------------------------- determinism

def test_same_config_same_report():
    cfg = _config(Variant.BEST_OR_WORST, Uniform(12), 2, 40_000, seed=123)
    assert simulate(cfg) == simulate(cfg)


def test_seed_changes_outcome():
    a = simulate(_config(Variant.BEST_OR_WORST, Uniform(12), 2, 40_000, seed=1))
    b = simulate(_config(Variant.BEST_OR_WORST, Uniform(12), 2, 40_000, seed=2))
    assert a.successes != b.successes


def test_merge_equals_joint_run():
    whole = simulate(_config(Variant.POSTDOC, Poisson(6.0), 2, 100_000, seed=9))
    left = simulate(_config(Variant.POSTDOC, Poisson(6.0), 2, 37_111, seed=9))
    right = simulate(
        _config(Variant.POSTDOC, Poisson(6.0), 2, 62_889, seed=9, offset=37_111)
    )
    assert merge(left, right) == whole


def test_merge_rejects_mismatched_runs():
    a = simulate(_config(Variant.CLASSIC, Known(5), 1, 100, seed=1))
    b = simulate(_config(Variant.CLASSIC, Known(5), 1, 100, seed=2))
    with pytest.raises(ValueError):
        merge(a, b)
    c = simulate(_config(Variant.CLASSIC, Known(5), 1, 100, seed=1, offset=500))
    with pytest.raises(ValueError):
        merge(a, c)
    # the adjacent right half merges; a change to any one field other than
    # the trial range makes it a different run
    right = _config(Variant.CLASSIC, Known(5), 1, 50, seed=1, offset=100)
    assert merge(a, simulate(right)).config.trials == 150
    for field, value in [("variant", Variant.POSTDOC), ("model", Known(6)),
                         ("policy", ThresholdPolicy(2)), ("seed", 2)]:
        with pytest.raises(ValueError, match="different runs"):
            merge(a, simulate(replace(right, **{field: value})))


def test_chunk_boundary_is_invisible(monkeypatch):
    # one call over several chunks vs. the same trials split at an
    # arbitrary point vs. the reference loop in a single chunk
    monkeypatch.setattr(mc, "_CHUNK", 1000)
    for variant in Variant:
        cfg = _config(variant, Uniform(8), 2, 3_000, seed=5)
        parts = [
            simulate(_config(variant, Uniform(8), 2, 1_234, seed=5)),
            simulate(_config(variant, Uniform(8), 2, 1_766, seed=5, offset=1_234)),
        ]
        assert merge(*parts) == simulate(cfg) == _loop_simulate(cfg)


# --------------------------------------------- step-by-step reference loop

_LOOP_CHUNK = 1 << 20


def _loop_simulate(config):
    """Reference: the step loop that walks steps 1..max X for every trial of
    a chunk, dead, decided or before the cutoff alike, and applies the win
    rule once at the end."""
    ks, ps = support(config.model)
    cdf = np.cumsum(ps)
    ks = ks.astype(np.int64)
    r = config.policy.cutoff
    variant = config.variant
    seed = config.seed

    successes = 0
    zeros = 0
    done = 0
    while done < config.trials:
        m = min(_LOOP_CHUNK, config.trials - done)
        t_abs = np.arange(
            config.trial_offset + done, config.trial_offset + done + m, dtype=np.uint64
        )
        base = _mix_array(
            np.uint64(seed & _MASK) + np.uint64(_GAMMA) * (t_abs + np.uint64(1))
        )

        u0 = (
            _mix_array(base + np.uint64(_GAMMA)) >> np.uint64(11)
        ).astype(np.float64) * _INV_2_53
        idx = np.minimum(np.searchsorted(cdf, u0, side="right"), len(ks) - 1)
        X = ks[idx]
        zeros += int(np.count_nonzero(X == 0))

        acc = np.zeros(m, dtype=np.int64)  # accepted object's running rank; 0 = none
        s_max = int(X.max(initial=0))
        for s in range(1, s_max + 1):
            step = np.uint64((_GAMMA * (s + 1)) & _MASK)
            us = (
                _mix_array(base + step) >> np.uint64(11)
            ).astype(np.float64) * _INV_2_53
            rank = 1 + np.minimum((us * s).astype(np.int64), s - 1)
            alive = X >= s
            if variant is Variant.CLASSIC:
                nice = rank == 1
            elif variant is Variant.BEST_OR_WORST:
                nice = (rank == 1) | (rank == s)
            else:
                nice = rank == 2 if s >= 2 else np.zeros(m, dtype=bool)
            take = alive & (acc == 0) & (s > r) & nice
            bump = alive & (acc > 0) & (rank <= acc)
            acc[bump] += 1
            acc[take] = rank[take]

        if variant is Variant.CLASSIC:
            win = acc == 1
        elif variant is Variant.BEST_OR_WORST:
            win = (acc > 0) & ((acc == 1) | (acc == X))
        else:
            win = acc == 2
        successes += int(np.count_nonzero(win))
        done += m

    p_hat = successes / config.trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / config.trials)
    return SimReport(
        config=config,
        successes=successes,
        p_hat=p_hat,
        stderr=stderr,
        draws_of_zero=zeros,
    )


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "model",
    [
        Known(1),
        Known(2),
        Known(50),
        Uniform(1),
        Uniform(40),
        Poisson(0.5),
        Poisson(2.0),
        Poisson(10.0),
        Explicit(((0, 0.2), (3, 0.3), (7, 0.5))),
        Explicit(((0, 1.0),)),
    ],
)
def test_simulate_matches_loop_reference(variant, model):
    # cutoff 0 for bw accepts the first object, which is then both the best
    # and the worst; a cutoff at or past max X never accepts
    top = int(support(model)[0].max())
    for r in sorted({0, 1, top // 2, top, top + 1}):
        for seed, offset in ((3, 0), (4, 0), (3, 987_654)):
            cfg = _config(variant, model, r, 2_000, seed=seed, offset=offset)
            assert simulate(cfg) == _loop_simulate(cfg), (r, seed, offset)


def test_rank_thresholds_agree_with_the_float_rank_at_their_edges():
    # simulate tests rank <= a as z <= _top(s, a) on the step's 64-bit draw z,
    # where run_episode and the float loop compute the rank from
    # q = z53 (s 2^-53), z53 = z >> 11.  Both sides of every threshold T
    # (z53 = T - 1 and T, each with the low 11 bits all clear and all set),
    # where random trials almost never land, must agree
    checked = 0
    for s in [*range(1, 5001), 10**6, 2**31]:
        for a in {1, 2, s - 1}:
            top = _top(s, a)
            if top == -1:  # rank <= 0 never holds
                assert a == 0
                words = [0]
            elif top == _MASK:  # always holds, as at s = 1
                assert s <= a or s == 1
                words = [_MASK]
            else:
                t = (top + 1) >> 11
                assert (top + 1) & 2047 == 0 and 0 < t < 1 << 53
                words = [(t - 1) << 11, (t << 11) - 1, t << 11, (t << 11) | 2047]
            z = np.array(words, dtype=np.uint64)
            q = (z >> np.uint64(11)).view(np.int64) * (s * _INV_2_53)
            float_test = q < a
            assert np.array_equal(float_test, z <= top), (s, a)
            for word, below in zip(words, float_test):
                u = (word >> 11) * _INV_2_53
                assert (1 + min(int(u * s), s - 1) <= a) == below, (s, a, word)
            if len(words) == 4:
                assert float_test.tolist() == [True, True, False, False], (s, a)
            checked += len(words)
    assert checked > 50_000


@pytest.mark.parametrize(
    "variant, model, r",
    [
        (Variant.CLASSIC, Uniform(300), 5),
        (Variant.BEST_OR_WORST, Poisson(40.0), 3),
        (Variant.POSTDOC, Explicit(((0, 0.1), (5, 0.4), (200, 0.5))), 2),
        (Variant.BEST_OR_WORST, Uniform(6), 0),
    ],
)
def test_compaction_and_prefix_lengths_match_the_loop_reference(monkeypatch, variant, model, r):
    # trials that end at many steps and are often lost: each chunk drops its
    # lost trials several times and rebuilds the prefix lengths each time
    gathers = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: gathers.append(a.size) or flatnonzero(a))
    monkeypatch.setattr(mc, "_CHUNK", 700)
    for seed, offset in ((1, 0), (2, 12_345)):
        cfg = _config(variant, model, r, 2_500, seed=seed, offset=offset)
        assert simulate(cfg) == _loop_simulate(cfg), (seed, offset)
    assert len(gathers) >= 16  # two a chunk on average


# ------------------------------------------- scalar path replays vector path

@pytest.mark.parametrize(
    "variant,model,r",
    [
        (Variant.BEST_OR_WORST, Poisson(6.0), 2),
        (Variant.CLASSIC, Uniform(9), 3),
        (Variant.POSTDOC, Explicit(((0, 0.2), (3, 0.3), (7, 0.5))), 1),
    ],
)
def test_run_episode_matches_simulate(variant, model, r):
    trials, seed = 700, 31
    ks, ps = support(model)
    cdf = np.cumsum(ps)
    wins = zeros = 0
    for t in range(trials):
        base = trial_base(seed, t)
        u0 = draw_uniform(base, 0)
        idx = min(int(np.searchsorted(cdf, u0, side="right")), len(ks) - 1)
        x = int(ks[idx])
        if x == 0:
            zeros += 1
            continue
        wins += run_episode(variant, x, r, base)
    rep = simulate(_config(variant, model, r, trials, seed=seed))
    assert rep.successes == wins
    assert rep.draws_of_zero == zeros


# -------------------------------------------------------------- calibration

def test_known_five_cutoff_two():
    rep = simulate(_config(Variant.BEST_OR_WORST, Known(5), 2, 1_000_000, seed=42))
    exact = threshold_success_known(Variant.BEST_OR_WORST, 5, 2)
    assert exact == 0.6
    assert _z(rep, exact) < Z999


def test_classic_known_100_cutoff_37():
    rep = simulate(_config(Variant.CLASSIC, Known(100), 37, 200_000, seed=7))
    exact = threshold_success_known(Variant.CLASSIC, 100, 37)
    assert exact == pytest.approx(0.3710427787126431, abs=1e-12)
    assert _z(rep, exact) < Z999


def test_uniform_50_at_optimum_and_factor_two():
    m = best_cutoff(Variant.BEST_OR_WORST, Uniform(50))
    bw = simulate(_config(Variant.BEST_OR_WORST, Uniform(50), m.cutoff, 400_000, seed=3))
    pd = simulate(_config(Variant.POSTDOC, Uniform(50), m.cutoff, 400_000, seed=3))
    assert _z(bw, m.prob) < Z999
    curve = success_curve(Variant.POSTDOC, Uniform(50), m.cutoff)
    assert _z(pd, curve.value(m.cutoff)) < Z999
    # the two-sided rule should land near twice the second-best rule
    assert bw.p_hat == pytest.approx(2.0 * pd.p_hat, abs=8.0 * bw.stderr)


def test_poisson_zero_draws_counted_and_curve_matches():
    lam = 2.0
    rep = simulate(_config(Variant.BEST_OR_WORST, Poisson(lam), 0, 300_000, seed=11))
    # X = 0 happens with probability e^-2 and must be a recorded failure
    frac = rep.draws_of_zero / rep.config.trials
    assert frac == pytest.approx(np.exp(-lam), abs=5e-3)
    exact = success_curve(Variant.BEST_OR_WORST, Poisson(lam), 0).value(0)
    assert _z(rep, exact) < Z999


def test_explicit_mixture_calibrates():
    model = Explicit(((2, 0.25), (5, 0.5), (8, 0.25)))
    exact = success_curve(Variant.POSTDOC, model, 2).value(2)
    rep = simulate(_config(Variant.POSTDOC, model, 2, 400_000, seed=19))
    assert _z(rep, exact) < Z999


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(Variant.CLASSIC, Known(3), ThresholdPolicy(0), trials=0)
    with pytest.raises(ValueError):
        SimConfig(Variant.CLASSIC, Known(3), ThresholdPolicy(0), trials=5, trial_offset=-1)


def test_report_fields_consistent():
    rep = simulate(_config(Variant.CLASSIC, Known(6), 2, 10_000, seed=77))
    assert isinstance(rep, SimReport)
    assert 0 <= rep.successes <= 10_000
    assert rep.p_hat == rep.successes / 10_000
    assert rep.stderr == pytest.approx(
        np.sqrt(rep.p_hat * (1 - rep.p_hat) / 10_000), abs=1e-15
    )
    assert rep.draws_of_zero == 0


@pytest.mark.parametrize("n", range(1, 61))
def test_uniform_trial_steps_closed_form_matches_support_dot(n):
    # trials * E[(X - r)+] from the closed form against the dot over the support
    ks, ps = support(Uniform(n))
    for r in range(n + 3):
        steps = trial_steps(_config(Variant.CLASSIC, Uniform(n), r, 3))
        dot = 3 * float(np.dot(np.maximum(ks - r, 0), ps))
        assert steps == pytest.approx(dot, rel=1e-14, abs=0.0)
        if r >= n:
            assert steps == 0.0
    assert trial_steps(_config(Variant.CLASSIC, Uniform(n), n - 1, 1)) == 1.0 / n


@pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 2.5, 7.0, 20.0, 33.3, 50.0])
def test_poisson_trial_steps_from_the_tail_matches_support_dot(lam):
    # lam Psi(r) - r Psi(r + 1) against the dot over the support; for r well
    # above lam the two tail terms nearly cancel, which costs up to about
    # 1.5e-11 relative at r = 3 lam (the dot is within 1e-13 of mpmath there)
    ks, ps = support(Poisson(lam))
    for r in range(int(3 * lam) + 1):
        steps = trial_steps(_config(Variant.BEST_OR_WORST, Poisson(lam), r, 3))
        dot = 3 * float(np.dot(np.maximum(ks - r, 0), ps))
        assert steps == pytest.approx(dot, rel=1e-9, abs=0.0), r
    assert trial_steps(_config(Variant.BEST_OR_WORST, Poisson(lam), 0, 1)) == lam


def test_poisson_trial_steps_far_below_a_large_rate():
    # `simulate --variant bw --model poisson:lambda=7221394.6112189265
    # --cutoff 7119871` exited 3: the tail's series from p(r - 1) never
    # ended on its subnormal first term.  Both tails are 1 here, 37 standard
    # deviations below the rate, so E[(X - r)+] is lam - r
    lam, r = 7221394.6112189265, 7119871
    steps = trial_steps(_config(Variant.BEST_OR_WORST, Poisson(lam), r, 10))
    assert steps == pytest.approx(10 * (lam - r), rel=1e-9)
