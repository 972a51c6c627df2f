"""Seeded Monte Carlo oracle for every exact probability in the package.

Randomness is counter-based (splitmix-style finalizer over seed and trial
index), so trial t's stream is a pure function of (seed, absolute trial
index) and never of how trials are batched: partitioning a run across
workers or chunks changes nothing.  Per trial, draw index 0 picks the
candidate count X by cdf inversion and draw s >= 1 yields the relative rank
of the s-th arrival among the first s — a uniform random permutation needs
nothing more.  After acceptance the accepted object's running rank among
the arrivals so far is tracked online.  `simulate` draws nothing at or
before the cutoff, and a trial leaves its step loop once its count is
reached or once its accepted object can no longer win; `run_episode` walks
one trial's steps 1..X in full and is the scalar reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core_model import CountModel, Poisson, ThresholdPolicy, Uniform, Variant, support
from .specfun import np, poisson_tail

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)


def _mix(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _MULT1) & _MASK
    z ^= z >> 27
    z = (z * _MULT2) & _MASK
    z ^= z >> 31
    return z


def _mix_array(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """`_mix` elementwise, in place on the uint64 array z; tmp is scratch of
    z's shape."""
    if tmp is None:
        tmp = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MULT1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MULT2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def trial_base(seed: int, trial_index: int) -> int:
    """Stream base for one absolute trial index."""
    return _mix(seed + _GAMMA * (trial_index + 1))


def draw_uniform(base: int, i: int) -> float:
    """i-th uniform of a trial stream; index 0 is reserved for the X draw."""
    return (_mix(base + _GAMMA * (i + 1)) >> 11) * _INV_2_53


@dataclass(frozen=True)
class SimConfig:
    variant: Variant
    model: CountModel
    policy: ThresholdPolicy
    trials: int
    seed: int = 0
    trial_offset: int = 0  # absolute index of the first trial (for splitting)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trial_offset < 0:
            raise ValueError("trial_offset must be >= 0")


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    successes: int
    p_hat: float
    stderr: float
    draws_of_zero: int


def run_episode(variant: Variant, k: int, r: int, rng_state: int) -> bool:
    """One episode with k arrivals and cutoff r, on the given stream base.

    Consumes draw indices 1..k of the stream (index 0 belongs to the count
    draw), so it replays exactly what the vectorized path does.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    accepted_rank = 0
    for s in range(1, k + 1):
        u = draw_uniform(rng_state, s)
        rank = 1 + min(int(u * s), s - 1)
        if accepted_rank:
            if rank <= accepted_rank:
                accepted_rank += 1
            continue
        if s <= r:
            continue
        if variant is Variant.CLASSIC:
            nice = rank == 1
        elif variant is Variant.BEST_OR_WORST:
            nice = rank == 1 or rank == s
        else:
            nice = s >= 2 and rank == 2
        if nice:
            accepted_rank = rank
    if not accepted_rank:
        return False
    if variant is Variant.CLASSIC:
        return accepted_rank == 1
    if variant is Variant.BEST_OR_WORST:
        return accepted_rank == 1 or accepted_rank == k
    return accepted_rank == 2


# Trials per pass: at 2^16 a step's arrays stay inside one core's L2 cache.
_CHUNK = 1 << 16


def simulate(config: SimConfig) -> SimReport:
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
        m = min(_CHUNK, config.trials - done)
        t_abs = np.arange(
            config.trial_offset + done, config.trial_offset + done + m, dtype=np.uint64
        )
        base = _mix_array(
            np.uint64(seed & _MASK) + np.uint64(_GAMMA) * (t_abs + np.uint64(1))
        )

        bits = _mix_array(base + np.uint64(_GAMMA)) >> np.uint64(11)
        u0 = bits.view(np.int64) * _INV_2_53  # int64 converts faster than uint64
        idx = np.minimum(np.searchsorted(cdf, u0, side="right"), len(ks) - 1)
        X = ks[idx]
        zeros += int(np.count_nonzero(X == 0))

        # Only trials that reach past the cutoff can accept, and steps 1..r
        # need no draw: each draw is a pure function of (trial, step).
        live = X > r
        base, X = base[live], X[live]
        # accepted object's running rank, 0 = none; float, so q < acc needs no cast
        acc = np.zeros(X.size)
        draw, tmp, scaled = np.empty_like(base), np.empty_like(base), np.empty(X.size)
        s = r
        while X.size:
            s += 1
            n = X.size
            z = np.add(base, np.uint64((_GAMMA * (s + 1)) & _MASK), out=draw[:n])
            _mix_array(z, tmp[:n])
            z >>= np.uint64(11)
            # q = u * s for the step's uniform u = z / 2^53, with one rounding
            # as s / 2^53 is exact; u <= 1 - 2^-53 keeps q below s after it.
            # So the relative rank 1 + min(floor(q), s - 1) is 1 + floor(q):
            # rank <= a  <=>  q < a, and rank >= a  <=>  q >= a - 1.
            q = np.multiply(z.view(np.int64), s * _INV_2_53, out=scaled[:n])
            acc += q < acc  # the new arrival ranks above the accepted object
            waiting = acc == 0
            if variant is Variant.CLASSIC:
                acc[waiting & (q < 1)] = 1
                winning = acc == 1
            elif variant is Variant.BEST_OR_WORST:
                best = q < 1
                take = waiting & (best | (q >= s - 1))
                acc[take] = np.where(best[take], 1.0, s)
                winning = (acc == 1) | (acc == s)
            else:
                acc[waiting & (q >= 1) & (q < 2)] = 2
                winning = acc == 2
            # `winning` is the final win rule with X read as s.  A trial is
            # done once X == s, and lost once it accepted and is not winning:
            # ranks only grow, and a bw rank that is neither 1 nor s can never
            # again be 1 or the last step.  Done and lost trials never count
            # again, so they are dropped only once they are an eighth of the
            # arrays: one gather then serves many steps.
            successes += int(np.count_nonzero(winning & (X == s)))
            keep = (X > s) & (winning | waiting)
            k = int(np.count_nonzero(keep))
            if 8 * k < 7 * n:
                kept = np.flatnonzero(keep)
                base, X, acc = base[kept], X[kept], acc[kept]
        done += m

    return _report(config, successes, zeros)


def trial_steps(config: SimConfig) -> float:
    """trials * E[(X - r)+]: the steps past the cutoff that `simulate` walks
    when no trial leaves early, the bound on its work.  Uniform takes the
    closed form (n - r)(n - r + 1)/(2n) and Poisson lam Psi(r) - r Psi(r + 1)
    from its tail, so a model too large to simulate is refused before its
    support is built."""
    model, r = config.model, config.policy.cutoff
    if isinstance(model, Uniform):
        d = max(model.n - r, 0)
        return config.trials * d * (d + 1) / (2 * model.n)
    if isinstance(model, Poisson):
        lam = model.lam
        return config.trials * max(lam * poisson_tail(r, lam) - r * poisson_tail(r + 1, lam), 0.0)
    ks, ps = support(model)
    return config.trials * float(np.dot(np.maximum(ks - r, 0), ps))


def _report(config: SimConfig, successes: int, zeros: int) -> SimReport:
    p_hat = successes / config.trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / config.trials)
    return SimReport(config, successes, p_hat, stderr, draws_of_zero=zeros)


def merge(a: SimReport, b: SimReport) -> SimReport:
    """Combine two reports from disjoint trial ranges of the same run."""
    ca, cb = a.config, b.config
    if replace(cb, trials=ca.trials, trial_offset=ca.trial_offset) != ca:
        raise ValueError("reports come from different runs")
    if ca.trial_offset + ca.trials != cb.trial_offset:
        raise ValueError("trial ranges are not adjacent")
    return _report(
        replace(ca, trials=ca.trials + cb.trials),
        a.successes + b.successes,
        a.draws_of_zero + b.draws_of_zero,
    )
