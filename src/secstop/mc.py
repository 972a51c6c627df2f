"""Seeded Monte Carlo oracle for every exact probability in the package.

Randomness is counter-based (splitmix-style finalizer over seed and trial
index), so trial t's stream is a pure function of (seed, absolute trial
index) and never of how trials are batched: partitioning a run across
workers or chunks changes nothing.  Per trial, draw index 0 picks the
candidate count X by cdf inversion and draw s >= 1 yields the relative rank
of the s-th arrival among the first s — a uniform random permutation needs
nothing more.  `simulate` sorts a chunk's trials by X and walks steps past
the cutoff on the prefix still going, with one state byte per trial and
integer rank thresholds on the raw 64-bit draws; a trial leaves once its
count is reached or its accepted object can no longer win.  `run_episode`
tracks one trial's accepted rank over steps 1..X, the scalar reference.
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


# Trials per pass: on the criterion-9 grid at 10^6 trials (a Xeon with 2 MB
# of L2 per core) 2^15 and 2^16 tie at 2.2 s, and 2^14 takes 15 % longer.
_CHUNK = 1 << 16


def _top(s: int, a: int) -> int:
    """The largest 64-bit draw z whose arrival at step s ranks a or better,
    -1 if none.  The rank is 1 + floor(q), q = fl(z53 (s 2^-53)) rising with
    z53 = z >> 11: rank <= a, i.e. q < a, holds just below the least z53 with
    q >= a, a few steps of that float product up from a 2^53 / s."""
    c = s * _INV_2_53
    t = max(a * (1 << 53) // s - 2, 0)
    while t * c < a:
        t += 1
    return min(t << 11, 1 << 64) - 1


def simulate(config: SimConfig) -> SimReport:
    ks, ps = support(config.model)
    edges = np.ceil(np.append(0.0, np.cumsum(ps)[:-1]) * 2.0**53).astype(np.uint64)
    r = config.policy.cutoff
    variant = config.variant
    first = int(np.searchsorted(ks, r, side="right"))  # the first point past r

    successes = zeros = done = 0
    draw, tmp = np.empty((2, min(_CHUNK, config.trials)), np.uint64)  # a step's draws, mix scratch
    while done < config.trials:
        m = min(_CHUNK, config.trials - done)
        base = np.arange(
            config.trial_offset + done, config.trial_offset + done + m, dtype=np.uint64
        )  # the absolute trial indices, then their stream bases
        base = _mix_array(
            np.uint64(config.seed & _MASK) + np.uint64(_GAMMA) * (base + np.uint64(1)), tmp[:m]
        )
        z = _mix_array(np.add(base, np.uint64(_GAMMA), out=draw[:m]), tmp[:m])
        z >>= np.uint64(11)
        # X = ks[min(#{cdf <= u0}, K - 1)] for u0 = z 2^-53, so in falling order
        # of z the trials with X >= ks[j] are a prefix, of length L[j] =
        # #{u0 >= cdf[j - 1]} = #{z >= edges[j] = ceil(cdf[j - 1] 2^53)}.  Steps
        # 1..r need no draw (each is a pure function of (trial, step)), so
        # only trials with X > r stay; a one-point support needs no order.
        L = np.append(m - np.searchsorted(np.sort(z), edges), 0)
        zeros += int(L[0] - L[1]) if ks[0] == 0 else 0
        base = base[np.argsort(z)[::-1][: L[first]]] if len(ks) > 1 else base[: L[first]]
        # A state byte per trial: 1 once lost (ranks only grow, so for good),
        # above 2 while holding a winner, else waiting.  The arrival's rank
        # gives bits nb, and state ^= nb & (state - 1) moves all states.
        # Classic: rank 1 is 3; pd: rank 2 is 3, rank 1 is 2; both take a
        # waiting 2 to 3 and a held 3 to 1.  bw: rank 1 is 3, rank s is 5 (7
        # at s = 1), taking a waiting 0 to best 3, worst 5 or only 7; a role
        # goes as its bits fire (7 to 5 or 3 at s = 2).
        state = np.full(base.size, 0 if variant is Variant.BEST_OR_WORST else 2, np.uint8)
        j, s = first, r + 1  # ks[j] is the first support point >= s
        while L[j]:
            n = L[j]
            z = np.add(base[:n], np.uint64((_GAMMA * (s + 1)) & _MASK), out=draw[:n])
            _mix_array(z, tmp[:n])
            nb = (z <= _top(s, 2 if variant is Variant.POSTDOC else 1)).view(np.uint8) * 3
            if variant is Variant.POSTDOC:
                nb -= (z <= _top(s, 1)).view(np.uint8)
            elif variant is Variant.BEST_OR_WORST:
                nb |= (z > _top(s, s - 1)).view(np.uint8) * 5
            state[:n] ^= nb & (state[:n] - 1)
            if ks[j] == s:  # the trials with X = s end here, the prefix's tail
                successes += int(np.count_nonzero(state[L[j + 1] : n] > 2))
                j += 1
            s += 1
            # Lost trials never count again, so they are dropped only once
            # they are an eighth of the prefix: one gather serves many steps.
            n = L[j]
            if 8 * np.count_nonzero(state[:n] == 1) > n:
                kept = np.flatnonzero(state[:n] != 1)
                base, state, L = base[kept], state[kept], np.searchsorted(kept, L)
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
