"""Backward induction over the observation process, from first principles.

State: t objects inspected, none accepted, conditioned on X >= t.  With
q_t = p(X > t | X >= t) and nu_t the variant's nice-candidate chance at step
t, the continue-value satisfies

    C(t) = q_t * [ nu_{t+1} * max(A(t+1), C(t+1)) + (1 - nu_{t+1}) * C(t+1) ]

with C(T) = 0 at the top of the support.  A(t) is the true behavioral accept
value (for best-or-worst at t = 1 the sole object is simultaneously best- and
worst-so-far, which the single-identity step definitions undercount — see
printed_recursion_gap).  The overall optimal success probability is C(0),
where q_0 = p(X >= 1) absorbs any mass at X = 0.

The suffix moments (p(X >= t), sum p/k, sum p/(k(k-1))) and A(t) come from
`exact.SuffixMoments`, read at the steps 0..T.  They, q_t, nu_t, the accept
mask and the scan for the reachable accept pattern are whole-array numpy
expressions; the recursion for C is the only sequential pass over the
horizon, and it walks memoryviews of those arrays (`_continue_values`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .core_model import (
    CountModel,
    Poisson,
    ThresholdPolicy,
    Variant,
    nice_probabilities,
    support,
)
from .exact import _TIE_REL, SuffixMoments


@dataclass(frozen=True)
class DPPolicy:
    variant: Variant
    model: CountModel
    horizon: int
    # step-indexed arrays; slot 0 is a placeholder so accept_at[t] is step t
    accept_at: tuple[bool, ...]
    value_accept: tuple[float, ...]
    value_reject: tuple[float, ...]  # C(t), indexed 0..T
    value: float
    is_threshold: bool
    threshold: int | None
    witness: tuple[int, int] | None


def _moments(model: CountModel) -> tuple[SuffixMoments, np.ndarray, np.ndarray]:
    """(moments, steps t = 0..T, S(t) for t = 0..T+1) with T the top of the
    support; slot T+1 of S is 0."""
    if isinstance(model, Poisson):
        raise ValueError("Poisson support is infinite; truncate_to_explicit first")
    mom = SuffixMoments(model)
    T = int(mom.ks.max())
    return mom, np.arange(T + 1), mom.read(mom.S, 0, np.empty(T + 2))


def _continue_values(S: np.ndarray, A: np.ndarray, nu: np.ndarray) -> list[float]:
    """C(t) for t = 0..T from C(t) = q_t [nu_{t+1} max(A, C) + (1 - nu_{t+1}) C]
    at t + 1, with C(T) = 0 and q_t = S[t+1]/S[t] (0 where S[t] = 0).

    The max makes this the one pass that must run step by step.  It iterates
    over memoryviews of the reversed arrays, which hand out plain floats one
    at a time: they index and multiply far faster than numpy scalars, and no
    list of the whole horizon is built for them.
    """
    T = len(A) - 1
    q = np.divide(S[1 : T + 1], S[:T], out=np.zeros(T), where=S[:T] > 0.0)
    nu_rev = nu[:0:-1]
    c = 0.0
    C = [c]
    for qt, a, v, w in zip(*map(memoryview, (q[::-1], A[:0:-1], nu_rev, 1.0 - nu_rev))):
        c = qt * (v * (a if a > c else c) + w * c)
        C.append(c)
    C.reverse()
    return C


def backward_induction(variant: Variant, model: CountModel) -> DPPolicy:
    mom, t, S = _moments(model)
    T = len(t) - 1
    nu = nice_probabilities(variant, t)

    A = mom.accept_values(variant, t, S[:-1])
    if variant is Variant.BEST_OR_WORST and S[1] > 0.0:
        # k = 1: the object is both best and worst, value 1; else 2/k
        i = mom.at(1)
        A[1] = (2.0 * mom.U1[i] - (mom.ps[i] if mom.ks[i] == 1 else 0.0)) / S[1]

    C = _continue_values(S, A, nu)
    Cv = np.array(C)

    # ties resolve to accept; the band absorbs float noise in exact ties
    # (odd-n Known models tie A and C exactly at step (n+1)/2)
    live = S[: T + 1] > 0.0
    accept = live & (A >= Cv - _TIE_REL * np.maximum(1.0, Cv))
    accept[0] = False

    # Classify the policy by its reachable decisions only.  An accepting
    # step whose nice-probability is exactly 1 (step 1, and step 2 for the
    # best-or-worst rule) absorbs every surviving trajectory, so decisions
    # past it are vacuous: the realized policy of "accept at 1, dip, accept
    # late" is indistinguishable from the pure cutoff-0 rule.
    realizable = np.flatnonzero(live & (nu > 0.0))
    absorbing = np.flatnonzero(accept[realizable] & (nu[realizable] >= 1.0))
    if absorbing.size:
        realizable = realizable[: absorbing[0] + 1]
    pattern = accept[realizable]
    drops = np.flatnonzero(pattern[:-1] & ~pattern[1:])

    witness = None
    threshold = None
    if drops.size:
        j = drops[0]
        witness = (int(realizable[j]), int(realizable[j + 1]))
    else:
        if pattern.any():
            r = int(realizable[np.argmax(pattern)]) - 1
        else:
            r = int(realizable[-1]) if realizable.size else T
        # canonical form: dropping leading never-nice steps changes nothing
        while r >= 1 and nu[r] == 0.0:
            r -= 1
        threshold = r

    return DPPolicy(
        variant=variant,
        model=model,
        horizon=T,
        accept_at=tuple(accept.tolist()),
        value_accept=tuple(A.tolist()),
        value_reject=tuple(C),
        value=C[0],
        is_threshold=witness is None,
        threshold=threshold,
        witness=witness,
    )


def verify_threshold_structure(variant: Variant, model: CountModel):
    """(is_threshold, witness): witness is the first accept->reject step pair
    among steps where a nice candidate can actually occur."""
    pol = backward_induction(variant, model)
    return pol.is_threshold, pol.witness


def printed_recursion_gap(variant: Variant, model: CountModel) -> float:
    """Max deviation between the first-principles continue-values and the
    textbook-style recursion that weights the max-term by q_t/(t+1).

    The 1/(t+1) weight is the chance the (t+1)-th object is second-best-so-
    far (or best-so-far), so the gap vanishes for the classic and postdoc
    rules; for best-or-worst the true weight is 2/(t+1), and this reports how
    far the printed system drifts from the behavioral values.
    """
    pol = backward_induction(variant, model)
    mom, t, S = _moments(model)
    # definition-style accept values (single-identity convention throughout);
    # the classic nice chances are exactly the printed weights 1/(t+1)
    A = mom.accept_values(variant, t, S[:-1])
    Cp = _continue_values(S, A, nice_probabilities(Variant.CLASSIC, t))
    return float(np.max(np.abs(np.array(Cp) - np.array(pol.value_reject))))


_ORACLE_MAX_K = 9


def exhaustive_oracle(variant: Variant, model: CountModel, policy: ThresholdPolicy) -> Fraction:
    """Ground truth by enumerating every arrival order of every support size.

    Exact rational: sum_k p(k) * wins(k) / k!, with p(k) taken as the exact
    binary rational of the stored float.  Support must not exceed 9.
    """
    ks, ps = support(model)
    if int(ks.max(initial=0)) > _ORACLE_MAX_K:
        raise ValueError(f"exhaustive oracle capped at support <= {_ORACLE_MAX_K}")
    r = policy.cutoff
    total = Fraction(0)
    for k, p in zip(ks, ps):
        k = int(k)
        if k == 0 or p == 0.0:
            continue
        wins = 0
        for perm in permutations(range(1, k + 1)):
            best = second = worst = 0
            accepted = 0
            for t, x in enumerate(perm, start=1):
                if x > best:
                    second = best
                    best = x
                elif x > second:
                    second = x
                if worst == 0 or x < worst:
                    worst = x
                if t <= r:
                    continue
                if variant is Variant.CLASSIC:
                    nice = x == best
                elif variant is Variant.BEST_OR_WORST:
                    nice = x == best or x == worst
                else:
                    nice = t >= 2 and x == second
                if nice:
                    accepted = x
                    break
            if accepted:
                if variant is Variant.CLASSIC:
                    wins += accepted == k
                elif variant is Variant.BEST_OR_WORST:
                    wins += accepted in (1, k)
                else:
                    wins += accepted == k - 1
        total += Fraction(p) * Fraction(wins, math.factorial(k))
    return total
