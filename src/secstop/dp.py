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

S(t) = p(X >= t) and B(t) = S(t) A(t) = t U1(t) (t(t-1) U2(t) for postdoc)
are read from the compensated tables of `exact.SuffixMoments` at the steps
0..T.  The recursion runs on D(t) = S(t) C(t) (`_continue_mass`), the only
sequential pass over the horizon; A = B/S and C = D/S are within 1e-13 of
exact fractions or 50-digit mpmath on Known and Uniform up to 10^6.  B,
nu_t, the accept mask and the scan for the reachable accept pattern are
whole-array numpy expressions.  On a threshold model C(t) is the best curve
value past t over S(t), max_{r >= t} F(r)/S(t).  The policy holds A, C and
the accept mask as read-only arrays.
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


@dataclass(frozen=True, eq=False)
class DPPolicy:
    variant: Variant
    model: CountModel
    horizon: int
    # read-only step-indexed arrays; slot 0 is a placeholder so accept_at[t]
    # is step t
    accept_at: np.ndarray  # bool
    value_accept: np.ndarray  # A(t)
    value_reject: np.ndarray  # C(t), indexed 0..T
    value: float
    is_threshold: bool
    threshold: int | None
    witness: tuple[int, int] | None


def _moments(model: CountModel) -> tuple[SuffixMoments, np.ndarray, np.ndarray]:
    """(moments, steps t = 0..T, S(t) at those steps) with T the top of the
    support."""
    if isinstance(model, Poisson):
        raise ValueError("Poisson support is infinite; truncate_to_explicit first")
    mom = SuffixMoments(model)
    T = int(mom.ks.max())
    return mom, np.arange(T + 1), mom.read(mom.S, 0, np.empty(T + 1))


def _continue_mass(B: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """D(t) = S(t) C(t) for t = 0..T, with B(t) = S(t) A(t): D(T) = 0 and

        D(t) = D(t+1) + nu_{t+1} max(B(t+1) - D(t+1), 0),

    the recursion for C times S(t).  A reject step copies D exactly and any
    other adds a nonnegative amount, carried with a Kahan term, so C = D/S
    stays within about 1e-14 of exact at 10^6 steps, where the products of
    q_t = S(t+1)/S(t) in the recursion for C drifted by up to 1.7e-11.  The
    max makes this the one pass that must run step by step, over memoryviews
    of the reversed arrays: their plain floats index and multiply far faster
    than numpy scalars, and no list of the whole horizon is built for them.
    """
    d = carry = 0.0
    D = [d]
    for b, v in zip(memoryview(B[:0:-1]), memoryview(nu[:0:-1])):
        if b > d:
            y = v * (b - d) - carry
            s = d + y
            carry = (s - d) - y
            d = s
        D.append(d)
    D.reverse()
    return np.array(D)


def _conditional(x: np.ndarray, S: np.ndarray) -> np.ndarray:
    """x/S in place, where S > 0; x is 0 where S is."""
    return np.divide(x, S, out=x, where=S > 0.0)


def backward_induction(variant: Variant, model: CountModel) -> DPPolicy:
    mom, t, S = _moments(model)
    T = len(t) - 1
    nu = nice_probabilities(variant, t)

    B = mom.accept_mass(variant, t)
    if variant is Variant.BEST_OR_WORST and T >= 1:
        # k = 1: the object is both best and worst, value 1; else 2/k
        i = mom.at(1)
        B[1] = 2.0 * mom.U1[i] - (mom.ps[i] if mom.ks[i] == 1 else 0.0)
    C = _conditional(_continue_mass(B, nu), S)
    A = _conditional(B, S)

    # ties resolve to accept; the band absorbs float noise in exact ties
    # (odd-n Known models tie A and C exactly at step (n+1)/2)
    live = S > 0.0
    accept = live & (A >= C - _TIE_REL * np.maximum(1.0, C))
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

    for array in (accept, A, C):
        array.flags.writeable = False
    return DPPolicy(
        variant=variant,
        model=model,
        horizon=T,
        accept_at=accept,
        value_accept=A,
        value_reject=C,
        value=float(C[0]),
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
    D = _continue_mass(mom.accept_mass(variant, t), nice_probabilities(Variant.CLASSIC, t))
    return float(np.max(np.abs(_conditional(D, S) - pol.value_reject)))


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
