"""Backward induction over the observation process, from first principles.

State: t objects inspected, none accepted, conditioned on X >= t.  With
q_t = p(X > t | X >= t) and nu_t the variant's nice-candidate chance at step
t, the continue-value satisfies

    C(t) = q_t * [ nu_{t+1} * max(A(t+1), C(t+1)) + (1 - nu_{t+1}) * C(t+1) ]

with C(T) = 0 at the top of the support.  A(t) is the true behavioral accept
value (for best-or-worst at t = 1 the sole object is simultaneously best- and
worst-so-far, which the single-identity step definitions undercount).  The
overall optimal success probability is C(0), where q_0 = p(X >= 1) absorbs
any mass at X = 0.

S(t) = p(X >= t) and B(t) = S(t) A(t) = t U1(t) (t(t-1) U2(t) for postdoc)
are read from the compensated tables of `exact.SuffixMoments` at the steps
0..T.  The recursion runs on D(t) = S(t) C(t) (`_continue_mass`) one run of
accept or reject steps at a time: D is constant over a reject run, and over
an accept run D/w has a closed form, a suffix sum of positive terms, with
w(t) = t or t(t - 1) the summation factor of nu_t = 1/t or 2/t.  The pass
is O(T) whatever the number of runs, one run on a threshold model and a few
on islands of mass; A = B/S and C = D/S are within 1e-13 of exact fractions
or 50-digit mpmath on Known and Uniform up to 10^6.  B is read _CHUNK
steps at a time and nu_t = c/t window by window, so no float array of the
steps is built.  The live steps, where S > 0, are the prefix up to the last
point with mass, and the reachable ones a range of it, so A = B/S, C = D/S,
the accept mask and the classification read slices.  The induction holds
four arrays of the horizon at most: the support and B while the U table,
and after it the S table, is summed; then, the U table and the support
gone, B, S, D and an accept window's steps and weights; B and D become A
and C in place; and once S is gone, C (1 - _ACCEPT_REL) and the accept
mask.  On a threshold model
C(t) is the best curve value past t over S(t), max_{r >= t} F(r)/S(t).
The policy holds A, C and the accept mask as read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .core_model import (
    _NICE_FIRST,
    _NICE_NUMERATOR,
    CountModel,
    Poisson,
    ThresholdPolicy,
    Variant,
    nice_probability,
    support,
)
from .exact import _CHUNK, SuffixMoments
from .specfun import np

# steps in the first window of a run; each further window is twice as long
_RUN_WINDOW = 64
# a bound on the relative error of C(t) - A(t), the accept test's slack.
# A = B/S and C = D/S share S, so the sign is that of D - B.  B (t U1, or
# t(t - 1) U2 for postdoc) is within 1.2e-14, the error of the U tables
# (`exact.SuffixMoments._suffix`), and D, a positive combination of B
# values, within that plus its own 1.4e-14 (`_continue_mass`): 1.2e-14 +
# 2.6e-14 and the two divisions by S
_ACCEPT_REL = 4e-14


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


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True of mask, or None."""
    if not len(mask):
        return None
    j = int(mask.argmax())
    return j if mask[j] else None


def _continue_mass(B: np.ndarray, c: int, nu1: float) -> np.ndarray:
    """D(t) = S(t) C(t) for t = 0..T, with B(t) = S(t) A(t): D(T) = 0 and

        D(t) = D(t+1) + nu_{t+1} max(B(t+1) - D(t+1), 0),

    the recursion for C times S(t), nu_1 = nu1, nu_s = c/s for s >= 2 and
    c = 1 or 2.  It runs one run of steps at a time from the top.  Over a
    reject run, B(s) <= D(s), D is constant, and the run ends at the last
    step below with B > D.  Over an accept run, B(s) > D(s), D(t) = (1 -
    nu_{t+1}) D(t+1) + nu_{t+1} B(t+1), and 1 - nu_s = w(s-1)/w(s) with
    w(t) = t (c = 1) or t(t - 1) (c = 2), so from the run's top u

        D(t)/w(t) = D(u)/w(u) + sum_{s = t+1..u} nu_s B(s)/w(s-1),

    a suffix sum of positive terms (`SuffixMoments._suffix`) written
    straight into D's slice.  The run ends at the last step below u with B
    <= D.  Both kinds of run are solved on windows that double down from
    the run's top, so each costs O(its length + _RUN_WINDOW) and the pass
    O(T); an accept window builds its own float steps and weights, two
    arrays of its length.  The steps s <= c, where w(s - 1) = 0 and nu_1 is
    the variant's first-step chance, are scalar.
    D is within 2e-15 relative of the exact recursion on its float inputs,
    and within 1.4e-14 where a run sums hundreds of equal terms (postdoc
    between support points: the drift of `_suffix`'s block cumsums); the
    products of q_t = S(t+1)/S(t) in the recursion for C drifted by up to
    1.7e-11 at 10^6 steps.
    """
    T = len(B) - 1
    D = np.empty(T + 1)
    D[T] = 0.0
    p = T  # D(p) is solved; steps s > p are done
    while p > c:
        d, width = D[p], _RUN_WINDOW
        if B[p] > d:
            u = p
            while True:
                lo = max(u - width, c)
                s = np.arange(lo - 1, u + 1, dtype=float)  # the steps lo - 1..u
                g = np.divide(c, s[2:])  # nu_s B(s)/w(s-1), s = lo+1..u
                g *= B[lo + 1 : u + 1]
                g /= s[1:-1]
                if c == 2:
                    g /= s[:-2]
                top = D[u]
                g[-1] += top / (u * (u - 1) if c == 2 else u)
                run = D[lo:u]
                SuffixMoments._suffix(g, out=D[lo : u + 1])
                D[u] = top
                run *= s[1:-1]
                if c == 2:
                    run *= s[:-2]
                # the first reject step below u, down to c + 1 (the slices
                # run downward, so argmax finds the highest)
                a = max(lo, c + 1)
                j = _first(B[u - 1 : a - 1 : -1] <= D[u - 1 : a - 1 : -1])
                if j is not None:
                    p = u - 1 - j
                    break
                if lo == c:
                    p = c
                    break
                u, width = lo, 2 * width
        else:
            hi = p
            while True:
                lo = max(hi - width, c + 1)
                j = _first(B[hi - 1 : lo - 1 : -1] > d)
                if j is not None:
                    s = hi - 1 - j
                    D[s:p] = d
                    p = s
                    break
                if lo == c + 1:
                    D[c:p] = d
                    p = c
                    break
                hi, width = lo, 2 * width
    d = D[p]
    for s in range(p, 0, -1):
        b = B[s]
        if b > d:
            d += (nu1 if s == 1 else c / s) * (b - d)
        D[s - 1] = d
    return D


def backward_induction(variant: Variant, model: CountModel) -> DPPolicy:
    if isinstance(model, Poisson):
        raise ValueError("Poisson's tail past its window must be folded in; truncate_to_explicit first")
    mom = SuffixMoments(*support(model))
    T = int(mom.ks[-1])
    c, nu1 = int(_NICE_NUMERATOR[variant]), _NICE_FIRST[variant]

    # B, _CHUNK steps at a time so that no float array of the steps is
    # built; the U table first, so that B is not held while it is summed
    mom.accept_mass(variant, np.zeros(1))
    B = np.empty(T + 1)
    for i in range(0, T + 1, _CHUNK):
        B[i : i + _CHUNK] = mom.accept_mass(variant, np.arange(i, min(i + _CHUNK, T + 1), dtype=float))
    if variant is Variant.BEST_OR_WORST and T >= 1:
        # k = 1: the object is both best and worst, value 1; else 2/k
        i = mom.at(1)
        B[1] = 2.0 * mom.U1[i] - (mom.ps[i] if mom.ks[i] == 1 else 0.0)

    # S(t) > 0 on the live steps 0..L - 1, up to the last point with mass;
    # past it B = D = 0, and so A = C = 0 and no step accepts.  S at the
    # live steps is, on contiguous points, S(0) below the first point h and
    # a view of the S table from h on; with gaps, a gather (h = 0)
    last = len(mom.ps) - 1 - int(np.argmax(mom.ps[::-1] > 0.0))
    L = int(mom.ks[last]) + 1
    mom = SuffixMoments(mom.ks, mom.ps)  # the U table goes before S is built
    if mom._k0 is None:
        h, S = 0, mom.read(mom.S, 0, np.empty(L))
    else:
        h, S = mom._k0, mom.S[: L - mom._k0]
    del mom  # and the support after
    D = _continue_mass(B, c, nu1)
    for X in (B, D):
        X[:h] /= S[0]
        X[h:L] /= S
    A, C = B, D
    del S  # before the accept test forms its floor

    # accept where A(t) >= C(t) - _ACCEPT_REL C(t): a difference inside the
    # float bound is a tie, and ties resolve to accept (odd-n Known models
    # tie A and C exactly at step (n+1)/2)
    accept = np.zeros(T + 1, dtype=bool)
    np.greater_equal(A[1:L], C[1:L] * (1.0 - _ACCEPT_REL), out=accept[1:L])

    # Classify the policy by its reachable decisions only: the live steps
    # from the first whose nice-probability is positive (step 1, or 2 for
    # postdoc).  An accepting step whose nice-probability is exactly 1 (step
    # 1, and step 2 for the best-or-worst rule; nu_s = c/s < 1 past c)
    # absorbs every surviving trajectory, so decisions past it are vacuous:
    # the realized policy of "accept at 1, dip, accept late" is
    # indistinguishable from the pure cutoff-0 rule.
    lo = 1 if nu1 > 0.0 else 2
    hi = L
    for s in range(lo, min(L, c + 1)):
        if accept[s] and nice_probability(variant, s) >= 1.0:
            hi = s + 1
            break
    pattern = accept[lo:hi]
    j = _first(pattern[:-1] > pattern[1:])  # the first accept -> reject

    witness = None
    threshold = None
    if j is not None:
        witness = (lo + j, lo + j + 1)
    else:
        first = _first(pattern)
        if first is not None:
            r = lo + first - 1
        else:
            r = hi - 1 if hi > lo else T
        # canonical form: dropping leading never-nice steps changes nothing
        while r >= 1 and nice_probability(variant, r) == 0.0:
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
