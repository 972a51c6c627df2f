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
are the compensated suffix sums of `exact.SuffixMoments`.  The recursion
runs on D(t) = S(t) C(t) (`_continue_mass`) one run of accept or reject
steps at a time: D is constant over a reject run, and over an accept run
D/w has a closed form, a suffix sum of positive terms, with w(t) = t or
t(t - 1) the summation factor of nu_t = 1/t or 2/t.  A = B/S and C = D/S are
within 1e-13 of exact fractions or 50-digit mpmath on Known and Uniform up
to 10^6.  The pass runs from the top of the horizon in chunks of
`exact._CHUNK` steps on one set of chunk buffers (`_steps`), and holds no
array of the horizon but the support (and with gaps the tables over it): on
contiguous points the S and U tables are summed a chunk at a time too.
Each chunk tests A >= C (1 - _ACCEPT_REL) on its live steps, where S > 0,
and the policy keeps the runs of accepting steps, from which the threshold,
or a witness against one, is read.

On Known(n), and on Uniform(n) for the two-sided rules, the pass is not
run: the problem is monotone.  P_R(t) = F(t)/S(t), the value of rejecting
at t and taking the next nice object, gives F(t) - F(t - 1) = nu_t S(t)
(P_R(t) - A(t)), and ΔF changes sign once, from + to -, at M =
`exact.positive_cutoff` (`exact._delta_sign`), so {t >= 2 : A(t) >=
P_R(t)} is the up-set t > M.  In the monotone case the one-stage
look-ahead rule is optimal (Chow, Robbins and Siegmund 1971), so C(t) =
F(max(t, M))/S(t) = max_{r >= t} F(r)/S(t) for t >= 1: the steps M + 1..n
accept, 2..M reject, and step 1 where B(1) >= F(M), B(1) = F(0) for
classic and bw and 0 = F(n) for postdoc, decided as `exact.best_cutoff`
decides F(0) against F(M) (`exact._closed_at_least`).  C(0) = max(B(1),
F(M)) is its P (F(0) = F(1) for postdoc): O(log n), no array, and no
_ACCEPT_REL.
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
from .exact import _CHUNK, SuffixMoments, _closed_at_least, _closed_form_search, positive_cutoff
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
    # the maximal runs of accepting steps, (first, last) pairs from the
    # lowest; a step accepts where A(t) >= C(t), in the pass within _ACCEPT_REL
    accept_runs: tuple[tuple[int, int], ...]
    value: float  # C(0)
    is_threshold: bool
    threshold: int | None
    witness: tuple[int, int] | None


def _last(mask: np.ndarray) -> int | None:
    """Index of the last True of mask, or None."""
    j = len(mask) - 1 - int(mask[::-1].argmax()) if len(mask) else 0
    return j if len(mask) and mask[j] else None


def _steps(mom: SuffixMoments, variant: Variant, m: int):
    """(base, X, B, a, S) for the chunks of m steps lo = max(base, 0)..hi =
    base + m - 1 from the top: X[i] = base - 1 + i, B[i] = B(base + i), B[m]
    = B(hi + 1), S[j] = S(a + j) from a step a >= lo on and S[0] below it.
    With gaps the chunks gather from the whole tables (a = lo); on
    contiguous points they sum the S and U tables a chunk, 8 `_suffix`
    blocks, at a time, with the whole tables' bits, below the first point
    k_0 holding the value at k_0 (a = max(lo, k_0), or hi + 1)."""
    ks, ps, k0 = mom.ks, mom.ps, mom._k0
    T, pd = int(ks[-1]), variant is Variant.POSTDOC
    X = np.arange(T - m, T + 2, dtype=float)
    B, S = np.empty(m + 1), np.empty((m if k0 is None else min(m, len(ks))) + 1)
    u, s, top = [0.0, 0.0, 0.0, 0], [0.0, 0.0, 0.0, 0], 0.0  # the U and S carries, B(hi + 1)
    for hi in range(T, -1, -m):
        base = hi - m + 1
        lo = max(base, 0)
        a = lo if k0 is None else min(max(lo, k0), hi + 1)
        if k0 is None:
            mom.read(mom.U2 if pd else mom.U1, lo, B[lo - base : m])
            mom.read(mom.S, lo, S[: hi + 1 - lo])
        elif a <= hi:  # the points a - k0..hi - k0
            j, n = a - k0, hi - k0 + 1
            w = SuffixMoments._weights(1 + pd, ks[j:n], ps[j:n], B[a - base : m])
            SuffixMoments._suffix(w, out=B[a - base :], carry=u)
            SuffixMoments._suffix(ps[j:n], out=S[: n - j + 1], carry=s)
            u0 = B[a - base]
        if lo < a:
            B[lo - base : a - base] = u0
        weight = X[lo - base + 1 : m + 1]  # t
        if pd:
            weight = np.maximum(X[lo - base : m], 0.0)  # t(t - 1), +0 at t = 0
            weight *= X[lo - base + 1 : m + 1]
        B[lo - base : m] *= weight
        if variant is Variant.BEST_OR_WORST and lo <= 1 <= hi:
            # k = 1: the object is both best and worst, value 1; else 2/k
            i = mom.at(1)
            B[1 - base] = 2.0 * B[1 - base] - (ps[i] if ks[i] == 1 else 0.0)
        B[m] = top
        top = B[lo - base]
        yield base, X, B, a, S[: max(hi + 1 - a, 1)]
        X -= m


def _continue_mass(chunks, c: int, nu1: float):
    """Each chunk of `_steps` with D(t) = S(t) C(t) at its steps and D(hi +
    1) in D's top slot, with B(t) = S(t) A(t): D(T) = 0 and

        D(t) = D(t+1) + nu_{t+1} max(B(t+1) - D(t+1), 0),

    the recursion for C times S(t), nu_1 = nu1, nu_s = c/s for s >= 2 and
    c = 1 or 2, one run of steps at a time from the top.  Over a reject run,
    B(s) <= D(s), D is constant, and the run ends at the last step below
    with B > D.  Over an accept run, B(s) > D(s), D(t) = (1 - nu_{t+1})
    D(t+1) + nu_{t+1} B(t+1), and 1 - nu_s = w(s-1)/w(s) with w(t) = t (c =
    1) or t(t - 1) (c = 2), so from the run's top u

        D(t)/w(t) = D(u)/w(u) + sum_{s = t+1..u} nu_s B(s)/w(s-1),

    a suffix sum of positive terms (`SuffixMoments._suffix`); the run ends
    at the last step below with B <= D.  Both kinds of run are solved on
    windows that double down from the run's top, so each costs O(its length
    + _RUN_WINDOW) and the pass O(T).  The chunks cut a window into pieces,
    summed in place into D and searched from the top, and the open window
    (with an accept window's `_suffix` carry) crosses the chunk edges with
    D.  The steps s <= c, where w(s - 1) = 0 and nu_1 is the variant's
    first-step chance, are scalar.  D is within 2e-15 relative of the exact
    recursion on its float inputs, and within 1.4e-14 where a run sums
    hundreds of equal terms (postdoc between support points: the drift of
    `_suffix`'s block cumsums).
    """
    D = win = rej = None  # the open accept window: [top step, bottom step, width, D at its top, carry]
    for base, X, B, *S in chunks:
        lo = max(base, 0)
        if D is None:  # from a reject step T + 1, D(T + 1) = B(T + 1) = 0
            D, p, d = np.empty(len(B)), base + len(B) - 1, 0.0
        D[p - base] = d
        while p > lo:
            if p <= c or (win is None and p == c + 1):
                b = B[p - base]
                if b > d:
                    d += (nu1 if p == 1 else c / p) * (b - d)
                p -= 1
                D[p - base] = d
            elif win is None:  # the open reject window: [bottom step, width]
                rej = rej or [p - _RUN_WINDOW, _RUN_WINDOW]
                t = max(rej[0], lo, c + 1)
                j = _last(B[t - base : p - base] > d)
                if j is not None:
                    t += j
                    win, rej = [t, max(t - _RUN_WINDOW, c), _RUN_WINDOW, d, [0.0, 0.0, 0.0, 0]], None
                elif t == rej[0]:  # the next window, from this one's bottom
                    rej = [t - 2 * rej[1], 2 * rej[1]]
                D[t - base : p - base] = d
                p = t
            else:
                u, bottom, width, top, carry = win
                t = max(bottom, lo)  # g_s = nu_s B(s)/w(s-1), s = t+1..p, at s - 1
                i, e = t - base, p - base
                g = np.divide(c, X[i + 2 : e + 2], out=D[i:e])
                g *= B[i + 1 : e + 1]
                g /= X[i + 1 : e + 1]
                if c == 2:
                    g /= X[i:e]
                if p == u:
                    g[-1] += top / (u * (u - 1) if c == 2 else u)
                SuffixMoments._suffix(g, out=D[i : e + 1], carry=carry)
                D[e] = d
                g *= X[i + 1 : e + 1]
                if c == 2:
                    g *= X[i:e]
                # the first reject step below p, down to c + 1
                a = max(t, c + 1)
                j = _last(B[a - base : e] <= D[a - base : e])
                p = t if j is None else a + j
                if j is not None or t == bottom == c:
                    win = None
                elif t == bottom:  # the next window, from this one's bottom
                    win = [t, max(t - 2 * width, c), 2 * width, D[i], [0.0, 0.0, 0.0, 0]]
                d = D[p - base]
        yield base, B, D, *S


def backward_induction(variant: Variant, model: CountModel) -> DPPolicy:
    if isinstance(model, Poisson):
        raise ValueError("Poisson's tail past its window must be folded in; truncate_to_explicit first")
    c, nu1 = int(_NICE_NUMERATOR[variant]), _NICE_FIRST[variant]
    if _closed_form_search(variant, model):  # the monotone case, without the pass
        n, m = model.n, positive_cutoff(variant, model)
        zero, f0, fm = _closed_at_least(variant, model, 0, m)
        runs = [(m + 1, n)] * (m < n)
        if _closed_at_least(variant, model, 0 if nu1 > 0.0 else n, m)[0]:  # B(1) = F(0), or F(n) = 0, >= F(M)
            runs = [(1, n if m == 1 else 1)] + runs[m == 1 :]
        return _policy(variant, model, n, n + 1, runs, f0 if zero else fm)
    mom = SuffixMoments(*support(model))
    T = int(mom.ks[-1])
    # S(t) > 0 on the live steps 0..L - 1, up to the last point with mass;
    # past it B = D = 0, and so A = C = 0 and no step accepts
    last = len(mom.ps) - 1
    last -= 0 if mom.ps[last] > 0.0 else int(np.argmax(mom.ps[::-1] > 0.0))
    L = int(mom.ks[last]) + 1

    # the steps t where the accept test flips between t and t + 1, from the
    # top; above L and at step 0 no step accepts, so they pair up into runs
    flips, above = [], False
    for base, B, D, a, S in _continue_mass(_steps(mom, variant, min(_CHUNK, T + 1)), c, nu1):
        lo, hi = max(base, 1), min(base + len(B) - 2, L - 1)
        if lo > hi:
            continue
        # accept where A(t) >= C(t) - _ACCEPT_REL C(t): a difference inside
        # the float bound is a tie, and ties resolve to accept (odd-n Known
        # models tie A and C exactly at step (n+1)/2)
        A, C = B[lo - base : hi - base + 1], D[lo - base : hi - base + 1]
        h = min(max(a - lo, 0), hi + 1 - lo)  # the steps below a, where S(t) = S[0]
        for Y in (A, C):
            if h:
                Y[:h] /= S[0]
            Y[h:] /= S[lo + h - a : hi + 1 - a]
        C *= 1.0 - _ACCEPT_REL
        acc = A >= C
        flips += [hi] * (bool(acc[-1]) != above) + (np.flatnonzero(acc[:-1] != acc[1:])[::-1] + lo).tolist()
        above = bool(acc[0])
    value = float(D[-base] / S[0])  # the last chunk holds step 0, which no test divides
    flips = [0] * above + flips[::-1]
    return _policy(variant, model, T, L, [(f + 1, t) for f, t in zip(flips[::2], flips[1::2])], value)


def _policy(variant: Variant, model: CountModel, T: int, L: int, runs: list, value: float) -> DPPolicy:
    """The policy of the accept runs over the live steps 1..L - 1 of T."""
    # Classify the policy by its reachable decisions only: the live steps
    # from the first whose nice-probability is positive (step 1, or 2 for
    # postdoc).  An accepting step whose nice-probability is exactly 1 (step
    # 1, and step 2 for the best-or-worst rule; nu_s = c/s < 1 past c)
    # absorbs every surviving trajectory, so decisions past it are vacuous:
    # the realized policy of "accept at 1, dip, accept late" is
    # indistinguishable from the pure cutoff-0 rule.
    lo, hi = (1 if _NICE_FIRST[variant] > 0.0 else 2), L
    for s in range(lo, min(L, int(_NICE_NUMERATOR[variant]) + 1)):
        if runs and runs[0][0] <= s <= runs[0][1] and nice_probability(variant, s) >= 1.0:
            hi = s + 1
            break
    # the runs over the reachable steps lo..hi - 1: the first accept ->
    # reject there is a witness, and without one the first accept step is
    # one past the threshold
    reach = [(max(f, lo), l) for f, l in runs if f < hi and l >= lo]
    witness = next(((l, l + 1) for _, l in reach if l < hi - 1), None)
    threshold = None
    if witness is None:
        r = reach[0][0] - 1 if reach else (hi - 1 if hi > lo else T)
        # canonical form: dropping leading never-nice steps changes nothing
        while r >= 1 and nice_probability(variant, r) == 0.0:
            r -= 1
        threshold = r
    return DPPolicy(variant, model, T, tuple(runs), value, witness is None, threshold, witness)


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
