"""Reference forms that only the tests read: the fixed-n accept value, the
closed-form optimum of a known count, the split of the Poisson bw curve by
the smoothing identity F(r) = f*(r) - f(r), a whole-array table of H_m, F(r)
on Known and Uniform in 40-digit mpmath, and the backward induction over
whole arrays of the horizon, which keeps A(t), C(t) and the accept mask
that `dp.backward_induction` streams past."""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from secstop.core_model import (
    _NICE_FIRST,
    _NICE_NUMERATOR,
    CountModel,
    Known,
    Poisson,
    Uniform,
    Variant,
    nice_probability,
    support,
)
from secstop.dp import _ACCEPT_REL, _RUN_WINDOW, backward_induction
from secstop.exact import _CHUNK, SuffixMoments, _closed_form_search, best_cutoff, poisson_smoothing_coefficients
from secstop.specfun import _CACHE_TOP, _EXPANSION_FROM, harmonic


def accept_success_known(variant: Variant, n: int, r: int) -> float:
    """Success chance when the r-th of n objects is nice and gets accepted.

    classic and best-or-worst: r/n; postdoc: r(r-1)/(n(n-1)).  For
    best-or-worst at r = 1 this is the single-identity convention (a best-so-
    far object extends to the overall best with chance r/n); the behavioral
    value is larger at r = 1 because the first object is simultaneously
    worst-so-far — the induction engine in `dp` accounts for that separately.
    """
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")
    if variant is Variant.POSTDOC:
        if n == 1:
            return 0.0
        return r * (r - 1) / (n * (n - 1))
    return r / n


@dataclass(frozen=True)
class KnownOptimum:
    cutoff: int
    p_bw: float
    p_pd: float


def pbw_known(n: int) -> KnownOptimum:
    """Optimal cutoff floor(n/2) and the closed-form success probabilities
    for exactly n objects: n/(2(n-1)) for even n, (n+1)/(2n) for odd n; the
    second-best variant achieves exactly half (0 when n = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        p_bw = n / (2.0 * (n - 1))
    else:
        p_bw = (n + 1) / (2.0 * n)
    p_pd = 0.0 if n == 1 else 0.5 * p_bw
    return KnownOptimum(n // 2, p_bw, p_pd)


def poisson_fstar_and_f(r: int, lam: float) -> tuple[float, float]:
    """The signed full series f*(r, lam) = sum_{k>=2} 2r(k-r)/(k(k-1)) pmf(k)
    and its head f(r, lam) = sum_{k=2..r} (same summand), a dot over the
    Poisson support, so that the cutoff curve satisfies F(r) = f* - f.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    ks, p = support(Poisson(lam))
    exp_s1, exp_s2 = poisson_smoothing_coefficients(lam)
    fstar = 2.0 * r * exp_s1 - 2.0 * r * r * exp_s2
    keep = (ks >= 2) & (ks <= r)
    k = ks[keep].astype(float)
    return fstar, float(np.dot(2.0 * r * (k - r) / (k * (k - 1.0)), p[keep]))


def harmonic_table(limit: int) -> np.ndarray:
    """[H_0, H_1, ..., H_limit]: `harmonic`'s own values up to 10^4, and past
    them H_1000 plus the terms of `_expansion_gap(m, 1000)` in floats,
    within a few eps H_m of `harmonic` (tests/test_specfun.py), where one
    scalar call per entry costs about 2 us past 10^4."""
    top = min(limit, _CACHE_TOP)
    head = np.fromiter(map(harmonic, range(top + 1)), float, top + 1)
    if limit <= _CACHE_TOP:
        return head
    a = np.arange(_CACHE_TOP + 1, limit + 1, dtype=float)
    b = float(_EXPANSION_FROM)
    a2, b2 = a * a, b * b
    gap = np.log1p((a - b) / b) + ((b - a) / (2 * a * b) + (a2 - b2) / (12 * a2) / b2 + (1 / (a2 * a2) - 1 / (b2 * b2)) / 120)
    return np.concatenate([head, harmonic(_EXPANSION_FROM) + gap])


# ----------------------------------------- the whole-array induction


@dataclass(frozen=True, eq=False)
class WholeArrayPolicy:
    """The induction with its step-indexed arrays: A(t), C(t) and the accept
    mask, read-only, slot 0 a placeholder so that accept_at[t] is step t."""

    variant: Variant
    model: CountModel
    horizon: int
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


def whole_array_induction(variant: Variant, model: CountModel) -> WholeArrayPolicy:
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
    return WholeArrayPolicy(
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


def mask_runs(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The maximal runs of True in a step-indexed mask, (first, last) pairs
    from the lowest step."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]]).astype(np.int8)))
    return tuple((int(f), int(t) - 1) for f, t in zip(edges[::2], edges[1::2]))


def closed_curve_value(variant: Variant, model: Known | Uniform, r: int) -> mpmath.mpf:
    """F(r) on Known(n), or on Uniform(n) for the two-sided rules, in 40-digit
    mpmath: nu_n at r = 0 on Known, (c H_n - 1)/n on Uniform, and for r >= 1
    the forms of `exact._delta_sign`."""
    n, c = model.n, _NICE_NUMERATOR[variant]
    with mpmath.workdps(40):
        H = mpmath.harmonic
        if isinstance(model, Uniform):
            return (c * H(n) - 1) / n if r == 0 else c * r * (n * (H(n - 1) - H(r - 1)) - n + r) / mpmath.mpf(n) ** 2
        if r == 0:
            return mpmath.mpf(_NICE_FIRST[variant]) if n == 1 else mpmath.mpf(c) / n
        if r >= n:
            return mpmath.mpf(0)
        if variant is Variant.CLASSIC:
            return mpmath.mpf(r) / n * (H(n - 1) - H(r - 1))
        return mpmath.mpf(c) * r * (n - r) / (n * (n - 1))


def checked_induction(variant: Variant, model: CountModel) -> WholeArrayPolicy:
    """The whole-array induction, once `dp.backward_induction` is found to
    equal it: the horizon, threshold, witness and is_threshold, accept runs
    that are the runs of its mask, and the value bit for bit.  On the models
    that `dp` reads from the monotone case (Known, and Uniform for the
    two-sided rules) the value is instead `best_cutoff`'s P bit for bit, and
    within 1e-13 of the 40-digit F(threshold)."""
    want = whole_array_induction(variant, model)
    got = backward_induction(variant, model)
    for field in ("variant", "model", "horizon", "is_threshold", "threshold", "witness"):
        g, w = getattr(got, field), getattr(want, field)
        assert g == w and type(g) is type(w), field
    assert type(got.value) is float
    if _closed_form_search(variant, model):
        assert got.value.hex() == best_cutoff(variant, model).prob.hex()
        ref = closed_curve_value(variant, model, got.threshold)
        assert abs(got.value - ref) <= 1e-13 * ref
    else:
        assert got.value.hex() == want.value.hex()
    assert got.accept_runs == mask_runs(want.accept_at)
    return want
