"""Every curve value, finite-table step probability and induction value
against a reference computed apart from the float code.

The references are exact `Fraction`s on supports up to 3000 points (closed
forms on Known and Uniform, direct sums over the support on explicit tables,
and the induction itself in exact arithmetic) and 50-digit mpmath closed
forms on Known and Uniform at 10^5 and 10^6.  Uniform masses are taken as
exactly 1/n, which moves the float model's values by at most 1.2e-16
relative.  The bound is 1e-13 relative at each r of the grid {1, 2,
floor(theta n), n/2, n - 1000, n - 10, n - 1} that lies in range.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from secstop.core_model import Explicit, Known, Poisson, Uniform, Variant, support
from secstop.dp import backward_induction
from secstop.exact import positive_cutoff, step_accept_prob, step_reject_prob, success_curve
from secstop.specfun import poisson_pmf_array, poisson_tail

from test_dp import _MODELS as _DP_MODELS
from test_exact import _MIXED_MODELS, _POISSON_1000_WINDOW


def _poisson_1000_deep() -> Explicit:
    """Every mass of Poisson(1000) above 0.0 in the table from k = 0, k =
    71..1430, with the tail folded into the top: masses over about 1000
    binary orders, down to subnormals, where the mass window starts at k =
    620 and its least mass is about 1e-38."""
    ps = poisson_pmf_array(1000.0, 1430)
    k0 = int(np.argmax(ps > 0.0))
    masses = ps[k0:].tolist()
    masses[-1] += poisson_tail(1431, 1000.0)
    return Explicit(tuple(zip(range(k0, 1431), masses)))


_POISSON_1000 = [_poisson_1000_deep(), _POISSON_1000_WINDOW]

V = Variant
REL = 1e-13
_THETA = 0.2031878699
_C = {V.CLASSIC: 1, V.BEST_OR_WORST: 2, V.POSTDOC: 1}


def _grid(n: int) -> list[int]:
    """The cutoffs r of the grid with 1 <= r <= n - 1."""
    return sorted({r for r in (1, 2, int(_THETA * n), n // 2, n - 1000, n - 10, n - 1) if 1 <= r < n})


def _model_id(model) -> str:
    return str(model) if isinstance(model, (Known, Uniform)) else f"table{len(model.items)}-top{model.items[-1][0]}"


def _close(got: float, want) -> bool:
    return abs(got - want) <= REL * abs(want) if want else got == 0.0


@lru_cache(maxsize=None)
def _harmonics(top: int) -> tuple[Fraction, ...]:
    """Exact H_0, ..., H_top."""
    h = [Fraction(0)]
    for k in range(1, top + 1):
        h.append(h[-1] + Fraction(1, k))
    return tuple(h)


class _Closed:
    """F(r), S(r) and the accept values on Known(n) or Uniform(n) from their
    closed forms, in exact fractions (exact=True) or at the working mpmath
    precision.  Uniform classic uses sum_{k=a+1..b} H_{k-1}/k =
    (H_b^2 - H2_b - H_a^2 + H2_a)/2, with H2_m = sum_{k<=m} 1/k^2."""

    def __init__(self, model, exact: bool) -> None:
        self.n, self.known = model.n, isinstance(model, Known)
        if exact:
            hs = _harmonics(self.n)
            self.H = hs.__getitem__
            self.q = Fraction
            h2 = [Fraction(0)]
            for k in range(1, self.n + 1):
                h2.append(h2[-1] + Fraction(1, k * k))
            self.H2 = h2.__getitem__
        else:
            self.H = mpmath.harmonic
            self.q = lambda a, b: mpmath.mpf(a) / b
            self.H2 = lambda m: mpmath.zeta(2) - mpmath.zeta(2, m + 1)

    def S(self, r):
        return self.q(1, 1) if self.known else self.q(self.n - r + 1, self.n)

    def F(self, v, r):
        n, H, q = self.n, self.H, self.q
        if self.known:
            if v is V.CLASSIC:
                return q(r, n) * (H(n - 1) - H(r - 1))
            return _C[v] * q(r * (n - r), n * (n - 1))
        if v is V.CLASSIC:
            pairs = (H(n) ** 2 - self.H2(n) - H(r) ** 2 + self.H2(r)) / 2 - H(r - 1) * (H(n) - H(r))
            return q(r, n) * pairs
        return _C[v] * r * (n * (H(n - 1) - H(r - 1)) - n + r) * q(1, n * n)

    def accept(self, v, r):
        """Single-identity P_A(r), the induction's A(r) but at bw step 1."""
        n, H, q = self.n, self.H, self.q
        if v is V.POSTDOC:
            if r == 1:
                return q(0, 1)
            return q(r * (r - 1), n * (n - 1)) if self.known else q(r, n)
        return q(r, n) if self.known else r * (H(n) - H(r - 1)) * q(1, n + 1 - r)

    def behave(self, v, t):
        """The induction's A(t): at bw step 1 the sole object is best and worst."""
        if v is V.BEST_OR_WORST and t == 1:
            n = self.n
            if self.known:
                return self.q(1 if n == 1 else 2, n)
            return (2 * self.H(n) - 1) * self.q(1, n)
        return self.accept(v, t)


@lru_cache(maxsize=None)
def _frac_tables(model):
    """Exact dense p, S, U1, U2 over steps 0..T + 1 of a finite table."""
    if isinstance(model, Known):
        items = [(model.n, Fraction(1))]
    elif isinstance(model, Uniform):
        items = [(k, Fraction(1, model.n)) for k in range(1, model.n + 1)]
    else:
        items = [(k, Fraction(p)) for k, p in model.items]
    T = max(k for k, _ in items)
    p = [Fraction(0)] * (T + 2)
    for k, pk in items:
        p[k] = pk
    S, U1, U2 = ([Fraction(0)] * (T + 2) for _ in range(3))
    for t in range(T, -1, -1):
        S[t] = S[t + 1] + p[t]
        U1[t] = U1[t + 1] + (p[t] / t if t >= 1 else 0)
        U2[t] = U2[t + 1] + (p[t] / (t * (t - 1)) if t >= 2 else 0)
    return p, S, U1, U2


def _frac_curve(v, model, r):
    """F(r) as a direct exact sum over the support points k > r."""
    p, _, _, _ = _frac_tables(model)
    T = len(p) - 2
    if v is V.CLASSIC:
        h = _harmonics(T)
        return sum((p[k] * Fraction(r, k) * (h[k - 1] - h[r - 1]) for k in range(r + 1, T + 1) if p[k]), Fraction(0))
    return sum((p[k] * Fraction(_C[v] * r * (k - r), k * (k - 1)) for k in range(r + 1, T + 1) if p[k]), Fraction(0))


@lru_cache(maxsize=None)
def _frac_induction(v, model):
    """(A, C) of the induction in exact fractions over steps 0..T."""
    p, S, U1, U2 = _frac_tables(model)
    T = len(p) - 2
    A = [Fraction(0)] * (T + 1)
    for t in range(1, T + 1):
        if S[t]:
            A[t] = (t * (t - 1) * U2[t] if v is V.POSTDOC else t * U1[t]) / S[t]
    if v is V.BEST_OR_WORST and S[1]:
        A[1] = (2 * U1[1] - p[1]) / S[1]
    C = [Fraction(0)] * (T + 1)
    for t in range(T - 1, -1, -1):
        if S[t]:
            s = t + 1
            nu = Fraction(0 if v is V.POSTDOC else 1) if s == 1 else Fraction(_C[v], s)
            C[t] = S[s] / S[t] * (nu * max(A[s], C[s]) + (1 - nu) * C[s])
    return tuple(A), tuple(C)


_SMALL = [Known(n) for n in (2, 7, 300, 3000)] + [Uniform(n) for n in (2, 7, 300, 3000)]
_LARGE = [Known(10**5), Uniform(10**5), Known(10**6), Uniform(10**6)]


def _cutoffs(model) -> list[int]:
    top = model.n if isinstance(model, (Known, Uniform)) else max(k for k, _ in model.items)
    return _grid(top) if isinstance(model, (Known, Uniform)) else list(range(1, top + 1))[:: max(1, top // 40)]


# ------------------------------------------------------------------ (a) curves


@pytest.mark.parametrize("variant", list(V))
@pytest.mark.parametrize("model", _SMALL + _MIXED_MODELS + _POISSON_1000, ids=_model_id)
def test_curve_against_exact_fractions(variant, model):
    values = success_curve(variant, model).values
    closed = _Closed(model, exact=True) if isinstance(model, (Known, Uniform)) else None
    for r in _cutoffs(model):
        want = closed.F(variant, r) if closed else _frac_curve(variant, model, r)
        assert _close(values[r], want), (r, values[r], float(want))


@pytest.mark.parametrize("variant", list(V))
@pytest.mark.parametrize("model", _LARGE, ids=_model_id)
def test_curve_against_mpmath(variant, model):
    values = success_curve(variant, model).values
    ref = _Closed(model, exact=False)
    with mpmath.workdps(50):
        for r in _grid(model.n):
            want = ref.F(variant, r)
            assert _close(values[r], want), (r, values[r], float(want))


# n and r_max of the two-sided Uniform prefixes: K(r_max + 2) comes from
# the closed form, on either side of its switch to direct sums at n - r = n/8
_PREFIXES = [(7, 3), (3000, 5), (3000, 2999), (10**6, 4321), (10**6, 865_000), (10**6, 874_997),
             (10**6, 875_003), (10**9, 3), (10**9, 4321)]


@pytest.mark.parametrize("variant", [V.BEST_OR_WORST, V.POSTDOC])
@pytest.mark.parametrize("n, r_max", _PREFIXES)
def test_uniform_prefix_curve_against_references(variant, n, r_max):
    values = success_curve(variant, Uniform(n), r_max).values
    ref = _Closed(Uniform(n), exact=n <= 3000)
    with mpmath.workdps(50):
        assert _close(values[0], (_C[variant] * ref.H(n) - 1) * ref.q(1, n))
        for r in sorted({1, 2, r_max // 2, r_max - 1, r_max}):
            want = ref.F(variant, r)
            assert _close(values[r], want), (r, values[r], float(want))


@lru_cache(maxsize=None)
def _poisson_window_sums(lam: float) -> tuple[int, mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(k_lo, sum p/k, sum p/(k(k-1)), sum p H_{k-1}/k) over the float masses
    of support(Poisson(lam)), at 50 digits."""
    ks, ps = support(Poisson(lam))
    with mpmath.workdps(50):
        a = b = w = mpmath.mpf(0)
        h = mpmath.harmonic(int(ks[0]) - 1)
        for i, (k, p) in enumerate(zip(ks.tolist(), ps.tolist())):
            h += mpmath.mpf(1) / (k - 1) if i else 0
            a += mpmath.mpf(p) / k
            b += mpmath.mpf(p) / (k * (k - 1))
            w += mpmath.mpf(p) * h / k
    return int(ks[0]), a, b, w


@pytest.mark.parametrize("variant", list(V))
def test_poisson_curve_below_the_mass_window_against_mpmath(variant):
    # Poisson(10^5)'s window starts at its Chernoff point, k = 96205.  Below
    # that every k of the window exceeds r, so F(r) = c r (sum p/k - (r - 1) sum
    # p/(k(k-1))) for the two-sided rules and r (sum p H_{k-1}/k - H_{r-1}
    # sum p/k) for classic; the curve holds each within 4e-15 (bw and pd
    # were 7.5-8.4e-15 off when K summed the zero masses below the window)
    k_lo, a, b, w = _poisson_window_sums(1e5)
    assert k_lo == 96205
    values = success_curve(variant, Poisson(1e5), 80_000).values
    with mpmath.workdps(50):
        for r in (1, 2, 1000, 36787, 50_000, 80_000):
            if variant is V.CLASSIC:
                want = r * (w - mpmath.harmonic(r - 1) * a)
            else:
                want = _C[variant] * r * (a - (r - 1) * b)
            assert abs(values[r] - want) <= 4e-15 * want, (r, values[r], float(want))


# ------------------------------------------------------ (a) step probabilities

_TABLES = [Known(n) for n in (2, 7, 300, 3000)] + _MIXED_MODELS + _POISSON_1000


@pytest.mark.parametrize("variant", list(V))
@pytest.mark.parametrize("model", _TABLES, ids=_model_id)
def test_table_step_probs_against_exact_fractions(variant, model):
    p, S, _, _ = _frac_tables(model)
    closed = _Closed(model, exact=True) if isinstance(model, Known) else None
    top = len(p) - 2
    for r in sorted(set(_cutoffs(model)) | {top}):
        if r < 1 or not S[r]:
            continue
        if closed:
            accept, reject = closed.accept(variant, r), closed.F(variant, r)
        else:
            k_weights = (
                (k, Fraction(r * (r - 1), k * (k - 1)) if variant is V.POSTDOC else Fraction(r, k))
                for k in range(max(r, 2 if variant is V.POSTDOC else 1), top + 1)
            )
            accept = sum((p[k] * w for k, w in k_weights), Fraction(0)) / S[r]
            reject = _frac_curve(variant, model, r) / S[r]
        assert _close(step_accept_prob(variant, model, r), accept), r
        assert _close(step_reject_prob(variant, model, r), reject), r


@pytest.mark.parametrize("variant", list(V))
@pytest.mark.parametrize("model", [Known(10**5), Known(10**6)], ids=_model_id)
def test_known_step_probs_against_mpmath(variant, model):
    ref = _Closed(model, exact=False)
    with mpmath.workdps(50):
        for r in _grid(model.n) + [model.n]:
            want = ref.F(variant, r) if r < model.n else 0
            assert _close(step_accept_prob(variant, model, r), ref.accept(variant, r)), r
            assert _close(step_reject_prob(variant, model, r), want), r


@pytest.mark.parametrize("model", [Uniform(n) for n in (2, 7, 300, 3000, 10**5, 10**6)], ids=_model_id)
def test_uniform_classic_reject_against_references(model):
    ref = _Closed(model, exact=model.n <= 3000)
    with mpmath.workdps(50):
        for r in _grid(model.n):
            assert _close(step_reject_prob(V.CLASSIC, model, r), ref.F(V.CLASSIC, r) / ref.S(r)), r


# ---------------------------------------------------------- (a) the induction


@pytest.mark.parametrize("variant", list(V))
@pytest.mark.parametrize("model", _SMALL + _MIXED_MODELS + _POISSON_1000, ids=_model_id)
def test_induction_values_against_exact_fractions(variant, model):
    pol = backward_induction(variant, model)
    A, C = _frac_induction(variant, model)
    steps = _cutoffs(model) if isinstance(model, (Known, Uniform)) else range(pol.horizon + 1)
    for t in steps:
        assert _close(pol.value_accept[t], A[t]), t
        assert _close(pol.value_reject[t], C[t]), t


@pytest.mark.parametrize("variant", list(V))
@pytest.mark.parametrize("model", _LARGE, ids=_model_id)
def test_induction_values_against_mpmath(variant, model):
    # threshold models: C(t) = F(max(t, M))/S(t), with M the best positive
    # cutoff: certified by the sign of ΔF where that has a closed form, else
    # the 50-digit curve's local maximum next to the induction's threshold
    pol = backward_induction(variant, model)
    ref = _Closed(model, exact=False)
    with mpmath.workdps(50):
        if variant is V.CLASSIC and isinstance(model, Uniform):
            m = max(pol.threshold, 1)
            while ref.F(variant, m + 1) > ref.F(variant, m):
                m += 1
            while m > 1 and ref.F(variant, m - 1) >= ref.F(variant, m):
                m -= 1
        else:
            m = positive_cutoff(variant, model)
        for t in _grid(model.n):
            assert _close(pol.value_accept[t], ref.behave(variant, t)), t
            assert _close(pol.value_reject[t], ref.F(variant, max(t, m)) / ref.S(t)), t


# ------------------------------------- (b) C(t) is the curve's suffix maximum


def _suffix_max_gap(variant, model) -> float:
    """The largest relative gap between C(t) and max_{r>=t} F(r)/S(t) over
    the steps t >= 1 with S(t) > 0, both from the float code, S(t) from
    fsum; 0 for a policy that is not a threshold rule."""
    pol = backward_induction(variant, model)
    if not pol.is_threshold:
        return 0.0
    T = pol.horizon
    F = success_curve(variant, model, T).values
    best = np.maximum.accumulate(F[1:][::-1])[::-1]  # max_{r>=t} F(r), t = 1..T
    ks, ps = support(model)
    S = np.array([math.fsum(ps[ks >= t]) for t in range(1, T + 1)])
    live = S > 0.0
    want = best[live] / S[live]
    got = pol.value_reject[1:][live]
    return float(np.max(np.abs(got - want) / np.where(want > 0.0, want, 1.0), initial=0.0))


@pytest.mark.parametrize("variant", list(V))
def test_continue_value_is_the_curve_suffix_maximum(variant):
    for model in _DP_MODELS:
        assert _suffix_max_gap(variant, model) <= REL, model


@pytest.mark.parametrize("variant", list(V))
def test_continue_value_is_the_curve_suffix_maximum_at_uniform_1e5(variant):
    # on classic Uniform(10^5) the cancelling curve was 2.1e-10 off at n - 1
    model = Uniform(10**5)
    pol = backward_induction(variant, model)
    F = success_curve(variant, model).values
    n = model.n
    best = np.maximum.accumulate(F[1:n][::-1])[::-1]
    S = (n - np.arange(1, n) + 1) / n
    got = pol.value_reject[1:n]
    assert np.max(np.abs(got - best / S) / (best / S)) <= REL
