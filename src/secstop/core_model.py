"""Domain vocabulary shared by the whole library.

Three selection rules over a sequence of rankable objects arriving in uniform
random order, where only relative ranks are observable and there is no recall:

* classic        — win by accepting the overall best object;
* best-or-worst  — win by accepting the overall best OR the overall worst;
* postdoc        — win by accepting the overall second best.

The number of objects X may itself be random (Known, Uniform[1, n],
Poisson(lam), or an explicit pmf).  This module carries the model types, the
"nice candidate" chances nu_t, the two-sided factor (2 for best-or-worst, 1
for postdoc) and the fixed-n closed forms used as building blocks by the exact
and simulation engines; F(0) = sum_k p(k) nu_k for every count model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .specfun import (
    DEFAULT_POLICY,
    TruncationPolicy,
    harmonic_gap,
    poisson_pmf_array,
    poisson_tail,
)


class Variant(str, Enum):
    CLASSIC = "classic"
    BEST_OR_WORST = "bw"
    POSTDOC = "pd"


@dataclass(frozen=True)
class Known:
    """Exactly n objects will arrive."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Known model needs n >= 1")


@dataclass(frozen=True)
class Uniform:
    """X uniform on {1, ..., n}: p(X = k) = 1/n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Uniform model needs n >= 1")


@dataclass(frozen=True)
class Poisson:
    """X ~ Poisson(lam).  X = 0 means no object ever arrives (automatic loss)."""

    lam: float
    tp: TruncationPolicy = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValueError("Poisson model needs lam > 0")


@dataclass(frozen=True)
class Explicit:
    """Arbitrary pmf on non-negative integer counts.

    k = 0 is allowed (certain failure mass) so that truncated models keep
    their unconditional normalization.  Keys must be distinct and the masses
    must sum to 1 within 1e-12.
    """

    items: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        ks = [k for k, _ in self.items]
        ps = [p for _, p in self.items]
        if len(ks) != len(set(ks)):
            raise ValueError("Explicit pmf has duplicate support points")
        if any(k < 0 for k in ks):
            raise ValueError("support points must be >= 0")
        if any(p < 0.0 for p in ps):
            raise ValueError("probabilities must be >= 0")
        if abs(sum(ps) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "items", tuple(sorted(self.items)))


CountModel = Union[Known, Uniform, Poisson, Explicit]


def explicit_from_dict(pmf: dict[int, float]) -> Explicit:
    return Explicit(tuple(sorted(pmf.items())))


def poisson_k_max(lam: float, min_k: int = 0, tp: TruncationPolicy = DEFAULT_POLICY) -> int:
    """Support horizon leaving out mass < rel_tol (checked, then extended)."""
    k = max(min_k + 2, int(math.ceil(lam + 12.0 * math.sqrt(lam) + 50.0)))
    for _ in range(64):
        if poisson_tail(k + 1, lam, tp) < tp.rel_tol:
            return k
        k = int(k * 1.5) + 10
    raise RuntimeError("could not bound the Poisson support")


def support(model: CountModel, min_k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(values, masses) of X, truncated for Poisson.  Never includes k with
    zero structural mass except explicit zeros the caller put there."""
    if isinstance(model, Known):
        return np.array([model.n]), np.array([1.0])
    if isinstance(model, Uniform):
        ks = np.arange(1, model.n + 1)
        return ks, np.full(model.n, 1.0 / model.n)
    if isinstance(model, Poisson):
        k_max = poisson_k_max(model.lam, min_k, model.tp)
        ks = np.arange(0, k_max + 1)
        return ks, poisson_pmf_array(model.lam, k_max)
    ks = np.array([k for k, _ in model.items], dtype=int)
    ps = np.array([p for _, p in model.items])
    return ks, ps


def tail_prob(model: CountModel, r: int) -> float:
    """p(X >= r)."""
    if r <= 0:
        return 1.0
    if isinstance(model, Known):
        return 1.0 if r <= model.n else 0.0
    if isinstance(model, Uniform):
        if r > model.n:
            return 0.0
        return (model.n - r + 1) / model.n
    if isinstance(model, Poisson):
        return poisson_tail(r, model.lam, model.tp)
    return float(sum(p for k, p in model.items if k >= r))


def truncate_to_explicit(model: CountModel) -> Explicit:
    """Finite-support stand-in with the upper tail folded into the last point.

    Mass-preserving, so unconditional success probabilities computed against
    the result match the original model up to the folded tail's contribution.
    """
    ks, ps = support(model)
    # fold p(X > top), 0 for finite tables, not 1 - sum(head): for Poisson the
    # head sum's rounding (~1e-15) would dwarf the true tail (~1e-60) and plant
    # a phantom atom that poisons conditional tails
    ps[-1] += tail_prob(model, int(ks[-1]) + 1)
    return Explicit(tuple((int(k), float(p)) for k, p in zip(ks, ps)))


# nu_t = _NICE_NUMERATOR / t for t >= 2; nu_1 is _NICE_FIRST
_NICE_NUMERATOR = {Variant.CLASSIC: 1.0, Variant.BEST_OR_WORST: 2.0, Variant.POSTDOC: 1.0}
_NICE_FIRST = {Variant.CLASSIC: 1.0, Variant.BEST_OR_WORST: 1.0, Variant.POSTDOC: 0.0}
# factor on r(k - r)/(k(k - 1)) in the two-sided rules' cutoff success; the
# postdoc values are the best-or-worst ones halved, which is exact in floats
_TWO_SIDED = {Variant.BEST_OR_WORST: 2.0, Variant.POSTDOC: 1.0}


def nice_probability(variant: Variant, t: int) -> float:
    """Chance that the t-th arrival is a nice candidate for the variant.

    classic: best-so-far, 1/t.  best-or-worst: best- or worst-so-far, 1 at
    t = 1 (the sole object is both) and 2/t after.  postdoc: second-best-so-
    far, impossible at t = 1 and 1/t after.
    """
    if t < 1:
        raise ValueError("step index starts at 1")
    return _NICE_FIRST[variant] if t == 1 else _NICE_NUMERATOR[variant] / t


def nice_probabilities(variant: Variant, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """nice_probability(variant, t) at each step of the integer array t, bit
    for bit; 0.0 at t = 0.  Written into out when given."""
    nu = np.maximum(t, 1.0, out=out)
    np.divide(_NICE_NUMERATOR[variant], nu, out=nu)
    low = np.flatnonzero(t <= 1)
    nu[low] = np.where(t[low] == 1, _NICE_FIRST[variant], 0.0)
    return nu


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


def threshold_success_known(variant: Variant, n: int, r: int) -> float:
    """Success chance of 'reject the first r, then take the first nice
    candidate' when exactly n objects arrive; nu_n at r = 0, so that
    F(0) = sum_k p(k) nu_k.  The classic H_{n-1} - H_{r-1} is
    `harmonic_gap`'s, which does not cancel as r nears n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return nice_probability(variant, n)
    if r >= n:
        return 0.0
    if variant is Variant.CLASSIC:
        return (r / n) * harmonic_gap(n - 1, r - 1)[0]
    return _TWO_SIDED[variant] * r * (n - r) / (n * (n - 1))


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


@dataclass(frozen=True)
class ThresholdPolicy:
    """Reject the first `cutoff` objects, accept the next nice candidate."""

    cutoff: int

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")


@dataclass(frozen=True)
class EstimatorCheck:
    name: str
    value: float
    rounded: int
    agrees: bool


@dataclass(frozen=True)
class CutoffReport:
    model: CountModel
    variant: Variant
    cutoff: int
    prob: float
    estimators: tuple[EstimatorCheck, ...] = ()
