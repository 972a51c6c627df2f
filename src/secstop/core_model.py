"""Domain vocabulary shared by the whole library.

Three selection rules over a sequence of rankable objects arriving in uniform
random order, where only relative ranks are observable and there is no recall:

* classic        — win by accepting the overall best object;
* best-or-worst  — win by accepting the overall best OR the overall worst;
* postdoc        — win by accepting the overall second best.

The number of objects X may itself be random (Known, Uniform[1, n],
Poisson(lam), or an explicit pmf).  This module carries the model types, the
"nice candidate" chances nu_t = c/t past t = 1, whose c (2 for best-or-worst,
1 otherwise) is also the factor of every cutoff success, and the fixed-n
closed forms used as building blocks by the exact and simulation engines;
F(0) = sum_k p(k) nu_k for every count model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .specfun import chernoff_point, harmonic_gap, np, poisson_k_max, poisson_pmf_array, poisson_tail


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

    def __post_init__(self) -> None:
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValueError("Poisson model needs lam > 0")


# how far the masses of an explicit pmf may sum from 1
_MASS_TOL = 1e-12


class MassMissError(ValueError):
    """An explicit table's masses miss total mass 1 by more than _MASS_TOL;
    `miss` is fsum(masses) - 1."""

    def __init__(self, miss: float) -> None:
        super().__init__(f"probabilities must sum to 1 within {_MASS_TOL:g}")
        self.miss = miss


class PmfMassError(RuntimeError):
    """A count model's pmf, evaluated in floats, misses total mass 1 by more
    than an explicit table may: a numeric limit of the model, not bad input.
    Loader's Poisson masses sum to 1 within 1e-14 at the rates tested, 0.5
    to 10^9, so this guards a pmf that drifts rather than a known rate."""


@dataclass(frozen=True)
class Explicit:
    """Arbitrary pmf on non-negative integer counts.

    k = 0 is allowed (certain failure mass) so that truncated models keep
    their unconditional normalization.  Keys must be distinct and the masses
    finite, >= 0 and summing to 1 within 1e-12.
    """

    items: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        # two comprehensions, not zip(*items): that builds an iterator per
        # pair, which sets off the cyclic collector on long tables
        ks, ps = [k for k, _ in self.items], [p for _, p in self.items]
        if not _in_order(ks, ps):
            object.__setattr__(self, "items", tuple(sorted(self.items)))

    @classmethod
    def _from_columns(cls, ks: list[int], ps: list[float]) -> Explicit:
        """The table of points ks and masses ps, checked as the constructor
        checks its pairs but without taking them apart again."""
        table = object.__new__(cls)
        items = zip(ks, ps)
        object.__setattr__(table, "items", tuple(items) if _in_order(ks, ps) else tuple(sorted(items)))
        return table


def _in_order(ks: list, ps: list) -> bool:
    """Whether the points ks are already sorted; raises where `Explicit`
    refuses the table of ks and masses ps."""
    keys = sorted(ks)
    if len(set(keys)) != len(keys):
        raise ValueError("Explicit pmf has duplicate support points")
    if keys and keys[0] < 0:
        raise ValueError("support points must be >= 0")
    # fsum keeps few partials over masses in falling order: 0.21 ms with the
    # sort on the window of Poisson(10^5), 0.73 ms in the order of k
    falling = sorted(ps, reverse=True)
    if not all(map(math.isfinite, falling)) or (falling and falling[-1] < 0.0):
        raise ValueError("probabilities must be finite and >= 0")
    miss = math.fsum(falling) - 1.0
    if abs(miss) > _MASS_TOL:
        raise MassMissError(miss)
    return keys == ks


CountModel = Union[Known, Uniform, Poisson, Explicit]


def explicit_from_dict(pmf: dict[int, float]) -> Explicit:
    return Explicit(tuple(sorted(pmf.items())))


def support(model: CountModel) -> tuple[np.ndarray, np.ndarray]:
    """(values, masses) of X, contiguous for Known, Uniform and Poisson.
    Poisson's is the mass window of the rate alone, `chernoff_point` (0 below
    lam = 146) to `poisson_k_max`, each end leaving out at most e^-72 of the
    mass.  Never includes k with zero structural mass except explicit zeros
    the caller put there.  The last rate's window is kept, read-only, and
    returned again for that rate until another rate replaces it;
    `poisson_k_max` checks the window cap on every call first.  Known,
    Uniform and explicit supports are fresh arrays on each call."""
    if isinstance(model, Known):
        return np.array([model.n]), np.array([1.0])
    if isinstance(model, Uniform):
        ks = np.arange(1, model.n + 1)
        return ks, np.full(model.n, 1.0 / model.n)
    if isinstance(model, Poisson):
        return _poisson_window(model.lam, poisson_k_max(model.lam))
    ks = np.array([k for k, _ in model.items], dtype=int)
    ps = np.array([p for _, p in model.items])
    return ks, ps


# the last Poisson rate's mass window, (lam, ks, ps) with read-only arrays
_last_window: tuple[float, np.ndarray, np.ndarray] | None = None


def _poisson_window(lam: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    global _last_window
    if _last_window is None or _last_window[0] != lam:
        _last_window = None  # free the last rate's window before building this one
        g = chernoff_point(lam)
        ps = poisson_pmf_array(lam, k_max, g)  # first, so its block temporaries never meet ks
        ks = np.arange(g, k_max + 1)
        ks.flags.writeable = ps.flags.writeable = False
        _last_window = lam, ks, ps
    return _last_window[1], _last_window[2]


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
        return poisson_tail(r, model.lam)
    return float(sum(p for k, p in model.items if k >= r))


def truncate_to_explicit(model: CountModel) -> Explicit:
    """Finite-support stand-in with the upper tail folded into the last point.

    Mass-preserving, so unconditional success probabilities computed against
    the result match the original model up to the folded tail's contribution.
    PmfMassError where the model's masses sum to 1 less closely than
    `Explicit` allows.
    """
    ks, ps = support(model)
    # fold p(X > top), 0 for finite tables, not 1 - sum(head): for Poisson the
    # head sum's rounding (~1e-15) would dwarf the true tail (~1e-60) and plant
    # a phantom atom that poisons conditional tails.  The fold goes into the
    # list of masses, as the support may be Poisson's shared window.  The at most
    # e^-72 below it is dropped, not folded: nothing conditions on the bottom tail
    masses = ps.tolist()
    masses[-1] += tail_prob(model, int(ks[-1]) + 1)
    try:
        return Explicit._from_columns(ks.tolist(), masses)
    except MassMissError as exc:
        raise PmfMassError(
            f"the pmf of {model} sums to 1 {exc.miss:+.1e} in floats; a table allows {_MASS_TOL:g}"
        ) from None


# nu_t = _NICE_NUMERATOR / t for t >= 2; nu_1 is _NICE_FIRST.  The numerator
# is also the factor c of every cutoff success, c r(k - r)/(k(k - 1)) for
# the two-sided rules: the postdoc values are the best-or-worst ones halved,
# which is exact in floats
_NICE_NUMERATOR = {Variant.CLASSIC: 1.0, Variant.BEST_OR_WORST: 2.0, Variant.POSTDOC: 1.0}
_NICE_FIRST = {Variant.CLASSIC: 1.0, Variant.BEST_OR_WORST: 1.0, Variant.POSTDOC: 0.0}


def nice_probability(variant: Variant, t: int) -> float:
    """Chance that the t-th arrival is a nice candidate for the variant.

    classic: best-so-far, 1/t.  best-or-worst: best- or worst-so-far, 1 at
    t = 1 (the sole object is both) and 2/t after.  postdoc: second-best-so-
    far, impossible at t = 1 and 1/t after.
    """
    if t < 1:
        raise ValueError("step index starts at 1")
    return _NICE_FIRST[variant] if t == 1 else _NICE_NUMERATOR[variant] / t


def nice_probabilities(variant: Variant, t: np.ndarray) -> np.ndarray:
    """nice_probability(variant, t) at each step of the integer array t, bit
    for bit; 0.0 at t = 0."""
    nu = np.maximum(t, 1.0)
    np.divide(_NICE_NUMERATOR[variant], nu, out=nu)
    low = np.flatnonzero(t <= 1)
    nu[low] = np.where(t[low] == 1, _NICE_FIRST[variant], 0.0)
    return nu


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
    return _NICE_NUMERATOR[variant] * r * (n - r) / (n * (n - 1))


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
