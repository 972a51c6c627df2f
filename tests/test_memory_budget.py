"""Allocation budgets of the large exact paths.

tracemalloc sees numpy's array buffers as well as Python objects, so the
peak it reports during one call counts every temporary.  The budgets are in
units of one float array of the horizon, 8n bytes at n = 10^5 (for
Poisson(10^6), of its mass window), and sit just above what the code
needs: a change that brings back full-size temporaries fails here rather
than only in a timing.  The small objects of a call (the
result record, the model, array headers) take a few kB whatever n is; they
are allowed for by _FIXED_BYTES, a sixteenth of one array here.
"""

import statistics
import time
import tracemalloc

import pytest

from secstop import core_model, mc
from secstop.core_model import Known, Poisson, ThresholdPolicy, Uniform, Variant, explicit_from_dict, support
from secstop.dp import backward_induction
from secstop.exact import best_cutoff, success_curve

N = 10**5
_FIXED_BYTES = 2**16


def _peak_units(fn, n: int = N) -> float:
    """The peak of one call, in float arrays of n points."""
    fn()  # warm: imports and process-wide caches are not the call's own
    core_model._last_window = None  # but a Poisson mass window is: build it again
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - _FIXED_BYTES) / (8 * n)


@pytest.mark.parametrize(
    "model, budget",
    [
        # ks, ps, the U2 table (its weights are freed once summed), T, K and
        # the values, which hold the cutoffs r before F: about 6.2 units
        (Uniform(N), 6.5),
        # the values, which hold the parabola below the one support point,
        # and a chunk of its steps; T and K are a point long: about 1 unit
        (Known(N), 1.25),
    ],
)
def test_full_support_curve_budget(model, budget):
    assert _peak_units(lambda: success_curve(Variant.BEST_OR_WORST, model)) <= budget


def test_classic_curve_below_the_support_allocates_no_array():
    # Known(10^7) at r_max = 3: three steps below the one support point, from
    # harmonic_gap and a two-point suffix sum, in well under 5 ms
    def curve():
        return success_curve(Variant.CLASSIC, Known(100 * N), 3)

    assert _peak_units(curve) <= 0
    times = []
    for _ in range(20):
        start = time.perf_counter()
        curve()
        times.append(time.perf_counter() - start)
    assert statistics.median(times) < 5e-3


def test_uniform_prefix_curve_is_linear_in_r_max_not_n():
    # a two-sided prefix of Uniform(10^6) at r_max = 10^4 from closed forms:
    # r, T, its suffix sum and the values peak at about 5.7 arrays of r_max,
    # 0.57 units; one array of n is 10 units
    r_max = N // 10
    assert _peak_units(lambda: success_curve(Variant.POSTDOC, Uniform(10 * N), r_max)) <= 6 * r_max / N


@pytest.mark.parametrize(
    "variant, model, budget",
    [
        # ks, ps and B while the S table is summed (the U table before it,
        # with its weights in B's place), and a quarter array of `_suffix`'s
        # block scratch: about 4.2 units for every rule.  The recursion then
        # holds B, S, D and an accept window's steps and weights
        *[(v, Uniform(N), 4.25) for v in Variant],
        # a one-point support: A, C, the accept test's C(t) (1 - _ACCEPT_REL)
        # and the accept mask, about 3.05 units
        (Variant.BEST_OR_WORST, Known(N), 3.1),
        # B and the gather of S at the steps (its steps and slots), then B, S,
        # D and an accept window's steps and weights: about 3.9 units
        (Variant.BEST_OR_WORST, explicit_from_dict({5: 0.9, N: 0.1}), 3.95),
    ],
)
def test_backward_induction_budget(variant, model, budget):
    assert _peak_units(lambda: backward_induction(variant, model)) <= budget


@pytest.mark.parametrize(
    "variant, model",
    [(v, Known(10 * N)) for v in Variant] + [(v, Uniform(10 * N)) for v in (Variant.BEST_OR_WORST, Variant.POSTDOC)],
)
def test_best_cutoff_by_the_sign_of_the_difference_allocates_no_array(variant, model):
    # O(log n) scalar sign evaluations and closed forms: a peak within the
    # small-object allowance _FIXED_BYTES
    assert _peak_units(lambda: best_cutoff(variant, model)) <= 0


def test_best_cutoff_at_a_trillion_in_under_a_millisecond():
    model = Uniform(10**12)
    best_cutoff(Variant.BEST_OR_WORST, model)
    times = []
    for _ in range(20):
        start = time.perf_counter()
        best_cutoff(Variant.BEST_OR_WORST, model)
        times.append(time.perf_counter() - start)
    assert statistics.median(times) < 1e-3


# the mass window of Poisson(10^6), k = 988,000..1,012,050: 24,051 points
_WINDOW = 24_051


def test_poisson_support_is_the_mass_window():
    # the masses with five blocks of the pmf's temporaries, 1.7 windows, then
    # the points: about 2.7 arrays of the window, where a table from k = 0
    # was 42 windows long
    assert len(support(Poisson(1e6))[0]) == _WINDOW
    assert _peak_units(lambda: support(Poisson(1e6)), _WINDOW) <= 3


def test_the_next_poisson_rate_frees_the_last_window_before_its_build():
    # the kept window of Poisson(10^6), ks and ps, is 2 windows; built while
    # it was still held, the next rate's window would peak near 4
    support(Poisson(2e6))
    tracemalloc.start()
    try:
        support(Poisson(1e6))
        tracemalloc.reset_peak()
        support(Poisson(1e6 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - _FIXED_BYTES) / (8 * _WINDOW) <= 3


def test_poisson_curve_below_the_window_is_linear_in_the_window():
    # ks, ps, U2, T and K over the window and the 1001 values: about 5.4
    # arrays of the window
    assert _peak_units(lambda: success_curve(Variant.BEST_OR_WORST, Poisson(1e6), 1000), _WINDOW) <= 7


@pytest.mark.parametrize("variant", list(Variant))
def test_two_sided_poisson_cutoff_is_linear_in_the_window(variant):
    # the scan of the sign of ΔF: ks, ps, the U table, T (which becomes
    # r T(r + 1)), K and the rise mask over the window, and for
    # classic the steps that T is divided by: about 5.4 windows for every
    # rule.  M lies below the window (near 500,000 for bw and pd, 368,000
    # for classic), where ΔF is bisected in scalars.  The whole curve from
    # r = 1 peaked at 45.7 windows for bw and 63.9 for classic
    assert _peak_units(lambda: best_cutoff(variant, Poisson(1e6)), _WINDOW) <= 6.5


@pytest.mark.parametrize(
    "variant, model, r, budget",
    [
        # the step's draws and their mix scratch, the stream bases, the sorted
        # X draws (then their order) and the gathered bases while a chunk is
        # set up: about 4.9 chunk arrays; the step loop holds the bases, the
        # two buffers and the state bytes, and a compaction the kept positions
        # and their bases, up to 7/8 of an array each
        (Variant.BEST_OR_WORST, Uniform(100), 20, 5.0),
        # every trial goes on to X = 50; the last compaction's kept positions
        # are freed after its gather, not carried into the next chunk (0.9
        # arrays more): about 5.1
        (Variant.CLASSIC, Known(50), 18, 5.2),
        (Variant.POSTDOC, Poisson(10.0), 4, 5.0),
    ],
)
def test_simulate_budget(variant, model, r, budget):
    # in units of one uint64 array of a chunk, over four chunks: per-trial
    # float or int64 temporaries of the step loop would each add a unit
    config = mc.SimConfig(variant, model, ThresholdPolicy(r), 2 * 10**5, seed=3)
    assert _peak_units(lambda: mc.simulate(config), mc._CHUNK) <= budget
