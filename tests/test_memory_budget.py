"""Allocation budgets of the large exact paths.

tracemalloc sees numpy's array buffers as well as Python objects, so the
peak it reports during one call counts every temporary.  The budgets are in
units of one float array of the horizon, 8n bytes at n = 10^5, and sit just
above what the code needs: a change that brings back full-size temporaries
fails here rather than only in a timing.  The small objects of a call (the
result record, the model, array headers) take a few kB whatever n is; they
are allowed for by _FIXED_BYTES, a sixteenth of one array here.
"""

import statistics
import time
import tracemalloc

import pytest

from secstop.core_model import Known, Uniform, Variant
from secstop.dp import backward_induction
from secstop.exact import best_cutoff, success_curve

N = 10**5
_FIXED_BYTES = 2**16


def _peak_units(fn) -> float:
    fn()  # warm: imports and process-wide caches are not the call's own
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - _FIXED_BYTES) / (8 * N)


@pytest.mark.parametrize(
    "model, budget",
    [
        # ks, ps, the U2 and K tables, the scratch buffer (T), the values
        # and r
        (Uniform(N), 8),
        # the values and r; T and K are a few points long
        (Known(N), 3),
    ],
)
def test_full_support_curve_budget(model, budget):
    assert _peak_units(lambda: success_curve(Variant.BEST_OR_WORST, model)) <= budget


def test_backward_induction_budget():
    # the DPPolicy holds A, C and the accept mask as arrays of the horizon;
    # the recursion's list of fresh floats, about 4 units, is its largest
    # temporary: the peak is about 13.3 units (21.3 with tuples)
    assert _peak_units(lambda: backward_induction(Variant.BEST_OR_WORST, Uniform(N))) <= 15


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
