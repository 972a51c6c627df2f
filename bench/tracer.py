"""Spans around the public functions of each secstop module, recorded from
outside the package.

`Tracer.install()` replaces each traced function, in every loaded secstop
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent, phase).  Module globals are looked up at call
time, so calls between modules and within one module both pass through the
wrappers.  Spans stay in memory; `self_times` turns them into per-layer self
time (a span's duration minus what its child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, function, span name); the span name is the per-layer metric stem
TRACED = (
    ("specfun", "harmonic_numbers", "specfun.harmonic_numbers"),
    ("specfun", "poisson_pmf_array", "specfun.poisson_pmf_array"),
    ("specfun", "poisson_tail", "specfun.poisson_tail"),
    ("core_model", "support", "core_model.support"),
    ("core_model", "truncate_to_explicit", "core_model.truncate_to_explicit"),
    ("exact", "success_curve", "exact.success_curve"),
    ("exact", "best_cutoff", "exact.best_cutoff"),
    ("exact", "step_accept_prob", "exact.step_probs"),
    ("exact", "step_reject_prob", "exact.step_probs"),
    ("dp", "backward_induction", "dp.backward_induction"),
    ("dp", "exhaustive_oracle", "dp.exhaustive_oracle"),
    ("estimate", "lambda0", "estimate.lambda0"),
    ("estimate", "lambda_m", "estimate.lambda_m"),
    ("estimate", "with_estimates", "estimate.with_estimates"),
    ("lab", "scan_estimator_failures", "lab.scan_estimator_failures"),
    ("lab", "verify_convergent_cutoffs", "lab.verify_convergent_cutoffs"),
    ("lab", "asymptote_probe", "lab.asymptote_probe"),
    ("mc", "simulate", "mc.simulate"),
)

CLI_KINDS = ("cutoff", "curve", "dp", "table", "convergents", "scan_failures", "verify", "simulate")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[str, float] = {}
        self.phase = "run"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None and self.phase == "run":
                on_result(self.counts, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every TRACED function wherever secstop modules, or the extra
        modules given (the benchmark's own callers), refer to it."""
        hooks = {
            "exact.success_curve": _count_terms,
            "dp.backward_induction": _count_steps,
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "secstop" or n.startswith("secstop.")]
        modules += list(extra_modules)
        for mod_name, fn_name, span_name in TRACED:
            original = getattr(sys.modules[f"secstop.{mod_name}"], fn_name)
            wrapper = self.wrap(span_name, original, hooks.get(span_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def _count_terms(counts, curve) -> None:
    counts["exact.truncation_terms"] = counts.get("exact.truncation_terms", 0) + curve.truncation_terms_used


def _count_steps(counts, policy) -> None:
    counts["dp.horizon_steps"] = counts.get("dp.horizon_steps", 0) + policy.horizon


def self_times(spans: list[list]) -> dict[tuple[str, str], float]:
    """Sum of self time per (span name, phase)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, phase in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple[str, str], float] = {}
    for i, (name, start, end, parent, phase) in enumerate(spans):
        key = (name, phase)
        out[key] = out.get(key, 0.0) + (end - start) - child[i]
    return out


def total_times(spans: list[list], name: str, phase: str = "run") -> float:
    """Inclusive time of the outermost spans with this name."""
    total = 0.0
    for s_name, start, end, parent, s_phase in spans:
        if s_name == name and s_phase == phase and (parent < 0 or spans[parent][0] != name):
            total += end - start
    return total
