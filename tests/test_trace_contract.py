"""The benchmark's traced runs (`bench/run.py --trace 1`) patch secstop
functions by name and read two result fields.  These tests pin that
contract, so a rename or a removed field fails here rather than silently
breaking trace runs.  `bench/` is read, never changed."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from secstop.dp import DPPolicy
from secstop.exact import SuccessCurve

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for mod_name, fn_name, _span in traced:
        module = importlib.import_module(f"secstop.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)


def test_trace_hook_fields_exist():
    # the hooks of exact.success_curve and dp.backward_induction read these
    assert "truncation_terms_used" in {f.name for f in dataclasses.fields(SuccessCurve)}
    assert "horizon" in {f.name for f in dataclasses.fields(DPPolicy)}
