"""The benchmark's traced runs (`bench/run.py --trace 1`) patch secstop
functions by name and read two result fields, and its workloads import
secstop names.  These tests pin that contract, so a rename or a removed
name fails here rather than in a benchmark run.  `bench/` is read, never
changed."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

from secstop.dp import DPPolicy
from secstop.exact import SuccessCurve

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACER = _BENCH / "tracer.py"


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


def test_every_benchmark_import_resolves():
    # every `from secstop... import name` in the workloads and the worker,
    # at module level or inside a function, names a module or an attribute
    names = []
    for path in (_BENCH / "workloads.py", _BENCH / "worker.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "secstop":
                names += [(node.module, alias.name) for alias in node.names]
    assert len(names) > 20
    for mod_name, name in names:
        module = importlib.import_module(mod_name)
        if not hasattr(module, name):
            importlib.import_module(f"{mod_name}.{name}")
