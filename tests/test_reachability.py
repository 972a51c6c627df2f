"""Every top-level name of `src/secstop` (function, class or constant) is
reached from the command line, the package's exports or the benchmark's
contract, the exports are exactly what the package imports, no module but
`__init__.py` imports a name that it never reads, and every parameter with
a default is passed by some call in `src/` or `bench/`.

The roots are `cli.main`, the names of `secstop.__all__`, the names that
`bench/workloads.py` and `bench/worker.py` import from secstop, and the
functions that `bench/tracer.py::TRACED` patches.  From them the walk
follows every name a reached top-level definition mentions (body,
decorators, defaults, annotations) across the modules' relative imports,
and `module.name` where module is a module imported as a name.  A local
variable that shadows a top-level name counts as a use of it, so the walk
can only reach too much, never too little.  Code that only tests read
belongs under `tests/`; `bench/` is read, never changed.
"""

import ast
import importlib.util
from pathlib import Path

import secstop

_SRC = Path(secstop.__file__).resolve().parent
_BENCH = Path(__file__).resolve().parents[1] / "bench"


class _Module:
    def __init__(self, tree: ast.Module) -> None:
        self.defs: dict[str, list[ast.stmt]] = {}  # top-level name -> statements binding it
        self.imports: dict[str, tuple[str, str | None]] = {}  # local -> (module, name or None)
        self.loose: list[ast.stmt] = []  # statements run on import that bind no name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    self.defs.setdefault(name.id, []).append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    self.imports[alias.asname or alias.name] = target
            else:
                self.loose.append(node)


def _package() -> dict[str, _Module]:
    return {p.stem: _Module(ast.parse(p.read_text())) for p in _SRC.glob("*.py")}


def _resolve(mods: dict[str, _Module], mod: str, name: str) -> tuple[str, str | None] | None:
    """(module, name) of the definition that name means in mod, (module,
    None) for a module, or None for a builtin, a local or a third-party
    name."""
    while name not in mods[mod].defs:
        if name not in mods[mod].imports:
            return None
        mod, name = mods[mod].imports[name]
        if name is None:
            return mod, None
    return mod, name


def _uses(mods: dict[str, _Module], mod: str, nodes) -> set[tuple[str, str]]:
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        ref = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            ref = _resolve(mods, mod, node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = _resolve(mods, mod, node.value.id)
            if base is not None and base[1] is None:
                ref = _resolve(mods, base[0], node.attr)
        if ref is not None and ref[1] is not None:
            out.add(ref)
    return out


def _bench_roots(mods: dict[str, _Module]) -> set[tuple[str, str]]:
    """The names the benchmark imports from secstop, read as
    tests/test_trace_contract.py reads them, and the functions it traces."""
    roots = set()
    for path in (_BENCH / "workloads.py", _BENCH / "worker.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "secstop":
                mod = node.module.partition(".")[2] or "__init__"
                refs = (_resolve(mods, mod, alias.name) for alias in node.names)
                roots |= {ref for ref in refs if ref is not None and ref[1] is not None}
    spec = importlib.util.spec_from_file_location("bench_tracer", _BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return roots | {(mod, fn) for mod, fn, _span in tracer.TRACED}


def _reached(mods: dict[str, _Module]) -> set[tuple[str, str]]:
    exported = {_resolve(mods, "__init__", name) for name in secstop.__all__}
    todo = {("cli", "main"), ("__init__", "__all__")} | exported | _bench_roots(mods)
    for mod, module in mods.items():
        todo |= _uses(mods, mod, module.loose)
    seen: set[tuple[str, str]] = set()
    while todo:
        ref = todo.pop()
        if ref not in seen:
            seen.add(ref)
            todo |= _uses(mods, ref[0], mods[ref[0]].defs.get(ref[1], ()))
    return seen


def test_every_top_level_name_is_reached():
    mods = _package()
    reached = _reached(mods)
    unreached = sorted(
        f"{mod}.{name}" for mod, module in mods.items() for name in module.defs if (mod, name) not in reached
    )
    assert not unreached, f"reached by no CLI path, export or benchmark use: {unreached}"


def test_all_lists_exactly_what_the_package_imports():
    imported = list(_package()["__init__"].imports)
    assert sorted(secstop.__all__) == sorted(imported)
    assert len(set(secstop.__all__)) == len(secstop.__all__)


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that the module's top-level imports bind and that nothing
    else in the module reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to export, which test_all_lists_exactly_what_the_package_imports checks
    unused = [
        f"{p.stem}.{name}"
        for p in sorted(_SRC.glob("*.py"))
        if p.name != "__init__.py"
        for name in _unused_imports(ast.parse(p.read_text()))
    ]
    assert not unused, f"imported and never read: {unused}"


def test_every_relative_import_names_the_defining_module():
    # `from .m import x` reads x where it is defined, not through a module
    # that imports it in turn; __init__.py re-exports by design
    mods = _package()
    indirect = [
        f"{mod}: from .{src} import {name}"
        for mod, module in mods.items()
        if mod != "__init__"
        for src, name in module.imports.values()
        if name is not None and name not in mods[src].defs
    ]
    assert not indirect, f"imported through a module that does not define it: {indirect}"


def _defaulted_params(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) of every parameter with a default:
    the position among the arguments a call passes, so after `self` or
    `cls` in a method that is not a staticmethod, and None for a
    keyword-only one.  `__init__` is named by its class, which calls name."""
    bound = {}  # id of a method's node -> its class
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and "staticmethod" not in {
                d.id for d in fn.decorator_list if isinstance(d, ast.Name)
            }:
                bound[id(fn)] = cls.name
    out = []
    for fn in (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
        args = fn.args.posonlyargs + fn.args.args
        shift = 1 if id(fn) in bound else 0
        name = bound[id(fn)] if fn.name == "__init__" and shift else fn.name
        first = len(args) - len(fn.args.defaults)
        out += [(name, a.arg, i - shift) for i, a in enumerate(args) if i >= first]
        out += [(name, a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether call may pass the parameter: by keyword, by position, or
    through a *args or **kwargs."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args[: position + 1]) or len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_some_call():
    # an option that no call sets is a fixed value: fold it into the body
    calls: dict[str, list[ast.Call]] = {}
    for path in [*_SRC.glob("*.py"), *_BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{p.stem}.{fn}({param})"
        for p in sorted(_SRC.glob("*.py"))
        for fn, param, position in _defaulted_params(ast.parse(p.read_text()))
        if not any(_passes(call, param, position) for call in calls.get(fn, ()))
    ]
    assert not unset, f"defaulted parameters that no call in src/ or bench/ passes: {unset}"
