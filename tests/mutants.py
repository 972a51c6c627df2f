"""A mutation probe: do a module's tests notice when its code is wrong?

Run from the root of the repository, outside pytest (the file name keeps
pytest from collecting it), with the standard library alone:

    python tests/mutants.py --module src/secstop/dp.py \\
        --tests tests/test_dp.py tests/test_exact_references.py --count 40 --seed 1

It copies the tree into a temporary directory and works there only.  A
mutant changes one spot of the module: a comparison flipped (< and <=, >
and >=, == and !=), an arithmetic operator swapped (+ and -, * and /, also
in augmented assignments) or an integer constant plus one.  The spots are
listed in a fixed order, `--since REV` keeps those on the lines that `git
diff REV` changed in the module (`--lines` those on the lines named), and
`--count` of them are drawn with `--seed`.  Each mutant's source is the
module parsed and written back by `ast.unparse`; a control run of that
source unmutated must pass first.
Each mutant then runs the test files with `pytest -x`, and it is killed
when they fail, or run past three times the control run's time, and
survives when they pass.  The survivors
are printed as JSON, and with `--record FILE` (tests/data/mutants.json)
those that the file does not account for are flagged.  The exit code is 1
when an unrecorded mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_COMPARE_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
_OPERATOR_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
# seconds the control run may take
_CONTROL_TIMEOUT = 3600.0


def _spots(tree: ast.AST) -> list[tuple[ast.AST, int]]:
    """Every mutable spot of the tree as (node, index), in ast.walk's order:
    the index is the position of a comparison operator, 0 otherwise."""
    spots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            spots += [(node, i) for i, op in enumerate(node.ops) if type(op) in _COMPARE_FLIPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _OPERATOR_SWAPS:
            spots.append((node, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            spots.append((node, 0))
    return spots


def _describe(node: ast.AST, i: int) -> str:
    if isinstance(node, ast.Compare):
        op = type(node.ops[i])
        return f"{op.__name__} -> {_COMPARE_FLIPS[op].__name__}"
    if isinstance(node, ast.Constant):
        return f"{node.value} -> {node.value + 1}"
    op = type(node.op)
    return f"{op.__name__} -> {_OPERATOR_SWAPS[op].__name__}"


def _mutate(node: ast.AST, i: int) -> None:
    if isinstance(node, ast.Compare):
        node.ops[i] = _COMPARE_FLIPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _OPERATOR_SWAPS[type(node.op)]()


def _changed_lines(root: Path, module: str, rev: str) -> set[int]:
    """The module's lines that `git diff rev` adds or changes."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", module], cwd=root, capture_output=True, text=True,
                          check=True).stdout
    lines = set()
    for m in re.finditer(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.MULTILINE):
        start, count = int(m.group(1)), int(m.group(2) or 1)
        lines.update(range(start, start + count))
    return lines


def _run_tests(tree: Path, tests: list[str], timeout: float) -> tuple[bool, float, str]:
    """(passed, seconds, the first failing test's id) of the test files in
    the copied tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=tree, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, "timeout"
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    return done.returncode == 0, time.perf_counter() - start, failed.group(1) if failed else ""


def _recorded(record: list[dict], mutant: dict) -> dict | None:
    """The record entry of a mutant: the same module, source line and change."""
    for entry in record:
        if (entry["module"], entry["source"].strip(), entry["change"]) == (
            mutant["module"], mutant["source"].strip(), mutant["change"]):
            return entry
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, help="the module to mutate, relative to the root")
    parser.add_argument("--tests", nargs="+", required=True, help="the test files that should kill its mutants")
    parser.add_argument("--count", type=int, default=40, help="mutants to draw (all spots if fewer)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--since", help="mutate only the lines that git diff SINCE changed")
    parser.add_argument("--lines", type=int, nargs="+", help="mutate only these lines of the module")
    parser.add_argument("--record", help="a JSON list of known survivors (tests/data/mutants.json)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    source = (root / args.module).read_text()
    spots = list(enumerate(_spots(ast.parse(source))))
    if args.since or args.lines:
        lines = _changed_lines(root, args.module, args.since) if args.since else set(args.lines)
        spots = [(k, s) for k, s in spots if s[0].lineno in lines]
    chosen = sorted(random.Random(args.seed).sample(spots, min(args.count, len(spots))), key=lambda ks: ks[0])
    record = json.loads(Path(args.record).read_text()) if args.record else []
    source_lines = source.splitlines()

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", "out", ".pytest_cache"))
        target = tree / args.module
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        passed, seconds, failed = _run_tests(tree, args.tests, _CONTROL_TIMEOUT)
        print(f"control (unparsed, unmutated): {'passed' if passed else 'FAILED ' + failed} in {seconds:.1f} s",
              flush=True)
        if not passed:
            return 2
        timeout = 3 * seconds  # a mutant that loops forever is killed
        survivors, unrecorded = [], 0
        for k, _ in chosen:
            mutated = ast.parse(source)
            spot = _spots(mutated)[k]
            change = _describe(*spot)
            _mutate(*spot)
            target.write_text(ast.unparse(mutated) + "\n")
            passed, seconds, failed = _run_tests(tree, args.tests, timeout)
            line = spot[0].lineno
            mutant = {"module": args.module, "line": line, "source": source_lines[line - 1].strip(),
                      "change": change}
            known = _recorded(record, mutant) if passed else None
            status = "killed" if not passed else ("survived, recorded" if known else "SURVIVED")
            print(f"{status:18} {seconds:6.1f} s  {args.module}:{line}  {change}  | {mutant['source']}"
                  + (f"  [{failed}]" if failed else ""), flush=True)
            if passed:
                survivors.append(mutant)
                unrecorded += known is None
        target.write_text(source)
    print(json.dumps(survivors, indent=1))
    print(f"{len(chosen)} mutants, {len(chosen) - len(survivors)} killed, {len(survivors)} survived, "
          f"{unrecorded} of them unrecorded")
    return 1 if unrecorded else 0


if __name__ == "__main__":
    sys.exit(main())
