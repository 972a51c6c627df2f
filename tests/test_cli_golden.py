"""Golden stdout of the command-line surface.

Each command runs in process through `cli.main`, from the repository root,
and its stdout bytes and exit code must equal the files under
`tests/golden/`.  The commands are the cli-session workload of the
benchmark at seed 1 (`bench/workloads.py::cli_session_specs`) plus a curve
on a support of 10^10.  A change that means to alter a printed line
rewrites the files and so shows as a diff of them:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import importlib.util
import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from secstop import cli

_ROOT = Path(__file__).resolve().parents[1]
_GOLDEN = Path(__file__).resolve().parent / "golden"


def _commands() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("bench_workloads", _ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argvs = [s["argv"] for s in module.cli_session_specs(1)]
    return argvs + [["curve", "--variant", "bw", "--model", "known:n=10000000000", "--rmax", "3"]]


_COMMANDS = _commands()


def _run(argv: list[str]) -> tuple[int, str]:
    out = StringIO()
    cwd = os.getcwd()
    os.chdir(_ROOT)
    try:
        with redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _stdout_file(i: int) -> Path:
    return _GOLDEN / f"{i:02d}.out"


def _exit_codes() -> dict:
    return json.loads((_GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("i", range(len(_COMMANDS)), ids=[" ".join(a) for a in _COMMANDS])
def test_stdout_and_exit_code_equal_the_golden_files(i):
    code, out = _run(_COMMANDS[i])
    want = _exit_codes()[" ".join(_COMMANDS[i])]
    assert code == want
    assert out.encode() == _stdout_file(i).read_bytes()


def test_every_golden_file_has_a_command():
    assert set(_exit_codes()) == {" ".join(a) for a in _COMMANDS}
    assert sorted(p.name for p in _GOLDEN.glob("*.out")) == [_stdout_file(i).name for i in range(len(_COMMANDS))]


if __name__ == "__main__":
    _GOLDEN.mkdir(exist_ok=True)
    for stale in _GOLDEN.glob("*.out"):
        stale.unlink()
    codes = {}
    for i, argv in enumerate(_COMMANDS):
        codes[" ".join(argv)], out = _run(argv)
        _stdout_file(i).write_bytes(out.encode())
    (_GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    sys.exit(0)
