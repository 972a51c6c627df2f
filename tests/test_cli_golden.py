"""Golden stdout, stderr and exit codes of the command-line surface.

Each command runs in process through `cli.main`, from the repository root
with an 80-column terminal, and its stdout bytes, stderr bytes and exit code
must equal the files under `tests/golden/`.  The commands are the
cli-session workload of the benchmark at seed 1
(`bench/workloads.py::cli_session_specs`), curves on a support of 10^10, and
the error paths of bad input, each of which must exit with its code and one
message, never a traceback.  A command on a model of n >= 10^9 or a
Poisson rate >= 10^8 runs in a child process under a 2 GB address-space
limit, so that a path that built an array as long as n or the rate fails
fast instead of exhausting the machine's memory.  A change that means to
alter a printed line rewrites the files and so shows as a diff of them:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import importlib.util
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

from conftest import run_limited
from secstop import cli

_ROOT = Path(__file__).resolve().parents[1]
_GOLDEN = Path(__file__).resolve().parent / "golden"

_MORE_COMMANDS = [
    "curve --variant bw --model known:n=10000000000 --rmax 3",
    # a removed flag: a usage error
    "cutoff --variant bw --model poisson:lambda=5 --rel-tol 1e-12",
    # a NaN mass and a repeated k
    "cutoff --variant bw --model table:tests/data/nan_mass.csv",
    "dp --variant classic --model table:tests/data/repeated_k.csv",
    # 10^18 rates, 5*10^10 trial-steps and a negative rate: refused up front
    "curve --variant bw --sweep lambda --from 1 --to 1e18 --step 1",
    "simulate --variant bw --model uniform:n=100000 --cutoff 10 --trials 1000000",
    "cutoff --variant bw --model poisson:lambda=-1",
    # three steps below the one support point, without a table of 10^10
    "curve --variant classic --model known:n=10000000000 --rmax 3",
    # the induction on the truncation of Poisson(3000), within 1e-12 of mass 1
    "dp --variant bw --model poisson:lambda=3000",
    # four cutoffs of Uniform(10^9) from closed forms, without its support
    "curve --variant pd --model uniform:n=1000000000 --rmax 3",
    # past the top of the Poisson support, k_max = 69: F(69..72) read 0
    "curve --variant bw --model poisson:lambda=2 --rmax 72",
    # the induction over 10^6 steps, and on islands of mass at 5, 30, 180
    # and 1080, whose accept set is eight runs of accept and reject steps
    "dp --variant bw --model uniform:n=1000000",
    "dp --variant classic --model table:tests/data/islands.csv",
    # the argmax 4999999, which both estimators give, past the knife edge
    # where a tie band of the whole curve took 4999994
    "cutoff --variant bw --model poisson:lambda=1e7",
    # classic over the mass window of Poisson(10^9), without a curve from r = 1
    "cutoff --variant classic --model poisson:lambda=1e9",
    # a mass window of 2.4*10^7 points, past the cap of 2*10^7: refused
    # before any table
    "cutoff --variant bw --model poisson:lambda=1e12",
    # README's example: the Poisson branch of the default r_max
    "curve --variant pd --model poisson:lambda=10 --format csv",
    # a negative cutoff and a negative r_max: usage errors from the library
    "simulate --variant bw --model uniform:n=50 --cutoff -1 --trials 10",
    "curve --variant bw --model known:n=5 --rmax -1",
    # the induction from the monotone case, without the support of 10^9
    # points; classic reads it, past the cap of 2*10^8: refused before any
    # array
    "dp --variant bw --model uniform:n=1000000000",
    "cutoff --variant classic --model uniform:n=1000000000",
    # a curve of 10^9 cutoffs past the Poisson window, past the same cap
    "curve --variant bw --model poisson:lambda=1e9",
]

def _commands() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("bench_workloads", _ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argvs = [s["argv"] for s in module.cli_session_specs(1)]
    return argvs + [c.split() for c in _MORE_COMMANDS]


_COMMANDS = _commands()


def _huge(argv: list[str]) -> bool:
    """A model of n >= 10^9, ten digits or more, or a Poisson rate >= 10^8."""
    for a in argv:
        rate = re.search(r":lambda=(\S+)$", a)
        if re.search(r":n=\d{10,}$", a) or (rate and float(rate.group(1)) >= 1e8):
            return True
    return False


def _run(argv: list[str]) -> tuple[int, str, str]:
    if _huge(argv):
        done = run_limited(argv, cwd=_ROOT, COLUMNS="80")
        return done.returncode, done.stdout, done.stderr
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(_ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _stdout_file(i: int) -> Path:
    return _GOLDEN / f"{i:02d}.out"


def _exit_codes() -> dict:
    return json.loads((_GOLDEN / "exit_codes.json").read_text())


def _stderr() -> dict:
    return json.loads((_GOLDEN / "stderr.json").read_text())


@pytest.mark.parametrize("i", range(len(_COMMANDS)), ids=[" ".join(a) for a in _COMMANDS])
def test_stdout_and_exit_code_equal_the_golden_files(i):
    # and stderr: the name is kept from before stderr was pinned
    code, out, err = _run(_COMMANDS[i])
    key = " ".join(_COMMANDS[i])
    assert code == _exit_codes()[key]
    assert out.encode() == _stdout_file(i).read_bytes()
    assert err.encode() == _stderr()[key].encode()


def test_every_golden_file_has_a_command():
    keys = {" ".join(a) for a in _COMMANDS}
    assert set(_exit_codes()) == keys and set(_stderr()) == keys
    assert sorted(p.name for p in _GOLDEN.glob("*.out")) == [_stdout_file(i).name for i in range(len(_COMMANDS))]


if __name__ == "__main__":
    _GOLDEN.mkdir(exist_ok=True)
    for stale in _GOLDEN.glob("*.out"):
        stale.unlink()
    codes, errs = {}, {}
    for i, argv in enumerate(_COMMANDS):
        key = " ".join(argv)
        codes[key], out, errs[key] = _run(argv)
        _stdout_file(i).write_bytes(out.encode())
    (_GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    (_GOLDEN / "stderr.json").write_text(json.dumps(errs, indent=1) + "\n")
    sys.exit(0)
