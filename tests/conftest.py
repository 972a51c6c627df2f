"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import secstop
from secstop import core_model

_LIMITED_CHILD = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "from secstop.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_limited(argv, cwd=None, **env) -> subprocess.CompletedProcess:
    """The CLI in a child process under a 2 GB address-space limit, so that
    a command that allocates a huge support fails fast (exit 3, out of
    memory) instead of swapping.  The child imports the secstop under test,
    runs one BLAS thread and sees env on top of this process's
    environment."""
    src = str(Path(secstop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", **env)
    return subprocess.run([sys.executable, "-c", _LIMITED_CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(autouse=True)
def _fresh_poisson_window():
    """Every test starts and ends without a memoised Poisson window, so a
    test that patches `poisson_pmf_array` or the window cap neither reads a
    window built before its patch nor leaves a patched one behind."""
    core_model._last_window = None
    yield
    core_model._last_window = None
