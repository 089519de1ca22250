"""Test-session settings shared by every test module.

Property tests run under a derandomized hypothesis profile: the examples are
derived from each test itself, so a failure repeats on every rerun, and no
per-example deadline applies (timings vary on a shared machine).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import bargainlab

settings.register_profile("bargainlab", derandomize=True, deadline=None)
settings.load_profile("bargainlab")

#: Address-space cap of a :func:`capped_cli` child, in bytes.
CLI_MEMORY_CAP = 2 << 30

# The child caps its own address space before it imports anything large;
# forked sweep workers inherit the cap.
_CAPPED_MAIN = """\
import resource, sys
cap, hard = int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from bargainlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this bargainlab."""
    src = str(Path(bargainlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def capped_cli(child_env):
    """Run ``bargainlab.cli`` with an argv list in a child interpreter whose
    address space is capped at ``CLI_MEMORY_CAP`` bytes.

    A configuration that would allocate more fails fast in the child (a
    numpy ``MemoryError``, exit 1) instead of exhausting the machine.
    Returns the ``subprocess.CompletedProcess``, with text output captured.
    """
    def run(argv, cwd):
        return subprocess.run(
            [sys.executable, "-c", _CAPPED_MAIN, str(CLI_MEMORY_CAP), *argv],
            cwd=cwd, env=child_env, capture_output=True, text=True, timeout=120,
        )

    return run
