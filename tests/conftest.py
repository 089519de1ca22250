"""Test-session settings shared by every test module.

Property tests run under a derandomized hypothesis profile: the examples are
derived from each test itself, so a failure repeats on every rerun, and no
per-example deadline applies (timings vary on a shared machine).
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

import bargainlab

settings.register_profile("bargainlab", derandomize=True, deadline=None)
settings.load_profile("bargainlab")


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this bargainlab."""
    src = str(Path(bargainlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
