"""Full-size golden outputs, checked in the test suite.

The benchmark (``perfbench/``) pins the sha256 of every output of its
workloads at seed 0 in ``perfbench/expected.json``.  This module builds the
steps of three of those workloads from ``perfbench/workloads.py`` and runs
them in this process through ``bargainlab.cli.main``, one after another as a
benchmark pass does, so that the full-size bytes are checked by the tests
and not only by a benchmark run.  The digests are read from that one file.

- spe-market: every step, the 200x200 region scan, the gaps row and 1,000
  ``verify-spe`` certificates (1,002 ``main`` calls in one process);
- sweep-ref: the reference 64x64 sweep with ``--jobs 2``;
- regret-curves: the first step, the script's own adversary, and in a
  second test all eight steps.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bargainlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def expected():
    with open(PERFBENCH / "expected.json") as fh:
        return json.load(fh)["digests"]


@pytest.mark.parametrize("name, first_steps", [
    ("spe-market", None),
    ("sweep-ref", None),
    ("regret-curves", 1),
])
def test_workload_outputs_match_benchmark_digests(
    tmp_path, monkeypatch, workloads, expected, name, first_steps
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BARGAINLAB_JOBS", raising=False)
    workload = workloads.build(name, workloads.DEFAULT_SEED)
    for input_name, text in workload.inputs.items():
        (tmp_path / input_name).write_text(text)
    checked = set()
    for step in workload.steps[:first_steps]:
        code = main(step.argv)
        files = {out: (tmp_path / out).read_bytes() for out in step.outputs}
        assert step.check(code, files) == [], step.argv
        for out, data in files.items():
            assert hashlib.sha256(data).hexdigest() == expected[name][out], out
        checked.update(files)
    if first_steps is None:
        assert checked == set(expected[name])


def test_every_regret_curves_output_matches_benchmark_digests(
    tmp_path, monkeypatch, workloads, expected
):
    """All eight regret-curves steps: the script's adversary and seven
    seed-drawn cycles, at horizons 100, 400 and 1600."""
    test_workload_outputs_match_benchmark_digests(
        tmp_path, monkeypatch, workloads, expected, "regret-curves", None
    )
