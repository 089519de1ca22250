"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/tracer.py`` wraps layer functions from outside the program by
name.  A rename would only show up in a traced benchmark pass, so this test
loads the tracer module (without installing any wrapper) and checks that
every name it looks up still resolves, and, in a separate interpreter,
that the command functions it wraps are the ones ``main`` dispatches to.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def modules(tracer):
    return {
        short: importlib.import_module(f"bargainlab.{short}")
        for short in (*tracer.LAYER_MODULES, "cli")
    }


def test_targets_resolve_every_cli_function_and_probe(tracer, modules):
    targets = tracer._targets(modules)
    for name in tracer.CLI_FUNCTIONS:
        assert callable(targets[f"cli.{name}"])
    for name in tracer.PROBES:
        assert callable(targets[name])


def test_observed_functions_keep_their_shape(tracer, modules):
    game, dynamics = modules["game"], modules["dynamics"]
    assert callable(game.payoff_matrices.cache_info)
    assert callable(game._outcome_tables)
    # the candidate count is read from the third positional argument
    third = list(inspect.signature(dynamics._candidate_utilities).parameters)[2]
    assert third == "candidates"
    for name in tracer._observers(game):
        short, attr = name.split(".")
        assert callable(getattr(modules[short], attr))


def test_commands_wrapped_after_first_call_are_dispatched(tmp_path, child_env):
    """``tracer.install`` replaces module attributes after import.  A call of
    ``main`` made before it must not pin the unwrapped command functions."""
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import tracer
        from bargainlab import cli

        argv = ["verify-spe", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
                "--w1", "0.3", "--w2", "0.85", "--out", "v.json"]
        assert cli.main(argv) == 0
        recorder = tracer.Recorder(".", "contract")
        tracer.install(recorder)
        assert cli.main(argv) == 0
        print(json.dumps(sorted({span[1] for span in recorder.spans})))
    """)
    done = subprocess.run(
        [sys.executable, "-c", script, str(TRACER.parent)], cwd=tmp_path,
        capture_output=True, text=True, env=child_env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout)
    assert "cli.main" in names
    assert "cli.cmd_verify_spe" in names
    assert "spe.one_shot_deviation_scan" in names
