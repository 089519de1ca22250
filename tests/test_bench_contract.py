"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/tracer.py`` wraps layer functions from outside the program by
name.  A rename would only show up in a traced benchmark pass, so this test
loads the tracer module (without installing any wrapper) and checks that
every name it looks up still resolves.
"""

import importlib
import importlib.util
import inspect
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
