"""Tests of the package as a whole: the names it exports, and a lint-style
check that every module reads each name it imports."""

import ast
from pathlib import Path

import pytest

import bargainlab

EXPORTS = [
    "AdversarySchedule", "BatchResult", "Deviation", "EquilibriumCertificate",
    "FeasibilityError", "FeedbackVector", "G1Classification", "GameConfig",
    "GapResult", "HorizonExceededError", "LearnerConfig", "LearnerState",
    "MarketParams", "MatchOutcome", "MixedStrategy", "MultiMarketParams", "Outcome",
    "PAYOFF_TOL", "PayoffTarget", "Play", "RegretResult", "Strategy",
    "TrajectoryRecord", "__version__", "all_strategies", "batch_self_play",
    "best_responses", "classify_g1", "construct_certificate", "continuous_play",
    "detect_convergence", "equilibrium_value", "expected_match_payoffs",
    "external_regret", "feasibility_violations", "feedback_vector", "is_pure_ne",
    "l1_objective", "l1_update", "l2_update", "make_adversary", "make_learner",
    "multi_constraint_rhs", "multi_discriminatory", "multi_feasible",
    "one_shot_deviation_scan", "payoff_gaps", "payoff_matrices", "play",
    "project_to_simplex", "prop2_check", "sample_feasible_instance", "self_play",
    "simulate_automata", "step", "strategy_from_index", "strategy_index",
    "theorem1_feasible", "theorem5_preconditions", "w1_lower_bound", "w2_lower_bound",
    "w_bounds",
]

MODULES = sorted(
    path for path in Path(bargainlab.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # it imports names only to export them
)


class TestExports:
    def test_export_list_is_the_recorded_set(self):
        assert len(EXPORTS) == 62
        assert sorted(bargainlab.__all__) == EXPORTS

    def test_every_exported_name_resolves(self):
        assert [n for n in bargainlab.__all__ if not hasattr(bargainlab, n)] == []

    def test_star_import_binds_exactly_the_exports(self):
        namespace = {}
        exec("from bargainlab import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == EXPORTS


def unused_imports(source: str) -> list:
    """Names an ``import`` binds that the module never reads; a name listed
    in the module's ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unread = [(line, name) for name, line in bound.items() if name not in read]
    return [f"line {line}: {name}" for line, name in sorted(unread)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_a_planted_import():
    source = "from __future__ import annotations\nimport os, sys\nimport json as j\n" \
             "__all__ = ['j']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 2: os"]
