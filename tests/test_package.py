"""Tests of the package as a whole: the names it exports, and lint-style
checks that every module reads each name it imports, that the package reads
each private function or class it defines, and that the package sets each
defaulted parameter of the functions it calls."""

import ast
from pathlib import Path

import pytest

import bargainlab

EXPORTS = [
    "AdversarySchedule", "BatchResult", "Deviation", "EquilibriumCertificate",
    "FeasibilityError", "FeedbackVector", "G1Classification", "GameConfig",
    "GapResult", "HorizonExceededError", "LearnerConfig", "LearnerState",
    "MarketParams", "MixedStrategy", "MultiMarketParams", "Outcome",
    "PAYOFF_TOL", "PayoffTarget", "Play", "RegretResult", "Strategy",
    "TrajectoryRecord", "__version__", "all_strategies", "batch_self_play",
    "best_responses", "classify_g1", "construct_certificate", "continuous_play",
    "detect_convergence", "equilibrium_value", "expected_match_payoffs",
    "external_regret", "feasibility_violations", "feedback_vector", "is_pure_ne",
    "l1_update", "l2_update", "make_adversary", "make_learner",
    "multi_constraint_rhs", "multi_discriminatory", "multi_feasible",
    "one_shot_deviation_scan", "payoff_gaps", "payoff_matrices", "play",
    "prop2_check", "sample_feasible_instance", "self_play",
    "step", "strategy_from_index", "strategy_index",
    "theorem1_feasible", "theorem5_preconditions", "w1_lower_bound", "w2_lower_bound",
    "w_bounds",
]

SOURCES = sorted(Path(bargainlab.__file__).parent.glob("*.py"))
MODULES = [
    path for path in SOURCES
    if path.name != "__init__.py"  # it imports names only to export them
]


class TestExports:
    def test_export_list_is_the_recorded_set(self):
        assert len(EXPORTS) == 58
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


def unread_private_definitions(sources: dict) -> list:
    """Module-level ``_private`` functions and classes of ``sources`` (file
    name -> source) that no module reads, by name or as an attribute."""
    defined = []
    read = set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") and not node.name.endswith("__"):
                defined.append((module, node.lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module} line {line}: {name}"
            for module, line, name in defined if name not in read]


def test_package_reads_every_private_definition():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unread_private_definitions(sources) == []


def test_private_definition_check_flags_planted_definitions():
    sources = {
        "a.py": "def _used():\n    pass\ndef _unread():\n    pass\n"
                "class _Unread:\n    def _method(self):\n        pass\n"
                "def __getattr__(name):\n    pass\n",
        "b.py": "import a\na._used()\n",
    }
    assert unread_private_definitions(sources) == [
        "a.py line 3: _unread", "a.py line 5: _Unread",
    ]


def _calls(tree) -> list:
    """(callee name, positional count or None, keyword names) of every call
    in ``tree``.  A function passed by name as a call's first argument (as
    to ``cli._wrap_value_error``) counts as called with the other arguments.
    The count is None after a ``*`` argument, and a ``**`` argument adds
    the keyword name None; either may bind any parameter."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = {k.arg for k in node.keywords}
        callees = [(node.func, node.args)]
        if node.args and isinstance(node.args[0], ast.Name):
            callees.append((node.args[0], node.args[1:]))
        for func, args in callees:
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in args)
            calls.append((name, None if starred else len(args), keywords))
    return calls


def unbound_defaults(sources: dict) -> list:
    """Defaulted parameters of module-level functions and methods of
    ``sources`` (file name -> source) that no call in ``sources`` binds, by
    position or by keyword.  Callees match by name; functions no call names
    are left out, as are dunder methods."""
    defined = []
    calls = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node, 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or item.name.startswith("__"):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    defined.append((module, item, 0 if static else 1))
        calls += _calls(tree)
    unbound = []
    for module, fn, implicit in defined:
        sig = fn.args
        positional = [a.arg for a in sig.posonlyargs + sig.args][implicit:]
        defaulted = positional[len(positional) - len(sig.defaults):]
        defaulted += [a.arg for a, d in zip(sig.kwonlyargs, sig.kw_defaults) if d is not None]
        mine = [(count, keywords) for name, count, keywords in calls if name == fn.name]
        for param in defaulted if mine else []:
            if not any(
                param in keywords or None in keywords or count is None
                or (param in positional and positional.index(param) < count)
                for count, keywords in mine
            ):
                unbound.append(f"{module} line {fn.lineno}: {fn.name}.{param}")
    return unbound


def test_package_sets_every_default_it_calls_with():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unbound_defaults(sources) == []


def test_unbound_default_check_flags_planted_parameters():
    sources = {
        "a.py": "def f(x, y=1, *, z=2):\n    pass\n"
                "def g(x=0):\n    pass\n"
                "def uncalled(w=3):\n    pass\n"
                "class C:\n"
                "    def m(self, k=4):\n        pass\n"
                "    @staticmethod\n    def s(j=5):\n        pass\n"
                "    def __init__(self, i=6):\n        pass\n"
                "def wrap(fn, *args, **kwargs):\n    return fn(*args, **kwargs)\n",
        "b.py": "from a import C, f, g, wrap\n"
                "f(0, 1)\ng()\nC().m(k=4)\nC.s()\nwrap(f, 0, z=3)\n",
    }
    assert unbound_defaults(sources) == ["a.py line 3: g.x", "a.py line 11: s.j"]
