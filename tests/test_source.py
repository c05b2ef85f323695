"""Source hygiene of the package and its tests.

Deletions leave no dead import and no orphaned private helper, no line runs
past 120 characters, and the record-rule messages are built only where the
rules live. ``bench/`` is not checked: its files change only with the
benchmark.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "momentumrank"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))  # conftest.py and util.py too
MAX_LINE = 120


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", [p for p in MODULES + TESTS if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py imports to re-export, so it is not checked
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Names the module body binds that start with one underscore, as defs, classes or assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_helper_is_used_in_the_package():
    # a helper that only tests still reach is dead code the package carries
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    defined = [(path.name, name) for path, tree in zip(MODULES, trees) for name in _private_definitions(tree)]
    assert [(module, name) for module, name in defined if name not in read] == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [(number, len(line)) for number, line in enumerate(lines, start=1) if len(line) > MAX_LINE] == []


RULE_MESSAGES = ("negative ", "non-finite ")


def _rule_messages(tree: ast.AST) -> list[ast.Constant]:
    """Each string, or text piece of an f-string, in ``tree`` that starts like a record-rule message."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith(RULE_MESSAGES)
    ]


def test_record_rule_messages_are_built_only_in_check_columns():
    # core._check_columns is the one place the record rules live: a message of theirs built elsewhere is a second copy
    core = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    home = next(node for node in core.body if isinstance(node, ast.FunctionDef) and node.name == "_check_columns")
    allowed = set(map(id, _rule_messages(home)))
    outside = []
    for path in MODULES:
        tree = core if path.name == "core.py" else ast.parse(path.read_text(encoding="utf-8"))
        outside += [(path.name, node.lineno) for node in _rule_messages(tree) if id(node) not in allowed]
    assert outside == []
