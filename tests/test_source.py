"""Source hygiene of the package and its tests.

Deletions leave no dead import, no line runs past 120 characters, and the
record-rule messages are built only where the rules live. ``bench/`` is not
checked: its files change only with the benchmark.
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
