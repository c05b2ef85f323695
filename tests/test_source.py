"""Source hygiene of the package and its tests.

Deletions leave no dead import and no orphaned private helper, no line runs
past 120 characters, the record-rule messages are built only where the
rules live, the leader kernel's scan is read only inside the kernel, no
module sums with ``fsum`` beside the one exact sum, ``__init__.py`` writes
each export once and maps it to the module that defines it, no module calls
a BLAS routine, and each integer ``_integer`` reads is the one kept.
``bench/`` is not checked: its files change only with the benchmark.
"""
import ast
from pathlib import Path

import pytest

import momentumrank

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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
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


# the record builders, and whether a float() call in one is a record reading (_build's float(sum(...)) is a total)
RECORD_BUILDERS = [
    ("core.py", "build_delta_system", True),
    ("core.py", "system_from_entities", True),
    ("ranking.py", "_row_leaders", True),
    ("io.py", "_snapshot_from_json", True),
    ("core.py", "_build", False),
]


def _is_float64(node: ast.AST) -> bool:
    """True for a dtype written as ``np.float64``, ``float`` or a float64 type string."""
    if isinstance(node, ast.Attribute):
        return node.attr == "float64"
    if isinstance(node, ast.Name):
        return node.id in ("float", "float64")
    return isinstance(node, ast.Constant) and node.value in ("float64", "f8", "<f8", "d", "float")


def _record_readings(function: ast.FunctionDef, float_calls: bool) -> list[int]:
    """Lines of ``function`` that read numbers by ``float()`` (if ``float_calls``) or into a float64 array."""
    lines = []
    for node in (node for node in ast.walk(function) if isinstance(node, ast.Call)):
        if float_calls and isinstance(node.func, ast.Name) and node.func.id == "float":
            lines.append(node.lineno)
        elif isinstance(node.func, ast.Attribute) and node.func.attr in ("asarray", "array"):
            dtypes = node.args[1:2] + [keyword.value for keyword in node.keywords if keyword.arg == "dtype"]
            if any(map(_is_float64, dtypes)):
                lines.append(node.lineno)
    return lines


def test_record_numbers_are_read_only_by_float64():
    # core._float64 is the one reading of a record number: a float() or a float64 array in a record builder is a second
    found = []
    for module, name, float_calls in RECORD_BUILDERS:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        assert functions, f"{module} defines no {name}"
        found += [(module, line) for line in _record_readings(functions[0], float_calls)]
    assert found == []


def _reads(tree: ast.AST, name: str) -> list[int]:
    """Lines of ``tree`` that import ``name``, or read it as a name or an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)
    ]


def test_the_sort_scan_is_read_only_in_frontier():
    # leader_mask is the one leader kernel: a caller of its last step skips the corner cut and the screen
    found = []
    for path in MODULES + TESTS:
        if path.name != "frontier.py":
            found += [(path.name, line) for line in _reads(ast.parse(path.read_text(encoding="utf-8")), "_sort_scan")]
    assert found == []


def _calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls in ``tree`` to ``name``, as a bare name or as an attribute."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == name or getattr(node.func, "attr", None) == name)
    ]


def _calls(tree: ast.AST, name: str) -> list[int]:
    """Lines of ``tree`` that call ``name``, as a bare name or as an attribute."""
    return [call.func.lineno for call in _calls_to(tree, name)]


def test_no_module_calls_fsum():
    # frontier._range_fsums is the one exact sum, for w and momentousness alike: an fsum call is a second
    found = []
    for path in MODULES:
        found += [(path.name, line) for line in _calls(ast.parse(path.read_text(encoding="utf-8")), "fsum")]
    assert found == []


def test_all_lists_exactly_what_the_package_imports():
    # _EXPORTS names each export once, with its module: a name repeated or defined elsewhere is an export gone astray
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (written,) = [
        [key.value for key in node.value.keys]
        for node in tree.body
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["_EXPORTS"]
    ]
    assert [name for i, name in enumerate(written) if name in written[:i]] == []
    assert momentumrank.__all__ == list(momentumrank._EXPORTS) == written
    misplaced = [
        (name, module)
        for name, module in momentumrank._EXPORTS.items()
        if getattr(momentumrank, name).__module__ != f"momentumrank.{module}"
    ]
    assert misplaced == []


BLAS_NAMES = ("dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg")


def test_no_module_calls_blas():
    # __main__ gives OpenBLAS one thread, which costs nothing only while no module multiplies matrices
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        matmuls = [node for node in ast.walk(tree) if isinstance(getattr(node, "op", None), ast.MatMult)]  # @ and @=
        found += [(path.name, node.lineno) for node in matmuls]
        found += [(path.name, line) for name in BLAS_NAMES for line in _reads(tree, name)]
    assert found == []


def _keeps(parent: ast.AST, node: ast.AST) -> bool:
    """Whether ``parent`` binds ``node``: as the value of an assignment or ``:=``, or as what ``__setattr__`` sets."""
    if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
        return parent.value is node
    setattr_call = isinstance(parent, ast.Call) and getattr(parent.func, "attr", None) == "__setattr__"
    return setattr_call and parent.args[-1:] == [node]


def test_every_integer_read_is_kept():
    # core._integer returns the int it checked: a call whose value is dropped leaves its caller using the object given
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        found += [(path.name, call.lineno) for call in _calls_to(tree, "_integer") if not _keeps(parents[call], call)]
    assert found == []
