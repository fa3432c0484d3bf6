"""Source rules for the package: internal checks are not ``assert``s,
which ``python -O`` strips, and the package imports only the standard
library and itself."""

import ast
import sys
from pathlib import Path

import toricmld

PACKAGE = Path(toricmld.__file__).parent


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"{path.name}:{node.lineno}: assert")
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "toricmld" and top not in sys.stdlib_module_names:
                out.append(f"{path.name}:{node.lineno}: imports {name}")
    return out


def test_package_has_no_asserts_and_only_stdlib_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [v for path in modules for v in _violations(path)]
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(path: Path) -> list[str]:
    """Reads of another package module's private name: ``mod._x`` on a
    module bound by ``from . import mod``, or ``from .mod import _x``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, out = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "toricmld":
            continue
        for alias in node.names:
            if _private(alias.name):
                out.append(f"{path.name}:{node.lineno}: imports {alias.name}")
            elif node.module in (None, "toricmld"):
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            out.append(f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}")
    return out


def test_no_module_reads_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    found = [v for path in modules for v in _private_reads(path)]
    assert found == []


def test_private_reads_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import invariants, linalg as la\n"
        "from .cones import _double_description, make_cone\n"
        "from toricmld.lab import _fold\n"
        "x = invariants._rebased(g)\n"
        "y = la._eliminate(rows) + la.rank(rows)\n"
        "z = invariants.__name__ + self._cache + g.rebased\n"
    )
    assert _private_reads(path) == [
        "sample.py:2: imports _double_description",
        "sample.py:3: imports _fold",
        "sample.py:4: reads invariants._rebased",
        "sample.py:5: reads la._eliminate",
    ]
