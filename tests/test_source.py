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
