"""Source rules for the package: internal checks are not ``assert``s,
which ``python -O`` strips, the package imports only the standard
library and itself, its arithmetic is exact: no float literal and no
use of the name ``float``, ``oracle.py`` included, its one process-wide
cache is the command-line parser, it defines no module-level
function or class that nothing else in it uses or exports, and every
error class but the base ``ToricError`` is raised somewhere."""

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


def _floats(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"{path.name}:{node.lineno}: float")
    return out


def test_package_has_no_floats():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "oracle.py" in {path.name for path in modules}
    found = [v for path in modules for v in _floats(path)]
    assert found == []


def test_float_rule_catches_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Docstrings may say float."""\n'
        "half = 0.5\n"
        "coin = rng.random() < 0.5\n"
        "x = float(y) + 1e3 + 2j\n"
        "ok = Fraction(1, 2) + 10 ** 3 + self.float\n"
        "def f(v: float): return v\n"
    )
    assert sorted(_floats(path)) == [
        "sample.py:2: float literal 0.5",
        "sample.py:3: float literal 0.5",
        "sample.py:4: float",
        "sample.py:4: float literal 1000.0",
        "sample.py:4: float literal 2j",
        "sample.py:6: float",
    ]


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


CACHES = ("cache", "lru_cache")


def _caches(path: Path) -> list[str]:
    """Uses of ``functools.cache`` or ``functools.lru_cache``, except as a
    decorator of ``_build_parser`` in ``cli.py``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("cli.py", "_build_parser")
        for decorator in node.decorator_list
        for sub in ast.walk(decorator)
    }
    out = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [f"{path.name}:{node.lineno}: imports {a.name}" for a in node.names if a.name in CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            out.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
    return sorted(out)


def test_package_caches_only_the_parser():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    found = [v for path in modules for v in _caches(path)]
    assert found == []


def test_cache_rule_catches_a_violation(tmp_path):
    source = (
        "import functools\n"
        "from functools import cached_property, lru_cache\n"
        "@functools.cache\n"
        "def _build_parser(): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def table(n): pass\n"
        "memo = functools.cache(f)\n"
        "class Germ:\n"
        "    @cached_property\n"
        "    def rebased(self): pass\n"
    )
    cli = tmp_path / "cli.py"
    cli.write_text(source)
    assert _caches(cli) == [
        "cli.py:2: imports lru_cache",
        "cli.py:5: functools.lru_cache",
        "cli.py:7: functools.cache",
    ]
    other = tmp_path / "lab.py"
    other.write_text(source)
    assert _caches(other) == [
        "lab.py:2: imports lru_cache",
        "lab.py:3: functools.cache",
        "lab.py:5: functools.lru_cache",
        "lab.py:7: functools.cache",
    ]


def _unreferenced(paths) -> list[str]:
    """Module-level functions and classes that no other top-level
    statement of the modules names, as a variable or an attribute, and
    that ``__all__`` does not list.  Names are matched by name alone, so
    an attribute of the same name elsewhere counts as a use; an import
    does not, and neither does a use inside the definition itself."""
    defs, used = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            is_all = isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
            if is_all:
                names |= {elt.value for elt in stmt.value.elts}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.name}:{stmt.lineno}: {stmt.name}", stmt.name, len(used)))
            used.append(names)
    return [
        label for label, name, own in defs
        if not any(name in names for i, names in enumerate(used) if i != own)
    ]


def test_every_definition_is_used_or_exported():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "__init__.py" in {path.name for path in modules}
    assert _unreferenced(modules) == []


def test_unreferenced_rule_catches_a_violation(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .lin import Basis, helper, orphan\n"
        "__all__ = ['Basis']\n"
    )
    (tmp_path / "lin.py").write_text(
        "class Basis:\n"
        "    pass\n"
        "def helper(v):\n"
        "    return v\n"
        "def orphan(v):\n"
        "    return orphan(v - 1) if v else 0\n"
        "def _private():\n"
        "    pass\n"
    )
    (tmp_path / "use.py").write_text(
        "from . import lin\n"
        "def run(x):\n"
        "    return lin.helper(x) + x.run\n"
    )
    # helper is used through an attribute; orphan and run only by
    # themselves, and orphan's import does not count
    assert _unreferenced(sorted(tmp_path.glob("*.py"))) == [
        "lin.py:5: orphan",
        "lin.py:7: _private",
        "use.py:2: run",
    ]


def _unraised_errors(paths) -> list[str]:
    """Classes defined in ``errors.py``, other than ``ToricError``, that
    no ``raise`` statement of the modules names."""
    defined, raised = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "errors.py":
            defined += [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return [name for name in defined if name != "ToricError" and name not in raised]


def test_every_error_class_is_raised():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "errors.py" in {path.name for path in modules}
    assert _unraised_errors(modules) == []


def test_unraised_error_rule_catches_a_violation(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class ToricError(Exception):\n"
        "    pass\n"
        "class Used(ToricError):\n"
        "    pass\n"
        "class Bare(ToricError):\n"
        "    pass\n"
        "class Orphan(ToricError):\n"
        "    pass\n"
    )
    (tmp_path / "use.py").write_text(
        "from . import errors\n"
        "from .errors import Bare, Orphan\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise errors.Used(x)\n"
        "    if isinstance(x, Orphan):\n"
        "        raise Bare\n"
    )
    # a name in an import or an isinstance check is not a raise
    assert _unraised_errors(sorted(tmp_path.glob("*.py"))) == ["Orphan"]
