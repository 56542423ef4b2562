"""Every name a module imports is used in it, every import in ``src/`` sits
at module level, and every runtime dependency is imported by the package.

Package ``__init__.py`` files are skipped by the unused-name scan: their
imports are re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for tree in ("src", "tests")
    for path in (ROOT / tree).rglob("*.py")
    if path.name != "__init__.py"
)


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name; None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never refers to.

    ``import a.b`` counts as used only where ``a.b`` itself is read, so one
    used submodule does not excuse an unused sibling.
    """
    tree = ast.parse(source)
    imported = [
        (node.lineno, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    # Every Name and Attribute node yields one prefix of a dotted chain.
    used = {_dotted(node) for node in ast.walk(tree)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nimport a.c\nfrom x import y as z, w\nw(); a.c.f()\n"
    assert unused_imports(source) == [(1, "os"), (2, "a.b"), (4, "z")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def imports_in_functions(source: str) -> list[tuple[int, str]]:
    """(line, innermost function) of every import inside a function body."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and function:
                found.append((child.lineno, function))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_imports_in_functions_are_found():
    source = (
        "import os\n"
        "def f():\n    import json\n    def g():\n        from x import y\n"
        "class C:\n    def m(self):\n        import re\n"
    )
    assert imports_in_functions(source) == [(3, "f"), (5, "g"), (8, "m")]


def test_no_imports_inside_functions_in_src():
    found = [
        f"{path.relative_to(ROOT)}:{line}: in {name}()"
        for path in (ROOT / "src").rglob("*.py")
        for line, name in imports_in_functions(path.read_text())
    ]
    assert found == []


def test_every_dependency_is_imported():
    """Each runtime dependency is imported at the top of some module in src/.

    A package imported only inside a function is not needed to run the
    program, so it is not a runtime dependency.
    """
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    declared = [
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in project["dependencies"]
    ]
    assert [name for name in declared if name not in imported] == []
