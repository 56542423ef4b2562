"""Every name a module imports is used in it.

Package ``__init__.py`` files are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

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
