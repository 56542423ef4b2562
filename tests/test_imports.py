"""Every name a module imports is used in it, every import in ``src/`` sits
at module level (but for one lazy seam), every runtime dependency is imported
by the package, and the request path imports no reference engine and no
numpy.

Package ``__init__.py`` files are skipped by the unused-name scan: their
imports are re-exports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import satchaos
from satchaos.config import VERIFY_SUITES

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


# Calls that import a module as an import statement would.
IMPORT_CALLS = {"__import__", "import_module", "importlib.import_module"}


def imports_in_functions(source: str) -> list[tuple[int, str]]:
    """(line, innermost function) of every import inside a function body: an
    import statement, or a call of ``__import__`` or ``importlib.import_module``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if function and (
                isinstance(child, (ast.Import, ast.ImportFrom))
                or isinstance(child, ast.Call) and _dotted(child.func) in IMPORT_CALLS
            ):
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
        "def h(name):\n    return importlib.import_module(name)\n"
        "def k():\n    return __import__('json')\n"
        "importlib.import_module('re')\n"
    )
    assert imports_in_functions(source) == [(3, "f"), (5, "g"), (8, "m"), (10, "h"), (12, "k")]


# The one function in src/ that imports: the package's PEP 562 __getattr__,
# which loads the numpy reference modules on first use.
IMPORT_SEAMS = {("src/satchaos/__init__.py", "__getattr__")}


def test_no_imports_inside_functions_in_src():
    found = [
        (path.relative_to(ROOT).as_posix(), line, name)
        for path in (ROOT / "src").rglob("*.py")
        for line, name in imports_in_functions(path.read_text())
    ]
    assert {(path, name) for path, _, name in found} >= IMPORT_SEAMS
    assert [
        f"{path}:{line}: in {name}()"
        for path, line, name in found if (path, name) not in IMPORT_SEAMS
    ] == []


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


# What the request path may not import. These modules, with every name in
# them: numpy, and the two modules that use it, the dense statevector and the
# self-checks.
REFERENCE_MODULES = ("numpy", "satchaos.quantum", "satchaos.verify")
# These names: the rule-by-rule machine with its superpositions.
REFERENCE_ENGINES = (
    "satchaos.gqtm.machine",  # the module itself would reach its step
    "satchaos.gqtm.machine.step",
    "satchaos.gqtm.machine.run_phase",
    "satchaos.gqtm.machine.rebase",
    "satchaos.gqtm.machine.ConfigSuperposition",
    "satchaos.gqtm.machine.Configuration",
    "satchaos.gqtm.machine.make_configuration",
)
# What solve, trace, sweep and run_sat_gqtm run. ``verify.py`` is not among
# them: its interference check steps the reference on purpose.
REQUEST_PATH = (
    "__init__.py",
    "amplifier.py",
    "circuit.py",
    "cli.py",
    "gates.py",
    "pipeline.py",
    "sat.py",
    "gqtm/program.py",
    "gqtm/planes.py",
)


def imported_names(source: str, package: str) -> list[tuple[int, str]]:
    """(line, absolute dotted name) of every module or name imported by a
    module of ``package``, relative imports resolved."""
    parts = package.split(".")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
    return found


def reference_imports(source: str, package: str) -> list[tuple[int, str]]:
    return [
        (line, name) for line, name in imported_names(source, package)
        if name in REFERENCE_ENGINES
        or any(name == module or name.startswith(module + ".") for module in REFERENCE_MODULES)
    ]


def test_reference_imports_are_found():
    source = (
        "from .machine import BLANK, run_phase\n"
        "from .. import quantum\n"
        "from ..quantum import StateVector\n"
        "import satchaos.gqtm.machine\n"
        "from .planes import Planes\n"
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "from .. import verify\n"
        "from ..verify import SUITES\n"
        "import numbers, satchaos\n"
    )
    assert reference_imports(source, "satchaos.gqtm") == [
        (1, "satchaos.gqtm.machine.run_phase"),
        (2, "satchaos.quantum"),
        (3, "satchaos.quantum.StateVector"),
        (4, "satchaos.gqtm.machine"),
        (6, "numpy"),
        (7, "numpy.linalg.norm"),
        (8, "satchaos.verify"),
        (9, "satchaos.verify.SUITES"),
    ]


def test_request_path_imports_no_reference_engine():
    found = [
        f"{module}:{line}: {name}"
        for module in REQUEST_PATH
        for line, name in reference_imports(
            (ROOT / "src/satchaos" / module).read_text(),
            ".".join(("satchaos", *Path(module).parent.parts)),
        )
    ]
    assert found == []


# A child interpreter that imports the package, runs solve on both backends,
# trace, sweep and run_sat_gqtm, and exits nonzero at the first step that
# imported numpy.
_NUMPY_FREE = """
import sys

def numpy_free(step):
    if "numpy" in sys.modules:
        sys.exit(f"{step} imported numpy")

import satchaos
numpy_free("import satchaos")
from satchaos.cli import main
numpy_free("import satchaos.cli")
path = sys.argv[1]
for argv in (["solve", path], ["solve", path, "--backend", "gqtm"], ["trace", path],
             ["sweep", "--n", "2..6", "--r", "1,3"]):
    assert main(argv) == 0, argv
    numpy_free(" ".join(argv))
with open(path) as file:
    assert satchaos.run_sat_gqtm(satchaos.parse_dimacs(file.read())).q_squared == 0.5
numpy_free("run_sat_gqtm")
"""


def _python(tmp_path, *args):
    src = str(Path(satchaos.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )


def test_request_path_runs_without_numpy(tmp_path):
    path = tmp_path / "worked.cnf"
    path.write_text("p cnf 3 3\n1 2 -3 0\n3 -2 0\n1 -2 -3 0\n")
    done = _python(tmp_path, "-c", _NUMPY_FREE, str(path))
    assert done.returncode == 0, done.stderr


def test_verify_loads_its_suites_on_first_use(tmp_path):
    code = "import sys; from satchaos.cli import main; sys.exit(main(['verify', 'gates']))"
    done = _python(tmp_path, "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("gates: OK")


def test_every_export_is_its_defining_modules_object():
    exported = {name: getattr(satchaos, name) for name in satchaos.__all__}
    for name, value in exported.items():
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    star = {}
    exec("from satchaos import *", star)
    assert {name: star[name] for name in satchaos.__all__} == exported
    assert not hasattr(satchaos, "no_such_name")


def test_suite_names_are_the_verify_suites():
    assert list(VERIFY_SUITES) == sorted(satchaos.verify.SUITES)
