"""The package's modules share only their public names, and the package
and its tests import only what their dependencies install."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mppabsorber"
TESTS = Path(__file__).resolve().parent
# numpy is the one runtime dependency; the `test` extra adds pytest and
# hypothesis, and a test may import the other modules of this directory
RUNTIME = {*sys.stdlib_module_names, "numpy", "mppabsorber"}
TESTING = RUNTIME | {"pytest", "hypothesis"} | {path.stem for path in TESTS.glob("*.py")}


def private_imports(source: str) -> list[str]:
    """`module.name` for each underscore name that `source` imports from
    another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.partition(".")[0] == "mppabsorber":
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                found += [f"{module or '.'}.{name}" for name in names]
    return found


def test_no_module_imports_another_modules_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {
        path.name: names
        for path in modules
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_check_sees_a_private_import():
    assert private_imports("from .annealing import _LOWER, anneal\n") == ["annealing._LOWER"]
    assert private_imports("from mppabsorber.cli import _csv\n") == ["mppabsorber.cli._csv"]
    assert private_imports("from ._x import y\nfrom numpy import _z\n") == []


def foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """Each module that `source` imports by absolute name whose top-level
    package is not in `allowed`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return [name for name in found if name.partition(".")[0] not in allowed]


def foreign_imports_of(paths, allowed: set[str]) -> dict[str, list[str]]:
    return {
        path.name: names
        for path in sorted(paths)
        if (names := foreign_imports(path.read_text(encoding="utf-8"), allowed))
    }


def test_the_package_imports_only_the_standard_library_and_numpy():
    assert foreign_imports_of(PACKAGE.glob("*.py"), RUNTIME) == {}


def test_the_tests_import_only_what_the_test_extra_installs():
    # scipy may be installed where the tests run, but the test extra lacks it
    assert foreign_imports_of(TESTS.glob("*.py"), TESTING) == {}


def test_the_check_sees_a_foreign_import():
    assert foreign_imports("import scipy\n", RUNTIME) == ["scipy"]
    assert foreign_imports("from scipy.special import jv\n", RUNTIME) == ["scipy.special"]
    assert foreign_imports("import numpy as np, os.path\nfrom . import acoustics\n", RUNTIME) == []
    assert foreign_imports("import hypothesis\n", RUNTIME) == ["hypothesis"]
