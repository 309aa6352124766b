"""The package's modules share only their public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mppabsorber"


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
