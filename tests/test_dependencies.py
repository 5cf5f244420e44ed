"""The library imports only the standard library, itself and the runtime
dependencies that pyproject.toml declares, and it uses every one of
them.  Test-only packages such as scipy stay out of the library."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticeball"


def imported_packages() -> dict[str, set[str]]:
    """Top-level package of every absolute import in the library, with
    the files that import it; imports inside functions count too."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    return found


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in project.get("dependencies", [])}


def test_imports_are_stdlib_self_or_declared():
    allowed = set(sys.stdlib_module_names) | {"latticeball"}
    allowed |= declared_dependencies()
    stray = {name: sorted(files) for name, files in imported_packages().items()
             if name not in allowed}
    assert not stray, f"imports of undeclared packages: {stray}"


def test_every_declared_dependency_is_imported():
    assert declared_dependencies() <= set(imported_packages())


def test_scipy_is_not_a_runtime_dependency():
    assert "scipy" not in declared_dependencies()
    assert "scipy" not in imported_packages()
