"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages that the modules of hermite_ou import, at module level
or inside functions."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hermite_ou"


def imported_roots(path: Path) -> set:
    """Top-level names of every absolute import in the module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_runtime_dependencies_match_the_package_imports():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in declared}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    third_party = set().union(*map(imported_roots, modules))
    third_party -= set(sys.stdlib_module_names)
    assert third_party == names
