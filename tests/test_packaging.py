"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages that the modules of hermite_ou import, at module level
or inside functions; and every public name is used by the package itself
or is the oracle of a named test."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hermite_ou"
TESTS = ROOT / "tests"

# public names that no package code refers to: each is the reference a test
# checks a paper claim against, listed with that test
ORACLES = {
    "l1_objective": "test_estimator::test_coarse_pick_matches_the_objective_table_bit_for_bit",
    "tangent_l1_objective": "test_estimator::test_linearized_objective_converges_first_order",
    "wiener_integral": "test_integrals::test_discounted_integral_is_running_wiener_integral",
    "deterministic_solution": "test_acceptance::test_criterion_4_gronwall_bound",
}


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


def referenced_names(tree: ast.Module) -> set:
    """Names the module's code reads, as names, attributes or imports; a
    top-level definition's references to its own name are left out.  An
    import counts: harness imports the one-path forms that bench/tracer.py
    wraps under those names."""
    names = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        names |= found
    return names


def test_every_public_name_is_used_by_the_package_or_is_a_listed_oracle():
    import hermite_ou

    modules = sorted(PACKAGE.glob("*.py"))
    used = set().union(*(referenced_names(ast.parse(path.read_text(encoding="utf-8"))) for path in modules))
    assert sorted(set(hermite_ou.__all__) - used - set(ORACLES)) == []
    for name, test in ORACLES.items():
        module, _, function = test.partition("::")
        tree = ast.parse((TESTS / f"{module}.py").read_text(encoding="utf-8"))
        assert name in hermite_ou.__all__ and name not in used, name
        assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
        assert name in referenced_names(tree), test
