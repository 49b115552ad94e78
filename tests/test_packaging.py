"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages that the modules of hermite_ou import, at module level
or inside functions; every public name is used by the package itself or is
the oracle of a named test; every cache is filled once, a warm run fills
none, and frozen value types stay frozen after construction."""

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
    import counts: harness imports minimize_l1, the one-path form that
    bench/tracer.py wraps under that name."""
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


def decorator_names(node: ast.FunctionDef) -> list:
    """Names of the function's decorators, outermost first; a call such as
    lru_cache(maxsize=64) counts as the name it calls."""
    names = []
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        names.append(dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None))
    return names


def setattr_calls(node: ast.AST, function: str = ""):
    """(line, innermost enclosing function) of every object.__setattr__ call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            owner = child.func.value
            if child.func.attr == "__setattr__" and isinstance(owner, ast.Name) and owner.id == "object":
                yield child.lineno, function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from setattr_calls(child, inner)


def test_every_cache_is_filled_once_and_frozen_types_are_set_only_in_post_init():
    caches, stray = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "lru_cache" in decorator_names(node):
                names = decorator_names(node)
                caches.append(node.name)
                # _filled_once must wrap the cache, so it sits above lru_cache
                assert "_filled_once" in names[: names.index("lru_cache")], f"{path.name}:{node.lineno}"
        stray += [f"{path.name}:{line}" for line, fn in setattr_calls(tree) if fn != "__post_init__"]
    assert caches
    assert stray == []


def test_a_warm_run_fills_no_cache():
    from hermite_ou import harness, hermite, rng

    cfg = harness.ExperimentConfig(kind="maximal", q=2, n=16, m=4, T=(1.0, 2.0), replications=4)
    harness.run_experiment(cfg)
    caches = (rng._embedding_scale, hermite._partial_sum_std)
    misses = [c.cache_info().misses for c in caches]
    harness.run_experiment(cfg)
    assert [c.cache_info().misses for c in caches] == misses
