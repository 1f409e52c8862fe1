"""Source-layout rules for the library, checked on its syntax trees.

- No `assert` statements: they vanish under `python -O`, so invariants that
  matter raise, and test-only self-checks live in the tests.
- No function-local imports: the import graph is what the module headers
  say it is.
- `solutions` never imports `oracle`, so the oracle stays an independent
  check of the constructive code and the import graph has no cycle.
"""

import ast
from pathlib import Path

import pytest

import stableset

SRC = Path(stableset.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def import_names(node):
    """Every dotted name an import statement mentions."""
    names = [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        names.append(node.module)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    found = [n.lineno for n in ast.walk(tree(path)) if isinstance(n, ast.Assert)]
    assert found == [], f"{path.name}: assert on lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_imports(path):
    found = [node.lineno
             for fn in ast.walk(tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == [], f"{path.name}: function-local import on lines {found}"


def test_solutions_does_not_import_oracle():
    found = [node.lineno for node in ast.walk(tree(SRC / "solutions.py"))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any("oracle" in name.split(".") for name in import_names(node))]
    assert found == [], f"solutions.py imports the oracle on lines {found}"
