"""Source-layout rules for the library, checked on its syntax trees.

- No `assert` statements: they vanish under `python -O`, so invariants that
  matter raise, and test-only self-checks live in the tests.
- No function-local imports: the import graph is what the module headers
  say it is.
- `solutions` never imports `oracle`, so the oracle stays an independent
  check of the constructive code and the import graph has no cycle.
- `LimitExceeded` is raised only by `errors.check_size`, so every size
  ceiling is checked, and worded, in one place.
- No module reads the process environment: every setting is an argument.
- Only `io` calls `json.dump`/`json.dumps` with `indent`: the pure-Python
  encoder that `indent` selects is slow, and `io.write_document` is the one
  place that renders indented output.
- In `solutions`, only `undominated_pairs` calls `bitset.subsets`: VNM and
  socially stable sets are searched, not scanned, so the 2^n scan stays in
  the pair enumeration and the oracle.
- `order_topology` calls no `bitset.subsets`, and the CLI reads no
  `opens`: the lab's checks read cuts and smallest open sets, and the
  enumerating definitions live in the tests as their reference.
- In `order_topology`, only `frink_ideals` calls `dm_completion`: the
  checks that hold on every finite poset (precontinuity, way-below) are
  closed forms and build no cuts.
- Every module but `__init__` and `cli` is imported by another library
  module, not counting `__init__`: code that only tests call lives in the
  tests.
- No module-level function calls itself by name: every walk keeps an
  explicit stack, so the interpreter's recursion limit bounds no family.
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


def test_every_module_is_imported_by_the_library():
    imported = {
        path.stem: {name.removeprefix("stableset.").split(".")[0]
                    for node in ast.walk(tree(path))
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in import_names(node)}
        for path in MODULES if path.stem != "__init__"}
    unused = [path.name for path in MODULES
              if path.stem not in ("__init__", "cli")
              and not any(path.stem in names for stem, names in imported.items()
                          if stem != path.stem)]
    assert unused == [], f"modules no library module imports: {unused}"


def test_solutions_does_not_import_oracle():
    found = [node.lineno for node in ast.walk(tree(SRC / "solutions.py"))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any("oracle" in name.split(".") for name in import_names(node))]
    assert found == [], f"solutions.py imports the oracle on lines {found}"



# The identifier each kind of naming node spells.
SPELLING = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def spelled(node):
    """(line, identifier) for every name, attribute and imported name
    inside a syntax tree."""
    return [(sub.lineno, getattr(sub, SPELLING[type(sub)]))
            for sub in ast.walk(node) if type(sub) in SPELLING]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_limit_exceeded_raised_only_by_the_size_guard(path):
    if path.name == "errors.py":
        return
    found = [node.lineno for node in ast.walk(tree(path))
             if isinstance(node, ast.Raise) and node.exc is not None
             and any(name.endswith("LimitExceeded")
                     for _, name in spelled(node.exc))]
    assert found == [], f"{path.name}: raises a size error on lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_environment_reads(path):
    found = [line for line, name in spelled(tree(path))
             if name in ("environ", "environb", "getenv")]
    assert found == [], f"{path.name}: reads the environment on lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_indented_json_only_in_io(path):
    if path.name == "io.py":
        return
    found = [node.lineno for node in ast.walk(tree(path))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and any(k.arg == "indent" for k in node.keywords)]
    assert found == [], f"{path.name}: indented JSON on lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_self_calling_functions(path):
    found = [fn.name for fn in tree(path).body
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id == fn.name for node in ast.walk(fn))]
    assert found == [], f"{path.name}: functions calling themselves: {found}"


def test_solutions_scan_subsets_only_for_pairs():
    scanning = {fn.name
                for fn in tree(SRC / "solutions.py").body
                if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and any(name == "subsets" for _, name in spelled(node.func))}
    assert not scanning & {"vnm_stable_sets", "socially_stable_sets"}
    assert scanning <= {"undominated_pairs"}, sorted(scanning)


def test_order_topology_scans_no_subsets():
    found = [node.lineno for node in ast.walk(tree(SRC / "order_topology.py"))
             if isinstance(node, ast.Call)
             and any(name == "subsets" for _, name in spelled(node.func))]
    assert found == [], f"order_topology.py calls subsets on lines {found}"
    listed = [line for line, name in spelled(tree(SRC / "cli.py"))
              if name == "opens"]
    assert listed == [], f"cli.py lists open sets on lines {listed}"


def test_order_topology_builds_cuts_only_to_list_them():
    callers = {fn.name
               for fn in ast.walk(tree(SRC / "order_topology.py"))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and any(name == "dm_completion"
                       for _, name in spelled(node.func))}
    assert callers == {"frink_ideals"}, sorted(callers)
