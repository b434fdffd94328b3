"""Import rules read from the source: the runtime imports nothing outside
the standard library, every imported name and every module-level
definition of the package is read, and the tests' one model of the
package, in `reference.py`, imports only data types from it."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the names reference.py may import from girycheck: data types and P_GRID
MODEL_IMPORTS = {
    "girycheck.extvalue": {"INF", "ExtValue"},
    "girycheck.measures": {"FinMeasure", "MetaMeasure"},
    "girycheck.spaces": {
        "P_GRID", "Element", "Box", "Branched", "ExtendedLine", "FiniteDiscrete", "Interval",
        "Product", "Simplex",
    },
}


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "girycheck").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {module}"


def test_every_imported_name_is_read():
    """In the package and in the tests; the package's __init__.py
    re-exports its imports, so it is left out."""
    package = sorted((ROOT / "src" / "girycheck").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert package and tests
    unused = []
    for path in package + tests:
        if path == ROOT / "src" / "girycheck" / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert not unused


# module-level names that nothing in src/ reads, kept on purpose
UNREAD_ON_PURPOSE = {
    "sampling.random_meta": "a perfbench tracer boundary (perfbench/tracer.py)",
}


def test_every_module_level_definition_is_read():
    """Each module-level def and class of the package is read by another
    top-level statement somewhere in src/, or is exported from
    girycheck/__init__.py; a helper whose last caller is gone fails here."""
    package = sorted((ROOT / "src" / "girycheck").glob("*.py"))
    init = ROOT / "src" / "girycheck" / "__init__.py"
    defined, reads_by_stmt = [], []
    for path in package:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if path != init and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.append((f"{path.stem}.{stmt.name}", stmt))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif path == init and isinstance(node, ast.alias):
                    names.add(node.name)
            reads_by_stmt.append((stmt, names))
    orphans = [
        qualified
        for qualified, stmt in defined
        if qualified not in UNREAD_ON_PURPOSE
        and not any(other is not stmt and stmt.name in names for other, names in reads_by_stmt)
    ]
    assert not orphans
    assert {qualified for qualified, _ in defined} >= set(UNREAD_ON_PURPOSE)


def test_package_declares_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines


def test_only_the_model_defines_reference_functions():
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        if path.name != "reference.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.lstrip("_").startswith("reference_")
    ]
    assert not found


def test_the_model_imports_only_data_types_from_girycheck():
    path = ROOT / "tests" / "reference.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            assert all(m.split(".")[0] != "girycheck" for m in modules), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "girycheck":
            names = {alias.name for alias in node.names}
            assert names <= MODEL_IMPORTS.get(node.module, set()), (node.lineno, names)
