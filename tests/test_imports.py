"""Every name a module of the package imports is used in that module, and
every theorem entry is reached by the harness."""
from __future__ import annotations

import ast
from pathlib import Path

import factorkit

PACKAGE = Path(factorkit.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports to re-export, so it is left out
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text()))
    }
    assert found == {}



def test_the_harness_calls_every_theorem_entry():
    # each @_entry function of the pipeline module is called by name in the
    # harness, so a campaign trial or a `factorkit factor` runner reaches it
    pipeline = ast.parse((PACKAGE / "pipeline.py").read_text())
    entries = {
        node.name for node in pipeline.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "_entry" for d in node.decorator_list)
    }
    harness = ast.parse((PACKAGE / "harness.py").read_text())
    called = {
        node.func.id for node in ast.walk(harness)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert entries and entries - called == set()
