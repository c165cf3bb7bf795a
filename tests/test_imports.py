"""Every name a module of the package imports is used in that module,
every export is used by the package, every theorem entry and each of its
parameters is reached by the harness, and the stages take seeds."""
from __future__ import annotations

import ast
import inspect
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


def test_no_stage_takes_a_random_generator():
    # stages take seeds and derive their streams with child_seed, so a
    # stage's draws depend on its seed alone, not on what a caller drew
    # from a shared generator before the call
    found = []
    for name in ("pipeline.py", "decompositions.py", "connectivity.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.annotation is not None and "Random" in ast.unparse(arg.annotation):
                        found.append(f"{name}: {node.name}({arg.arg})")
    assert found == []


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


# exports that no module of the package uses, each with the reason it stays
UNCALLED_EXPORTS = {
    "interval_orientation": "a cell of the benchmark's queries workload times it",
    "lovasz_deficiency": "the tests check the Lovasz criterion's witnesses with it",
}


def references_outside_own_definition() -> set[str]:
    """Names read (as a name or an attribute) by the package's modules,
    each outside the top-level function or class that defines that name;
    __init__.py only re-exports, so it is left out."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    found.add(name)
    return found


def test_every_export_is_used_by_the_package():
    # an export that only tests reach is a second public path: each name
    # of __all__ is called, raised or returned by the CLI, the harness or a
    # pipeline, but for the reasoned exceptions above
    unused = set(factorkit.__all__) - references_outside_own_definition()
    assert unused == set(UNCALLED_EXPORTS)


def test_each_runner_passes_every_parameter_of_its_entry():
    # a parameter that no runner passes is a path through the entry that
    # neither `factorkit factor` nor a campaign takes
    entries = {
        name: inspect.signature(obj).parameters
        for name, obj in vars(factorkit.pipeline).items() if hasattr(obj, "__wrapped__")
    }
    harness_tree = ast.parse((PACKAGE / "harness.py").read_text())
    defs = {node.name: node for node in harness_tree.body if isinstance(node, ast.FunctionDef)}
    runners = [run.__name__ for _, run in factorkit.harness.THEOREMS.values() if run]
    missing = {}
    for runner in runners:
        calls = [
            node for node in ast.walk(defs[runner])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in entries
        ]
        assert calls, runner
        for call in calls:
            params = list(entries[call.func.id])
            passed = set(params[: len(call.args)]) | {kw.arg for kw in call.keywords}
            if set(params) - passed:
                missing[call.func.id] = sorted(set(params) - passed)
    assert len(runners) == 5 and missing == {}
