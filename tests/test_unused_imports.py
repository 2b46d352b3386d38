"""No unused module-level imports in the package, tests, benches and examples.

ruff checks only the D1 docstring rules, and only in ``src/repro``
(``[tool.ruff]`` in ``pyproject.toml``), so nothing else catches an import
that a refactor left behind in ``src/repro/``, ``tests/``, ``benchmarks/``
or ``examples/``.  This is the dependency-free backstop: every module there
is parsed with :mod:`ast`, and a name bound by a module-level import must
be used somewhere in that module's syntax tree (string annotations
included) or be listed in its ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src/repro", "tests", "benchmarks", "examples")


def _module_paths():
    for directory in DIRECTORIES:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield pytest.param(path, id=str(path.relative_to(ROOT)))


def _module_level_imports(body):
    """Yield ``(bound name, line)`` of imports outside functions and classes."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_level_imports(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level_imports(handler.body)


def _annotation_names(annotation):
    """Names referenced by an annotation, including quoted ones."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            for arg in (
                arguments.posonlyargs
                + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if arg is not None:
                    annotations.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used.update(_annotation_names(annotation))
    return used


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", list(_module_paths()))
def test_module_level_imports_are_used(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _module_level_imports(tree.body)
        if name not in used
    ]
    assert not unused, f"{path.name}: unused module-level imports: {unused}"
