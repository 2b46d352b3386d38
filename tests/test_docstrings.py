"""Docstring coverage of the whole ``repro`` package.

CI runs ``ruff check --select D`` over ``src/repro`` (see
``.github/workflows/ci.yml`` and the ``[tool.ruff.lint]`` configuration
in ``pyproject.toml``); this test is the dependency-free local backstop
for the part of that contract that matters most — every public module,
class, function and method of the package carries a docstring — so a
missing docstring fails ``pytest`` on machines without ruff installed.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro

PACKAGES = [repro]


def _module_paths():
    for package in PACKAGES:
        root = Path(inspect.getfile(package)).parent
        for path in sorted(root.rglob("*.py")):
            dotted = ".".join(path.relative_to(root).with_suffix("").parts)
            yield pytest.param(path, id=f"{package.__name__}.{dotted}")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_docstrings(path: Path):
    """Yield dotted names of public definitions without a docstring."""
    tree = ast.parse(path.read_text(), filename=str(path))
    if ast.get_docstring(tree) is None:
        yield "<module>"

    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = f"{prefix}{child.name}"
                if _is_public(child.name):
                    has_override = any(
                        isinstance(dec, ast.Name) and dec.id == "overload"
                        for dec in getattr(child, "decorator_list", [])
                    )
                    if ast.get_docstring(child) is None and not has_override:
                        yield name
                if isinstance(child, ast.ClassDef) and _is_public(child.name):
                    yield from walk(child, f"{name}.")

    yield from walk(tree, "")


@pytest.mark.parametrize("path", list(_module_paths()))
def test_public_api_is_documented(path: Path):
    missing = list(_missing_docstrings(path))
    assert not missing, (
        f"{path.name}: public definitions without docstrings: {missing} "
        "(the whole package is documented API surface — see docs/ and "
        "the ruff D lint in CI)"
    )
