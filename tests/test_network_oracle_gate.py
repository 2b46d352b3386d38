"""Production code builds no network object.

Production runs the network as a spec: a ``NetworkConfig`` plus the
trained registers and neuron-operation status, planned into ``MapRow``s
of the one inference engine.  The network object family
(``DiehlCookNetwork``, the ``FaultInjector`` that corrupts it, and the
per-network front ends ``BatchedInferenceEngine`` / ``InferenceEngine``)
is the bit-accurate reference the engines are checked against.  Outside
the modules that define that family, the oracle that builds it
(``snn/oracle.py``), the serving smoke's reference (``server.py``) and
package ``__init__`` re-exports, no module under ``src/repro`` may name
those classes or call ``build_network``.  The check walks every module's
syntax tree, so docstrings and comments may still mention them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
ORACLE_MODULES = {
    "snn/oracle.py",
    "snn/network.py",
    "snn/engine.py",
    "snn/inference.py",
    "faults/injector.py",
    "server.py",
}
NETWORK_NAMES = {
    "DiehlCookNetwork",
    "FaultInjector",
    "BatchedInferenceEngine",
    "InferenceEngine",
}


def _violations(source: str, reexports_allowed: bool):
    """``(line, what)`` for every use of the network family in *source*."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in NETWORK_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in NETWORK_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports_allowed:
            for alias in node.names:
                if alias.name.split(".")[-1] in NETWORK_NAMES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "build_network":
                yield node.lineno, "build_network()"
        elif (
            isinstance(node, ast.Constant)
            and node.value in NETWORK_NAMES
            and not reexports_allowed
        ):
            # A quoted annotation names the class as much as a bare one
            # (an ``__init__``'s ``__all__`` lists its re-exports).
            yield node.lineno, f"{node.value!r}"


def _production_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative not in ORACLE_MODULES:
            yield pytest.param(path, id=relative)


@pytest.mark.parametrize("path", list(_production_modules()))
def test_production_module_builds_no_network(path):
    source = path.read_text(encoding="utf-8")
    found = sorted(_violations(source, reexports_allowed=path.name == "__init__.py"))
    assert not found, (
        f"{path.relative_to(PACKAGE)} uses the network oracle family at "
        + ", ".join(f"line {line} ({what})" for line, what in found)
    )


def test_oracle_modules_exist():
    """A renamed oracle module must not silently widen the gate."""
    for relative in ORACLE_MODULES:
        assert (PACKAGE / relative).is_file(), relative


@pytest.mark.parametrize(
    "snippet",
    [
        "from repro.snn.network import DiehlCookNetwork\n",
        "import repro.snn.engine as e\ne.BatchedInferenceEngine(net)\n",
        "network = model.build_network(rng=0)\n",
        "def f(network: 'DiehlCookNetwork'):\n    pass\n",
    ],
)
def test_gate_catches_each_kind_of_use(snippet):
    assert list(_violations(snippet, reexports_allowed=False))


def test_reexports_are_allowed_in_package_init():
    snippet = "from repro.snn.inference import InferenceEngine\n"
    assert not list(_violations(snippet, reexports_allowed=True))
