"""The traced benchmark still finds every name it wraps, and puts it back.

``perfbench/run.py --trace 1`` wraps public functions and methods at each
layer boundary (``perfbench/tracer.py``).  A renamed or removed method
makes that run fail with an ``AttributeError`` long after the change, so
this suite installs every wrapper once and checks that ``restore()``
leaves each attribute exactly as it found it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_and_is_restored(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        # Each wrap looks its attribute up, so a missing name raises here.
        tracer_module.install_layers(tracer)
        tracer_module.install_setup_layers(tracer)
        patches = list(tracer._patches)
    finally:
        tracer.restore()

    wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, *_ in patches}
    for name in (
        ("InferenceEngine", "evaluate"),
        ("BatchedInferenceEngine", "run"),
        ("BatchedInferenceEngine", "run_encoded"),
        ("MapParallelEngine", "run_encoded"),
    ):
        assert name in wrapped
    for owner, attr, own, original in patches:
        if isinstance(owner, type):
            # A class gets back its own entry, or none for an inherited one.
            assert vars(owner).get(attr, tracer_module._MISSING) is own, (owner, attr)
        else:
            assert getattr(owner, attr) is original, (owner, attr)
    assert not tracer._patches
