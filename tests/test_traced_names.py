"""The benchmark's traced run wraps cmtk functions by name: every name it
lists in ``perfbench/spans.py`` must exist, so a rename fails here rather
than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in spans.LAYER_FUNCTIONS.items() for name in names
])
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"cmtk.{layer}"), name, None))


@pytest.mark.parametrize("layer, cls, name", [
    (layer, cls, name)
    for layer, classes in spans.LAYER_METHODS.items()
    for cls, names in classes.items() for name in names
])
def test_traced_method_exists(layer, cls, name):
    owner = getattr(importlib.import_module(f"cmtk.{layer}"), cls)
    assert callable(vars(owner).get(name))
