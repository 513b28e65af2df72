"""The benchmark's span recorder (`bench/spans.py`) times shapefeat functions
it finds by name. A rename under `src/` would silently zero a per-layer
metric, so every name it lists must stay a callable of its module."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


LAYERS = [(mod, name) for mod, names in layer_functions().items() for name in names]


@pytest.mark.parametrize("module, name", LAYERS, ids=[f"{m}.{n}" for m, n in LAYERS])
def test_layer_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
