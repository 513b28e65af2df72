"""The benchmark's span recorder (`bench/spans.py`) times shapefeat functions
it finds by name. A rename under `src/` would silently zero a per-layer
metric, so every name it lists must stay a callable of its module, and the
fields its probes read must keep their meaning."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from shapefeat.core import (
    SLIDING_MEAN,
    ClassifierConfig,
    ClassModel,
    FeatureSpec,
    Histogram,
    TimeSeries,
)
from shapefeat.model import classify

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = [(mod, name) for mod, names in load_spans().LAYER_FUNCTIONS.items() for name in names]


@pytest.mark.parametrize("module, name", LAYERS, ids=[f"{m}.{n}" for m, n in LAYERS])
def test_layer_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_detection_probe_counts_detections():
    # A sliding-mean model that fires wherever the series sits at 2.0.
    pos = Histogram(edges=[1.999, 2.001], counts=[10])
    neg = Histogram(edges=[52.0, 53.0], counts=[10])
    model = ClassModel(
        class_id="a", m=4, exclusion_zone=6,
        features=((FeatureSpec(kind=SLIDING_MEAN), pos, neg),), prior=0.5,
    )
    values = np.zeros(60)
    values[10:40] = 2.0
    track = classify([model], TimeSeries(values=values), ClassifierConfig())
    assert len(track.detections()) > 1
    probe = load_spans().PROBES["model.classify"]
    assert probe((), {}, track) == len(track.detections())
