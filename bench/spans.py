"""In-memory span recorder that wraps shapefeat's layer functions from outside.

Nothing under ``src/`` knows about it. ``Recorder.install`` replaces every
module attribute of the loaded ``shapefeat`` modules that is bound to one of
the functions in ``LAYER_FUNCTIONS`` with a timing wrapper. That covers both
``dataio.load_series`` style lookups and names imported with ``from ... import``
(``cli.classify``, ``model.generate_profile``), because callers look those up
in their own module at call time. ``uninstall`` puts the originals back.
"""
from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: Public functions timed as layers, by module.
LAYER_FUNCTIONS = {
    "shapefeat.data": (
        "load_series",
        "load_labels",
        "load_model",
        "save_model",
        "save_predictions",
    ),
    "shapefeat.profiles": (
        "generate_profile",
        "distance_profile_mass",
        "sliding_stats",
        "complexity_profile",
        "sliding_feature_profile",
    ),
    "shapefeat.model": (
        "select_prototype",
        "compute_distributions",
        "class_probabilities",
        "compute_probability",
        "combine_naive_bayes",
        "classify",
    ),
    "shapefeat.evaluate": ("roc_sweep", "mil_confusion"),
}


def _values_of(ts) -> np.ndarray:
    return np.asarray(getattr(ts, "values", ts))


def prototype_candidates(labels, class_id: str, m: int) -> int:
    """Medoid candidates `select_prototype` compares: length-m windows inside
    the class's regions, one every max(1, m // 2) samples."""
    step = max(1, m // 2)
    return sum(
        len(range(r.start, r.end - m + 1, step))
        for r in labels.class_regions(class_id)
        if r.end - r.start >= m
    )


def _series_key(args, kwargs, result):
    x = _values_of(args[0])
    m = args[1] if len(args) > 1 else kwargs["m"]
    return (x.__array_interface__["data"][0], x.size, int(m))


def _series_length(args, kwargs, result):
    return _values_of(args[0]).size


def _detections(args, kwargs, result):
    return int(np.count_nonzero(result.label_codes >= 0))


def _prototype_call(args, kwargs, result):
    train, labels, class_id, m = args
    return prototype_candidates(labels, class_id, m), args


def _call_args(args, kwargs, result):
    return args


#: What each wrapper keeps about a call, beyond its times.
PROBES: Dict[str, Callable] = {
    "profiles.sliding_stats": _series_key,
    "profiles.distance_profile_mass": _series_length,
    "model.classify": _detections,
    "model.select_prototype": _prototype_call,
    "data.load_series": _call_args,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "info")

    def __init__(self, name: str, start: float, parent: Optional[int], run_id: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.info = None


class Recorder:
    """Keeps spans (name, start, end, parent span, run id) in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._run_id = 0
        self._patched: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn: Callable, *args):
        """Call `fn` as the root span of a new run id."""
        self._run_id += 1
        span = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items()) if key.startswith("shapefeat")]
        for module_name, names in LAYER_FUNCTIONS.items():
            owner = importlib.import_module(module_name)
            layer = module_name.split(".", 1)[1]
            for func_name in names:
                original = getattr(owner, func_name)
                wrapper = self._wrap(f"{layer}.{func_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Per name: span durations minus the time their child spans cover."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span.name] += (span.end - span.start) - covered[index]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def infos(self, name: str) -> list:
        return [span.info for span in self.spans if span.name == name]


def fft_length(n: int) -> int:
    """Next power of two at or above n: the FFT size MASS uses for a length-n series."""
    return 1 << max(0, int(n - 1).bit_length())


def mass_fft_bytes(n: int) -> int:
    """Computed, not measured: the series, query and product spectra
    (complex128, size // 2 + 1 each) plus the real inverse transform."""
    size = fft_length(n)
    return 3 * 16 * (size // 2 + 1) + 8 * size


def peak_mb(fn: Callable, *args) -> float:
    """tracemalloc peak of one call, in MB; NumPy buffers are included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer numbers one traced round gives (memory excluded)."""
    self_s = rec.self_times()
    calls = rec.calls()
    series = {(span.run_id, span.info) for span in rec.spans if span.name == "profiles.sliding_stats"}
    mass_n = rec.infos("profiles.distance_profile_mass")
    prototypes = rec.infos("model.select_prototype")
    return {
        "data.load_series_s": self_s.get("data.load_series", 0.0),
        "data.save_predictions_s": self_s.get("data.save_predictions", 0.0),
        "profiles.distance_profile_mass_s": self_s.get("profiles.distance_profile_mass", 0.0),
        "profiles.distance_profile_mass_calls": calls["profiles.distance_profile_mass"],
        "profiles.mass_fft_mb": mass_fft_bytes(max(mass_n)) / 1e6 if mass_n else 0.0,
        "profiles.sliding_stats_s": self_s.get("profiles.sliding_stats", 0.0),
        "profiles.sliding_stats_calls": calls["profiles.sliding_stats"],
        "profiles.sliding_stats_per_series": (
            calls["profiles.sliding_stats"] / len(series) if series else 0.0
        ),
        "profiles.complexity_profile_s": self_s.get("profiles.complexity_profile", 0.0),
        "profiles.generate_profile_calls": calls["profiles.generate_profile"],
        "model.compute_distributions_s": self_s.get("model.compute_distributions", 0.0),
        "model.select_prototype_s": self_s.get("model.select_prototype", 0.0),
        "model.prototype_candidates": sum(count for count, _ in prototypes),
        "model.compute_probability_s": self_s.get("model.compute_probability", 0.0),
        "model.compute_probability_calls": calls["model.compute_probability"],
        "model.combine_naive_bayes_s": self_s.get("model.combine_naive_bayes", 0.0),
        "model.class_probabilities_calls": calls["model.class_probabilities"],
        "model.sweep_s": self_s.get("model.classify", 0.0),
        "model.detections": sum(rec.infos("model.classify")),
        "evaluate.mil_confusion_s": self_s.get("evaluate.mil_confusion", 0.0),
        "evaluate.mil_confusion_calls": calls["evaluate.mil_confusion"],
    }


def memory_metrics(rec: Recorder) -> dict:
    """Replays the first call of each memory-measured layer under tracemalloc.

    Run apart from the timed rounds: tracemalloc slows every allocation,
    and ``load_series`` makes one Python string per point.
    """
    from shapefeat import data, model

    loads = rec.infos("data.load_series")
    prototypes = rec.infos("model.select_prototype")
    return {
        "data.load_series_peak_mb": peak_mb(data.load_series, *loads[0]) if loads else 0.0,
        "model.select_prototype_peak_mb": (
            max(peak_mb(model.select_prototype, *args) for _, args in prototypes)
            if prototypes
            else 0.0
        ),
    }
