import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import shapefeat
from shapefeat.core import (
    OTHER_CLASS,
    ClassifierConfig,
    ConfusionMatrix,
    DataError,
    FeatureSpec,
    Histogram,
    LabelTrack,
    Region,
    TimeSeries,
    value_eq,
    whole_number,
)
from shapefeat.model import PredictionTrack


def test_timeseries_values_are_read_only():
    ts = TimeSeries(values=[1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


def test_timeseries_equality_is_field_by_field():
    a = TimeSeries(values=[1.0, 2.0], sample_rate_hz=10.0, name="a")
    b = TimeSeries(values=[1.0, 2.0], sample_rate_hz=10.0, name="a")
    c = TimeSeries(values=[1.0, 2.5], sample_rate_hz=10.0, name="a")
    assert a == b
    assert a != c


def _track(scores, stride=1):
    return PredictionTrack(class_ids=("a", "b"), positions=np.array([3, 9]),
                           label_codes=np.array([0, 1]), scores=np.array(scores),
                           m=4, series_length=20, stride=stride)


def test_prediction_tracks_compare_by_value():
    a = _track([0.75, 0.5])
    assert a == _track([0.75, 0.5])
    assert a != _track([0.75, 0.25])
    assert a != _track([0.75, 0.5], stride=2)


def test_value_eq_needs_one_type():
    a = FeatureSpec(kind="shape", query=[1.0, 2.0])
    assert value_eq(a, TimeSeries(values=[1.0, 2.0])) is NotImplemented
    assert a != FeatureSpec(kind="shape")
    assert FeatureSpec(kind="shape") == FeatureSpec(kind="shape")
    assert a != [1.0, 2.0]


def _package_dataclasses():
    for info in pkgutil.iter_modules(shapefeat.__path__):
        module = importlib.import_module(f"shapefeat.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_dataclasses_with_arrays_use_the_one_rule():
    # An array field under the generated __eq__ makes `==` raise ValueError.
    checked = []
    for cls in _package_dataclasses():
        if any("ndarray" in str(f.type) for f in dataclasses.fields(cls)):
            assert cls.__eq__ in (value_eq, object.__eq__), cls.__name__
            checked.append(cls.__name__)
    assert {"TimeSeries", "Histogram", "PredictionTrack", "SlidingStats"} <= set(checked)


@pytest.mark.parametrize("name", ["two\nlines", " padded ", "tab\t", "\n", "a\rb", "a\u2028b"])
def test_timeseries_name_must_fit_one_header_line(name):
    with pytest.raises(DataError, match="must not contain a line break"):
        TimeSeries(values=[1.0], name=name)


@pytest.mark.parametrize("value, expected", [(64, 64), (64.0, 64), (-3.0, -3), (2**70, 2**70)])
def test_whole_number_accepts_whole_values(value, expected):
    number = whole_number(value)
    assert number == expected and type(number) is int


@pytest.mark.parametrize(
    "value, error",
    [(2.5, ValueError), (True, TypeError), ("64", TypeError), (None, TypeError),
     (float("nan"), ValueError), (float("inf"), OverflowError)],
)
def test_whole_number_rejects_the_rest(value, error):
    with pytest.raises(error):
        whole_number(value)


@pytest.mark.parametrize("rate", [np.inf, np.nan, -5.0, 0.0])
def test_timeseries_rate_must_be_finite_and_positive(rate):
    # The header a series file would carry for it could not be read back.
    with pytest.raises(DataError, match="sample_rate_hz must be finite and > 0"):
        TimeSeries(values=[1.0, 2.0], sample_rate_hz=rate)


def test_label_track_rejects_overlap():
    with pytest.raises(DataError, match=r"region \[50,200\) overlaps previous end 100") as err:
        LabelTrack(
            series_length=300,
            regions=(Region(0, 100, "a"), Region(50, 200, "b")),
        )
    assert err.value.index == 1
    assert err.value.line is None


def test_label_track_rejects_out_of_order():
    with pytest.raises(DataError, match="out of order") as err:
        LabelTrack(
            series_length=300,
            regions=(Region(100, 150, "a"), Region(0, 50, "b")),
        )
    assert err.value.index == 1


def test_label_track_rejects_reserved_class():
    with pytest.raises(DataError, match=f"carries reserved class {OTHER_CLASS}") as err:
        LabelTrack(series_length=10, regions=(Region(0, 5, OTHER_CLASS),))
    assert err.value.index == 0


def test_label_track_rejects_out_of_bounds():
    with pytest.raises(DataError, match=r"region \[5,11\) outside \[0,10\)") as err:
        LabelTrack(series_length=10, regions=(Region(5, 11, "a"),))
    assert err.value.index == 0
    assert not str(err.value).startswith("line")


@pytest.mark.parametrize("class_id", ["a,b", " a", "a\nb", ""])
def test_label_track_class_id_must_fit_a_csv_row(class_id):
    # save_labels would write a row that load_labels rejects or strips.
    with pytest.raises(DataError, match="must not contain a comma or a line break"):
        LabelTrack(series_length=10, regions=(Region(0, 4, class_id),))


def test_label_track_vocabulary_includes_other():
    track = LabelTrack(series_length=10, regions=(Region(0, 4, "a"),))
    assert track.class_regions("a") == (Region(0, 4, "a"),)
    assert track.class_regions(OTHER_CLASS) == ()


def test_feature_spec_defaults_and_validation():
    spec = FeatureSpec(kind="complexity")
    assert spec.id == "complexity"
    with pytest.raises(DataError, match="unknown feature kind 'wavelet'"):
        FeatureSpec(kind="wavelet")
    with pytest.raises(DataError, match="takes no query"):
        FeatureSpec(kind="sliding_std", query=np.ones(4))
    shape = FeatureSpec(kind="shape", query=[1.0, 2.0, 3.0])
    assert shape.query.shape == (3,)


def test_histogram_invariants():
    h = Histogram(edges=[0.0, 1.0, 2.0], counts=[3, 1])
    assert h.total == 4
    with pytest.raises(DataError, match="strictly increasing"):
        Histogram(edges=[0.0, 0.0, 1.0], counts=[1, 1])
    with pytest.raises(DataError, match=r"len\(edges\) == len\(counts\) \+ 1"):
        Histogram(edges=[0.0, 1.0], counts=[1, 1])
    with pytest.raises(DataError, match="non-negative"):
        Histogram(edges=[0.0, 1.0, 2.0], counts=[1, -1])
    with pytest.raises(DataError, match="must not all be zero"):
        Histogram(edges=[0.0, 1.0], counts=[0])


@pytest.mark.parametrize("edges", [[-1e308, 1e308], [-1e308, 0.0, 1e308], [-1.7e308, 1.7e308]])
def test_histogram_edges_must_span_a_finite_width(edges):
    # Each step is finite but the whole span overflows float64: its density
    # and floor would be 0, and the lookup 0 / 0.
    with pytest.raises(DataError, match="histogram edges must span a finite width"):
        Histogram(edges=edges, counts=[1] * (len(edges) - 1))
    assert Histogram(edges=[-8e307, 8e307], counts=[1]).range_width == 1.6e308


def test_classifier_config_validation():
    cfg = ClassifierConfig(thresholds={"a": 2.0})
    assert cfg.threshold_for("a") == 2.0
    assert cfg.threshold_for("missing") == 1.0
    with pytest.raises(DataError, match="threshold for 'a' must be > 0"):
        ClassifierConfig(thresholds={"a": 0.0})
    with pytest.raises(DataError, match=r"decision_floor must be in \[0,1\]"):
        ClassifierConfig(decision_floor=1.5)
    with pytest.raises(DataError, match="stride must be >= 1"):
        ClassifierConfig(stride=0)
    with pytest.raises(DataError, match="unknown nb_denominator 'bayes'"):
        ClassifierConfig(nb_denominator="bayes")
    with pytest.raises(DataError, match="unknown small_value_mode 'none'"):
        ClassifierConfig(small_value_mode="none")


def test_confusion_matrix_counts():
    cm = ConfusionMatrix(tp=1, fp=2, fn=3, tn=4)
    assert cm.total == 10
    with pytest.raises(DataError, match="tp must be >= 0"):
        ConfusionMatrix(tp=-1)
