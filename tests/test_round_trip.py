"""Save then load gives back an equal object, for every file format.

Series compare bitwise (so `-0.0` stays `-0.0`); labels, predictions and
models compare with `==`, and a re-saved model has the same bytes.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shapefeat.core import (
    FEATURE_KINDS,
    OTHER_CLASS,
    SHAPE,
    ClassModel,
    DataError,
    FeatureSpec,
    Histogram,
    LabelTrack,
    PredictionTrack,
    Region,
    TimeSeries,
    check_class_id,
)
from shapefeat.data import (
    TwoModalityParams,
    gen_two_modality_dataset,
    load_labels,
    load_model,
    load_predictions,
    load_series,
    save_labels,
    save_model,
    save_predictions,
    save_series,
)

SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308]
values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_VALUES)
rates = st.none() | st.floats(min_value=5e-324, allow_infinity=False)


def _valid_id(text: str) -> bool:
    try:
        check_class_id(text)
    except DataError:
        return False
    return text != OTHER_CLASS


class_ids = st.sampled_from(["a", "sine", "b c", "é#1", "x:y"]) | st.text(
    min_size=1, max_size=8).filter(_valid_id)
names = st.text(max_size=12).filter(lambda s: s.strip() == s and len(s.splitlines()) <= 1)


@st.composite
def label_tracks(draw):
    cuts = sorted(draw(st.lists(st.integers(0, 500), max_size=12, unique=True)))
    series_length = draw(st.integers(cuts[-1] if cuts else 0, 600))
    # Consecutive cut pairs are regions; each may be dropped to leave a gap.
    regions = tuple(
        Region(start, end, draw(class_ids))
        for start, end in zip(cuts[::2], cuts[1::2]) if draw(st.booleans())
    )
    return LabelTrack(series_length=series_length, regions=regions)


@st.composite
def prediction_tracks(draw):
    ids = tuple(draw(st.lists(class_ids, max_size=4, unique=True)))
    m = draw(st.integers(1, 50))
    series_length = draw(st.integers(m, 400))
    positions = sorted(draw(st.sets(st.integers(0, series_length - m), max_size=30))) if ids else []
    return PredictionTrack(
        class_ids=ids,
        positions=np.array(positions, dtype=np.int64),
        label_codes=np.array([draw(st.integers(0, len(ids) - 1)) for _ in positions],
                             dtype=np.int32),
        scores=np.array([draw(values) for _ in positions], dtype=np.float64),
        m=m,
        series_length=series_length,
        # A stride past the end is kept as given (`Sweep`).
        stride=draw(st.integers(1, 5) | st.just(10**30)),
        sample_rate_hz=draw(rates),
    )


def valid(make, *args, **kwargs):
    """`make(*args, **kwargs)`; an example it rejects with DataError is discarded."""
    try:
        return make(*args, **kwargs)
    except DataError:
        assume(False)


#: (edge bound, count-sum bound) of one feature's histogram pair: the pair's
#: floor density 1 / ((total + 1) * joint width) must stay above 0, so wide
#: edges go with small counts.
SCALES = [(1e300, 2**20), (1e280, 2**63 - 1)]


@st.composite
def histograms(draw, bound, total):
    # Edges stay within ±bound, so their differences stay finite, and the
    # counts sum to at most `total`. A bin narrower than 1e-300 stays empty,
    # since a count there would make its density infinite.
    edges = sorted(draw(st.sets(st.floats(-bound, bound) | st.sampled_from(SPECIAL_VALUES[:5]),
                                min_size=2, max_size=8)))
    counts = [0 if width < 1e-300 else draw(st.integers(0, total // (len(edges) - 1)))
              for width in np.diff(edges)]
    assume(any(counts))
    return valid(Histogram, edges=edges, counts=counts)


@st.composite
def class_models(draw):
    m = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(FEATURE_KINDS), min_size=1, max_size=3))
    queries = [draw(st.lists(values, min_size=m, max_size=m)) if kind == SHAPE else None
               for kind in kinds]
    scales = [draw(st.sampled_from(SCALES)) for _ in kinds]
    features = tuple(
        (FeatureSpec(kind=kind, id=f"{kind}-{k}", query=query), draw(histograms(*scale)),
         draw(histograms(*scale)))
        for k, (kind, query, scale) in enumerate(zip(kinds, queries, scales))
    )
    return valid(
        ClassModel,
        class_id=draw(class_ids), m=m, exclusion_zone=draw(st.integers(0, 2**62)),
        features=features, prior=draw(st.floats(min_value=5e-324, max_value=1 - 2**-53)),
    )


class TestRoundTrip:
    @settings(max_examples=60)
    @given(raw=st.lists(values, min_size=1, max_size=40), rate=rates, name=names)
    def test_series_is_bitwise(self, tmp_path_factory, raw, rate, name):
        path = str(tmp_path_factory.mktemp("series") / "s.txt")
        ts = TimeSeries(values=raw, sample_rate_hz=rate, name=name)
        save_series(ts, path)
        loaded = load_series(path)
        assert loaded == ts
        assert loaded.values.tobytes() == ts.values.tobytes()

    @settings(max_examples=60)
    @given(track=label_tracks())
    def test_labels(self, tmp_path_factory, track):
        path = str(tmp_path_factory.mktemp("labels") / "l.csv")
        save_labels(track, path)
        assert load_labels(path, track.series_length) == track

    def test_generated_labels(self, tmp_path):
        params = TwoModalityParams(n_sine=3, n_flat=3, n_surge=2, n_hum=2)
        for seed in (0, 1):
            track = gen_two_modality_dataset(params, seed).labels
            save_labels(track, str(tmp_path / "l.csv"))
            assert load_labels(str(tmp_path / "l.csv"), track.series_length) == track

    @settings(max_examples=60)
    @given(track=prediction_tracks())
    def test_predictions(self, tmp_path_factory, track):
        path = str(tmp_path_factory.mktemp("predictions") / "p.csv")
        save_predictions(track, path)
        assert load_predictions(path) == track

    @settings(max_examples=40)
    @given(models=st.lists(class_models(), min_size=1, max_size=3))
    def test_models_and_their_bytes(self, tmp_path_factory, models):
        folder = tmp_path_factory.mktemp("models")
        save_model(models, str(folder / "a.sfcm"))
        loaded = load_model(str(folder / "a.sfcm"))
        assert loaded == models
        save_model(loaded, str(folder / "b.sfcm"))
        assert (folder / "b.sfcm").read_bytes() == (folder / "a.sfcm").read_bytes()
