"""Domain types shared by all modules.

Everything here is an immutable value object plus the three error classes.
Indices are 0-based throughout; label regions are half-open [start, end).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields, replace
from typing import Mapping, Optional, Sequence

import numpy as np

#: Reserved pseudo-class for unlabeled / suppressed positions. Never trainable.
OTHER_CLASS = "Other"

# Feature kinds understood by the profile generators.
SHAPE = "shape"
COMPLEXITY = "complexity"
SLIDING_MEAN = "sliding_mean"
SLIDING_STD = "sliding_std"
FEATURE_KINDS = (SHAPE, COMPLEXITY, SLIDING_MEAN, SLIDING_STD)

# Naive-Bayes denominator modes.
NB_STANDARD = "standard"
NB_PAPER_LITERAL = "paper-literal"

# Histogram floor ("small value") policies: range width used in the floor
# density is either the union of both histograms' ranges or each histogram's
# own range.
FLOOR_UNION = "union"
FLOOR_OWN = "own"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ShapefeatError(Exception):
    """Base class for all library errors."""


class DataError(ShapefeatError):
    """Invalid input data, file contents or parameters (CLI exit code 2).

    ``line`` is the 1-based line in the offending file and ``index`` the
    0-based position of the offending item (a sample, or a region of a
    LabelTrack), each when known. A known line prefixes the message.
    """

    def __init__(self, message: str, line: Optional[int] = None, index: Optional[int] = None):
        self.line = line
        self.index = index
        super().__init__(message if line is None else f"line {line}: {message}")


class ModelError(ShapefeatError):
    """Training or classification failure (CLI exit code 3)."""


# ---------------------------------------------------------------------------
# Value objects
# ---------------------------------------------------------------------------

def frozen_array(values, dtype=np.float64, copy: Optional[bool] = True) -> np.ndarray:
    """`values` as a read-only `dtype` array: a copy, or with copy=None
    `values` itself when it is one already."""
    arr = np.array(values, dtype=dtype, copy=copy)
    arr.setflags(write=False)
    return arr


def value_eq(a, b):
    """Equality of two dataclasses of one type, field by field: by
    `np.array_equal` where either side is an ndarray, else by ``==``."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray)
               else x == y for x, y in pairs)


def whole_number(value) -> int:
    """`value` as an int: an int, or a float with a whole value. Any other
    value raises TypeError, ValueError or OverflowError, as `int` does."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    number = int(value)
    if number != value:
        raise ValueError(f"{value!r} is not a whole number")
    return number


def valid_sample_rate(rate: float) -> bool:
    """Whether `rate` can be a series' sample rate in Hz: finite and > 0."""
    return 0 < rate < np.inf


def valid_series_name(name: str) -> bool:
    """Whether `name` can name a series: it fits one header line and does
    not start or end with whitespace."""
    return len(name.splitlines()) <= 1 and name.strip() == name


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A 1-D real-valued sequence, optionally with a physical sample rate
    and a name that fits one header line.

    `values` is copied, so the caller's array cannot reach the series,
    unless `owned` says that nothing else holds it: a float64 array is then
    frozen in place.
    """

    values: np.ndarray
    sample_rate_hz: Optional[float] = None
    name: str = ""
    owned: InitVar[bool] = False

    __eq__ = value_eq

    def __post_init__(self, owned):
        object.__setattr__(self, "values", frozen_array(self.values, copy=None if owned else True))
        if self.values.ndim != 1:
            raise DataError(f"series values must be 1-D, got {self.values.ndim} dimensions")
        # min or max is NaN or infinite when any value is: no series-long mask.
        if self.values.size and not np.isfinite([self.values.min(), self.values.max()]).all():
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise DataError(f"non-finite value at index {bad}", index=bad)
        if self.sample_rate_hz is not None and not valid_sample_rate(self.sample_rate_hz):
            raise DataError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if not valid_series_name(self.name):
            raise DataError(f"series name {self.name!r} must not contain a line break "
                            "or start or end with whitespace")

    def __len__(self) -> int:
        return int(self.values.shape[0])


def check_class_id(class_id: str) -> None:
    """Raise DataError for a class id that a CSV row or header cannot hold."""
    if "," in class_id or len(class_id.splitlines()) != 1 or class_id.strip() != class_id:
        raise DataError(f"class id {class_id!r} must not contain a comma or a line break, "
                        "be empty, or start or end with whitespace")


@dataclass(frozen=True)
class Region:
    """One weakly labeled region (bag): [start, end) of a single class."""

    start: int
    end: int
    class_id: str


@dataclass(frozen=True)
class LabelTrack:
    """Ordered, non-overlapping weak labels over a series of known length.

    Gaps between regions implicitly belong to OTHER_CLASS; no region may
    carry it explicitly, and each class id must fit a CSV row.
    """

    series_length: int
    regions: tuple

    def __post_init__(self):
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", regions)
        if self.series_length < 0:
            raise DataError("series_length must be >= 0")
        prev = None
        for k, r in enumerate(regions):
            check_class_id(r.class_id)
            where = f"region [{r.start},{r.end})"
            if r.class_id == OTHER_CLASS:
                raise DataError(f"{where} carries reserved class {OTHER_CLASS}", index=k)
            if not (0 <= r.start < r.end <= self.series_length):
                raise DataError(f"{where} outside [0,{self.series_length})", index=k)
            if prev is not None and r.start < prev.start:
                raise DataError(f"{where} is out of order", index=k)
            if prev is not None and r.start < prev.end:
                raise DataError(f"{where} overlaps previous end {prev.end}", index=k)
            prev = r

    def class_regions(self, class_id: str) -> tuple:
        return tuple(r for r in self.regions if r.class_id == class_id)


@dataclass(frozen=True, eq=False)
class FeatureSpec:
    """One feature a local model evaluates per subsequence.

    ``query`` is only meaningful for kind=shape; it may be left None at
    configuration time, in which case training selects a prototype.
    """

    kind: str
    id: str = ""
    query: Optional[np.ndarray] = None

    __eq__ = value_eq

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        if not self.id:
            object.__setattr__(self, "id", self.kind)
        if self.query is not None:
            if self.kind != SHAPE:
                raise DataError(f"feature kind {self.kind!r} takes no query")
            q = frozen_array(self.query)
            if q.ndim != 1:
                raise DataError(f"shape query must be 1-D, got {q.ndim} dimensions")
            if not np.all(np.isfinite(q)):
                bad = int(np.flatnonzero(~np.isfinite(q))[0])
                raise DataError(f"non-finite value at index {bad}", index=bad)
            object.__setattr__(self, "query", q)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Equal-width histogram: len(counts) bins bounded by len(counts)+1 edges."""

    edges: np.ndarray
    counts: np.ndarray

    __eq__ = value_eq

    def __post_init__(self):
        edges = frozen_array(self.edges)
        raw = np.asarray(self.counts)
        try:
            with np.errstate(invalid="ignore"):  # a count the cast changes (1.5, NaN) fails below
                counts = frozen_array(raw, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            counts = None
        if counts is None or not np.array_equal(counts, raw):
            raise DataError("histogram counts must be whole numbers below 2**63")
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise DataError("histogram needs len(edges) == len(counts) + 1")
        if counts.size < 1:
            raise DataError("histogram needs at least one bin")
        if not np.all(np.isfinite(edges)):
            raise DataError("histogram edges must be finite")
        if not np.all(edges[:-1] < edges[1:]):
            raise DataError("histogram edges must be strictly increasing")
        # Python floats: a span past float64's range is inf, with no warning.
        if not np.isfinite(float(edges[-1]) - float(edges[0])):
            raise DataError("histogram edges must span a finite width")
        if np.any(counts < 0):
            raise DataError("histogram counts must be non-negative")
        if not counts.any():
            raise DataError("histogram counts must not all be zero")
        # Python ints: an int64 sum would wrap.
        if sum(counts.tolist()) >= 2**63:
            raise DataError("histogram counts must sum below 2**63")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.densities())):
                raise DataError("histogram bins must be wide enough for a finite density")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def densities(self) -> np.ndarray:
        """Density of each bin: its count over total * bin width."""
        return self.counts / (self.total * np.diff(self.edges))

    @property
    def range_width(self) -> float:
        return float(self.edges[-1] - self.edges[0])


def union_width(pos_hist: Histogram, neg_hist: Histogram) -> float:
    """Width of the range two histograms span together (inf past float64)."""
    return (max(float(pos_hist.edges[-1]), float(neg_hist.edges[-1]))
            - min(float(pos_hist.edges[0]), float(neg_hist.edges[0])))


def check_class(
    class_id: str, m: int, exclusion_zone: int, specs: Sequence[FeatureSpec],
    prior: Optional[float],
) -> None:
    """The rules of a class in training and in a model: an id a CSV row can
    hold that is not OTHER_CLASS, at least one feature, m >= 1,
    exclusion_zone >= 0, a prior in (0, 1) (None: not yet known), and
    length-m shape queries."""
    check_class_id(class_id)
    if class_id == OTHER_CLASS:
        raise DataError(f"{OTHER_CLASS} is reserved and cannot be trained")
    if not specs:
        raise DataError(f"class {class_id!r} has no features")
    if m < 1:
        raise DataError(f"m of class {class_id!r} must be >= 1, got {m}")
    if exclusion_zone < 0:
        raise DataError("exclusion_zone must be >= 0")
    if prior is not None and not 0.0 < prior < 1.0:
        raise DataError(f"prior must be in (0,1), got {prior}")
    for spec in specs:
        if spec.query is not None and spec.query.size != m:
            raise DataError(f"shape feature {spec.id!r} needs a length-{m} query, "
                            f"got length {spec.query.size}")


@dataclass(frozen=True)
class ClassModel:
    """Per-class local model: one (pos, neg) histogram pair per feature.

    Every shape feature holds its query, and each pair's floor densities,
    1 / ((total + 1) * width), stay above 0.
    """

    class_id: str
    m: int
    exclusion_zone: int
    features: tuple  # of (FeatureSpec, pos_hist, neg_hist)
    prior: float

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        check_class(self.class_id, self.m, self.exclusion_zone,
                    [spec for spec, _, _ in self.features], self.prior)
        for spec, pos_hist, neg_hist in self.features:
            if spec.kind == SHAPE and spec.query is None:
                raise DataError(f"shape feature {spec.id!r} needs a length-{self.m} query")
            # The union spans each histogram's own range, so this covers both floor modes.
            span = (max(pos_hist.total, neg_hist.total) + 1) * union_width(pos_hist, neg_hist)
            if not np.isfinite(span):
                raise DataError(f"histograms of feature {spec.id!r} span too wide a range "
                                "for their counts: the floor density would be 0")


@dataclass(frozen=True, eq=False)
class PredictionTrack:
    """The detections over the n - m + 1 subsequence start positions.

    Detection k sits at `positions[k]` (ascending), with class
    `class_ids[label_codes[k]]` and score `scores[k]`. Every other position
    is OTHER_CLASS (rejected, suppressed, or skipped by the stride).
    """

    class_ids: tuple
    positions: np.ndarray
    label_codes: np.ndarray
    scores: np.ndarray
    m: int
    series_length: int
    stride: int = 1
    sample_rate_hz: Optional[float] = None

    __eq__ = value_eq

    def __len__(self) -> int:
        return self.series_length - self.m + 1

    def hits(self, class_id: str) -> np.ndarray:
        """Ascending positions of the class's detections (none for a class
        outside `class_ids`)."""
        if class_id not in self.class_ids:
            return self.positions[:0]
        return self.positions[self.label_codes == self.class_ids.index(class_id)]

    def detections(self) -> list:
        """(position, class_id, score) for every detection."""
        return list(zip(self.positions.tolist(),
                        [self.class_ids[c] for c in self.label_codes.tolist()],
                        self.scores.tolist()))


@dataclass(frozen=True)
class ClassifierConfig:
    """Classification-time knobs.

    ``thresholds`` holds per-class multiplicative weights (default 1.0 for
    classes not listed); the detection cutoff itself is ``decision_floor``.
    """

    thresholds: Mapping[str, float] = field(default_factory=dict)
    decision_floor: float = 0.5
    stride: int = 1
    nb_denominator: str = NB_STANDARD
    small_value_mode: str = FLOOR_UNION

    def __post_init__(self):
        object.__setattr__(self, "thresholds", dict(self.thresholds))
        for cls, thr in self.thresholds.items():
            if not 0 < thr < np.inf:
                raise DataError(f"threshold for {cls!r} must be > 0 and finite, got {thr}")
        if not (0.0 <= self.decision_floor <= 1.0):
            raise DataError(f"decision_floor must be in [0,1], got {self.decision_floor}")
        if self.stride < 1:
            raise DataError(f"stride must be >= 1, got {self.stride}")
        if self.nb_denominator not in (NB_STANDARD, NB_PAPER_LITERAL):
            raise DataError(f"unknown nb_denominator {self.nb_denominator!r}")
        if self.small_value_mode not in (FLOOR_UNION, FLOOR_OWN):
            raise DataError(f"unknown small_value_mode {self.small_value_mode!r}")

    def threshold_for(self, class_id: str) -> float:
        return float(self.thresholds.get(class_id, 1.0))

    def replace_threshold(self, class_id: str, weight: float) -> "ClassifierConfig":
        return replace(self, thresholds={**self.thresholds, class_id: weight})


@dataclass(frozen=True)
class ConfusionMatrix:
    """Bag-level 2x2 counts for one class under the MIL protocol."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn
