"""Bag-level MIL scoring, summary metrics, the modality comparison grid,
ROC sweeps, and the leave-one-out 1NN machinery used by the motivating
experiments.

The comparison grid and the ROC sweep score the test series once
(`score_blocks`), which holds only the columns that a sweep at the
configured stride can visit, those at multiples of the visit step g, and
feed each run of that pass to one `Sweep` each, as `classify` does: the
grid to one per variant, the ROC sweep to one per weight, after
re-weighting the swept class's row of the run. Their `bags` is the
LabelTrack, or a function that makes it from the series length, called
when the pass ends: a streamed series' length is known only then.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .core import (
    SHAPE,
    ClassifierConfig,
    ClassModel,
    ConfusionMatrix,
    DataError,
    LabelTrack,
    ModelError,
    PredictionTrack,
    TimeSeries,
    frozen_array,
    value_eq,
)
from .model import Sweep, above_floor, score_blocks
from .profiles import BLOCK, znormalize

#: Whole-instance metrics for the leave-one-out 1NN classifier.
ZNORM_ED = "znorm_ed"
COMPLEXITY_DIFF = "complexity_diff"


@dataclass(frozen=True)
class RocPoint:
    """One operating point of a per-class threshold-weight sweep."""

    threshold_weight: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    tn: int


def mil_confusion(predictions: PredictionTrack, bags: LabelTrack, class_id: str) -> ConfusionMatrix:
    """Bag-level counts: one hit inside a bag decides the whole bag.

    A detection lies inside a bag when its window start index falls in
    [bag.start, bag.end). Bags of the class score tp/fn; bags of any other
    class score fp/tn; detections in unlabeled gaps are ignored.
    """
    if predictions.series_length != bags.series_length:
        raise DataError(
            f"predictions cover a series of length {predictions.series_length}, "
            f"labels one of length {bags.series_length}"
        )
    length = len(predictions)
    hits = predictions.hits(class_id)
    regions = bags.regions
    starts = np.fromiter((r.start for r in regions), dtype=np.int64, count=len(regions))
    ends = np.fromiter((min(r.end, length) for r in regions), dtype=np.int64, count=len(regions))
    hit = np.searchsorted(hits, ends) > np.searchsorted(hits, starts)
    own = np.fromiter((r.class_id == class_id for r in regions), dtype=bool, count=len(regions))
    return ConfusionMatrix(
        tp=int(np.count_nonzero(hit & own)),
        fp=int(np.count_nonzero(hit & ~own)),
        fn=int(np.count_nonzero(~hit & own)),
        tn=int(np.count_nonzero(~hit & ~own)),
    )


def metrics(cm: ConfusionMatrix) -> Tuple[float, float, float]:
    """(precision, recall, accuracy) with 0/0 ratios defined as 1."""
    if cm.total == 0:
        raise DataError("confusion matrix holds no bags")
    precision = 1.0 if cm.tp + cm.fp == 0 else cm.tp / (cm.tp + cm.fp)
    recall = 1.0 if cm.tp + cm.fn == 0 else cm.tp / (cm.tp + cm.fn)
    accuracy = (cm.tp + cm.tn) / cm.total
    return precision, recall, accuracy


Bags = Union[LabelTrack, Callable[[int], LabelTrack]]


def _bags_of(bags: Bags, track: PredictionTrack) -> LabelTrack:
    """`bags`, or what it makes of the series length `track` covers."""
    return bags(track.series_length) if callable(bags) else bags


def compare_variants(
    models: Sequence[ClassModel],
    test: TimeSeries,
    bags: Bags,
    cfg: ClassifierConfig,
) -> List[Tuple[str, str, ConfusionMatrix, float, float, float]]:
    """(variant, class, confusion, precision, recall, accuracy) rows.

    shape-only and feature-only runs keep only features of that kind; a
    class with no feature of the kind drops out of that run (and scores
    recall 0 on its own bags). A run left with no classes at all predicts
    nothing, so a single-modality model degenerates to that modality's run.
    All three runs take their tables from one scoring pass.
    """
    variants = [
        ("shape", lambda spec: spec.kind == SHAPE),
        ("feature", lambda spec: spec.kind != SHAPE),
        ("combined", None),
    ]
    ids, blocks = score_blocks(models, test, cfg, [keep for _, keep in variants])
    runs = [Sweep(models, test, class_ids, cfg) for class_ids in ids]
    for lo, tables in blocks:
        for run, block in zip(runs, tables):
            run.feed(lo, block)
    tracks = [run.track() for run in runs]
    bags = _bags_of(bags, tracks[0])
    rows = []
    for (name, _), track in zip(variants, tracks):
        for mo in models:
            cm = mil_confusion(track, bags, mo.class_id)
            rows.append((name, mo.class_id, cm, *metrics(cm)))
    return rows


def roc_sweep(
    models: Sequence[ClassModel],
    test: TimeSeries,
    bags: Bags,
    cfg: ClassifierConfig,
    class_id: str,
    weights: Sequence[float],
) -> List[RocPoint]:
    """One operating point per threshold weight of `class_id`, scored with MIL.

    The series is scored once. Each weight re-weights that class's row of
    each run and feeds the run to its own sweep; the above-floor mask of
    the other rows is built once per run. A `class_id` that no model
    has is a ModelError.
    """
    if not weights:
        raise DataError("need at least one weight")
    for prev, w in zip([-np.inf, *weights], weights):
        if not w > 0:
            raise DataError(f"weights must be positive, got {w}")
        if w < prev:
            raise DataError("weights must be sorted ascending")
    if not any(mo.class_id == class_id for mo in models):
        raise ModelError(f"no model for class {class_id!r}")
    # At weight 1 the swept row is the class's unweighted combined probability.
    [ids], blocks = score_blocks(models, test, cfg.replace_threshold(class_id, 1.0), [None])
    runs = [Sweep(models, test, ids, cfg) for _ in weights]
    swept = ids.index(class_id)
    floor = cfg.decision_floor
    for lo, (block,) in blocks:
        rest = above_floor((row for k, row in enumerate(block) if k != swept),
                           block.shape[1], floor)
        base = block[swept].copy()
        for w, run in zip(weights, runs):
            row = np.multiply(base, float(w), out=block[swept])
            above = row >= floor
            above |= rest
            run.feed(lo, block, above)
    tracks = [run.track() for run in runs]
    bags = _bags_of(bags, tracks[0])
    points = []
    for w, track in zip(weights, tracks):
        cm = mil_confusion(track, bags, class_id)
        precision, recall, _ = metrics(cm)
        points.append(RocPoint(float(w), precision, recall, cm.tp, cm.fp, cm.fn, cm.tn))
    return points


@dataclass(frozen=True, eq=False)
class InstanceConfusion:
    """K x K instance-level confusion matrix (rows actual, columns predicted)."""

    classes: tuple
    counts: np.ndarray

    __eq__ = value_eq

    def __post_init__(self):
        object.__setattr__(self, "counts", frozen_array(self.counts, dtype=np.int64))

    def cell(self, actual: str, predicted: str) -> int:
        return int(self.counts[self.classes.index(actual), self.classes.index(predicted)])

    def error_rate(self) -> float:
        return 1.0 - int(np.trace(self.counts)) / int(self.counts.sum())


def _complexity_of(z: np.ndarray) -> float:
    return float(np.sqrt((np.diff(z) ** 2).sum()))


def nearest_neighbor_predictions(
    instances: Sequence[Tuple[np.ndarray, str]],
    metric: str = ZNORM_ED,
) -> List[str]:
    """Leave-one-out 1NN predictions, ties to the lower original index."""
    if len(instances) < 2:
        raise DataError("need at least two instances")
    length = np.asarray(instances[0][0]).size
    for values, _ in instances:
        if np.asarray(values).size != length:
            raise DataError("instances must share one length")
    z = np.stack([znormalize(np.asarray(values, dtype=np.float64)) for values, _ in instances])
    if metric == ZNORM_ED:
        sq = (z * z).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
        d = np.sqrt(np.maximum(d2, 0.0))
    elif metric == COMPLEXITY_DIFF:
        ce = np.array([_complexity_of(row) for row in z])
        d = np.abs(ce[:, None] - ce[None, :])
    else:
        raise DataError(f"unknown metric {metric!r}")
    np.fill_diagonal(d, np.inf)
    nn = np.argmin(d, axis=1)  # first minimum = lowest index on ties
    return [instances[int(j)][1] for j in nn]


def loocv_1nn(
    instances: Sequence[Tuple[np.ndarray, str]],
    metric: str = ZNORM_ED,
) -> InstanceConfusion:
    """Classic leave-one-out 1NN over whole instances.

    znorm_ed compares z-normalized instances by Euclidean distance;
    complexity_diff compares |CE(a) - CE(b)| of the z-normalized instances.
    Counts instances, not bags.
    """
    preds = nearest_neighbor_predictions(instances, metric)
    # Predictions come from the instances, so their classes cover them.
    classes = list(dict.fromkeys(cls for _, cls in instances))
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for (_, actual), predicted in zip(instances, preds):
        counts[index[actual], index[predicted]] += 1
    return InstanceConfusion(classes=tuple(classes), counts=counts)


def oracle_confusion(
    pred_a: Sequence[str], pred_b: Sequence[str], truth: Sequence[str]
) -> float:
    """Error rate of the oracle combiner: wrong only when both inputs are wrong."""
    if len(pred_a) != len(truth) or len(pred_b) != len(truth):
        raise DataError("prediction and truth lengths differ")
    if not truth:
        raise DataError("need at least one instance")
    wrong = sum(1 for a, b, t in zip(pred_a, pred_b, truth) if a != t and b != t)
    return wrong / len(truth)


def detection_frequency(
    predictions: PredictionTrack,
    class_id: str,
    window: int,
    step: int,
) -> Iterator[Tuple[int, int]]:
    """(start, count of class detections) per sliding window of `window` samples."""
    if window < 1 or step < 1:
        raise DataError("window and step must be >= 1")
    length = len(predictions)
    # Clamped so a huge window or step cannot overflow int64; counts are unchanged.
    return _window_counts(predictions.hits(class_id), length, min(window, length),
                          max(1, min(step, length)))


def _window_counts(hits: np.ndarray, length: int, window: int, step: int):
    """Stream the (start, count) pairs, one `searchsorted` pair per BLOCK windows."""
    for first in range(0, length, step * BLOCK):
        starts = np.arange(first, min(first + step * BLOCK, length), step)
        ends = np.minimum(starts + window, length)
        counts = np.searchsorted(hits, ends) - np.searchsorted(hits, starts)
        yield from zip(starts.tolist(), counts.tolist())
