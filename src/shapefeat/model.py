"""Per-class local models: training, probability profiles, and classification.

Both training and scoring build their profiles in one pass of
`profiles.feature_profiles`, which shares one `sliding_stats` and one series
spectrum across the profiles of a pass. Training turns each feature profile
into a pair of value histograms (class / non-class). Classification scores a
test series once (`score_locals`: every (class, feature) local probability),
combines the locals per class with a Naive Bayes product, weights by
per-class thresholds (`weighted_table`), and sweeps left to right with
exclusion-zone suppression (`sweep`). Variant and threshold sweeps
re-combine the same scores.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    FLOOR_UNION,
    NB_PAPER_LITERAL,
    NB_STANDARD,
    OTHER_CLASS,
    SHAPE,
    ClassModel,
    ClassifierConfig,
    DataError,
    FeatureSpec,
    Histogram,
    LabelTrack,
    ModelError,
    TimeSeries,
    check_class_id,
    value_eq,
)
from .profiles import feature_profiles, znormalize

#: Probability floor applied to local models before multiplying.
EPS_PROB = 1e-12


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
        return [
            (p, self.class_ids[c], s)
            for p, c, s in zip(
                self.positions.tolist(), self.label_codes.tolist(), self.scores.tolist()
            )
        ]


def histogram_build(values) -> Histogram:
    """Equal-width histogram with clamp(ceil(sqrt(len)), 10, 256) bins.

    An all-identical sample, or one whose range is too narrow for that many
    distinct equal-width edges, produces a single bin of nominal width
    1e-8 * max(1, |min|) centered on its minimum.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise DataError("cannot build a histogram from no values")
    if not np.all(np.isfinite(v)):
        raise DataError("histogram values must be finite")
    lo = float(v.min())
    hi = float(v.max())
    bins = int(min(max(np.ceil(np.sqrt(v.size)), 10), 256))
    edges = np.linspace(lo, hi, bins + 1)  # np.histogram's, which must rise
    if np.any(edges[:-1] >= edges[1:]):
        eps = 1e-8 * max(1.0, abs(lo))
        edges = np.array([lo - eps / 2.0, lo + eps / 2.0])
        return Histogram(edges=edges, counts=[v.size])
    counts, edges = np.histogram(v, bins=bins, range=(lo, hi))
    return Histogram(edges=edges, counts=counts.astype(np.int64))


def _floor_density(hist: Histogram, union_width: float, mode: str) -> float:
    width = union_width if mode == FLOOR_UNION else hist.range_width
    return 1.0 / ((hist.total + 1) * max(width, 1e-12))


def _density_table(hist: Histogram, floor: float) -> np.ndarray:
    """nbins + 2 densities, one per lookup slot: the floor below the first
    edge, one density per bin (the floor for an empty bin), and the floor
    past the last edge (and for NaN)."""
    dens = hist.counts / (hist.total * np.diff(hist.edges))
    dens[dens == 0.0] = floor
    return np.concatenate(([floor], dens, [floor]))


def _slots(edges: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lookup slot of each value: searchsorted(edges, v, side="right"),
    except that a value equal to the last edge falls in the last bin.

    The slot is first estimated as if the bins were equal-width, then
    checked against its two bounds; only the misses (uneven bins, rounding
    next to an edge, NaN) are searched, so any strictly increasing edges
    give the searched slot.
    """
    nbins = edges.size - 1
    # Raising the last edge one ulp puts a value equal to it in the last
    # bin and moves nothing else.
    bounds = np.concatenate(([-np.inf], edges, [np.inf]))
    bounds[-2] = np.nextafter(bounds[-2], np.inf)
    with np.errstate(all="ignore"):  # a bad estimate only misses the check
        est = np.subtract(v, edges[0])
        est *= nbins / (edges[-1] - edges[0])
        est += 1.0
    np.fmax(est, 0.0, out=est)  # NaN goes to 0, and misses
    np.fmin(est, nbins + 1, out=est)
    slot = est.astype(np.intp)
    hit = bounds[:-1][slot] <= v
    hit &= v < bounds[1:][slot]
    miss = np.flatnonzero(~hit)
    if miss.size:
        slot[miss] = np.searchsorted(bounds[1:-1], v[miss], side="right")
    return slot


#: Positions per block of `compute_probability`'s lookup.
LOOKUP_BLOCK = 65_536


def compute_probability(
    pos_hist: Histogram,
    neg_hist: Histogram,
    profile: np.ndarray,
    small_value_mode: str = FLOOR_UNION,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-position P(class) = dens_pos / (dens_pos + dens_neg).

    A value outside a histogram's range, or in an empty bin, takes that
    histogram's floor density 1 / ((total + 1) * full_range_width); with the
    default policy the full range spans both histograms, so floors stay small
    even for narrowly concentrated class histograms. The result is written
    into `out` (a buffer of the profile's length) when given, and the lookup
    runs in blocks of LOOKUP_BLOCK positions.
    """
    union_width = float(
        max(pos_hist.edges[-1], neg_hist.edges[-1])
        - min(pos_hist.edges[0], neg_hist.edges[0])
    )
    pos_table, neg_table = (
        _density_table(h, _floor_density(h, union_width, small_value_mode))
        for h in (pos_hist, neg_hist)
    )
    if out is None:
        out = np.empty(profile.size)
    neg_block = np.empty(min(profile.size, LOOKUP_BLOCK))
    for start in range(0, profile.size, LOOKUP_BLOCK):
        v = profile[start : start + LOOKUP_BLOCK]
        dp = np.take(pos_table, _slots(pos_hist.edges, v), out=out[start : start + v.size])
        dn = np.take(neg_table, _slots(neg_hist.edges, v), out=neg_block[: v.size])
        dn += dp
        np.divide(dp, dn, out=dp)
    return out


def combine_naive_bayes(
    locals_: Sequence,
    prior: float,
    mode: str = NB_STANDARD,
) -> np.ndarray:
    """Multiply local probabilities and divide by the class prior.

    Locals are 1-D arrays of probabilities of one length.
    standard: divide by prior^(k-1) for k locals (exact Bayes form; the
    identity for k=1). paper-literal: divide by the prior exactly once
    regardless of k. Locals are floored at 1e-12 before multiplying and the
    result is clamped to [0, 1].
    """
    if not locals_:
        raise ModelError("need at least one local probability profile")
    if not (0.0 < prior < 1.0):
        raise DataError(f"prior must be in (0,1), got {prior}")
    length = len(locals_[0])
    for v in locals_[1:]:
        if len(v) != length:
            raise DataError("local profiles must share one length")
    prod = np.ones(length)
    for v in locals_:
        prod *= np.maximum(v, EPS_PROB)
    k = len(locals_)
    denom = prior ** (k - 1) if mode == NB_STANDARD else prior
    if mode not in (NB_STANDARD, NB_PAPER_LITERAL):
        raise DataError(f"unknown nb_denominator {mode!r}")
    prod /= denom
    return np.clip(prod, 0.0, 1.0, out=prod)


def select_prototype(train: TimeSeries, labels: LabelTrack, class_id: str, m: int) -> np.ndarray:
    """Medoid subsequence among the class's labeled regions.

    Candidates are length-m windows fully inside a region of the class,
    sampled every max(1, m // 2) positions; the winner minimizes the summed
    z-normalized Euclidean distance to the other candidates, ties going to
    the earliest start.
    """
    x = train.values
    step = max(1, m // 2)
    starts: List[int] = []
    for r in labels.class_regions(class_id):
        if r.end - r.start >= m:
            starts.extend(range(r.start, r.end - m + 1, step))
    if not starts:
        raise ModelError(
            f"no labeled region of class {class_id!r} holds a length-{m} subsequence"
        )
    if len(starts) == 1:
        return x[starts[0] : starts[0] + m].copy()
    z = np.stack([znormalize(x[s : s + m]) for s in starts])
    # Not the Gram identity: it rounds differently and can move the medoid.
    totals = [np.sqrt(((row - z) ** 2).sum(axis=1)).sum() for row in z]
    best = int(np.argmin(totals))
    s = starts[best]
    return x[s : s + m].copy()


def compute_distributions(
    train: TimeSeries,
    labels: LabelTrack,
    class_id: str,
    features: Sequence[FeatureSpec],
    m: int,
    exclusion_zone: int,
) -> List[Tuple[Histogram, Histogram]]:
    """Class / non-class value histograms for every feature.

    Position i touches a region when [i, i + e) meets it, e the exclusion
    zone: [max(0, start - e + 1), min(n - m + 1, end)); none when e == 0.
    Per feature, the class's regions in order each claim the lowest-valued
    touching position no earlier region has claimed (ties, and NaN last, as
    a stable sort orders them). Claimed values feed the class list and
    untouched positions the non-class list.
    """
    n = len(train)
    if m > n:
        raise DataError(f"subsequence length {m} exceeds series length {n}")
    length = n - m + 1
    regions = labels.class_regions(class_id)
    if not regions:
        raise ModelError(f"no labeled regions of class {class_id!r}")
    spans = [
        (max(0, r.start - exclusion_zone + 1), min(length, r.end)) for r in regions
    ] if exclusion_zone > 0 else []
    touch = np.zeros(length, dtype=bool)
    for lo, hi in spans:
        touch[lo:hi] = True
    out: List[Tuple[Histogram, Histogram]] = [None] * len(features)
    for k, v in feature_profiles(train, features, m):
        claimed = np.zeros(length, dtype=bool)
        for lo, hi in spans:
            free = lo + np.flatnonzero(~claimed[lo:hi])
            if free.size:
                claimed[free[np.argsort(v[free], kind="stable")[0]]] = True
        if not claimed.any():
            raise ModelError(
                f"no snippet claims a region of class {class_id!r} "
                f"(exclusion_zone={exclusion_zone})"
            )
        n_values = v[~touch]
        if n_values.size == 0:
            raise ModelError(f"class {class_id!r} labels leave no non-class snippets")
        # Ascending, the order claims are made in: np.max keeps a zero's sign.
        p_values = np.sort(v[claimed], kind="stable")
        out[k] = (histogram_build(p_values), histogram_build(n_values))
    return out


@dataclass(frozen=True)
class ClassSpec:
    """Training request for one class."""

    class_id: str
    m: int
    exclusion_zone: int
    features: tuple
    prior: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        check_class_id(self.class_id)
        if self.class_id == OTHER_CLASS:
            raise DataError(f"{OTHER_CLASS} is reserved and cannot be trained")
        if not self.features:
            raise DataError(f"class {self.class_id!r} requests no features")
        if self.prior is not None and not (0.0 < self.prior < 1.0):
            raise DataError(f"prior must be in (0,1), got {self.prior}")


def train(
    train_series: TimeSeries,
    labels: LabelTrack,
    class_specs: Sequence[ClassSpec],
) -> List[ClassModel]:
    """Fit one ClassModel per spec.

    Shape features without an explicit query get the medoid prototype of
    their class. The prior defaults to the empirical fraction of snippet
    positions that claimed a region; pass ClassSpec.prior to override.
    """
    n = len(train_series)
    models: List[ClassModel] = []
    for spec in class_specs:
        resolved: List[FeatureSpec] = []
        for f in spec.features:
            if f.kind == SHAPE and f.query is None:
                query = select_prototype(train_series, labels, spec.class_id, spec.m)
                f = FeatureSpec(kind=SHAPE, id=f.id, query=query)
            resolved.append(f)
        dists = compute_distributions(
            train_series, labels, spec.class_id, resolved, spec.m, spec.exclusion_zone
        )
        prior = spec.prior if spec.prior is not None else dists[0][0].total / (n - spec.m + 1)
        features = tuple(
            (f, pos_h, neg_h) for f, (pos_h, neg_h) in zip(resolved, dists)
        )
        models.append(
            ClassModel(
                class_id=spec.class_id,
                m=spec.m,
                exclusion_zone=spec.exclusion_zone,
                features=features,
                prior=prior,
            )
        )
    return models


def _check_models(models: Sequence[ClassModel]) -> int:
    if not models:
        raise ModelError("no models given")
    m = models[0].m
    for mo in models[1:]:
        if mo.m != m:
            raise ModelError(
                f"all models must share one subsequence length; got {m} and {mo.m}"
            )
    seen = set()
    for mo in models:
        if mo.class_id in seen:
            raise ModelError(f"duplicate model for class {mo.class_id!r}")
        seen.add(mo.class_id)
    return m


@dataclass(frozen=True, eq=False)
class LocalScores:
    """Every (class, feature) local probability over one test series: one
    [local, position] array, rows in model order, then feature order."""

    models: tuple
    values: np.ndarray
    test: TimeSeries


def score_locals(
    models: Sequence[ClassModel], test: TimeSeries, small_value_mode: str = FLOOR_UNION
) -> LocalScores:
    """One scoring pass (`feature_profiles`) over the locals of every class."""
    m = _check_models(models)
    if len(test) < m:
        raise ModelError(f"test series of length {len(test)} is shorter than m={m}")
    locals_ = [feature for mo in models for feature in mo.features]
    values = np.empty((len(locals_), len(test) - m + 1))
    for r, prof in feature_profiles(test, [spec for spec, _, _ in locals_], m):
        _, pos_h, neg_h = locals_[r]
        compute_probability(pos_h, neg_h, prof, small_value_mode, out=values[r])
        del prof  # before the next profile is built
    return LocalScores(models=tuple(models), values=values, test=test)


def weighted_table(
    scores: LocalScores,
    cfg: ClassifierConfig,
    keep: Optional[Callable[[FeatureSpec], bool]] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[tuple, np.ndarray]:
    """(class_ids, [class, position] table): each class's Naive Bayes
    combination of its locals whose spec passes `keep` (all when None),
    times its threshold weight.

    A class with no kept local drops out. The rows are written into `out`
    (a [n_classes, n - m + 1] buffer, reusable across calls) when given.
    """
    if out is None:
        out = np.empty((len(scores.models), scores.values.shape[1]))
    ids = []
    rows = iter(scores.values)
    for mo in scores.models:
        # zip draws exactly one row per feature of this class.
        kept = [row for (spec, _, _), row in zip(mo.features, rows) if keep is None or keep(spec)]
        if kept:
            combined = combine_naive_bayes(kept, mo.prior, cfg.nb_denominator)
            np.multiply(combined, cfg.threshold_for(mo.class_id), out=out[len(ids)])
            ids.append(mo.class_id)
    return tuple(ids), out[: len(ids)]


def class_probabilities(
    models: Sequence[ClassModel],
    test: TimeSeries,
    cfg: ClassifierConfig,
) -> Tuple[tuple, np.ndarray]:
    """(class_ids, [class, position] table): the `weighted_table` of one
    `score_locals` pass."""
    return weighted_table(score_locals(models, test, cfg.small_value_mode), cfg)


def sweep(
    scores: LocalScores, class_ids: tuple, weighted: np.ndarray, cfg: ClassifierConfig
) -> PredictionTrack:
    """Suppression sweep of a `weighted_table` of `scores`.

    Visit positions 0, stride, 2 * stride, ...; a visit at or above the
    floor emits its argmax class and jumps max(stride, e + 1) instead, e
    that class's exclusion zone. Between detections the visits stay in one
    stride phase, so one binary search finds the next one. A detection
    scores its class's weighted probability.
    """
    zone_of = {mo.class_id: mo.exclusion_zone for mo in scores.models}
    zones = [zone_of[c] for c in class_ids]
    length = weighted.shape[1]
    # A stride past the end visits position 0 only, as `length` does.
    stride = min(cfg.stride, max(length, 1))
    # A table without rows detects nothing.
    hits = np.flatnonzero((weighted >= cfg.decision_floor).any(axis=0))
    # Above-floor positions ordered by (phase, position); phase < length.
    keys = np.sort(hits % stride * length + hits)
    positions, codes, values = [], [], []
    pos = 0
    while pos < length:
        base = pos % stride * length
        k = int(np.searchsorted(keys, base + pos))
        if k == keys.size or keys[k] >= base + length:
            break
        hit = int(keys[k]) - base
        w = int(np.argmax(weighted[:, hit]))
        positions.append(hit)
        codes.append(w)
        values.append(weighted[w, hit])
        pos = hit + max(stride, int(zones[w]) + 1)
    return PredictionTrack(
        class_ids=class_ids,
        positions=np.array(positions, dtype=np.int64),
        label_codes=np.array(codes, dtype=np.int32),
        scores=np.array(values, dtype=np.float64),
        m=scores.models[0].m,
        series_length=len(scores.test),
        stride=cfg.stride,
        sample_rate_hz=scores.test.sample_rate_hz,
    )


def classify(
    models: Sequence[ClassModel],
    test: TimeSeries,
    cfg: ClassifierConfig,
) -> PredictionTrack:
    """Single left-to-right pass over the weighted combined probabilities.

    At each unsuppressed position the argmax class (ties to the lower model
    index) is emitted when its weighted probability reaches the decision
    floor; a detection suppresses the next exclusion_zone positions of every
    class. All other positions carry OTHER_CLASS.
    """
    scores = score_locals(models, test, cfg.small_value_mode)
    return sweep(scores, *weighted_table(scores, cfg), cfg)
