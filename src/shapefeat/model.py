"""Per-class local models: training, probability profiles, and classification.

Training and scoring build their profiles in one pass over the slices of
`profiles.profile_blocks`. Training writes them into one [feature, window]
table (`profile_table`) and turns each row into a pair of value histograms
(class / non-class). Scoring (`score_blocks`) keeps one block at a time: it
writes the block's profiles into one buffer (`feature_profiles`), turns
them in place into (class, feature) local probabilities, combines each
class's locals with a Naive Bayes product, weights it by the class's
threshold, and yields the block's columns of a [class, position] table
per feature predicate, so the variant grid scores the series once.
A `Sweep` takes those blocks in order and goes left to right with
exclusion-zone suppression, so no full-length table is ever built.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    FLOOR_UNION,
    NB_PAPER_LITERAL,
    NB_STANDARD,
    SHAPE,
    ClassModel,
    ClassifierConfig,
    DataError,
    FeatureSpec,
    Histogram,
    LabelTrack,
    ModelError,
    PredictionTrack,
    TimeSeries,
    check_class,
    union_width,
)
from .profiles import feature_profiles, profile_blocks, profile_table, znormalize

#: Probability floor applied to local models before multiplying.
EPS_PROB = 1e-12

#: Positions per density lookup in a scoring pass. Each lookup's
#: temporaries are then a few arrays of this length, which the allocator
#: reuses; block-long ones were trimmed from the heap and faulted back in
#: every block (the lookups of a streamed `classify` took 15.7k page faults
#: at 65,536 positions, 258 at this length).
LOOKUP = 1 << 14


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


def _floor_density(hist: Histogram, joint_width: float, mode: str) -> float:
    width = joint_width if mode == FLOOR_UNION else hist.range_width
    return 1.0 / ((hist.total + 1) * max(width, 1e-12))


def _density_table(hist: Histogram, floor: float) -> np.ndarray:
    """nbins + 2 densities, one per lookup slot: the floor below the first
    edge, one density per bin (the floor for an empty bin), and the floor
    past the last edge (and for NaN)."""
    dens = hist.densities()
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
    # est now holds each slot's bounds in turn. Every slot is in range, so
    # "clip" changes no value, and spares `take` a buffered copy.
    hit = np.take(bounds[:-1], slot, out=est, mode="clip") <= v
    hit &= v < np.take(bounds[1:], slot, out=est, mode="clip")
    miss = np.flatnonzero(~hit)
    if miss.size:
        slot[miss] = np.searchsorted(bounds[1:-1], v[miss], side="right")
    return slot


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
    into `out` (a buffer of the profile's length, or the profile itself)
    when given. Scoring passes runs of `LOOKUP` positions of a block, so
    the temporaries are that long; both densities are taken before `out`
    is written.
    """
    joint_width = union_width(pos_hist, neg_hist)
    pos_table, neg_table = (
        _density_table(h, _floor_density(h, joint_width, small_value_mode))
        for h in (pos_hist, neg_hist)
    )
    dp = np.take(pos_table, _slots(pos_hist.edges, profile))
    dn = np.take(neg_table, _slots(neg_hist.edges, profile))
    dn += dp
    return np.divide(dp, dn, out=out)


def combine_naive_bayes(
    locals_: Sequence,
    prior: float,
    mode: str = NB_STANDARD,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multiply local probabilities and divide by the class prior.

    Locals are 1-D arrays of probabilities of one length: in scoring, one
    block of `profiles.profile_blocks`, so the temporaries are a block long.
    standard: divide by prior^(k-1) for k locals (exact Bayes form; the
    identity for k=1). paper-literal: divide by the prior exactly once
    regardless of k. Locals are floored at 1e-12 before multiplying and the
    result is clamped to [0, 1]. It is written into `out` (a buffer of the
    locals' length, or the first local, but no other) when given.
    """
    if not locals_:
        raise ModelError("need at least one local probability profile")
    if not (0.0 < prior < 1.0):
        raise DataError(f"prior must be in (0,1), got {prior}")
    length = len(locals_[0])
    for v in locals_[1:]:
        if len(v) != length:
            raise DataError("local profiles must share one length")
    if mode not in (NB_STANDARD, NB_PAPER_LITERAL):
        raise DataError(f"unknown nb_denominator {mode!r}")
    denom = prior ** (len(locals_) - 1) if mode == NB_STANDARD else prior
    prod = np.maximum(locals_[0], EPS_PROB, out=out)
    for v in locals_[1:]:
        prod *= np.maximum(v, EPS_PROB)
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
    z = np.stack([znormalize(x[s : s + m]) for s in starts])
    # Not the Gram identity: it rounds differently and can move the medoid.
    # One buffer for every row's squared differences: a pair of fresh
    # [candidate, m] temporaries per row can cost a page fault per page.
    diff = np.empty_like(z)
    totals = []
    for row in z:
        np.subtract(row, z, out=diff)
        np.multiply(diff, diff, out=diff)
        totals.append(np.sqrt(diff.sum(axis=1)).sum())
    best = int(np.argmin(totals))
    s = starts[best]
    return x[s : s + m].copy()


def _positions(train: TimeSeries, m: int) -> int:
    """n - m + 1, the number of length-m windows of `train` (none: DataError)."""
    if m > len(train):
        raise DataError(f"subsequence length {m} exceeds series length {len(train)}")
    return len(train) - m + 1


def compute_distributions(
    train: TimeSeries, labels: LabelTrack, specs: Sequence[ClassSpec]
) -> List[Tuple[Histogram, Histogram]]:
    """Class / non-class value histograms of every (class, feature) local,
    in model order, then feature order, from one `profile_table`.

    The specs share one m and name distinct classes (`train` checks both),
    and every shape feature holds its query. Position i touches a region
    when [i, i + e) meets it, e the class's exclusion zone:
    [max(0, start - e + 1), min(n - m + 1, end)); none when e == 0. Per
    feature, the class's regions in order each claim the lowest-valued
    touching position no earlier region has claimed (ties, and NaN last, as
    a stable sort orders them). Claimed values feed the class list and
    untouched positions the non-class list.
    """
    m = specs[0].m
    length = _positions(train, m)
    owners = []  # (class_id, exclusion_zone, spans) of each local
    for spec in specs:
        regions = labels.class_regions(spec.class_id)
        if not regions:
            raise ModelError(f"no labeled regions of class {spec.class_id!r}")
        e = spec.exclusion_zone
        spans = [(max(0, r.start - e + 1), min(length, r.end)) for r in regions] if e > 0 else []
        owners += [(spec.class_id, e, spans)] * len(spec.features)
    out: List[Tuple[Histogram, Histogram]] = []
    table = profile_table(train, [f for spec in specs for f in spec.features], m)
    for v, (class_id, e, spans) in zip(table, owners):
        touch = np.zeros(length, dtype=bool)
        claimed = np.zeros(length, dtype=bool)
        for lo, hi in spans:
            touch[lo:hi] = True
            free = lo + np.flatnonzero(~claimed[lo:hi])
            if free.size:
                claimed[free[np.argsort(v[free], kind="stable")[0]]] = True
        if not claimed.any():
            raise ModelError(
                f"no snippet claims a region of class {class_id!r} (exclusion_zone={e})"
            )
        n_values = v[~touch]
        if n_values.size == 0:
            raise ModelError(f"class {class_id!r} labels leave no non-class snippets")
        # Ascending, the order claims are made in: np.max keeps a zero's sign.
        p_values = np.sort(v[claimed], kind="stable")
        out.append((histogram_build(p_values), histogram_build(n_values)))
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
        check_class(self.class_id, self.m, self.exclusion_zone, self.features, self.prior)


def train(
    train_series: TimeSeries,
    labels: LabelTrack,
    class_specs: Sequence[ClassSpec],
) -> List[ClassModel]:
    """Fit one ClassModel per spec from one `compute_distributions` pass.

    The specs must share one m and name distinct classes, as models must.
    Shape features without an explicit query get the medoid prototype of
    their class. The prior defaults to the empirical fraction of snippet
    positions that claimed a region; pass ClassSpec.prior to override.
    """
    m = _check_models(class_specs)
    length = _positions(train_series, m)
    specs = [replace(spec, features=tuple(
        replace(f, query=select_prototype(train_series, labels, spec.class_id, m))
        if f.kind == SHAPE and f.query is None else f
        for f in spec.features
    )) for spec in class_specs]
    pairs = iter(compute_distributions(train_series, labels, specs))
    models: List[ClassModel] = []
    for spec in specs:
        # zip draws exactly one pair per feature of this class.
        features = tuple((f, pos_h, neg_h) for f, (pos_h, neg_h) in zip(spec.features, pairs))
        prior = spec.prior if spec.prior is not None else features[0][1].total / length
        models.append(ClassModel(class_id=spec.class_id, m=m, exclusion_zone=spec.exclusion_zone,
                                 features=features, prior=prior))
    return models


def _check_models(models: Sequence) -> int:
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


def score_blocks(
    models: Sequence[ClassModel],
    test: TimeSeries,
    cfg: ClassifierConfig,
    keeps: Sequence[Optional[Callable[[FeatureSpec], bool]]],
) -> Tuple[List[tuple], Iterator[Tuple[int, List[np.ndarray]]]]:
    """The one scoring pass over the test series: the class ids of each
    `keep` predicate's table, and an iterator of (lo, [block table per keep])
    per `profile_blocks` block. `test` is a series or a `data.SeriesStream`,
    read once by the iterator; a series shorter than m is a ModelError
    when its one slice comes.

    A block table holds columns lo, lo + 1, ... of a [class, position]
    table: each class's Naive Bayes combination of its locals whose spec
    passes `keep` (all when None), times its threshold weight; a class with
    no kept local drops out. Each block's profiles become local
    probabilities in one block buffer, `LOOKUP` positions at a time, from
    which every table takes its rows. The tables are buffers one block
    long, which the next block overwrites.
    """
    m = _check_models(models)
    locals_ = [feature for mo in models for feature in mo.features]
    plans = []  # per keep: [(model, block rows of its kept locals)]
    for keep in keeps:
        groups, first = [], 0
        for mo in models:
            rows = [first + k for k, (spec, _, _) in enumerate(mo.features)
                    if keep is None or keep(spec)]
            first += len(mo.features)
            if rows:
                groups.append((mo, rows))
        plans.append(groups)

    def blocks():
        probs = tables = None
        for lo, hi, xs in profile_blocks(test, m):
            if hi <= lo:
                raise ModelError(f"test series of length {xs.size} is shorter than m={m}")
            if probs is None:  # the first block is the longest
                probs = np.empty((len(locals_), hi - lo))
                tables = [np.empty((len(groups), hi - lo)) for groups in plans]
            block = feature_profiles(xs, [f for f, _, _ in locals_], m, probs[:, : hi - lo])
            for a in range(0, hi - lo, LOOKUP):
                for (_, pos_h, neg_h), row in zip(locals_, block[:, a : a + LOOKUP]):
                    compute_probability(pos_h, neg_h, row, cfg.small_value_mode, out=row)
            out = [table[:, : hi - lo] for table in tables]
            for groups, table in zip(plans, out):
                for row, (mo, rows) in zip(table, groups):
                    combine_naive_bayes([block[i] for i in rows], mo.prior,
                                        cfg.nb_denominator, out=row)
                    row *= cfg.threshold_for(mo.class_id)
            yield lo, out

    return [tuple(mo.class_id for mo, _ in groups) for groups in plans], blocks()


def class_probabilities(
    models: Sequence[ClassModel],
    test: TimeSeries,
    cfg: ClassifierConfig,
    keep: Optional[Callable[[FeatureSpec], bool]] = None,
) -> Tuple[tuple, np.ndarray]:
    """(class_ids, [class, position] table) of the locals that pass `keep`
    (all when None) over a loaded series: the blocks of `score_blocks`,
    assembled."""
    [ids], blocks = score_blocks(models, test, cfg, [keep])
    # No column for a series shorter than m, whose pass raises ModelError.
    table = np.empty((len(ids), max(len(test) - models[0].m + 1, 0)))
    for lo, (block,) in blocks:
        table[:, lo : lo + block.shape[1]] = block
    return ids, table


def above_floor(rows, width: int, floor: float) -> np.ndarray:
    """Mask of the `width` columns where any of `rows` reaches `floor`
    (none when there are no rows)."""
    above = np.zeros(width, dtype=bool)
    for row in rows:
        above |= row >= floor
    return above


class Sweep:
    """Suppression sweep of one [class, position] table of `models` over
    `test`, fed its column blocks in order.

    Visit positions 0, stride, 2 * stride, ...; a visit at or above the
    floor emits its argmax class and jumps max(stride, e + 1) instead, e
    that class's exclusion zone. Between detections the visits stay in one
    stride phase, so one binary search finds the next one in a block.
    `pos`, the next position to visit, carries across block edges. A
    detection scores its class's weighted probability. The series length
    is the end of the last block fed; `test` gives the sample rate.
    """

    def __init__(self, models: Sequence[ClassModel], test, class_ids: tuple,
                 cfg: ClassifierConfig):
        self.models, self.test, self.class_ids, self.cfg = models, test, class_ids, cfg
        zone_of = {mo.class_id: mo.exclusion_zone for mo in models}
        self.jumps = [max(cfg.stride, zone_of[c] + 1) for c in class_ids]
        self.pos = self.end = 0
        self.positions, self.codes, self.scores = array("q"), array("i"), array("d")

    def feed(self, lo: int, block: np.ndarray, above: Optional[np.ndarray] = None) -> None:
        """Sweep columns lo, lo + 1, ... of the table, held in `block`
        [class, column]; `above` is the block's at-or-above-floor mask of
        columns (`above_floor`), when the caller has it."""
        width = block.shape[1]
        hi, pos, stride = lo + width, self.pos, self.cfg.stride
        self.end = hi
        if above is None:
            above = above_floor(block, width, self.cfg.decision_floor)
        # Above-floor columns c ordered by (phase, c), the key of position
        # lo + c being its phase (lo + c) % period times width, plus c. Two
        # positions below hi share a phase of `stride` exactly when they
        # share one of `period`, which keeps the keys in int64.
        period = min(stride, hi)
        keys = np.flatnonzero(above)
        if period > 1:
            keys += (keys + lo) % period * width
            keys.sort()
        while pos < hi:
            base = pos % period * width - lo
            # ndarray methods: the np.* wrappers cost more than one short search.
            k = int(keys.searchsorted(base + pos))
            if k == keys.size or keys[k] >= base + hi:
                # No later visit of this phase in the block: go to its first
                # position at or past the block's end.
                pos += -(-(hi - pos) // stride) * stride
                break
            hit = int(keys[k]) - base
            col = block[:, hit - lo]
            w = int(col.argmax())
            self.positions.append(hit)
            self.codes.append(w)
            self.scores.append(col[w])
            pos = hit + self.jumps[w]
        self.pos = pos

    def track(self) -> PredictionTrack:
        """The detections of the blocks fed so far."""
        return PredictionTrack(
            class_ids=self.class_ids,
            positions=np.array(self.positions, dtype=np.int64),
            label_codes=np.array(self.codes, dtype=np.int32),
            scores=np.array(self.scores, dtype=np.float64),
            m=self.models[0].m,
            series_length=self.end + self.models[0].m - 1,
            stride=self.cfg.stride,
            sample_rate_hz=self.test.sample_rate_hz,
        )


def sweep(
    models: Sequence[ClassModel],
    test: TimeSeries,
    class_ids: tuple,
    weighted: np.ndarray,
    cfg: ClassifierConfig,
) -> PredictionTrack:
    """`Sweep` of a whole [class, position] table, fed as one block."""
    run = Sweep(models, test, class_ids, cfg)
    run.feed(0, weighted)
    return run.track()


def classify(
    models: Sequence[ClassModel],
    test: TimeSeries,
    cfg: ClassifierConfig,
) -> PredictionTrack:
    """Single left-to-right pass over the weighted combined probabilities.

    At each unsuppressed position the argmax class (ties to the lower model
    index) is emitted when its weighted probability reaches the decision
    floor; a detection suppresses the next exclusion_zone positions of every
    class. All other positions carry OTHER_CLASS. The sweep takes each
    block of the scoring pass as it comes.
    """
    [ids], blocks = score_blocks(models, test, cfg, [None])
    run = Sweep(models, test, ids, cfg)
    for lo, (block,) in blocks:
        run.feed(lo, block)
    return run.track()
