"""Per-class local models: training, probability profiles, and classification.

Training and scoring build their profiles in passes over the slices of
`profiles.profile_blocks`, so neither holds a full-length array. Training
(`compute_distributions`) takes each slice's profiles one feature at a
time, in two passes: the first settles each region's claim and the range
of the values no region touches, the second counts those values into the
non-class histogram's bins. Scoring (`score_blocks`) copies one block of
profiles at a time, only the columns a sweep at stride k can visit (those
at multiples of gcd(k, every class's jump)), and scores it in runs of
`LOOKUP` columns: it turns a run into (class, feature) local
probabilities, combines each class's locals with a Naive Bayes product,
weights it by the class's threshold, and yields the run's columns of a
[class, position] table per feature predicate, so the variant grid scores
the series once. A `Sweep` reads only those runs, in order, and goes left
to right with exclusion-zone suppression, so no full-length table is ever
built.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
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
from .profiles import profile_blocks, slice_profiles, znormalize

#: Probability floor applied to local models before multiplying.
EPS_PROB = 1e-12

#: Columns per run of a scoring pass: per density lookup, Naive Bayes
#: combination and yielded table. Each lookup's temporaries are then a few
#: arrays of this length, which the allocator reuses; block-long ones were
#: trimmed from the heap and faulted back in every block (the lookups of a
#: streamed `classify` took 15.7k page faults at 65,536 positions, 258 at
#: this length).
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
        raise DataError(_NOT_FINITE)
    # + 0.0 makes a zero edge 0.0 whichever zero numpy's min or max picks.
    lo = float(v.min()) + 0.0
    hi = float(v.max()) + 0.0
    bins = _bin_count(v.size, lo, hi)
    if bins is None:
        return _narrow_bin(v.size, lo)
    counts, edges = np.histogram(v, bins=bins, range=(lo, hi))
    return Histogram(edges=edges, counts=counts.astype(np.int64))


_NOT_FINITE = "histogram values must be finite"


def _bin_count(count: int, lo: float, hi: float) -> Optional[int]:
    """The bins of `histogram_build` for `count` values from lo to hi:
    clamp(ceil(sqrt(count)), 10, 256), or None when that many equal-width
    edges do not rise (np.histogram's edges, which must)."""
    bins = int(min(max(np.ceil(np.sqrt(count)), 10), 256))
    edges = np.linspace(lo, hi, bins + 1)
    return None if np.any(edges[:-1] >= edges[1:]) else bins


def _narrow_bin(count: int, lo: float) -> Histogram:
    """One bin of nominal width 1e-8 * max(1, |lo|) centered on lo, holding `count` values."""
    eps = 1e-8 * max(1.0, abs(lo))
    return Histogram(edges=np.array([lo - eps / 2.0, lo + eps / 2.0]), counts=[count])


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
        # Scaled to the raised last bound, so the last edge's own value
        # lands in the last bin rather than one slot past it.
        est *= nbins / (bounds[-2] - edges[0])
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
    when given. Scoring passes runs of `LOOKUP` columns, so the
    temporaries are that long; both densities are taken before `out` is
    written.
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
    run of `LOOKUP` columns, so the temporaries are a run long.
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


def select_prototype(train, labels: LabelTrack, class_id: str, m: int) -> np.ndarray:
    """Medoid subsequence among the class's labeled regions.

    Candidates are length-m windows fully inside a region of the class,
    sampled every max(1, m // 2) positions; the winner minimizes the summed
    z-normalized Euclidean distance to the other candidates, ties going to
    the earliest start. `train` is a series or an open `data.SeriesFile`,
    whose `read` fills each slice: one pass copies out the candidates,
    which lie inside the labeled regions.
    """
    step = max(1, m // 2)
    starts: List[int] = []
    for r in labels.class_regions(class_id):
        if r.end - r.start >= m:
            starts.extend(range(r.start, r.end - m + 1, step))
    if not starts:
        raise ModelError(
            f"no labeled region of class {class_id!r} holds a length-{m} subsequence"
        )
    windows = np.empty((len(starts), m))
    filled = 0
    for lo, hi, xs in profile_blocks(train, m):
        end = bisect_left(starts, hi)
        for k in range(filled, end):
            windows[k] = xs[starts[k] - lo : starts[k] - lo + m]
        filled = end
    if filled < len(starts):
        raise DataError(f"a region of class {class_id!r} reaches past the series' end")
    z = znormalize(windows)
    # Not the Gram identity: it rounds differently and can move the medoid.
    # One buffer for every row's squared differences: a pair of fresh
    # [candidate, m] temporaries per row can cost a page fault per page.
    diff = np.empty_like(z)
    totals = []
    for row in z:
        np.subtract(row, z, out=diff)
        np.multiply(diff, diff, out=diff)
        totals.append(np.sqrt(diff.sum(axis=1)).sum())
    return windows[int(np.argmin(totals))].copy()


def _positions(train, m: int) -> int:
    """n - m + 1, the number of length-m windows of `train` (none: DataError)."""
    if m > len(train):
        raise DataError(f"subsequence length {m} exceeds series length {len(train)}")
    return len(train) - m + 1


class _Spans:
    """Where the regions of one class claim positions, of `length`: region
    j's span [max(0, start - e + 1), min(length, end)), the positions i
    whose [i, i + e) meets it, e the class's exclusion zone (none when
    e == 0); empty spans, past the last window, are dropped.

    A region claims the lowest position of its span that no earlier region
    of the class took. Only the earlier spans that meet its own take
    positions from it, one each, so the `needs[j]` = (their count + 1)
    lowest positions of span j hold its claim."""

    def __init__(self, labels: LabelTrack, spec, length: int):
        regions = labels.class_regions(spec.class_id)
        if not regions:
            raise ModelError(f"no labeled regions of class {spec.class_id!r}")
        self.class_id, self.e = spec.class_id, spec.exclusion_zone
        spans = [(max(0, r.start - self.e + 1), min(length, r.end)) for r in regions]
        # Regions ascend, so both ends of the spans ascend.
        spans = [(a, b) for a, b in spans if a < b] if self.e > 0 else []
        self.starts = [a for a, _ in spans]
        self.ends = [b for _, b in spans]
        self.needs = [j - bisect_right(self.ends, a, 0, j) + 1 for j, a in enumerate(self.starts)]

    def cut(self, lo: int, hi: int) -> Tuple[list, np.ndarray]:
        """The spans that meet windows lo..hi-1, as (j, s, t) with [s, t)
        relative to lo, and the mask of the windows that no span touches."""
        untouched = np.ones(hi - lo, dtype=bool)
        cuts = []
        for j in range(bisect_right(self.ends, lo), bisect_left(self.starts, hi)):
            s, t = max(self.starts[j], lo) - lo, min(self.ends[j], hi) - lo
            untouched[s:t] = False
            cuts.append((j, s, t))
        return cuts, untouched


def _lowest(v: np.ndarray, count: int, first: int) -> List[Tuple[float, int]]:
    """(value, position) of the `count` lowest values of v, position
    `first` being v's first, in the order of a stable ascending sort: ties
    to the earliest, NaN last."""
    if count == 1:
        i = int(v.argmin())  # the first NaN, when there is one
        if not math.isnan(v[i]):
            return [(float(v[i]), first + i)]
    at = np.argsort(v, kind="stable")[:count]
    return list(zip(v[at].tolist(), (at + first).tolist()))


def _order(claim: Tuple[float, int]) -> tuple:
    """`_lowest`'s order of (value, position) pairs."""
    value, position = claim
    return (True, 0.0, position) if math.isnan(value) else (False, value, position)


def compute_distributions(train, labels: LabelTrack, specs: Sequence[ClassSpec]
                          ) -> List[Tuple[Histogram, Histogram]]:
    """Class / non-class value histograms of every (class, feature) local,
    in model order, then feature order.

    The specs share one m and name distinct classes (`train` checks both),
    and every shape feature holds its query. Position i touches a region
    when [i, i + e) meets it, e the class's exclusion zone:
    [max(0, start - e + 1), min(n - m + 1, end)); none when e == 0. Per
    feature, the class's regions in order each claim the lowest-valued
    touching position no earlier region has claimed (ties, and NaN last, as
    a stable sort orders them). Claimed values feed the class list and
    untouched positions the non-class list.

    `train` is a series or an open `data.SeriesFile`, whose `read` fills
    each slice. It is read in two passes that take each slice's profiles
    one feature at a time, so no profile is longer than a block.
    The first keeps, per region, the lowest positions of its span that can
    hold its claim (`_Spans`), and the count, min and max of the untouched
    values; the second sums each block's np.histogram counts of the
    untouched values, which np.histogram bins one by one, so the sums are
    the whole-array counts. The min and the max, the edges, are taken
    block by block and then made signless, as `histogram_build` makes its
    own, so a zero edge is 0.0 whatever the blocks and the zeros' order.
    """
    m = specs[0].m
    length = _positions(train, m)
    classes = [_Spans(labels, spec, length) for spec in specs]
    features = [f for spec in specs for f in spec.features]
    owners = [owner for owner, spec in zip(classes, specs) for _ in spec.features]
    # Per local and region: the lowest (value, position) pairs of its span.
    lowest: List[list] = [[[] for _ in owner.needs] for owner in owners]
    # Per local: [count, min, max] of its untouched values; NaN or inf
    # makes the min or the max non-finite.
    untouched = [[0, math.inf, -math.inf] for _ in owners]
    for lo, hi, xs in profile_blocks(train, m):
        cuts = {}
        profiles = slice_profiles(xs, features, m)
        for v, owner, found, seen in zip(profiles, owners, lowest, untouched):
            if owner not in cuts:
                cuts[owner] = owner.cut(lo, hi)
            spans, keep = cuts[owner]
            for j, s, t in spans:
                pairs = _lowest(v[s:t], owner.needs[j], lo + s)
                if found[j]:  # a span across blocks: the lowest of both
                    pairs = sorted(found[j] + pairs, key=_order)[: owner.needs[j]]
                found[j] = pairs
            u = v[keep]
            if u.size:
                seen[0] += u.size
                # NaN, which u.min() and u.max() give when u holds one, stays.
                seen[1] = float(np.minimum(seen[1], u.min()))
                seen[2] = float(np.maximum(seen[2], u.max()))
    out: List[Tuple[Histogram, Optional[Histogram]]] = []
    rest = []  # (local, bins, min, max) of the non-class histograms still to count
    for k, (owner, found, (count, lo, hi)) in enumerate(zip(owners, lowest, untouched)):
        claims = _claims(found)
        if not claims:
            raise ModelError(
                f"no snippet claims a region of class {owner.class_id!r} "
                f"(exclusion_zone={owner.e})"
            )
        if not count:
            raise ModelError(f"class {owner.class_id!r} labels leave no non-class snippets")
        pos_h = histogram_build([value for _, value in claims])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DataError(_NOT_FINITE)
        lo, hi = lo + 0.0, hi + 0.0  # a signless zero, as in histogram_build
        bins = _bin_count(count, lo, hi)
        if bins is None:
            out.append((pos_h, _narrow_bin(count, lo)))
        else:
            out.append((pos_h, None))
            rest.append((k, bins, lo, hi))
    if rest:
        counts = [0] * len(rest)
        edges = [None] * len(rest)
        for lo, hi, xs in profile_blocks(train, m):
            cuts = {}
            profiles = slice_profiles(xs, [features[k] for k, *_ in rest], m)
            for i, (v, (k, bins, first, last)) in enumerate(zip(profiles, rest)):
                if owners[k] not in cuts:
                    cuts[owners[k]] = owners[k].cut(lo, hi)
                block_counts, edges[i] = np.histogram(v[cuts[owners[k]][1]], bins=bins,
                                                      range=(first, last))
                counts[i] += block_counts
        for (k, *_), total, bin_edges in zip(rest, counts, edges):
            out[k] = (out[k][0], Histogram(edges=bin_edges, counts=total.astype(np.int64)))
    return out


def _claims(lowest: List[list]) -> List[Tuple[int, float]]:
    """(position, value) of each region's claim: in region order, the
    first of its span's lowest pairs whose position no earlier region took."""
    taken, claims = set(), []
    for pairs in lowest:
        for value, position in pairs:
            if position not in taken:
                taken.add(position)
                claims.append((position, value))
                break
    return claims


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
    train_series,
    labels: LabelTrack,
    class_specs: Sequence[ClassSpec],
) -> List[ClassModel]:
    """Fit one ClassModel per spec from one `compute_distributions` call.

    The specs must share one m and name distinct classes, as models must.
    Shape features without an explicit query get the medoid prototype of
    their class. The prior defaults to the empirical fraction of snippet
    positions that claimed a region; pass ClassSpec.prior to override.
    `train_series` is a loaded series or an open `data.SeriesFile`, whose
    snapshot is read once per medoid and twice to profile, one slice at a
    time.
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


def _visit_step(models: Sequence[ClassModel], cfg: ClassifierConfig) -> int:
    """g, the step of the only columns a sweep can visit: the gcd of the
    stride and every class's jump max(stride, e + 1). A sweep starts at 0
    and moves by the stride or a jump, so it stays on multiples of g."""
    return math.gcd(cfg.stride, *(max(cfg.stride, mo.exclusion_zone + 1) for mo in models))


def score_blocks(
    models: Sequence[ClassModel],
    test: TimeSeries,
    cfg: ClassifierConfig,
    keeps: Sequence[Optional[Callable[[FeatureSpec], bool]]],
) -> Tuple[List[tuple], Iterator[Tuple[int, List[np.ndarray]]]]:
    """The one scoring pass over the test series: the class ids of each
    `keep` predicate's table, and an iterator of (lo, [run table per keep])
    per run of at most `LOOKUP` columns. `test` is a series or a
    `data.SeriesFile`, whose `read` fills each slice as the iterator asks
    for it; a series shorter than m is a ModelError at once, from
    `len(test)`.

    The pass holds only the columns a sweep at `cfg.stride` can visit,
    those at positions that are multiples of g = `_visit_step`. A run table
    holds the columns at positions lo, lo + g, lo + 2g, ... of a [class,
    position] table: each class's Naive Bayes combination of its locals
    whose spec passes `keep` (all when None), times its threshold weight;
    a class with no kept local drops out.

    Each `profile_blocks` block's profiles (the block sets the FFT size,
    and so the output bits) are copied at step g into one block buffer,
    so every run is a contiguous slice: its lookups write the local
    probabilities in place, and every table takes its rows from them. The
    tables are buffers one run long, which the next run overwrites.
    """
    m = _check_models(models)
    if len(test) < m:
        raise ModelError(f"test series of length {len(test)} is shorter than m={m}")
    step = _visit_step(models, cfg)
    locals_ = [feature for mo in models for feature in mo.features]
    plans = []  # per keep: [(model, run rows of its kept locals)]
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
        block = tables = None
        for lo, hi, xs in profile_blocks(test, m):
            if block is None:  # the first block is the longest
                # One block wide at every stride: sized to the visit width,
                # the heap trimmed and faulted it back on every call.
                block = np.empty((len(locals_), hi - lo))
                cols = min(LOOKUP, -(-(hi - lo) // step))  # of the longest run
                tables = [np.empty((len(groups), cols)) for groups in plans]
            start = -lo % step  # the block's first visit column
            visits = block[:, : -(-(hi - lo - start) // step)]
            for row, profile in zip(visits, slice_profiles(xs, [f for f, _, _ in locals_], m)):
                row[:] = profile[start::step]
            del profile  # not held through the lookups and the next block
            for a in range(0, visits.shape[1], LOOKUP):
                run = visits[:, a : a + LOOKUP]
                for (_, pos_h, neg_h), row in zip(locals_, run):
                    compute_probability(pos_h, neg_h, row, cfg.small_value_mode, out=row)
                out = [table[:, : run.shape[1]] for table in tables]
                for groups, table in zip(plans, out):
                    for row, (mo, rows) in zip(table, groups):
                        combine_naive_bayes([run[i] for i in rows], mo.prior,
                                            cfg.nb_denominator, out=row)
                        row *= cfg.threshold_for(mo.class_id)
                yield lo + start + a * step, out

    return [tuple(mo.class_id for mo, _ in groups) for groups in plans], blocks()


def class_probabilities(
    models: Sequence[ClassModel],
    test: TimeSeries,
    cfg: ClassifierConfig,
    keep: Optional[Callable[[FeatureSpec], bool]] = None,
) -> Tuple[tuple, np.ndarray]:
    """(class_ids, [class, position] table) of the locals that pass `keep`
    (all when None) over a loaded series: the runs of `score_blocks` at
    stride 1, every column, assembled; a `Sweep` reads `table[:, ::g]`."""
    [ids], blocks = score_blocks(models, test, replace(cfg, stride=1), [keep])
    table = np.empty((len(ids), len(test) - models[0].m + 1))
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
    `test`, fed its runs in order.

    Visit positions 0, stride, 2 * stride, ...; a visit at or above the
    floor emits its argmax class and jumps max(stride, e + 1) instead, e
    that class's exclusion zone. Between detections the visits stay in one
    stride phase, so one binary search finds the next one in a block.
    `pos`, the next column to visit, carries across block edges. A
    detection scores its class's weighted probability. `test` (a series
    or a `data.SeriesFile`) gives the series length and sample rate.

    The runs are those of `score_blocks` for the same models and stride,
    the one path of classify, compare and roc. Their columns are the
    positions at multiples of its step g (`_visit_step`), the only ones a
    sweep can visit, so the sweep counts in columns, the stride and the
    jumps divided by g. Positions stay in series coordinates, and the
    series length is `len(test)`.
    """

    def __init__(self, models: Sequence[ClassModel], test, class_ids: tuple,
                 cfg: ClassifierConfig):
        self.models, self.test, self.class_ids, self.cfg = models, test, class_ids, cfg
        self.step = _visit_step(models, cfg)
        zone_of = {mo.class_id: mo.exclusion_zone for mo in models}
        self.stride = cfg.stride // self.step
        self.jumps = [max(cfg.stride, zone_of[c] + 1) // self.step for c in class_ids]
        self.pos = 0
        self.positions, self.codes, self.scores = array("q"), array("i"), array("d")

    def feed(self, lo: int, block: np.ndarray, above: Optional[np.ndarray] = None) -> None:
        """Sweep the block's columns, at positions lo, lo + g, ... of the
        table, held in `block` [class, column]; `above` is the block's
        at-or-above-floor mask of columns (`above_floor`), when the caller
        has it."""
        width = block.shape[1]
        lo = -(-lo // self.step)  # in columns from here on
        hi, pos, stride = lo + width, self.pos, self.stride
        if above is None:
            above = above_floor(block, width, self.cfg.decision_floor)
        # Above-floor columns c ordered by (phase, c), the key of column
        # lo + c being its phase (lo + c) % period times width, plus c. Two
        # columns below hi share a phase of `stride` exactly when they
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
                # column at or past the block's end.
                pos += -(-(hi - pos) // stride) * stride
                break
            hit = int(keys[k]) - base
            col = block[:, hit - lo]
            w = int(col.argmax())
            self.positions.append(hit * self.step)
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
            series_length=len(self.test),
            stride=self.cfg.stride,
            sample_rate_hz=self.test.sample_rate_hz,
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
    class. All other positions carry OTHER_CLASS. The sweep takes each
    run of the scoring pass as it comes.
    """
    [ids], blocks = score_blocks(models, test, cfg, [None])
    run = Sweep(models, test, ids, cfg)
    for lo, (block,) in blocks:
        run.feed(lo, block)
    return run.track()
