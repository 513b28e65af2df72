import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from shapefeat.core import (
    COMPLEXITY,
    FLOOR_OWN,
    FLOOR_UNION,
    NB_PAPER_LITERAL,
    NB_STANDARD,
    SHAPE,
    SLIDING_MEAN,
    SLIDING_STD,
    ClassifierConfig,
    ClassModel,
    DataError,
    FeatureSpec,
    Histogram,
    LabelTrack,
    ModelError,
    Region,
    ShapefeatError,
    TimeSeries,
)
from shapefeat.data import normals, uniforms
from shapefeat.evaluate import compare_variants, metrics, mil_confusion, roc_sweep
from shapefeat.model import (
    ClassSpec,
    Sweep,
    class_probabilities,
    classify,
    combine_naive_bayes,
    compute_distributions,
    compute_probability,
    histogram_build,
    score_blocks,
    select_prototype,
    train,
)
from shapefeat.profiles import (
    BLOCK,
    distance_profile_mass,
    generate_profile,
    profile_table,
    znormalize,
)


def plant_bursts(n, m, starts, template, noise_seed, noise_scale=1.0):
    """Noise series with `template` written at each start position."""
    x = normals(noise_seed, n) * noise_scale
    for s in starts:
        x[s : s + len(template)] = template
    return x


class TestHistogramBuild:
    def test_bin_count_formula(self):
        h = histogram_build(uniforms(1, 100))
        assert h.counts.size == 10

    def test_small_samples_clamp_to_ten_bins(self):
        h = histogram_build([0.0, 1.0, 2.0, 5.0])
        assert h.counts.size == 10

    def test_degenerate_sample(self):
        h = histogram_build([3.0, 3.0, 3.0, 3.0])
        assert h.counts.size == 1
        assert h.total == 4
        assert h.edges[0] < 3.0 < h.edges[1]

    def test_uniform_counts_within_multinomial_bound(self):
        values = uniforms(42, 10_000)
        h = histogram_build(values)
        assert h.counts.size == 100
        expected = 10_000 / 100
        bound = 5.0 * np.sqrt(10_000 * 0.01 * 0.99)
        assert np.all(np.abs(h.counts - expected) <= bound)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="cannot build a histogram from no values"):
            histogram_build([])

    @pytest.mark.parametrize(
        "values",
        [[1.0, 1.0 + 2**-52], [0.1] * 150 + [0.10000000000000003] * 50, [-5e300, -5e300 + 2**948]],
    )
    def test_range_too_narrow_for_the_bins(self, values):
        # np.histogram cannot split these ranges into 10 or more bins.
        h = histogram_build(values)
        assert h.counts.tolist() == [len(values)]
        assert h.edges[0] < min(values) and max(values) < h.edges[1]


def profile_of(values):
    return np.asarray(values, float)


def reference_probability(pos, neg, v, mode):
    """Per-value oracle of the documented rule. A histogram's density at v
    is that of the largest bin k with edges[k] <= v (the last edge closes
    the last bin); v outside the range, or in an empty bin, takes the floor
    1 / ((total + 1) * width), width spanning both histograms (union) or
    the histogram's own range."""
    union = max(pos.edges[-1], neg.edges[-1]) - min(pos.edges[0], neg.edges[0])

    def density(h):
        edges, counts = h.edges, h.counts
        width = union if mode == FLOOR_UNION else edges[-1] - edges[0]
        floor = 1.0 / ((h.total + 1) * max(width, 1e-12))
        if not edges[0] <= v <= edges[-1]:
            return floor
        k = min(max(i for i in range(len(edges)) if edges[i] <= v), len(counts) - 1)
        if counts[k] == 0:
            return floor
        return counts[k] / (h.total * (edges[k + 1] - edges[k]))

    dp, dn = density(pos), density(neg)
    return dp / (dp + dn)


# Histogram samples: values on a grid of scale / 1000 steps, which keeps the
# edges distinct, or a constant sample (the single-bin histogram).
_samples = st.builds(
    lambda units, scale, offset: offset + scale * np.asarray(units) / 1000.0,
    st.one_of(
        st.lists(st.integers(0, 1000), min_size=1, max_size=300),
        st.builds(lambda u, n: [u] * n, st.integers(0, 1000), st.integers(1, 50)),
    ),
    st.sampled_from([1e-3, 1.0, 250.0]),
    st.sampled_from([0.0, -7.5, 1e8]),
)


def _with_empty_bins(hist, zeroed):
    """`hist` with the bins flagged in `zeroed` emptied; one stays filled."""
    counts = np.where(zeroed[: hist.counts.size], 0, hist.counts)
    if counts.sum() == 0:
        counts[np.argmax(hist.counts)] = 1
    return Histogram(edges=hist.edges, counts=counts)


@st.composite
def _uneven_histograms(draw):
    """Strictly increasing edges of uneven widths, at scales 1e-12 to 1e12
    and offsets up to 1e8 (edges that round together merge), with empty
    bins."""
    widths = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=40))
    scale = draw(st.sampled_from([1e-12, 1e-3, 1.0, 1e6, 1e12]))
    offset = draw(st.sampled_from([0.0, -7.5, 1e8]))
    edges = np.unique(offset + scale * np.cumsum([0.0, *widths]))
    if edges.size < 2:
        edges = np.array([offset, np.nextafter(offset, np.inf)])
    counts = draw(
        st.lists(st.integers(0, 50), min_size=edges.size - 1, max_size=edges.size - 1).filter(any)
    )
    return Histogram(edges=edges, counts=counts)


class TestComputeProbability:
    def test_equal_densities_give_half(self):
        pos = Histogram(edges=[0.0, 1.0], counts=[5])
        neg = Histogram(edges=[0.0, 1.0], counts=[5])
        out = compute_probability(pos, neg, profile_of([0.5]))
        assert out[0] == pytest.approx(0.5)

    def test_hand_built_example(self):
        pos = Histogram(edges=[0.0, 1.0, 2.0], counts=[3, 1])
        neg = Histogram(edges=[0.0, 1.0, 2.0], counts=[1, 3])
        out = compute_probability(pos, neg, profile_of([0.5]))
        assert out[0] == pytest.approx(0.75)

    def test_floor_on_missing_side_pushes_toward_one(self):
        neg = Histogram(edges=[10.0, 11.0], counts=[4])
        probs = []
        for width in (1.0, 0.1, 0.01):  # narrower bin = higher density
            pos = Histogram(edges=[0.5 - width / 2, 0.5 + width / 2], counts=[4])
            out = compute_probability(pos, neg, profile_of([0.5]))
            probs.append(out[0])
        assert probs[0] > 0.5
        assert probs[0] < probs[1] < probs[2]
        assert probs[2] > 0.99

    def test_bin_edges_and_floor(self):
        # pos densities: bin 0 is 3 / (4 * 1), bin 1 is 1 / (4 * 1); neg is 1 / (1 * 2).
        pos = Histogram(edges=[0.0, 1.0, 2.0], counts=[3, 1])
        neg = Histogram(edges=[0.0, 2.0], counts=[1])
        out = compute_probability(pos, neg, profile_of([0.5, 2.0, 2.5]))
        assert out[0] == pytest.approx(0.75 / (0.75 + 0.5))
        # The last edge closes the last bin.
        assert out[1] == pytest.approx(0.25 / (0.25 + 0.5))
        # Past the last edge both sides take their floor 1 / ((total + 1) * 2).
        assert out[2] == pytest.approx(0.1 / (0.1 + 0.25))

    @settings(max_examples=150)
    @given(
        _samples,
        _samples,
        st.lists(st.booleans(), min_size=256, max_size=256),
        st.sampled_from([FLOOR_UNION, FLOOR_OWN]),
        st.tuples(st.none() | _uneven_histograms(), st.none() | _uneven_histograms()),
        st.integers(0, 1000),
    )
    def test_matches_per_value_reference(
        self, pos_sample, neg_sample, zeroed, mode, uneven, shift
    ):
        zeroed = np.asarray(zeroed)
        pos, neg = uneven
        if pos is None:
            pos = _with_empty_bins(histogram_build(pos_sample), zeroed)
        if neg is None:
            neg = _with_empty_bins(histogram_build(neg_sample), zeroed[::-1])
        edges = np.concatenate((pos.edges, neg.edges))
        far = [np.inf, -np.inf, np.nan, edges.min() - 1e9, edges.max() + 1e9]
        values = np.concatenate(
            (edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), far)
        )
        out = compute_probability(pos, neg, profile_of(values), small_value_mode=mode)
        expected = [reference_probability(pos, neg, v, mode) for v in values]
        assert out.tolist() == expected
        # The same values, repeated past one profile block.
        picks = (np.arange(BLOCK + 1 + 7 * shift) + shift) % values.size
        out = compute_probability(pos, neg, values[picks], small_value_mode=mode)
        assert out.tobytes() == np.asarray(expected)[picks].tobytes()

    @pytest.fixture(scope="class")
    def real_locals(self):
        """(spec, pos, neg, profile) of each local of a trained two-class
        model over a generated test series. The flat class's shape values
        are 0 or sqrt(m), the last edge of its non-class histogram."""
        from shapefeat.data import TwoModalityParams, gen_two_modality_dataset

        params = TwoModalityParams(n_sine=4, n_flat=4, n_surge=2, n_hum=2)
        bundle = gen_two_modality_dataset(params, 8)
        m = 64
        models = train(bundle.series, bundle.labels, [
            ClassSpec(c, m, m, (FeatureSpec(kind=SHAPE), FeatureSpec(kind=SLIDING_STD)), prior=0.5)
            for c in ("sine", "flat")
        ])
        locals_ = [feature for mo in models for feature in mo.features]
        test = gen_two_modality_dataset(params, 9).series
        table = profile_table(test, [spec for spec, _, _ in locals_], m)
        return [(*feature, row) for feature, row in zip(locals_, table)]

    @pytest.mark.parametrize("mode", [FLOOR_UNION, FLOOR_OWN])
    def test_matches_per_value_reference_on_real_profiles(self, real_locals, mode):
        for _, pos, neg, row in real_locals:
            edges = np.concatenate((pos.edges, neg.edges))
            values = np.concatenate((
                row[:: max(1, row.size // 400)], edges, np.nextafter(edges, np.inf),
                np.nextafter(edges, -np.inf), [np.nan, np.inf, -np.inf],
            ))
            out = compute_probability(pos, neg, values, small_value_mode=mode)
            assert out.tolist() == [reference_probability(pos, neg, v, mode) for v in values]

    def test_last_edge_values_skip_the_search(self, real_locals, monkeypatch):
        # The slot estimate is scaled to the raised last bound, so a value
        # equal to a histogram's last edge lands in the last bin and passes
        # the bounds check. Scaled to the last edge itself, it landed one
        # slot past and was searched: 3,078 of the flat class's 3,415 shape
        # values, all those equal to sqrt(m).
        searched = []
        search = np.searchsorted

        def counted(a, v, **kwargs):
            searched.append(np.size(v))
            return search(a, v, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        spec, pos, neg, row = real_locals[2]
        assert spec.kind == SHAPE and set(np.unique(row)) == {0.0, neg.edges[-1]}
        expected = [reference_probability(pos, neg, v, FLOOR_UNION) for v in row]
        assert compute_probability(pos, neg, row).tolist() == expected
        for _, pos, neg, _ in real_locals:
            for hist in (pos, neg):
                if hist.counts.size > 1:
                    compute_probability(hist, hist, np.full(100, hist.edges[-1]))
        assert sum(searched) == 0

    def test_values_always_in_unit_interval(self):
        pos = histogram_build(normals(1, 40))
        neg = histogram_build(normals(2, 40) + 0.5)
        out = compute_probability(pos, neg, profile_of(normals(3, 500) * 10))
        assert out.min() >= 0.0
        assert out.max() <= 1.0


class TestCombineNaiveBayes:
    def local(self, values):
        return np.asarray(values, float)

    def test_single_local_standard_is_identity(self):
        vals = np.clip(uniforms(5, 200), 1e-12, 1.0)
        out = combine_naive_bayes([self.local(vals)], prior=0.37, mode=NB_STANDARD)
        assert np.array_equal(out, vals)

    def test_saturation_clamps_to_one(self):
        out = combine_naive_bayes(
            [self.local([1.0]), self.local([1.0])], prior=0.5, mode=NB_STANDARD
        )
        assert out[0] == 1.0

    def test_hand_arithmetic_pair(self):
        out = combine_naive_bayes(
            [self.local([0.8]), self.local([0.6])], prior=0.5, mode=NB_STANDARD
        )
        assert out[0] == pytest.approx(0.96, abs=1e-12)
        lit = combine_naive_bayes(
            [self.local([0.8]), self.local([0.6])], prior=0.5, mode=NB_PAPER_LITERAL
        )
        assert lit[0] == pytest.approx(0.96, abs=1e-12)

    def test_hand_arithmetic_triple_modes_differ(self):
        locs = [self.local([0.8]), self.local([0.6]), self.local([0.5])]
        std = combine_naive_bayes(locs, prior=0.5, mode=NB_STANDARD)
        lit = combine_naive_bayes(locs, prior=0.5, mode=NB_PAPER_LITERAL)
        assert std[0] == pytest.approx(0.96, abs=1e-12)
        assert lit[0] == pytest.approx(0.48, abs=1e-12)

    def test_empty_locals_rejected(self):
        with pytest.raises(ModelError, match="need at least one local probability profile"):
            combine_naive_bayes([], prior=0.5)

    def test_bad_prior_rejected(self):
        with pytest.raises(DataError, match=r"prior must be in \(0,1\), got 1.0"):
            combine_naive_bayes([self.local([0.5])], prior=1.0)


class TestSelectPrototype:
    def test_single_instance_of_exact_length(self):
        x = normals(8, 200)
        labels = LabelTrack(series_length=200, regions=(Region(50, 66, "a"),))
        proto = select_prototype(TimeSeries(values=x), labels, "a", 16)
        assert np.array_equal(proto, x[50:66])

    def test_identical_instances_tie_break_earliest(self):
        x = np.zeros(300)
        template = np.sin(np.linspace(0, 4 * np.pi, 16))
        for s in (20, 120, 220):
            x[s : s + 16] = template
        labels = LabelTrack(
            series_length=300,
            regions=tuple(Region(s, s + 16, "a") for s in (20, 120, 220)),
        )
        proto = select_prototype(TimeSeries(values=x), labels, "a", 16)
        assert np.array_equal(proto, x[20:36])

    def test_outlier_never_selected(self):
        m = 32
        template = np.sin(np.linspace(0, 4 * np.pi, m, endpoint=False))
        noise = normals(91, 6 * m).reshape(6, m) * 0.05
        x = np.zeros(6 * (m + 20))
        starts = []
        for i in range(6):
            s = i * (m + 20)
            starts.append(s)
            if i == 5:
                x[s : s + m] = normals(17, m)  # the outlier instance
            else:
                x[s : s + m] = template + noise[i]
        labels = LabelTrack(
            series_length=len(x),
            regions=tuple(Region(s, s + m, "a") for s in starts),
        )
        ts = TimeSeries(values=x)
        proto = select_prototype(ts, labels, "a", m)
        # Exhaustive oracle: medoid by brute-force pairwise distances.
        cands = [x[s : s + m] for s in starts]
        z = [znormalize(c) for c in cands]
        sums = [sum(np.linalg.norm(zi - zj) for zj in z) for zi in z]
        best = int(np.argmin(sums))
        assert best != 5
        assert np.array_equal(proto, cands[best])

    def test_no_instances(self):
        labels = LabelTrack(series_length=100, regions=(Region(0, 10, "a"),))
        with pytest.raises(ModelError, match="no labeled region of class 'b' holds"):
            select_prototype(TimeSeries(values=np.zeros(100)), labels, "b", 16)
        with pytest.raises(ModelError, match="no labeled region of class 'a' holds a length-16"):
            # Region shorter than m holds no candidate.
            select_prototype(TimeSeries(values=np.zeros(100)), labels, "a", 16)


def reference_prototype(train, labels, class_id, m):
    """The k x k x m tensor medoid that select_prototype replaced: the
    winning start, the z-normalized candidates and each one's summed
    distance to all candidates."""
    x = train.values
    step = max(1, m // 2)
    starts = [
        s
        for r in labels.class_regions(class_id)
        if r.end - r.start >= m
        for s in range(r.start, r.end - m + 1, step)
    ]
    z = np.stack([znormalize(x[s : s + m]) for s in starts])
    diff = z[:, None, :] - z[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    totals = d.sum(axis=1)
    return starts[int(np.argmin(totals))], z, totals


class TestPrototypeMatchesTensorMedoid:
    def test_random_candidate_sets(self):
        rng = np.random.default_rng(77)
        for case in range(300):
            m = int(rng.integers(2, 24))
            n = int(rng.integers(4 * m, 30 * m))
            x = rng.normal(size=n)
            if case % 3 == 0:  # quantized: tied distances
                x = np.round(x)
            cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(2, 9)), replace=False))
            regions = tuple(
                Region(int(a), int(b), "a") for a, b in zip(cuts[::2], cuts[1::2])
            )
            if case % 2:  # duplicate windows: copy one candidate over others
                src = regions[0].start
                for r in regions[1:]:
                    if r.end - r.start >= m:
                        x[r.start : r.start + m] = x[src : src + m]
            labels = LabelTrack(series_length=n, regions=regions)
            ts = TimeSeries(values=x)
            try:
                proto = select_prototype(ts, labels, "a", m)
            except ModelError:  # no region holds a window
                continue
            start, z, totals = reference_prototype(ts, labels, "a", m)
            assert np.array_equal(proto, x[start : start + m])
            rows = [np.sqrt(((row - z) ** 2).sum(axis=1)).sum() for row in z]
            assert np.array(rows).tobytes() == totals.tobytes()

    def test_memory_grows_with_candidates_not_their_square(self):
        # 400 candidates at m=100: the tensor alone would take 128 MB.
        m = 100
        x = normals(12, 20_200)
        labels = LabelTrack(series_length=len(x), regions=(Region(0, 20_050, "a"),))
        ts = TimeSeries(values=x)
        tracemalloc.start()
        try:
            select_prototype(ts, labels, "a", m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


def reference_distributions(train, labels, class_id, features, m, exclusion_zone):
    """The position x region claim loop that compute_distributions replaced.

    Per feature, the touching positions are visited in ascending value
    (stable, so ties go to the earliest); each claims the first unclaimed
    region its span [i, i + exclusion_zone) intersects."""
    n = len(train)
    if m > n:
        raise DataError(f"subsequence length {m} exceeds series length {n}")
    length = n - m + 1
    regions = labels.class_regions(class_id)
    if not regions:
        raise ModelError(f"no labeled regions of class {class_id!r}")

    def touch_bounds(r):
        return max(0, r.start - exclusion_zone + 1), min(length, r.end)

    touch = np.zeros(length, dtype=bool)
    if exclusion_zone > 0:
        for r in regions:
            lo, hi = touch_bounds(r)
            if lo < hi:
                touch[lo:hi] = True
    touching = np.flatnonzero(touch)
    out = []
    for feature in features:
        v = generate_profile(train, feature, m)
        order = touching[np.argsort(v[touching], kind="stable")]
        claimed = [False] * len(regions)
        p_list = []
        for i in order:
            for ridx, r in enumerate(regions):
                if claimed[ridx]:
                    continue
                lo, hi = touch_bounds(r)
                if lo <= i < hi:
                    claimed[ridx] = True
                    p_list.append(float(v[i]))
                    break
        if not p_list:
            raise ModelError(
                f"no snippet claims a region of class {class_id!r} "
                f"(exclusion_zone={exclusion_zone})"
            )
        n_values = v[~touch]
        if n_values.size == 0:
            raise ModelError(f"class {class_id!r} labels leave no non-class snippets")
        out.append((histogram_build(np.asarray(p_list)), histogram_build(n_values)))
    return out


@st.composite
def claim_layouts(draw):
    """(series, labels, specs): 1-3 classes of one m, each with its own
    exclusion zone and features; bags of those classes and of others, with
    gaps from 0 (adjacent bags) up, so touch spans overlap; the last bag may
    reach past n - m + 1; values on a coarse grid tie."""
    m = draw(st.integers(2, 8))
    pos = draw(st.integers(0, 2 * m))
    regions = []
    for gap, size, cls in draw(
        st.lists(
            st.tuples(
                st.integers(0, 2) | st.integers(0, 3 * m),
                st.integers(1, 3 * m),
                st.sampled_from("aabcx"),
            ),
            min_size=1,
            max_size=8,
        )
    ):
        regions.append(Region(pos + gap, pos + gap + size, cls))
        pos += gap + size
    n = max(pos + draw(st.integers(0, 2 * m)), m)
    grid = draw(st.sampled_from([1.0, 4.0, 1e6]))
    x = np.round(normals(draw(st.integers(0, 2**32 - 1)), n) * grid) / grid
    specs = []
    for class_id in "abc"[: draw(st.integers(1, 3))]:
        kinds = draw(st.lists(
            st.sampled_from([SHAPE, COMPLEXITY, SLIDING_MEAN, SLIDING_STD]), min_size=1, max_size=3
        ))
        at = draw(st.integers(0, n - m))
        features = [
            FeatureSpec(kind=k, query=x[at : at + m] if k == SHAPE else None) for k in kinds
        ]
        e = draw(st.sampled_from([0, 1, m - 1, m, 3 * m]))
        specs.append(ClassSpec(class_id, m, e, features))
    return TimeSeries(values=x), LabelTrack(series_length=n, regions=tuple(regions)), specs


def _distributions_or_error(fn, *args):
    try:
        pairs = fn(*args)
    except ShapefeatError as exc:
        return type(exc), str(exc)
    return [(h.edges.tobytes(), h.counts.tobytes()) for pair in pairs for h in pair]


def _one_class(x, regions, feature, m, e):
    """compute_distributions' arguments for one class 'a' with one feature."""
    labels = LabelTrack(series_length=len(x), regions=tuple(regions))
    return TimeSeries(values=x), labels, [ClassSpec("a", m, e, (feature,))]


class TestComputeDistributions:
    @settings(max_examples=400)
    @given(claim_layouts())
    def test_matches_claim_loop(self, layout):
        ts, labels, specs = layout
        expected = [
            _distributions_or_error(
                reference_distributions, ts, labels, s.class_id, s.features, s.m, s.exclusion_zone
            )
            for s in specs
        ]
        got = _distributions_or_error(compute_distributions, ts, labels, specs)
        errors = [e for e in expected if isinstance(e, tuple)]
        if errors:
            # One pass checks every class's regions first, then claims
            # feature by feature, so the first fault may be another class's.
            assert got in errors
        else:
            assert got == [h for pairs in expected for h in pairs]

    def test_signed_zeros_keep_the_claim_order(self):
        # np.max over these class values in position order and in ascending
        # (claim) order returns zeros of opposite sign, and the last edge
        # takes that sign.
        p = [0.0] + [-1.0] * 7 + [-0.0]
        x = np.full(2 * len(p), 5.0)
        x[::2] = p
        regions = [Region(2 * i, 2 * i + 1, "a") for i in range(len(p))]
        ts, labels, specs = _one_class(x, regions, FeatureSpec(kind=SLIDING_MEAN), 1, 1)
        assert _distributions_or_error(compute_distributions, ts, labels, specs) == (
            _distributions_or_error(
                reference_distributions, ts, labels, "a", specs[0].features, 1, 1
            )
        )

    def test_own_prototype_claims_its_region(self):
        m = 32
        template = np.sin(np.linspace(0, 4 * np.pi, m, endpoint=False)) * 3
        x = plant_bursts(400, m, [100], template, noise_seed=5)
        feature = FeatureSpec(kind=SHAPE, query=x[100 : 100 + m])
        (pos_h, neg_h), = compute_distributions(
            *_one_class(x, [Region(100, 100 + m, "a")], feature, m, m)
        )
        assert pos_h.total == 1
        assert pos_h.edges[-1] < neg_h.edges[0]

    def test_no_labeled_regions(self):
        # The class that has none comes after one that has some.
        labels = LabelTrack(series_length=200, regions=(Region(0, 50, "a"),))
        specs = [ClassSpec(c, 16, 16, (FeatureSpec(kind=COMPLEXITY),)) for c in "ab"]
        with pytest.raises(ModelError, match="no labeled regions of class 'b'"):
            compute_distributions(TimeSeries(values=normals(1, 200)), labels, specs)

    def test_zero_exclusion_zone_claims_nothing(self):
        args = _one_class(normals(2, 200), [Region(0, 50, "a")], FeatureSpec(kind=COMPLEXITY), 16, 0)
        claims_nothing = r"no snippet claims a region of class 'a' \(exclusion_zone=0\)"
        with pytest.raises(ModelError, match=claims_nothing):
            compute_distributions(*args)

    def test_conservation(self):
        m, e = 16, 24
        regions = (Region(40, 90, "a"), Region(200, 260, "a"), Region(400, 470, "a"))
        (pos_h, neg_h), = compute_distributions(
            *_one_class(normals(3, 600), regions, FeatureSpec(kind=SLIDING_STD), m, e)
        )
        length = 600 - m + 1
        touched = np.zeros(length, bool)
        for r in regions:
            touched[max(0, r.start - e + 1) : min(length, r.end)] = True
        assert neg_h.total == length - int(touched.sum())
        assert pos_h.total <= len(regions)
        skipped = int(touched.sum()) - pos_h.total
        assert skipped >= 0
        assert pos_h.total + neg_h.total + skipped == length

    def test_planted_bursts_separate_by_complexity(self):
        m = 64
        template = np.sin(np.linspace(0, 4 * np.pi, m, endpoint=False)) * 2
        starts = [150 + i * 250 for i in range(10)]
        x = plant_bursts(3000, m, starts, template, noise_seed=9)
        labels = LabelTrack(
            series_length=3000,
            regions=tuple(Region(s, s + m, "a") for s in starts),
        )
        (pos_h, neg_h), = compute_distributions(
            TimeSeries(values=x), labels, [ClassSpec("a", m, m, (FeatureSpec(kind=COMPLEXITY),))]
        )
        pos_samples = np.repeat((pos_h.edges[:-1] + pos_h.edges[1:]) / 2, pos_h.counts)
        neg_samples = np.repeat((neg_h.edges[:-1] + neg_h.edges[1:]) / 2, neg_h.counts)
        res = stats.mannwhitneyu(pos_samples, neg_samples, alternative="less")
        assert res.pvalue < 0.01
        assert pos_h.edges[-1] < np.median(neg_samples)


class TestTrain:
    def fixture(self):
        m = 32
        template = np.sin(np.linspace(0, 4 * np.pi, m, endpoint=False)) * 3
        x = plant_bursts(900, m, [100, 400], template, noise_seed=31)
        x[600:700] = 2.0  # a flat stretch for the second class
        regions = (
            Region(100, 100 + m, "wave"),
            Region(400, 400 + m, "wave"),
            Region(600, 700, "steady"),
        )
        labels = LabelTrack(series_length=900, regions=regions)
        return TimeSeries(values=x), labels, m

    def test_two_classes_trained(self):
        ts, labels, m = self.fixture()
        models = train(
            ts,
            labels,
            [
                ClassSpec("wave", m, m, (FeatureSpec(kind=SHAPE),)),
                ClassSpec("steady", m, m, (FeatureSpec(kind=SLIDING_STD),)),
            ],
        )
        assert [mo.class_id for mo in models] == ["wave", "steady"]
        assert sum(mo.prior for mo in models) <= 1.0
        shape_spec = models[0].features[0][0]
        assert shape_spec.query is not None and shape_spec.query.size == m

    def test_missing_class_names_it(self):
        ts, labels, m = self.fixture()
        with pytest.raises(ModelError, match="ghost"):
            train(ts, labels, [ClassSpec("ghost", m, m, (FeatureSpec(kind=COMPLEXITY),))])

    @pytest.mark.parametrize("second, message", [
        (ClassSpec("steady", 40, 32, (FeatureSpec(kind=SLIDING_STD),)),
         "all models must share one subsequence length; got 32 and 40"),
        (ClassSpec("wave", 32, 32, (FeatureSpec(kind=SLIDING_STD),)),
         "duplicate model for class 'wave'"),
    ])
    def test_specs_follow_the_model_set_rule(self, second, message, monkeypatch):
        # Checked before any prototype is picked.
        monkeypatch.setattr("shapefeat.model.select_prototype", None)
        ts, labels, m = self.fixture()
        with pytest.raises(ModelError, match=message):
            train(ts, labels, [ClassSpec("wave", m, m, (FeatureSpec(kind=SHAPE),)), second])
        with pytest.raises(ModelError, match="no models given"):
            train(ts, labels, [])

    @pytest.mark.parametrize("kind", [SHAPE, SLIDING_STD])
    def test_m_longer_than_the_series_is_a_data_error(self, kind):
        ts = TimeSeries(values=normals(4, 40))
        labels = LabelTrack(series_length=40, regions=(Region(0, 40, "a"),))
        with pytest.raises(DataError, match="subsequence length 48 exceeds series length 40"):
            train(ts, labels, [ClassSpec("a", 48, 48, (FeatureSpec(kind=kind),))])

    @pytest.mark.parametrize("class_id", ["a,b", "a\nb", "a\r", "a\u2028b", "", " a", "a\t"])
    def test_class_id_must_fit_a_csv_row(self, class_id):
        message = "must not contain a comma or a line break"
        with pytest.raises(DataError, match=message):
            ClassSpec(class_id, 4, 4, (FeatureSpec(kind=COMPLEXITY),))
        hist = Histogram(edges=[0.0, 1.0], counts=[1])
        with pytest.raises(DataError, match=message):
            ClassModel(class_id, 4, 4, ((FeatureSpec(kind=COMPLEXITY), hist, hist),), 0.5)

    @pytest.mark.parametrize("class_id, zone, feature, message", [
        ("Other", 4, FeatureSpec(kind=COMPLEXITY), "Other is reserved"),
        ("a", -5, FeatureSpec(kind=COMPLEXITY), "exclusion_zone must be >= 0"),
        ("a", 4, FeatureSpec(kind=SHAPE, query=[1.0, 2.0, 3.0]),
         "'shape' needs a length-4 query, got length 3"),
    ])
    def test_spec_and_model_share_the_class_rules(self, class_id, zone, feature, message):
        with pytest.raises(DataError, match=message):
            ClassSpec(class_id, 4, zone, (feature,))
        hist = Histogram(edges=[0.0, 1.0], counts=[1])
        with pytest.raises(DataError, match=message):
            ClassModel(class_id, 4, zone, ((feature, hist, hist),), 0.5)

    def test_prior_override(self):
        ts, labels, m = self.fixture()
        models = train(
            ts, labels, [ClassSpec("wave", m, m, (FeatureSpec(kind=SHAPE),), prior=0.5)]
        )
        assert models[0].prior == 0.5

    def test_shape_local_model_separates_training_positives(self):
        ts, labels, m = self.fixture()
        models = train(ts, labels, [ClassSpec("wave", m, m, (FeatureSpec(kind=SHAPE),))])
        spec, pos_h, neg_h = models[0].features[0]
        prof = generate_profile(ts, spec, m)
        local = compute_probability(pos_h, neg_h, prof)
        length = len(prof)
        inside = np.zeros(length, bool)
        for r in labels.class_regions("wave"):
            # Positives are positions whose window lies fully inside the region.
            inside[r.start : max(r.start, r.end - m) + 1] = True
        # Rank-based AUC oracle over training positions.
        scores = local
        order = stats.rankdata(scores)
        n_pos = int(inside.sum())
        n_neg = length - n_pos
        auc = (order[inside].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        assert auc > 0.9


def constant_probability_model(class_id, m, exclusion_zone, level_value):
    """Model whose sliding-mean local fires at ~0.99 wherever the series
    sits at `level_value` and ~0 elsewhere."""
    eps = 1e-3
    pos = Histogram(edges=[level_value - eps, level_value + eps], counts=[10])
    neg = Histogram(edges=[level_value + 50.0, level_value + 51.0], counts=[10])
    return ClassModel(
        class_id=class_id,
        m=m,
        exclusion_zone=exclusion_zone,
        features=((FeatureSpec(kind=SLIDING_MEAN), pos, neg),),
        prior=0.5,
    )


class TestClassify:
    def test_suppression_arithmetic(self):
        m, e = 4, 6
        model = constant_probability_model("a", m, e, level_value=2.0)
        test = TimeSeries(values=np.full(40, 2.0))
        track = classify([model], test, ClassifierConfig())
        expected = list(range(0, 40 - m + 1, e + 1))
        hits = [p for p, _, _ in track.detections()]
        assert hits == expected
        for p, cls, score in track.detections():
            assert cls == "a"
            assert score >= 0.5
        # Suppressed positions carry Other.
        assert 1 not in track.positions

    def test_floor_of_one_blocks_everything(self):
        model = constant_probability_model("a", 4, 3, level_value=2.0)
        test = TimeSeries(values=np.full(30, 2.0))
        track = classify([model], test, ClassifierConfig(decision_floor=1.0))
        assert track.detections() == []
        assert track.positions.size == track.label_codes.size == track.scores.size == 0

    def test_stride_skips_positions(self):
        model = constant_probability_model("a", 4, 0, level_value=2.0)
        test = TimeSeries(values=np.full(20, 2.0))
        track = classify([model], test, ClassifierConfig(stride=5))
        hits = [p for p, _, _ in track.detections()]
        assert hits == [0, 5, 10, 15]

    @pytest.mark.parametrize("score", [
        lambda models, test, cfg: classify(models, test, cfg),
        lambda models, test, cfg: class_probabilities(models, test, cfg),
        lambda models, test, cfg: compare_variants(models, test, LabelTrack(3, ()), cfg),
        lambda models, test, cfg: roc_sweep(models, test, LabelTrack(3, ()), cfg, "a", [1.0]),
    ], ids=["classify", "class_probabilities", "compare_variants", "roc_sweep"])
    def test_series_shorter_than_m(self, score):
        # The pass finds it when the series ends, as a streamed series does.
        model = constant_probability_model("a", 4, 0, level_value=2.0)
        with pytest.raises(ModelError, match="test series of length 3 is shorter than m=4"):
            score([model], TimeSeries(values=np.full(3, 2.0)), ClassifierConfig())

    def test_determinism(self):
        from shapefeat.data import TwoModalityParams, gen_two_modality_dataset

        bundle = gen_two_modality_dataset(TwoModalityParams(n_sine=4, n_flat=4, n_surge=2, n_hum=2), 3)
        models = train(
            bundle.series,
            bundle.labels,
            [
                ClassSpec("sine", 64, 64, (FeatureSpec(kind=SHAPE), FeatureSpec(kind=SLIDING_STD)), prior=0.5),
                ClassSpec("flat", 64, 64, (FeatureSpec(kind=SHAPE), FeatureSpec(kind=SLIDING_STD)), prior=0.5),
            ],
        )
        cfg = ClassifierConfig()
        a = classify(models, bundle.series, cfg)
        b = classify(models, bundle.series, cfg)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.label_codes, b.label_codes)
        assert np.array_equal(a.scores, b.scores)

    def test_model_mismatch(self):
        a = constant_probability_model("a", 4, 2, 2.0)
        b = constant_probability_model("b", 8, 2, 2.0)
        with pytest.raises(ModelError, match="must share one subsequence length; got 4 and 8"):
            classify([a, b], TimeSeries(values=np.zeros(50)), ClassifierConfig())

    def test_tie_breaks_toward_lower_model_index(self):
        a = constant_probability_model("a", 4, 0, 2.0)
        b = constant_probability_model("b", 4, 0, 2.0)
        test = TimeSeries(values=np.full(10, 2.0))
        track = classify([a, b], test, ClassifierConfig())
        assert {cls for _, cls, _ in track.detections()} == {"a"}

    def test_shape_only_degeneration(self):
        from shapefeat.data import TwoModalityParams, gen_two_modality_dataset

        bundle = gen_two_modality_dataset(TwoModalityParams(n_sine=6, n_flat=6, n_surge=0, n_hum=0), 11)
        m = 64
        models = train(
            bundle.series,
            bundle.labels,
            [ClassSpec("sine", m, m, (FeatureSpec(kind=SHAPE),), prior=0.5)],
        )
        cfg = ClassifierConfig(thresholds={"sine": 1.2})
        track = classify(models, bundle.series, cfg)

        # Hand-rolled single-feature path with its own sweep.
        spec, pos_h, neg_h = models[0].features[0]
        prof = distance_profile_mass(bundle.series, spec.query)
        local = compute_probability(pos_h, neg_h, prof)
        weighted = local * 1.2
        length = len(weighted)
        labels = np.full(length, -1)
        pos = 0
        while pos < length:
            if weighted[pos] >= cfg.decision_floor:
                labels[pos] = 0
                pos += models[0].exclusion_zone + 1
            else:
                pos += 1
        assert np.array_equal(track.positions, np.flatnonzero(labels >= 0))
        assert np.array_equal(track.label_codes, labels[labels >= 0])


def reference_sweep(table, zones, floor, stride):
    """Per-position oracle: visit pos, pos + stride, ...; emit the argmax
    class at or above the floor and jump max(stride, e + 1). A table
    without rows detects nothing."""
    length = table.shape[1]
    labels = np.full(length, -1)
    scores = np.zeros(length)
    pos = 0
    while len(table) and pos < length:
        w = int(np.argmax(table[:, pos]))
        scores[pos] = table[w, pos]
        if table[w, pos] >= floor:
            labels[pos] = w
            pos += max(stride, zones[w] + 1)
        else:
            pos += stride
    return labels, scores


def sweep_table(models, test, ids, table, cfg):
    """Sweep a whole stride-1 `table` as `score_blocks` feeds it: the
    columns at multiples of the visit step g from 0, then the empty run at
    the table's end."""
    run = Sweep(models, test, ids, cfg)
    run.feed(0, table[:, :: run.step])
    run.feed(table.shape[1], table[:, :0])
    return run.track()


def assert_detections_match(track, labels, scores):
    """(position, code, score) of every detection equals the reference's."""
    positions = np.flatnonzero(labels >= 0)
    assert np.array_equal(track.positions, positions)
    assert np.array_equal(track.label_codes, labels[positions])
    assert np.array_equal(track.scores, scores[positions])


def zone_models(zones, length):
    """One m=1 model per zone (one with zone 0 when there are none, as when
    every class drops out of a compare run), and a series of `length` zeros."""
    hist = Histogram(edges=[0.0, 1.0], counts=[1])
    models = tuple(
        ClassModel(f"c{k}", 1, z, ((FeatureSpec(kind=SLIDING_MEAN), hist, hist),), 0.5)
        for k, z in enumerate(zones or [0])
    )
    return models, TimeSeries(values=np.zeros(length))


class TestSuppressionSweep:
    def sweep(self, table, zones, floor, stride):
        """Sweep `table` as the class table of `zone_models`."""
        models, test = zone_models(zones, table.shape[1])
        ids = tuple(mo.class_id for mo in models[: table.shape[0]])
        cfg = ClassifierConfig(decision_floor=floor, stride=stride)
        return sweep_table(models, test, ids, table, cfg)

    def test_matches_per_position_reference(self):
        rng = np.random.default_rng(2024)
        for case in range(1200):
            table = rng.uniform(0.0, 2.0, size=(int(rng.integers(1, 5)), int(rng.integers(1, 80))))
            if case % 2:  # quantized: ties between classes and values equal to the floor
                table = np.round(table * 4) / 4
            zones = [int(z) for z in rng.integers(0, 13, size=table.shape[0])]
            floor = float(np.round(rng.uniform(0.0, 1.0) * 4) / 4) if case % 3 == 0 else float(rng.uniform())
            stride = int(rng.integers(1, 10))
            track = self.sweep(table, zones, floor, stride)
            assert_detections_match(track, *reference_sweep(table, zones, floor, stride))

    def test_stride_longer_than_series(self):
        table = np.full((2, 7), 0.75)
        track = self.sweep(table, [0, 3], 0.5, 10**30)
        assert_detections_match(track, *reference_sweep(table, [0, 3], 0.5, 10**30))
        assert track.detections() == [(0, "c0", 0.75)]
        assert track.stride == 10**30

    def test_table_without_classes_detects_nothing(self):
        # compare's shape-only or feature-only run of a single-modality model.
        track = self.sweep(np.empty((0, 6)), [], 0.0, 1)
        assert len(track) == 6
        assert track.detections() == []


@st.composite
def cut_tables(draw):
    """(table, zones, floor, stride, cuts, masks): a table of 0 to 4 classes
    and its column cuts into consecutive blocks, all of one column or of
    random widths, often shorter than a zone; `masks` says whether each
    block comes with its above-floor mask."""
    rows, length = draw(st.integers(0, 4)), draw(st.integers(1, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(0.0, 2.0, size=(rows, length))
    if draw(st.booleans()):  # quantized: ties between classes and values equal to the floor
        table = np.round(table * 4) / 4
    # Sparse tables leave stride phases without a visit above the floor.
    table[rng.uniform(size=table.shape) >= draw(st.sampled_from([0.1, 0.4, 1.0]))] = 0.0
    zones = [draw(st.integers(0, 15)) for _ in range(rows)]
    floor = draw(st.sampled_from([0.0, 0.5, 0.75, 1.0, float(rng.uniform())]))
    stride = draw(st.one_of(st.integers(1, 12), st.just(10**30)))
    if draw(st.booleans()):
        cuts = list(range(1, length))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(length - 1, 1)), max_size=length)) - {length})
    masks = draw(st.lists(st.booleans(), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return table, zones, floor, stride, cuts, masks


class TestIncrementalSweep:
    """A `Sweep` fed any cut of a table's visit columns (those at multiples
    of its step g) into consecutive blocks, then the empty run at the
    table's end, finds the detections of `reference_sweep` over the whole
    table."""

    @settings(max_examples=400)
    @given(case=cut_tables())
    # g = 1 (jump 3, stride 2). The second block's phase-0 visits find
    # nothing, and the first key of phase 1 sits right at the bound of
    # phase 0's keys.
    @example(case=(np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]]), [2], 0.5, 2, [1], [False, False]))
    def test_any_cut_matches_the_reference(self, case):
        table, zones, floor, stride, cuts, masks = case
        models, test = zone_models(zones, table.shape[1])
        ids = tuple(mo.class_id for mo in models[: table.shape[0]])
        run = Sweep(models, test, ids, ClassifierConfig(decision_floor=floor, stride=stride))
        columns = table[:, :: run.step]
        # Each cut moves to the column edge at or past it.
        edges = sorted({-(-c // run.step) for c in [0, *cuts, table.shape[1]]})
        for lo, hi, mask in zip(edges, edges[1:], masks):
            block = columns[:, lo:hi]
            above = (block >= floor).any(axis=0) if mask else None
            run.feed(lo * run.step, block, above)
        run.feed(table.shape[1], table[:, :0])
        assert_detections_match(run.track(), *reference_sweep(table, zones, floor, stride))


class TestArgmaxMonotonicity:
    def test_win_sets_grow_with_weight(self):
        rng_probs = uniforms(123, 3 * 400).reshape(3, 400)
        base = np.array([1.0, 1.0, 1.0])
        previous = None
        for w in (0.25, 0.5, 1.0, 2.0, 4.0):
            weights = base.copy()
            weights[1] = w
            table = rng_probs * weights[:, None]
            wins = set(np.flatnonzero(np.argmax(table, axis=0) == 1))
            if previous is not None:
                assert previous <= wins
            previous = wins

    def test_through_real_model(self):
        from shapefeat.data import TwoModalityParams, gen_two_modality_dataset

        bundle = gen_two_modality_dataset(TwoModalityParams(n_sine=4, n_flat=4, n_surge=2, n_hum=2), 8)
        m = 64
        models = train(
            bundle.series,
            bundle.labels,
            [
                ClassSpec("sine", m, m, (FeatureSpec(kind=SHAPE), FeatureSpec(kind=SLIDING_STD)), prior=0.5),
                ClassSpec("flat", m, m, (FeatureSpec(kind=SHAPE), FeatureSpec(kind=SLIDING_STD)), prior=0.5),
            ],
        )
        previous = None
        for w in (0.5, 1.0, 2.0):
            cfg = ClassifierConfig(thresholds={"sine": w})
            ids, table = class_probabilities(models, bundle.series, cfg)
            wins = set(np.flatnonzero(np.argmax(table, axis=0) == ids.index("sine")))
            if previous is not None:
                assert previous <= wins
            previous = wins


class TestTablesWrittenInPlace:
    """A buffer that overwrites its own input gives the bytes of a fresh one,
    over more than one profile block."""

    def test_probability_over_its_profile(self):
        pos = histogram_build(normals(1, 300))
        neg = histogram_build(normals(2, 300) * 2.0 + 0.5)
        profile = normals(3, 2 * BLOCK + 5) * 3.0
        fresh = compute_probability(pos, neg, profile)
        assert compute_probability(pos, neg, profile, out=profile) is profile
        assert profile.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("mode", [NB_STANDARD, NB_PAPER_LITERAL])
    def test_naive_bayes_into_a_buffer_and_over_its_first_local(self, mode):
        # Zeros are floored at 1e-12, and products above the prior clamp to 1.
        locals_ = [uniforms(seed, 2 * BLOCK + 5) for seed in (4, 5, 6)]
        locals_[1][::7] = 0.0
        fresh = combine_naive_bayes(locals_, 0.3, mode)
        assert fresh.min() < 1e-6 and fresh.max() == 1.0
        out = np.full(2 * BLOCK + 5, np.nan)
        assert combine_naive_bayes(locals_, 0.3, mode, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        first = locals_[0]
        assert combine_naive_bayes(locals_, 0.3, mode, out=first) is first
        assert first.tobytes() == fresh.tobytes()


def oracle_class_table(models, test, cfg, keep):
    """The slow oracle of one `score_blocks` table, whole: the whole-series
    profile table, `compute_probability` per row, then each class's
    `combine_naive_bayes` of its kept locals times its threshold weight."""
    locals_ = [feature for mo in models for feature in mo.features]
    table = profile_table(test, [spec for spec, _, _ in locals_], models[0].m)
    probs = iter([compute_probability(pos_h, neg_h, row, cfg.small_value_mode)
                  for (_, pos_h, neg_h), row in zip(locals_, table)])
    ids, rows = [], []
    for mo in models:
        kept = [p for (spec, _, _), p in zip(mo.features, probs) if keep is None or keep(spec)]
        if kept:
            ids.append(mo.class_id)
            combined = combine_naive_bayes(kept, mo.prior, cfg.nb_denominator)
            rows.append(combined * cfg.threshold_for(mo.class_id))
    return tuple(ids), np.array(rows).reshape(len(rows), table.shape[1])


KEEPS = [lambda spec: spec.kind == SHAPE, lambda spec: spec.kind != SHAPE, None]


@st.composite
def scoring_cases(draw):
    """(m, n, seed, nb_denominator, small_value_mode): series of one to four
    profile blocks of BLOCK - m + 1 windows, the last one partly filled, and
    windows up to a quarter block."""
    m = draw(st.integers(2, BLOCK // 4))
    step = BLOCK - m + 1
    n = draw(st.integers(0, 3)) * step + draw(st.integers(1, step)) + m - 1
    return (m, n, draw(st.integers(0, 10**6)), draw(st.sampled_from([NB_STANDARD, NB_PAPER_LITERAL])),
            draw(st.sampled_from([FLOOR_UNION, FLOOR_OWN])))


class TestClassTables:
    """The block pass of `score_blocks` against `oracle_class_table`."""

    KINDS = (SHAPE, SLIDING_STD, COMPLEXITY, SLIDING_MEAN)

    def models(self, sizes, x, m):
        """Class c's k-th local is of kind KINDS[(c + k) % 4]. Its histograms
        come from the two halves of its own profile over `x`, a walk, so the
        probabilities spread over (0, 1); a shape query is x's first window,
        rolled by c."""
        def feature(c, k):
            kind = self.KINDS[(c + k) % 4]
            return FeatureSpec(kind=kind, query=np.roll(x[:m], c) if kind == SHAPE else None)

        specs = [[feature(c, k) for k in range(size)] for c, size in enumerate(sizes)]
        rows = iter(profile_table(x, [f for fs in specs for f in fs], m))
        models = []
        for c, fs in enumerate(specs):
            features = []
            for f, row in zip(fs, rows):
                half = max(row.size // 2, 1)
                features.append((f, histogram_build(row[:half]), histogram_build(row[-half:])))
            models.append(ClassModel(f"c{c}", m, m - 1, tuple(features), prior=0.2 + 0.1 * c))
        return models

    @pytest.mark.parametrize("sizes", [(3, 1, 2), (1, 1, 2), (2, 3), (1,)])
    @settings(max_examples=10)
    @given(case=scoring_cases())
    def test_matches_the_whole_series_oracle(self, sizes, case):
        # (1,) is one shape local, so its class drops out of the feature
        # table, and (1, 1, 2) has classes that drop out of either.
        m, n, seed, nb, floor_mode = case
        x = np.cumsum(normals(seed, n)) + normals(seed + 1, n)
        test = TimeSeries(values=x)
        models = self.models(sizes, x, m)
        cfg = ClassifierConfig(thresholds={"c0": 1.5, "c1": 0.75}, nb_denominator=nb,
                               small_value_mode=floor_mode)
        want = [oracle_class_table(models, test, cfg, keep) for keep in KEEPS]
        ids, blocks = score_blocks(models, test, cfg, KEEPS)
        assert ids == [want_ids for want_ids, _ in want]
        done = 0
        for lo, tables in blocks:
            assert lo == done
            done += tables[0].shape[1]
            for table, (_, whole) in zip(tables, want):
                assert table.shape == (whole.shape[0], done - lo)
                assert table.tobytes() == whole[:, lo:done].tobytes()
        assert done == want[0][1].shape[1]
        # The whole-table assembler gives the same bytes.
        ids, table = class_probabilities(models, test, cfg)
        assert ids == want[2][0] and table.tobytes() == want[2][1].tobytes()

    @pytest.fixture(scope="class")
    def scored(self):
        """Four classes over every feature kind, and a test series of two
        profile blocks."""
        from shapefeat.data import TwoModalityParams, gen_two_modality_dataset

        kinds = {"sine": (SHAPE, COMPLEXITY, SLIDING_STD), "flat": (SHAPE, SLIDING_MEAN, SLIDING_STD),
                 "surge": (SHAPE, SLIDING_STD), "hum": (COMPLEXITY, SLIDING_STD)}
        params = TwoModalityParams(m=48, n_sine=6, n_flat=6, n_surge=4, n_hum=4)
        train_b = gen_two_modality_dataset(params, 5)
        specs = [ClassSpec(name, 48, 47, tuple(FeatureSpec(kind=k) for k in ks), prior=0.5)
                 for name, ks in kinds.items()]
        models = train(train_b.series, train_b.labels, specs)
        test = gen_two_modality_dataset(
            TwoModalityParams(m=48, n_sine=110, n_flat=110, n_surge=60, n_hum=60), 10_005)
        assert 1 < len(test.series) / BLOCK < 3
        return models, test

    def test_compare_variants_and_classify_sweep_the_oracle(self, scored):
        models, test = scored
        cfg = ClassifierConfig(thresholds={"sine": 1.3, "hum": 0.8})
        expected = []
        for name, keep in zip(["shape", "feature", "combined"], KEEPS):
            ids, table = oracle_class_table(models, test.series, cfg, keep)
            track = sweep_table(models, test.series, ids, table, cfg)
            for mo in models:
                cm = mil_confusion(track, test.labels, mo.class_id)
                expected.append((name, mo.class_id, cm, *metrics(cm)))
        assert any(row[2].tp for row in expected)
        assert compare_variants(models, test.series, test.labels, cfg) == expected
        # The combined run is classify's.
        assert classify(models, test.series, cfg) == track

    def test_roc_sweep_sweeps_the_oracle(self, scored):
        models, test = scored
        cfg = ClassifierConfig(thresholds={"sine": 1.3, "hum": 0.8})
        weights = [0.25, 0.5, 1.0, 2.0, 4.0]
        ids, table = oracle_class_table(models, test.series, cfg.replace_threshold("flat", 1.0), None)
        base = table[ids.index("flat")].copy()
        expected = []
        for w in weights:
            table[ids.index("flat")] = base * w
            cm = mil_confusion(sweep_table(models, test.series, ids, table, cfg), test.labels, "flat")
            precision, recall, _ = metrics(cm)
            expected.append((w, precision, recall, cm.tp, cm.fp, cm.fn, cm.tn))
        points = roc_sweep(models, test.series, test.labels, cfg, "flat", weights)
        assert [tuple(vars(p).values()) for p in points] == expected
        assert len({p.tp for p in points}) > 1


@st.composite
def visit_cases(draw):
    """(series, stride, zones, floor): one of `TestVisitStep`'s series, a
    stride of 1 to 24 and one exclusion zone of 0 to 200 per class, mostly
    with every e + 1 a multiple of one of the stride's divisors (or at most
    the stride), so the visit step g is often above 1."""
    series = draw(st.integers(0, len(TestVisitStep.LENGTHS) - 1))
    stride = draw(st.integers(1, 24))
    d = draw(st.sampled_from([k for k in range(1, stride + 1) if stride % k == 0]))
    zone = st.one_of(st.integers(1, 201 // d).map(lambda k: k * d - 1), st.integers(0, stride - 1),
                     st.integers(0, 200))
    zones = draw(st.lists(zone, min_size=4, max_size=4))
    floor = draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9]) | st.floats(0.0, 1.0))
    return series, stride, zones, floor


class TestVisitStep:
    """classify, compare_variants and roc_sweep, which score only the
    columns at multiples of the visit step g, against sweeps of whole
    stride-1 tables (`class_probabilities`)."""

    CLASSES = {"sine": (SHAPE, COMPLEXITY, SLIDING_STD), "flat": (SHAPE, SLIDING_MEAN, SLIDING_STD),
               "surge": (SHAPE, SLIDING_STD), "hum": (COMPLEXITY, SLIDING_STD)}
    # "flat" keeps weight 1, so the combined table is also roc's.
    THRESHOLDS = {"sine": 1.3, "hum": 0.8}
    # Prefixes of the test series (m = 48, so a profile block holds
    # BLOCK - 47 windows): two blocks, three with one window in the last,
    # and the whole series, three blocks.
    LENGTHS = (BLOCK + 4_321, 2 * (BLOCK - 47) + 48, None)

    @pytest.fixture(scope="class")
    def scored(self):
        """Four classes over every feature kind, and per test series its
        bags and whole tables: shape, feature, combined."""
        from shapefeat.data import TwoModalityParams, gen_two_modality_dataset

        train_b = gen_two_modality_dataset(TwoModalityParams(m=48, n_sine=6, n_flat=6, n_surge=4,
                                                             n_hum=4), 5)
        specs = [ClassSpec(name, 48, 47, tuple(FeatureSpec(kind=k) for k in ks), prior=0.5)
                 for name, ks in self.CLASSES.items()]
        models = train(train_b.series, train_b.labels, specs)
        test = gen_two_modality_dataset(
            TwoModalityParams(m=48, n_sine=220, n_flat=220, n_surge=110, n_hum=110), 10_005)
        cfg = ClassifierConfig(thresholds=self.THRESHOLDS)
        cases = []
        for n in self.LENGTHS:
            n = n or len(test.series)
            series = TimeSeries(values=test.series.values[:n])
            bags = LabelTrack(n, [Region(r.start, min(r.end, n), r.class_id)
                                  for r in test.labels.regions if r.start < n])
            cases.append((series, bags, [class_probabilities(models, series, cfg, keep)
                                         for keep in KEEPS]))
        assert [-(-(len(s) - 47) // (BLOCK - 47)) for s, _, _ in cases] == [2, 3, 3]
        return models, cases

    @settings(max_examples=20)
    @given(case=visit_cases())
    @example(case=(2, 4, [99, 99, 99, 99], 0.5))  # g = 4
    @example(case=(0, 24, [5, 11, 23, 0], 0.1))  # every jump is the stride: g = 24
    @example(case=(1, 12, [47, 23, 199, 11], 0.3))  # g = 12, some jumps longer
    def test_sweeps_of_the_whole_table(self, scored, case):
        k, stride, zones, floor = case
        models, cases = scored
        series, bags, tables = cases[k]
        models = [replace(mo, exclusion_zone=z) for mo, z in zip(models, zones)]
        cfg = ClassifierConfig(thresholds=self.THRESHOLDS, stride=stride, decision_floor=floor)
        expected, tracks = [], []
        for name, (ids, table) in zip(["shape", "feature", "combined"], tables):
            tracks.append(sweep_table(models, series, ids, table, cfg))
            for mo in models:
                cm = mil_confusion(tracks[-1], bags, mo.class_id)
                expected.append((name, mo.class_id, cm, *metrics(cm)))
        assert compare_variants(models, series, bags, cfg) == expected
        got = classify(models, series, cfg)
        assert got == tracks[-1]
        for field in ("positions", "label_codes", "scores"):
            assert getattr(got, field).tobytes() == getattr(tracks[-1], field).tobytes()
        ids, table = tables[2]
        base = table[ids.index("flat")].copy()
        weights = [0.25, 1.0, 4.0]
        points = []
        for w in weights:
            weighted = table.copy()
            weighted[ids.index("flat")] = base * w
            cm = mil_confusion(sweep_table(models, series, ids, weighted, cfg), bags, "flat")
            points.append((w, *metrics(cm)[:2], cm.tp, cm.fp, cm.fn, cm.tn))
        got = roc_sweep(models, series, bags, cfg, "flat", weights)
        assert [tuple(vars(p).values()) for p in got] == points


class TestFloorModes:
    def test_own_range_floor_differs_from_union(self):
        # A narrow class histogram far from the value: the own-range floor
        # is huge, the union-range floor stays small.
        pos = Histogram(edges=[0.0, 0.001], counts=[10])
        neg = Histogram(edges=[0.0, 100.0], counts=[1000])
        prof = profile_of([50.0])
        union = compute_probability(pos, neg, prof, small_value_mode="union")
        own = compute_probability(pos, neg, prof, small_value_mode="own")
        assert union[0] < 0.3
        assert own[0] > 0.9
