import os
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefeat import data, model, profiles
from shapefeat.core import (
    COMPLEXITY,
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
    TimeSeries,
)
from shapefeat.data import (
    SeriesFile,
    gen_random_noise,
    gen_random_walk,
    load_series,
    normals,
    save_series,
    uniforms,
)
from shapefeat.evaluate import compare_variants
from shapefeat.model import ClassSpec, classify, train
from shapefeat.profiles import (
    BLOCK,
    complexity_profile,
    distance_profile_mass,
    generate_profile,
    profile_blocks,
    series_spectrum,
    sliding_feature_profile,
    slice_profiles,
    sliding_stats,
    znormalize,
)

from oracles import distance_profile_naive, profile_table


def direct_window_stats(x, m):
    """Per-window oracle: plain numpy mean/std on each explicit window."""
    means = np.array([x[i : i + m].mean() for i in range(len(x) - m + 1)])
    stds = np.array([x[i : i + m].std() for i in range(len(x) - m + 1)])
    return means, stds


class TestZnormalize:
    def test_two_points(self):
        assert np.allclose(znormalize([0.0, 2.0]), [-1.0, 1.0])

    def test_flat_rule(self):
        assert np.array_equal(znormalize([5.0, 5.0, 5.0, 5.0]), np.zeros(4))

    def test_random_vector_is_standardized(self):
        x = normals(3, 100)
        z = znormalize(x)
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-9

    def test_too_short(self):
        with pytest.raises(DataError, match="need at least 2 samples to z-normalize"):
            znormalize([1.0])
        with pytest.raises(DataError, match="need at least 2 samples to z-normalize, got 1"):
            znormalize(np.zeros((5, 1)))  # rows of one sample each

    @pytest.mark.parametrize("m", [2, 7, 8, 9, 64, 100, 300])
    def test_rows_get_their_own_bits(self, m):
        # The medoid z-normalizes its candidates in one call.
        rows = np.round(normals(m, 40 * m).reshape(40, m) * 1e3) / 7.0 + 1e6
        rows[3] = rows[3, 0]  # a flat row
        assert znormalize(rows).tobytes() == np.stack([znormalize(r) for r in rows]).tobytes()


class TestSlidingStats:
    def test_tiny_example(self):
        stats = sliding_stats([1.0, 2.0, 3.0], 2)
        assert np.allclose(stats.means, [1.5, 2.5])
        assert np.allclose(stats.stds, [0.5, 0.5])

    def test_constant_series_has_exactly_zero_stds(self):
        stats = sliding_stats(np.full(500, 7.25), 50)
        assert np.array_equal(stats.stds, np.zeros(451))
        assert np.array_equal(stats.means, np.full(451, 7.25))

    def test_flat_stretch_inside_noisy_series_is_exact(self):
        x = normals(11, 2000)
        x[700:900] = 3.0
        stats = sliding_stats(x, 64)
        assert np.array_equal(stats.stds[700 : 900 - 64 + 1], np.zeros(137))

    @pytest.mark.parametrize("n,m", [(10_000, 100), (100_000, 257)])
    def test_matches_direct_oracle(self, n, m):
        x = normals(n, n) * 3.0 + 50.0  # offset stresses the running sums
        stats = sliding_stats(x, m)
        means, stds = direct_window_stats(x, m)
        assert np.allclose(stats.means, means, rtol=1e-9, atol=1e-12)
        assert np.allclose(stats.stds, stds, rtol=1e-9, atol=1e-9)

    def test_window_too_long(self):
        with pytest.raises(DataError, match="window 3 exceeds series length 2"):
            sliding_stats([1.0, 2.0], 3)


class TestDistanceProfiles:
    def test_self_query_is_zero(self):
        ts = gen_random_noise(400, 21)
        k, m = 123, 50
        query = ts.values[k : k + m]
        naive = distance_profile_naive(ts, query)
        mass = distance_profile_mass(ts, query)
        assert naive[k] <= 1e-9
        assert mass[k] <= 1e-6

    def test_flat_series_and_flat_query(self):
        ts = TimeSeries(values=np.full(100, 4.0))
        prof = distance_profile_naive(ts, np.full(10, 9.0))
        assert np.array_equal(prof, np.zeros(91))
        prof = distance_profile_mass(ts, np.full(10, 9.0))
        assert np.array_equal(prof, np.zeros(91))

    def test_flat_windows_against_structured_query(self):
        x = normals(5, 200)
        x[60:120] = 2.0
        ts = TimeSeries(values=x)
        q = ts.values[0:16]
        m = 16
        for prof in (distance_profile_naive(ts, q), distance_profile_mass(ts, q)):
            # Windows fully inside the flat stretch z-normalize to zeros.
            assert np.allclose(prof[60 : 120 - m + 1], np.sqrt(m), atol=1e-6)

    def test_mass_matches_naive_on_random_pairs(self):
        rng_seeds = range(30)
        worst = 0.0
        for seed in rng_seeds:
            u = normals(seed, 2)
            n = 64 + int(abs(u[0]) * 400) % 1000
            ts = gen_random_noise(n, seed + 100)
            m = 4 + int(abs(u[1] * 1000)) % max(1, n // 2 - 4)
            start = seed % (n - m + 1)
            query = ts.values[start : start + m]
            naive = distance_profile_naive(ts, query)
            mass = distance_profile_mass(ts, query)
            worst = max(worst, float(np.abs(naive - mass).max()))
        assert worst <= 1e-6

    def test_distance_bound(self):
        ts = gen_random_walk(2048, 3)
        m = 64
        prof = distance_profile_mass(ts, ts.values[500 : 500 + m])
        assert prof.min() >= 0.0
        assert prof.max() <= 2.0 * np.sqrt(m) + 1e-6

    def test_shift_and_scale_invariance(self):
        ts = gen_random_noise(600, 9)
        q = ts.values[50:114]
        base = distance_profile_mass(ts, q)
        shifted = TimeSeries(values=ts.values + 37.5)
        scaled = TimeSeries(values=ts.values * 4.0)
        assert np.allclose(distance_profile_mass(shifted, q), base, atol=1e-6)
        assert np.allclose(distance_profile_mass(scaled, q), base, atol=1e-6)

    def test_query_longer_than_series(self):
        with pytest.raises(DataError, match="query length 3 exceeds series length 2"):
            distance_profile_naive(TimeSeries(values=[1.0, 2.0]), [1.0, 2.0, 3.0])


class TestComplexityProfile:
    def test_constant_window_scores_zero(self):
        prof = complexity_profile(TimeSeries(values=np.full(50, 2.0)), 10)
        assert np.array_equal(prof, np.zeros(41))

    def test_alternating_window(self):
        m = 16
        x = np.tile([1.0, -1.0], 40)
        prof = complexity_profile(TimeSeries(values=x), m)
        assert np.allclose(prof, 2.0 * np.sqrt(m - 1))

    def test_offset_and_scale_invariance(self):
        ts = gen_random_noise(500, 4)
        base = complexity_profile(ts, 32)
        moved = complexity_profile(TimeSeries(values=5.0 + 2.5 * ts.values), 32)
        assert np.allclose(base, moved, rtol=1e-9, atol=1e-9)

    def test_noise_beats_walk(self):
        wins = 0
        for seed in range(20):
            noise = complexity_profile(gen_random_noise(1000, seed), 150)
            walk = complexity_profile(gen_random_walk(1000, seed + 500), 150)
            if noise.mean() > walk.mean():
                wins += 1
        assert wins == 20

    def test_window_of_one_rejected(self):
        with pytest.raises(DataError, match="complexity needs window >= 2"):
            complexity_profile(TimeSeries(values=[1.0, 2.0, 3.0]), 1)


class TestSlidingFeatureProfile:
    def test_constant_series(self):
        ts = TimeSeries(values=np.full(30, 3.5))
        assert np.array_equal(sliding_feature_profile(ts, 5, SLIDING_MEAN), np.full(26, 3.5))
        assert np.array_equal(sliding_feature_profile(ts, 5, SLIDING_STD), np.zeros(26))

    def test_matches_direct_oracle(self):
        x = normals(77, 3000) * 2.0 + 10.0
        ts = TimeSeries(values=x)
        means, stds = direct_window_stats(x, 40)
        assert np.allclose(sliding_feature_profile(ts, 40, SLIDING_MEAN), means, rtol=1e-9)
        assert np.allclose(
            sliding_feature_profile(ts, 40, SLIDING_STD), stds, rtol=1e-9, atol=1e-9
        )

    def test_unknown_stat(self):
        with pytest.raises(DataError, match="unknown sliding statistic 'median'"):
            sliding_feature_profile(TimeSeries(values=np.ones(10)), 2, "median")


class TestGenerateProfile:
    def test_shape_dispatch(self):
        ts = gen_random_noise(300, 15)
        q = ts.values[40:72]
        spec = FeatureSpec(kind=SHAPE, id="proto", query=q)
        prof = generate_profile(ts, spec, 32)
        assert np.array_equal(prof, distance_profile_mass(ts, q))

    def test_complexity_dispatch(self):
        ts = gen_random_noise(300, 16)
        prof = generate_profile(ts, FeatureSpec(kind=COMPLEXITY), 32)
        assert np.array_equal(prof, complexity_profile(ts, 32))

    def test_output_length(self):
        ts = gen_random_noise(300, 17)
        for kind in (COMPLEXITY, SLIDING_MEAN, SLIDING_STD):
            assert len(generate_profile(ts, FeatureSpec(kind=kind), 32)) == 269

    def test_shape_without_query_rejected(self):
        ts = gen_random_noise(100, 18)
        with pytest.raises(DataError, match="has no query"):
            generate_profile(ts, FeatureSpec(kind=SHAPE), 16)

    def test_shape_query_length_mismatch(self):
        ts = gen_random_noise(100, 19)
        spec = FeatureSpec(kind=SHAPE, query=np.ones(8))
        with pytest.raises(DataError, match="query length 8 != m=16"):
            generate_profile(ts, spec, 16)


# Reference kernels: sliding_stats, distance_profile_mass and
# complexity_profile as they were written before they ran in place (MASS
# with the centered query's residual sum taken out). The in-place kernels
# must give the same bits.


def reference_flat_eps(mean):
    return 1e-8 * np.maximum(1.0, np.abs(mean))


def reference_znormalize_rows(w):
    mu = w.mean(axis=-1, keepdims=True)
    sd = w.std(axis=-1, keepdims=True)
    flat = sd < reference_flat_eps(mu)
    return np.where(flat, 0.0, (w - mu) / np.where(flat, 1.0, sd))


def reference_sliding_stats(x, m):
    """(means, stds)."""
    n = x.size
    shift = float(x.mean())
    xc = x - shift
    c1 = np.empty(n + 1)
    c1[0] = 0.0
    np.cumsum(xc, out=c1[1:])
    c2 = np.empty(n + 1)
    c2[0] = 0.0
    np.cumsum(xc * xc, out=c2[1:])
    s1 = c1[m:] - c1[:-m]
    s2 = c2[m:] - c2[:-m]
    means = s1 / m + shift
    var = s2 / m - (s1 / m) ** 2
    np.maximum(var, 0.0, out=var)
    stds = np.sqrt(var)
    changes = (x[1:] != x[:-1]).astype(np.int64)
    cc = np.concatenate(([0], np.cumsum(changes)))
    constant = (cc[m - 1 :] - cc[: -(m - 1)]) == 0
    if constant.any():
        stds[constant] = 0.0
        means[constant] = x[: n - m + 1][constant]
    return means, stds


def reference_mass(x, q):
    m = q.size
    means, stds = reference_sliding_stats(x, m)
    flat_w = stds < reference_flat_eps(means)
    mu_q = float(q.mean())
    sd_q = float(q.std())
    if sd_q < reference_flat_eps(mu_q):
        return np.where(flat_w, 0.0, np.sqrt(m))
    fx = np.fft.rfft(x, 1 << max(0, int(x.size - 1).bit_length()))
    size = 2 * (fx.size - 1)
    qc = q - mu_q
    qt = np.fft.irfft(fx * np.fft.rfft(qc[::-1], size), size)[m - 1 : x.size]
    qt -= float(qc.sum()) * means
    denom = np.where(flat_w, 1.0, stds) * (m * sd_q)
    corr = qt / denom
    d = np.sqrt(2.0 * m * np.clip(1.0 - corr, 0.0, 2.0))
    d[flat_w] = np.sqrt(m)
    suspects = np.flatnonzero((d < 0.05 * np.sqrt(m)) & ~flat_w)
    if suspects.size:
        zq = reference_znormalize_rows(q)
        zw = reference_znormalize_rows(x[suspects[:, None] + np.arange(m)])
        d[suspects] = np.sqrt(((zw - zq) ** 2).sum(axis=1))
    return d


def reference_complexity(x, m):
    means, stds = reference_sliding_stats(x, m)
    d2 = np.diff(x) ** 2
    c = np.empty(d2.size + 1)
    c[0] = 0.0
    np.cumsum(d2, out=c[1:])
    sums = c[m - 1 :] - c[: -(m - 1)]
    np.maximum(sums, 0.0, out=sums)
    flat = stds < reference_flat_eps(means)
    denom = np.where(flat, 1.0, stds)
    return np.where(flat, 0.0, np.sqrt(sums) / denom)


@st.composite
def series_and_query(draw):
    """(series, query): noise or a walk at offset 0, -7.5 or 1e8, sometimes
    with an exactly constant stretch or rounded to whole numbers (ties and
    partly constant windows). The query is a window of the series, fresh
    noise at the series' scale and offset, or constant."""
    m = draw(st.integers(2, 64))
    n = draw(st.integers(m, 400))
    x = normals(draw(st.integers(0, 2**32 - 1)), n)
    if draw(st.booleans()):
        x = np.cumsum(x)
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, -7.5, 1e8]))
    x = x * scale + offset
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        x[start : draw(st.integers(start + 1, n))] = x[start]
    if draw(st.booleans()):
        x = np.round(x)
    kind = draw(st.sampled_from(["window", "noise", "constant"]))
    if kind == "window":
        start = draw(st.integers(0, n - m))
        q = x[start : start + m].copy()
    elif kind == "noise":
        q = normals(n, m) * scale + offset
    else:
        q = np.full(m, offset + 1.0)
    return x, q


class TestKernelsMatchReferences:
    """The in-place kernels give the reference kernels' bits."""

    @settings(max_examples=200)
    @given(series_and_query())
    def test_sliding_stats(self, case):
        x, q = case
        stats = sliding_stats(x, q.size)
        means, stds = reference_sliding_stats(x, q.size)
        assert stats.means.tobytes() == means.tobytes()
        assert stats.stds.tobytes() == stds.tobytes()
        assert stats.flat.tobytes() == (stds < reference_flat_eps(means)).tobytes()

    @settings(max_examples=200)
    @given(series_and_query())
    def test_mass(self, case):
        x, q = case
        expected = reference_mass(x, q).tobytes()
        assert distance_profile_mass(x, q).tobytes() == expected
        shared = distance_profile_mass(x, q, sliding_stats(x, q.size), series_spectrum(x))
        assert shared.tobytes() == expected

    @settings(max_examples=100)
    @given(series_and_query())
    def test_complexity(self, case):
        x, q = case
        assert complexity_profile(x, q.size).tobytes() == reference_complexity(x, q.size).tobytes()

    def test_window_of_one(self):
        x = normals(3, 50)
        stats = sliding_stats(x, 1)
        assert np.array_equal(stats.means, x) and not stats.stds.any()
        assert stats.flat.all()


@st.composite
def near_flat_series(draw):
    """(series, query) around the flat threshold 1e-8 * |mean|: noise at
    offset 1e8 or -7.5 whose std is 0.5, 2 or 1000 times the threshold, and
    a window of it or fresh noise at another of those ratios as the query."""
    m = draw(st.integers(2, 64))
    n = draw(st.integers(m, 400))
    offset = draw(st.sampled_from([1e8, -7.5]))
    threshold = 1e-8 * max(1.0, abs(offset))
    ratios = st.sampled_from([0.5, 2.0, 1e3])
    x = offset + normals(draw(st.integers(0, 2**32 - 1)), n) * threshold * draw(ratios)
    if draw(st.booleans()):
        start = draw(st.integers(0, n - m))
        return x, x[start : start + m].copy()
    return x, offset + normals(n, m) * threshold * draw(ratios)


class TestMassAgainstNaive:
    """MASS against the per-window oracle away from the defaults: large
    offsets and stds near the flat threshold."""

    @settings(max_examples=100)
    @given(near_flat_series())
    def test_flat_windows_and_queries_take_the_rule(self, case):
        # Where the oracle finds the window or the query flat, the distance
        # is set by the rule (0 or sqrt(m)), not by the dot product.
        x, q = case
        m = q.size
        windows = np.lib.stride_tricks.sliding_window_view(x, m)
        flat = windows.std(axis=1) < reference_flat_eps(windows.mean(axis=1))
        if q.std() >= reference_flat_eps(q.mean()):
            ruled = flat
        else:
            ruled = np.ones(flat.size, dtype=bool)
        mass = distance_profile_mass(x, q)
        naive = distance_profile_naive(x, q)
        assert np.array_equal(sliding_stats(x, m).flat, flat)
        assert np.allclose(mass[ruled], naive[ruled], rtol=0.0, atol=1e-6)

    @settings(max_examples=100)
    @given(near_flat_series())
    def test_every_window_within_1e_6(self, case):
        x, q = case
        assert np.allclose(
            distance_profile_mass(x, q), distance_profile_naive(x, q), rtol=0.0, atol=1e-6
        )


def drifting_series(seed, n, offset, noise):
    """A walk, plus a linear drift of 1e4 over the series, plus uniform noise
    in [-noise, noise) and an alternating +-2 * noise term, at `offset`.
    Neighbours then differ by about 2 * noise or more, so every window's std
    stays near `noise` or above, even at m = 2."""
    x = np.cumsum(normals(seed, n))
    x += np.linspace(0.0, 1e4, n)
    x += (2.0 * uniforms(seed + 1, n) - 1.0) * noise
    x[::2] += 2.0 * noise
    x[1::2] -= 2.0 * noise
    return x + offset


def table_features(q):
    return [FeatureSpec(kind=SHAPE, query=q), FeatureSpec(kind=COMPLEXITY),
            FeatureSpec(kind=SLIDING_STD)]


def assert_table_matches_oracles(x, q, m, positions):
    """profile_table rows [shape, complexity, sliding_std] against per-window
    oracles at `positions`: MASS within 1e-6, std and complexity within a
    relative 1e-6."""
    table = profile_table(x, table_features(q), m)
    assert table.shape == (3, x.size - m + 1)
    windows = x[positions[:, None] + np.arange(m)]
    stds = windows.std(axis=1)
    z = reference_znormalize_rows(windows)
    complexity = np.sqrt((np.diff(z, axis=1) ** 2).sum(axis=1))
    naive = np.sqrt(((z - reference_znormalize_rows(q)) ** 2).sum(axis=1))
    assert np.allclose(table[0, positions], naive, rtol=0.0, atol=1e-6)
    assert np.allclose(table[1, positions], complexity, rtol=1e-6, atol=0.0)
    assert np.allclose(table[2, positions], stds, rtol=1e-6, atol=0.0)
    return table


def sampled_positions(seed, length, m):
    """40 random window starts, both ends, and both sides of every block
    boundary of profile_table."""
    step = max(BLOCK, 1 << (4 * m - 1).bit_length()) - m + 1
    edges = [p for lo in range(step, length, step) for p in (lo - 1, lo)]
    random = (uniforms(seed, 40) * length).astype(np.int64)
    return np.unique(np.concatenate((np.array([0, length - 1, *edges]), random)))


class TestProfileTable:
    """The block pass against per-window oracles, from under one block to
    about three, under drift and at large offsets. The windows' stds stay far
    above the flat threshold and the running sums' rounding: a window whose
    std is a tiny fraction of its block's spread loses digits
    (`test_small_std_windows_keep_their_digits`, a strict xfail)."""

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, BLOCK // 4),
        st.integers(0, 3 * BLOCK),
        st.sampled_from([0.0, 1e4, 1e6, 1e8]),
        st.booleans(),
    )
    def test_rows_match_per_window_oracles(self, seed, m, extra, offset, own_window):
        n = m + extra
        x = drifting_series(seed, n, offset, noise=100.0)
        start = int(uniforms(seed, 1)[0] * (n - m + 1))
        q = x[start : start + m].copy() if own_window else normals(seed + 2, m) * 100.0 + offset
        positions = sampled_positions(seed, n - m + 1, m)
        table = assert_table_matches_oracles(x, q, m, positions)
        if n <= BLOCK:
            # One block: the whole-series profiles, bit for bit.
            for row, f in zip(table, table_features(q)):
                assert row.tobytes() == generate_profile(x, f, m).tobytes()

    def test_window_above_half_a_block(self):
        # m > BLOCK / 2 takes blocks of next_pow2(4 * m) = 2**18 samples.
        m = BLOCK // 2 + 1000
        n = 5 * BLOCK
        x = drifting_series(5, n, 1e6, noise=100.0)
        q = x[BLOCK : BLOCK + m].copy()
        assert_table_matches_oracles(x, q, m, sampled_positions(5, n - m + 1, m))

    @pytest.mark.xfail(strict=True, reason="the running sums of sliding_stats cancel on a "
                       "window whose std is a tiny fraction of its block's spread")
    def test_small_std_windows_keep_their_digits(self):
        # Two neighbours of unit noise may lie far closer together than the
        # block's 1e4 spread: at m = 2 the relative std error reaches 1 or
        # more (2e-5 at m = 5, 1e-7 at m = 100).
        n, m = 3 * BLOCK, 2
        for seed in range(3):
            x = np.cumsum(normals(seed, n)) + np.linspace(0.0, 1e4, n) + normals(seed + 1, n)
            x += 1e4
            positions = (uniforms(seed, 3000) * (n - m + 1)).astype(np.int64)
            row = profile_table(x, [FeatureSpec(kind=SLIDING_STD)], m)[0]
            stds = x[positions[:, None] + np.arange(m)].std(axis=1)
            assert np.allclose(row[positions], stds, rtol=1e-6, atol=0.0)

    def test_m_longer_than_the_series(self):
        with pytest.raises(DataError, match="window 9 exceeds series length 8"):
            profile_table(normals(1, 8), [FeatureSpec(kind=SLIDING_STD)], 9)


class TestProfileBlocks:
    """The slice contract of `profile_blocks`, which any other slice source
    must meet: (lo, hi, x[lo : hi + m - 1]) triples of at most S samples,
    from window 0 to window n - m, each starting where the last ended."""

    @staticmethod
    def assert_contract(n, m):
        x = np.arange(n, dtype=np.float64)
        size = max(BLOCK, 1 << (4 * m - 1).bit_length())
        end = 0
        for lo, hi, xs in profile_blocks(x, m):
            assert lo == end < hi
            assert xs.tobytes() == x[lo : hi + m - 1].tobytes()
            assert xs.size <= size
            end = hi
        assert end == n - m + 1

    @settings(max_examples=60)
    @given(st.integers(2, BLOCK // 4), st.integers(0, 4 * BLOCK))
    def test_slices_cover_every_window_once(self, m, extra):
        self.assert_contract(m + extra, m)

    @pytest.mark.parametrize("m", [2, 3, 100, BLOCK // 4 - 1, BLOCK // 4])
    def test_slice_edges(self, m):
        step = BLOCK - m + 1
        for n in (m, m + 1, BLOCK - 1, BLOCK, BLOCK + 1, step + m, 3 * step + m - 1,
                  3 * step + m, 3 * step + m + 1):
            self.assert_contract(n, m)

    def test_a_series_of_one_slice_is_the_series(self):
        x = normals(1, BLOCK)
        [(lo, hi, xs)] = profile_blocks(x, 100)
        assert (lo, hi) == (0, BLOCK - 99)
        assert xs.tobytes() == x.tobytes()

    @pytest.mark.parametrize("m", [2, 100, BLOCK // 4 + 1])
    @pytest.mark.parametrize("at", ["S-1", "S", "S+1", "2S-m+2"])
    def test_a_series_file_gives_the_loaded_slices(self, tmp_path, m, at):
        # Read slices, one buffer of S samples refilled per slice, are the
        # loaded series' views: on both sides of the one-slice limit, and
        # where a third slice holds one window.
        size = max(BLOCK, 1 << (4 * m - 1).bit_length())
        n = {"S-1": size - 1, "S": size, "S+1": size + 1, "2S-m+2": 2 * size - m + 2}[at]
        path = tmp_path / "series.txt"
        path.write_text("".join(f"{k % 1000 - 500}.25\n" for k in range(n)))
        loaded = load_series(str(path))
        expected = [(lo, hi, xs.tobytes()) for lo, hi, xs in profile_blocks(loaded, m)]
        assert len(expected) == (1 if n <= size else 2 if at == "S+1" else 3)
        with SeriesFile(str(path)) as series:
            assert [(lo, hi, xs.tobytes()) for lo, hi, xs in profile_blocks(series, m)] == expected

    def test_a_zero_length_series_has_one_empty_slice(self):
        # One empty slice without a window, which scoring refuses from the
        # series' length before it asks for a slice.
        slices = [(lo, hi, xs.size) for lo, hi, xs in profile_blocks(np.empty(0), 4)]
        assert slices == [(0, -3, 0)]
        hist = Histogram(edges=[0.0, 1.0], counts=[1])
        models = [ClassModel("c", 4, 0, ((FeatureSpec(kind=SLIDING_MEAN), hist, hist),), 0.5)]
        with pytest.raises(ModelError, match="test series of length 0 is shorter than m=4"), \
                mock.patch.object(model, "profile_blocks") as cut:
            classify(models, np.empty(0), ClassifierConfig())
        assert cut.call_count == 0


def mixed_features(m):
    """Two shape features of different queries, then every other kind."""
    return [FeatureSpec(kind=SHAPE, query=normals(21, m)), FeatureSpec(kind=COMPLEXITY),
            FeatureSpec(kind=SHAPE, query=normals(22, m)), FeatureSpec(kind=SLIDING_MEAN),
            FeatureSpec(kind=SLIDING_STD)]


class TestFeatureOrder:
    """`slice_profiles` yields one profile per feature, in the order given,
    wherever the shape features sit, and `profile_table` writes them so."""

    @pytest.mark.parametrize("order", [
        (0, 1, 3, 4), (1, 0, 3, 4), (1, 3, 4, 0), (3, 0, 4, 2, 1),
        (2, 0, 2), (1, 3, 4), (4,), (0,),
    ])
    def test_each_profile_is_the_kernel_on_shared_state(self, order, monkeypatch):
        m = 40
        x = drifting_series(3, 3000, 1e4, noise=100.0)
        mixed = mixed_features(m)
        features = [mixed[i] for i in order]
        stats, spectrum = sliding_stats(x, m), series_spectrum(x)
        spectra = []

        def counted(ts):
            spectra.append(ts)
            return series_spectrum(ts)

        monkeypatch.setattr(profiles, "series_spectrum", counted)
        out = list(slice_profiles(x, features, m))
        assert len(out) == len(features)
        for f, prof in zip(features, out):
            assert prof.tobytes() == generate_profile(x, f, m, stats, spectrum).tobytes()
        # One spectrum when any feature is a shape feature, none otherwise.
        assert len(spectra) == any(f.kind == SHAPE for f in features)

    @pytest.mark.parametrize("perm", [(4, 3, 2, 1, 0), (1, 3, 0, 4, 2), (2, 4, 1, 0, 3)])
    def test_permuted_features_permute_the_table(self, perm):
        m = 40
        x = drifting_series(4, 2 * BLOCK + 500, 1e4, noise=100.0)
        features = mixed_features(m)
        table = profile_table(x, features, m)
        permuted = profile_table(x, [features[i] for i in perm], m)
        assert permuted.tobytes() == table[list(perm)].tobytes()


class TestBlockLifetime:
    def test_block_state_is_gone_before_the_lookups(self, monkeypatch):
        # Each block's sliding stats and spectrum are freed before its
        # density lookups run, so at most one set lives at a time. A profile
        # generator left suspended after its last yield would hold both
        # through the lookups.
        refs = []

        def recorded(kernel):
            def wrapper(*args, **kwargs):
                result = kernel(*args, **kwargs)
                refs.append(weakref.ref(result))
                return result
            return wrapper

        live = []
        compute_probability = model.compute_probability

        def lookup(*args, **kwargs):
            live.append(sum(ref() is not None for ref in refs))
            return compute_probability(*args, **kwargs)

        monkeypatch.setattr(profiles, "sliding_stats", recorded(profiles.sliding_stats))
        monkeypatch.setattr(profiles, "series_spectrum", recorded(profiles.series_spectrum))
        monkeypatch.setattr(model, "compute_probability", lookup)
        test = TimeSeries(values=normals(9, 2 * BLOCK + 500))
        classify(TestScoringMemory.two_class_models(100), test, ClassifierConfig())
        # Three blocks of a stats and a spectrum each; four locals per run
        # of LOOKUP positions of a block.
        assert len(refs) == 6
        step = BLOCK - 99
        widths = [step, step, 2 * BLOCK + 500 - 99 - 2 * step]
        assert live == [0] * (4 * sum(-(-w // model.LOOKUP) for w in widths))


class TestScoringMemory:
    """`tracemalloc` peaks of the scoring kernels, in series lengths."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sliding_stats_below_five_series(self):
        # The running sums share one buffer and the arithmetic runs in
        # place: about 3.3 series at the peak, against 11.1 when each step
        # took a new array.
        x = normals(8, 10**6)
        assert self.peak(lambda: sliding_stats(x, 100)) < 5.0 * x.nbytes

    @staticmethod
    def two_class_models(m):
        """Two classes of [shape, sliding_std] locals whose histograms agree,
        so every local is 0.5 and every position reaches the decision floor."""
        hist = Histogram(edges=np.linspace(-1.0, 1.0, 21), counts=np.arange(1, 21))
        return [
            ClassModel(
                class_id=name,
                m=m,
                exclusion_zone=m - 1,
                features=(
                    (FeatureSpec(kind=SHAPE, query=normals(seed, m)), hist, hist),
                    (FeatureSpec(kind=SLIDING_STD), hist, hist),
                ),
                prior=0.1,
            )
            for seed, name in enumerate(["a", "b"])
        ]

    @staticmethod
    def scoring_peaks(n, commands):
        """Traced peak of each command at stride 4 over n points, with every
        position above the floor: one detection per 100 positions."""
        test = TimeSeries(values=normals(9, n))
        bags = LabelTrack(n, [Region(k, k + 1000, "a") for k in range(0, n - 1000, 10_000)])
        models = TestScoringMemory.two_class_models(100)
        cfg = ClassifierConfig(stride=4)
        calls = {"classify": lambda: classify(models, test, cfg),
                 "compare": lambda: compare_variants(models, test, bags, cfg)}
        return {name: TestScoringMemory.peak(calls[name]) for name in commands}

    @pytest.fixture(scope="class")
    def peaks_at_2m(self):
        return self.scoring_peaks(2_000_000, ["classify", "compare"])

    def test_classify_and_compare_below_three_quarters_of_a_series(self, peaks_at_2m):
        # The sweeps take each block as it comes, so no [class, position]
        # table is full length. At n = 2,000,000 (31 blocks) classify traced
        # 0.39 series and compare 0.57, the block buffers; with full-length
        # tables they traced 3.1 and 7.2.
        nbytes = 2_000_000 * 8
        assert peaks_at_2m["classify"] < 0.75 * nbytes
        assert peaks_at_2m["compare"] < 0.75 * nbytes

    def test_compare_below_half_a_series(self, peaks_at_2m):
        # compare's three tables are one lookup run wide, not one block,
        # and hold only the columns at multiples of the visit step,
        # gcd(4, 100) = 4: 0.46 series traced, against 0.57 with tables of
        # every column of a block.
        assert peaks_at_2m["compare"] < 0.5 * 2_000_000 * 8

    def test_classify_no_larger_than_with_block_wide_tables(self, peaks_at_2m):
        # 0.385 series traced; block-wide tables of every column gave 0.402.
        assert peaks_at_2m["classify"] <= 0.402 * 2_000_000 * 8

    @pytest.mark.parametrize("stride, step", [(1, 1), (4, 4), (7, 1), (8, 4), (150, 150)])
    def test_no_table_wider_than_a_lookup_run(self, stride, step):
        # Zones of 99: the visit step is gcd(stride, max(stride, 100)). The
        # runs hold each column at a multiple of it once, in order.
        n = 2 * BLOCK + 500
        models = self.two_class_models(100)
        _, blocks = model.score_blocks(models, TimeSeries(values=normals(9, n)),
                                       ClassifierConfig(stride=stride),
                                       [None, lambda spec: spec.kind == SHAPE])
        los, widths = [], []
        for lo, tables in blocks:
            assert [t.shape for t in tables] == [(2, tables[0].shape[1])] * 2
            los.append(lo)
            widths.append(tables[0].shape[1])
        assert max(widths) <= model.LOOKUP
        positions = n - 100 + 1
        assert los == list(np.cumsum([0, *widths[:-1]]) * step)
        assert sum(widths) == -(-positions // step)

    def test_classify_peak_does_not_grow_with_the_series(self, peaks_at_2m):
        # Only the detections, 20 bytes each, grow with n: 0.19 MB more at
        # 4n measured, against 37 MB more with a full-length table.
        at_n = self.scoring_peaks(500_000, ["classify"])["classify"]
        assert peaks_at_2m["classify"] - at_n < 2e6

    def test_classify_on_a_file_does_not_grow_with_the_series(self, tmp_path):
        # The series streams in one read block at a time, so the traced
        # peak, series included, is the block buffers and one block of
        # text: 0.05 MB more at 4n measured, against 8.1 MB more when
        # `load_series` read the file whole.
        models = self.two_class_models(100)
        cfg = ClassifierConfig(stride=4)
        peaks = []
        for n in (250_000, 1_000_000):
            path = str(tmp_path / f"series-{n}.txt")
            save_series(TimeSeries(values=normals(9, n)), path)

            def parse_and_classify():
                with SeriesFile(path) as series:
                    classify(models, series, cfg)

            peaks.append(self.peak(parse_and_classify))
        assert peaks[1] - peaks[0] < 2e6

    def test_classify_on_a_sidecar_does_not_grow_with_the_series(self, tmp_path):
        # A second read of the same text takes its values from the sidecar
        # that the first one wrote, one read block at a time: the traced
        # peak went 7.06 → 6.89 MB from n = 250,000 to 1,000,000.
        models = self.two_class_models(100)
        cfg = ClassifierConfig(stride=4)
        peaks = []
        for n in (250_000, 1_000_000):
            path = str(tmp_path / f"series-{n}.txt")
            save_series(TimeSeries(values=normals(9, n)), path)
            load_series(path)  # writes the sidecar

            def hit():
                with SeriesFile(path) as series:
                    classify(models, series, cfg)

            with mock.patch.object(data, "_series_blocks") as parse:
                peaks.append(self.peak(hit))
            assert parse.call_count == 0
        assert peaks[1] - peaks[0] < 2e6


class TestTrainingMemory:
    """`train` reads its series file one block at a time in each pass, so
    at a fixed labeled extent its memory does not grow with the series."""

    # The same 40 bags of two classes in the first 100,000 samples of a
    # noise series of n and of 4n.
    BAGS = [Region(k, k + 250, "ab"[i % 2]) for i, k in enumerate(range(2_000, 100_000, 2_500))]
    SPECS = [ClassSpec(c, 100, 99, (FeatureSpec(kind=SHAPE), FeatureSpec(kind=SLIDING_STD)))
             for c in "ab"]

    @staticmethod
    def trained(path, n, out):
        """Train on the series file at `path` of `n` values, and save the
        models to `out`."""
        with SeriesFile(str(path)) as series:
            data.save_model(train(series, LabelTrack(n, TestTrainingMemory.BAGS),
                                  TestTrainingMemory.SPECS), str(out))

    def test_train_on_a_file_does_not_grow_with_the_series(self, tmp_path):
        # Opening the file parses its text and writes the sidecar that
        # every later pass reads; all of it is traced: 6.33 MB at
        # n = 125,000 and 6.26 MB at 4n measured, against 8.59 and
        # 29.41 MB when the text was loaded whole and profiled into one
        # [feature, window] table.
        peaks = []
        for n in (125_000, 500_000):
            path = tmp_path / f"series-{n}.txt"
            save_series(TimeSeries(values=normals(9, n)), str(path))
            peaks.append(TestScoringMemory.peak(
                lambda: self.trained(path, n, tmp_path / "model.sfcm")))
        assert peaks[1] - peaks[0] < 2e6

    def test_train_on_a_pipe_does_not_grow_with_the_series(self, tmp_path):
        # A pipe is parsed once into an anonymous temp file, which every
        # pass reads, and gives its file's model bytes.
        peaks = []
        for n in (125_000, 500_000):
            path = tmp_path / f"series-{n}.txt"
            save_series(TimeSeries(values=normals(9, n)), str(path))
            self.trained(path, n, tmp_path / "file.sfcm")
            fifo = tmp_path / f"series-{n}.fifo"
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                      daemon=True)
            writer.start()
            try:
                peaks.append(TestScoringMemory.peak(
                    lambda: self.trained(fifo, n, tmp_path / "pipe.sfcm")))
            finally:
                writer.join(timeout=60)
            assert not writer.is_alive()
            assert (tmp_path / "pipe.sfcm").read_bytes() == (tmp_path / "file.sfcm").read_bytes()
        assert peaks[1] - peaks[0] < 2e6
