import numpy as np
import pytest

from shapefeat.core import (
    COMPLEXITY,
    SHAPE,
    SLIDING_MEAN,
    SLIDING_STD,
    DataError,
    FeatureSpec,
    TimeSeries,
)
from shapefeat.data import gen_random_noise, gen_random_walk, normals
from shapefeat.profiles import (
    complexity_profile,
    distance_profile_mass,
    distance_profile_naive,
    generate_profile,
    sliding_feature_profile,
    sliding_stats,
    znormalize,
)


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
