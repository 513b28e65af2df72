"""Distance and feature profiles over sliding windows.

The distance kernel is the Euclidean distance between z-normalized
subsequences. Two implementations are provided: a brute-force reference
(`distance_profile_naive`) and an FFT-accelerated one
(`distance_profile_mass`) built on one sliding dot product, in the style of
the MASS similarity-search algorithm. The kernels take optional per-series
state that a scoring pass shares across features: `stats`, the series'
`sliding_stats(ts, m)`, and `spectrum`, its `series_spectrum(ts)`. Absent
state is computed from the series. `feature_profiles` is the one profile
pass that training and scoring share: it decides when that state is built
and when it is dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .core import (
    COMPLEXITY,
    SHAPE,
    SLIDING_MEAN,
    SLIDING_STD,
    DataError,
    FeatureSpec,
    TimeSeries,
)


def _as_values(x) -> np.ndarray:
    if isinstance(x, TimeSeries):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _flat_eps(mean) -> np.ndarray:
    """Threshold below which a window's std counts as flat."""
    return 1e-8 * np.maximum(1.0, np.abs(mean))


@dataclass(frozen=True, eq=False)
class SlidingStats:
    """Per-window mean and population standard deviation."""

    means: np.ndarray
    stds: np.ndarray


def _znormalize_rows(w: np.ndarray) -> np.ndarray:
    """Z-normalize along the last axis; a flat row (std below
    1e-8 * max(1, |mean|)) maps to all zeros instead of dividing by ~0."""
    mu = w.mean(axis=-1, keepdims=True)
    sd = w.std(axis=-1, keepdims=True)
    flat = sd < _flat_eps(mu)
    return np.where(flat, 0.0, (w - mu) / np.where(flat, 1.0, sd))


def znormalize(x) -> np.ndarray:
    """Shift to mean 0 and scale to population std 1 (flat input: zeros)."""
    x = _as_values(x)
    if x.size < 2:
        raise DataError(f"need at least 2 samples to z-normalize, got {x.size}")
    return _znormalize_rows(x)


def sliding_stats(ts, m: int) -> SlidingStats:
    """Mean/std of every length-m window in O(n).

    Running sums are taken after subtracting the global mean, which keeps
    the variance computation well conditioned for offset data. Windows whose
    values are all identical are detected exactly (integer change counts)
    and forced to std 0, so cumsum cancellation noise can never push a
    truly constant window past the flat threshold.
    """
    x = _as_values(ts)
    n = x.size
    if m > n:
        raise DataError(f"window {m} exceeds series length {n}")
    if m < 1:
        raise DataError(f"window must be >= 1, got {m}")
    if m == 1:
        return SlidingStats(means=x.copy(), stds=np.zeros(n))
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
    return SlidingStats(means=means, stds=stds)


def _check_query(x: np.ndarray, query) -> np.ndarray:
    q = _as_values(query)
    if q.size < 2:
        raise DataError(f"query must have at least 2 samples, got {q.size}")
    if q.size > x.size:
        raise DataError(f"query length {q.size} exceeds series length {x.size}")
    if not np.all(np.isfinite(q)):
        raise DataError("query contains non-finite values")
    return q


def distance_profile_naive(ts, query) -> np.ndarray:
    """Reference O(n*m) distance profile; the oracle for the FFT version.

    Each window and the query are z-normalized independently (flat rule
    included) before taking the Euclidean distance.
    """
    x = _as_values(ts)
    q = _check_query(x, query)
    m = q.size
    zw = _znormalize_rows(np.lib.stride_tricks.sliding_window_view(x, m))
    return np.sqrt(((zw - znormalize(q)) ** 2).sum(axis=1))


def series_spectrum(ts) -> np.ndarray:
    """rfft of the series at the next power-of-two size: the query-free half
    of every MASS sliding dot product over it."""
    x = _as_values(ts)
    return np.fft.rfft(x, 1 << max(0, int(x.size - 1).bit_length()))


def _sliding_dot_product(x: np.ndarray, q: np.ndarray, spectrum=None) -> np.ndarray:
    """dot(q, x[i:i+m]) for every i, via one FFT of the next power-of-two size."""
    fx = series_spectrum(x) if spectrum is None else spectrum
    size = 2 * (fx.size - 1)
    prod = np.fft.irfft(fx * np.fft.rfft(q[::-1], size), size)
    return prod[q.size - 1 : x.size]


def distance_profile_mass(ts, query, stats=None, spectrum=None) -> np.ndarray:
    """FFT-accelerated distance profile, identical contract to the naive one.

    d[i] = sqrt(2m * (1 - corr_i)) where corr_i is the Pearson correlation
    of the query with window i. The dot product runs against the
    mean-centered query (the centering makes the m * mean_i * mean_q
    correction vanish analytically, removing its cancellation error), corr
    is clamped to [-1, 1], and near-zero distances are recomputed directly:
    at d ~ 0 the sqrt amplifies FFT roundoff beyond the 1e-6 contract.
    """
    x = _as_values(ts)
    q = _check_query(x, query)
    m = q.size
    if stats is None:
        stats = sliding_stats(x, m)
    flat_w = stats.stds < _flat_eps(stats.means)
    mu_q = float(q.mean())
    sd_q = float(q.std())
    if sd_q < _flat_eps(mu_q):
        # Flat query: distance is 0 to flat windows, sqrt(m) otherwise.
        return np.where(flat_w, 0.0, np.sqrt(m))
    qt = _sliding_dot_product(x, q - mu_q, spectrum)
    denom = np.where(flat_w, 1.0, stats.stds) * (m * sd_q)
    corr = qt / denom
    d = np.sqrt(2.0 * m * np.clip(1.0 - corr, 0.0, 2.0))
    d[flat_w] = np.sqrt(m)
    suspects = np.flatnonzero((d < 0.05 * np.sqrt(m)) & ~flat_w)
    if suspects.size:
        zq = znormalize(q)
        offsets = np.arange(m)
        for start in range(0, suspects.size, 4096):
            idx = suspects[start : start + 4096]
            zw = _znormalize_rows(x[idx[:, None] + offsets])
            d[idx] = np.sqrt(((zw - zq) ** 2).sum(axis=1))
    return d


def complexity_profile(ts, m: int, stats=None) -> np.ndarray:
    """Complexity of each z-normalized window: sqrt(sum of squared diffs).

    Because diffs cancel the window mean, this reduces to the sliding sum
    of squared first differences divided by the window std; flat windows
    score 0.
    """
    x = _as_values(ts)
    if m < 2:
        raise DataError(f"complexity needs window >= 2, got {m}")
    if stats is None:
        stats = sliding_stats(x, m)
    d2 = np.diff(x) ** 2
    c = np.empty(d2.size + 1)
    c[0] = 0.0
    np.cumsum(d2, out=c[1:])
    sums = c[m - 1 :] - c[: -(m - 1)]
    np.maximum(sums, 0.0, out=sums)
    flat = stats.stds < _flat_eps(stats.means)
    denom = np.where(flat, 1.0, stats.stds)
    return np.where(flat, 0.0, np.sqrt(sums) / denom)


def sliding_feature_profile(ts, m: int, stat: str, stats=None) -> np.ndarray:
    """Raw (non-normalized) mean or std per window: the `stats` array itself.

    These capture the amplitude/offset signal that z-normalization
    deliberately removes.
    """
    if stats is None:
        stats = sliding_stats(ts, m)
    if stat == SLIDING_MEAN:
        return stats.means
    if stat == SLIDING_STD:
        return stats.stds
    raise DataError(f"unknown sliding statistic {stat!r}")


def generate_profile(ts, feature: FeatureSpec, m: int, stats=None, spectrum=None) -> np.ndarray:
    """Dispatch to the kernel for `feature.kind`."""
    if feature.kind == SHAPE:
        if feature.query is None:
            raise DataError(f"shape feature {feature.id!r} has no query")
        if feature.query.size != m:
            raise DataError(
                f"shape feature {feature.id!r} query length {feature.query.size} != m={m}"
            )
        return distance_profile_mass(ts, feature.query, stats, spectrum)
    if feature.kind == COMPLEXITY:
        return complexity_profile(ts, m, stats)
    if feature.kind in (SLIDING_MEAN, SLIDING_STD):
        return sliding_feature_profile(ts, m, feature.kind, stats)
    raise DataError(f"unknown feature kind {feature.kind!r}")


def feature_profiles(
    ts, features: Sequence[FeatureSpec], m: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (index, profile) for every feature, shape features first.

    One `sliding_stats` is shared by every profile and one `series_spectrum`
    by the shape profiles; the spectrum is released before the first other
    profile is built.
    """
    stats = sliding_stats(ts, m)
    spectrum = None
    for i in sorted(range(len(features)), key=lambda i: features[i].kind != SHAPE):
        feature = features[i]
        if feature.kind != SHAPE:
            spectrum = None
        elif spectrum is None:
            spectrum = series_spectrum(ts)
        yield i, generate_profile(ts, feature, m, stats, spectrum)
