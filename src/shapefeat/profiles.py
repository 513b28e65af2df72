"""Distance and feature profiles over sliding windows.

The distance kernel is the Euclidean distance between z-normalized
subsequences. Two implementations are provided: a brute-force reference
(`distance_profile_naive`) and an FFT-accelerated one
(`distance_profile_mass`) built on one sliding dot product, in the style of
the MASS similarity-search algorithm. The kernels take optional state that
the profiles of one series (or of one block of it) share: `stats`, its
`sliding_stats(ts, m)`, and `spectrum`, its `series_spectrum(ts)`. Absent
state is computed from the series. `profile_blocks` is the one cut that
training and scoring share: it yields overlapping slices of the series and
computes nothing. `feature_profiles` writes a slice's profiles into the
caller's rows from one `sliding_stats` and one `series_spectrum`, freed on
return. So the stats and FFT buffers are one block long, as in the blocked
MASS of Mueen et al. and the blocked running sums of Chan, Golub and
LeVeque. Training writes every slice into one [feature, window] table
(`profile_table`); scoring writes each into one block buffer.
"""
from __future__ import annotations

from collections import abc
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


def _flat(std, mean) -> np.ndarray:
    """The one flat-window rule: std below 1e-8 * max(1, |mean|)."""
    # `out` keeps a scalar mean's eps an array for the in-place steps.
    eps = np.abs(mean, out=np.empty(np.shape(mean)))
    np.maximum(eps, 1.0, out=eps)
    eps *= 1e-8
    return std < eps


@dataclass(frozen=True, eq=False)
class SlidingStats:
    """Per-window mean, population standard deviation, and the flat mask:
    std below 1e-8 * max(1, |mean|), the rule every kernel reads."""

    means: np.ndarray
    stds: np.ndarray
    flat: np.ndarray


def _znormalize_rows(w: np.ndarray) -> np.ndarray:
    """Z-normalize along the last axis; a flat row (std below
    1e-8 * max(1, |mean|)) maps to all zeros instead of dividing by ~0."""
    mu = w.mean(axis=-1, keepdims=True)
    sd = w.std(axis=-1, keepdims=True)
    flat = _flat(sd, mu)
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
    truly constant window past the flat threshold. Both running sums share
    one buffer, and the arithmetic runs in place: the peak stays near three
    series lengths of float64.
    """
    x = _as_values(ts)
    n = x.size
    if m > n:
        raise DataError(f"window {m} exceeds series length {n}")
    if m < 1:
        raise DataError(f"window must be >= 1, got {m}")
    length = n - m + 1
    shift = float(x.mean())
    xc = np.subtract(x, shift)
    c = np.empty(n + 1)
    c[0] = 0.0
    np.cumsum(xc, out=c[1:])
    means = np.subtract(c[m:], c[:-m])  # the window sums
    np.multiply(xc, xc, out=xc)
    np.cumsum(xc, out=c[1:])
    # The sums of squares overwrite xc, which the second cumsum consumed.
    var = np.subtract(c[m:], c[:-m], out=xc[:length])
    means /= m
    var /= m
    var -= np.multiply(means, means, out=c[:length])
    del c
    means += shift
    np.maximum(var, 0.0, out=var)
    stds = np.sqrt(var, out=var)
    changes = np.empty(n, dtype=np.int64)
    changes[0] = 0
    np.not_equal(x[1:], x[:-1], out=changes[1:])
    np.cumsum(changes[1:], out=changes[1:])
    constant = np.equal(changes[m - 1 :], changes[:length])
    del changes
    np.copyto(stds, 0.0, where=constant)
    np.copyto(means, x[:length], where=constant)
    return SlidingStats(means=means, stds=stds, flat=_flat(stds, means))


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
    fq = np.fft.rfft(q[::-1], size)
    np.multiply(fx, fq, out=fq)
    return np.fft.irfft(fq, size)[q.size - 1 : x.size]


def distance_profile_mass(ts, query, stats=None, spectrum=None) -> np.ndarray:
    """FFT-accelerated distance profile, identical contract to the naive one.

    d[i] = sqrt(2m * (1 - corr_i)) where corr_i is the Pearson correlation
    of the query with window i. The dot product runs against the
    mean-centered query (the centering makes the m * mean_i * mean_q
    correction vanish analytically, removing its cancellation error; the
    rounding left in the centered query's sum is taken out per window), corr
    is clamped to [-1, 1], and near-zero distances are recomputed directly:
    at d ~ 0 the sqrt amplifies FFT roundoff beyond the 1e-6 contract.
    """
    x = _as_values(ts)
    q = _check_query(x, query)
    m = q.size
    if stats is None:
        stats = sliding_stats(x, m)
    mu_q = float(q.mean())
    sd_q = float(q.std())
    if _flat(sd_q, mu_q):
        # Flat query: distance is 0 to flat windows, sqrt(m) otherwise.
        return np.where(stats.flat, 0.0, np.sqrt(m))
    qc = q - mu_q
    qt = _sliding_dot_product(x, qc, spectrum)
    # The float sum of qc is not exactly 0; its share of each window's dot
    # product is that sum times the window mean.
    qt -= float(qc.sum()) * stats.means
    # One buffer: denominator, then correlation, then distance.
    d = np.where(stats.flat, 1.0, stats.stds)
    d *= m * sd_q
    np.divide(qt, d, out=d)
    np.subtract(1.0, d, out=d)
    np.clip(d, 0.0, 2.0, out=d)
    d *= 2.0 * m
    np.sqrt(d, out=d)
    np.copyto(d, np.sqrt(m), where=stats.flat)
    # Flat windows sit at sqrt(m), never below the threshold.
    suspects = np.flatnonzero(d < 0.05 * np.sqrt(m))
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
    d = np.diff(x)
    np.multiply(d, d, out=d)
    c = np.empty(d.size + 1)
    c[0] = 0.0
    np.cumsum(d, out=c[1:])
    # The window sums overwrite the squared diffs, which the cumsum consumed.
    sums = np.subtract(c[m - 1 :], c[: -(m - 1)], out=d[: x.size - m + 1])
    del c
    np.maximum(sums, 0.0, out=sums)
    np.sqrt(sums, out=sums)
    np.divide(sums, stats.stds, out=sums, where=~stats.flat)
    np.copyto(sums, 0.0, where=stats.flat)
    return sums


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


def feature_profiles(ts, features: Sequence[FeatureSpec], m: int, out: np.ndarray) -> np.ndarray:
    """Write each feature's profile into its row of `out` [feature, window],
    in the order given, and return `out`. The profiles share one
    `sliding_stats` and, when any feature is a shape feature, one
    `series_spectrum`; both are gone when it returns."""
    stats = sliding_stats(ts, m)
    spectrum = series_spectrum(ts) if any(f.kind == SHAPE for f in features) else None
    for feature, row in zip(features, out):
        row[:] = generate_profile(ts, feature, m, stats, spectrum)
    return out


#: The one cut of a pass: samples per block of `profile_blocks` (more when
#: 4 * m exceeds it), which scoring and its sweeps take one at a time, and
#: windows per run of `freq`'s window counts.
BLOCK = 1 << 16


def profile_blocks(source, m: int) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, x[lo : hi + m - 1]), the samples of windows lo..hi-1,
    over overlapping slices of S = max(BLOCK, next_pow2(4 * m)) samples.
    Each slice holds S - m + 1 whole windows and starts where the last one
    ended, so every window's profile comes from its own slice alone. A
    series of at most S samples is one slice: the whole-series profiles,
    bit for bit. Only a series shorter than m has no window: its one slice
    has hi <= lo.

    `source` is the series, or an iterator of its consecutive sample
    arrays (`data.SeriesStream`), which is read as far as the next slice
    needs. Either gives the same slices; slices of a series are views."""
    size = max(BLOCK, 1 << (4 * m - 1).bit_length())
    step = size - m + 1
    parts = source if isinstance(source, abc.Iterator) else iter([_as_values(source)])
    lo, held, pending = 0, 0, []
    for part in parts:
        pending.append(part)
        held += part.size
        while held >= size:
            x = _joined(pending)
            pending = [x[step:]]
            yield lo, lo + step, x[:size]
            lo, held = lo + step, held - step
    if held >= m or lo == 0:
        yield lo, lo + held - m + 1, _joined(pending)


def _joined(parts) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def profile_table(ts, features: Sequence[FeatureSpec], m: int) -> np.ndarray:
    """[feature, window] profiles of the series, slice by slice of `profile_blocks`."""
    x = _as_values(ts)
    table = np.empty((len(features), max(x.size - m + 1, 0)))
    for lo, hi, xs in profile_blocks(x, m):
        feature_profiles(xs, features, m, table[:, lo:hi])
    return table
