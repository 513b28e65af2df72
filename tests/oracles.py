"""Whole-series oracles that the package's blocked and streamed paths are
checked against: the brute-force distance profile, the [feature, window]
profile table, and the claim pass that trained from that table.
"""
from typing import List, Sequence, Tuple

import numpy as np

from shapefeat.core import DataError, FeatureSpec, Histogram, ModelError
from shapefeat.model import histogram_build
from shapefeat.profiles import (
    _as_values,
    _check_query,
    _znormalize_rows,
    profile_blocks,
    slice_profiles,
    znormalize,
)


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


def profile_table(ts, features: Sequence[FeatureSpec], m: int) -> np.ndarray:
    """[feature, window] profiles of the series, slice by slice of `profile_blocks`."""
    x = _as_values(ts)
    table = np.empty((len(features), max(x.size - m + 1, 0)))
    for lo, hi, xs in profile_blocks(x, m):
        for row, profile in zip(table[:, lo:hi], slice_profiles(xs, features, m)):
            row[:] = profile
    return table


def table_distributions(train, labels, specs) -> List[Tuple[Histogram, Histogram]]:
    """`model.compute_distributions` over one whole `profile_table`: per
    local, a touch mask and a claimed mask of every position, each region
    in turn claiming its lowest free position, and the untouched values
    gathered into one array."""
    m = specs[0].m
    if m > len(train):
        raise DataError(f"subsequence length {m} exceeds series length {len(train)}")
    length = len(train) - m + 1
    owners = []  # (class_id, exclusion_zone, spans) of each local
    for spec in specs:
        regions = labels.class_regions(spec.class_id)
        if not regions:
            raise ModelError(f"no labeled regions of class {spec.class_id!r}")
        e = spec.exclusion_zone
        spans = [(max(0, r.start - e + 1), min(length, r.end)) for r in regions] if e > 0 else []
        owners += [(spec.class_id, e, spans)] * len(spec.features)
    out = []
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
        p_values = np.sort(v[claimed], kind="stable")
        out.append((histogram_build(p_values), histogram_build(n_values)))
    return out
