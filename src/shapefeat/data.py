"""Data generation and file I/O.

All generators run on a portable counter-based random stream so that a
(params, seed) pair yields bit-identical output on any platform:

* uniform stream: splitmix64 applied to the counter sequence
  seed + i * 0x9E3779B97F4A7C15 (i = 1, 2, ...), mapped to [0, 1) via the
  top 53 bits;
* normal variates: Box-Muller on consecutive uniform pairs (u1, u2), with
  u1 floored at 2**-53; pairs are consumed in order and the trailing
  variate of the final pair is dropped for odd counts.

File formats:

* series: UTF-8 text, one value per line, optional ``# key: value`` header
  comments (name, sample_rate_hz);
* series sidecar: ``.<basename>.sfsc`` beside a series text, the values of
  its last clean parse: 4-byte magic ``SFSC`` + 1 version byte, the values
  as little-endian float64, then a trailer (see `_FOOTER`). It is used only
  while its key, a hash of the text's bytes, matches the text. A
  `SeriesFile` holds one snapshot of the series open, from one of two
  functions of one return shape: `_open_sidecar`, the checked sidecar, or
  else `_parse_snapshot`, the file a parse of the text writes, which
  becomes the sidecar (a pipe's is an anonymous temp file of the same
  layout). Each `read` seeks straight to the values it asks for;
* labels: CSV lines ``start,end,class`` with end exclusive, 0-based;
* models: 4-byte magic ``SFCM`` + 1 version byte + JSON payload;
* predictions: header comments + CSV rows ``position,class,score`` for
  detections only, one row per position in ascending order.
"""
from __future__ import annotations

import json
import math
import os
import stat
import struct
import sys
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from importlib.util import source_hash
from itertools import chain, islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ClassModel,
    DataError,
    FeatureSpec,
    Histogram,
    LabelTrack,
    PredictionTrack,
    Region,
    TimeSeries,
    valid_sample_rate,
    valid_series_name,
    whole_number,
)

# splitmix64 constants (Steele, Lea & Flood's mix; widely published).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Odd constant for deriving independent sub-streams from one seed.
_STREAM = np.uint64(0xD1B54A32D192ED03)

MODEL_MAGIC = b"SFCM"
MODEL_VERSION = 1


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, count: int) -> np.ndarray:
    """`count` deterministic uniforms in [0, 1)."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GAMMA)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """`count` deterministic standard normal variates (Box-Muller)."""
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    u1 = np.maximum(u[0::2], 2.0**-53)
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count]


def derive_seed(seed: int, stream: int) -> int:
    """Independent sub-seed for stream `stream` of a master seed."""
    counter = (seed + stream * int(_STREAM)) & 0xFFFFFFFFFFFFFFFF
    return int(_mix64(np.asarray([counter], dtype=np.uint64))[0])


def _shuffled(items: list, seed: int) -> list:
    """Fisher-Yates shuffle driven by the portable uniform stream."""
    out = list(items)
    n = len(out)
    if n < 2:
        return out
    u = uniforms(seed, n - 1)
    for i in range(n - 1, 0, -1):
        j = int(u[n - 1 - i] * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def gen_random_noise(n: int, seed: int) -> TimeSeries:
    """iid standard normal draws."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    return TimeSeries(values=normals(seed, n), name=f"random-noise(seed={seed})")


def gen_random_walk(n: int, seed: int) -> TimeSeries:
    """Cumulative sum of the noise stream for the same seed."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    return TimeSeries(values=np.cumsum(normals(seed, n)), name=f"random-walk(seed={seed})")


@dataclass(frozen=True)
class DatasetBundle:
    """A generated or loaded (series, labels) pair with provenance."""

    series: TimeSeries
    labels: LabelTrack
    provenance: str


# Fixed shape of the two-modality fixture; lengths are in units of m.
GAP_LEN = (1.5, 2.5)
SINE_AMP, AMP_JITTER, SURGE_AMP = 1.0, 0.08, 3.0
FLAT_LEVEL, FLAT_LEVEL_JITTER = 1.0, 0.5
GAP_STD = 2.0
HUM_STD = SINE_AMP / np.sqrt(2.0)
HUM_BAND = (0.2, 0.35)  # the carrier's band, in cycles per sample


@dataclass(frozen=True)
class TwoModalityParams:
    """Knobs for the planted two-modality fixture.

    Four region types are planted in a band-limited high-frequency carrier
    (the unlabeled filler in `HUM_BAND`, scaled to `GAP_STD`):

    * ``sine`` (the shape class): sine bursts, aligned phase, per-region
      amplitude jitter, relative noise `noise_level`;
    * ``flat`` (the feature class): exactly constant stretches;
    * ``surge``: sine bursts scaled by `SURGE_AMP`, label-only confusers
      that are shape-identical to the sine class after z-normalization but
      amplitude-distinct (they defeat a shape-only run);
    * ``hum``: labeled stretches of the carrier scaled to the sine bursts'
      window deviation, `HUM_STD` (they defeat a feature-only run).

    Lengths are in units of m; gaps are `GAP_LEN` long. Labels stop m
    samples before each material block ends so every labeled position's
    window lies inside its material.
    """

    m: int = 64
    n_sine: int = 24
    n_flat: int = 24
    n_surge: int = 12
    n_hum: int = 12
    region_len: Tuple[float, float] = (2.0, 3.0)
    noise_level: float = 0.05
    sine_cycles: float = 2.0
    align: int = 1  # quantize block lengths to this many samples
    sample_rate_hz: Optional[float] = 100.0

    def __post_init__(self):
        if self.m < 4:
            raise DataError("m must be >= 4")
        if min(self.n_sine, self.n_flat) < 1:
            raise DataError("need at least one sine and one flat region")
        if min(self.n_surge, self.n_hum) < 0:
            raise DataError("region counts must be >= 0")
        if self.region_len[0] < 1.5:
            raise DataError("regions must be at least 1.5 windows long")
        if not (0.0 <= self.noise_level < 1.0):
            raise DataError("noise_level must be in [0, 1)")
        if self.align < 1:
            raise DataError("align must be >= 1")


SINE_CLASS = "sine"
FLAT_CLASS = "flat"
SURGE_CLASS = "surge"
HUM_CLASS = "hum"


def _span_samples(bounds: Tuple[float, float], m: int, u: float, align: int) -> int:
    lo, hi = bounds
    span = int(round((lo + (hi - lo) * u) * m))
    return max(align, (span // align) * align)


def gen_two_modality_dataset(params: TwoModalityParams, seed: int) -> DatasetBundle:
    """Planted fixture with a shape-friendly and a feature-friendly class.

    Ground truth is exact: every labeled position's window lies fully
    inside its region's material.
    """
    p = params
    m = p.m
    kinds = (
        [SINE_CLASS] * p.n_sine
        + [FLAT_CLASS] * p.n_flat
        + [SURGE_CLASS] * p.n_surge
        + [HUM_CLASS] * p.n_hum
    )
    kinds = _shuffled(kinds, derive_seed(seed, 0))
    n_blocks = len(kinds)
    u_len = uniforms(derive_seed(seed, 1), n_blocks)
    u_gap = uniforms(derive_seed(seed, 2), n_blocks + 1)
    u_amp = uniforms(derive_seed(seed, 3), n_blocks)

    lens = [_span_samples(p.region_len, m, u, p.align) for u in u_len]
    gaps = [_span_samples(GAP_LEN, m, u, p.align) for u in u_gap]
    n = sum(lens) + sum(gaps)

    carrier = normals(derive_seed(seed, 4), n)
    spectrum = np.fft.rfft(carrier)
    freq = np.fft.rfftfreq(n)
    keep = (freq >= HUM_BAND[0]) & (freq <= HUM_BAND[1])
    spectrum[~keep] = 0.0
    carrier = np.fft.irfft(spectrum, n)
    carrier_std = float(carrier.std())
    if carrier_std > 0:
        carrier /= carrier_std
    x = carrier * GAP_STD

    noise = normals(derive_seed(seed, 5), n)
    regions: List[Region] = []
    pos = 0
    for b, kind in enumerate(kinds):
        pos += gaps[b]
        length = lens[b]
        t = np.arange(length, dtype=np.float64)
        jitter = 1.0 + AMP_JITTER * (2.0 * u_amp[b] - 1.0)
        if kind == SINE_CLASS or kind == SURGE_CLASS:
            amp = SINE_AMP * jitter if kind == SINE_CLASS else SURGE_AMP * jitter
            x[pos : pos + length] = amp * (
                np.sin(2.0 * np.pi * p.sine_cycles * t / m)
                + p.noise_level * noise[pos : pos + length]
            )
        elif kind == FLAT_CLASS:
            level = FLAT_LEVEL + FLAT_LEVEL_JITTER * (2.0 * u_amp[b] - 1.0)
            x[pos : pos + length] = level
        else:  # HUM_CLASS: the carrier again, but at the bursts' deviation
            x[pos : pos + length] = carrier[pos : pos + length] * HUM_STD
        regions.append(Region(start=pos, end=pos + length - m, class_id=kind))
        pos += length

    series = TimeSeries(
        values=x, sample_rate_hz=p.sample_rate_hz, name=f"two-modality(seed={seed})"
    )
    return DatasetBundle(
        series=series,
        labels=LabelTrack(series_length=n, regions=tuple(regions)),
        provenance=f"gen_two_modality_dataset(seed={seed}, m={m}, blocks={n_blocks})",
    )


GUN_CLASS = "Gun"
NOGUN_CLASS = "NoGun"
NOISE_CLASS = "RandomNoise"
WALK_CLASS = "RandomWalk"


def _check_counts(n_per_class: int, length: int) -> None:
    for name, value in (("n_per_class", n_per_class), ("length", length)):
        if value < 1:
            raise DataError(f"{name} must be at least 1, got {value}")


def noise_walk_instances(
    n_per_class: int = 20, length: int = 150, seed: int = 0
) -> List[Tuple[np.ndarray, str]]:
    """Noise instances plus walks whose steps reuse the same noise rows."""
    _check_counts(n_per_class, length)
    noise = normals(derive_seed(seed, 12), n_per_class * length).reshape(n_per_class, length)
    out: List[Tuple[np.ndarray, str]] = [(row.copy(), NOISE_CLASS) for row in noise]
    out.extend((row.copy(), WALK_CLASS) for row in np.cumsum(noise, axis=1))
    return out


def build_gun_experiment(
    gun_instances: Sequence[np.ndarray],
    nogun_instances: Sequence[np.ndarray],
    n_per_class: int = 20,
    length: int = 150,
    seed: int = 0,
) -> List[Tuple[np.ndarray, str]]:
    """The 4-class instance set: subsampled Gun/NoGun plus noise and walks."""
    # Before the pool checks: `a[:length]` with a negative length cuts from the end.
    _check_counts(n_per_class, length)
    out: List[Tuple[np.ndarray, str]] = []
    for name, pool in ((GUN_CLASS, gun_instances), (NOGUN_CLASS, nogun_instances)):
        if len(pool) < n_per_class:
            raise DataError(f"need {n_per_class} {name} instances, got {len(pool)}")
        arrs = []
        for inst in pool:
            a = np.asarray(inst, dtype=np.float64)
            if a.size < length:
                raise DataError(f"{name} instance of length {a.size} is shorter than {length}")
            arrs.append(a[:length])
        order = _shuffled(list(range(len(arrs))), derive_seed(seed, 10 if name == GUN_CLASS else 11))
        for idx in order[:n_per_class]:
            out.append((arrs[idx], name))
    # Walk steps reuse the noise instances, mirroring the generator identity
    # (a walk's first differences are the noise stream for the same seed).
    out.extend(noise_walk_instances(n_per_class, length, seed))
    return out


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def read_file(path: str, binary: bool = False):
    """The whole file in one read: UTF-8 text, or bytes when `binary`."""
    try:
        if binary:
            with open(path, "rb") as fh:
                return fh.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: byte offset {exc.start}") from exc


# Bytes per read of a text file. A text loader holds about one block at a
# time: its text, and one string per line.
_BLOCK_BYTES = 1 << 18
# The line breaks of `str.splitlines` other than \n and \r, in UTF-8. None
# of them is part of another character, or of another break. A lone \x85
# byte is not one of them: it also ends characters such as "Å" (C3 85).
_OTHER_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                 b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")


def _cut(block: bytes) -> int:
    """Where to cut a block so that its lines are the whole file's: after
    its last b"\n", else after its last b"\r" but the final byte (which may
    be half of a b"\r\n"), else after its last complete other break; 0 when
    it holds none."""
    return (block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
            or max((at + len(brk) for brk in _OTHER_BREAKS if (at := block.rfind(brk)) >= 0),
                   default=0))


def _read_lines(path: str, key: Optional[_Key] = None):
    """Yield (number of the first line, lines) per block of a UTF-8 text
    file, each block read also going to `key` when given. The reader keeps
    no block's text or lines while it reads the next, so a caller that
    drops its own reference holds one block."""
    first, offset, pending = 1, 0, []
    try:
        with open(path, "rb") as fh:
            while True:
                block = fh.read(_BLOCK_BYTES)
                end = not block
                if key is not None and block:
                    key.update(block)
                cut = _cut(block)
                pending.append(block[:cut] if cut else block)
                if not (end or cut):
                    continue
                data, pending = b"".join(pending), [block[cut:]]
                del block
                try:
                    text = data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    at = offset + exc.start
                    raise DataError(f"{path} is not UTF-8: byte offset {at}") from exc
                offset += len(data)
                del data
                lines = text.splitlines()
                del text
                count = len(lines)
                yield first, lines
                del lines
                if end:
                    return
                first += count
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _stripped_lines(path: str, meta: dict):
    """(line number, stripped text) of the data lines; ``# key: value`` lines go to `meta`."""
    for first, lines in _read_lines(path):
        yield from _data_lines(path, lines, first, meta)


def _data_lines(path: str, lines: List[str], first: int, meta: dict,
                values: Optional[int] = None):
    """(line number, stripped text) of a block's data lines, `first` the
    number of its first line; ``# key: value`` lines go to `meta`. In a
    series, whose data lines are its values, `values` counts the values
    before the block: from the first value on, a sample_rate_hz header
    must keep the rate in effect."""
    for lineno, text in enumerate(map(str.strip, lines), first):
        if text.startswith("#"):
            _header(path, text, lineno, meta, fixed=bool(values))
        elif text:
            yield lineno, text
            if values is not None:
                values += 1


def _header(path: str, text: str, lineno: int, meta: dict, fixed: bool = False) -> None:
    """Record a ``# key: value`` comment in `meta`; sample_rate_hz must be
    finite and > 0, and when `fixed`, the rate already in `meta`."""
    key, colon, value = (part.strip() for part in text[1:].partition(":"))
    if colon and key == "sample_rate_hz":
        try:
            rate = float(value)
        except ValueError:
            rate = 0.0
        if not valid_sample_rate(rate):
            raise DataError(f"{path} has missing or bad metadata: sample_rate_hz must be "
                            f"a finite number > 0, got {value!r}", line=lineno)
        if fixed and rate != meta.get(key):
            raise DataError(f"{path}: sample_rate_hz {value!r} after the first value changes "
                            f"the rate in effect, {meta.get(key)!r}", line=lineno)
        value = rate
    if colon:
        meta[key] = value


def _header_lines(**fields) -> List[str]:
    """The ``# key: value`` header comments of the fields that are not None."""
    return [f"# {key}: {value}" for key, value in fields.items() if value is not None]


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a ``\n`` to `path` atomically, 65,536 lines per chunk."""
    def chunks():
        rest = iter(lines)
        while batch := list(islice(rest, 1 << 16)):
            yield ("\n".join(batch) + "\n").encode("utf-8")

    _atomic_write(path, chunks())


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of byte chunks to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def save_series(ts: TimeSeries, path: str) -> None:
    header = _header_lines(name=ts.name or None, sample_rate_hz=ts.sample_rate_hz)
    # `tolist` makes a chunk's Python floats in one call, without numpy scalars.
    chunks = (ts.values[i : i + (1 << 16)].tolist() for i in range(0, len(ts), 1 << 16))
    write_lines(path, chain(header, map(repr, chain.from_iterable(chunks))))


def load_series(path: str) -> TimeSeries:
    """Parse the one-value-per-line series format; errors carry line numbers.
    One whole read of the file's `SeriesFile` snapshot."""
    with SeriesFile(path) as series:
        values = series.read(0, np.empty(len(series)))
    return TimeSeries(values, series.sample_rate_hz, series.name, owned=True)


class SeriesFile:
    """The series file at `path` as a source that can be read more than
    once: its `len`, `name` and `sample_rate_hz`, and `read(lo, out)`, any
    run of its values.

    Opening it takes a snapshot of the values and holds it open until
    `close` (or the end of a `with` block): `_open_sidecar`, the text's
    sidecar when it holds the text's values, else `_parse_snapshot`, the
    file a parse of the text writes, which becomes the sidecar. Where
    there can be no sidecar (a pipe, a device, a directory that refuses
    it) that file is an anonymous temp file. A sidecar is only ever
    replaced by a rename, so every read gets the values of the one open,
    whatever happens to the text meanwhile."""

    def __init__(self, path: str):
        self.path = path
        self._fh, self._count, self.name, self.sample_rate_hz = \
            _open_sidecar(path) or _parse_snapshot(path)

    def __len__(self) -> int:
        return self._count

    def read(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Fill `out`, a contiguous float64 array, with the values lo ..
        lo + out.size - 1 of the snapshot, and return it; a range outside
        [0, len] is a DataError. Each read seeks to its own values, so reads
        may come in any order. A read after `close` takes a snapshot of its
        own, of the file as it is then, for that one read: `bench/spans.py`
        replays a recorded `select_prototype` call after `train` has closed
        its source."""
        if not 0 <= lo <= lo + out.size <= self._count:
            raise DataError(f"cannot read {out.size} values from {lo}: "
                            f"{self.path} holds {self._count}")
        if self._fh.closed:
            with SeriesFile(self.path) as again:
                return again.read(lo, out)
        return _read_values(self._fh, lo, out)

    def close(self) -> None:
        """Let the snapshot go."""
        self._fh.close()

    def __enter__(self) -> "SeriesFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _series_blocks(path: str, meta: dict, key: _Key):
    """Parse the series file at `path` block by block, each block read also
    going to `key`, and yield each block's values; its headers go to `meta`."""
    index = 0
    for first, lines in _read_lines(path, key):
        # Leading headers and blank lines (every file that save_series
        # writes starts with some) go to `meta`, so the fast path takes
        # the rest of the block.
        data_line = next(_data_lines(path, lines, first, meta, index), None)
        head = len(lines) if data_line is None else data_line[0] - first
        lines, first = lines[head:], first + head
        try:
            values = np.asarray(lines, dtype=np.float64)
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            # Headers, blank lines or a fault: read the block line by line.
            values = _walk_block(path, lines, first, index, meta)
        del lines  # before the reader takes the next block
        index += values.size
        yield values


# The sidecar of a series text: its magic and version (bump the version
# whenever the series parse rule changes), the values as little-endian
# float64, then the name in UTF-8 and a footer: the key (the text's chained
# `source_hash` and its length in bytes), the value count, the sample rate
# (0 for none) and the name's length in bytes.
SIDECAR_MAGIC = b"SFSC"
SIDECAR_VERSION = 1
_SIDECAR_HEAD = SIDECAR_MAGIC + bytes([SIDECAR_VERSION])
_FOOTER = struct.Struct("<8sQQdQ")


class _Key:
    """The sidecar key of a series text, fed its read blocks in order:
    `source_hash` chained over the blocks, and the text's length in bytes.
    (`source_hash` is the hash of PEP 552's hash-based .pyc files; it needs
    no hashlib, whose OpenSSL import alone costs about 3.5 MiB.)"""

    def __init__(self):
        self.hash, self.size = bytes(8), 0

    def update(self, block: bytes) -> None:
        self.hash = source_hash(self.hash + source_hash(block))
        self.size += len(block)


def _text_key(path: str) -> _Key:
    """The key of the text at `path`, read `_BLOCK_BYTES` at a time as the parse reads it."""
    key = _Key()
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK_BYTES):
            key.update(block)
    return key


def _sidecar_path(path: str) -> Optional[str]:
    """Where the sidecar of the series file at `path` lives, when that is a
    regular file; a pipe, a device or a missing file has none."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except OSError:
        return None
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.sfsc")


def _open_sidecar(path: str):
    """(sidecar open for reading, value count, name, sample rate) of the
    series file at `path`, when the sidecar's layout, key and name match
    that text and every value it holds is finite; else None, whatever
    fails."""
    target = _sidecar_path(path)
    if target is None:
        return None
    try:
        fh = open(target, "rb")
    except OSError:
        return None
    found = None
    try:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_SIDECAR_HEAD)) != _SIDECAR_HEAD or size < len(_SIDECAR_HEAD) + _FOOTER.size:
            return None
        fh.seek(size - _FOOTER.size)
        digest, text_size, count, rate, name_size = _FOOTER.unpack(fh.read(_FOOTER.size))
        if not count or size != len(_SIDECAR_HEAD) + 8 * count + name_size + _FOOTER.size:
            return None
        if rate != 0.0 and not valid_sample_rate(rate):
            return None
        fh.seek(size - _FOOTER.size - name_size)
        name = fh.read(name_size).decode("utf-8")
        if not valid_series_name(name):
            return None
        key = _text_key(path)
        if (key.hash, key.size) != (digest, text_size):
            return None
        chunk = np.empty(min(count, max(1, _BLOCK_BYTES // 8)))
        for lo in range(0, count, chunk.size):
            if not np.isfinite(_read_values(fh, lo, chunk[: count - lo])).all():
                return None
        found = fh, count, name, rate or None
        return found
    except (DataError, OSError, ValueError, struct.error):
        return None
    finally:
        if found is None:
            fh.close()


def _read_values(fh, lo: int, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the values lo .. lo + out.size - 1 of the open
    snapshot `fh`, little-endian float64 on disk: one seek and one
    `readinto`. A read that fails or comes short is a DataError."""
    try:
        fh.seek(len(_SIDECAR_HEAD) + 8 * lo)
        if fh.readinto(out) != out.nbytes:
            raise DataError(f"{fh.name} holds fewer values than its trailer counts")
    except OSError as exc:
        raise DataError(f"cannot read {fh.name}: {exc}") from exc
    if sys.byteorder != "little":
        out.byteswap(inplace=True)
    return out


def _parse_snapshot(path: str):
    """(snapshot open for reading, value count, name, sample rate) of the
    series file at `path`, from a parse of its text. The values go to a
    temp file beside the text as they come, or to an anonymous temp file
    where there is no sidecar path (a pipe, a device) or the directory
    refuses the file. A parse that reaches the end with values and no fault
    adds the trailer and renames the file into place as the sidecar; where
    the rename fails, the file's name goes and the open file stays,
    anonymous. A fault drops the file; a write that fails is a DataError."""
    target, tmp, fh, key, meta, count = _sidecar_path(path), None, None, _Key(), {}, 0
    if target is not None:
        with suppress(OSError):
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target) or ".", prefix=".tmp-", suffix="~")
    try:
        fh = tempfile.TemporaryFile() if tmp is None else os.fdopen(fd, "w+b")
        fh.write(_SIDECAR_HEAD)
        for values in _series_blocks(path, meta, key):
            count += values.size
            fh.write(values.astype("<f8", copy=False))
        if not count:
            raise DataError(f"{path} holds no values")
        name = meta.get("name", "").encode("utf-8")
        rate = meta.get("sample_rate_hz") or 0.0
        fh.write(name + _FOOTER.pack(key.hash, key.size, count, rate, len(name)))
        fh.flush()
    except BaseException as exc:
        with suppress(OSError):
            if fh is not None:
                fh.close()
        with suppress(OSError):
            if tmp is not None:
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write the snapshot of {path}: {exc}") from exc
        raise
    if tmp is not None:
        try:
            os.replace(tmp, target)
        except OSError:
            with suppress(OSError):
                os.unlink(tmp)
    return fh, count, meta.get("name", ""), meta.get("sample_rate_hz")


def _walk_block(path: str, lines: List[str], first: int, index: int, meta: dict) -> np.ndarray:
    """A block's values and headers, line by line; its first fault raises DataError."""
    values: List[float] = []
    for lineno, text in _data_lines(path, lines, first, meta, index):
        try:
            value = float(text)
        except ValueError as exc:
            raise DataError(f"not a number: {text!r}", line=lineno, index=index) from exc
        if not math.isfinite(value):
            raise DataError(f"non-finite value {text!r}", line=lineno, index=index)
        values.append(value)
        index += 1
    return np.array(values, dtype=np.float64)


def save_labels(track: LabelTrack, path: str) -> None:
    rows = (f"{r.start},{r.end},{r.class_id}" for r in track.regions)
    write_lines(path, chain(_header_lines(series_length=track.series_length), rows))


def load_labels(path: str, series_len: int) -> LabelTrack:
    """Parse CSV region lines. A ``# series_length:`` header, as `save_labels`
    writes, must be `series_len`; LabelTrack then checks order, overlap and bounds."""
    meta: dict = {}
    regions: List[Region] = []
    region_lines: List[int] = []
    for lineno, text in _stripped_lines(path, meta):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise DataError(f"expected start,end,class, got {text!r}", line=lineno)
        try:
            start = int(parts[0])
            end = int(parts[1])
        except ValueError as exc:
            raise DataError(f"bad region bounds in {text!r}", line=lineno) from exc
        if not parts[2]:
            raise DataError("empty class name", line=lineno)
        regions.append(Region(start=start, end=end, class_id=parts[2]))
        region_lines.append(lineno)
    written = meta.get("series_length")
    if written is not None and not (written.isdecimal() and int(written) == series_len):
        raise DataError(f"{path}: the labels' series_length {written!r} is not the "
                        f"series length {series_len}")
    try:
        return LabelTrack(series_length=series_len, regions=tuple(regions))
    except DataError as exc:
        if exc.index is None:
            raise
        raise DataError(str(exc), line=region_lines[exc.index]) from exc


def _hist_to_json(h: Histogram) -> dict:
    return {"edges": [float(e) for e in h.edges], "counts": [int(c) for c in h.counts]}


def _hist_from_json(obj: dict) -> Histogram:
    return Histogram(edges=np.asarray(obj["edges"]), counts=np.asarray(obj["counts"]))


def save_model(models: Sequence[ClassModel], path: str) -> None:
    """Versioned model container: magic + version byte + JSON."""
    payload = {
        "models": [
            {
                "class_id": mo.class_id,
                "m": mo.m,
                "exclusion_zone": mo.exclusion_zone,
                "prior": float(mo.prior),
                "features": [
                    {
                        "kind": spec.kind,
                        "id": spec.id,
                        "query": None if spec.query is None else [float(v) for v in spec.query],
                        "pos": _hist_to_json(pos_h),
                        "neg": _hist_to_json(neg_h),
                    }
                    for spec, pos_h, neg_h in mo.features
                ],
            }
            for mo in models
        ]
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    _atomic_write(path, [MODEL_MAGIC + bytes([MODEL_VERSION]) + body])


def load_model(path: str) -> List[ClassModel]:
    blob = read_file(path, binary=True)
    if len(blob) < len(MODEL_MAGIC) + 1 or blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise DataError(f"{path} is not a model file")
    version = blob[len(MODEL_MAGIC)]
    if version != MODEL_VERSION:
        raise DataError(f"{path} has unsupported version {version}")
    try:
        payload = json.loads(blob[len(MODEL_MAGIC) + 1 :].decode("utf-8"))
        models = []
        for obj in payload["models"]:
            features = tuple(
                (
                    FeatureSpec(
                        kind=f["kind"],
                        id=f["id"],
                        query=None if f["query"] is None else np.asarray(f["query"]),
                    ),
                    _hist_from_json(f["pos"]),
                    _hist_from_json(f["neg"]),
                )
                for f in obj["features"]
            )
            models.append(
                ClassModel(
                    class_id=obj["class_id"],
                    m=whole_number(obj["m"]),
                    exclusion_zone=whole_number(obj["exclusion_zone"]),
                    features=features,
                    prior=float(obj["prior"]),
                )
            )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is corrupt: {exc}") from exc
    return models


def save_predictions(track: PredictionTrack, path: str) -> None:
    lines = _header_lines(
        series_length=track.series_length, m=track.m, stride=track.stride,
        classes=",".join(track.class_ids), sample_rate_hz=track.sample_rate_hz,
    )
    lines.append("position,class,score")
    step = 1 << 16  # detections whose Python objects exist at a time
    chunks = (zip(track.positions[i : i + step].tolist(),
                  map(track.class_ids.__getitem__, track.label_codes[i : i + step].tolist()),
                  track.scores[i : i + step].tolist())
              for i in range(0, track.positions.size, step))
    rows = (f"{pos},{cls},{score!r}" for pos, cls, score in chain.from_iterable(chunks))
    write_lines(path, chain(lines, rows))


def load_predictions(path: str) -> PredictionTrack:
    """Parse a predictions file; detection rows must ascend by position."""
    meta: dict = {}
    rows: List[Tuple[int, int, str, float]] = []
    saw_header = False
    for lineno, text in _stripped_lines(path, meta):
        if not saw_header:
            if text != "position,class,score":
                raise DataError(f"expected prediction header, got {text!r}", line=lineno)
            saw_header = True
            continue
        parts = text.split(",")
        if len(parts) != 3:
            raise DataError(f"expected position,class,score, got {text!r}", line=lineno)
        try:
            rows.append((lineno, int(parts[0]), parts[1], float(parts[2])))
        except ValueError as exc:
            raise DataError(f"bad prediction row {text!r}", line=lineno) from exc
    try:
        series_length = int(meta["series_length"])
        m = int(meta["m"])
        stride = int(meta["stride"])
        class_ids = tuple(c for c in meta["classes"].split(",") if c)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path} has missing or bad prediction metadata: {exc}") from exc
    # `len(track)` needs series_length < 2**63; a stride is kept as `classify` wrote it.
    if not (1 <= m <= series_length < 2**63 and stride >= 1):
        raise DataError(
            f"{path}: prediction header needs 1 <= m <= series_length < 2**63 and stride >= 1, "
            f"got series_length={series_length}, m={m}, stride={stride}"
        )
    length = series_length - m + 1
    index = {c: i for i, c in enumerate(class_ids)}
    if len(index) < len(class_ids):
        raise DataError(f"{path}: classes header {meta['classes']!r} names a class twice")
    prev = -1
    for lineno, pos, cls, _ in rows:
        if not (0 <= pos < length):
            raise DataError(f"{path}: position {pos} outside [0,{length})", line=lineno)
        if pos <= prev:
            raise DataError(
                f"{path}: rows must ascend, position {pos} follows {prev}", line=lineno
            )
        if cls not in index:
            raise DataError(f"{path}: unknown class {cls!r}", line=lineno)
        prev = pos
    return PredictionTrack(
        class_ids=class_ids,
        positions=np.array([r[1] for r in rows], dtype=np.int64),
        label_codes=np.array([index[r[2]] for r in rows], dtype=np.int32),
        scores=np.array([r[3] for r in rows], dtype=np.float64),
        m=m,
        series_length=series_length,
        stride=stride,
        sample_rate_hz=meta.get("sample_rate_hz"),
    )


def load_ucr_instances(path: str) -> List[Tuple[str, np.ndarray]]:
    """Parse UCR-style instance files: label then values, CSV/TSV/whitespace."""
    out: List[Tuple[str, np.ndarray]] = []
    for lineno, text in _stripped_lines(path, {}):
        if "," in text:
            parts = [p for p in text.split(",") if p.strip()]
        else:
            parts = text.split()
        if len(parts) < 2:
            raise DataError(f"expected label and values, got {text!r}", line=lineno)
        label = parts[0].strip()
        try:
            label_f = float(label)
        except ValueError:
            label_f = None  # a text label
        if label_f is not None:
            if not np.isfinite(label_f):
                raise DataError(f"non-finite label {label!r}", line=lineno)
            if label_f == int(label_f):
                label = str(int(label_f))
        try:
            values = np.asarray(parts[1:], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"bad value in instance: {exc}", line=lineno) from exc
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite instance value", line=lineno)
        out.append((label, values))
    if not out:
        raise DataError(f"{path} holds no instances")
    return out


def save_instances(instances: Sequence[Tuple[np.ndarray, str]], path: str) -> None:
    """Instance bundle: one CSV line per instance, class label first."""
    write_lines(path, (class_id + "," + ",".join(repr(float(v)) for v in values)
                       for values, class_id in instances))
