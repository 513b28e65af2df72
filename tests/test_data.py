import contextlib
import io
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapefeat import data
from shapefeat.core import (ClassModel, DataError, Histogram, ModelError, PredictionTrack, Region,
                            TimeSeries)
from shapefeat.data import (
    MODEL_MAGIC,
    SeriesFile,
    TwoModalityParams,
    build_gun_experiment,
    derive_seed,
    gen_random_noise,
    gen_random_walk,
    gen_two_modality_dataset,
    load_labels,
    load_model,
    load_predictions,
    load_series,
    load_ucr_instances,
    normals,
    read_file,
    save_labels,
    save_model,
    save_predictions,
    save_series,
    uniforms,
    write_lines,
)
from shapefeat.model import ClassSpec, classify, train
from shapefeat.core import ClassifierConfig, FeatureSpec, LabelTrack
from shapefeat import profiles
from shapefeat.profiles import complexity_profile, profile_blocks, znormalize


class TestPortableRng:
    def test_uniforms_deterministic_and_in_range(self):
        a = uniforms(7, 1000)
        b = uniforms(7, 1000)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() < 1.0
        assert abs(a.mean() - 0.5) < 0.05

    def test_derive_seed_streams_differ(self):
        s0 = derive_seed(7, 0)
        s1 = derive_seed(7, 1)
        assert s0 != s1
        assert not np.array_equal(uniforms(s0, 100), uniforms(s1, 100))

    def test_normals_moments(self):
        z = normals(13, 100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.01


class TestGenerators:
    def test_noise_deterministic(self):
        assert gen_random_noise(500, 3) == gen_random_noise(500, 3)

    def test_noise_clt_bounds(self):
        n = 10_000
        ts = gen_random_noise(n, 17)
        assert abs(ts.values.mean()) <= 5 / np.sqrt(n)
        assert abs(ts.values.std() - 1.0) <= 0.05

    def test_noise_lag1_autocorrelation(self):
        n = 10_000
        x = gen_random_noise(n, 23).values
        xc = x - x.mean()
        r1 = (xc[1:] * xc[:-1]).sum() / (xc * xc).sum()
        assert abs(r1) <= 5 / np.sqrt(n)

    def test_walk_diffs_recover_noise_stream(self):
        walk = gen_random_walk(2000, 9)
        noise = gen_random_noise(2000, 9)
        assert walk.values[0] == noise.values[0]
        assert np.allclose(np.diff(walk.values), noise.values[1:], atol=1e-9)

    def test_walk_deterministic(self):
        assert gen_random_walk(100, 4) == gen_random_walk(100, 4)

    def test_walk_smoother_than_noise_over_seeds(self):
        wins = 0
        for seed in range(100):
            noise = complexity_profile(gen_random_noise(1000, seed), 150)
            walk = complexity_profile(gen_random_walk(1000, seed), 150)
            if noise.mean() > walk.mean():
                wins += 1
        assert wins >= 99


class TestTwoModality:
    def test_zero_noise_plants_identical_templates(self):
        params = TwoModalityParams(noise_level=0.0, n_sine=6, n_flat=4, n_surge=2, n_hum=2)
        bundle = gen_two_modality_dataset(params, 5)
        x = bundle.series.values
        m = params.m
        windows = [
            znormalize(x[r.start : r.start + m])
            for r in bundle.labels.class_regions("sine")
        ]
        for i in range(len(windows)):
            for j in range(i + 1, len(windows)):
                assert np.linalg.norm(windows[i] - windows[j]) < 1e-6

    def test_flat_regions_have_zero_complexity(self):
        bundle = gen_two_modality_dataset(TwoModalityParams(n_sine=4, n_flat=4, n_surge=2, n_hum=2), 6)
        prof = complexity_profile(bundle.series, 64)
        for r in bundle.labels.class_regions("flat"):
            assert np.array_equal(prof[r.start : r.end], np.zeros(r.end - r.start))

    def test_labels_satisfy_invariants_and_windows_fit(self):
        bundle = gen_two_modality_dataset(TwoModalityParams(), 7)
        track = bundle.labels
        assert track.series_length == len(bundle.series)
        # Reconstructing the track re-runs every core invariant check.
        assert LabelTrack(series_length=track.series_length, regions=track.regions) == track
        for r in track.regions:
            assert r.end + 64 <= track.series_length + 64  # window room by construction

    def test_deterministic(self):
        a = gen_two_modality_dataset(TwoModalityParams(), 9)
        b = gen_two_modality_dataset(TwoModalityParams(), 9)
        assert a.series == b.series
        assert a.labels == b.labels

    def test_bad_params(self):
        with pytest.raises(DataError, match="m must be >= 4"):
            TwoModalityParams(m=2)
        with pytest.raises(DataError, match=r"noise_level must be in \[0, 1\)"):
            TwoModalityParams(noise_level=1.5)


class TestWriteLines:
    def test_lines_span_chunks(self, tmp_path):
        path = tmp_path / "lines.txt"
        write_lines(str(path), (str(i) for i in range(70_000)))
        assert path.read_bytes() == "".join(f"{i}\n" for i in range(70_000)).encode()

    def test_no_lines_is_an_empty_file(self, tmp_path):
        write_lines(str(tmp_path / "empty.txt"), [])
        assert (tmp_path / "empty.txt").read_bytes() == b""

    def test_a_failing_source_leaves_no_file(self, tmp_path):
        def lines():
            yield "kept?"
            raise DataError("bad row")

        with pytest.raises(DataError, match="bad row"):
            write_lines(str(tmp_path / "out.txt"), lines())
        assert list(tmp_path.iterdir()) == []


class TestSeriesIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "series.txt")
        ts = TimeSeries(values=normals(3, 64), sample_rate_hz=100.0, name="fixture")
        save_series(ts, path)
        assert load_series(path) == ts

    def test_loaded_values_are_not_copied_again(self, tmp_path):
        # The one array of the whole read of the snapshot becomes the
        # series, frozen: after a parse of several blocks or of one, and
        # on a hit.
        path = str(tmp_path / "series.txt")
        save_series(TimeSeries(values=normals(3, 500)), path)
        made, read_values = [], data._read_values

        def read(*args):
            made.append(read_values(*args))
            return made[-1]

        for block in (64, 1 << 18):
            sidecar(tmp_path / "series.txt").unlink(missing_ok=True)
            with mock.patch.object(data, "_BLOCK_BYTES", block), \
                    mock.patch.object(data, "_read_values", read):
                for _ in range(2):  # a parse, then a hit
                    made.clear()
                    ts = load_series(path)
                    assert made[-1] is ts.values
                    assert not ts.values.flags.writeable

    def test_save_series_formats_each_value_by_repr(self, tmp_path):
        # Chunks of 65,536 values: the bytes of one repr per value, header first.
        odd = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-300, 0.1, -1.5e300]
        values = np.concatenate([odd, normals(2, 70_000), odd])
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=values, sample_rate_hz=10.0, name="x"), str(path))
        expected = "# name: x\n# sample_rate_hz: 10.0\n" + "".join(f"{v!r}\n" for v in memoryview(values))
        assert path.read_bytes() == expected.encode()
        assert load_series(str(path)).values.tobytes() == values.tobytes()

    def test_numpy_rate_round_trips(self, tmp_path):
        # A header holds the number, not its repr ("np.float64(100.0)").
        path = str(tmp_path / "series.txt")
        save_series(TimeSeries(values=[1.0, 2.0], sample_rate_hz=np.float64(100.0)), path)
        assert load_series(path).sample_rate_hz == 100.0

    def test_plain_values(self, tmp_path):
        path = str(tmp_path / "series.txt")
        path_obj = tmp_path / "series.txt"
        path_obj.write_text("1.0\n2.5\n-3\n")
        ts = load_series(path)
        assert np.array_equal(ts.values, [1.0, 2.5, -3.0])
        assert ts.sample_rate_hz is None

    def test_parse_error_reports_line(self, tmp_path):
        (tmp_path / "bad.txt").write_text("1.0\nabc\n3.0\n")
        with pytest.raises(DataError, match="line 2: not a number: 'abc'") as err:
            load_series(str(tmp_path / "bad.txt"))
        assert err.value.line == 2
        assert err.value.index == 1

    def test_non_finite_reports_line(self, tmp_path):
        (tmp_path / "bad.txt").write_text("# name: x\n1.0\nnan\n")
        with pytest.raises(DataError, match="non-finite value 'nan'") as err:
            load_series(str(tmp_path / "bad.txt"))
        assert "line 3" in str(err.value)
        assert err.value.line == 3
        assert err.value.index == 1

    def test_empty_file(self, tmp_path):
        (tmp_path / "empty.txt").write_text("")
        with pytest.raises(DataError, match="holds no values"):
            load_series(str(tmp_path / "empty.txt"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*absent.txt"):
            load_series(str(tmp_path / "absent.txt"))


def reference_load_series(path: str) -> TimeSeries:
    """The whole-file series parser the block-wise `load_series` replaced: one
    read and one `splitlines` of the whole file, then a second walk to name a
    bad line. Kept as the oracle of the differential tests. A sample_rate_hz
    header after the first value that changes the rate ends the file there,
    and is its fault unless a value before it is one."""
    raw = read_file(path)

    def data_lines():
        for lineno, line in enumerate(raw.splitlines(), start=1):
            text = line.strip()
            if text and not text.startswith("#"):
                yield lineno, text

    name = ""
    rate = None
    rows = []
    late = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key = key.strip()
                value = value.strip()
                if key == "name":
                    name = value
                elif key == "sample_rate_hz":
                    try:
                        new = float(value)
                    except ValueError as exc:
                        raise DataError(f"bad sample_rate_hz {value!r}", line=lineno) from exc
                    if rows and new != rate:
                        late = DataError(f"{path}: sample_rate_hz {value!r} after the first "
                                         f"value changes the rate in effect, {rate!r}", line=lineno)
                        break
                    rate = new
            continue
        rows.append(text)
    if not rows:
        raise DataError(f"{path} holds no values")
    try:
        values = np.asarray(rows, dtype=np.float64)
    except ValueError:
        values = None
    if values is None:
        for index, (lineno, text) in enumerate(data_lines()):
            try:
                float(text)
            except ValueError as exc:
                raise DataError(f"not a number: {text!r}", line=lineno, index=index) from exc
        raise DataError(f"{path}: unparseable series")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        index = int(bad[0])
        lineno, text = list(data_lines())[index]
        raise DataError(f"non-finite value {text!r}", line=lineno, index=index)
    if late is not None:
        raise late
    return TimeSeries(values=values, sample_rate_hz=rate, name=name)


# Every line break `str.splitlines` knows.
SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Bytes that are not UTF-8: a stray continuation, a lone lead byte, a
# truncated sequence, an encoded surrogate.
NOT_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]
# Blocks that cut through \r\n pairs and multi-byte characters, and lines
# longer than a block.
BLOCK_SIZES = [1, 2, 7, 64]


@st.composite
def text_files(draw, lines, corrupt=True):
    """The drawn `lines`, each ended by any line break (the last maybe by
    none), as UTF-8; when `corrupt`, maybe with bytes that are not UTF-8
    spliced in between two characters of the later half."""
    lines = draw(lines)
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(lines), max_size=len(lines)))
    if seps and draw(st.booleans()):
        seps[-1] = ""
    text = "".join(a + b for a, b in zip(lines, seps))
    if not (corrupt and text and draw(st.booleans())):
        return text.encode("utf-8")
    cut = draw(st.integers(len(text) // 2, len(text)))
    return text[:cut].encode("utf-8") + draw(st.sampled_from(NOT_UTF8)) + text[cut:].encode("utf-8")


ANY_LINE = st.text(st.sampled_from(list("0123456789.-e #:x\t\xa0\xe9\u20ac\U0001f600")), max_size=80)


def numbered(lines, first=1):
    """(line number, stripped text) of the non-blank lines."""
    return [(n, line.strip()) for n, line in enumerate(lines, first) if line.strip()]


class TestBlockReader:
    """`_read_lines` against one whole-file decode and `str.splitlines`."""

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @given(raw=text_files(st.lists(ANY_LINE, max_size=30)))
    def test_lines_match_whole_file_splitlines(self, tmp_path_factory, block, raw):
        path = tmp_path_factory.getbasetemp() / f"reader-{block}.txt"
        path.write_bytes(raw)
        got = []
        try:
            with mock.patch.object(data, "_BLOCK_BYTES", block):
                for first, lines in data._read_lines(str(path)):
                    got.extend(numbered(lines, first))
        except DataError as err:
            with pytest.raises(UnicodeDecodeError) as whole:
                raw.decode("utf-8")
            assert str(err) == f"{path} is not UTF-8: byte offset {whole.value.start}"
            # The blocks before the bad one yield the whole file's first lines.
            assert got == numbered(raw[: whole.value.start].decode("utf-8").splitlines())[: len(got)]
        else:
            assert got == numbered(raw.decode("utf-8").splitlines())

    @pytest.mark.parametrize("sep", SEPARATORS, ids=ascii)
    def test_every_break_kind_at_every_small_block(self, tmp_path, sep):
        # Lines that end in one break kind alone, with characters of one to
        # four bytes (Å is C3 85, whose 85 alone would be a C1 control),
        # blank lines and a last line without a break, in blocks of 1 to
        # 64 bytes: every line, blank or not, and its number are the whole
        # file's.
        lines = ["1.5", "", "Å2", "-3e\u20ac4", "\U0001f600", "Åx Å", "", "7"]
        raw = (sep.join(lines)).encode("utf-8")
        path = tmp_path / "breaks.txt"
        path.write_bytes(raw)
        whole = list(enumerate(raw.decode("utf-8").splitlines(), 1))
        for block in range(1, 65):
            got = []
            with mock.patch.object(data, "_BLOCK_BYTES", block):
                for first, part in data._read_lines(str(path)):
                    got.extend(enumerate(part, first))
            assert got == whole, block

    def test_offset_in_a_late_block(self, tmp_path):
        path = tmp_path / "late.txt"
        path.write_bytes(b"1.5\n" * 300_000 + b"2\xff\n")
        with pytest.raises(DataError, match="is not UTF-8: byte offset 1200001"):
            load_series(str(path))

    def test_holds_one_block_whatever_the_file_length(self, tmp_path):
        # The reader drops each block's text and lines before it reads the
        # next. When it kept them, a 10**6-line file peaked at about twice
        # the one-block file; a file of lines that end in "\r" alone, cut
        # only after "\n", was one block, and so was one of lines that end
        # in "\x0b", cut only after "\n" or "\r".
        def peak(path):
            tracemalloc.start()
            try:
                for _, lines in data._read_lines(str(path)):
                    del lines
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        long, one = tmp_path / "long.txt", tmp_path / "one.txt"
        save_series(TimeSeries(values=normals(7, 10**6)), str(long))
        text = long.read_bytes()
        for newline in (b"\n", b"\r", b"\x0b"):
            long.write_bytes(text.replace(b"\n", newline))
            with open(long, "rb") as fh:
                one.write_bytes(fh.read(data._BLOCK_BYTES))
            assert peak(long) < 1.25 * peak(one), newline


GOOD_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "\u0661\u0662", "\u0661.\u0665", " 2.5 ", "+3", "-0.0", ".5", "1e-320"]),
)
# Good headers. A bad sample_rate_hz, and one after the first value that
# changes the rate, each have a rule of their own, pinned by
# TestSampleRateHeader.
GOOD_HEADER = st.sampled_from(
    ["# name: fixture", "# sample_rate_hz: 100.0", "# sample_rate_hz: 0.25", "# a comment",
     "#", "  # name: a: b", "# name:", "#sample_rate_hz:3"]
)
FAULT = st.sampled_from(["abc", "nan", "inf", "-Infinity", "1 2", "0x10", "1,5", "1e999"])


def changes_rate_late(lines) -> bool:
    """Whether a sample_rate_hz header after the first value changes the rate in effect."""
    rate, started = None, False
    for text in map(str.strip, lines):
        key, colon, value = (part.strip() for part in text[1:].partition(":"))
        if text.startswith("#") and colon and key == "sample_rate_hz":
            if started and float(value) != rate:
                return True
            rate = float(value)
        started = started or bool(text) and not text.startswith("#")
    return False


@st.composite
def series_files(draw):
    """Series files with at most one kind of fault: a bad value or a
    sample_rate_hz header after the first value that changes the rate
    (both reported in line order), bytes that are not UTF-8, or no value
    at all."""
    lines = draw(st.lists(st.one_of(GOOD_VALUE, GOOD_HEADER, st.sampled_from(["", "  "])), max_size=25))
    fault = draw(st.booleans())
    if fault:
        lines.insert(draw(st.integers(0, len(lines))), draw(FAULT))
    return draw(text_files(st.just(lines), corrupt=not (fault or changes_rate_late(lines))))


def outcome(load, path):
    try:
        ts = load(path)
    except DataError as exc:
        return ("error", str(exc), exc.line, exc.index)
    return ("ok", ts.values.tobytes(), ts.name, ts.sample_rate_hz)


class TestLoadSeriesDifferential:
    """The block-wise `load_series` against `reference_load_series`."""

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @given(raw=series_files())
    def test_matches_whole_file_parser(self, tmp_path_factory, block, raw):
        path = tmp_path_factory.getbasetemp() / f"series-{block}.txt"
        path.write_bytes(raw)
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            assert outcome(load_series, str(path)) == outcome(reference_load_series, str(path))

    @pytest.mark.parametrize("raw, walks", [
        # Headers, then a fault on the first data line: the walk names it.
        (b"# name: a\n# sample_rate_hz: 2.5\n\nabc\n1.0\n", 1),
        (b"# name: a\n\n  \n1e999\n1.0\n", 1),
        # Headers at the start of a later block (16 bytes): every block
        # parses whole once its headers are read.
        (b"# name: a\n1.25\n2.5\n-3.0\n4.0\n# name: bbbbbbbbbbb\n5.0\n6.0\n7.0\n8.0\n", 0),
        (b"# name: a\n1.25\n2.5\n-3.0\n4.0\n# name: bbbbbbbbbbb\n5.0\nx\n7.0\n8.0\n", 1),
    ], ids=["fault-after-headers", "non-finite-after-headers", "headers-in-a-later-block",
            "fault-in-a-later-block"])
    def test_leading_headers_skip_the_walk(self, tmp_path, raw, walks):
        path = tmp_path / "headers.txt"
        path.write_bytes(raw)
        with mock.patch.object(data, "_BLOCK_BYTES", 16), \
                mock.patch.object(data, "_walk_block", wraps=data._walk_block) as walk:
            assert outcome(load_series, str(path)) == outcome(reference_load_series, str(path))
        assert walk.call_count == walks

    def test_memory_stays_near_one_block(self, tmp_path):
        # 10**6 lines: the whole-file parser peaked at about 110 MB.
        path = str(tmp_path / "long.txt")
        save_series(TimeSeries(values=normals(5, 10**6), sample_rate_hz=50.0), path)
        tracemalloc.start()
        try:
            ts = load_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ts) == 10**6
        assert peak < 40 * 2**20

    def test_peak_below_two_and_a_half_series(self, tmp_path):
        # The blocks' arrays go once they are joined: the joined array and
        # TimeSeries's copy of it, plus one block, are alive at the peak.
        path = str(tmp_path / "long.txt")
        save_series(TimeSeries(values=normals(6, 10**6)), path)
        tracemalloc.start()
        try:
            ts = load_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ts.values.nbytes


def slices(source, m):
    return [(lo, hi, xs.tobytes()) for lo, hi, xs in profile_blocks(source, m)]


def read_stream(path):
    """The values and rate of the series at `path`, read through its
    `SeriesFile` 64 values at a time, last first."""
    with SeriesFile(str(path)) as series:
        values = np.empty(len(series))
        for lo in reversed(range(0, len(series), 64)):
            series.read(lo, values[lo : lo + 64])
        return values, series.sample_rate_hz


def stream_outcome(path):
    """`outcome` of reading the file at `path` in a pass over its `SeriesFile`."""
    try:
        values, rate = read_stream(path)
    except DataError as exc:
        return ("error", str(exc), exc.line, exc.index)
    return ("ok", values.tobytes(), rate)


NAME_HEADER = "# name: a header line"
RATE_HEADER = "# sample_rate_hz: 2.5"


@st.composite
def stream_files(draw):
    """(file bytes, m, profiles.BLOCK, read block size): a series of m + 1
    samples to several slices of S = max(BLOCK, next_pow2(4m)), with name
    headers anywhere and sample_rate_hz headers of one rate, never a fault."""
    block = draw(st.sampled_from([64, 128]))
    m = draw(st.integers(2, block // 2))
    size = max(block, 1 << (4 * m - 1).bit_length())
    n = draw(st.integers(m + 1, 4 * size))
    lines = [repr(v) for v in normals(draw(st.integers(0, 2**32)), n).tolist()]
    rated = draw(st.booleans())
    for _ in range(draw(st.integers(0, 6))):
        # A rate header may follow the first value only when one came before it.
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, RATE_HEADER if rated and draw(st.booleans()) else NAME_HEADER)
    if rated:
        lines.insert(0, RATE_HEADER)
    raw = ("\n".join(lines) + "\n").encode()
    return raw, m, block, draw(st.sampled_from([16, 64, 256, 4096]))


class TestSeriesStream:
    """A pass over a `SeriesFile` gives `profile_blocks` the slices of the
    loaded series, byte for byte, and opening one fails as `load_series`
    fails."""

    @settings(max_examples=150, deadline=None)
    @given(case=stream_files())
    def test_slices_match_the_loaded_series(self, tmp_path_factory, case):
        raw, m, block, read = case
        path = tmp_path_factory.getbasetemp() / "stream.txt"
        path.write_bytes(raw)
        with mock.patch.object(data, "_BLOCK_BYTES", read), \
                mock.patch.object(profiles, "BLOCK", block):
            with SeriesFile(str(path)) as series:
                assert series.sample_rate_hz == load_series(str(path)).sample_rate_hz
                assert slices(series, m) == slices(load_series(str(path)), m)

    @pytest.mark.parametrize("header", ["# name: " + "x" * 15, "# sample_rate_hz: 2.500"])
    @pytest.mark.parametrize("line", range(2, 6))
    def test_a_header_at_a_read_block_edge(self, tmp_path, header, line):
        # A 24-byte rate header, then 8-byte value lines, in 64-byte reads:
        # a 24-byte header before value line 2, 3, 4 or 5 ends on,
        # straddles, or starts on the edge at byte 64.
        lines = [f"{v:7.4f}" for v in uniforms(4, 400)]
        lines.insert(line, header)
        path = tmp_path / "edge.txt"
        path.write_text("# sample_rate_hz: 2.500\n" + "\n".join(lines) + "\n")
        assert path.read_bytes()[24 + 8 * line :].startswith(header.encode())
        with mock.patch.object(data, "_BLOCK_BYTES", 64), \
                mock.patch.object(profiles, "BLOCK", 64):
            with SeriesFile(str(path)) as series:
                assert slices(series, 5) == slices(load_series(str(path)), 5)

    def test_headers_longer_than_a_read_block(self, tmp_path):
        # The parse reads on past blocks that hold headers alone.
        path = tmp_path / "headers.txt"
        path.write_text(f"{NAME_HEADER}\n" * 40 + f"{RATE_HEADER}\n" + "1.0\n2.0\n3.0\n")
        with mock.patch.object(data, "_BLOCK_BYTES", 64), SeriesFile(str(path)) as series:
            assert (series.name, series.sample_rate_hz) == ("a header line", 2.5)
            assert slices(series, 2) == slices(load_series(str(path)), 2)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @given(raw=series_files())
    def test_faults_match_load_series(self, tmp_path_factory, block, raw):
        path = tmp_path_factory.getbasetemp() / f"stream-{block}.txt"
        path.write_bytes(raw)
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            loaded = outcome(load_series, str(path))
            if loaded[0] == "ok":
                loaded = ("ok", loaded[1], loaded[3])
            assert stream_outcome(str(path)) == loaded


def sidecar(path):
    return path.parent / f".{path.name}.sfsc"


def parses(read, path) -> bool:
    """Whether `read(path)` parsed the text rather than reading the sidecar."""
    with mock.patch.object(data, "_series_blocks", wraps=data._series_blocks) as parse:
        read(path)
    return parse.call_count > 0


def loaded_outcome(path):
    return outcome(load_series, str(path))


class TestSidecar:
    """A clean parse of a series text leaves `.<name>.sfsc` beside it, and
    later reads of the same bytes take the values from it, bit for bit.
    Anything that does not check out is a miss, never an error."""

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 18])
    @given(raw=series_files())
    def test_miss_then_hit_match_the_whole_file_parser(self, tmp_path_factory, block, raw):
        path = tmp_path_factory.mktemp("sidecar") / "series.txt"
        path.write_bytes(raw)
        expected = outcome(reference_load_series, str(path))
        streamed = expected[:2] + expected[3:] if expected[0] == "ok" else expected
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            for read, want in ((loaded_outcome, expected), (stream_outcome, streamed)):
                assert read(path) == want  # a miss, which writes the sidecar when clean
                assert sidecar(path).exists() == (want[0] == "ok")
                assert not parses(read, path) if want[0] == "ok" else parses(read, path)
                assert read(path) == want  # a hit, or the same error again
                sidecar(path).unlink(missing_ok=True)
        assert [p.name for p in path.parent.iterdir()] == ["series.txt"]

    @settings(max_examples=50, deadline=None)
    @given(case=stream_files())
    def test_hit_slices_match_the_loaded_series(self, tmp_path_factory, case):
        raw, m, block, read = case
        path = tmp_path_factory.mktemp("sidecar") / "stream.txt"
        path.write_bytes(raw)
        with mock.patch.object(data, "_BLOCK_BYTES", read), \
                mock.patch.object(profiles, "BLOCK", block):
            expected = slices(reference_load_series(str(path)), m)
            assert slices(load_series(str(path)), m) == expected
            for _ in range(2):  # a hit, then a hit after a miss
                assert not parses(read_stream, path)
                with SeriesFile(str(path)) as series:
                    assert slices(series, m) == expected
                sidecar(path).unlink()
                with SeriesFile(str(path)) as series:
                    assert slices(series, m) == expected
            assert slices(load_series(str(path)), m) == expected

    @pytest.mark.parametrize("raw, message", [
        (b"1.0\nabc\n3.0\n", "line 2: not a number"),
        (b"# name: a\n1.0\nnan\n", "line 3: non-finite value"),
        (b"1.0\n" * 40 + b"2.5\n1e999\n", "line 42: non-finite value"),
        (b"1.0\n" * 40 + b"2.5\n\xff\n", "is not UTF-8: byte offset 164"),
        (b"# sample_rate_hz: 2\n1.0\n" * 20 + b"# sample_rate_hz: 3\n", "line 41:"),
        (b"# name: a\n\n", "holds no values"),
    ], ids=["bad-value", "nan", "in-the-last-block", "not-utf8-in-the-last-block",
            "late-rate", "no-values"])
    @pytest.mark.parametrize("read", [load_series, read_stream, lambda path: SeriesFile(path).close()],
                             ids=["load", "stream", "stream-outside-with"])
    def test_a_fault_leaves_nothing_and_raises_again(self, tmp_path, raw, message, read):
        path = tmp_path / "series.txt"
        path.write_bytes(raw)
        faults = []
        with mock.patch.object(data, "_BLOCK_BYTES", 16):
            for _ in range(2):
                with pytest.raises(DataError, match=re.escape(message)) as err:
                    read(path)
                faults.append((str(err.value), err.value.line, err.value.index))
                assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]
        assert faults[0] == faults[1]

    def test_a_stream_that_does_not_end_leaves_nothing(self, tmp_path):
        # A parse stopped before the end of the text, by a fault or any
        # other exception, leaves nothing. One that reaches the end leaves
        # the sidecar, however its SeriesFile is then closed or left.
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(1, 100)), str(path))
        read_lines = data._read_lines

        def stopped(*args):
            blocks = read_lines(*args)
            yield next(blocks)
            raise KeyError("stopped after one block")

        def closed(path):
            series = SeriesFile(str(path))
            series.read(0, np.empty(len(series)))
            series.close()  # outside a `with` block

        def failed(path):
            with pytest.raises(KeyError):
                with SeriesFile(str(path)) as series:
                    series.read(0, np.empty(len(series)))
                    raise KeyError("the consumer failed")

        with mock.patch.object(data, "_BLOCK_BYTES", 64):
            with mock.patch.object(data, "_read_lines", stopped), pytest.raises(KeyError):
                SeriesFile(str(path))
            assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]
            for read in (closed, failed):
                assert parses(read, path)
                assert sorted(p.name for p in tmp_path.iterdir()) == [".series.txt.sfsc",
                                                                       "series.txt"]
                assert not parses(read_stream, path)
                sidecar(path).unlink()

    def test_a_series_shorter_than_m_under_classify_leaves_nothing(self, tmp_path):
        # Nothing but the sidecar: opening the series read it to its end
        # before the length check. No temp file is left.
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(1, 10)), str(path))
        hist = Histogram(edges=np.linspace(-1.0, 1.0, 5), counts=np.ones(4))
        models = [ClassModel("a", 16, 15, ((FeatureSpec(kind="sliding_std"), hist, hist),), 0.5)]
        with pytest.raises(ModelError, match="test series of length 10 is shorter than m=16"):
            with SeriesFile(str(path)) as series:
                classify(models, series, ClassifierConfig())
        assert sorted(p.name for p in tmp_path.iterdir()) == [".series.txt.sfsc", "series.txt"]
        assert not parses(read_stream, path)

    @staticmethod
    def stale(path):
        """Rewrite the text at the same size, and put its mtime back."""
        before = path.stat()
        path.write_bytes(path.read_bytes().replace(b"\n1", b"\n2"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size

    @staticmethod
    def truncated(path):
        raw = sidecar(path).read_bytes()
        sidecar(path).write_bytes(raw[:-1])

    @staticmethod
    def a_value_short(path):
        raw = sidecar(path).read_bytes()
        sidecar(path).write_bytes(raw[:5] + raw[13:])

    @staticmethod
    def bad_magic(path):
        raw = sidecar(path).read_bytes()
        sidecar(path).write_bytes(b"X" + raw[1:])

    @staticmethod
    def a_nan(path):
        raw = bytearray(sidecar(path).read_bytes())
        raw[5 + 8 * 3 : 5 + 8 * 4] = np.array([np.nan], dtype="<f8").tobytes()
        sidecar(path).write_bytes(bytes(raw))

    @staticmethod
    def a_bad_name(path):
        """A name of the same byte length that TimeSeries refuses."""
        raw = sidecar(path).read_bytes()
        at = len(raw) - data._FOOTER.size - 3
        assert raw[at : at + 3] == b"abc"
        sidecar(path).write_bytes(raw[:at] + b"a\nc" + raw[at + 3 :])

    @pytest.mark.parametrize("spoil", ["stale", "truncated", "a_value_short", "bad_magic", "a_nan",
                                       "a_bad_name"])
    @pytest.mark.parametrize("read", [load_series, read_stream], ids=["load", "stream"])
    def test_a_spoilt_sidecar_is_ignored_then_replaced(self, tmp_path, spoil, read):
        path = tmp_path / "series.txt"
        path.write_text("# name: abc\n# sample_rate_hz: 4\n"
                        + "".join(f"1.{k}\n" for k in range(300)))
        load_series(str(path))
        assert sidecar(path).exists()
        getattr(self, spoil)(path)
        expected = outcome(reference_load_series, str(path))
        assert parses(read, path)
        assert not parses(read, path)  # replaced
        assert loaded_outcome(path) == expected
        assert stream_outcome(path) == expected[:2] + expected[3:]

    def test_an_unwritable_directory_loads_without_a_sidecar(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(2, 50), sample_rate_hz=8.0), str(path))
        refused = PermissionError(13, "Permission denied")
        with mock.patch.object(data.tempfile, "mkstemp", side_effect=refused):
            assert outcome(load_series, str(path)) == outcome(reference_load_series, str(path))
            assert read_stream(path)[1] == 8.0
        assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]

    def test_a_directory_in_the_sidecars_place(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(2, 50)), str(path))
        sidecar(path).mkdir()
        for read in (load_series, read_stream):
            assert parses(read, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [".series.txt.sfsc", "series.txt"]
        assert sidecar(path).is_dir()

    @pytest.mark.parametrize("read", [load_series, read_stream], ids=["load", "stream"])
    def test_a_fifo_loads_without_a_sidecar(self, tmp_path, read):
        path = tmp_path / "series.fifo"
        os.mkfifo(path)
        raw = b"# sample_rate_hz: 2\n1.5\n-2.25\n"

        def feed():
            with open(path, "wb") as fh:
                fh.write(raw)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = read(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        values = got.values if read is load_series else got[0]
        assert values.tolist() == [1.5, -2.25]
        assert [p.name for p in tmp_path.iterdir()] == ["series.fifo"]

    def test_layout(self, tmp_path):
        # The parse of either reader writes the same bytes.
        path = tmp_path / "series.txt"
        ts = TimeSeries(values=[1.5, -0.0, 2.0], sample_rate_hz=50.0, name="fixture")
        save_series(ts, str(path))
        text = path.read_bytes()
        key = data._text_key(str(path))
        footer = data._FOOTER.pack(key.hash, len(text), 3, 50.0, len(b"fixture"))
        for read in (load_series, read_stream):
            read(str(path))
            raw = sidecar(path).read_bytes()
            assert raw[:5] == b"SFSC\x01"
            assert np.frombuffer(raw[5:29], dtype="<f8").tobytes() == ts.values.tobytes()
            assert raw[29:] == b"fixture" + footer
            sidecar(path).unlink()

    def test_hit_peak_below_one_and_a_half_series(self, tmp_path):
        # One read into the series' own array, and its finite mask: 1.13
        # series measured, against 2.0 for the parse.
        path = str(tmp_path / "long.txt")
        save_series(TimeSeries(values=normals(6, 10**6)), path)
        load_series(path)
        tracemalloc.start()
        try:
            ts = load_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not parses(load_series, path)
        assert peak < 1.5 * ts.values.nbytes


class TestSnapshot:
    """A `SeriesFile` holds one snapshot of the values open from its open
    to its close: the checked sidecar on a hit, else the file its parse
    wrote. Every read reads that file, and nothing else."""

    @staticmethod
    def refused():
        """A patch under which the directory refuses the sidecar's temp file
        (tests run as root, where a read-only mode bit refuses nothing)."""
        return mock.patch.object(data.tempfile, "mkstemp",
                                 side_effect=PermissionError(13, "Permission denied"))

    @pytest.mark.parametrize("how", ["hit", "parse", "refused"])
    def test_reads_at_interleaved_offsets_give_the_loaded_values(self, tmp_path, how):
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(4, 1_000)), str(path))
        expected = load_series(str(path)).values
        if how != "hit":
            sidecar(path).unlink()
        with mock.patch.object(data, "_BLOCK_BYTES", 64), \
                self.refused() if how == "refused" else contextlib.nullcontext():
            with SeriesFile(str(path)) as series:
                ahead, behind = np.empty(1_000), np.empty(1_000)
                for lo in range(0, 1_000, 64):  # one read forward, one from the end
                    series.read(lo, ahead[lo : lo + 64])
                    back = max(0, 1_000 - lo - 64)
                    series.read(back, behind[back : 1_000 - lo])
        assert ahead.tobytes() == expected.tobytes()
        assert behind.tobytes() == expected.tobytes()

    def test_a_pass_after_close_takes_its_own_snapshot(self, tmp_path):
        # Each read after the close takes a snapshot of its own and lets
        # it go: the first parses and leaves the sidecar, the rest hit it.
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(4, 1_000), sample_rate_hz=8.0), str(path))
        with SeriesFile(str(path)) as series:
            pass
        sidecar(path).unlink()
        expected = normals(4, 1_000)
        with mock.patch.object(data, "_BLOCK_BYTES", 64):
            assert parses(lambda path: series.read(10, np.empty(5)), path)
            assert not parses(lambda path: series.read(10, np.empty(5)), path)
            with mock.patch.object(profiles, "BLOCK", 64):
                assert slices(series, 4) == slices(expected, 4)
            with pytest.raises(DataError, match="cannot read 2 values from 999"):
                series.read(999, np.empty(2))
        assert sidecar(path).exists()

    def test_one_text_key_per_open(self, tmp_path):
        # The text is hashed when the sidecar is checked, at the open; the
        # passes read the held sidecar.
        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(4, 1_000)), str(path))
        load_series(str(path))  # writes the sidecar
        with mock.patch.object(data, "_text_key", wraps=data._text_key) as key, \
                mock.patch.object(data, "_BLOCK_BYTES", 64):
            for opens in (1, 2):
                with SeriesFile(str(path)) as series:
                    for _ in range(3):
                        assert series.read(0, np.empty(1_000)).tobytes() == \
                            normals(4, 1_000).tobytes()
                assert key.call_count == opens

    def test_a_refused_directory_parses_once_per_open(self, tmp_path):
        path = tmp_path / "series.txt"
        ts = TimeSeries(values=normals(4, 1_000), sample_rate_hz=8.0, name="n")
        save_series(ts, str(path))
        with self.refused(), \
                mock.patch.object(data, "_series_blocks", wraps=data._series_blocks) as parse:
            for opens in (1, 2):
                with SeriesFile(str(path)) as series:
                    for _ in range(3):
                        assert series.read(0, np.empty(1_000)).tobytes() == ts.values.tobytes()
                    assert (series.name, series.sample_rate_hz) == ("n", 8.0)
                assert parse.call_count == opens
        assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]

    def test_a_snapshot_that_cannot_be_written_is_a_data_error(self, tmp_path):
        # Where neither the directory nor the temp directory takes the
        # snapshot, or a write to it fails, the read fails: it never holds
        # the values in memory instead.
        class FullDisk(io.BytesIO):
            def write(self, data):
                if self.tell():  # after the 5-byte head
                    raise OSError(28, "No space left on device")
                return super().write(data)

        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(4, 100)), str(path))
        for temp in (mock.patch.object(data.tempfile, "TemporaryFile", side_effect=OSError(28, "full")),
                     mock.patch.object(data.tempfile, "TemporaryFile", FullDisk)):
            with self.refused(), temp, pytest.raises(DataError, match="cannot write the snapshot of"):
                load_series(str(path))
            assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]

    def test_a_failed_write_beside_the_text_leaves_nothing(self, tmp_path):
        # The directory takes the temp file, then the disk fills after the
        # head: the temp file goes, and no sidecar takes its place.
        class FullDisk(io.FileIO):
            def write(self, data):
                if self.tell():  # after the 5-byte head
                    raise OSError(28, "No space left on device")
                return super().write(data)

        path = tmp_path / "series.txt"
        save_series(TimeSeries(values=normals(4, 100)), str(path))
        with mock.patch.object(data.os, "fdopen", FullDisk), \
                pytest.raises(DataError, match="cannot write the snapshot of"):
            load_series(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]


#: Values per 256 KiB chunk of the sidecar check.
CHUNK = (1 << 18) // 8
#: A series of more than two chunks.
N_READ = 2 * CHUNK + 5
#: Offsets and sizes at the ends of the series and on both sides of each chunk edge.
READ_EDGES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
              N_READ - 1, N_READ, N_READ + 1]


class TestSeriesFileRead:
    """`SeriesFile.read(lo, out)` fills `out` with the loaded values
    lo .. lo + out.size - 1, byte for byte, on every kind of snapshot; a
    range outside [0, len] is a DataError."""

    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        """(loaded values, {kind: open SeriesFile}) of one series: a hit, a
        parse, and a FIFO's anonymous snapshot."""
        root = tmp_path_factory.mktemp("read")
        ts = TimeSeries(values=normals(8, N_READ))
        for name in ("hit.txt", "parse.txt"):
            save_series(ts, str(root / name))
        values = load_series(str(root / "hit.txt")).values  # writes the hit's sidecar
        fifo = root / "series.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=((root / "hit.txt").read_bytes(),))
        with contextlib.ExitStack() as stack:
            assert not parses(lambda path: SeriesFile(str(path)).close(), root / "hit.txt")
            files = {"hit": stack.enter_context(SeriesFile(str(root / "hit.txt"))),
                     "parse": stack.enter_context(SeriesFile(str(root / "parse.txt")))}
            writer.start()
            files["fifo"] = stack.enter_context(SeriesFile(str(fifo)))
            writer.join(timeout=10)
            assert not writer.is_alive()
            yield values, files

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["hit", "parse", "fifo"]),
           lo=st.one_of(st.sampled_from(READ_EDGES + [-1]), st.integers(0, N_READ)),
           size=st.one_of(st.sampled_from(READ_EDGES), st.integers(0, N_READ)))
    def test_a_read_is_the_loaded_values(self, snapshots, kind, lo, size):
        values, files = snapshots
        out = np.empty(size)
        if not 0 <= lo <= lo + size <= N_READ:
            with pytest.raises(DataError, match=f"cannot read {size} values from {lo}"):
                files[kind].read(lo, out)
            return
        assert files[kind].read(lo, out) is out
        assert out.tobytes() == values[lo : lo + size].tobytes()


class TestSampleRateHeader:
    """One rule for a `# sample_rate_hz:` header, in every text file: a
    finite number > 0, or a DataError that names the header's line. In a
    series, a header after the first value must keep the rate in effect."""

    @pytest.mark.parametrize("rate", ["abc", "inf", "-5", "0", "nan", ""])
    @pytest.mark.parametrize(
        "load, body",
        [
            (load_series, "1.0\n2.0\n"),
            (load_predictions, "# series_length: 10\n# m: 2\n# stride: 1\n# classes: a\n"
             "position,class,score\n"),
            (lambda path: load_labels(path, 10), "0,5,a\n"),
        ],
    )
    def test_bad_rate_names_its_line(self, tmp_path, rate, load, body):
        path = tmp_path / "f.txt"
        path.write_text(f"# name: x\n# sample_rate_hz: {rate}\n" + body)
        message = f"sample_rate_hz must be a finite number > 0, got {rate!r}"
        with pytest.raises(DataError, match=re.escape(message)) as err:
            load(str(path))
        assert err.value.line == 2

    def test_good_rate_loads(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# sample_rate_hz: 2.5e3\n1.0\n")
        assert load_series(str(path)).sample_rate_hz == 2500.0

    @pytest.mark.parametrize("block", [16, 1 << 18])
    @pytest.mark.parametrize("text, line, before", [
        ("1.0\n2.0\n# sample_rate_hz: 50\n3.0\n", 3, None),
        ("# sample_rate_hz: 2\n1.0\n# name: b\n\n# sample_rate_hz: 3\n2.0\n", 5, 2.0),
        ("# sample_rate_hz: 2\n1.0\n2.0\n3.0\n4.0\n# sample_rate_hz: 0.5\n", 6, 2.0),
    ], ids=["none-then-a-rate", "another-rate", "a-rate-after-the-last-value"])
    def test_a_late_rate_that_changes_is_a_fault(self, tmp_path, block, text, line, before):
        path = tmp_path / "f.txt"
        path.write_text(text)
        message = f"after the first value changes the rate in effect, {before!r}"
        with mock.patch.object(data, "_BLOCK_BYTES", block):
            for read in (load_series, lambda path: SeriesFile(path).close()):
                with pytest.raises(DataError, match=re.escape(message)) as err:
                    read(str(path))
                assert err.value.line == line

    @pytest.mark.parametrize("text, rate", [
        ("# sample_rate_hz: 2\n1.0\n# sample_rate_hz: 2.0\n2.0\n", 2.0),
        ("# sample_rate_hz: 2\n\n# sample_rate_hz: 3\n1.0\n2.0\n", 3.0),
    ], ids=["late-but-the-same", "changed-before-the-first-value"])
    def test_rates_that_load(self, tmp_path, text, rate):
        path = tmp_path / "f.txt"
        path.write_text(text)
        assert load_series(str(path)).sample_rate_hz == rate
        with SeriesFile(str(path)) as series:
            assert series.sample_rate_hz == rate


class TestLabelIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "labels.csv")
        track = LabelTrack(
            series_length=500,
            regions=(Region(0, 100, "peck"), Region(150, 400, "dustbathe")),
        )
        save_labels(track, path)
        assert load_labels(path, 500) == track

    def test_two_regions(self, tmp_path):
        (tmp_path / "l.csv").write_text("0,100,peck\n150,400,dustbathe\n")
        track = load_labels(str(tmp_path / "l.csv"), 500)
        assert len(track.regions) == 2

    def test_overlap_reports_line(self, tmp_path):
        (tmp_path / "l.csv").write_text("0,100,a\n50,200,b\n")
        with pytest.raises(DataError, match="line 2: .* overlaps previous end 100") as err:
            load_labels(str(tmp_path / "l.csv"), 500)
        assert err.value.line == 2

    def test_out_of_bounds(self, tmp_path):
        (tmp_path / "l.csv").write_text("0,600,a\n")
        with pytest.raises(DataError, match=r"line 1: region \[0,600\) outside \[0,500\)") as err:
            load_labels(str(tmp_path / "l.csv"), 500)
        assert err.value.line == 1

    def test_out_of_order(self, tmp_path):
        (tmp_path / "l.csv").write_text("200,300,a\n0,100,b\n")
        with pytest.raises(DataError, match="line 2: .* is out of order") as err:
            load_labels(str(tmp_path / "l.csv"), 500)
        assert err.value.line == 2

    def test_reserved_class(self, tmp_path):
        (tmp_path / "l.csv").write_text("0,10,Other\n")
        with pytest.raises(DataError, match="line 1: .* carries reserved class Other") as err:
            load_labels(str(tmp_path / "l.csv"), 500)
        assert err.value.line == 1

    def test_malformed_line(self, tmp_path):
        (tmp_path / "l.csv").write_text("0,10\n")
        with pytest.raises(DataError, match="line 1: expected start,end,class") as err:
            load_labels(str(tmp_path / "l.csv"), 500)
        assert err.value.line == 1

    @pytest.mark.parametrize("written", ["499", "501", "5e2", "-500", "abc", ""])
    def test_labels_written_for_another_length(self, tmp_path, written):
        # The header may come anywhere, so the length is checked with the
        # whole-file checks, before the region that leaves the series.
        (tmp_path / "l.csv").write_text(f"0,10,a\n# series_length: {written}\n0,600,b\n")
        with pytest.raises(DataError) as err:
            load_labels(str(tmp_path / "l.csv"), 500)
        assert str(err.value) == (
            f"{tmp_path / 'l.csv'}: the labels' series_length {written!r} is not the "
            "series length 500"
        )


def small_models():
    bundle = gen_two_modality_dataset(
        TwoModalityParams(n_sine=4, n_flat=4, n_surge=2, n_hum=2), 3
    )
    specs = [
        ClassSpec(
            "sine", 64, 64,
            (FeatureSpec(kind="shape"), FeatureSpec(kind="sliding_std")),
            prior=0.5,
        ),
        ClassSpec(
            "flat", 64, 64,
            (FeatureSpec(kind="shape"), FeatureSpec(kind="sliding_std")),
            prior=0.5,
        ),
    ]
    return bundle, train(bundle.series, bundle.labels, specs)


class TestModelIo:
    def test_round_trip_field_by_field(self, tmp_path):
        _, models = small_models()
        path = str(tmp_path / "model.sfcm")
        save_model(models, path)
        loaded = load_model(path)
        assert len(loaded) == len(models)
        for a, b in zip(models, loaded):
            assert a == b

    def test_truncated_file_is_corrupt(self, tmp_path):
        _, models = small_models()
        path = tmp_path / "model.sfcm"
        save_model(models, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError, match="is corrupt"):
            load_model(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.sfcm"
        path.write_bytes(MODEL_MAGIC + bytes([99]) + b"{}")
        with pytest.raises(DataError, match="unsupported version 99"):
            load_model(str(path))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.sfcm"
        path.write_bytes(b"NOPE" + bytes([1]) + b"{}")
        with pytest.raises(DataError, match="is not a model file"):
            load_model(str(path))


class TestPredictionIo:
    def test_round_trip(self, tmp_path):
        bundle, models = small_models()
        track = classify(models, bundle.series, ClassifierConfig())
        path = str(tmp_path / "pred.csv")
        save_predictions(track, path)
        loaded = load_predictions(path)
        assert loaded.class_ids == track.class_ids
        assert loaded.series_length == track.series_length
        assert loaded.m == track.m
        assert loaded.detections() == track.detections()

    def test_save_peak_does_not_grow_with_the_detections(self, tmp_path):
        # Rows are formatted from the three arrays 65,536 detections at a
        # time: the traced peak read 18.8 MB at 200,000 detections and 18.9 MB
        # at 800,000, against 39.2 and 122.1 MB for a tuple per detection.
        n = 300_000
        track = PredictionTrack(class_ids=("walk", "noise"), positions=np.arange(n) * 3,
                                label_codes=(uniforms(1, n) < 0.5).astype(np.int32),
                                scores=uniforms(2, n), m=100, series_length=3 * n + 99)
        path = tmp_path / "pred.csv"
        tracemalloc.start()
        try:
            save_predictions(track, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6
        rows = "".join(f"{pos},{cls},{score!r}\n" for pos, cls, score in track.detections())
        assert path.read_bytes().endswith(b"position,class,score\n" + rows.encode())

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("50,a,0.9\n5,a,0.8\n", "rows must ascend, position 5 follows 50"),
            ("50,a,0.9\n50,a,0.7\n", "rows must ascend, position 50 follows 50"),
            ("5,a,0.9\n100,a,0.8\n", r"position 100 outside \[0,97\)"),
            ("5,a,0.9\n6,b,0.8\n", "unknown class 'b'"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "p.csv"
        path.write_text(
            "# series_length: 100\n# m: 4\n# stride: 1\n# classes: a\n"
            "position,class,score\n" + rows
        )
        with pytest.raises(DataError, match=message) as err:
            load_predictions(str(path))
        assert err.value.line == 7

    def test_missing_metadata_rejected(self, tmp_path):
        (tmp_path / "p.csv").write_text("position,class,score\n1,a,0.5\n")
        with pytest.raises(DataError, match="missing or bad prediction metadata"):
            load_predictions(str(tmp_path / "p.csv"))

    @pytest.mark.parametrize(
        "series_length, m, stride", [(10, 20, 1), (10, 0, 1), (10, -3, 1), (10, 4, 0)]
    )
    def test_bad_header_rejected(self, tmp_path, series_length, m, stride):
        path = tmp_path / "p.csv"
        path.write_text(
            f"# series_length: {series_length}\n# m: {m}\n# stride: {stride}\n"
            "# classes: a\nposition,class,score\n"
        )
        expected = f"got series_length={series_length}, m={m}, stride={stride}"
        with pytest.raises(DataError, match=expected) as err:
            load_predictions(str(path))
        assert str(path) in str(err.value)


class TestGunExperiment:
    def make_pool(self, seed, count=25, length=150):
        return [normals(derive_seed(seed, i), length) for i in range(count)]

    def test_bundle_shape(self):
        bundle = build_gun_experiment(self.make_pool(1), self.make_pool(2), seed=7)
        assert len(bundle) == 80
        classes = [cls for _, cls in bundle]
        assert classes.count("Gun") == 20
        assert classes.count("NoGun") == 20
        assert classes.count("RandomNoise") == 20
        assert classes.count("RandomWalk") == 20
        assert all(vec.size == 150 for vec, _ in bundle)

    def test_deterministic(self):
        a = build_gun_experiment(self.make_pool(1), self.make_pool(2), seed=7)
        b = build_gun_experiment(self.make_pool(1), self.make_pool(2), seed=7)
        for (va, ca), (vb, cb) in zip(a, b):
            assert ca == cb and np.array_equal(va, vb)

    def test_insufficient_instances(self):
        with pytest.raises(DataError, match="need 20 Gun instances, got 5"):
            build_gun_experiment(self.make_pool(1, count=5), self.make_pool(2), seed=0)

    def test_short_instances_rejected(self):
        short = [normals(3, 100) for _ in range(25)]
        with pytest.raises(DataError, match="shorter than 150"):
            build_gun_experiment(short, self.make_pool(2), seed=0)


class TestUcrLoader:
    def test_tab_and_comma_formats(self, tmp_path):
        (tmp_path / "a.tsv").write_text("1\t0.5\t0.25\n2\t1.5\t2.5\n")
        (tmp_path / "b.csv").write_text("1.0,0.5,0.25\n2.0,1.5,2.5\n")
        for name in ("a.tsv", "b.csv"):
            inst = load_ucr_instances(str(tmp_path / name))
            assert [label for label, _ in inst] == ["1", "2"]
            assert np.array_equal(inst[0][1], [0.5, 0.25])

    def test_bad_value(self, tmp_path):
        (tmp_path / "c.csv").write_text("1,0.5,oops\n")
        with pytest.raises(DataError, match="line 1: bad value in instance") as err:
            load_ucr_instances(str(tmp_path / "c.csv"))
        assert err.value.line == 1

    def test_non_finite_reports_line(self, tmp_path):
        (tmp_path / "c.csv").write_text("1,0.5,0.25\n2,inf,0.5\n")
        with pytest.raises(DataError, match="line 2: non-finite instance value") as err:
            load_ucr_instances(str(tmp_path / "c.csv"))
        assert err.value.line == 2
        assert err.value.index is None


class TestMalformedFileFuzz:
    """Malformed inputs must raise DataError, never crash."""

    def test_series_and_labels_and_models_survive_garbage(self, tmp_path):
        from shapefeat.data import uniforms

        printable = "0123456789.,-+eEnafi# \t"
        for trial in range(60):
            u = uniforms(4000 + trial, 400)
            length = int(u[0] * 300)
            text = "".join(
                printable[int(v * len(printable)) % len(printable)] for v in u[1 : 1 + length]
            )
            blob = bytes(int(v * 256) % 256 for v in u[1 : 1 + length])
            target = tmp_path / f"fuzz-{trial}"
            target.write_text(text + "\n")
            for loader in (
                lambda p: load_series(p),
                lambda p: load_labels(p, 1000),
                lambda p: load_predictions(p),
                lambda p: load_ucr_instances(p),
            ):
                try:
                    loader(str(target))
                except DataError:
                    pass
            target.write_bytes(blob)
            try:
                load_model(str(target))
            except DataError:
                pass
