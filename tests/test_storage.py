import errno
import hashlib
import json
import math
import os
import signal
import struct
import time
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embcompress import storage
from embcompress.compress import (
    compress_kmeans,
    compress_pca,
    compress_uniform,
    decompress,
)
from embcompress.storage import (
    BadMagicError,
    ChecksumError,
    FormatError,
    StorageError,
    TruncatedError,
    VersionError,
    Vocabulary,
    _serialize_compressed,
    file_digest,
    read_compressed,
    read_performance_csv,
    read_report,
    read_text_embedding,
    write_compressed,
    write_report,
    write_table_csv,
    write_text_embedding,
)

RNG = np.random.default_rng(777)


def vocab(n):
    return Vocabulary(tuple(f"tok{i}" for i in range(n)))


class TestTextFormat:
    def test_headerless_two_rows(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("alpha 1.0 2.0 3.0\nbeta -0.5 0.25 0\n")
        X, v = read_text_embedding(p)
        np.testing.assert_allclose(X, [[1, 2, 3], [-0.5, 0.25, 0]])
        assert v.tokens == ("alpha", "beta")

    def test_header_detected_and_checked(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        X, v = read_text_embedding(p)
        assert X.shape == (2, 3)
        p.write_text("3 3\nalpha 1 2 3\nbeta 4 5 6\n")
        with pytest.raises(FormatError, match="header declares"):
            read_text_embedding(p)

    def test_short_row_names_line(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("alpha 1 2 3\nbeta 4 5\n")
        with pytest.raises(FormatError, match="emb.txt:2"):
            read_text_embedding(p)

    def test_duplicate_token(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 2\na 3 4\n")
        with pytest.raises(FormatError, match="duplicate token"):
            read_text_embedding(p)

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 x\n")
        with pytest.raises(FormatError, match="non-numeric"):
            read_text_embedding(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 nan\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_text_embedding(p)

    def test_format_override(self, tmp_path):
        # a 2-d embedding whose first token parses as an integer would be
        # eaten by auto-detection; --format glove keeps it
        p = tmp_path / "emb.txt"
        p.write_text("7 3\n8 4\n")
        X, v = read_text_embedding(p, fmt="glove")
        assert v.tokens == ("7", "8")
        assert X.shape == (2, 1)

    def test_round_trip_headerless(self, tmp_path):
        X = RNG.normal(size=(4, 3))
        p = tmp_path / "emb.txt"
        write_text_embedding(X, vocab(4), p)
        X2, v2 = read_text_embedding(p)
        np.testing.assert_array_equal(X2, X)
        assert v2 == vocab(4)

    def test_round_trip_after_headered_input(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("2 2\na 1.5 -2.5\nb 0.125 3\n")
        X, v = read_text_embedding(p)
        out = tmp_path / "out.txt"
        write_text_embedding(X, v, out)
        assert not out.read_text().startswith("2 2")  # header is not re-emitted
        X2, _ = read_text_embedding(out)
        np.testing.assert_array_equal(X2, X)

    def test_extreme_values_survive(self, tmp_path):
        X = np.array([[-1.2345678901234567e-308, 5e-324, -7.774860418132129]])
        p = tmp_path / "emb.txt"
        write_text_embedding(X, vocab(1), p)
        X2, _ = read_text_embedding(p)
        np.testing.assert_array_equal(X2, X)

    def test_headered_file_fills_one_array(self, tmp_path):
        n, d = 10_000, 100
        values = np.random.default_rng(3).integers(-99, 100, size=(n, d)) / 8
        body = "".join(f"w{i} " + " ".join(map(str, row)) + "\n"
                       for i, row in enumerate(values.tolist()))
        plain, headered = tmp_path / "plain.txt", tmp_path / "headered.txt"
        plain.write_text(body)
        headered.write_text(f"{n} {d}\n" + body)
        X, v = read_text_embedding(plain)
        tracemalloc.start()
        try:
            Y, w = read_text_embedding(headered)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.tobytes() == X.tobytes() and Y.shape == X.shape and w == v
        assert peak < 1.6 * X.nbytes

    def test_headerless_file_fills_one_array(self, tmp_path):
        # the form write_text_embedding writes: no header, 17-digit values
        X = RNG.standard_t(5, size=(10_000, 100))
        v = vocab(10_000)
        p = tmp_path / "emb.txt"
        write_text_embedding(X, v, p)
        tracemalloc.start()
        try:
            Y, w = read_text_embedding(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.tobytes() == X.tobytes() and Y.shape == X.shape and w == v
        assert peak < 1.7 * X.nbytes

    @pytest.mark.parametrize("long_first", [True, False])
    @pytest.mark.parametrize("block_rows", [3, 256])
    def test_row_estimate_off_either_way(self, tmp_path, monkeypatch, block_rows, long_first):
        # long rows first make the size-based row estimate fall short, so the
        # array grows; short rows first make it overshoot, so it is trimmed
        monkeypatch.setattr(storage, "TEXT_BLOCK_ROWS", block_rows)
        X = RNG.normal(size=(2000, 4))
        tokens = [f"{'x' * 200}{i}" for i in range(1000)] + [f"w{i}" for i in range(1000)]
        if not long_first:
            tokens.reverse()
        body = "".join(f"{t} " + " ".join(map(repr, row)) + "\n"
                       for t, row in zip(tokens, X.tolist()))
        plain, headered = tmp_path / "plain.txt", tmp_path / "headered.txt"
        plain.write_text(body)
        headered.write_text("2000 4\n" + body)
        Y, w = read_text_embedding(plain)
        Z, u = read_text_embedding(headered)
        assert Y.tobytes() == Z.tobytes() == X.tobytes() and Y.shape == X.shape
        assert w == u and w.tokens == tuple(tokens) and Y.flags.c_contiguous

    def test_implausible_header_is_not_allocated(self, tmp_path):
        # the array is sized from the file, never from the header
        p = tmp_path / "emb.txt"
        p.write_text("1000000000000 1000000\na 1 2\nb 3 4\n")
        with pytest.raises(FormatError) as exc:
            read_text_embedding(p)
        assert str(exc.value) == (
            f"{p}: header declares 1000000000000x1000000 but the file holds 2x2"
        )

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "emb.txt"
        for body in ("5 3\n", "5 3\n\n \n"):
            p.write_text(body)
            with pytest.raises(FormatError, match=r"declares 5x3 but the file holds 0 rows$"):
                read_text_embedding(p)

    @pytest.mark.parametrize("bad_line", [2, 5001])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, bad_line):
        # line 5001 lies past the first 8 KB of the file and the first block
        p = tmp_path / "emb.txt"
        write_text_embedding(RNG.normal(size=(5002, 3)), vocab(5002), p)
        lines = p.read_bytes().split(b"\n")
        lines[bad_line - 1] = lines[bad_line - 1].replace(b" ", b" \xff", 1)
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError) as info:
            read_text_embedding(p)
        assert str(info.value).startswith(f"{p}:{bad_line}: not valid UTF-8 at byte 0xff")

    @pytest.mark.parametrize("body,line", [
        (b"a 1 2\rb 3 4\rc 5 \xff6\n", 3),
        (b"a 1 2\r\n\xe2\x82b 3 4\n", 2),
        (b"a 1 2\x1cb 3 4\nc 5 6\n\n\xc3", 5),
    ])
    def test_invalid_utf8_line_counts_every_line_break(self, tmp_path, body, line):
        p = tmp_path / "emb.txt"
        p.write_bytes(body)
        with pytest.raises(FormatError, match=f"emb.txt:{line}: not valid UTF-8"):
            read_text_embedding(p)


def _per_line_reference(path, fmt="auto"):
    """The reader as it was before block parsing: the whole file split into
    lines, trailing blank lines dropped, and float() on every field."""
    lines = path.read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty embedding file")
    start, declared = 0, None
    if fmt in ("auto", "fasttext"):
        declared = storage._parse_header(lines[0])
        if declared is not None:
            start = 1
        elif fmt == "fasttext":
            raise FormatError(f"{path}:1: expected a 'n d' header line")
    tokens, rows, dim = [], [], None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = [p for p in line.split(" ") if p != ""]
        if len(parts) < 2:
            raise FormatError(f"{path}:{lineno}: expected a token and at least one value")
        if parts[0] in tokens:
            raise FormatError(f"{path}:{lineno}: duplicate token {parts[0]!r}")
        values = []
        for p in parts[1:]:
            try:
                v = float(p)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric field {p!r}") from None
            if not math.isfinite(v):
                raise FormatError(f"{path}:{lineno}: non-finite value {p!r}")
            values.append(v)
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise FormatError(f"{path}:{lineno}: row has {len(values)} values, expected {dim}")
        tokens.append(parts[0])
        rows.append(values)
    if declared is not None and (len(rows), dim) != declared:
        held = f"{len(rows)}x{dim}" if rows else "0 rows"
        raise FormatError(
            f"{path}: header declares {declared[0]}x{declared[1]} but the file holds {held}"
        )
    return np.asarray(rows, dtype=np.float64), Vocabulary(tuple(tokens))


def _outcome(read, path, fmt, **kwargs):
    try:
        X, v = read(path, fmt, **kwargs)
    except FormatError as exc:
        return "error", str(exc)
    return "ok", X.shape, X.tobytes(), v


def _assert_matches_reference(path, fmt="auto"):
    """The reader at 1, 2 and 3 threads against the per-line reference;
    with ``_MIN_FORK_BYTES`` patched small, the threaded reads split even a
    short file."""
    want = _outcome(_per_line_reference, path, fmt)
    for threads in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy must not warn about a block
            got = _outcome(read_text_embedding, path, fmt, threads=threads)
        assert got == want, threads
        _assert_no_child_left()
    return got


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_ROWS = ["a 1 2 3", "b -0.5 0.25 0", "c 1e-300 7 8", "d 4 5 6", "e 0.1 0.2 0.3", "f 9 9 9"]


class TestBlockReaderOracle:
    """The block reader against the per-line reference, with blocks of two
    or three rows so that failures land in later blocks, read in one range
    and split into two or three."""

    @pytest.fixture(autouse=True, params=[2, 3])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(storage, "TEXT_BLOCK_ROWS", request.param)
        monkeypatch.setattr(storage, "_MIN_FORK_BYTES", 1)

    @pytest.mark.parametrize(
        "body,fmt,expect",
        [
            ("\n".join(_ROWS) + "\n", "auto", "ok"),
            ("6 3\n" + "\n".join(_ROWS), "fasttext", "ok"),
            # runs of spaces, leading and trailing spaces, a tab inside a token
            ("a 1  2 3\nb\t2 4 5 6 \n  c 7 8   9\nd 1 2 3", "auto", "ok"),
            ("a 1_000 2\nb 3 4\nc 5 1_0.5", "auto", "ok"),
            ("a 1 2\nb 3 4\nc 5 nan\nd 1 2", "auto", ":3: non-finite value 'nan'"),
            ("a 1 2\nb 3 4\nc inf 5", "auto", ":3: non-finite value 'inf'"),
            ("a 1 2\nb 3 4\nc 5 6\nd -inf 2", "auto", ":4: non-finite value '-inf'"),
            ("a 1 2\nb 3 4\nc 0x1p3 5", "auto", ":3: non-numeric field '0x1p3'"),
            ("a 1 2\nb 3 4\nc 5 6\nd 1e400 2", "auto", ":4: non-finite value '1e400'"),
            ("a 1 2\nb 3 \x1f4\nc 5 6", "auto", ":2: non-numeric field '\\x1f4'"),
            ("\n".join(_ROWS[:4]) + "\ne 1 2\nf 1 2 3", "auto", ":5: row has 2 values, expected 3"),
            ("\n".join(_ROWS[:4]) + "\ne 1 2 3 4", "auto", ":5: row has 4 values, expected 3"),
            ("\n".join(_ROWS[:4]) + "\ne", "auto", ":5: expected a token and at least one value"),
            ("\n".join(_ROWS[:4]) + "\nb 1 2 3", "auto", ":5: duplicate token 'b'"),
            ("\n".join(_ROWS[:4]) + "\na 1 2 3\na 4 5 6", "auto", ":5: duplicate token 'a'"),
            ("\n".join(_ROWS) + "\n\n  \n\t\n\n", "auto", "ok"),
            ("\n".join(_ROWS[:3]) + "\n\n\t\n" + "\n".join(_ROWS[3:]), "auto", ":4: expected a token"),
            ("\n\n" + "\n".join(_ROWS), "auto", ":1: expected a token"),
            # split in two, the blank lines end the first range and the second
            # starts with a row: neither range alone sees the error
            ("a 1 2 3\n\n\nbb 4 5 66\n", "auto", ":2: expected a token"),
            ("\n\n" + "\n".join(_ROWS), "fasttext", ":1: expected a 'n d' header line"),
            ("7 3\n" + "\n".join(_ROWS), "auto", "header declares 7x3 but the file holds 6x3"),
            ("6 4\n" + "\n".join(_ROWS), "auto", "header declares 6x4 but the file holds 6x3"),
            ("5 3\n" + "\n".join(_ROWS), "auto", "header declares 5x3 but the file holds 6x3"),
            ("6 2\n" + "\n".join(_ROWS), "auto", "header declares 6x2 but the file holds 6x3"),
            ("900 3\n" + "\n".join(_ROWS), "auto", "header declares 900x3 but the file holds 6x3"),
            ("\n".join(_ROWS), "fasttext", ":1: expected a 'n d' header line"),
            ("6 3\r\n" + "\r\n".join(_ROWS) + "\r\n", "auto", "ok"),
            ("6 3\n" + "\n".join(_ROWS), "glove", ":2: row has 3 values, expected 1"),
            ("  \n\t\n", "auto", "empty embedding file"),
        ],
    )
    def test_hand_written(self, tmp_path, body, fmt, expect):
        p = tmp_path / "emb.txt"
        p.write_bytes(body.encode("utf-8"))
        got = _assert_matches_reference(p, fmt)
        if expect == "ok":
            assert got[0] == "ok"
        else:
            assert got[0] == "error" and expect in got[1]

    def test_accepted_oddities_parse_like_float(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("x\ty 1_000  -2\nz 3 4\n")
        X, v = read_text_embedding(p)
        np.testing.assert_array_equal(X, [[1000.0, -2.0], [3.0, 4.0]])
        assert v.tokens == ("x\ty", "z")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(
            st.one_of(
                st.tuples(
                    st.text(alphabet="ab\t\x1fé%", min_size=0, max_size=3),
                    st.lists(
                        st.sampled_from(["1", "-0.5", "2.5e-3", "1_000", "nan", "inf", "-inf",
                                         "0x1p3", "1e400", "x", "\x1f7", "+.5", ""]),
                        min_size=0, max_size=4,
                    ),
                    st.sampled_from([" ", "  "]),
                ).map(lambda t: t[0] + t[2] + t[2].join(t[1])),
                st.sampled_from(["", " ", "\t", "3 2", "2 1", "+2 1"]),
            ),
            max_size=9,
        ),
        newline=st.sampled_from(["\n", "\r\n", "\x0c"]),
        fmt=st.sampled_from(["auto", "glove", "fasttext"]),
    )
    def test_random_files(self, tmp_path, lines, newline, fmt):
        p = tmp_path / "emb.txt"
        p.write_bytes(newline.join(lines).encode("utf-8"))
        _assert_matches_reference(p, fmt)


def _golden_embedding():
    """2055 x 5 matrix: exact binary fractions over 200 binary orders of
    magnitude, extreme values in rows 0 and 1500, and non-ASCII tokens."""
    n, d = 2 * 1024 + 7, 5
    i = np.arange(n, dtype=np.int64)[:, None]
    j = np.arange(d, dtype=np.int64)[None, :]
    mant = ((i * 7919 + j * 104729) % 2003 - 1001) / 997.0
    X = np.ldexp(mant, ((i * 31 + j * 17) % 200 - 100).astype(np.int32))
    X[0] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    X[1500] = [0.1, -5e-324, 0.0, 1.0, -1.0]
    tokens = [("naïve", "日本", "straße", "ok")[k % 4] + str(k) for k in range(n)]
    return X, Vocabulary(tuple(tokens))


class TestTextWriterGolden:
    # sha256 of the file written by the per-value formatting loop that the
    # block writer replaced
    DIGEST = "6c54d70d1223f1d5fcdc9efe6ff5eaee58648225306580e6dcb139a747ccf8b9"

    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_bytes_and_round_trip(self, tmp_path, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(storage, "TEXT_BLOCK_ROWS", block_rows)
        X, v = _golden_embedding()
        p = tmp_path / "emb.txt"
        write_text_embedding(X, v, p)
        assert file_digest(p) == self.DIGEST
        X2, v2 = read_text_embedding(p)
        assert X2.tobytes() == X.tobytes()
        assert v2 == v

    @pytest.mark.parametrize("workers", [2, 3])
    def test_forked_write_keeps_the_bytes(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(storage, "TEXT_BLOCK_ROWS", 100)
        _writer_workers(monkeypatch, workers)
        X, v = _golden_embedding()
        p = tmp_path / "emb.txt"
        write_text_embedding(X, v, p)
        assert file_digest(p) == self.DIGEST
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_reads_back_at_every_thread_count(self, tmp_path, monkeypatch, threads):
        monkeypatch.setattr(storage, "_MIN_FORK_BYTES", 1)
        taken = _spy_forked(monkeypatch)
        X, v = _golden_embedding()
        p = tmp_path / "emb.txt"
        write_text_embedding(X, v, p)
        X2, v2 = read_text_embedding(p, threads=threads)
        assert X2.tobytes() == X.tobytes() and X2.shape == X.shape and v2 == v
        assert taken == ([True] if threads > 1 else [])
        _assert_no_child_left()


# Characters that end a line for str.splitlines
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestTextWriterRefuses:
    """Text that the reader cannot read back is refused before the file is
    opened, so an existing file keeps its bytes."""

    def _refused(self, tmp_path, X, tokens, match):
        p = tmp_path / "emb.txt"
        p.write_bytes(b"old")
        with pytest.raises(ValueError, match=match):
            write_text_embedding(X, Vocabulary(tuple(tokens)), p)
        assert p.read_bytes() == b"old"
        with pytest.raises(ValueError, match=match):
            write_text_embedding(X, Vocabulary(tuple(tokens)), tmp_path / "new.txt")
        assert not (tmp_path / "new.txt").exists()

    def test_token_with_a_space(self, tmp_path):
        # unchecked, this is the line "a b 1 1", read back as "non-numeric field 'b'"
        self._refused(tmp_path, np.ones((2, 2)), ("a b", "c"), r"^token 0 'a b' holds a space")

    @pytest.mark.parametrize("char", list(_LINE_BREAKS) + ["\ud800"])
    @pytest.mark.parametrize("where", ["inside", "end"])
    def test_token_with_a_line_break_or_lone_surrogate(self, tmp_path, char, where):
        token = "b" + char + ("c" if where == "inside" else "")
        self._refused(tmp_path, np.ones((3, 2)), ("a", token, "d"), r"^token 1 ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_the_first_row(self, tmp_path, bad):
        X = np.ones((600, 3))
        X[517, 2] = X[599, 0] = bad
        self._refused(tmp_path, X, [f"t{i}" for i in range(600)], r"^row 517 holds a non-finite")

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_matrix(self, tmp_path, shape):
        self._refused(tmp_path, np.ones(shape), [f"t{i}" for i in range(shape[0])],
                      "needs a row and a column")

    @pytest.mark.parametrize("X, tokens", [
        ([[1.0], [5.0]], ("1", "b")),  # unchecked, read back as 1 row under a "1 1" header
        ([[2.0], [5.0], [1.5]], ("3", "b", "c")),  # "header declares 3x2"
        ([[2.0], [5.0]], ("+3", "b")),  # the header rule's int() accepts a sign
        ([[3.0, 2.0], [5.0, 1.0], [1.5, 7.0]], ("\t", "b", "c")),  # "\t 3 2"
    ], ids=["one-row-lost", "header-mismatch", "signed", "whitespace-token"])
    def test_first_row_read_as_a_header(self, tmp_path, X, tokens):
        self._refused(tmp_path, np.array(X), tokens,
                      r"^row 0 would be written as .*, which the reader takes for an 'n d' header")

    @pytest.mark.parametrize("first", [1.5, 0.0, -2.0, 1e20])
    def test_one_column_whose_first_row_is_no_header_is_written(self, tmp_path, first):
        X = np.array([[first], [5.0]])
        p = tmp_path / "emb.txt"
        write_text_embedding(X, Vocabulary(("1", "b")), p)
        X2, v2 = read_text_embedding(p)
        assert X2.tobytes() == X.tobytes() and v2.tokens == ("1", "b")

    def test_tokens_the_reader_keeps_are_written(self, tmp_path):
        tokens = ("x\ty", "\x1f", "\t", "\xa0", "\ufeffa", "\U0001d11e", "nan")
        X = np.arange(14.0).reshape(7, 2)
        p = tmp_path / "emb.txt"
        write_text_embedding(X, Vocabulary(tokens), p)
        X2, v2 = read_text_embedding(p)
        assert X2.tobytes() == X.tobytes() and v2.tokens == tokens

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(1, 6), d=st.integers(1, 4))
    def test_valid_text_round_trips_bit_for_bit(self, tmp_path, data, n, d):
        """Read with the default format: the only text refused is a first
        line that would read as an "n d" header."""
        token = st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters=" " + _LINE_BREAKS),
                        min_size=1, max_size=4)
        tokens = data.draw(st.lists(token, min_size=n, max_size=n, unique=True))
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n * d, max_size=n * d))
        X = np.array(values).reshape(n, d)
        p = tmp_path / "emb.txt"
        try:
            write_text_embedding(X, Vocabulary(tuple(tokens)), p)
        except ValueError as exc:
            # a header line holds two fields: the value of one column, or
            # two under a token of whitespace
            assert d <= 2 and str(exc).startswith("row 0 would be written as "), exc
            return
        X2, v2 = read_text_embedding(p)
        assert X2.tobytes() == X.tobytes() and v2.tokens == tuple(tokens)


def _spy_forked(monkeypatch):
    """A list that gains, for each split read, whether its ranges were
    accepted (False when the file was read again in one range)."""
    taken = []
    real = storage._read_forked

    def spy(*args):
        parsed = real(*args)
        taken.append(parsed is not None)
        return parsed

    monkeypatch.setattr(storage, "_read_forked", spy)
    return taken


@pytest.fixture
def deadline():
    """Fail, not hang, when a read or a write waits for a child forever."""

    def expire(signum, frame):
        raise TimeoutError("waited 60 s for a child")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.usefixtures("deadline")
class TestForkedReader:
    """``read_text_embedding(threads=)``: the split, the fallback to one
    range, and the reaping of every child."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    def test_ranges_start_after_a_newline(self, tmp_path, monkeypatch, threads):
        monkeypatch.setattr(storage, "_MIN_FORK_BYTES", 200)
        data = b"".join(b"w%d" % i + b" 1" * (i % 40) + b"\n" for i in range(80))
        p = tmp_path / "emb.txt"
        p.write_bytes(data)
        with open(p, "rb") as fh:
            starts = storage._range_starts(fh, os.fstat(fh.fileno()), threads)
        assert starts[0] == 0 and 1 <= len(starts) <= threads
        assert len(starts) > 1 or threads == 1
        for a, b in zip(starts, starts[1:] + [len(data)]):
            assert b - a >= 200
        assert all(data[a - 1:a] == b"\n" for a in starts[1:])
        # a file below two floors is not split
        monkeypatch.setattr(storage, "_MIN_FORK_BYTES", len(data) // 2 + 1)
        with open(p, "rb") as fh:
            assert storage._range_starts(fh, os.fstat(fh.fileno()), threads) == [0]

    @pytest.fixture
    def base(self, tmp_path, monkeypatch):
        """A 20000 x 4 file, split at a floor of 64 KB: each child's values
        outgrow a pipe's buffer, so a child that is not killed blocks."""
        monkeypatch.setattr(storage, "_MIN_FORK_BYTES", 1 << 16)
        X = RNG.normal(size=(20_000, 4))
        p = tmp_path / "emb.txt"
        write_text_embedding(X, vocab(20_000), p)
        return p, X

    @pytest.mark.parametrize("fault", ["raise", "exit", "exit-mid-write", "exit-after-write"])
    def test_worker_fault_falls_back(self, base, monkeypatch, fault):
        p, X = base
        real = storage._write_range

        def faulty(path, st, start, stop, w):
            if fault == "raise":
                raise RuntimeError("injected")
            if fault == "exit-mid-write":
                os.write(w, struct.pack("=3Q", 5000, 4, 30000))
            if fault == "exit-after-write":
                real(path, st, start, stop, w)
            os._exit(1)

        monkeypatch.setattr(storage, "_write_range", faulty)
        taken = _spy_forked(monkeypatch)
        Y, v = read_text_embedding(p, threads=3)
        assert taken == [False]
        assert Y.tobytes() == X.tobytes() and v == vocab(20_000)
        _assert_no_child_left()

    def test_success_and_failure_reap_every_child(self, base, monkeypatch):
        p, X = base
        taken = _spy_forked(monkeypatch)
        Y, _ = read_text_embedding(p, threads=3)
        assert Y.tobytes() == X.tobytes()
        _assert_no_child_left()
        lines = p.read_bytes().split(b"\n")
        lines[-2] = lines[-2].rsplit(b" ", 1)[0] + b" x1"
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError) as info:
            read_text_embedding(p, threads=3)
        assert str(info.value) == f"{p}:20000: non-numeric field 'x1'"
        assert taken == [True, False]
        _assert_no_child_left()

    def test_interrupt_kills_and_reaps_every_child(self, base, monkeypatch):
        p, _ = base
        parent, real = os.getpid(), storage._parse_range

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(storage, "_parse_range", interrupted)
        with pytest.raises(KeyboardInterrupt):
            read_text_embedding(p, threads=3)
        _assert_no_child_left()

    def test_threaded_read_fills_one_array(self, tmp_path, monkeypatch):
        # test_headerless_file_fills_one_array's file and bound, at the real
        # floor: 21 MB splits into two ranges
        X = RNG.standard_t(5, size=(10_000, 100))
        v = vocab(10_000)
        p = tmp_path / "emb.txt"
        write_text_embedding(X, v, p)
        taken = _spy_forked(monkeypatch)
        tracemalloc.start()
        try:
            Y, w = read_text_embedding(p, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taken == [True]
        assert Y.tobytes() == X.tobytes() and Y.shape == X.shape and w == v
        assert peak < 1.7 * X.nbytes
        _assert_no_child_left()


def _sequential_text(X, tokens):
    """The reference for the writer: one ``%.17g`` format per row, in one
    process."""
    row_format = "%s" + " %.17g" * X.shape[1] + "\n"
    return "".join(
        row_format % (token, *row) for token, row in zip(tokens, X.tolist())
    ).encode("utf-8")


def _spy_forks(monkeypatch):
    """A list that gains an entry for each child started."""
    started = []
    real = storage._fork

    def spy(work):
        started.append(work)
        return real(work)

    monkeypatch.setattr(storage, "_fork", spy)
    return started


def _writer_workers(monkeypatch, workers):
    """Make the writer use ``workers`` workers on any matrix of that many
    blocks."""
    monkeypatch.setattr(storage, "_MIN_FORK_BYTES", 1)
    monkeypatch.setattr(storage, "_usable_cores", lambda: workers)


# values whose text needs every digit, or an exponent, or a sign of zero
_EDGE_VALUES = [-0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2.5e-5, 123456789.12345679,
                0.0, 1.0, -7.774860418132129]


def _edge_embedding(n, d):
    values = np.array(_EDGE_VALUES * (n * d // len(_EDGE_VALUES) + 1))[:n * d]
    tokens = [("naïve", "日本", "\U0001d11e", "x\ty", "ok")[i % 5] + str(i) for i in range(n)]
    return values.reshape(n, d), Vocabulary(tuple(tokens))


@pytest.mark.usefixtures("deadline")
class TestForkedWriter:
    """``write_text_embedding`` with forked block writers: the bytes of the
    sequential text, the fallback when a child fails, and the reaping of
    every child."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 11, 12])
    @pytest.mark.parametrize("d", [1, 3])
    def test_bytes_match_the_sequential_text(self, tmp_path, monkeypatch, workers, n, d):
        # blocks of 4 rows: below a block, exactly one, one row past, and
        # 2.75 and 3 blocks
        monkeypatch.setattr(storage, "TEXT_BLOCK_ROWS", 4)
        _writer_workers(monkeypatch, workers)
        started = _spy_forks(monkeypatch)
        X, v = _edge_embedding(n, d)
        p = tmp_path / "emb.txt"
        write_text_embedding(X, v, p)
        assert p.read_bytes() == _sequential_text(X, v.tokens)
        assert len(started) == min(workers, -(-n // 4)) - 1
        _assert_no_child_left()

    def test_worker_count_follows_cores_and_size(self, tmp_path, monkeypatch):
        """At the real floor: about 1 MB of text and one block per worker."""
        monkeypatch.setattr(storage, "_usable_cores", lambda: 4)
        started = _spy_forks(monkeypatch)
        for (n, d), want in [((256, 100), 0), ((1024, 100), 0), ((1100, 100), 1),
                             ((4096, 100), 3), ((100_000, 1), 0), ((2, 50_000), 0),
                             ((600, 1000), 2)]:
            write_text_embedding(np.full((n, d), 0.25), vocab(n), tmp_path / "emb.txt")
            assert len(started) == want, (n, d)
            started.clear()
        monkeypatch.setattr(storage, "_CAN_FORK", False)
        write_text_embedding(np.full((4096, 100), 0.25), vocab(4096), tmp_path / "emb.txt")
        assert started == []

    @pytest.fixture
    def base(self, monkeypatch):
        """A 2304 x 40 matrix of nine blocks, written by three workers."""
        _writer_workers(monkeypatch, 3)
        X = RNG.normal(size=(2304, 40))
        return X, vocab(2304), _sequential_text(X, vocab(2304).tokens)

    @pytest.mark.parametrize("fault", ["raise", "exit", "exit-mid-frame", "exit-after-first-frame",
                                       "exit-after-last-frame"])
    def test_worker_fault_falls_back(self, tmp_path, base, monkeypatch, fault):
        X, v, want = base
        real = storage._send_blocks

        def faulty(X, tokens, row_format, starts, w):
            if fault == "raise":
                raise RuntimeError("injected")
            if fault == "exit-mid-frame":
                os.write(w, struct.pack("=Q", 200_000) + b"w1 0.5")
            if fault == "exit-after-first-frame":
                real(X, tokens, row_format, starts[:1], w)
            if fault == "exit-after-last-frame":
                real(X, tokens, row_format, starts, w)
            os._exit(1)

        monkeypatch.setattr(storage, "_send_blocks", faulty)
        started = _spy_forks(monkeypatch)
        p = tmp_path / "emb.txt"
        write_text_embedding(X, v, p)
        assert len(started) == 2
        assert p.read_bytes() == want
        _assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_reaps_every_child(self, base, monkeypatch):
        X, v, _ = base
        started = _spy_forks(monkeypatch)
        with pytest.raises(OSError) as info:
            write_text_embedding(X, v, "/dev/full")
        assert info.value.errno == errno.ENOSPC
        assert len(started) == 2
        _assert_no_child_left()

    @pytest.mark.parametrize("children", ["working", "hung"])
    def test_interrupt_kills_and_reaps_every_child(self, tmp_path, base, monkeypatch, children):
        X, v, _ = base
        parent, real = os.getpid(), storage._format_block

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(storage, "_format_block", interrupted)
        if children == "hung":  # only a kill ends them before the deadline
            monkeypatch.setattr(storage, "_send_blocks", lambda *args: time.sleep(600))
        started = _spy_forks(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            write_text_embedding(X, v, tmp_path / "emb.txt")
        assert len(started) == 2
        _assert_no_child_left()

    def test_traced_peak_is_one_block_of_text(self, tmp_path, monkeypatch):
        """This process holds one block's text and the floats of one row at
        a time, whatever the worker count; with a block's floats made by one
        ``tolist`` the peak reads 2.6 blocks."""
        X = RNG.standard_t(5, size=(2560, 100))
        v = vocab(2560)
        block = len(_sequential_text(X[:storage.TEXT_BLOCK_ROWS], v.tokens))
        for workers in (1, 2, 3):
            monkeypatch.setattr(storage, "_usable_cores", lambda: workers)
            tracemalloc.start()
            try:
                write_text_embedding(X, v, tmp_path / "emb.txt")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.2 * block, (workers, peak / block)
        _assert_no_child_left()


def hand_built_container(method_code, n, d, section, tokens=(), n_tokens=None):
    """A container with the given method section and tokens (none by
    default) and a valid CRC, laid out as the README describes; ``n_tokens``
    overrides the declared token count."""
    body = (
        storage.MAGIC
        + struct.pack("<HBBQQI", storage.FORMAT_VERSION, method_code, 0, 0, n, d)
        + section
        + struct.pack("<I", len(tokens) if n_tokens is None else n_tokens)
        + b"".join(struct.pack("<I", len(t.encode())) + t.encode() for t in tokens)
    )
    return body + struct.pack("<I", zlib.crc32(body))


class TestBinaryFormat:
    @pytest.mark.parametrize("method", ["uniform", "kmeans", "pca", "pca_v"])
    def test_round_trip_bit_identical(self, tmp_path, method):
        X = RNG.normal(size=(12, 9))
        if method == "uniform":
            C = compress_uniform(X, 3, rounding="stochastic", seed=9)
        elif method == "kmeans":
            C = compress_kmeans(X, 2, seed=4)
        elif method == "pca":
            C = compress_pca(X, 4)
        else:
            C = compress_pca(X, 4, keep_v=True)
        p = tmp_path / "c.eqc"
        write_compressed(C, vocab(12), p)
        C2, v2 = read_compressed(p)
        assert v2 == vocab(12)
        np.testing.assert_array_equal(decompress(C2), decompress(C))
        # re-serialization is the identity on bytes
        assert _serialize_compressed(C2, v2) == p.read_bytes()

    def test_flipped_byte_fails_checksum(self, tmp_path):
        X = RNG.normal(size=(6, 5))
        p = tmp_path / "c.eqc"
        write_compressed(compress_uniform(X, 2), vocab(6), p)
        raw = bytearray(p.read_bytes())
        raw[25] ^= 0x40
        p.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            read_compressed(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.eqc"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(BadMagicError):
            read_compressed(p)

    def test_truncation(self, tmp_path):
        X = RNG.normal(size=(6, 5))
        p = tmp_path / "c.eqc"
        write_compressed(compress_uniform(X, 2), vocab(6), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:3])  # shorter than magic + checksum
        with pytest.raises(TruncatedError):
            read_compressed(p)
        p.write_bytes(raw[:10])  # arbitrary cut surfaces as a checksum failure
        with pytest.raises(ChecksumError):
            read_compressed(p)
        # a well-formed prefix with a valid CRC over the shortened body still
        # fails as truncated
        import struct
        import zlib

        body = raw[: len(raw) - 4 - 20]
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(TruncatedError):
            read_compressed(p)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib

        X = RNG.normal(size=(4, 3))
        p = tmp_path / "c.eqc"
        write_compressed(compress_uniform(X, 1), None, p)
        raw = bytearray(p.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        body = bytes(raw[:-4])
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(VersionError):
            read_compressed(p)

    def test_compression_rate_follows_the_documented_layout(self):
        # the README layout for n=4, d=9: version through d_orig is
        # 2+1+1+8+8+4 = 24 bytes, then the method's section
        X = RNG.normal(size=(4, 9))
        original = 32 * 4 * 9
        cases = [
            (compress_uniform(X, 1), 24 + 1 + 8 + 4 * 2),  # bits, clip, 9 bits -> 2 bytes a row
            (compress_kmeans(X, 2), 24 + 1 + 8 * 4 + 4 * 3),  # bits, 4 centroids, 18 bits -> 3
            (compress_pca(X, 3), 24 + 4 + 8 * 4 * 3 + 1),  # k, reduced, flag
            (compress_pca(X, 3, keep_v=True), 24 + 4 + 8 * 4 * 3 + 1 + 8 * 9 * 3),  # + V
        ]
        assert [size for _, size in cases] == [41, 69, 125, 341]
        for C, size in cases:
            assert storage.compression_rate(C) == original / (8 * size)

    def test_code_block_size_example(self):
        # b=1, n=4, d=9: each row pads 9 bits to 2 bytes -> 8 code bytes
        X = RNG.normal(size=(4, 9))
        C = compress_uniform(X, 1)
        assert C.codes.nbytes == 4 * 2

    @pytest.mark.parametrize("method_code, n, section", [
        # pca, k = 0: no factor block, so no length check sees the declared n
        (2, 3, struct.pack("<IB", 0, 0)),
        (2, 2**40, struct.pack("<IB", 0, 0)),
        (2, 3, struct.pack("<I", 4) + bytes(8 * 3 * 4) + b"\0"),  # pca, k = 4 > d = 3
        # kmeans, bits = 0: one centroid and no code bytes, whatever n
        (1, 3, struct.pack("<Bd", 0, 0.0)),
        (1, 2**40, struct.pack("<Bd", 0, 0.0)),
        (1, 3, struct.pack("<B", 17) + bytes(8 << 17) + bytes(3 * 7)),  # kmeans, bits = 17
    ], ids=["pca-k0", "pca-k0-huge-n", "pca-k-above-d", "kmeans-bits0",
            "kmeans-bits0-huge-n", "kmeans-bits17"])
    def test_fields_the_writer_cannot_produce_rejected(self, tmp_path, method_code, n, section):
        p = tmp_path / "c.eqc"
        p.write_bytes(hand_built_container(method_code, n, 3, section))
        with pytest.raises((ValueError, StorageError), match="must be in"):
            read_compressed(p)

    # uniform, 1 bit, clip 1.0, n = 3 rows of d = 2 codes (one byte each)
    UNIFORM_3X2 = struct.pack("<Bd", 1, 1.0) + bytes(3)

    @pytest.mark.parametrize("tokens", [("a", "b"), ("a", "b", "c", "d")])
    def test_token_count_must_match_rows(self, tmp_path, tokens):
        p = tmp_path / "c.eqc"
        p.write_bytes(hand_built_container(0, 3, 2, self.UNIFORM_3X2, tokens))
        with pytest.raises(FormatError) as exc:
            read_compressed(p)
        assert str(exc.value) == (
            f"{p}: vocabulary has {len(tokens)} tokens but the matrix has 3 rows"
        )

    def test_token_count_checked_before_the_tokens(self, tmp_path):
        # 2**32 - 1 declared tokens and none present: the count is the error
        p = tmp_path / "c.eqc"
        p.write_bytes(hand_built_container(0, 3, 2, self.UNIFORM_3X2, n_tokens=2**32 - 1))
        with pytest.raises(FormatError, match="4294967295 tokens but the matrix has 3 rows"):
            read_compressed(p)

    def test_matching_token_count_reads(self, tmp_path):
        p = tmp_path / "c.eqc"
        p.write_bytes(hand_built_container(0, 3, 2, self.UNIFORM_3X2, ("a", "b", "c")))
        C, v = read_compressed(p)
        assert v == Vocabulary(("a", "b", "c")) and C.n == 3

    # "alpha", then "é" (two UTF-8 bytes), then "gamma": a cut in the second
    # token's length field, right after it, and inside the third token
    @pytest.mark.parametrize("into, need, left", [(9 + 2, 4, 2), (9 + 4, 2, 0),
                                                  (9 + 6 + 4 + 3, 5, 3)])
    def test_truncated_vocabulary_names_the_missing_bytes(self, tmp_path, into, need, left):
        tokens = ("alpha", "é", "gamma")
        raw = hand_built_container(0, 3, 2, self.UNIFORM_3X2, tokens)
        p = tmp_path / "c.eqc"
        p.write_bytes(raw)
        assert read_compressed(p)[1] == Vocabulary(tokens)
        body = raw[:-4]
        start = len(body) - sum(4 + len(t.encode()) for t in tokens)
        cut = body[: start + into]
        p.write_bytes(cut + struct.pack("<I", zlib.crc32(cut)))
        with pytest.raises(TruncatedError) as exc:
            read_compressed(p)
        assert str(exc.value) == (
            f"{p}: needed {need} bytes at offset {start + into - left}, only {left} remain"
        )

    def test_invalid_utf8_token_rejected(self, tmp_path):
        raw = hand_built_container(0, 3, 2, self.UNIFORM_3X2, ("a", "b", "c"))
        p = tmp_path / "c.eqc"
        body = raw[:-5] + b"\xff"  # the last token's one byte
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(UnicodeDecodeError):
            read_compressed(p)

    def test_vocabulary_optional(self, tmp_path):
        X = RNG.normal(size=(3, 3))
        p = tmp_path / "c.eqc"
        write_compressed(compress_pca(X, 2), None, p)
        _, v = read_compressed(p)
        assert v is None


@pytest.mark.parametrize("size", [0, 1, 3 * (1 << 20) + 5])
def test_file_digest_reads_in_chunks(tmp_path, size):
    # an empty file, one byte, and three 1 MB chunks and a short one: the
    # whole file's sha256, with at most two chunks allocated at a time
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    p = tmp_path / "blob"
    p.write_bytes(data)
    tracemalloc.start()
    try:
        got = file_digest(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == hashlib.sha256(data).hexdigest()
    assert peak <= (2 << 20) + (64 << 10), peak


class TestReports:
    def test_schema_round_trip_with_inf(self, tmp_path):
        body = {"delta_max": math.inf, "values": [1.0, 2.5], "note": "x"}
        p = tmp_path / "r.json"
        write_report(body, p)
        doc = read_report(p)
        assert doc["body"]["delta_max"] == "inf"
        assert doc["tool_version"]
        # stable bytes across rewrites
        first = p.read_bytes()
        write_report(body, p)
        assert p.read_bytes() == first

    def test_digest_tracks_input_content(self, tmp_path):
        data = tmp_path / "in.txt"
        data.write_text("a 1 2\n")
        p = tmp_path / "r.json"
        write_report({"x": 1}, p, inputs={"base": data})
        d1 = read_report(p)["input_digests"]["base"]
        assert d1 == file_digest(data)
        data.write_text("a 1 3\n")
        write_report({"x": 1}, p, inputs={"base": data})
        assert read_report(p)["input_digests"]["base"] != d1

    def test_nan_refused(self, tmp_path):
        with pytest.raises(ValueError, match="NaN"):
            write_report({"x": math.nan}, tmp_path / "r.json")


class TestPerformanceCsv:
    def test_read_good_file(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text(
            "candidate_id,task,performance,seed\n"
            "a,squad,0.81,0\n"
            "a,squad,0.83,1\n"
            "b,squad,0.76,0\n"
        )
        table = read_performance_csv(p)
        assert table.mean_performance("squad") == {"a": pytest.approx(0.82), "b": 0.76}

    def test_bad_header(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("id,task,perf,seed\na,t,0.5,0\n")
        with pytest.raises(FormatError, match="header"):
            read_performance_csv(p)

    def test_bad_field_names_line(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("candidate_id,task,performance,seed\na,t,oops,0\n")
        with pytest.raises(FormatError, match="perf.csv:2"):
            read_performance_csv(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("candidate_id,task,performance,seed\na,t,0.5,0\na,t,0.6,0\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_performance_csv(p)

    def test_field_over_the_csv_limit_names_line(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("candidate_id,task,performance,seed\na,t,0.5,0\nb," + "x" * 200_000
                     + ",0.5,0\n")
        with pytest.raises(FormatError, match=r"perf\.csv:3: field larger than field limit"):
            read_performance_csv(p)

    def test_invalid_utf8_names_line_and_byte(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_bytes(b"candidate_id,task,performance,seed\na,t,0.5,0\nb,t\xe9,0.5,0\n")
        with pytest.raises(FormatError, match=r"perf\.csv:3: not valid UTF-8 at byte 0xe9"):
            read_performance_csv(p)

    def test_line_numbers_count_physical_lines(self, tmp_path):
        # a quoted field may span lines; the error names the line the record ends on
        p = tmp_path / "perf.csv"
        p.write_text('candidate_id,task,performance,seed\n"a\nb",t,0.5,0\nc,t,oops,0\n')
        with pytest.raises(FormatError, match=r"perf\.csv:4: bad numeric field"):
            read_performance_csv(p)

    def test_write_table_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        write_table_csv(
            [{"a": 1, "b": math.inf}, {"a": 2, "b": 0.5}], ["a", "b"], p
        )
        assert p.read_text().splitlines() == ["a,b", "1,inf", "2,0.5"]


def _fuzz_container(method, n, d, bits, seed, with_vocab):
    """Serialized container of a small random matrix, and the offset of its
    declared token count."""
    X = np.random.default_rng(seed).normal(size=(n, d))
    if method == "uniform":
        C = compress_uniform(X, bits, rounding="stochastic", seed=seed)
    elif method == "kmeans":
        C = compress_kmeans(X, bits, seed=seed)
    else:
        C = compress_pca(X, min(bits, n, d), keep_v=method == "pca_v")
    raw = _serialize_compressed(C, vocab(n) if with_vocab else None)
    return raw, len(storage.MAGIC) + len(storage._payload(C))


_FUZZ_CONTAINERS = st.builds(
    _fuzz_container,
    method=st.sampled_from(["uniform", "kmeans", "pca", "pca_v"]),
    n=st.integers(1, 6),
    d=st.integers(1, 6),
    bits=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    with_vocab=st.booleans(),
)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _read_mutated(tmp_path, raw: bytes) -> None:
    """Read ``raw`` as a container: it may parse, or fail with StorageError
    or ValueError; any other exception escapes.  The reader's peak
    allocation must stay within a small multiple of the file size, so no
    buffer is sized from a declared field before that field is checked."""
    p = tmp_path / "fuzz.eqc"
    p.write_bytes(raw)
    tracemalloc.start()
    try:
        read_compressed(p)
    except (StorageError, ValueError):
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= 64 * len(raw) + (64 << 10), (len(raw), peak)


class TestReadCompressedFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(container=_FUZZ_CONTAINERS)
    def test_truncation_at_every_length(self, tmp_path, container):
        raw, _ = container
        body = raw[:-4]
        for cut in range(len(raw)):
            _read_mutated(tmp_path, raw[:cut])
            if cut <= len(body):
                _read_mutated(tmp_path, _with_crc(body[:cut]))

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(container=_FUZZ_CONTAINERS, data=st.data())
    def test_byte_overwrites_with_valid_crc(self, tmp_path, container, data):
        raw, _ = container
        body = bytearray(raw[:-4])
        for _ in range(data.draw(st.integers(1, 3))):
            body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 255))
        _read_mutated(tmp_path, _with_crc(bytes(body)))

    # (offset, struct format) of each declared size; bits and k share the
    # first byte after d_orig, k being the pca method's 4-byte field
    _SIZE_FIELDS = {"n": (16, "<Q"), "d_orig": (24, "<I"), "bits": (28, "<B"),
                    "k": (28, "<I")}

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(container=_FUZZ_CONTAINERS,
           field=st.sampled_from(["n", "d_orig", "bits", "k", "tokens"]),
           data=st.data())
    def test_huge_declared_sizes(self, tmp_path, container, field, data):
        raw, tokens_at = container
        offset, fmt = (tokens_at, "<I") if field == "tokens" else self._SIZE_FIELDS[field]
        width = struct.calcsize(fmt)
        top = 8 * width
        value = data.draw(st.one_of(
            st.integers(0, 2**top - 1),
            st.sampled_from([2**top - 1, 2 ** (top - 1), 2 ** (top // 2)]),
        ))
        body = bytearray(raw[:-4])
        body[offset : offset + width] = struct.pack(fmt, value)
        _read_mutated(tmp_path, _with_crc(bytes(body)))


_PERF_HEADER = b"candidate_id,task,performance,seed\n"

_FUZZ_PERF_CSVS = st.builds(
    lambda rows: _PERF_HEADER + b"".join(
        f"{c},{t},{p!r},{s}\n".encode() for c, t, p, s in rows
    ),
    st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["t", "u"]),
                       st.floats(0, 1), st.integers(0, 3)), max_size=6),
)


def _read_csv_mutated(tmp_path, raw: bytes) -> None:
    """Read ``raw`` as a performance CSV: it may parse, or fail with
    StorageError or ValueError; any other exception escapes, and the peak
    allocation stays within a small multiple of the file size."""
    p = tmp_path / "fuzz.csv"
    p.write_bytes(raw)
    tracemalloc.start()
    try:
        read_performance_csv(p)
    except (StorageError, ValueError):
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= 64 * len(raw) + (64 << 10), (len(raw), peak)


class TestReadPerformanceCsvFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_FUZZ_PERF_CSVS)
    def test_truncation_at_every_length(self, tmp_path, raw):
        for cut in range(len(raw)):
            _read_csv_mutated(tmp_path, raw[:cut])

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_FUZZ_PERF_CSVS, data=st.data())
    def test_byte_overwrites(self, tmp_path, raw, data):
        body = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 255))
        _read_csv_mutated(tmp_path, bytes(body))

    # NUL, lone continuation and lead bytes, an overlong form, an encoded
    # surrogate, a truncated sequence, a quote and line breaks
    _INSERTS = [b"\x00", b"\x80", b"\xff", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82",
                b'"', b"\r", b"\n", b",,"]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_FUZZ_PERF_CSVS, data=st.data())
    def test_inserted_bytes(self, tmp_path, raw, data):
        body = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(body)))
            body[at:at] = data.draw(st.sampled_from(self._INSERTS))
        _read_csv_mutated(tmp_path, bytes(body))

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_FUZZ_PERF_CSVS, data=st.data())
    def test_huge_fields(self, tmp_path, raw, data):
        # around the csv module's 131072-character field limit, quoted or
        # not, with or without a line break after it
        size = data.draw(st.sampled_from([131_071, 131_072, 131_073, 400_000]))
        field = data.draw(st.sampled_from([b"x", b"9", b"\xc3\xa9"])) * size
        if data.draw(st.booleans()):
            field = b'"' + field + b'"'
        at = data.draw(st.integers(0, len(raw)))
        tail = b"\n" if data.draw(st.booleans()) else b""
        _read_csv_mutated(tmp_path, raw[:at] + field + tail + raw[at:])
