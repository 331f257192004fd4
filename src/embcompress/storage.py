"""File formats: text embeddings, the binary compressed-embedding container,
JSON reports, and CSV tables.

Readers reject malformed input instead of coercing it, and every failure
names the offending line or byte position.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import re
import signal
import stat
import struct
import sys
import warnings
import zlib
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import bitpack
from .compress import (
    METHOD_KMEANS,
    METHOD_PCA,
    METHOD_UNIFORM,
    ROUNDINGS,
    CompressedEmbedding,
    QuantizationGrid,
)
from .linalg import _usable_cores
from .selection import PerformanceTable


class StorageError(Exception):
    """Base for file-format failures."""


class FormatError(StorageError):
    """Malformed text or CSV content."""


class BadMagicError(StorageError):
    """The file does not start with the expected magic bytes."""


class VersionError(StorageError):
    """The container version is not supported."""


class ChecksumError(StorageError):
    """The trailing CRC32 does not match the file contents."""


class TruncatedError(StorageError):
    """The file ended before the declared payload was complete."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered row labels; token index equals matrix row."""

    tokens: tuple

    def __post_init__(self):
        seen = set()
        for i, tok in enumerate(self.tokens):
            if not isinstance(tok, str) or not tok:
                raise ValueError(f"token {i} must be a non-empty string")
            if tok in seen:
                raise ValueError(f"duplicate token {tok!r} at index {i}")
            seen.add(tok)

    def __len__(self) -> int:
        return len(self.tokens)


def _parse_header(line: str):
    parts = line.split()
    if len(parts) != 2:
        return None
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    if n <= 0 or d <= 0:
        return None
    return n, d


# Rows parsed (and written) per block: bounds the text held at once, and
# limits a per-line reparse to one block.  Parsing a block of 17-digit values
# holds about three times its text; at 256 rows of width 100 that is 0.2x a
# 10k x 100 matrix (0.8x at 1024 rows), and reading and writing are as fast.
TEXT_BLOCK_ROWS = 256

# Fewest bytes in a range that read_text_embedding(threads=) parses apart
# from the others, and about the fewest that each write_text_embedding
# worker formats.  A fork, a pipe and the merge cost a few milliseconds,
# and parsing runs at about 40 MB/s (formatting at about 45), so below about
# 1 MB a range gains nothing.
_MIN_FORK_BYTES = 1 << 20

# os.fork exists on every POSIX system, but only Linux is tested with it
_CAN_FORK = hasattr(os, "fork") and sys.platform.startswith("linux")


class _NoSplit(Exception):
    """Work cannot be split off to a child: a byte range cannot be parsed
    apart from the rest of the file, or a child failed or never started."""


def read_text_embedding(path, fmt: str = "auto", threads: int = 1):
    """Read a text embedding: one token plus d space-separated reals per
    line, with an optional leading "n d" header.

    ``fmt`` is "auto" (header detected when the first line is exactly two
    positive integers), "glove" (never a header), or "fasttext" (header
    required).  Returns ``(matrix, Vocabulary)``.

    Rows are parsed in blocks of :data:`TEXT_BLOCK_ROWS`, so memory stays
    near the size of the matrix; a block that fails a check is reparsed line
    by line, so every :class:`FormatError` names its line.  The blocks fill
    one array, whose row count is estimated from the file size and the bytes
    read so far, grown in place by at least a quarter when rows outrun it,
    and trimmed in place at the end.  An "n d" header is only checked
    against the rows read, so it cannot force an allocation.

    With ``threads`` above 1, on Linux, a regular file is cut at line starts
    into up to ``threads`` byte ranges of at least 1 MB each.  This process
    parses the first range, which holds any header, and a child made with
    ``os.fork`` parses each other one and writes its rows into the output
    through a pipe (see :func:`_read_forked`).  The children run no BLAS
    and leave through ``os._exit``, and every one is reaped before this
    function returns or raises.  A file with a blank line or a line break
    other than ``\\n``, or a range that fails in any way, is read again by
    the sequential reader, so the matrix, the vocabulary and every error are
    those of ``threads=1``.
    """
    if fmt not in ("auto", "glove", "fasttext"):
        raise ValueError(f"unknown format {fmt!r}")
    path = Path(path)
    with path.open("rb") as fh:
        st = os.fstat(fh.fileno())
        starts = _range_starts(fh, st, threads)
        parsed = _read_forked(path, fh, fmt, st, starts) if len(starts) > 1 else None
        if parsed is None:
            fh.seek(0)
            parsed = _parse_range(path, fh, _content_lines(path, fh), fmt, 0, st.st_size)
    out, tokens, _, dim, declared = parsed
    if declared is not None and (len(tokens), dim) != declared:
        held = f"{len(tokens)}x{dim}" if tokens else "0 rows"
        raise FormatError(
            f"{path}: header declares {declared[0]}x{declared[1]} but the file holds {held}"
        )
    if out.shape[0] != len(tokens):
        out.resize((len(tokens), dim), refcheck=False)
    return out, Vocabulary(tuple(tokens))


def _parse_range(path, fh, lines, fmt, start, span):
    """Parse the numbered ``lines`` that ``fh`` yields from byte ``start``
    on, ``span`` bytes in all, into ``(out, tokens, seen, dim, declared)``:
    the rows fill the first ``len(tokens)`` rows of ``out`` (None when
    there are none), ``seen`` is the set of ``tokens`` and ``declared`` the
    "n d" header's pair, if any.  ``fmt`` is as for
    :func:`read_text_embedding`."""
    tokens = []
    seen = set()
    dim = None
    declared = None
    out = None
    first = next(lines, None)
    if first is None:
        raise FormatError(f"{path}: empty embedding file")
    if fmt in ("auto", "fasttext"):
        declared = _parse_header(first[1])
        if declared is None and fmt == "fasttext":
            raise FormatError(f"{path}:1: expected a 'n d' header line")
    if declared is None:
        lines = itertools.chain([first], lines)
    for block in iter(lambda: list(itertools.islice(lines, TEXT_BLOCK_ROWS)), []):
        names, values = _parse_block(path, block, dim, seen)
        dim = values.shape[1]
        i0, i1 = len(tokens), len(tokens) + len(names)
        tokens.extend(names)
        if out is None or i1 > out.shape[0]:
            # the rows read so far, scaled to the whole range
            rows = max(i1, math.ceil(i1 * span / max(fh.tell() - start, 1)))
            if out is None:
                out = np.empty((rows, dim))
            else:
                out.resize((max(rows, out.shape[0] * 5 // 4), dim), refcheck=False)
        out[i0:i1] = values
    return out, tokens, seen, dim, declared


def _range_starts(fh, st, threads):
    """The start offsets of the byte ranges that :func:`read_text_embedding`
    parses apart: up to ``threads`` ranges of the file ``fh`` (``st`` its
    ``os.fstat``), each starting just after a ``\\n`` and holding at least
    :data:`_MIN_FORK_BYTES`; ``[0]`` alone without ``os.fork`` or for
    anything but a regular file."""
    size = st.st_size
    parts = 1
    if _CAN_FORK and stat.S_ISREG(st.st_mode):
        parts = min(int(threads), size // _MIN_FORK_BYTES)
    starts = [0]
    for i in range(1, parts):
        fh.seek(max(size * i // parts, starts[-1] + _MIN_FORK_BYTES) - 1)
        fh.readline()  # to just past the next \n
        if fh.tell() + _MIN_FORK_BYTES > size:
            break
        starts.append(fh.tell())
    return starts


def _range_lines(fh, stop):
    """The raw lines of ``fh`` from its position up to byte ``stop``, a line
    start."""
    pos = fh.tell()
    while pos < stop:
        raw = fh.readline()
        if not raw:  # the file shrank
            raise _NoSplit
        pos += len(raw)
        yield raw


def _read_forked(path, fh, fmt, st, starts):
    """:func:`_parse_range`'s result for the whole file, from the byte
    ranges that begin at ``starts``: range 0 parsed here, each other one in
    a child that :func:`_fork_range` starts.  Each child's row count, width
    and tokens are read first, then its values straight into their rows of
    the output, so X is never held twice.  The ranges must agree: one width,
    no token in two ranges, and a header only in range 0 (a later range is
    parsed as "glove", where a header line fails as a row of another width).
    None when any range fails, a child exits other than cleanly, or the
    ranges disagree; every child is reaped before this returns, and killed
    first unless all went well, also on ``KeyboardInterrupt``."""
    stops = starts[1:] + [st.st_size]
    children = []
    done = False
    try:
        for start, stop in zip(starts[1:], stops[1:]):
            children.append(_fork_range(path, st, start, stop))
        fh.seek(0)
        lines = _content_lines(path, _range_lines(fh, stops[0]), strict=True)
        out, tokens, seen, dim, declared = _parse_range(path, fh, lines, fmt, 0, stops[0])
        counts = [len(tokens)]
        for _, pipe in children:
            rows, width, size = struct.unpack("=3Q", _read_exactly(pipe, 24))
            names = _read_exactly(pipe, size).decode("utf-8").split("\n")
            if len(names) != rows or dim not in (None, width) or not seen.isdisjoint(names):
                return None
            seen.update(names)
            tokens.extend(names)
            counts.append(rows)
            dim = width
        if out is None:
            out = np.empty((len(tokens), dim))
        else:
            out.resize((len(tokens), dim), refcheck=False)
        i0 = counts[0]
        for (_, pipe), rows in zip(children, counts[1:]):
            view = memoryview(out[i0:i0 + rows]).cast("B")
            if pipe.readinto(view) != len(view):
                return None
            i0 += rows
        done = True
    except (FormatError, _NoSplit, OSError, ValueError):
        return None  # the sequential read raises any error again, with its line
    finally:
        statuses = _reap(children, kill=not done)
    return (out, tokens, seen, dim, declared) if not any(statuses) else None


def _read_exactly(pipe, size):
    data = pipe.read(size)
    if len(data) != size:  # the child failed and wrote nothing, or died
        raise _NoSplit
    return data


def _fork_range(path, st, start, stop):
    """Fork a child that parses bytes ``start:stop`` of the file at ``path``
    (``st`` the ``os.fstat`` of the parent's handle) and writes to a pipe
    its row count, width and token bytes as three native u64, its tokens
    joined by ``\\n`` in UTF-8, and its values' float64 bytes; it writes
    nothing and exits 1 on any failure.  Returns ``(pid, read end)``."""
    return _fork(lambda w: _write_range(path, st, start, stop, w))


def _fork(work):
    """Fork a child that runs ``work(w)``, ``w`` the write end of a new pipe,
    and leaves through ``os._exit``: 0 when ``work`` returns, 1 when it
    raises.  Returns ``(pid, read end as a binary file)``; raises
    :class:`_NoSplit` when the process cannot be made."""
    r, w = os.pipe()
    pid = None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns about a fork while other threads (OpenBLAS's
            # pool) run, as the child may inherit a lock held by one of them.
            # A child runs no BLAS, takes no lock that a thread may hold, and
            # leaves through os._exit, which flushes none of the parent's files.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        raise _NoSplit from None
    finally:
        if pid is None:
            os.close(r)
            os.close(w)
    if pid == 0:
        code = 1
        try:
            os.close(r)
            work(w)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _write_range(path, st, start, stop, w):
    """A child's work for :func:`_fork_range`.  It opens the file afresh,
    as a forked handle shares its offset with the parent's."""
    with open(path, "rb") as fh:
        now = os.fstat(fh.fileno())
        if (now.st_dev, now.st_ino, now.st_size) != (st.st_dev, st.st_ino, st.st_size):
            raise _NoSplit
        fh.seek(start)
        lines = _content_lines(path, _range_lines(fh, stop), strict=True)
        out, tokens, _, dim, _ = _parse_range(path, fh, lines, "glove", start, stop - start)
    names = "\n".join(tokens).encode("utf-8")
    with open(w, "wb") as pipe:
        pipe.write(struct.pack("=3Q", len(tokens), dim, len(names)))
        pipe.write(names)
        pipe.write(memoryview(out[:len(tokens)]).cast("B"))


def _reap(children, kill):
    """Close each child's pipe and wait for the child, killing it first when
    ``kill``; returns the wait statuses."""
    statuses = []
    for pid, pipe in children:
        pipe.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
        statuses.append(os.waitpid(pid, 0)[1])
    return statuses


def _content_lines(path, raw_lines, strict=False):
    """``(lineno, line)`` for the binary lines ``raw_lines`` of a file,
    decoded as UTF-8 and split as ``str.splitlines`` splits, without
    trailing blank lines.  Of a run of blank lines followed by content only
    the first is yielded; it fails to parse as a row.  With ``strict``, a
    blank line or a line break other than ``\\n`` raises :class:`_NoSplit`,
    as the line numbers and the blank-line rule then depend on the lines
    before and after a byte range."""
    blank = None
    lineno = 0
    for raw in raw_lines:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad byte's line: the lines its valid prefix starts, counting
            # the one it is on
            bad = lineno + len((raw[: exc.start].decode("utf-8") + "x").splitlines())
            raise FormatError(
                f"{path}:{bad}: not valid UTF-8 at byte {raw[exc.start]:#04x} ({exc.reason})"
            ) from None
        lines = text.splitlines()
        if strict and (len(lines) != 1 or len(lines[0]) + (text[-1] == "\n") != len(text)
                       or not lines[0].strip()):
            raise _NoSplit
        for line in lines:
            lineno += 1
            if not line.strip():
                if blank is None:
                    blank = (lineno, line)
                continue
            if blank is not None:
                yield blank
                blank = None
            yield lineno, line


def _parse_block(path, block, dim, seen):
    """Parse the numbered lines of one block into ``(tokens, matrix)``;
    ``seen`` holds the tokens of earlier blocks and gains this block's.

    numpy parses the values in C.  When that fails, or the result breaks a
    row rule, the block is reparsed by :func:`_parse_lines`, which either
    raises the error of the first bad line or accepts what numpy would not
    (runs of spaces, ``1_000``).
    """
    names = [line.partition(" ")[0] for _, line in block]
    values = None
    # numpy skips empty lines and strips \x1f around a field; float() does
    # neither, so such blocks take the per-line path.  The value fields are
    # handed over one line at a time, not as a second list of the block's text.
    if all(line.partition(" ")[2] and "\x1f" not in line for _, line in block):
        try:
            values = np.loadtxt(
                (line.partition(" ")[2] for _, line in block),
                delimiter=" ", comments=None, ndmin=2,
            )
        except ValueError:
            pass
    if (
        values is None
        or values.shape[0] != len(block)
        or (dim is not None and values.shape[1] != dim)
        or not np.isfinite(values).all()
        or "" in names
        or len(set(names)) != len(names)
        or not seen.isdisjoint(names)
    ):
        names, rows = _parse_lines(path, block, dim, seen)
        values = np.asarray(rows, dtype=np.float64)
    else:
        seen.update(names)
    return names, values


def _parse_lines(path, numbered_lines, dim, seen):
    """The per-line parser: ``float()`` on each space-separated field.

    Raises :class:`FormatError` naming the first bad line; otherwise returns
    ``(tokens, rows)``.  ``dim`` is the row width of earlier lines, if any;
    ``seen`` holds their tokens and gains those of these lines.
    """
    tokens = []
    rows = []
    for lineno, line in numbered_lines:
        parts = [p for p in line.split(" ") if p != ""]
        if len(parts) < 2:
            raise FormatError(f"{path}:{lineno}: expected a token and at least one value")
        token = parts[0]
        if token in seen:
            raise FormatError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
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
            raise FormatError(
                f"{path}:{lineno}: row has {len(values)} values, expected {dim}"
            )
        tokens.append(token)
        rows.append(values)
    return tokens, rows


def write_text_embedding(X, vocab: Vocabulary, path) -> None:
    """Write the headerless text form, one ``token v1 ... vd`` line per row;
    values keep 17 significant digits so reading the file back reproduces
    them exactly.

    Text that :func:`read_text_embedding` could not read back raises
    ``ValueError`` before the file is opened, naming the first token index
    or row at fault: a matrix without rows or columns, a token that holds a
    space, a character that ``str.splitlines`` breaks on or a lone surrogate
    (which UTF-8 cannot encode), a value that is not finite, and a row 0
    whose line would read as an "n d" header (one column of positive
    integers, or two under a token of whitespace other than spaces).

    Rows are formatted in blocks of :data:`TEXT_BLOCK_ROWS` with one
    ``%.17g`` format per row.  On Linux a matrix of at least two blocks and
    about 2 MB of text is formatted on up to ``linalg._usable_cores()``
    workers: this process and children made with ``os.fork``, which send
    their blocks through pipes.  This process writes the blocks in order, so
    the bytes are those of one worker (see :func:`_write_blocks`).  The
    children run no BLAS, leave through ``os._exit``, and are reaped before
    this function returns or raises.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(vocab):
        raise ValueError(
            f"matrix shape {X.shape} does not match the {len(vocab)}-token vocabulary"
        )
    _check_text_form(X, vocab.tokens)
    with Path(path).open("wb") as fh:
        _write_blocks(fh, X, vocab.tokens)


def _check_text_form(X, tokens):
    """Raise ValueError unless the text of X and ``tokens`` reads back as
    :func:`write_text_embedding` documents."""
    if not X.size:
        raise ValueError(f"the text form needs a row and a column, not shape {X.shape}")
    if _unwritable("".join(tokens)):
        i = next(i for i, tok in enumerate(tokens) if _unwritable(tok))
        raise ValueError(
            f"token {i} {tokens[i]!r} holds a space, a line break or a lone surrogate,"
            " which the text form cannot hold"
        )
    if not (np.isfinite(X.min()) and np.isfinite(X.max())):  # no n x d temporary
        i = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise ValueError(f"row {i} holds a non-finite value, which the text form cannot hold")
    if _parse_header(first := ("%s" + " %.17g" * X.shape[1]) % (tokens[0], *X[0].tolist())):
        raise ValueError(
            f"row 0 would be written as {first!r}, which the reader takes for an 'n d' header"
        )


def _unwritable(text):
    """Whether ``text`` holds what a token of the text form cannot."""
    return " " in text or text.splitlines() != [text] or re.search("[\ud800-\udfff]", text)


def _format_block(X, tokens, row_format, start):
    """The UTF-8 text of the :data:`TEXT_BLOCK_ROWS` rows from ``start``; a
    row's Python floats are made as it is formatted, not the block's."""
    stop = start + TEXT_BLOCK_ROWS
    return "".join(
        row_format % (token, *row.tolist())
        for token, row in zip(tokens[start:stop], X[start:stop])
    ).encode("utf-8")


def _write_blocks(fh, X, tokens):
    """Write X's text to the binary file ``fh`` block by block, in order,
    on w workers, at most the usable cores, the blocks, and the text's
    estimated size over :data:`_MIN_FORK_BYTES`: block j is formatted here
    when j mod w is 0, else by child j mod w (:func:`_send_blocks`).  When
    a child fails to send a whole frame, every child is killed and reaped
    and the blocks from the first one missing are formatted here.  An error
    here, ``KeyboardInterrupt`` included, kills and reaps every child before
    it propagates."""
    blocks = range(0, X.shape[0], TEXT_BLOCK_ROWS)
    workers = 1
    if _CAN_FORK:
        # a %.17g value and the space before it take about 20 bytes
        workers = max(1, min(_usable_cores(), len(blocks), X.size * 20 // _MIN_FORK_BYTES))
    row_format = "%s" + " %.17g" * X.shape[1] + "\n"
    children = []
    done = False
    j = 0
    try:
        for k in range(1, workers):
            children.append(_fork(lambda w, k=k: _send_blocks(
                X, tokens, row_format, blocks[k::workers], w)))
        for j, start in enumerate(blocks):
            if j % workers:
                pipe = children[j % workers - 1][1]
                (size,) = struct.unpack("=Q", _read_exactly(pipe, 8))
                fh.write(_read_exactly(pipe, size))
            else:
                fh.write(_format_block(X, tokens, row_format, start))
        done = True
    except _NoSplit:
        pass
    finally:
        _reap(children, kill=not done)
    if not done:
        for start in blocks[j:]:
            fh.write(_format_block(X, tokens, row_format, start))


def _send_blocks(X, tokens, row_format, starts, w):
    """A writer child's work: for each block that starts at one of
    ``starts``, its text's byte count as a native u64 and then the text,
    down the pipe ``w``, one block held at a time."""
    import fcntl  # POSIX only, as is os.fork

    with contextlib.suppress(OSError):  # a lower limit keeps the 64 KB default
        # 1 MB, the most an unprivileged process may ask for by default, holds
        # about a block of text, so this child formats its next block while
        # the parent is busy: a 10k x 100 write is 13% faster
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
    with open(w, "wb") as pipe:
        for start in starts:
            data = _format_block(X, tokens, row_format, start)
            pipe.write(struct.pack("=Q", len(data)))
            pipe.write(data)


# ---------------------------------------------------------------------------
# binary compressed-embedding container

MAGIC = b"EQC1"
FORMAT_VERSION = 1
_METHOD_CODES = {METHOD_UNIFORM: 0, METHOD_KMEANS: 1, METHOD_PCA: 2}
_METHOD_NAMES = {v: k for k, v in _METHOD_CODES.items()}


def _payload(C: CompressedEmbedding) -> bytes:
    """The embedding data section of the container: the version field
    through the codes, codebook or factor block."""
    out = bytearray(struct.pack(
        "<HBBQQI",
        FORMAT_VERSION,
        _METHOD_CODES[C.method],
        ROUNDINGS.index(C.rounding),
        C.seed,
        C.n,
        C.d_orig,
    ))
    if C.method == METHOD_UNIFORM:
        out += struct.pack("<Bd", C.bits, C.grid.clip)
        out += C.codes.tobytes()
    elif C.method == METHOD_KMEANS:
        out += struct.pack("<B", C.bits)
        out += C.codebook.astype("<f8").tobytes()
        out += C.codes.tobytes()
    else:
        out += struct.pack("<I", C.k)
        out += C.reduced.astype("<f8").tobytes()
        out += struct.pack("<B", 1 if C.basis_v is not None else 0)
        if C.basis_v is not None:
            out += C.basis_v.astype("<f8").tobytes()
    return bytes(out)


def compression_rate(C: CompressedEmbedding) -> float:
    """Original 32-bit-per-entry footprint over the size of the container's
    embedding data section; the magic, the vocabulary and the trailing
    checksum are excluded."""
    return 32.0 * C.n * C.d_orig / (8 * len(_payload(C)))


def _serialize_compressed(C: CompressedEmbedding, vocab: Vocabulary | None) -> bytes:
    out = bytearray(MAGIC)
    out += _payload(C)
    tokens = vocab.tokens if vocab is not None else ()
    out += struct.pack("<I", len(tokens))
    for tok in tokens:
        raw = tok.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def write_compressed(C: CompressedEmbedding, vocab: Vocabulary | None, path) -> None:
    """Write the binary container (little-endian, CRC32-terminated)."""
    if vocab is not None and len(vocab) != C.n:
        raise ValueError(f"vocabulary has {len(vocab)} tokens but the matrix has {C.n} rows")
    Path(path).write_bytes(_serialize_compressed(C, vocab))


_TOKEN_SIZE = struct.Struct("<I")


class _Cursor:
    def __init__(self, buf, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def need(self, count: int) -> None:
        """Raise unless ``count`` bytes remain past the position."""
        if self.pos + count > len(self.buf):
            raise TruncatedError(
                f"{self.path}: needed {count} bytes at offset {self.pos}, "
                f"only {len(self.buf) - self.pos} remain"
            )

    def take(self, count: int):
        self.need(count)
        chunk = self.buf[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def tokens(self, count: int) -> list[str]:
        """``count`` length-prefixed UTF-8 strings, read in one loop."""
        buf, pos, out = self.buf, self.pos, []
        end = len(buf)
        for _ in range(count):
            if pos + 4 > end:
                self.pos = pos
                self.need(4)
            (size,) = _TOKEN_SIZE.unpack_from(buf, pos)
            pos += 4
            if pos + size > end:
                self.pos = pos
                self.need(size)
            out.append(str(buf[pos : pos + size], "utf-8"))
            pos += size
        self.pos = pos
        return out


def read_compressed(path):
    """Read the binary container back into ``(CompressedEmbedding,
    Vocabulary | None)``, verifying magic, version, and checksum."""
    path = Path(path)
    buf = path.read_bytes()
    if len(buf) < len(MAGIC) + 4:
        raise TruncatedError(f"{path}: file is only {len(buf)} bytes")
    if buf[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {buf[:len(MAGIC)]!r}, expected {MAGIC!r}")
    body, (crc,) = memoryview(buf)[:-4], struct.unpack("<I", buf[-4:])
    if zlib.crc32(body) != crc:
        raise ChecksumError(f"{path}: CRC32 mismatch over {len(body)} bytes")

    cur = _Cursor(body, path)
    cur.take(len(MAGIC))
    version, method_code, rounding_code, seed, n, d_orig = cur.unpack("<HBBQQI")
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    if method_code not in _METHOD_NAMES:
        raise FormatError(f"{path}: unknown method code {method_code}")
    if rounding_code >= len(ROUNDINGS):
        raise FormatError(f"{path}: unknown rounding code {rounding_code}")
    method = _METHOD_NAMES[method_code]
    rounding = ROUNDINGS[rounding_code]

    kwargs = dict(method=method, n=n, d_orig=d_orig, rounding=rounding, seed=seed)
    if method == METHOD_UNIFORM:
        bits, clip_r = cur.unpack("<Bd")
        codes = _read_codes(cur, n, d_orig, bits)
        kwargs.update(bits=bits, grid=QuantizationGrid(bits, clip_r), codes=codes)
    elif method == METHOD_KMEANS:
        (bits,) = cur.unpack("<B")
        codebook = np.frombuffer(cur.take(8 * (1 << bits)), dtype="<f8").astype(np.float64)
        codes = _read_codes(cur, n, d_orig, bits)
        kwargs.update(bits=bits, codebook=codebook, codes=codes)
    else:
        (k,) = cur.unpack("<I")
        reduced = np.frombuffer(cur.take(8 * n * k), dtype="<f8").reshape(n, k).astype(np.float64)
        (flag,) = cur.unpack("<B")
        basis_v = None
        if flag:
            basis_v = (
                np.frombuffer(cur.take(8 * d_orig * k), dtype="<f8")
                .reshape(d_orig, k)
                .astype(np.float64)
            )
        kwargs.update(k=k, reduced=reduced, basis_v=basis_v)

    (n_tokens,) = cur.unpack("<I")
    if n_tokens and n_tokens != n:
        raise FormatError(f"{path}: vocabulary has {n_tokens} tokens but the matrix has {n} rows")
    vocab = Vocabulary(tuple(cur.tokens(n_tokens))) if n_tokens else None
    if cur.pos != len(body):
        raise FormatError(f"{path}: {len(body) - cur.pos} unexpected trailing bytes")
    return CompressedEmbedding(**kwargs), vocab


def _read_codes(cur: _Cursor, n: int, d: int, bits: int) -> np.ndarray:
    rb = bitpack.row_bytes(d, bits)
    raw = cur.take(n * rb)
    return np.frombuffer(raw, dtype=np.uint8).reshape(n, rb).copy()


# ---------------------------------------------------------------------------
# JSON reports and CSV tables


def to_jsonable(obj):
    """Recursive conversion to JSON-serializable values; +/-inf become the
    strings "inf" / "-inf"."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            raise ValueError("refusing to serialize NaN")
        return f
    return obj


_DIGEST_CHUNK = 1 << 20


def file_digest(path) -> str:
    """sha256 of a file's bytes, read ``_DIGEST_CHUNK`` bytes at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_DIGEST_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def write_report(body, path, inputs: dict | None = None) -> None:
    """Write a JSON report with stable key order.

    The envelope records the tool version and a sha256 digest per named
    input file; no timestamps, so identical runs produce identical bytes.
    """
    digests = {name: file_digest(p) for name, p in (inputs or {}).items()}
    doc = {
        "tool_version": __version__,
        "input_digests": digests,
        "body": to_jsonable(body),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_report(path) -> dict:
    """Read a JSON report; invalid JSON, nesting too deep for the parser and a
    bare NaN constant are each a :class:`FormatError` naming the file."""

    def constant(name):
        if name == "NaN":
            raise FormatError(f"{path}: NaN is not a valid report value")
        return float(name)

    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, parse_constant=constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: not a valid JSON report: {exc}") from None
    if not isinstance(doc, dict) or "body" not in doc:
        raise FormatError(f"{path}: not a report file (missing 'body')")
    return doc


def _csv_records(path, fh):
    """``(lineno, row)`` for the records of ``fh``, a CSV file opened with
    ``errors="surrogateescape"``; ``lineno`` is the line a record ends on.
    A record the csv module rejects (a field over its size limit) or one
    holding a byte that is not UTF-8 is a :class:`FormatError` naming that
    line."""
    reader = csv.reader(fh)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
        try:
            "".join(row).encode("utf-8")
        except UnicodeEncodeError as exc:
            # surrogateescape decodes the bad byte b to the code point 0xDC00 + b
            bad = ord(exc.object[exc.start]) - 0xDC00
            raise FormatError(
                f"{path}:{reader.line_num}: not valid UTF-8 at byte {bad:#04x}"
            ) from None
        yield reader.line_num, row


def read_performance_csv(path) -> PerformanceTable:
    """Read a performance table with the exact header
    ``candidate_id,task,performance,seed``."""
    path = Path(path)
    rows = []
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        records = _csv_records(path, fh)
        first = next(records, None)
        if first is None:
            raise FormatError(f"{path}: empty CSV")
        lineno, header = first
        if [h.strip() for h in header] != ["candidate_id", "task", "performance", "seed"]:
            raise FormatError(
                f"{path}:{lineno}: header must be 'candidate_id,task,performance,seed', "
                f"got {header}"
            )
        for lineno, row in records:
            if not row:
                continue
            if len(row) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            cid, task, perf_s, seed_s = (f.strip() for f in row)
            try:
                perf = float(perf_s)
                seed = int(seed_s)
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: bad numeric field in {row!r}"
                ) from None
            rows.append((cid, task, perf, seed))
    try:
        return PerformanceTable(tuple(rows))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_table_csv(rows: list[dict], columns: list[str], path) -> None:
    """Write a list of row dicts as CSV with the given column order."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([to_jsonable(row.get(col)) for col in columns])
