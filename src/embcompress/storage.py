"""File formats: text embeddings, the binary compressed-embedding container,
JSON reports, and CSV tables.

Readers reject malformed input instead of coercing it, and every failure
names the offending line or byte position.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import struct
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


def read_text_embedding(path, fmt: str = "auto"):
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
    """
    if fmt not in ("auto", "glove", "fasttext"):
        raise ValueError(f"unknown format {fmt!r}")
    path = Path(path)
    tokens = []
    seen = set()
    dim = None
    declared = None
    out = None
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lines = _content_lines(path, fh)
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
            start, stop = len(tokens), len(tokens) + len(names)
            tokens.extend(names)
            if out is None or stop > out.shape[0]:
                # the rows read so far, scaled to the whole file
                rows = max(stop, math.ceil(stop * size / max(fh.tell(), 1)))
                if out is None:
                    out = np.empty((rows, dim))
                else:
                    out.resize((max(rows, out.shape[0] * 5 // 4), dim), refcheck=False)
            out[start:stop] = values
    if declared is not None and (len(tokens), dim) != declared:
        held = f"{len(tokens)}x{dim}" if tokens else "0 rows"
        raise FormatError(
            f"{path}: header declares {declared[0]}x{declared[1]} but the file holds {held}"
        )
    if out.shape[0] != len(tokens):
        out.resize((len(tokens), dim), refcheck=False)
    return out, Vocabulary(tuple(tokens))


def _content_lines(path, fh):
    """``(lineno, line)`` for the lines of the binary file ``fh``, decoded as
    UTF-8 and split as ``str.splitlines`` splits, without trailing blank
    lines.  Of a run of blank lines followed by content only the first is
    yielded; it fails to parse as a row."""
    blank = None
    lineno = 0
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad byte's line: the lines its valid prefix starts, counting
            # the one it is on
            bad = lineno + len((raw[: exc.start].decode("utf-8") + "x").splitlines())
            raise FormatError(
                f"{path}:{bad}: not valid UTF-8 at byte {raw[exc.start]:#04x} ({exc.reason})"
            ) from None
        for line in text.splitlines():
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
    """Write the headerless text form; values keep 17 significant digits so
    reading the file back reproduces them exactly."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(vocab):
        raise ValueError(
            f"matrix shape {X.shape} does not match the {len(vocab)}-token vocabulary"
        )
    row_format = "%s" + " %.17g" * X.shape[1] + "\n"
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for start in range(0, X.shape[0], TEXT_BLOCK_ROWS):
            stop = start + TEXT_BLOCK_ROWS
            fh.write("".join(
                row_format % (token, *row)
                for token, row in zip(vocab.tokens[start:stop], X[start:stop].tolist())
            ))


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


class _Cursor:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.buf):
            raise TruncatedError(
                f"{self.path}: needed {count} bytes at offset {self.pos}, "
                f"only {len(self.buf) - self.pos} remain"
            )
        chunk = self.buf[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_compressed(path):
    """Read the binary container back into ``(CompressedEmbedding,
    Vocabulary | None)``, verifying magic, version, and checksum."""
    path = Path(path)
    buf = path.read_bytes()
    if len(buf) < len(MAGIC) + 4:
        raise TruncatedError(f"{path}: file is only {len(buf)} bytes")
    if buf[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {buf[:len(MAGIC)]!r}, expected {MAGIC!r}")
    body, (crc,) = buf[:-4], struct.unpack("<I", buf[-4:])
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
    vocab = None
    if n_tokens:
        tokens = []
        for _ in range(n_tokens):
            (tok_len,) = cur.unpack("<I")
            tokens.append(cur.take(tok_len).decode("utf-8"))
        vocab = Vocabulary(tuple(tokens))
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


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    """Read a JSON report; a bare NaN constant is a :class:`FormatError`."""

    def constant(name):
        if name == "NaN":
            raise FormatError(f"{path}: NaN is not a valid report value")
        return float(name)

    doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=constant)
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
