"""Bit packing for b-bit unsigned codes, 1 <= b <= 31.

Layout: row-major, LSB-first within each byte, every row padded to a whole
byte.  This is the same layout the binary file format stores, so packed code
arrays round-trip byte-for-byte.

Code j of a row occupies bits j*bits .. j*bits+bits-1 of the row's bit
string, so bit plane b (bit b of every code) is the strided slice
``b : cols*bits : bits`` of the unpacked row.  Both directions move one plane
at a time between uint32 codes and one uint8 array of the padded row bits.
"""

from __future__ import annotations

import numpy as np


def row_bytes(cols: int, bits: int) -> int:
    return (cols * bits + 7) // 8


def pack_codes(codes, bits: int) -> np.ndarray:
    """Pack an (n, d) array of codes < 2**bits into (n, row_bytes) uint8."""
    if not 1 <= bits <= 31:
        raise ValueError(f"bits must be in [1, 31], got {bits}")
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
    if codes.size and (codes.min() < 0 or int(codes.max()) >= (1 << bits)):
        raise ValueError(f"codes out of range for {bits}-bit packing")
    n, d = codes.shape
    rest = codes.astype(np.uint32)
    flat = np.zeros((n, row_bytes(d, bits) * 8), dtype=np.uint8)
    # lowest plane first: take the low bit, then shift the next plane down
    for b in range(bits):
        np.bitwise_and(rest, 1, out=flat[:, b : d * bits : bits])
        rest >>= 1
    return np.packbits(flat, axis=1, bitorder="little")


def unpack_codes(packed, cols: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns (n, cols) uint32."""
    if not 1 <= bits <= 31:
        raise ValueError(f"bits must be in [1, 31], got {bits}")
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"packed codes must be 2-D, got shape {packed.shape}")
    expected = row_bytes(cols, bits)
    if packed.shape[1] != expected:
        raise ValueError(
            f"packed row is {packed.shape[1]} bytes, expected {expected} for {cols} {bits}-bit codes"
        )
    flat = np.unpackbits(packed, axis=1, bitorder="little")
    out = np.zeros((packed.shape[0], cols), dtype=np.uint32)
    # highest plane first: shift what is there up one bit, then OR in the next plane
    for b in reversed(range(bits)):
        out <<= 1
        out |= flat[:, b : cols * bits : bits]
    return out
