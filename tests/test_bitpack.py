import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embcompress.bitpack import pack_codes, row_bytes, unpack_codes


def reference_pack(codes, bits):
    """Per-code expansion to an (n, d, bits) uint64 array: the plain path
    that the bit-plane loops must reproduce byte for byte."""
    codes = np.asarray(codes)
    n, d = codes.shape
    shifts = np.arange(bits, dtype=np.uint64)
    lsb_first = ((codes.astype(np.uint64)[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    flat = lsb_first.reshape(n, d * bits)
    pad = row_bytes(d, bits) * 8 - d * bits
    if pad:
        flat = np.pad(flat, ((0, 0), (0, pad)))
    return np.packbits(flat, axis=1, bitorder="little")


def reference_unpack(packed, cols, bits):
    flat = np.unpackbits(packed, axis=1, bitorder="little")[:, : cols * bits]
    vals = flat.reshape(packed.shape[0], cols, bits).astype(np.uint64)
    weights = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    return (vals * weights).sum(axis=2, dtype=np.uint64).astype(np.uint32)


@given(
    bits=st.integers(min_value=1, max_value=31),
    n=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=150, deadline=None)
def test_round_trip(bits, n, d, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bits, size=(n, d), dtype=np.uint32)
    packed = pack_codes(codes, bits)
    assert packed.shape == (n, row_bytes(d, bits))
    np.testing.assert_array_equal(unpack_codes(packed, d, bits), codes)


@given(
    bits=st.integers(min_value=1, max_value=31),
    n=st.integers(min_value=1, max_value=6),
    # 1..17 columns: most widths leave a partly filled last byte in a row
    d=st.integers(min_value=1, max_value=17),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_bit_planes_match_per_code_reference(bits, n, d, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bits, size=(n, d), dtype=np.int64)
    packed = pack_codes(codes, bits)
    want = reference_pack(codes, bits)
    assert packed.dtype == np.uint8 and packed.tobytes() == want.tobytes()
    # random bytes, padding bits included, unpack the same way
    raw = rng.integers(0, 256, size=want.shape, dtype=np.uint8)
    for p in (want, raw):
        got = unpack_codes(p, d, bits)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, reference_unpack(p, d, bits))


@pytest.mark.parametrize("bits", [1, 3, 4, 31])
def test_bit_planes_match_reference_full_width(bits):
    rng = np.random.default_rng(bits)
    codes = rng.integers(0, 1 << bits, size=(7, 13), dtype=np.uint32)
    codes[0, :] = (1 << bits) - 1
    packed = pack_codes(codes, bits)
    assert packed.tobytes() == reference_pack(codes, bits).tobytes()
    np.testing.assert_array_equal(unpack_codes(packed, 13, bits), codes)


def test_unpack_peak_memory_is_a_few_outputs():
    # the per-code path peaked near 19x the uint32 output here
    codes = np.random.default_rng(0).integers(0, 16, size=(10_000, 300), dtype=np.uint32)
    packed = pack_codes(codes, 4)
    tracemalloc.start()
    try:
        out = unpack_codes(packed, 300, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, codes)
    assert peak < 3 * out.nbytes


def test_row_padding_layout():
    # 9 one-bit codes pad to 16 bits: 2 bytes per row, 8 bytes in total
    codes = np.ones((4, 9), dtype=np.uint32)
    packed = pack_codes(codes, 1)
    assert packed.shape == (4, 2)
    assert packed.nbytes == 8


def test_lsb_first_bit_order():
    packed = pack_codes(np.array([[1, 0, 1, 1]], dtype=np.uint32), 1)
    assert packed[0, 0] == 0b1101


def test_rejects_out_of_range_codes():
    with pytest.raises(ValueError, match="out of range"):
        pack_codes(np.array([[4]], dtype=np.uint32), 2)


def test_rejects_wrong_row_width():
    packed = pack_codes(np.zeros((2, 3), dtype=np.uint32), 5)
    with pytest.raises(ValueError, match="expected"):
        unpack_codes(packed, 4, 5)
