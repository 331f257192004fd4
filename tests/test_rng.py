import numpy as np
import pytest

from embcompress import rng as rng_mod
from embcompress.rng import CounterRng


def plain_mix64(z):
    """The splitmix64 finalizer with a fresh array per step."""
    z = (z ^ (z >> np.uint64(30))) * rng_mod._M1
    z = (z ^ (z >> np.uint64(27))) * rng_mod._M2
    return z ^ (z >> np.uint64(31))


def plain_uniform_block(seed, rows, cols, row0=0):
    """uniform_block from plain_mix64 and whole-array expressions."""
    with np.errstate(over="ignore"):
        base = plain_mix64(np.uint64(seed) ^ rng_mod._GOLDEN)
        r = np.arange(row0, row0 + rows, dtype=np.uint64)[:, None]
        c = np.arange(cols, dtype=np.uint64)[None, :]
        h = plain_mix64(base ^ (r * rng_mod._GOLDEN))
        h = plain_mix64(h ^ (c * rng_mod._COL_SALT))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) / rng_mod._TWO53


def test_in_place_mix_matches_the_plain_finalizer():
    z = np.random.default_rng(0).integers(0, 2**64, size=(257, 3), dtype=np.uint64)
    z[0, :] = [0, 1, 2**64 - 1]
    want = plain_mix64(z)
    assert rng_mod._mix64(z.copy()).tobytes() == want.tobytes()
    assert rng_mod._mix64(z.copy(), np.empty_like(z)).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_uniform_block_matches_the_plain_expression(seed):
    got = CounterRng(seed).uniform_block(33, 9, row0=5)
    assert got.tobytes() == plain_uniform_block(seed, 33, 9, row0=5).tobytes()


def test_block_matches_per_entry_calls():
    rng = CounterRng(7)
    block = rng.uniform_block(6, 5)
    singles = np.array([[rng.uniform(i, j) for j in range(5)] for i in range(6)])
    np.testing.assert_array_equal(block, singles)


def test_chunked_rows_reproduce_full_block():
    rng = CounterRng(123)
    full = rng.uniform_block(100, 8)
    parts = [rng.uniform_block(30, 8, row0=0), rng.uniform_block(70, 8, row0=30)]
    np.testing.assert_array_equal(np.vstack(parts), full)


def test_same_seed_identical_different_seed_not():
    a = CounterRng(5).uniform_block(50, 4)
    b = CounterRng(5).uniform_block(50, 4)
    c = CounterRng(6).uniform_block(50, 4)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_open_unit_interval():
    u = CounterRng(0).uniform_block(1000, 100)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniform_moments():
    u = CounterRng(42).uniform_block(2000, 500).ravel()
    n = u.size
    # mean 1/2, sd of the mean = 1/sqrt(12 n)
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12.0 * n)


def test_normal_moments():
    z = CounterRng(42).normal_block(2000, 500).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_substreams_are_decoupled():
    rng = CounterRng(9)
    a = rng.substream(0).uniform_block(100, 2)
    b = rng.substream(1).uniform_block(100, 2)
    assert np.all(a != b)
