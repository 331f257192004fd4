"""Counter-based random numbers.

Every variate is a pure function of (seed, counter words), so the draw for a
given key is identical no matter how the work is chunked, ordered, or spread
across threads.  The mixing function is the splitmix64 finalizer applied to a
keyed state.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_COL_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
_TWO53 = float(2**53)


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer of the uint64 array ``z``, in place: the same
    shifts, xors and wrapping products as a fresh array per step, with
    ``tmp`` (z's shape, made when not given) the only scratch."""
    z = np.asarray(z)
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mult in ((30, _M1), (27, _M2)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


class CounterRng:
    """Stateless generator keyed by a 64-bit seed and two counter words."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        with np.errstate(over="ignore"):
            self._base = _mix64(np.asarray(self.seed, dtype=np.uint64) ^ _GOLDEN)

    def substream(self, index: int) -> "CounterRng":
        """Derive an independent stream; used to decouple draws made for
        different purposes under one user-facing seed."""
        with np.errstate(over="ignore"):
            derived = _mix64(self._base + _GOLDEN * np.asarray(int(index) + 1, dtype=np.uint64))
        return CounterRng(int(derived))

    def uniform(self, row, col):
        """Uniform variate(s) in (0, 1), keyed by integer counters.

        Broadcasts over array-valued counters.  The value for a given
        (seed, row, col) never depends on other calls.
        """
        r = np.asarray(row, dtype=np.uint64)
        c = np.asarray(col, dtype=np.uint64)
        with np.errstate(over="ignore"):
            h = _mix64(self._base ^ (r * _GOLDEN))
            h = np.asarray(h ^ (c * _COL_SALT))
            u = np.empty(h.shape)
            _mix64(h, u.view(np.uint64))  # the result's storage is the scratch
        h >>= np.uint64(11)
        np.add(h, 0.5, out=u)
        u /= _TWO53
        return u if u.ndim else float(u)

    def uniform_block(self, rows: int, cols: int, row0: int = 0) -> np.ndarray:
        """(rows, cols) block of uniforms with row counters row0..row0+rows-1.

        Chunking a matrix by rows and concatenating the blocks reproduces the
        whole-matrix call exactly.
        """
        r = np.arange(row0, row0 + rows, dtype=np.uint64)[:, None]
        c = np.arange(cols, dtype=np.uint64)[None, :]
        return self.uniform(r, c)

    def normal(self, row, col):
        """Standard normal variate(s) keyed by counters (Box-Muller)."""
        r = np.asarray(row, dtype=np.uint64)
        c = np.asarray(col, dtype=np.uint64)
        with np.errstate(over="ignore"):
            c2 = c * np.uint64(2)
            u1 = self.uniform(r, c2)
            u2 = self.uniform(r, c2 + np.uint64(1))
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def normal_block(self, rows: int, cols: int, row0: int = 0) -> np.ndarray:
        r = np.arange(row0, row0 + rows, dtype=np.uint64)[:, None]
        c = np.arange(cols, dtype=np.uint64)[None, :]
        return self.normal(r, c)
