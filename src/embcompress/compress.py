"""Compression methods for dense embedding matrices.

Three methods are implemented: uniform quantization with a searched clip
threshold, scalar k-means codebook compression, and PCA truncation.  The
lossy representations all decompress back to a dense float64 matrix.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bitpack
from .linalg import LinalgError, as_matrix, fro_norm, max_abs
from .measures import PreparedBase, RankDeficiencyWarning
from .rng import CounterRng

METHOD_UNIFORM = "uniform"
METHOD_KMEANS = "kmeans"
METHOD_PCA = "pca"
METHODS = (METHOD_UNIFORM, METHOD_KMEANS, METHOD_PCA)

ROUNDING_DETERMINISTIC = "deterministic"
ROUNDING_STOCHASTIC = "stochastic"
ROUNDINGS = (ROUNDING_DETERMINISTIC, ROUNDING_STOCHASTIC)
# a container records its seed as an unsigned 64-bit integer
SEED_LIMIT = 1 << 64

# the widest codes each quantizing method writes
_MAX_BITS = {METHOD_UNIFORM: 31, METHOD_KMEANS: 16}

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_bits(method: str, bits: int) -> None:
    if not 1 <= bits <= _MAX_BITS[method]:
        raise ValueError(f"bits must be in [1, {_MAX_BITS[method]}] for {method}, got {bits}")


@dataclass(frozen=True)
class QuantizationGrid:
    """Symmetric uniform grid of 2**bits levels spanning [-clip, clip]."""

    bits: int
    clip: float

    def __post_init__(self):
        _check_bits(METHOD_UNIFORM, int(self.bits))
        if not (np.isfinite(self.clip) and self.clip > 0):
            raise ValueError(f"clip must be a positive finite real, got {self.clip}")

    @property
    def num_levels(self) -> int:
        return 1 << self.bits

    @property
    def spacing(self) -> float:
        return 2.0 * self.clip / (self.num_levels - 1)

    def values_for(self, codes) -> np.ndarray:
        """Map level indices to grid values without materializing the grid."""
        return -self.clip + np.asarray(codes, dtype=np.float64) * self.spacing


def quantize_codes(
    X, grid: QuantizationGrid, rounding: str = ROUNDING_DETERMINISTIC,
    rng: CounterRng | None = None, row0: int = 0,
) -> np.ndarray:
    """Round each entry of the 2-D array X to a grid level index (uint32),
    entries beyond [-grid.clip, grid.clip] going to the end levels.

    Deterministic rounding takes the nearest level, with exact midpoints
    going toward +inf.  Stochastic rounding is unbiased: the upper bracketing
    level wins with probability (x - lower)/spacing, decided by the coin
    ``rng.uniform_block(...)[i, j]`` of row counter ``row0 + i``, so rows
    [i0:i1] quantized with ``row0=i0`` equal the same rows of the
    whole-matrix call.
    """
    if rounding not in ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-D array, got shape {X.shape}")
    # X is not clipped: the clamp of the codes (or of t) already pins entries
    # outside [-grid.clip, grid.clip] to the end levels
    if rounding == ROUNDING_DETERMINISTIC:
        codes = _nearest_level(X, grid)
        return np.clip(codes, 0, grid.num_levels - 1).astype(np.uint32)
    if rng is None:
        raise ValueError("stochastic rounding needs an rng")
    t = (X + grid.clip) / grid.spacing
    np.clip(t, 0.0, grid.num_levels - 1.0, out=t)
    low = np.floor(t)
    u = rng.uniform_block(X.shape[0], X.shape[1], row0=row0)
    codes = low.astype(np.uint32) + (u < t - low)
    return np.clip(codes, 0, grid.num_levels - 1, out=codes)


def _nearest_level(x, grid: QuantizationGrid) -> np.ndarray:
    """Unclamped index of the nearest level as a float, exact midpoints
    going toward +inf: the deterministic rounding of :func:`quantize_codes`."""
    return np.floor((x + grid.clip) / grid.spacing + 0.5)


_PREFIX_CHUNK = 1 << 16
# _SortedScalars keeps one (hi, lo) column of each prefix-sum row per this
# many sorted values, or closer where a lookup reads many runs
_CHECKPOINT = 1 << 10
# up to this many values every prefix is kept (at most 8 MB of rows), and a
# lookup reads them with no recompute: below about 500k values the recompute
# costs a clip search more time than building the full rows
_FULL_PREFIX_MAX_N = 1 << 18


def _chunk_prefix(hi0: np.ndarray, lo0: np.ndarray, v: np.ndarray):
    """One chunk step of the compensated prefix sums, row by row: the rows of
    ``v`` (m, L), with the running sums ``hi0`` and ``lo0`` (m,) carried in,
    give (m, L + 1) rows ``hi`` (the sequential running sum) and ``lo`` (the
    running sum of its rounding errors, each taken exactly with TwoSum;
    Knuth, TAOCP vol. 2, 4.2.2).  ``np.cumsum`` adds in sequence along a
    row, so a row's values do not depend on where the chunk starts."""
    hi = np.cumsum(np.concatenate((hi0[:, None], v), axis=1), axis=1)
    prev, total = hi[:, :-1], hi[:, 1:]
    b = total - prev
    err = total - b
    np.subtract(prev, err, out=err)
    np.subtract(v, b, out=b)
    np.add(err, b, out=err)
    lo = np.cumsum(np.concatenate((lo0[:, None], err), axis=1), axis=1)
    return hi, lo


def _prefix_sums(x: np.ndarray, every: int = 1) -> np.ndarray:
    """Rows hi and lo (:func:`_chunk_prefix`) of the prefix sums of x, then of
    x**2, at the indices 0, every, 2*every, ... and ``len(x)``.  With
    ``every=1`` the sum of a run ``i:j`` is ``(p[0, j] - p[0, i]) + (p[1, j]
    - p[1, i])``, to a few ulps of that sum rather than of the running total.
    Each chunk of ``_PREFIX_CHUNK`` scalars (values and their squares) carries
    the running sums of the last, so every row equals one sequential pass."""
    n = x.size
    p = np.empty((4, n // every + 1 + (n % every > 0)))
    hi = lo = np.zeros((2, 1))
    chunk = max(1, _PREFIX_CHUNK // 2)
    for i in range(0, n, chunk):
        v = x[i : i + chunk]
        hi, lo = _chunk_prefix(hi[:, -1], lo[:, -1], np.stack((v, np.square(v))))
        j = i + v.size
        # the kept indices in (i, j]: columns first .. last
        first, last = i // every + 1, j // every
        p[0::2, first : last + 1] = hi[:, first * every - i :: every]
        p[1::2, first : last + 1] = lo[:, first * every - i :: every]
    p[:, 0] = 0.0
    p[0::2, -1], p[1::2, -1] = hi[:, -1], lo[:, -1]
    return p


@dataclass(frozen=True)
class _SortedScalars:
    """All scalars of an array in ascending order, ``x``, and ``p``, their
    :func:`_prefix_sums` kept at every ``step``-th index and at the end:
    about 4 * len(x) / step floats.  A run's count, sum and sum of squares
    take O(step): the prefixes at its ends are read directly when ``step`` is
    1, else recomputed from the checkpoints before them with the same chunk
    step, so they equal the full rows' values bit for bit."""

    x: np.ndarray
    step: int
    p: np.ndarray

    def segments(self, bounds: np.ndarray):
        """``(counts, sums, sums of squares)`` of the runs
        ``x[bounds[t]:bounds[t + 1]]``, ``bounds`` ascending."""
        d = np.diff(self._prefixes_at(np.asarray(bounds)))
        return np.diff(bounds), d[0] + d[1], d[2] + d[3]

    def _prefixes_at(self, bounds: np.ndarray) -> np.ndarray:
        """The rows of ``p`` at each index of ``bounds``.  Each bound gets a
        row of the values from its checkpoint up to it, zero past it, and a
        row of their squares, through :func:`_chunk_prefix` in batches of
        about ``_PREFIX_CHUNK`` values."""
        step = self.step
        if step == 1:
            return self.p[:, bounds]
        cp, off = np.divmod(bounds, step)
        out = np.empty((4, bounds.size))
        per = max(1, _PREFIX_CHUNK // step)
        for t in range(0, bounds.size, per):
            c, col = cp[t : t + per], off[t : t + per]
            width = np.arange(col.max())
            v = self.x.take(c[:, None] * step + width, mode="clip")
            v[width >= col[:, None]] = 0.0
            hi, lo = _chunk_prefix(
                self.p[0::2, c].ravel(), self.p[1::2, c].ravel(), np.concatenate((v, np.square(v)))
            )
            r = np.arange(c.size)
            out[:, t : t + per] = hi[r, col], lo[r, col], hi[c.size + r, col], lo[c.size + r, col]
        return out


def _sort_scalars(values, runs: int) -> _SortedScalars:
    """Sort ``values`` and checkpoint their prefix sums for lookups of
    ``runs`` runs: past ``_FULL_PREFIX_MAX_N`` values, every
    ``_CHECKPOINT``-th up to 16 runs, then closer so a lookup recomputes
    about 16k values, down to every 16th.  Lloyd reads K
    runs up to 300 times: 12-bit k-means of a 10000 x 300 matrix took 29 s
    with checkpoints 1024 apart, against 1.4 s with every prefix kept."""
    x = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    step = 1 if x.size <= _FULL_PREFIX_MAX_N else min(_CHECKPOINT, max(16, (1 << 14) // runs))
    return _SortedScalars(x, step, _prefix_sums(x, step))


def _level_starts(x: np.ndarray, grid: QuantizationGrid) -> np.ndarray:
    """For each level k = 1 .. 2**bits - 1, the first index of the sorted
    ``x`` whose deterministic code is at least k.  The codes are monotone in
    x, so all boundaries are bisected at once on the encoder's own float
    expression; midpoint ties and the clamped tails fall as they fall there."""
    n = x.size
    k = np.arange(1, grid.num_levels)
    lo = np.zeros(k.size, dtype=np.int64)
    hi = np.full(k.size, n, dtype=np.int64)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        below = (_nearest_level(x[np.minimum(mid, n - 1)], grid) < k) & (mid < hi)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


# Up to this width an evaluation uses the moment form, sum(x^2) - 2*l*sum(x)
# + m*l^2 per level.  It cancels about two more binary digits per extra bit
# (measured on 1M-3M values, worst relative error of the objective: 1e-13 at
# 8 bits, 3e-11 at 12, 2e-9 at 16), so wider grids sum (l - x)^2 over the
# sorted values instead.
_MOMENT_MAX_BITS = 8


def quantization_objective(X, bits: int):
    """Reconstruction error r -> ||quantize(clip(X, r)) - X||_F with
    deterministic rounding; the function minimized by the clip search.

    The scalars are sorted once, when the objective is made, with their
    prefix sums kept at checkpoints (:class:`_SortedScalars`), ``step`` =
    1024 apart up to 4 bits and 2**(14 - bits) apart to 8 bits.  Up to 8
    bits an evaluation then bisects each level's run of sorted values and
    reads its error off the prefix sums at the run ends, each recomputed over
    fewer than ``step`` values, O(2**bits * log(n*d) + 2**14) in all; wider
    grids take one pass over the sorted values.
    """
    ss = _sort_scalars(as_matrix(X), 1 << min(bits, _MOMENT_MAX_BITS))
    row = ss.x.reshape(1, -1)
    # entries beyond 1e154 overflow x^2 (the last checkpoint holds its
    # total), and inf - inf would turn the moment form into NaN where the
    # direct sum reads inf
    moments = bool(np.isfinite(ss.p[2, -1]))

    def objective(r: float) -> float:
        if r <= 0.0:
            return fro_norm(row)
        grid = QuantizationGrid(bits, float(r))
        if grid.bits > _MOMENT_MAX_BITS or not moments:
            return fro_norm(grid.values_for(quantize_codes(row, grid)) - row)
        bounds = np.concatenate(([0], _level_starts(ss.x, grid), [ss.x.size]))
        counts, sums, squares = ss.segments(bounds)
        ell = grid.values_for(np.arange(grid.num_levels))
        sq = float(np.sum(squares - 2.0 * ell * sums + counts * ell * ell))
        return math.sqrt(max(sq, 0.0))

    return objective


def find_clip_threshold(X, bits: int, tol: float = 0.01) -> float:
    """Clip threshold minimizing the deterministic quantized reconstruction
    error over [0, max|X|], by golden-section search: it assumes a unimodal
    objective and localizes the minimizer to within ``tol``.
    """
    X = as_matrix(X)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    xmax = max_abs(X)
    if xmax == 0.0:
        raise ValueError("all-zero matrix has no meaningful clip threshold")
    f = quantization_objective(X, bits)
    a, b = 0.0, xmax
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    best_r, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    fb = f(b)
    if fb < best_f:
        best_r, best_f = b, fb
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        for r, fr in ((x1, f1), (x2, f2)):
            if fr < best_f:
                best_r, best_f = r, fr
    return float(best_r)


@dataclass(frozen=True, eq=False)
class CompressedEmbedding:
    """Method-tagged compressed representation of an n x d_orig matrix.

    Exactly the fields for the tagged method are populated:
    uniform -> codes + grid; kmeans -> codes + codebook; pca -> reduced
    (+ basis_v when the right factor is retained).
    """

    method: str
    n: int
    d_orig: int
    rounding: str = ROUNDING_DETERMINISTIC
    seed: int = 0
    bits: int | None = None
    k: int | None = None
    codes: np.ndarray | None = None  # packed uint8, shape (n, row_bytes)
    grid: QuantizationGrid | None = None
    codebook: np.ndarray | None = None
    reduced: np.ndarray | None = None
    basis_v: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.rounding not in ROUNDINGS:
            raise ValueError(f"unknown rounding {self.rounding!r}")
        if self.n < 1 or self.d_orig < 1:
            raise ValueError("n and d_orig must be positive")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.method in (METHOD_UNIFORM, METHOD_KMEANS):
            if self.bits is None or self.codes is None:
                raise ValueError(f"{self.method} requires bits and codes")
            rb = bitpack.row_bytes(self.d_orig, self.bits)
            if self.codes.shape != (self.n, rb):
                raise ValueError(
                    f"codes shape {self.codes.shape} != expected ({self.n}, {rb})"
                )
            if self.k is not None or self.reduced is not None or self.basis_v is not None:
                raise ValueError(f"{self.method} must not carry pca fields")
        if self.method == METHOD_UNIFORM:
            if self.grid is None or self.codebook is not None:
                raise ValueError("uniform requires a grid and no codebook")
            if self.grid.bits != self.bits:
                raise ValueError("grid bits disagree with the bits field")
        if self.method == METHOD_KMEANS:
            _check_bits(METHOD_KMEANS, self.bits)
            if self.codebook is None or self.grid is not None:
                raise ValueError("kmeans requires a codebook and no grid")
            if self.codebook.shape != (1 << self.bits,):
                raise ValueError(
                    f"codebook has {self.codebook.shape[0]} entries, expected {1 << self.bits}"
                )
        if self.method == METHOD_PCA:
            if self.k is None or self.reduced is None:
                raise ValueError("pca requires k and the reduced matrix")
            if self.bits is not None or self.codes is not None or self.grid is not None \
                    or self.codebook is not None:
                raise ValueError("pca must not carry quantization fields")
            if not 1 <= self.k <= self.d_orig:
                raise ValueError(f"pca k must be in [1, {self.d_orig}], got {self.k}")
            if self.reduced.shape != (self.n, self.k):
                raise ValueError(
                    f"reduced shape {self.reduced.shape} != expected ({self.n}, {self.k})"
                )
            if self.basis_v is not None and self.basis_v.shape != (self.d_orig, self.k):
                raise ValueError(
                    f"basis_v shape {self.basis_v.shape} != expected ({self.d_orig}, {self.k})"
                )


# the encoders and the theory lab's generators quantize, pack and generate
# about this many scalars at a time
_ENCODE_BLOCK = 1 << 16


def _row_blocks(n: int, d: int) -> list[tuple[int, int]]:
    """``(i0, i1)`` of the blocks of whole rows, about ``_ENCODE_BLOCK``
    scalars each, that cover an n x d array."""
    rows = max(1, _ENCODE_BLOCK // d)
    return [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask, else all of them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_row_blocks(n: int, d: int, work, threads: int = 1) -> None:
    """``work(i0, i1)`` for each of the :func:`_row_blocks` of an n x d array,
    up to ``threads`` at a time (inline for one block or one thread); a
    block's exception reaches the caller.  Each block writes its own rows."""
    blocks = _row_blocks(n, d)
    workers = min(int(threads), len(blocks))
    if workers <= 1:
        for i0, i1 in blocks:
            work(i0, i1)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda block: work(*block), blocks))  # re-raises


def _encode_blocks(X: np.ndarray, bits: int, codes_of, threads: int = 1) -> np.ndarray:
    """Packed codes of X, up to ``threads`` row blocks at a time: the codes
    ``codes_of(i0, i1)`` of rows ``i0:i1`` are packed straight into the
    output, row by row, so the bytes do not depend on the blocking."""
    packed = np.empty((X.shape[0], bitpack.row_bytes(X.shape[1], bits)), dtype=np.uint8)

    def encode(i0: int, i1: int) -> None:
        packed[i0:i1] = bitpack.pack_codes(codes_of(i0, i1), bits)

    _run_row_blocks(*X.shape, encode, threads)
    return packed


def compress_uniform(
    X,
    bits: int,
    rounding: str = ROUNDING_DETERMINISTIC,
    seed: int = 0,
    threads: int = 1,
) -> CompressedEmbedding:
    """Clip-search uniform quantization.

    Finds the clip threshold minimizing deterministic quantized
    reconstruction error, clips, then quantizes every entry with the chosen
    rounding mode.  The search always uses deterministic rounding so the
    threshold does not depend on the stochastic coin flips.  The entries are
    encoded in row blocks of about 64k scalars, up to ``threads`` at a time;
    the stochastic coins are keyed by row, so the output is byte-identical
    for any ``threads`` value.
    """
    X = as_matrix(X)
    if rounding not in ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}")
    grid = QuantizationGrid(bits, find_clip_threshold(X, bits))
    rng = CounterRng(seed)
    packed = _encode_blocks(
        X, bits, lambda i0, i1: quantize_codes(X[i0:i1], grid, rounding, rng, row0=i0), threads
    )
    return CompressedEmbedding(
        method=METHOD_UNIFORM,
        n=X.shape[0],
        d_orig=X.shape[1],
        rounding=rounding,
        seed=seed,
        bits=bits,
        codes=packed,
        grid=grid,
    )


def _optimal_contiguous_centroids(x: np.ndarray, K: int) -> np.ndarray:
    """Exact 1-D k-means of the sorted values ``x`` by dynamic programming
    over contiguous partitions (the optimum always respects sorted order).
    O(K n^2) on every prefix sum, so only used as seeding for small inputs."""
    n = x.size
    s, _, sq, _ = _prefix_sums(x)
    cost = np.full((K + 1, n + 1), np.inf)
    cut = np.zeros((K + 1, n + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for k in range(1, K + 1):
        for j in range(k, n + 1):
            i = np.arange(k - 1, j)
            seg_sum = s[j] - s[i]
            seg = (sq[j] - sq[i]) - seg_sum * seg_sum / (j - i)
            cand = cost[k - 1, i] + seg
            t = int(np.argmin(cand))
            cost[k, j] = cand[t]
            cut[k, j] = i[t]
    bounds = [n]
    j = n
    for k in range(K, 0, -1):
        j = int(cut[k, j])
        bounds.append(j)
    bounds.reverse()
    return np.array([x[bounds[t] : bounds[t + 1]].mean() for t in range(K)])


_EXACT_SEED_MAX_N = 1024
_EXACT_SEED_MAX_K = 32
# Lloyd stops on a smaller relative fall of the loss, or after so many steps
_KMEANS_REL_TOL = 1e-4
_KMEANS_MAX_ITER = 300


def _kmeans_centroids(values, K: int) -> np.ndarray:
    """Lloyd iterations on scalars with deterministic seeding; returns the
    K centroids sorted ascending, which :func:`_nearest_centroid` assigns
    values to.

    Stops when the loss falls by less than a relative 1e-4 or after 300
    iterations.  A cluster that loses all members keeps its centroid for
    that iteration, so the loss stays monotone.

    Seeding: small inputs get the exact contiguous-partition optimum (Lloyd
    then converges immediately, and the result is within any constant factor
    of optimal); larger inputs are seeded at the ((j+0.5)/K)-quantiles, where
    the dense value distribution makes Lloyd reliable.  Both seeds are
    deterministic functions of the data.

    The values are sorted once: each cluster is then a run of the sorted
    values, found by K - 1 binary searches, and its centroid and loss come
    from the checkpointed prefix sums of :class:`_SortedScalars`.  An
    iteration costs O(K log n) plus the recompute of about max(16k, 16 K)
    values at the run ends, and holds no n-long array beside the sorted copy.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain NaN or Inf entries")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")

    if K < values.size and values.size <= _EXACT_SEED_MAX_N and K <= _EXACT_SEED_MAX_K:
        centroids = _optimal_contiguous_centroids(np.sort(values), K)
    else:
        centroids = np.quantile(values, (np.arange(K) + 0.5) / K)
    centroids.sort()
    # after the seeding: np.quantile copies its input
    ss = _sort_scalars(values, K)
    prev_loss = None
    for _ in range(_KMEANS_MAX_ITER):
        mids = 0.5 * (centroids[:-1] + centroids[1:])
        # the run of values with searchsorted(mids, v, side="left") == k
        bounds = np.concatenate(([0], np.searchsorted(ss.x, mids, side="right"), [values.size]))
        counts, sums, squares = ss.segments(bounds)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty]
        centroids.sort()
        # sum over run k of (v - centroids[k])^2, with the re-sorted centroids
        loss = float(np.sum(squares - 2.0 * centroids * sums + counts * centroids * centroids))
        if prev_loss is not None:
            if prev_loss <= 0.0 or (prev_loss - loss) / prev_loss < _KMEANS_REL_TOL:
                break
        prev_loss = loss
    return centroids


def _nearest_centroid(values, centroids: np.ndarray) -> np.ndarray:
    """Index of each value's nearest centroid, a midpoint going to the lower."""
    return np.searchsorted(0.5 * (centroids[:-1] + centroids[1:]), values, side="left")


def compress_kmeans(X, bits: int, seed: int = 0, threads: int = 1) -> CompressedEmbedding:
    """Codebook compression: 1-D k-means over all scalars with K = 2**bits.

    The codes are assigned and packed up to ``threads`` row blocks at a time.
    The quantile seeding makes the clustering deterministic; ``seed`` is
    recorded for provenance only.
    """
    X = as_matrix(X)
    _check_bits(METHOD_KMEANS, bits)
    centroids = _kmeans_centroids(X.ravel(), 1 << bits)
    return CompressedEmbedding(
        method=METHOD_KMEANS,
        n=X.shape[0],
        d_orig=X.shape[1],
        seed=seed,
        bits=bits,
        codes=_encode_blocks(X, bits, lambda i0, i1: _nearest_centroid(X[i0:i1], centroids),
                             threads),
        codebook=centroids,
    )


def compress_pca(X, k: int, keep_v: bool = False) -> CompressedEmbedding:
    """Rank-k truncation: keep X V_k, the k leading left singular vectors
    scaled by their singular values, for V_k the k leading right singular
    vectors; with ``keep_v`` V_k is stored too and decompression returns an
    n x d_orig matrix.

    V_k, and on the SVD path U_k s_k, are read from one
    :class:`~embcompress.measures.PreparedBase` of X: the symmetric eigensolve
    of X^T X when X is no wider than tall and cond(X) <= ``linalg.GRAM_MAX_COND``,
    and X's thin SVD otherwise, which must then have numerical rank k or more.
    Each kept column's sign follows the factorization that ran.
    """
    X = as_matrix(X)
    n, d = X.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)  # k <= rank is checked below
        base = PreparedBase(X)
    if k > base.rank:
        raise LinalgError(f"requested k={k} exceeds the numerical rank {base.rank}")
    V = base.V[:, :k]
    reduced = X @ V if base.svd is None else base.svd.U[:, :k] * base.s[:k]
    return CompressedEmbedding(
        method=METHOD_PCA,
        n=n,
        d_orig=d,
        k=k,
        reduced=reduced,
        basis_v=V.copy() if keep_v else None,
    )


def decompress(C: CompressedEmbedding) -> np.ndarray:
    """Dense reconstruction of a compressed embedding."""
    if C.method == METHOD_UNIFORM:
        codes = bitpack.unpack_codes(C.codes, C.d_orig, C.bits)
        return C.grid.values_for(codes)
    if C.method == METHOD_KMEANS:
        codes = bitpack.unpack_codes(C.codes, C.d_orig, C.bits)
        return C.codebook[codes]
    if C.basis_v is not None:
        return C.reduced @ C.basis_v.T
    return C.reduced.copy()
