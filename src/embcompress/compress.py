"""Compression methods for dense embedding matrices.

Three methods are implemented: uniform quantization with a searched clip
threshold, scalar k-means codebook compression, and PCA truncation.  The
lossy representations all decompress back to a dense float64 matrix.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bitpack
from .linalg import LinalgError, as_matrix, fro_norm, numerical_rank, thin_svd
from .rng import CounterRng

METHOD_UNIFORM = "uniform"
METHOD_KMEANS = "kmeans"
METHOD_PCA = "pca"
METHODS = (METHOD_UNIFORM, METHOD_KMEANS, METHOD_PCA)

ROUNDING_DETERMINISTIC = "deterministic"
ROUNDING_STOCHASTIC = "stochastic"
ROUNDINGS = (ROUNDING_DETERMINISTIC, ROUNDING_STOCHASTIC)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuantizationGrid:
    """Symmetric uniform grid of 2**bits levels spanning [-clip, clip]."""

    bits: int
    clip: float

    def __post_init__(self):
        if not 1 <= int(self.bits) <= 31:
            raise ValueError(f"bits must be in [1, 31], got {self.bits}")
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
    """Clip the 2-D array X to [-grid.clip, grid.clip] and round each entry
    to a grid level index (uint32).

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


def _prefix_sums(x: np.ndarray, power: int) -> np.ndarray:
    """Compensated prefix sums of ``x**power`` (power 1 or 2), a
    (2, len(x) + 1) array: row 0 is the sequential running sum and row 1 the
    running sum of its rounding errors, each taken exactly with TwoSum
    (Knuth, TAOCP vol. 2, 4.2.2).  The sum of a run ``i:j`` is then
    ``(p[0, j] - p[0, i]) + (p[1, j] - p[1, i])``, to a few ulps of that sum
    rather than of the running total.  Chunked, so the temporaries stay
    small; a chunk's running sums start from the carry, so both rows equal
    one sequential ``cumsum``."""
    p = np.zeros((2, x.size + 1))
    hi, lo = p
    for i in range(0, x.size, _PREFIX_CHUNK):
        v = x[i : i + _PREFIX_CHUNK] if power == 1 else np.square(x[i : i + _PREFIX_CHUNK])
        j = i + v.size
        np.cumsum(np.concatenate((hi[i : i + 1], v)), out=hi[i : j + 1])
        prev, total = hi[i:j], hi[i + 1 : j + 1]
        b = total - prev
        err = total - b
        np.subtract(prev, err, out=err)
        np.subtract(v, b, out=b)
        np.add(err, b, out=err)
        np.cumsum(np.concatenate((lo[i : i + 1], err)), out=lo[i : j + 1])
    return p


@dataclass(frozen=True)
class _SortedScalars:
    """All scalars of an array in ascending order, ``x``, with the
    compensated prefix sums (:func:`_prefix_sums`) of x and of x**2, so the
    count, sum and sum of squares of any run ``x[i:j]`` take O(1)."""

    x: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def segments(self, bounds: np.ndarray):
        """``(counts, sums, sums of squares)`` of the runs
        ``x[bounds[t]:bounds[t + 1]]``."""
        d1 = np.diff(self.s1[:, bounds])
        d2 = np.diff(self.s2[:, bounds])
        return np.diff(bounds), d1[0] + d1[1], d2[0] + d2[1]


def _sort_scalars(values) -> _SortedScalars:
    x = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    return _SortedScalars(x, _prefix_sums(x, 1), _prefix_sums(x, 2))


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

    The scalars are sorted once, when the objective is made.  Up to 8 bits
    an evaluation then bisects each level's run of sorted values and reads
    its error off the prefix sums, O(2**bits * log(n*d)); wider grids take
    one pass over the sorted values.
    """
    ss = _sort_scalars(as_matrix(X))
    row = ss.x.reshape(1, -1)
    # entries beyond 1e154 overflow x^2, and inf - inf would turn the
    # moment form into NaN where the direct sum reads inf
    moments = bool(np.isfinite(ss.s2[0, -1]))

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


def find_clip_threshold(X, bits: int, tol: float = 0.01, method: str = "golden") -> float:
    """Clip threshold minimizing the deterministic quantized reconstruction
    error over [0, max|X|].

    ``method="golden"`` is golden-section search that assumes a unimodal
    objective and localizes the minimizer to within ``tol``;
    ``method="grid"`` is a 1000-point sweep fallback for verification.
    """
    X = as_matrix(X)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    xmax = float(np.max(np.abs(X)))
    if xmax == 0.0:
        raise ValueError("all-zero matrix has no meaningful clip threshold")
    f = quantization_objective(X, bits)

    if method == "grid":
        rs = np.linspace(xmax / 1000.0, xmax, 1000)
        vals = [f(float(r)) for r in rs]
        return float(rs[int(np.argmin(vals))])
    if method != "golden":
        raise ValueError(f"unknown clip search method {method!r}")

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
            if not 1 <= self.bits <= 16:
                raise ValueError(f"kmeans bits must be in [1, 16], got {self.bits}")
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


def _row_chunks(n: int, threads: int):
    threads = max(1, min(int(threads), n))
    step = (n + threads - 1) // threads
    return [(i, min(i + step, n)) for i in range(0, n, step)]


def compress_uniform(
    X,
    bits: int,
    rounding: str = ROUNDING_DETERMINISTIC,
    seed: int = 0,
    tol: float = 0.01,
    threads: int = 1,
) -> CompressedEmbedding:
    """Clip-search uniform quantization.

    Finds the clip threshold minimizing deterministic quantized
    reconstruction error, clips, then quantizes every entry with the chosen
    rounding mode.  The search always uses deterministic rounding so the
    threshold does not depend on the stochastic coin flips.  Output is
    byte-identical for any ``threads`` value.
    """
    X = as_matrix(X)
    if rounding not in ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}")
    grid = QuantizationGrid(bits, find_clip_threshold(X, bits, tol=tol))
    rng = CounterRng(seed)

    def encode(span):
        i0, i1 = span
        codes = quantize_codes(X[i0:i1], grid, rounding, rng, row0=i0)
        return bitpack.pack_codes(codes, bits)

    chunks = _row_chunks(X.shape[0], threads)
    if len(chunks) == 1:
        packed = encode(chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            packed = np.vstack(list(pool.map(encode, chunks)))
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


def _optimal_contiguous_centroids(ss: _SortedScalars, K: int) -> np.ndarray:
    """Exact 1-D k-means by dynamic programming over contiguous partitions of
    the sorted values (the optimum always respects sorted order).  O(K n^2),
    so only used as seeding for small inputs."""
    n = ss.x.size
    s, sq = ss.s1[0], ss.s2[0]
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
    return np.array(
        [ss.x[bounds[t] : bounds[t + 1]].mean() for t in range(K)]
    )


_EXACT_SEED_MAX_N = 1024
_EXACT_SEED_MAX_K = 32


def kmeans_1d(values, K: int, max_iter: int = 300, rel_tol: float = 1e-4):
    """Lloyd iterations on scalars with deterministic seeding.

    Returns ``(centroids, assignments)`` with centroids sorted ascending.
    Stops when the relative loss decrease drops below ``rel_tol`` or after
    ``max_iter`` iterations.  A cluster that loses all members keeps its
    centroid for that iteration, so the loss stays monotone.

    Seeding: small inputs get the exact contiguous-partition optimum (Lloyd
    then converges immediately, and the result is within any constant factor
    of optimal); larger inputs are seeded at the ((j+0.5)/K)-quantiles, where
    the dense value distribution makes Lloyd reliable.  Both seeds are
    deterministic functions of the data.

    The values are sorted once: each cluster is then a run of the sorted
    values, found by K - 1 binary searches, and its centroid and loss come
    from prefix sums, so an iteration costs O(K log n).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain NaN or Inf entries")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")

    if K < values.size and values.size <= _EXACT_SEED_MAX_N and K <= _EXACT_SEED_MAX_K:
        centroids = _optimal_contiguous_centroids(_sort_scalars(values), K)
    else:
        centroids = np.quantile(values, (np.arange(K) + 0.5) / K)
    centroids.sort()
    # after the seeding: np.quantile copies its input
    ss = _sort_scalars(values)
    prev_loss = None
    for _ in range(max_iter):
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
            if prev_loss <= 0.0 or (prev_loss - loss) / prev_loss < rel_tol:
                break
        prev_loss = loss
    del ss  # before the n-long assignment array
    mids = 0.5 * (centroids[:-1] + centroids[1:])
    assign = np.searchsorted(mids, values, side="left")
    return centroids, assign


def compress_kmeans(X, bits: int, seed: int = 0) -> CompressedEmbedding:
    """Codebook compression: 1-D k-means over all scalars with K = 2**bits.

    The quantile seeding makes the clustering deterministic; ``seed`` is
    recorded for provenance only.
    """
    X = as_matrix(X)
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16] for kmeans, got {bits}")
    centroids, assign = kmeans_1d(X.ravel(), 1 << bits)
    codes = assign.reshape(X.shape).astype(np.uint32)
    return CompressedEmbedding(
        method=METHOD_KMEANS,
        n=X.shape[0],
        d_orig=X.shape[1],
        seed=seed,
        bits=bits,
        codes=bitpack.pack_codes(codes, bits),
        codebook=centroids,
    )


def compress_pca(X, k: int, keep_v: bool = False) -> CompressedEmbedding:
    """Rank-k truncation: keep the k leading left singular vectors scaled by
    their singular values; with ``keep_v`` the right factor is stored too and
    decompression returns an n x d_orig matrix."""
    X = as_matrix(X)
    if not 1 <= k <= X.shape[1]:
        raise ValueError(f"k must be in [1, {X.shape[1]}], got {k}")
    f = thin_svd(X)
    rank = numerical_rank(f.s, max(X.shape))
    if k > rank:
        raise LinalgError(f"requested k={k} exceeds the numerical rank {rank}")
    reduced = f.U[:, :k] * f.s[:k]
    return CompressedEmbedding(
        method=METHOD_PCA,
        n=X.shape[0],
        d_orig=X.shape[1],
        k=k,
        reduced=reduced,
        basis_v=f.V[:, :k].copy() if keep_v else None,
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
