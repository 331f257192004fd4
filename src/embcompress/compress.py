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
from .linalg import LinalgError, as_matrix, det_sum, fro_norm, numerical_rank, thin_svd
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
    t = (np.clip(X, -grid.clip, grid.clip) + grid.clip) / grid.spacing
    if rounding == ROUNDING_DETERMINISTIC:
        codes = np.floor(t + 0.5)  # midpoint ties round toward +inf
        return np.clip(codes, 0, grid.num_levels - 1).astype(np.uint32)
    if rng is None:
        raise ValueError("stochastic rounding needs an rng")
    np.clip(t, 0.0, grid.num_levels - 1.0, out=t)
    low = np.floor(t)
    u = rng.uniform_block(X.shape[0], X.shape[1], row0=row0)
    codes = low.astype(np.uint32) + (u < t - low)
    return np.clip(codes, 0, grid.num_levels - 1, out=codes)


def quantization_objective(X, bits: int):
    """Reconstruction error r -> ||quantize(clip(X, r)) - X||_F with
    deterministic rounding; the function minimized by the clip search."""
    X = as_matrix(X)

    def objective(r: float) -> float:
        if r <= 0.0:
            return fro_norm(X)
        grid = QuantizationGrid(bits, float(r))
        q = grid.values_for(quantize_codes(X, grid))
        return fro_norm(q - X)

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
    clip_search: str = "golden",
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
    grid = QuantizationGrid(bits, find_clip_threshold(X, bits, tol=tol, method=clip_search))
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


def _optimal_contiguous_centroids(sorted_vals: np.ndarray, K: int) -> np.ndarray:
    """Exact 1-D k-means by dynamic programming over contiguous partitions of
    the sorted values (the optimum always respects sorted order).  O(K n^2),
    so only used as seeding for small inputs."""
    n = sorted_vals.size
    s = np.concatenate([[0.0], np.cumsum(sorted_vals)])
    sq = np.concatenate([[0.0], np.cumsum(sorted_vals * sorted_vals)])
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
        [sorted_vals[bounds[t] : bounds[t + 1]].mean() for t in range(K)]
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
    prev_loss = None
    assign = np.zeros(values.shape, dtype=np.int64)
    for _ in range(max_iter):
        mids = 0.5 * (centroids[:-1] + centroids[1:])
        assign = np.searchsorted(mids, values, side="left")
        counts = np.bincount(assign, minlength=K)
        sums = np.bincount(assign, weights=values, minlength=K)
        nonempty = counts > 0
        centroids = centroids.copy()
        centroids[nonempty] = sums[nonempty] / counts[nonempty]
        centroids.sort()
        loss = det_sum((values - centroids[assign]) ** 2)
        if prev_loss is not None:
            if prev_loss <= 0.0 or (prev_loss - loss) / prev_loss < rel_tol:
                break
        prev_loss = loss
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
