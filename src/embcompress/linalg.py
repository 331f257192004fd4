"""Dense linear algebra primitives shared by the compression and measure code.

All functions are pure and operate on float64 numpy arrays.  Scalar
reductions (norms, inner products) go through :func:`det_sum`, a fixed-order
blocked pairwise summation, so repeated runs and different thread counts
produce bit-identical values.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class LinalgError(RuntimeError):
    """A numerical operation failed: non-convergence, rank deficiency or
    overflow."""


_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a non-empty, all-finite float64 2-D array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def det_sum(a) -> float:
    """Sum of all entries in fixed row-major order.

    numpy reduces a contiguous 1-D float array with blocked (128-element)
    pairwise summation, which is deterministic for a fixed element order and
    independent of BLAS threading.  Routing every norm and inner product
    through here makes those reductions bit-identical across runs.
    """
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return float(np.sum(arr.ravel()))


# the encoders, the theory lab's generators, the norms and the blocked QR
# work on about this many scalars at a time
_BLOCK_SCALARS = 1 << 16


def _row_blocks(n: int, d: int, min_rows: int = 1) -> list[tuple[int, int]]:
    """``(i0, i1)`` of the blocks of whole rows, about ``_BLOCK_SCALARS``
    scalars and at least ``min_rows`` rows each, that cover an n x d array."""
    rows = max(min_rows, _BLOCK_SCALARS // max(d, 1), 1)
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


def _as_rows(a) -> np.ndarray:
    """``a`` as float64, its trailing axes flattened into columns."""
    arr = np.asarray(a, dtype=np.float64)
    return arr.reshape(arr.shape[0] if arr.ndim else 1, -1 if arr.size else 0)


def _sq_sum(x: np.ndarray, y: np.ndarray | None = None) -> float:
    """The sum of the squares of x, or of x - y, formed one :func:`_row_blocks`
    block at a time in one reused buffer; each block is summed by
    :func:`det_sum` and the partial sums in block order."""
    buf, parts = None, []
    for i0, i1 in _row_blocks(*x.shape):
        if buf is None:  # the first block is the largest
            buf = np.empty((i1 - i0, x.shape[1]))
        t = buf[: i1 - i0]
        if y is None:
            np.multiply(x[i0:i1], x[i0:i1], out=t)
        else:
            np.subtract(x[i0:i1], y[i0:i1], out=t)
            np.multiply(t, t, out=t)
        parts.append(det_sum(t))
    return det_sum(np.array(parts))


def sq_fro_norm(a) -> float:
    """Squared Frobenius norm with deterministic summation order, reduced in
    row blocks: no temporary outgrows one block."""
    return _sq_sum(_as_rows(a))


def sq_fro_diff(a, b) -> float:
    """``sq_fro_norm(a - b)`` bit for bit, for ``a`` and ``b`` of one shape,
    with no whole-matrix difference formed."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"shape mismatch: {np.shape(a)} and {np.shape(b)}")
    return _sq_sum(_as_rows(a), _as_rows(b))


def fro_norm(a) -> float:
    return float(np.sqrt(sq_fro_norm(a)))


def max_abs(a) -> float:
    """max |a_ij| of a non-empty, all-finite array, read from its largest and
    smallest entries: no |a| temporary."""
    return float(max(np.max(a), -np.min(a)))


@dataclass(frozen=True)
class ThinSVD:
    """Thin SVD factors: ``U`` (n, r) and ``V`` (d, r) have orthonormal
    columns, ``s`` is non-negative and non-increasing."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    def rank(self) -> int:
        """Numerical rank of the factored matrix."""
        return numerical_rank(self.s, max(self.U.shape[0], self.V.shape[0]))


def thin_svd(M) -> ThinSVD:
    """Thin SVD of a dense matrix.

    numpy's divide-and-conquer driver (gesdd) runs first; when it does not
    converge, scipy's QR-iteration driver (gesvd), slower but more robust,
    runs instead.  Raises :class:`LinalgError` only when both fail.

    Each call factors its input afresh.  Only
    :class:`~embcompress.measures.PreparedBase` calls it, for a base or a
    candidate that fails the Gram path; code that needs a matrix's factors
    more than once holds that PreparedBase instead of calling again.
    """
    M = as_matrix(M)
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as gesdd_exc:
        import scipy.linalg

        try:
            U, s, Vt = scipy.linalg.svd(
                M, full_matrices=False, check_finite=False, lapack_driver="gesvd"
            )
        except np.linalg.LinAlgError as exc:
            raise LinalgError(
                f"SVD failed to converge for {M.shape[0]}x{M.shape[1]} matrix with "
                f"gesdd ({gesdd_exc}) and gesvd ({exc})"
            ) from exc
    return ThinSVD(U=U, s=s, V=Vt.T)


# Largest condition number of a tall matrix M at which it is factored or
# scored through its Gram matrix M^T M = L L^T instead of an SVD of M.
# Forming M^T M squares the condition number, so results taken from it carry
# errors that grow like cond(M)^2 * eps, the CholeskyQR bound (Yamamoto et
# al., 2015).  Swept against the SVD path on 10000-row Student-t bases with
# candidates whose singular values spread over cond(L) under a random
# rotation, the overlap error was 2e-15 at cond 1e2, 2e-13 at 1e3, 2e-11 at
# 1e4 and 2e-10 at 3e4.  1e3 keeps three decades below the 1e-10 the oracle
# tests allow.  A base's cond(M) comes from the eigenvalues :func:`gram_eigh`
# computes anyway; a candidate's cond(L) from LAPACK's 1-norm estimate
# ``trcon``, confirmed by an SVD of L when it reads over the bound (see
# :func:`gram_cholesky`).  Quantized and PCA candidates of
# Student-t or uniform bases estimate at 1 to 15; a rank-deficient one (PCA
# --keep-v, a zero column) fails the Cholesky or lands far above.
GRAM_MAX_COND = 1e3


@functools.cache
def _openblas():
    """The ILP64 OpenBLAS bundled in numpy's wheel, as a ``ctypes.CDLL``, or
    None when this numpy build has none."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "*scipy_openblas64*"))
    return ctypes.CDLL(paths[0]) if paths else None


@functools.cache
def _lapacke_dtrcon():
    """``LAPACKE_dtrcon`` of :func:`_openblas`, or None when it is missing;
    it spares importing scipy.linalg (about 0.25 s) for one call."""
    fn = getattr(_openblas(), "scipy_LAPACKE_dtrcon64_", None)
    if fn is not None:
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                       ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                       ctypes.POINTER(ctypes.c_double)]
    return fn


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with :func:`_openblas` on one thread, and restore its
    thread count on exit, also when the body raises; where that library or
    its thread-count functions are missing, do nothing.  OpenBLAS threads a
    small QR at a loss: a 10000 x 100 tall-skinny QR in 65,536-scalar blocks
    took 76 ms at 2 threads and 36 ms at 1 on a 2-core machine.  The count
    is process-wide, so other threads' BLAS calls run on one thread too
    while the body runs."""
    lib = _openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        yield
        return
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def _lower_rcond(L: np.ndarray) -> float:
    """LAPACK's estimate of 1 / cond_1(L) for a lower-triangular L."""
    L = np.ascontiguousarray(L, dtype=np.float64)
    k = L.shape[0]
    fn = _lapacke_dtrcon()
    if fn is None:
        import scipy.linalg.lapack

        rcond, info = scipy.linalg.lapack.dtrcon(L, norm="1", uplo="L", diag="N")
    else:
        out = ctypes.c_double()
        # 101 is LAPACK_ROW_MAJOR: L is read in place as C-ordered
        info = fn(101, b"1", b"L", b"N", k, L.ctypes.data, k, ctypes.byref(out))
        rcond = out.value
    if info != 0:
        raise LinalgError(f"dtrcon failed with info={info} on a {k}x{k} factor")
    return float(rcond)


def gram_cholesky(G: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(L, None)`` for the Cholesky factor L of G when cond_2(L) is within
    ``GRAM_MAX_COND``; ``(L, s)``, with L's singular values s, when
    cond_2(L) = s[0] / s[-1] exceeds it; ``(None, None)`` when G is not
    numerically positive definite.

    cond(L) is first read from LAPACK's ``trcon`` estimate, about 0.2 ms at
    k = 300; only when the estimate is over the bound does a k x k SVD of L
    (about 11 ms) read cond_2(L) itself, so the estimate's overshoot never
    refuses a factor that passes.
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None, None
    if not _lower_rcond(L) * GRAM_MAX_COND >= 1.0:
        sv = np.linalg.svd(L, compute_uv=False)
        if not sv[-1] * GRAM_MAX_COND >= sv[0]:
            return L, sv
    return L, None


def gram_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(s, V)`` with ``s`` non-increasing and A = V diag(s^2) V^T, from the
    symmetric eigensolve of the Gram matrix A = M^T M of an M no wider than
    tall; None when cond(M) = s[0] / s[-1] exceeds ``GRAM_MAX_COND`` (M
    ill conditioned or rank-deficient) or the eigensolve fails.

    ``s`` and V are M's singular values and right singular vectors, with M's
    left ones M V diag(1/s) never formed.  Each column of V is determined up
    to its sign, which need not match an SVD's.  The eigenvalues carry an
    absolute error of about eps * s[0]^2, far below the s[0]^2 / 1e6 the
    test admits, so cond(M) is read exactly and no estimate is needed.
    """
    if not np.all(np.isfinite(A)):  # M^T M overflowed
        return None
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError:
        return None
    if not (w[0] > 0.0 and w[0] * GRAM_MAX_COND**2 >= w[-1]):
        return None
    return np.sqrt(w[::-1]), np.ascontiguousarray(V[:, ::-1])


def tsqr_r(blocks) -> np.ndarray:
    """The R factor of the matrix stacked from the row blocks that
    ``blocks`` yields, in order, by a sequential tall-skinny QR (Demmel,
    Grigori, Hoemmen & Langou, 2012): each block is QR-factored under the R
    factor of the blocks before it, so no more than one block and one k x k
    factor exist at a time.  R^T R equals the whole matrix's, to rounding;
    R has min(rows, k) rows, and each row's sign may differ from a single
    QR's.  Blocks of at least about 2k rows keep the refactored R a small
    share of the work.  Each block's QR runs under :func:`one_blas_thread`."""
    R = None
    for B in blocks:
        if R is not None:
            # rebinding B lets a block made only for this call be freed before its QR
            B = np.vstack((R, B))
        with one_blas_thread():
            R = np.linalg.qr(B, mode="r")
    return R


def numerical_rank(s, m: int) -> int:
    """Count singular values above ``s[0] * m * machine_epsilon``.

    ``m`` is the larger dimension of the factored matrix.  Returns 0 for an
    all-zero spectrum.
    """
    s = np.asarray(s, dtype=np.float64).ravel()
    if s.size == 0 or s[0] <= 0.0:
        return 0
    tol = s[0] * m * _EPS
    return int(np.count_nonzero(s > tol))

