"""Dense linear algebra primitives shared by the compression and measure code.

All functions are pure and operate on float64 numpy arrays.  Scalar
reductions (norms, inner products) go through :func:`det_sum`, a fixed-order
blocked pairwise summation, so repeated runs and different thread counts
produce bit-identical values.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
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


def as_vector(a, name: str = "vector") -> np.ndarray:
    v = np.asarray(a, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def det_sum(a) -> float:
    """Sum of all entries in fixed row-major order.

    numpy reduces a contiguous 1-D float array with blocked (128-element)
    pairwise summation, which is deterministic for a fixed element order and
    independent of BLAS threading.  Routing every norm and inner product
    through here makes those reductions bit-identical across runs.
    """
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return float(np.sum(arr.ravel()))


def sq_fro_norm(a) -> float:
    """Squared Frobenius norm with deterministic summation order."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return det_sum(arr * arr)


def sq_fro_diff(a, b) -> float:
    """``sq_fro_norm(a - b)`` bit for bit, from one temporary squared in place."""
    diff = np.subtract(a, b, dtype=np.float64)
    return det_sum(np.multiply(diff, diff, out=diff))


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

    @property
    def r(self) -> int:
        return int(self.s.shape[0])

    def rank(self) -> int:
        """Numerical rank of the factored matrix."""
        return numerical_rank(self.s, max(self.U.shape[0], self.V.shape[0]))


def thin_svd(M) -> ThinSVD:
    """Thin SVD of a dense matrix.

    numpy's divide-and-conquer driver (gesdd) runs first; when it does not
    converge, scipy's QR-iteration driver (gesvd), slower but more robust,
    runs instead.  Raises :class:`LinalgError` only when both fail.

    Each call factors its input afresh.  Outside this module only
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
# :func:`well_conditioned_cholesky`).  Quantized and PCA candidates of
# Student-t or uniform bases estimate at 1 to 15; a rank-deficient one (PCA
# --keep-v, a zero column) fails the Cholesky or lands far above.
GRAM_MAX_COND = 1e3


@functools.cache
def _lapacke_dtrcon():
    """``LAPACKE_dtrcon`` of the ILP64 OpenBLAS bundled in numpy's wheel, or
    None when this numpy build has none; it spares importing scipy.linalg
    (about 0.25 s) for one call."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*scipy_openblas64*")):
        fn = getattr(ctypes.CDLL(path), "scipy_LAPACKE_dtrcon64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int64
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                           ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                           ctypes.POINTER(ctypes.c_double)]
            return fn
    return None


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


def well_conditioned_cholesky(G: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor L of G, or None when G is not numerically positive
    definite or cond_2(L) exceeds ``GRAM_MAX_COND``.

    cond(L) is first read from LAPACK's ``trcon`` estimate, about 0.2 ms at
    k = 300; only when the estimate is over the bound does a k x k SVD of L
    (about 11 ms) read cond_2(L) itself, so the estimate's overshoot never
    refuses a factor that passes.
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    if not _lower_rcond(L) * GRAM_MAX_COND >= 1.0:
        sv = np.linalg.svd(L, compute_uv=False)
        if not sv[-1] * GRAM_MAX_COND >= sv[0]:
            return None
    return L


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


def least_squares_solve(M, y) -> np.ndarray:
    """Minimizer of ``||M w - y||`` via the SVD pseudo-inverse.

    Requires numerically full column rank; fails otherwise, reporting the
    deficient rank.
    """
    M = as_matrix(M, "M")
    y = as_vector(y, "y")
    if y.size != M.shape[0]:
        raise ValueError(f"y has length {y.size}, expected {M.shape[0]}")
    f = thin_svd(M)
    r = numerical_rank(f.s, max(M.shape))
    if r < M.shape[1]:
        raise LinalgError(
            f"rank-deficient least-squares matrix: numerical rank {r} < {M.shape[1]} columns"
        )
    return f.V @ ((f.U.T @ y) / f.s)
