"""Dense linear algebra primitives shared by the compression and measure code.

All functions are pure and operate on float64 numpy arrays.  Scalar
reductions (norms, inner products) go through :func:`det_sum`, a fixed-order
blocked pairwise summation, so repeated runs and different thread counts
produce bit-identical values.
"""

from __future__ import annotations

import hashlib
import weakref
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


def fro_norm(a) -> float:
    return float(np.sqrt(sq_fro_norm(a)))


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


# The last factorization: (key, factors, finalizer on the matrix it came
# from).  Each update is one assignment of an immutable tuple, so a race
# between threads or with a finalizer can only cost a miss, never pair a key
# with the wrong factors.
_last = None


def _forget(key=None) -> None:
    """Drop the remembered factorization; with ``key``, only if it is that entry's."""
    global _last
    entry = _last
    if entry is not None and (key is None or entry[0] is key):
        _last = None
        entry[2].detach()


def thin_svd(M) -> ThinSVD:
    """Thin SVD of a dense matrix.

    numpy's divide-and-conquer driver (gesdd) runs first; when it does not
    converge, scipy's QR-iteration driver (gesvd), slower but more robust,
    runs instead.  Raises :class:`LinalgError` only when both fail.

    The last factorization is remembered, keyed by the shape and the sha256
    of the float64 C-order bytes, so a caller that factors an unchanged
    matrix again gets the same factors back without a second SVD; a changed
    byte is a miss.  The factors are read-only, and the one entry holds them
    and not the matrix.  It is dropped when the matrix it was computed from
    is collected, so a temporary (such as a float32 input converted here) is
    never reused.
    """
    global _last
    M = as_matrix(M)
    key = (M.shape, hashlib.sha256(np.ascontiguousarray(M)).digest())
    entry = _last
    if entry is not None and entry[0] == key:
        return entry[1]
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
    for a in (U, s, Vt):
        a.flags.writeable = False
    f = ThinSVD(U=U, s=s, V=Vt.T)
    _forget()
    _last = (key, f, weakref.finalize(M, _forget, key))
    return f


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
