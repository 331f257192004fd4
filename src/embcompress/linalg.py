"""Dense linear algebra primitives shared by the compression and measure code.

All functions are pure and operate on float64 numpy arrays.  Scalar
reductions (norms, inner products) go through :func:`det_sum`, a fixed-order
blocked pairwise summation, so repeated runs and different thread counts
produce bit-identical values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class LinalgError(RuntimeError):
    """A numerical operation failed: non-convergence, rank deficiency, or an
    indefinite pencil."""


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


def thin_svd(M) -> ThinSVD:
    """Thin SVD of a dense matrix.

    numpy's divide-and-conquer driver (gesdd) runs first; when it does not
    converge, scipy's QR-iteration driver (gesvd), slower but more robust,
    runs instead.  Raises :class:`LinalgError` only when both fail.
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


def joint_orthonormal_basis(U, W) -> np.ndarray:
    """Orthonormal basis of span(U) + span(W) for inputs with orthonormal
    columns and a shared row count.

    Built from the SVD of the concatenation [U | W], keeping the
    numerical-rank leading left singular vectors; this stays stable when the
    two blocks share near-parallel directions.
    """
    U = as_matrix(U, "U")
    W = as_matrix(W, "W")
    if U.shape[0] != W.shape[0]:
        raise ValueError(f"row count mismatch: {U.shape[0]} vs {W.shape[0]}")
    C = np.hstack([U, W])
    f = thin_svd(C)
    m = numerical_rank(f.s, max(C.shape))
    return f.U[:, :m]


def sym_generalized_eigs(A, B) -> np.ndarray:
    """Eigenvalues of the symmetric-definite pencil ``A v = mu B v``,
    ascending.

    ``A`` must be symmetric and ``B`` positive definite; when the Cholesky
    factorization of ``B`` fails, the error names the failed pivot (0-based).
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ValueError(f"A and B must be square with equal shape, got {A.shape} and {B.shape}")
    scale = max(1.0, float(np.max(np.abs(A))))
    if float(np.max(np.abs(A - A.T))) > 1e-10 * scale:
        raise ValueError("A is not symmetric within 1e-10")
    import scipy.linalg

    try:
        return scipy.linalg.eigh(A, B, eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        # scipy reports the failed Cholesky step as a 1-based leading minor
        order = re.search(r"leading minor of order (\d+)", str(exc))
        if order is None:
            raise LinalgError(f"generalized eigenproblem failed: {exc}") from exc
        raise LinalgError(
            f"matrix is not positive definite: pivot {int(order.group(1)) - 1}"
        ) from exc


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
