"""Compression-quality measures for a pair (X, Xt) of embedding matrices.

The central quantity is the eigenspace overlap score: the normalized squared
Frobenius norm of the inner product of the two left-singular-vector bases.
Also provided: PIP loss (Gram-matrix distance), plain and projected
reconstruction error, and the spectral approximation constants of the
lambda-regularized Gram pencil.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, ThinSVD, as_matrix, sq_fro_norm, thin_svd


class RankDeficiencyWarning(UserWarning):
    """An input matrix was numerically rank-deficient; retained singular
    vectors were used in place of the declared dimension's worth."""


@dataclass(frozen=True)
class QualityReport:
    """All quality measures for one (X, Xt) pair plus shape/rank metadata.

    ``reconstruction_error`` is None when the two matrices have different
    widths.  ``delta_max`` is +inf when delta1 reaches 1.
    """

    eigenspace_overlap: float
    pip_loss: float
    reconstruction_error: float | None
    projected_reconstruction_error: float
    delta1: float
    delta2: float
    delta: float
    delta_max: float
    lambda_used: float
    rank_x: int
    rank_xt: int
    n: int
    d: int
    k: int

    def value(self, measure: str):
        """Look up a measure by its report field name."""
        if measure not in MEASURE_NAMES:
            raise KeyError(f"unknown measure {measure!r}")
        return getattr(self, measure)


MEASURE_NAMES = (
    "eigenspace_overlap",
    "pip_loss",
    "reconstruction_error",
    "projected_reconstruction_error",
    "delta1",
    "delta2",
    "delta",
    "delta_max",
)


def _pair(X, Xt):
    """X and Xt as validated matrices with equal row counts."""
    X = as_matrix(X, "X")
    Xt = as_matrix(Xt, "Xt")
    if X.shape[0] != Xt.shape[0]:
        raise ValueError(f"row count mismatch: {X.shape[0]} vs {Xt.shape[0]}")
    return X, Xt


def _retained_basis(f: ThinSVD, name: str) -> np.ndarray:
    rank = f.rank()
    cols = f.V.shape[0]
    if rank < cols:
        warnings.warn(
            f"{name} is numerically rank-deficient (rank {rank} < {cols}); "
            "using the retained singular vectors",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    return f.U[:, :rank]


def _overlap_from_bases(U: np.ndarray, Ut: np.ndarray, d: int, k: int) -> float:
    return sq_fro_norm(U.T @ Ut) / max(d, k)


def eigenspace_overlap(X, Xt) -> float:
    """Overlap of the left-singular-vector spans, in [0, 1].

    Equals ||U^T Ut||_F^2 / max(d, k); 1 when the spans coincide, 0 when they
    are orthogonal.  Symmetric in its arguments.  Rank-deficient inputs fall
    back to their retained singular vectors with a warning; the declared
    column counts still normalize.
    """
    return PreparedBase(X).overlap(Xt)


def pip_loss(X, Xt) -> float:
    """Frobenius distance of the Gram matrices, ||X X^T - Xt Xt^T||_F.

    Computed from the small cross-Gram blocks so the n x n matrices are never
    materialized: ||XX^T||_F^2 = ||X^T X||_F^2 and the cross term is
    ||X^T Xt||_F^2.
    """
    X, Xt = _pair(X, Xt)
    sq = sq_fro_norm(X.T @ X) + sq_fro_norm(Xt.T @ Xt) - 2.0 * sq_fro_norm(X.T @ Xt)
    return math.sqrt(max(sq, 0.0))


def reconstruction_error(X, Xt) -> float:
    """||X - Xt||_F; the matrices must have identical shape."""
    X = as_matrix(X, "X")
    Xt = as_matrix(Xt, "Xt")
    if X.shape != Xt.shape:
        raise ValueError(
            f"reconstruction error needs identical shapes, got {X.shape} and {Xt.shape}"
        )
    return math.sqrt(sq_fro_norm(X - Xt))


def projected_reconstruction_error(X, Xt) -> float:
    """min over linear maps P of ||Xt P - X||_F^2, via the closed form
    ||X||_F^2 - ||Ut^T X||_F^2.  Requires Xt with full column rank."""
    X, Xt = _pair(X, Xt)
    ft = thin_svd(Xt)
    rank = ft.rank()
    if rank < Xt.shape[1]:
        raise LinalgError(
            f"Xt is rank-deficient (rank {rank} < {Xt.shape[1]} columns)"
        )
    return _projected_err_from_basis(X, ft.U[:, :rank])


def _projected_err_from_basis(X: np.ndarray, Ut: np.ndarray) -> float:
    return sq_fro_norm(X) - sq_fro_norm(Ut.T @ X)


def spectral_deltas(X, Xt, lam: float):
    """Tightest (delta1, delta2) with
    (1-delta1)(XX^T+lam I) <= Xt Xt^T + lam I <= (1+delta2)(XX^T+lam I)
    in the semidefinite order, plus delta = max of the two and
    delta_max = max(1/(1-delta1), delta2).

    The generalized eigenvalues mu of the pencil come from X's SVD, one QR
    and one small symmetric eigensolve; see :class:`PreparedBase`.
    delta_max is +inf when delta1 >= 1.
    """
    rep = PreparedBase(X).report(Xt, lam)
    return rep.delta1, rep.delta2, rep.delta, rep.delta_max


def _deltas(f: ThinSVD, Xt: np.ndarray, lam: float):
    # B = XX^T + lam I is diagonal in X's SVD, so B^{-1/2} is written down
    # from U and s: no second factorization of X and no Cholesky of B, whose
    # accuracy falls as cond(B) grows.
    # With Y = B^{-1/2} Xt and Z = U diag(s^2/(s^2+lam))^{1/2},
    # B^{-1/2} (Xt Xt^T + lam I) B^{-1/2} - I = Y Y^T - Z Z^T = W J W^T for
    # W = [Y | Z] = QR and J = diag(I_k, -I_d), so mu - 1 are the eigenvalues
    # of R J R^T, plus 0 on the complement of span(W) when n > rows of R.
    U, s = f.U, f.s
    s2 = s * s
    P = U.T @ Xt
    Y = U @ (P / np.sqrt(s2 + lam)[:, None]) + (Xt - U @ P) / math.sqrt(lam)
    W = np.hstack([Y, U * np.sqrt(s2 / (s2 + lam))])
    R = np.linalg.qr(W, mode="r")
    J = np.concatenate([np.ones(Xt.shape[1]), -np.ones(U.shape[1])])
    eigs = np.linalg.eigvalsh((R * J) @ R.T)  # mu - 1, ascending
    if not np.all(np.isfinite(eigs)):
        raise LinalgError(f"spectral deltas overflow float64 at lambda={lam:g}")
    lo, hi = float(eigs[0]), float(eigs[-1])
    if Xt.shape[0] > R.shape[0]:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    # written so that an exact zero comes out as +0.0, never -0.0
    delta1 = 0.0 - lo
    delta2 = hi + 0.0
    delta = max(delta1, delta2)
    delta_max = math.inf if delta1 >= 1.0 else max(1.0 / (1.0 - delta1), delta2)
    return delta1, delta2, delta, delta_max


def quality_report(X, Xt, lam: float | None = None) -> QualityReport:
    """Compute every measure for the pair, sharing one SVD per input.

    ``lam`` defaults to the smallest nonzero Gram eigenvalue of X.
    Rank-deficient inputs use their retained singular vectors (with a
    warning); the recorded ranks make that auditable.
    """
    return PreparedBase(X).report(Xt, lam)


class PreparedBase:
    """A base matrix X factored once, to score any number of candidates.

    Holds the thin SVD of X, its numerical rank and its retained left
    singular basis.  Each candidate Xt then costs one SVD of Xt.  The
    spectral deltas add one QR and one small symmetric eigensolve: B =
    XX^T + lam I is diagonal in X's SVD, so B^{-1/2} is explicit, and the
    eigenvalues of B^{-1/2} (Xt Xt^T + lam I) B^{-1/2} - I are those of
    R J R^T, with R the triangular factor of the n x (k+d) matrix
    [B^{-1/2} Xt | U diag(s^2/(s^2+lam))^{1/2}] and J = diag(I_k, -I_d),
    plus 0 when n exceeds k+d.
    """

    def __init__(self, X):
        self.X = as_matrix(X, "X")
        self.svd = thin_svd(self.X)
        self.rank = self.svd.rank()
        self.U = _retained_basis(self.svd, "X")

    def _candidate(self, Xt):
        """Xt validated against X, with its rank and retained basis."""
        _, Xt = _pair(self.X, Xt)
        ft = thin_svd(Xt)
        return Xt, ft.rank(), _retained_basis(ft, "Xt")

    def resolve_lambda(self, lam: float | None = None) -> float:
        """``lam`` checked positive; None picks X's smallest nonzero Gram eigenvalue."""
        if lam is None:
            if self.rank == 0:
                raise ValueError("zero matrix has no nonzero Gram eigenvalue")
            lam = self.svd.s[self.rank - 1] ** 2
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError(f"lambda must be positive, got {lam}")
        return float(lam)

    def overlap(self, Xt) -> float:
        """Eigenspace overlap of X and Xt; see :func:`eigenspace_overlap`."""
        Xt, _, Ut = self._candidate(Xt)
        return float(_overlap_from_bases(self.U, Ut, self.X.shape[1], Xt.shape[1]))

    def report(self, Xt, lam: float | None = None) -> QualityReport:
        """Every measure for (X, Xt); see :func:`quality_report`."""
        X = self.X
        Xt, rank_xt, Ut = self._candidate(Xt)
        n, d = X.shape
        k = Xt.shape[1]
        lam = self.resolve_lambda(lam)
        delta1, delta2, delta, delta_max = _deltas(self.svd, Xt, lam)
        recon = reconstruction_error(X, Xt) if X.shape == Xt.shape else None
        return QualityReport(
            eigenspace_overlap=float(_overlap_from_bases(self.U, Ut, d, k)),
            pip_loss=pip_loss(X, Xt),
            reconstruction_error=recon,
            projected_reconstruction_error=max(_projected_err_from_basis(X, Ut), 0.0),
            delta1=delta1,
            delta2=delta2,
            delta=delta,
            delta_max=delta_max,
            lambda_used=lam,
            rank_x=self.rank,
            rank_xt=rank_xt,
            n=n,
            d=d,
            k=k,
        )
