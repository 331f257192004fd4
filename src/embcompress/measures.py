"""Compression-quality measures for a pair (X, Xt) of embedding matrices.

The central quantity is the eigenspace overlap score: the normalized squared
Frobenius norm of the inner product of the two left-singular-vector bases.
Also provided: PIP loss (Gram-matrix distance), plain and projected
reconstruction error, and the spectral approximation constants of the
lambda-regularized Gram pencil.
"""

from __future__ import annotations

import math
import os
import sys
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

    ``projected_reconstruction_error`` is min over linear maps P of
    ||Xt P - X||_F^2, clamped at 0.  ``delta1`` and ``delta2`` are the
    tightest constants with
    (1-delta1)(XX^T+lam I) <= Xt Xt^T + lam I <= (1+delta2)(XX^T+lam I)
    in the semidefinite order, ``delta`` the larger of the two and
    ``delta_max`` = max(1/(1-delta1), delta2), +inf when delta1 reaches 1.
    ``reconstruction_error`` is None when the two matrices have different
    widths.
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


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _caller_stacklevel() -> int:
    """The ``stacklevel`` that makes a warning issued by the caller of this
    function point at the first frame outside the embcompress package.
    (``warnings.warn(skip_file_prefixes=...)`` would do this from Python 3.12.)"""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    return level


def _retained_basis(f: ThinSVD, name: str) -> np.ndarray:
    rank = f.rank()
    cols = f.V.shape[0]
    if rank < cols:
        warnings.warn(
            f"{name} is numerically rank-deficient (rank {rank} < {cols}); "
            "using the retained singular vectors",
            RankDeficiencyWarning,
            stacklevel=_caller_stacklevel(),
        )
    return f.U[:, :rank]


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
    return _pip_from_blocks(sq_fro_norm(X.T @ X), Xt.T @ Xt, X.T @ Xt)


def _pip_from_blocks(sq_gram_x: float, G: np.ndarray, C: np.ndarray) -> float:
    """PIP loss from ||X^T X||_F^2, G = Xt^T Xt and C = X^T Xt."""
    sq = sq_gram_x + sq_fro_norm(G) - 2.0 * sq_fro_norm(C)
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


def _deltas(f: ThinSVD, Xt: np.ndarray, lam: float, P: np.ndarray | None = None):
    # B = XX^T + lam I is diagonal in X's SVD, so B^{-1/2} is written down
    # from U and s: no second factorization of X and no Cholesky of B, whose
    # accuracy falls as cond(B) grows.
    # With Y = B^{-1/2} Xt and Z = U diag(s^2/(s^2+lam))^{1/2},
    # B^{-1/2} (Xt Xt^T + lam I) B^{-1/2} - I = Y Y^T - Z Z^T = W J W^T for
    # W = [Y | Z] and J = diag(I_k, -I_d).  Splitting Xt = U P + E with E
    # orthogonal to U, and E = Q_e R_e,
    # W = [U | Q_e] [[P/sqrt(s^2+lam), diag(s^2/(s^2+lam))^{1/2}], [R_e/sqrt(lam), 0]]
    # with orthonormal [U | Q_e], so W = QR only needs the QR of the n x k
    # residual and of that small matrix.  mu - 1 are the eigenvalues of
    # R J R^T, plus 0 on the complement of span(W) when n > rows of R.
    # ``P`` is U^T Xt when the caller already holds it.
    U, s = f.U, f.s
    d, k = U.shape[1], Xt.shape[1]
    s2 = s * s
    P = U.T @ Xt if P is None else P.copy()
    E = Xt - U @ P
    # one re-orthogonalisation pass keeps E orthogonal to U to working precision
    C = U.T @ E
    E -= U @ C
    P += C
    Re = np.linalg.qr(E, mode="r")
    M = np.zeros((d + Re.shape[0], k + d))
    M[:d, :k] = P / np.sqrt(s2 + lam)[:, None]
    M[:d, k:] = np.diag(np.sqrt(s2 / (s2 + lam)))
    M[d:, :k] = Re / math.sqrt(lam)
    R = np.linalg.qr(M, mode="r")
    J = np.concatenate([np.ones(k), -np.ones(d)])
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
    """Compute every measure for the pair, factoring X once; see
    :class:`PreparedBase` for what the candidate costs.

    ``lam`` defaults to the smallest nonzero Gram eigenvalue of X.
    Rank-deficient inputs use their retained singular vectors (with a
    warning); the recorded ranks make that auditable.
    """
    return PreparedBase(X).report(Xt, lam)


# Largest cond(L) = cond(Xt) at which a candidate is scored from its Gram
# matrix G = Xt^T Xt = L L^T.  Forming G squares the condition number, so the
# Gram-path measures carry errors that grow like cond(L)^2 * eps, the
# CholeskyQR bound (Yamamoto et al., 2015).  Swept against the SVD path on
# 10000-row Student-t bases with candidates whose singular values spread over
# cond(L) under a random rotation, the overlap error was 2e-15 at cond 1e2,
# 2e-13 at 1e3, 2e-11 at 1e4 and 2e-10 at 3e4.  1e3 keeps three decades
# below the 1e-10 the oracle tests allow; quantized and PCA candidates sit
# near cond 1 to 2, and a rank-deficient one (PCA --keep-v, a zero column)
# fails the Cholesky or lands far above.
_GRAM_MAX_COND = 1e3


@dataclass(frozen=True)
class _Candidate:
    """A candidate validated against the base, with the products its
    measures share.  On the Gram path ``L`` is the Cholesky factor of
    G = Xt^T Xt and ``P`` = U^T Xt; on the SVD path ``Ut`` is Xt's retained
    left singular basis."""

    Xt: np.ndarray
    rank: int
    G: np.ndarray
    L: np.ndarray | None = None
    P: np.ndarray | None = None
    Ut: np.ndarray | None = None


def _well_conditioned_cholesky(G: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor L of G, or None when G is not numerically positive
    definite or cond(L) exceeds ``_GRAM_MAX_COND``."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    sv = np.linalg.svd(L, compute_uv=False)
    if not sv[-1] * _GRAM_MAX_COND >= sv[0]:
        return None
    return L


class PreparedBase:
    """A base matrix X factored once, to score any number of candidates.

    Holds the thin SVD of X, its numerical rank, its retained left singular
    basis U and the squared norms ||X||_F^2 and ||X^T X||_F^2.

    A candidate Xt (n x k, k <= n) whose Gram matrix G = Xt^T Xt has a
    Cholesky factor L with cond(L) <= ``_GRAM_MAX_COND`` takes no SVD: Xt
    L^{-T} is an orthonormal basis of its span, so with P = U^T Xt and
    C = X^T Xt the overlap is ||L^{-1} P^T||_F^2 / max(d, k) and the
    projected error ||X||_F^2 - ||L^{-1} C^T||_F^2; PIP loss needs only G and
    C.  Any other candidate (rank-deficient, wider than tall, or ill
    conditioned) costs one SVD of Xt and uses its retained singular vectors.

    The spectral deltas add two QRs and one small symmetric eigensolve: B =
    XX^T + lam I is diagonal in X's SVD, so B^{-1/2} is explicit, and the
    eigenvalues of B^{-1/2} (Xt Xt^T + lam I) B^{-1/2} - I are those of
    R J R^T, with R the triangular factor of
    [B^{-1/2} Xt | U diag(s^2/(s^2+lam))^{1/2}] and J = diag(I_k, -I_d),
    plus 0 when n exceeds k+d.  R comes from the QR of Xt's n x k residual
    off span(U) and of one (d+k) x (k+d) matrix.
    """

    def __init__(self, X):
        self.X = as_matrix(X, "X")
        self.svd = thin_svd(self.X)
        self.rank = self.svd.rank()
        self.U = _retained_basis(self.svd, "X")
        self.sq_norm = sq_fro_norm(self.X)
        self.sq_gram_norm = sq_fro_norm(self.X.T @ self.X)

    def _candidate(self, Xt) -> _Candidate:
        """Xt validated against X, on the Gram path when it qualifies."""
        _, Xt = _pair(self.X, Xt)
        G = Xt.T @ Xt
        if Xt.shape[1] <= Xt.shape[0]:
            L = _well_conditioned_cholesky(G)
            if L is not None:
                return _Candidate(Xt, Xt.shape[1], G, L=L, P=self.U.T @ Xt)
        ft = thin_svd(Xt)
        return _Candidate(Xt, ft.rank(), G, Ut=_retained_basis(ft, "Xt"))

    def _overlap(self, c: _Candidate) -> float:
        # on the Gram path Xt L^{-T} is an orthonormal basis of span(Xt)
        M = self.U.T @ c.Ut if c.L is None else np.linalg.solve(c.L, c.P.T)
        return sq_fro_norm(M) / max(self.X.shape[1], c.Xt.shape[1])

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
        return self._overlap(self._candidate(Xt))

    def report(self, Xt, lam: float | None = None) -> QualityReport:
        """Every measure for (X, Xt); see :func:`quality_report`."""
        X = self.X
        c = self._candidate(Xt)
        Xt = c.Xt
        n, d = X.shape
        k = Xt.shape[1]
        lam = self.resolve_lambda(lam)
        # U^T Xt from the candidate step is the deltas' P when U is all of X's
        # left singular vectors
        P = c.P if c.P is not None and self.rank == self.svd.r else None
        delta1, delta2, delta, delta_max = _deltas(self.svd, Xt, lam, P)
        C = X.T @ Xt
        # Ut^T X, or its Gram-path equal L^{-1} Xt^T X
        M = c.Ut.T @ X if c.L is None else np.linalg.solve(c.L, C.T)
        return QualityReport(
            eigenspace_overlap=self._overlap(c),
            pip_loss=_pip_from_blocks(self.sq_gram_norm, c.G, C),
            reconstruction_error=reconstruction_error(X, Xt) if X.shape == Xt.shape else None,
            projected_reconstruction_error=max(self.sq_norm - sq_fro_norm(M), 0.0),
            delta1=delta1,
            delta2=delta2,
            delta=delta,
            delta_max=delta_max,
            lambda_used=lam,
            rank_x=self.rank,
            rank_xt=c.rank,
            n=n,
            d=d,
            k=k,
        )
