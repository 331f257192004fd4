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
from functools import cached_property

import numpy as np

from .linalg import (
    LinalgError,
    ThinSVD,
    as_matrix,
    gram_eigh,
    sq_fro_diff,
    sq_fro_norm,
    thin_svd,
    well_conditioned_cholesky,
)


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


def _pip_from_blocks(sq_gram_x: float, G: np.ndarray, C: np.ndarray) -> float:
    """PIP loss ||X X^T - Xt Xt^T||_F from ||X^T X||_F^2, G = Xt^T Xt and
    C = X^T Xt, so the n x n Gram matrices are never formed: ||X X^T||_F^2 =
    ||X^T X||_F^2 and the cross term is ||X^T Xt||_F^2."""
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
    return math.sqrt(sq_fro_diff(X, Xt))


def _deltas(base: PreparedBase, Xt: np.ndarray, lam: float, P: np.ndarray | None = None,
            G: np.ndarray | None = None):
    # B = XX^T + lam I is diagonal in X's SVD, so B^{-1/2} is written down
    # from U and s: no second factorization of X and no Cholesky of B, whose
    # accuracy falls as cond(B) grows.
    # With Y = B^{-1/2} Xt and Z = U diag(s^2/(s^2+lam))^{1/2},
    # B^{-1/2} (Xt Xt^T + lam I) B^{-1/2} - I = Y Y^T - Z Z^T = W J W^T for
    # W = [Y | Z] and J = diag(I_k, -I_d).  Splitting Xt = U P + E with E
    # orthogonal to U, and E = Q_e R_e,
    # W = [U | Q_e] [[P/sqrt(s^2+lam), diag(s^2/(s^2+lam))^{1/2}], [R_e/sqrt(lam), 0]]
    # with orthonormal [U | Q_e], so W = QR only needs R_e and the QR of
    # that small matrix.  mu - 1 are the eigenvalues of R J R^T, plus 0 on
    # the complement of span(W) when n > rows of R.
    # ``P`` is U^T Xt, and ``G`` = Xt^T Xt, when the caller already holds
    # them.  With both, R_e is the Cholesky factor of E^T E = G - P^T P (see
    # ``_gram_residual_factor``) and no n x k matrix is touched; without
    # them, or when that factor is refused, R_e comes from the QR of E.
    s = base.s
    d, k = s.shape[0], Xt.shape[1]
    s2 = s * s
    Re = None if G is None else _gram_residual_factor(G, P)
    if Re is None:
        P = base._project(Xt) if P is None else P.copy()
        E = Xt - base._lift(P)
        # one re-orthogonalisation pass keeps E orthogonal to U to working precision
        C = base._project(E)
        E -= base._lift(C)
        P += C
        Re = np.linalg.qr(E, mode="r")
    M = np.zeros((d + Re.shape[0], k + d))
    M[:d, :k] = P / np.sqrt(s2 + lam)[:, None]
    M[:d, k:] = np.diag(np.sqrt(s2 / (s2 + lam)))
    M[d:, :k] = Re / math.sqrt(lam)
    # keep this QR: (M J) M^T has the same eigenvalues in exact arithmetic,
    # but loses delta1 near 1 at tiny lam (test_deltas_match_the_exact_pencil)
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


@dataclass(frozen=True)
class _Candidate:
    """A candidate validated against the base, with the products its
    measures share.  On the Gram path ``L`` is the Cholesky factor of
    G = Xt^T Xt and ``P`` = U^T Xt, and on a Gram-path base ``C`` = X^T Xt,
    which ``P`` was derived from; on the SVD path ``Ut`` is Xt's retained
    left singular basis."""

    Xt: np.ndarray
    rank: int
    G: np.ndarray
    L: np.ndarray | None = None
    P: np.ndarray | None = None
    Ut: np.ndarray | None = None
    C: np.ndarray | None = None

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Ut^T Y for Xt's orthonormal basis Ut: L^{-1} Xt^T Y on the Gram path."""
        if self.L is None:
            return self.Ut.T @ Y
        return np.linalg.solve(self.L, self.Xt.T @ Y)


# Smallest trace(S) / trace(G), for S = G - P^T P = E^T E, at which the
# residual's R factor is the Cholesky factor of S; cond(L_S) must also stay
# within ``GRAM_MAX_COND``.  Forming S cancels the part of G inside span(U),
# so S carries an absolute error of about eps * trace(G), and the deltas a
# relative one that grows like eps * trace(G) / trace(S).  Swept against the
# explicit path on a 10000 x 100 Student-t base, with candidates U A + E
# whose residual E has singular values spread over cond(L_S) = 1 to 5e2 and
# lam at X's default, /10 and /100, the largest relative difference in
# delta1 or delta2 was 1e-14 at a trace ratio of 1e-1, 1e-13 at 1e-2, 7e-13
# at 1e-3, 7e-12 at 1e-4 and 8e-10 at 1e-6.  1e-2 keeps a decade below the
# 1e-12 the oracle tests allow.  Uniform quantizations at 1 to 5 bits and
# k-means at 3 bits sit at 1e-2 to 0.6 on Student-t data; 6 bits and more,
# and PCA (S = 0 up to rounding), fall below and take the explicit path.
_RESIDUAL_MIN_TRACE = 1e-2


def _gram_residual_factor(G: np.ndarray, P: np.ndarray) -> np.ndarray | None:
    """The k x k triangular R_e with R_e^T R_e = E^T E for Xt's residual
    E = Xt - U P off span(U), from G = Xt^T Xt and P = U^T Xt; None when S =
    G - P^T P lost too much to cancellation or its Cholesky factor fails
    ``well_conditioned_cholesky``."""
    S = G - P.T @ P
    if not np.trace(S) >= _RESIDUAL_MIN_TRACE * np.trace(G):
        return None
    L = well_conditioned_cholesky(S)
    return None if L is None else L.T


class PreparedBase:
    """A base matrix X factored once, to score any number of candidates.

    Holds X's singular values ``s``, right singular vectors ``V`` and
    numerical ``rank``, taken one of two ways:

    * Gram path, when X is no wider than tall and cond(X) is within
      ``GRAM_MAX_COND`` (see :func:`~embcompress.linalg.gram_eigh`): ``s``
      and V come from the symmetric eigensolve of A = X^T X, the rank is d,
      and X's left singular basis U = X V diag(1/s) is never formed; U^T Y
      is read as diag(1/s) V^T (X^T Y) and U Z as X (V diag(1/s) Z).
      ``svd`` and ``U`` are None.
    * SVD path, for any other X (wider than tall, rank-deficient or ill
      conditioned): ``svd`` is X's thin SVD and ``U`` its retained left
      singular basis.

    The squared norms ||X||_F^2 and ||X^T X||_F^2 that :meth:`report` reads
    (and the second, :func:`~embcompress.theory.davis_kahan_sample_bound`)
    are formed on first use, the second from A when it was formed.  The
    theory harnesses and :func:`~embcompress.compress.compress_pca` read
    their factors from a PreparedBase too, so this class alone chooses
    between the Gram and the SVD path.

    A candidate Xt (n x k, k <= n) whose Gram matrix G = Xt^T Xt has a
    Cholesky factor L that passes ``well_conditioned_cholesky`` (cond(L)
    within ``GRAM_MAX_COND``) takes no SVD: Xt L^{-T} is an orthonormal
    basis of its span, so with P = U^T Xt and C = X^T Xt the overlap is
    ||L^{-1} P^T||_F^2 / max(d, k) and the projected error
    ||X||_F^2 - ||L^{-1} C^T||_F^2; PIP loss needs only G and C.  On a
    Gram-path base C is formed once and P = diag(1/s) V^T C, so a
    report takes one n x d x k product with X.  Any other candidate
    (rank-deficient, wider than tall, or ill conditioned) costs one SVD of
    Xt and uses its retained singular vectors.

    The spectral deltas (see :func:`_deltas`) add one small QR and one small
    symmetric eigensolve to the R factor R_e of Xt's residual E = Xt - U P
    off span(U).  A Gram-path candidate on a full-rank base takes R_e from
    the Cholesky factor of E^T E = G - P^T P, with no n x k pass, unless
    :func:`_gram_residual_factor` refuses it (PCA and near-lossless
    candidates); any other pair takes the QR of an explicit E, on a
    Gram-path base Xt - X V diag(s^-2) V^T C, re-orthogonalised once.
    """

    def __init__(self, X):
        self.X = X = as_matrix(X, "X")
        n, d = X.shape
        self._gram = X.T @ X if d <= n else None
        eig = None if self._gram is None else gram_eigh(self._gram)
        if eig is not None:
            self.s, self.V = eig
            self.rank = d
            self.svd = self.U = None
        else:
            self.svd = thin_svd(X)
            self.s, self.V = self.svd.s, self.svd.V
            self.rank = self.svd.rank()
            self.U = _retained_basis(self.svd, "X")

    @cached_property
    def sq_norm(self) -> float:
        """||X||_F^2, formed on first use: only :meth:`report` reads it."""
        return sq_fro_norm(self.X)

    @cached_property
    def sq_gram_norm(self) -> float:
        """||X^T X||_F^2, formed on first use: :meth:`report` and the
        Davis-Kahan bound read it."""
        return sq_fro_norm(self.X.T @ self.X if self._gram is None else self._gram)

    def _from_cross(self, C: np.ndarray) -> np.ndarray:
        """U^T Y from C = X^T Y, on the Gram path."""
        return (self.V.T @ C) / self.s[:, None]

    def _project(self, Y: np.ndarray) -> np.ndarray:
        """U^T Y for all of X's left singular vectors U."""
        if self.svd is not None:
            return self.svd.U.T @ Y
        return self._from_cross(self.X.T @ Y)

    def _lift(self, Z: np.ndarray) -> np.ndarray:
        """U Z for all of X's left singular vectors U."""
        if self.svd is not None:
            return self.svd.U @ Z
        return self.X @ (self.V @ (Z / self.s[:, None]))

    def _candidate(self, Xt) -> _Candidate:
        """Xt validated against X, on the Gram path when it qualifies."""
        Xt = as_matrix(Xt, "Xt")
        if self.X.shape[0] != Xt.shape[0]:
            raise ValueError(f"row count mismatch: {self.X.shape[0]} vs {Xt.shape[0]}")
        G = Xt.T @ Xt
        if Xt.shape[1] <= Xt.shape[0]:
            L = well_conditioned_cholesky(G)
            if L is not None:
                if self.svd is not None:
                    return _Candidate(Xt, Xt.shape[1], G, L=L, P=self.U.T @ Xt)
                C = self.X.T @ Xt
                return _Candidate(Xt, Xt.shape[1], G, L=L, P=self._from_cross(C), C=C)
        ft = thin_svd(Xt)
        return _Candidate(Xt, ft.rank(), G, Ut=_retained_basis(ft, "Xt"))

    def _cross(self, c: _Candidate) -> np.ndarray:
        """C = X^T Xt, formed here unless the candidate step already did."""
        return self.X.T @ c.Xt if c.C is None else c.C

    def _bases_product(self, c: _Candidate) -> np.ndarray:
        """Ut^T U, with Ut = Xt L^{-T}, on the Gram path; U^T Ut on the SVD
        path, for U the retained basis of an SVD-path base."""
        if c.L is not None:
            return np.linalg.solve(c.L, c.P.T)
        return self._project(c.Ut) if self.svd is None else self.U.T @ c.Ut

    def _overlap(self, c: _Candidate) -> float:
        return sq_fro_norm(self._bases_product(c)) / max(self.X.shape[1], c.Xt.shape[1])

    def resolve_lambda(self, lam: float | None = None) -> float:
        """``lam`` checked positive; None picks X's smallest nonzero Gram eigenvalue."""
        if lam is None:
            if self.rank == 0:
                raise ValueError("zero matrix has no nonzero Gram eigenvalue")
            lam = self.s[self.rank - 1] ** 2
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
        C = self._cross(c)
        if self.svd is None:
            # full rank: U^T Xt is the deltas' P, from the one C = X^T Xt
            P = self._from_cross(C) if c.P is None else c.P
            G = None if c.L is None else c.G
        else:
            # U^T Xt from the candidate step is the deltas' P when U is all
            # of X's left singular vectors; with G it gives their residual factor
            full = c.P is not None and self.rank == self.svd.r
            P, G = (c.P, c.G) if full else (None, None)
        delta1, delta2, delta, delta_max = _deltas(self, Xt, lam, P, G)
        # Ut^T X, or its Gram-path equal L^{-1} Xt^T X
        M = c.Ut.T @ X if c.L is None else np.linalg.solve(c.L, C.T)
        return QualityReport(
            eigenspace_overlap=self._overlap(c),
            pip_loss=_pip_from_blocks(self.sq_gram_norm, c.G, C),
            reconstruction_error=math.sqrt(sq_fro_diff(X, Xt)) if X.shape == Xt.shape else None,
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
