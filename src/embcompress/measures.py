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
    GRAM_MAX_COND,
    LinalgError,
    _EPS,
    _row_blocks,
    as_matrix,
    gram_cholesky,
    gram_eigh,
    numerical_rank,
    sq_fro_diff,
    sq_fro_norm,
    thin_svd,
    tsqr_r,
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


def _warn_if_deficient(rank: int, cols: int, name: str) -> None:
    if rank < cols:
        warnings.warn(
            f"{name} is numerically rank-deficient (rank {rank} < {cols}); "
            "using the retained singular vectors",
            RankDeficiencyWarning,
            stacklevel=_caller_stacklevel(),
        )


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


def _tsqr_blocks(n: int, k: int) -> list[tuple[int, int]]:
    """The row blocks in which an n x k candidate or residual is QR-factored."""
    return _row_blocks(n, k, min_rows=2 * k)


def _explicit_residual(base: PreparedBase, Xt: np.ndarray, P: np.ndarray):
    """``(P + C, R_e)``: U^T Xt = P + C re-orthogonalised, and the R factor
    of Xt's residual E = Xt - U (P + C) off span(U), from two passes over
    row blocks, each held only by its reader, so no n x k matrix is formed.
    The first sums the correction C = U^T E0 for E0 = Xt - U P, from ``P`` =
    U^T Xt; it keeps E orthogonal to U to working precision.  The second
    feeds E to :func:`~embcompress.linalg.tsqr_r` one block at a time."""
    n, k = Xt.shape
    blocks = _tsqr_blocks(n, k)
    B = base.basis.B

    def rows(W, i0, i1):
        E = B[i0:i1] @ W
        return np.subtract(Xt[i0:i1], E, out=E)

    def residual(Z):
        """The row blocks of E = Xt - U Z = Xt - B W."""
        W = base.basis.lift(Z)
        return (rows(W, i0, i1) for i0, i1 in blocks)

    # C = U^T E0, read from B^T E0 summed in block order
    P = P + base.basis.coords(sum(B[i0:i1].T @ E0 for (i0, i1), E0 in zip(blocks, residual(P))))
    return P, tsqr_r(residual(P))


def _deltas(base: PreparedBase, c: _Candidate, lam: float):
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
    # P = U^T Xt and G = Xt^T Xt come from the candidate; R_e is the Cholesky
    # factor of E^T E = G - P^T P (``_gram_residual_factor``) or, where that
    # is refused, the blocked QR factor of an explicit E (``_explicit_residual``).
    s, Xt, P = base.s, c.Xt, c.P
    d, k = s.shape[0], Xt.shape[1]
    s2 = s * s
    Re = _gram_residual_factor(c.G, P)
    if Re is None:
        P, Re = _explicit_residual(base, Xt, P)
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
class _Basis:
    """An orthonormal basis Q of span(B), for an n x m matrix B, held as B
    and a small right factor and never formed: Q = B V diag(1/s) when ``s``
    is set (a Gram-path X, or an R-factor candidate with the W_r and s_r of
    its R factor's SVD), Q = B L^{-T} when ``L`` is set (a Gram-path
    candidate, L the Cholesky factor of B^T B), and Q = B otherwise (an
    SVD's U).  Only :meth:`coords` and :meth:`lift` read which form it is."""

    B: np.ndarray
    V: np.ndarray | None = None
    s: np.ndarray | None = None
    L: np.ndarray | None = None

    def coords(self, C: np.ndarray) -> np.ndarray:
        """Q^T Y from C = B^T Y."""
        if self.L is not None:
            return np.linalg.solve(self.L, C)
        if self.s is not None:
            return (self.V.T @ C) / self.s[:, None]
        return C

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Q^T Y."""
        return self.coords(self.B.T @ Y)

    def lift(self, Z: np.ndarray) -> np.ndarray:
        """W with Q Z = B W, so that rows i0:i1 of Q Z are B[i0:i1] @ W."""
        if self.L is not None:
            return np.linalg.solve(self.L.T, Z)
        if self.s is not None:
            return self.V @ (Z / self.s[:, None])
        return Z


@dataclass(frozen=True)
class _Candidate:
    """A candidate validated against the base: G = Xt^T Xt, C = X^T Xt and
    P = U^T Xt for all of X's left singular vectors U, its orthonormal
    ``basis`` Ut of ``rank`` columns, and CB = X^T B and PB = U^T B for that
    basis's B: C and P themselves, unless B is an SVD-path candidate's Ut."""

    Xt: np.ndarray
    rank: int
    G: np.ndarray
    C: np.ndarray
    P: np.ndarray
    basis: _Basis
    CB: np.ndarray
    PB: np.ndarray


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
    G - P^T P lost too much to cancellation or its Cholesky factor fails or
    is refused by :func:`~embcompress.linalg.gram_cholesky`."""
    S = G - P.T @ P
    if not np.trace(S) >= _RESIDUAL_MIN_TRACE * np.trace(G):
        return None
    L, refused = gram_cholesky(S)
    return None if L is None or refused is not None else L.T


def _refused_at_full_rank(s: np.ndarray | None, n: int) -> bool:
    """Whether the singular values ``s`` of a refused Cholesky factor L of
    G = Xt^T Xt (n x k Xt; see :func:`~embcompress.linalg.gram_cholesky`)
    show Xt to be of full numerical rank, so that its R factor, whose
    singular values are Xt's, has the spread cond(L) > ``GRAM_MAX_COND``
    that :func:`_r_factor_basis` refuses.  Forming G and factoring it
    perturb G by up to about (n + k) eps ||G||, so L's s_min^2 is Xt's to
    within that: at s_min^2 >= 2 (n + k) eps s_max^2 Xt's s_min is far above
    the rank tolerance.  Below it L says nothing of Xt's rank; an exactly
    rank-deficient Xt can pass the Cholesky on rounding, with cond(L) near
    1 / sqrt(eps) (``theory.table4_perturbation`` at seed 3: 2e8)."""
    if s is None:
        return False
    return s[0] ** 2 * (2.0 * (n + s.shape[0]) * _EPS) <= s[-1] ** 2


def _r_factor_basis(Xt: np.ndarray) -> tuple[int, _Basis] | None:
    """``(rank, Ut)`` for a tall Xt from the SVD R = A diag(s) W^T of its
    blocked tall-skinny QR factor: Xt = (Q A) diag(s) W^T, so Xt's retained
    left singular vectors are Ut = Xt W_r diag(1/s_r), held unformed, with
    the rank read from s as :meth:`ThinSVD.rank` reads it.  None when the
    retained s_r spread beyond ``GRAM_MAX_COND``, where Ut read this way
    loses orthogonality, or when the small SVD fails."""
    n, k = Xt.shape
    R = tsqr_r(Xt[i0:i1] for i0, i1 in _tsqr_blocks(n, k))
    try:
        _, s, Wt = np.linalg.svd(R, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    rank = numerical_rank(s, max(n, k))
    if rank == 0 or not s[rank - 1] * GRAM_MAX_COND >= s[0]:
        return None
    return rank, _Basis(Xt, V=Wt[:rank].T, s=s[:rank])


class PreparedBase:
    """A base matrix X factored once, to score any number of candidates.

    Holds X's singular values ``s``, right singular vectors ``V``, numerical
    ``rank`` and left singular ``basis`` U (a :class:`_Basis`), taken one of
    two ways:

    * Gram path, when X is no wider than tall and cond(X) is within
      ``GRAM_MAX_COND`` (see :func:`~embcompress.linalg.gram_eigh`): ``s``
      and V come from the symmetric eigensolve of A = X^T X, the rank is d,
      and U = X V diag(1/s) is never formed.  ``svd`` is None.
    * SVD path, for any other X (wider than tall, rank-deficient or ill
      conditioned): ``svd`` is X's thin SVD, whose U holds all of X's left
      singular vectors; the first ``rank`` of them are the retained basis.

    The squared norms ||X||_F^2 and ||X^T X||_F^2 that :meth:`report` reads
    (and the second, :func:`~embcompress.theory.davis_kahan_sample_bound`)
    are formed on first use, the second from A when it was formed.  The
    theory harnesses and :func:`~embcompress.compress.compress_pca` read
    their factors from a PreparedBase too, so this class alone chooses
    between the Gram and the SVD path.

    Every candidate Xt (n x k) is validated once into one record (see
    :class:`_Candidate`) holding G = Xt^T Xt, C = X^T Xt, P = U^T Xt and
    Xt's orthonormal basis Ut; PIP loss needs only G and C.  On a Gram-path
    base P = diag(1/s) V^T C, so a report takes one n x d x k product with
    X; on an SVD-path base P is a second one, with the SVD's U.  The overlap
    ||Ut^T U_r||_F^2 / max(d, k), for U_r the first ``rank`` columns of U,
    and the projected error ||X||_F^2 - ||Ut^T X||_F^2 are read from P and
    C whenever Ut is Xt times a small factor: Ut = Xt L^{-T} for a tall
    candidate whose Cholesky factor L of G passes ``gram_cholesky``, else
    Ut = Xt W_r diag(1/s_r) for a tall one whose L fails or is refused while
    it is numerically rank-deficient (PCA --keep-v, a zero or repeated
    column) and whose R factor's retained spectrum s_r passes the same bound
    (see :func:`_r_factor_basis`).  Any other candidate (wider than tall, or
    spread wider) costs one SVD of Xt, whose Ut is formed, and a product of
    Ut with X and, on an SVD-path base, with U.

    The spectral deltas (see :func:`_deltas`) take the R factor R_e of Xt's
    residual E = Xt - U P off span(U) from the Cholesky factor of G - P^T P,
    unless :func:`_gram_residual_factor` refuses it, and then from a blocked
    tall-skinny QR of E (see :func:`_explicit_residual`).  The norms reduce
    in row blocks too, so scoring forms no n x d or n x k matrix beyond X,
    Xt and an SVD-path candidate's Ut: its temporaries are row blocks of
    about :data:`~embcompress.linalg._BLOCK_SCALARS` scalars (at least 2k
    rows for the QR) and d x k or k x k products.
    """

    def __init__(self, X):
        self.X = X = as_matrix(X, "X")
        n, d = X.shape
        self._gram = X.T @ X if d <= n else None
        eig = None if self._gram is None else gram_eigh(self._gram)
        if eig is not None:
            self.s, self.V = eig
            self.rank = d
            self.svd = None
            self.basis = _Basis(X, V=self.V, s=self.s)
        else:
            self.svd = thin_svd(X)
            self.s, self.V = self.svd.s, self.svd.V
            self.rank = self.svd.rank()
            self.basis = _Basis(self.svd.U)
            _warn_if_deficient(self.rank, d, "X")

    @cached_property
    def sq_norm(self) -> float:
        """||X||_F^2, formed on first use: only :meth:`report` reads it."""
        return sq_fro_norm(self.X)

    @cached_property
    def sq_gram_norm(self) -> float:
        """||X^T X||_F^2, formed on first use: :meth:`report` and the
        Davis-Kahan bound read it."""
        return sq_fro_norm(self.X.T @ self.X if self._gram is None else self._gram)

    def _candidate(self, Xt) -> _Candidate:
        """Xt validated against X, with its products and its basis, on the
        Gram path when it qualifies."""
        Xt = as_matrix(Xt, "Xt")
        n, k = Xt.shape
        if self.X.shape[0] != n:
            raise ValueError(f"row count mismatch: {self.X.shape[0]} vs {n}")

        def products(Y):
            """(X^T Y, U^T Y), the second read from the first on a Gram-path base."""
            XY = self.X.T @ Y
            return XY, self.basis.coords(XY) if self.svd is None else self.basis.project(Y)

        G = Xt.T @ Xt
        C, P = products(Xt)
        L, refused = gram_cholesky(G) if k <= n else (None, None)
        if L is not None and refused is None:
            return _Candidate(Xt, k, G, C, P, _Basis(Xt, L=L), C, P)
        # a candidate refused at full rank skips the R factor that would be
        # refused too
        retained = k <= n and not _refused_at_full_rank(refused, n) and _r_factor_basis(Xt)
        if retained:
            (rank, basis), CB, PB = retained, C, P
        else:
            ft = thin_svd(Xt)
            rank = ft.rank()
            basis = _Basis(ft.U[:, :rank])
            CB, PB = products(basis.B)
        _warn_if_deficient(rank, k, "Xt")
        return _Candidate(Xt, rank, G, C, P, basis, CB, PB)

    def _bases_product(self, c: _Candidate) -> np.ndarray:
        """Ut^T U_r for U_r the base's ``rank`` retained left singular vectors."""
        return c.basis.coords(c.PB[:self.rank].T)

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
        delta1, delta2, delta, delta_max = _deltas(self, c, lam)
        M = c.basis.coords(c.CB.T)  # Ut^T X
        return QualityReport(
            eigenspace_overlap=self._overlap(c),
            pip_loss=_pip_from_blocks(self.sq_gram_norm, c.G, c.C),
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
