import numpy as np
import pytest
import scipy.linalg

from embcompress import linalg
from embcompress.linalg import (
    LinalgError,
    det_sum,
    fro_norm,
    least_squares_solve,
    numerical_rank,
    thin_svd,
)

RNG = np.random.default_rng(20260810)


def _assert_orthonormal(Q, tol=1e-10):
    G = Q.T @ Q
    assert np.max(np.abs(G - np.eye(Q.shape[1]))) <= tol


class TestThinSVD:
    def test_identity(self):
        f = thin_svd(np.eye(3))
        np.testing.assert_allclose(f.s, np.ones(3), atol=1e-14)
        # columns of U and V agree up to a shared sign
        signs = np.sign(np.diag(f.U))
        np.testing.assert_allclose(f.U * signs, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(f.V * signs, np.eye(3), atol=1e-14)

    def test_diagonal_rectangular(self):
        M = np.zeros((4, 2))
        M[0, 0] = 3.0
        M[1, 1] = 2.0
        f = thin_svd(M)
        np.testing.assert_allclose(f.s, [3.0, 2.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        M = RNG.normal(size=(20, 5))
        f = thin_svd(M)
        _assert_orthonormal(f.U)
        _assert_orthonormal(f.V)
        assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)
        recon = (f.U * f.s) @ f.V.T
        assert fro_norm(recon - M) <= 1e-8 * (1.0 + fro_norm(M))

    def test_rejects_nonfinite(self):
        M = np.ones((3, 3))
        M[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            thin_svd(M)

    def test_sign_flip_leaves_cross_norms_unchanged(self):
        # the column-sign freedom of an SVD can never leak into downstream
        # Frobenius norms of cross products
        U = thin_svd(RNG.normal(size=(15, 4))).U
        W = thin_svd(RNG.normal(size=(15, 3))).U
        base = fro_norm(U.T @ W)
        for _ in range(5):
            D = np.where(RNG.random(4) < 0.5, -1.0, 1.0)
            assert fro_norm((U * D).T @ W) == pytest.approx(base, abs=1e-12)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.fixture()
def lapack_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "svd", counted)
    return calls


def test_thin_svd_keeps_no_state(lapack_calls):
    X = RNG.normal(size=(300, 20))
    first = thin_svd(X)
    again = thin_svd(X.copy())  # same bytes, another array
    assert lapack_calls == [X.shape, X.shape]
    for a, b in zip((first.U, first.s, first.V), (again.U, again.s, again.V)):
        assert a is not b and np.array_equal(a, b)


class TestThinSVDFallback:
    def test_gesvd_runs_when_gesdd_fails(self, monkeypatch):
        M = RNG.normal(size=(40, 7))
        want = np.linalg.svd(M, compute_uv=False)
        monkeypatch.setattr(linalg.np.linalg, "svd", _no_convergence)
        f = thin_svd(M)
        _assert_orthonormal(f.U)
        _assert_orthonormal(f.V)
        np.testing.assert_allclose(f.s, want, rtol=1e-12)
        assert fro_norm((f.U * f.s) @ f.V.T - M) <= 1e-12 * fro_norm(M)

    def test_both_drivers_failing_raises(self, monkeypatch):
        monkeypatch.setattr(linalg.np.linalg, "svd", _no_convergence)
        # embcompress.linalg imports scipy.linalg only when gesdd fails
        monkeypatch.setattr(scipy.linalg, "svd", _no_convergence)
        with pytest.raises(LinalgError, match="gesdd.*gesvd"):
            thin_svd(RNG.normal(size=(6, 3)))


class TestNumericalRank:
    def test_full_rank(self):
        assert numerical_rank([1.0, 1.0, 1.0], 3) == 3

    def test_below_threshold(self):
        assert numerical_rank([1.0, 1e-20], 4) == 1

    def test_near_threshold(self):
        # threshold is 5 * 1000 * eps ~ 1.11e-12, so 1e-9 still counts
        assert numerical_rank([5.0, 3.0, 1e-9], 1000) == 3

    def test_zero_spectrum(self):
        assert numerical_rank([0.0, 0.0], 7) == 0


class TestLeastSquares:
    def test_identity(self):
        np.testing.assert_allclose(
            least_squares_solve(np.eye(2), [3.0, 4.0]), [3.0, 4.0], atol=1e-14
        )

    def test_mean(self):
        w = least_squares_solve(np.ones((2, 1)), [0.0, 2.0])
        np.testing.assert_allclose(w, [1.0], atol=1e-14)

    def test_recovers_planted_solution(self):
        M = RNG.normal(size=(10, 3))
        w0 = RNG.normal(size=3)
        w = least_squares_solve(M, M @ w0)
        np.testing.assert_allclose(w, w0, atol=1e-8)

    def test_residual_orthogonal_to_columns(self):
        M = RNG.normal(size=(30, 4))
        y = RNG.normal(size=30)
        w = least_squares_solve(M, y)
        resid = M @ w - y
        assert np.linalg.norm(M.T @ resid) <= 1e-8 * fro_norm(M) * np.linalg.norm(y)

    def test_rank_deficient_rejected(self):
        M = np.ones((5, 2))  # duplicated column direction
        with pytest.raises(LinalgError, match="rank"):
            least_squares_solve(M, np.arange(5.0))


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_sq_fro_diff_is_sq_fro_norm_of_the_difference(layout):
    # the same products in the same pairwise sum, bit for bit
    A, B = RNG.standard_t(3, size=(2, 301, 47))
    if layout == "F":
        A, B = np.asfortranarray(A), np.asfortranarray(B)
    elif layout == "strided":
        A, B = A[::2, 1::3], B[::2, 1::3]
    want = linalg.sq_fro_norm(A - B)
    assert linalg.sq_fro_diff(A, B) == want
    assert linalg.sq_fro_diff(B, A) == want


def test_det_sum_is_run_stable():
    x = RNG.normal(size=10_000)
    vals = {det_sum(x.copy()) for _ in range(5)}
    assert len(vals) == 1
