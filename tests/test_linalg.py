import numpy as np
import pytest
import scipy.linalg

from embcompress import linalg
from embcompress.linalg import (
    LinalgError,
    det_sum,
    fro_norm,
    joint_orthonormal_basis,
    least_squares_solve,
    numerical_rank,
    sym_generalized_eigs,
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


class TestJointBasis:
    def test_identical_single_direction(self):
        e1 = np.zeros((3, 1))
        e1[0, 0] = 1.0
        Q = joint_orthonormal_basis(e1, e1)
        assert Q.shape == (3, 1)

    def test_orthogonal_directions(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        e2 = np.array([[0.0], [1.0], [0.0]])
        Q = joint_orthonormal_basis(e1, e2)
        assert Q.shape == (3, 2)
        # span check: both inputs reproduce exactly under projection
        for v in (e1, e2):
            np.testing.assert_allclose(Q @ (Q.T @ v), v, atol=1e-12)

    def test_shared_direction_rank(self):
        # p=3 and q=4 with one column in common: joint rank is 6
        base = thin_svd(RNG.normal(size=(20, 7))).U
        U = base[:, :3]
        W = np.hstack([base[:, 2:3], base[:, 3:6]])
        Q = joint_orthonormal_basis(U, W)
        assert Q.shape == (20, 6)
        _assert_orthonormal(Q)
        # oracle: rank of the concatenation by direct SVD
        s = np.linalg.svd(np.hstack([U, W]), compute_uv=False)
        assert numerical_rank(s, 20) == 6


class TestGeneralizedEigs:
    def test_equal_matrices(self):
        A = RNG.normal(size=(4, 4))
        A = A @ A.T + np.eye(4)
        np.testing.assert_allclose(sym_generalized_eigs(A, A), np.ones(4), atol=1e-10)

    def test_scaled_identity(self):
        np.testing.assert_allclose(
            sym_generalized_eigs(2.0 * np.eye(3), np.eye(3)), [2.0, 2.0, 2.0], atol=1e-12
        )

    def test_diagonal_pencil(self):
        mus = sym_generalized_eigs(np.diag([1.0, 4.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(mus, [1.0, 2.0], atol=1e-12)

    def test_not_positive_definite_names_pivot(self):
        B = np.diag([1.0, -2.0, 3.0])
        with pytest.raises(LinalgError, match="pivot 1"):
            sym_generalized_eigs(np.eye(3), B)

    def test_failed_pivot_is_zero_based(self):
        with pytest.raises(LinalgError, match="pivot 0"):
            sym_generalized_eigs(np.eye(2), np.diag([-1.0, 1.0]))

    def test_asymmetric_a_rejected(self):
        A = np.array([[1.0, 1e-3], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            sym_generalized_eigs(A, np.eye(2))

    @pytest.mark.parametrize("m", [2, 5, 12, 20])
    def test_matches_dense_inverse_oracle(self, m):
        A = RNG.normal(size=(m, m))
        A = 0.5 * (A + A.T)
        B = RNG.normal(size=(m, m))
        B = B @ B.T + m * np.eye(m)
        mus = sym_generalized_eigs(A, B)
        oracle = np.sort(np.linalg.eigvals(np.linalg.inv(B) @ A).real)
        np.testing.assert_allclose(mus, oracle, atol=1e-8)


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


def test_det_sum_is_run_stable():
    x = RNG.normal(size=10_000)
    vals = {det_sum(x.copy()) for _ in range(5)}
    assert len(vals) == 1
