import threading

import numpy as np
import pytest
import scipy.linalg

from embcompress import linalg
from embcompress.linalg import (
    LinalgError,
    det_sum,
    fro_norm,
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


@pytest.mark.parametrize("block", [None, 1, 47 * 20 + 5])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_sq_fro_diff_is_sq_fro_norm_of_the_difference(layout, block, monkeypatch):
    # the same products in the same row blocks and sums, bit for bit
    if block is not None:
        monkeypatch.setattr(linalg, "_BLOCK_SCALARS", block)
    A, B = RNG.standard_t(3, size=(2, 301, 47))
    if layout == "F":
        A, B = np.asfortranarray(A), np.asfortranarray(B)
    elif layout == "strided":
        A, B = A[::2, 1::3], B[::2, 1::3]
    want = linalg.sq_fro_norm(A - B)
    assert linalg.sq_fro_diff(A, B) == want
    assert linalg.sq_fro_diff(B, A) == want


@pytest.mark.parametrize("shape", [(301, 47), (5000, 30), (70_000,), (3, 4, 5)])
def test_sq_fro_norm_in_row_blocks_matches_one_sum(shape):
    # one block is the whole-array sum bit for bit; more blocks only regroup
    # the same squares, within 1e-14 relative
    A = RNG.standard_t(3, size=shape)
    rows = A.reshape(A.shape[0], -1)
    want = det_sum(A * A)
    got = linalg.sq_fro_norm(A)
    if len(linalg._row_blocks(*rows.shape)) == 1:
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * want


def test_det_sum_is_run_stable():
    x = RNG.normal(size=10_000)
    vals = {det_sum(x.copy()) for _ in range(5)}
    assert len(vals) == 1


class TestRowBlockRunner:
    """``_run_row_blocks`` calls its work once per block of ``_row_blocks``,
    on the calling thread when there is one block or one thread."""

    @pytest.mark.parametrize("block", [None, 37])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_every_block_runs_once(self, monkeypatch, block, threads):
        if block is not None:
            monkeypatch.setattr(linalg, "_BLOCK_SCALARS", block)
        seen = []
        linalg._run_row_blocks(5000, 20, lambda i0, i1: seen.append((i0, i1)), threads)
        assert sorted(seen) == linalg._row_blocks(5000, 20)
        assert len(seen) > 1

    @pytest.mark.parametrize("n, threads", [(3, 4), (5000, 1)])
    def test_one_block_or_one_thread_runs_inline(self, n, threads):
        idents = set()
        linalg._run_row_blocks(n, 20, lambda i0, i1: idents.add(threading.get_ident()), threads)
        assert idents == {threading.get_ident()}

    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_block_exception_reaches_the_caller(self, threads):
        def work(i0, i1):
            if i0 > 0:
                raise ArithmeticError(f"block at row {i0}")

        with pytest.raises(ArithmeticError, match="block at row"):
            linalg._run_row_blocks(5000, 20, work, threads)

    def test_usable_cores_reads_the_affinity_mask(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert linalg._usable_cores() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert linalg._usable_cores() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert linalg._usable_cores() == 1


class TestTsqr:
    """``tsqr_r`` against one QR of the whole matrix, compared through R^T R,
    which fixes R up to the signs of its rows: entrywise within
    1e-12 ||E||_F^2."""

    @pytest.mark.parametrize("n, k, rows", [
        (50, 7, 1),      # one row per block: every block is shorter than k
        (50, 7, 3),      # k larger than the block's rows
        (53, 7, 10),     # a short last block
        (200, 7, 14),    # 2k rows per block
        (5, 7, 2),       # wider than tall
        (40, 1, 1),
        (40, 6, 40),     # one block
    ])
    def test_matches_one_qr(self, n, k, rows):
        E = RNG.standard_t(4, size=(n, k))
        E[:, k // 2] = 0.0  # rank-deficient too
        R = linalg.tsqr_r(E[i0:i0 + rows] for i0 in range(0, n, rows))
        R0 = np.linalg.qr(E, mode="r")
        assert R.shape == R0.shape == (min(n, k), k)
        assert np.max(np.abs(R.T @ R - R0.T @ R0)) <= 1e-12 * linalg.sq_fro_norm(E)
        if rows >= n:
            assert R.tobytes() == R0.tobytes()

    def test_blocks_of_row_blocks(self):
        # the QR blocks measures takes: at least 2k rows each, more than
        # _BLOCK_SCALARS / k once k^2 passes _BLOCK_SCALARS / 2
        n, k = 3000, 200
        blocks = linalg._row_blocks(n, k, min_rows=2 * k)
        assert len(blocks) == 8 and all(i1 - i0 == 2 * k for i0, i1 in blocks[:-1])
        E = RNG.normal(size=(n, k))
        R = linalg.tsqr_r(E[i0:i1] for i0, i1 in blocks)
        R0 = np.linalg.qr(E, mode="r")
        assert np.max(np.abs(R.T @ R - R0.T @ R0)) <= 1e-12 * linalg.sq_fro_norm(E)


class TestOneBlasThread:
    @pytest.fixture
    def threads(self):
        """(get, put) of the bundled OpenBLAS's thread count, set to 2 (as far
        as it goes) for the test and restored after it."""
        lib = linalg._openblas()
        if lib is None:
            pytest.skip("this numpy build bundles no OpenBLAS")
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        before = get()
        put(2)
        yield get, put
        put(before)

    def test_pins_and_restores(self, threads):
        get, _ = threads
        start = get()
        with linalg.one_blas_thread():
            assert get() == 1
        assert get() == start
        with pytest.raises(KeyboardInterrupt):
            with linalg.one_blas_thread():
                raise KeyboardInterrupt
        assert get() == start

    def test_tsqr_block_qrs_run_on_one_thread(self, threads, monkeypatch):
        get, _ = threads
        start, seen, qr = get(), [], np.linalg.qr

        def spy(a, *args, **kwargs):
            seen.append(get())
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        E = RNG.normal(size=(300, 10))
        linalg.tsqr_r(E[i0:i0 + 40] for i0 in range(0, 300, 40))
        assert seen == [1] * 8 and get() == start

    def test_missing_library_does_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        with linalg.one_blas_thread():
            pass
