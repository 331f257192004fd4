import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from embcompress import linalg, measures
from embcompress.linalg import LinalgError, least_squares_solve, sq_fro_norm, thin_svd
from embcompress.measures import (
    PreparedBase,
    RankDeficiencyWarning,
    eigenspace_overlap,
    quality_report,
    reconstruction_error,
)
from embcompress.selection import MeasureSpec, select_best
from embcompress.theory import LabelModel, lipschitz_gap_bound

RNG = np.random.default_rng(314)


def dense_pip(X, Xt):
    return float(np.linalg.norm(X @ X.T - Xt @ Xt.T, "fro"))


def dense_pencil_eigs(X, Xt, lam):
    n = X.shape[0]
    A = Xt @ Xt.T + lam * np.eye(n)
    B = X @ X.T + lam * np.eye(n)
    import scipy.linalg

    return scipy.linalg.eigh(A, B, eigvals_only=True)



def _rank_deficient_pair():
    X = np.random.default_rng(11).normal(size=(40, 5))
    Xt = X.copy()
    Xt[:, 2] = 0.0
    return X, Xt


_X, _XT_DEFICIENT = _rank_deficient_pair()


@pytest.mark.parametrize(
    "call",
    [
        lambda: PreparedBase(_XT_DEFICIENT),
        lambda: eigenspace_overlap(_X, _XT_DEFICIENT),
        lambda: quality_report(_X, _XT_DEFICIENT),
        lambda: PreparedBase(_X).overlap(_XT_DEFICIENT),
        lambda: PreparedBase(_X).report(_XT_DEFICIENT),
        lambda: select_best(_X, [_X, _XT_DEFICIENT], MeasureSpec.default("eigenspace_overlap")),
        lambda: select_best(_X, [_XT_DEFICIENT], MeasureSpec.default("delta_max")),
        lambda: lipschitz_gap_bound(_XT_DEFICIENT, _X, 1.0, LabelModel()),
    ],
    ids=["PreparedBase", "eigenspace_overlap", "quality_report", "PreparedBase.overlap",
         "PreparedBase.report", "select_best-overlap", "select_best-delta_max",
         "lipschitz_gap_bound"],
)
def test_rank_deficiency_warning_points_at_caller(call):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        call()
    record = [w for w in record if issubclass(w.category, RankDeficiencyWarning)]
    assert len(record) == 1
    assert record[0].filename == __file__

class TestEigenspaceOverlap:
    def test_self_overlap_is_one(self):
        X = RNG.normal(size=(40, 6))
        assert eigenspace_overlap(X, X) == pytest.approx(1.0, abs=1e-12)

    def test_partial_overlap_of_coordinate_planes(self):
        X = np.eye(3)[:, :2]  # span(e1, e2)
        Xt = np.eye(3)[:, 1:]  # span(e2, e3)
        assert eigenspace_overlap(X, Xt) == pytest.approx(0.5, abs=1e-12)

    def test_leading_subspace_ratio(self):
        X = RNG.normal(size=(50, 8))
        f = thin_svd(X)
        for k in (2, 5):
            Xt = f.U[:, :k] * f.s[:k]
            assert eigenspace_overlap(X, Xt) == pytest.approx(k / 8, abs=1e-10)

    def test_zeroing_top_singular_value_costs_one_over_d(self):
        d = 7
        f = thin_svd(RNG.normal(size=(60, d)))
        s = f.s.copy()
        s[0] = 0.0
        Xt = (f.U * s) @ f.V.T
        with pytest.warns(RankDeficiencyWarning):
            score = eigenspace_overlap((f.U * f.s) @ f.V.T, Xt)
        assert 1.0 - score == pytest.approx(1.0 / d, abs=1e-10)

    def test_symmetry(self):
        X = RNG.normal(size=(30, 5))
        Xt = RNG.normal(size=(30, 3))
        assert eigenspace_overlap(X, Xt) == pytest.approx(
            eigenspace_overlap(Xt, X), abs=1e-12
        )

    def test_invariance_under_invertible_right_multiplication(self):
        X = RNG.normal(size=(30, 5))
        Xt = RNG.normal(size=(30, 4))
        base = eigenspace_overlap(X, Xt)
        R = RNG.normal(size=(5, 5)) + 5 * np.eye(5)
        Rt = RNG.normal(size=(4, 4)) + 5 * np.eye(4)
        assert eigenspace_overlap(X @ R, Xt @ Rt) == pytest.approx(base, abs=1e-8)

    def test_row_permutation_invariance(self):
        X = RNG.normal(size=(25, 4))
        Xt = RNG.normal(size=(25, 4))
        perm = RNG.permutation(25)
        assert eigenspace_overlap(X[perm], Xt[perm]) == pytest.approx(
            eigenspace_overlap(X, Xt), abs=1e-10
        )

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row count"):
            eigenspace_overlap(np.eye(3), np.eye(4))


class TestPipLoss:
    def test_zero_for_identical_and_negated(self):
        X = RNG.normal(size=(20, 4))
        assert quality_report(X, X).pip_loss == 0.0
        assert quality_report(X, -X).pip_loss == 0.0

    def test_scaled_column(self):
        X = np.array([[1.0], [0.0]])
        assert quality_report(X, 2.0 * X).pip_loss == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [20, 100, 200])
    def test_matches_dense_gram_difference(self, n):
        X = RNG.normal(size=(n, 7))
        Xt = X + 0.1 * RNG.normal(size=(n, 7))
        assert quality_report(X, Xt).pip_loss == pytest.approx(dense_pip(X, Xt), abs=1e-7)

    def test_different_widths_allowed(self):
        X = RNG.normal(size=(30, 6))
        Xt = RNG.normal(size=(30, 2))
        assert quality_report(X, Xt).pip_loss == pytest.approx(dense_pip(X, Xt), abs=1e-7)


class TestReconstructionError:
    def test_basics(self):
        X = RNG.normal(size=(10, 3))
        assert reconstruction_error(X, X) == 0.0
        assert reconstruction_error(X, np.zeros_like(X)) == pytest.approx(
            np.linalg.norm(X, "fro")
        )
        Xt = X.copy()
        Xt[4, 1] += 0.25
        assert reconstruction_error(X, Xt) == pytest.approx(0.25)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical shapes"):
            reconstruction_error(np.eye(3), np.eye(3)[:, :2])


class TestProjectedReconstructionError:
    def test_zero_when_span_covers(self):
        base = thin_svd(RNG.normal(size=(20, 6))).U
        X = base[:, :3] @ RNG.normal(size=(3, 5))
        Xt = base[:, :4]
        with pytest.warns(RankDeficiencyWarning):  # X has rank 3 in 5 columns
            rep = quality_report(X, Xt)
        assert rep.projected_reconstruction_error == pytest.approx(0.0, abs=1e-9)

    def test_full_norm_when_orthogonal(self):
        base = thin_svd(RNG.normal(size=(20, 8))).U
        X = base[:, :3]
        Xt = base[:, 4:7]
        assert quality_report(X, Xt).projected_reconstruction_error == pytest.approx(
            3.0, abs=1e-10
        )

    def test_matches_per_column_least_squares_oracle(self):
        X = RNG.normal(size=(15, 4))
        Xt = RNG.normal(size=(15, 3))
        # oracle: brute-force min_P ||Xt P - X||_F^2 column by column
        total = 0.0
        for j in range(X.shape[1]):
            w = least_squares_solve(Xt, X[:, j])
            total += float(np.sum((Xt @ w - X[:, j]) ** 2))
        assert quality_report(X, Xt).projected_reconstruction_error == pytest.approx(
            total, abs=1e-8
        )


def default_lambda(X):
    """The lambda quality_report uses when none is given."""
    return quality_report(X, X).lambda_used


class TestDefaultLambda:
    def test_scaled_orthonormal_columns(self):
        base = thin_svd(RNG.normal(size=(12, 3))).U
        X = base * np.array([3.0, 2.0, 1.0])
        assert default_lambda(X) == pytest.approx(1.0, abs=1e-10)

    def test_identity(self):
        assert default_lambda(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_gram_eigenvalue_oracle(self):
        X = RNG.normal(size=(30, 6))
        oracle = float(np.min(np.linalg.eigvalsh(X.T @ X)))
        assert default_lambda(X) == pytest.approx(oracle, abs=1e-8)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            default_lambda(np.zeros((3, 3)))


class TestSpectralDeltas:
    def test_identical_inputs(self):
        X = RNG.normal(size=(25, 5))
        rep = quality_report(X, X, 0.7)
        assert abs(rep.delta1) <= 1e-10 and abs(rep.delta2) <= 1e-10
        assert rep.delta == pytest.approx(0.0, abs=1e-10)
        assert rep.delta_max == pytest.approx(1.0, abs=1e-9)

    def test_doubled_embedded_identity(self):
        X = np.zeros((3, 2))
        X[0, 0] = X[1, 1] = 1.0
        rep = quality_report(X, 2.0 * X, 1.0)
        assert rep.delta1 == pytest.approx(0.0, abs=1e-12)
        assert rep.delta2 == pytest.approx(1.5, abs=1e-12)
        assert rep.delta == pytest.approx(1.5, abs=1e-12)
        assert rep.delta_max == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("shape_t", [(30, 3), (30, 4)])
    def test_reduced_matches_dense_pencil(self, shape_t):
        X = RNG.normal(size=(30, 4))
        Xt = RNG.normal(size=shape_t)
        lam = 0.5
        rep = quality_report(X, Xt, lam)
        mus = dense_pencil_eigs(X, Xt, lam)
        assert rep.delta1 == pytest.approx(1.0 - float(mus[0]), abs=1e-7)
        assert rep.delta2 == pytest.approx(float(mus[-1]) - 1.0, abs=1e-7)

    def test_semidefinite_witness_and_tightness(self):
        X = RNG.normal(size=(60, 5))
        Xt = X + 0.3 * RNG.normal(size=(60, 5))
        rep = quality_report(X, Xt)
        d1, d2, lam = rep.delta1, rep.delta2, rep.lambda_used
        n = X.shape[0]
        A = Xt @ Xt.T + lam * np.eye(n)
        B = X @ X.T + lam * np.eye(n)
        bnorm = float(np.linalg.norm(B, 2))
        lo = float(np.min(np.linalg.eigvalsh(A - (1 - d1) * B)))
        hi = float(np.min(np.linalg.eigvalsh((1 + d2) * B - A)))
        assert lo >= -1e-7 * bnorm
        assert hi >= -1e-7 * bnorm
        # shrinking either constant by 1e-3 breaks its inequality
        lo_tight = float(np.min(np.linalg.eigvalsh(A - (1 - (d1 - 1e-3)) * B)))
        hi_tight = float(np.min(np.linalg.eigvalsh((1 + (d2 - 1e-3)) * B - A)))
        assert lo_tight < -1e-7 * bnorm
        assert hi_tight < -1e-7 * bnorm

    def test_infinite_delta_max_reported(self):
        # a candidate that collapses a direction entirely, with tiny lambda,
        # drives delta1 -> 1 and delta_max -> +inf; an all-zero direction is
        # the limiting case
        X = np.eye(4)
        Xt = np.eye(4)[:, :1] * 1e-12
        rep = quality_report(X, Xt, 1e-300)
        assert rep.delta1 >= 1.0
        assert rep.delta_max == np.inf

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_raises(self):
        # a residual outside span(X) scaled by lam^{-1/2} = 1e150 squares past
        # the float64 range; the deltas must not come out as NaN
        X = np.eye(4)[:, :2]
        Xt = np.eye(4)[:, 2:3] * 1e10
        with pytest.raises(LinalgError, match="overflow"):
            quality_report(X, Xt, 1e-300)


def exact_gram(M):
    """M M^T in rational arithmetic, from the exact values of M's floats."""
    F = [[Fraction(v) for v in row] for row in M.tolist()]
    return [[sum((a * b for a, b in zip(r, q)), Fraction(0)) for q in F] for r in F]


def exact_pencil(a, GA, b, GB, lam):
    """a (GA + lam I) - b (GB + lam I), exactly."""
    n = len(GA)
    return [
        [a * GA[i][j] - b * GB[i][j] + ((a - b) * lam if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def exact_positive_definite(M):
    """Whether the symmetric rational M is positive definite: every pivot of
    its LDL^T factorization (on the lower triangle) is positive."""
    A = [row[:] for row in M]
    n = len(A)
    for j in range(n):
        if A[j][j] <= 0:
            return False
        for i in range(j + 1, n):
            f = A[i][j] / A[j][j]
            for k in range(j + 1, i + 1):
                A[i][k] -= f * A[k][j]
    return True


def _column_decay_pairs():
    from embcompress.theory import gen_scaled_matrix, stochastic_quantize_full_range

    shapes = itertools.product([8, 10], [3, 4], [1e-6, 1e-8])
    for seed, (n, d, decay) in enumerate(shapes):
        S = gen_scaled_matrix(n, d, decay, seed % 4)
        yield f"{n}x{d}-{decay:g}", S, stochastic_quantize_full_range(S, 4, seed % 4 + 1)


def _explicit_residual_pencil_pairs():
    # cases whose residual factor comes from the QR of an explicit E: a
    # near-lossless candidate, whose G - P^T P cancels to below the trace
    # threshold, and the scaled matrix as the candidate of its quantization,
    # cond 1e6 and so on the SVD path
    from embcompress.theory import (
        gen_scaled_matrix,
        gen_uniform_matrix,
        stochastic_quantize_full_range,
    )

    X = gen_uniform_matrix(10, 3, seed=2)
    yield "10x3-12bit-explicit", X, stochastic_quantize_full_range(X, 12, 3)
    S = gen_scaled_matrix(8, 3, 1e-6, seed=0)
    yield "8x3-1e-06-swapped-explicit", stochastic_quantize_full_range(S, 4, 1), S


@pytest.mark.parametrize(
    "case", list(_column_decay_pairs()) + list(_explicit_residual_pencil_pairs()),
    ids=lambda c: c[0],
)
def test_deltas_match_the_exact_pencil(case):
    # columns scaled down to 1e-6 or 1e-8 and a 4-bit candidate at the default
    # lambda: cond(XX^T + lam I) reaches 1e16, delta2 is 1e10 to 5e14, and
    # delta1 sits within 1e-9 of 1
    _, X, Xt = case
    rep = quality_report(X, Xt)
    assert rep.delta1 < 1.0 and math.isfinite(rep.delta_max)
    lam = Fraction(rep.lambda_used)
    GA, GB = exact_gram(Xt), exact_gram(X)
    mu_min = 1 - Fraction(rep.delta1)
    mu_max = 1 + Fraction(rep.delta2)
    tol = Fraction(1e-13)
    assert exact_positive_definite(exact_pencil(1, GA, mu_min - tol, GB, lam))
    assert not exact_positive_definite(exact_pencil(1, GA, mu_min + tol, GB, lam))
    rel = Fraction(1e-9)
    assert exact_positive_definite(exact_pencil((1 + rel) * mu_max, GB, 1, GA, lam))
    assert not exact_positive_definite(exact_pencil((1 - rel) * mu_max, GB, 1, GA, lam))


def residual_qr_rows(prepared, Xt, lam, monkeypatch):
    """(report, row counts of the matrices that report QRs)."""
    rows = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        rows.append(a.shape[0])
        return qr(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "qr", spy)
        return prepared.report(Xt, lam), rows


def test_exact_pencil_cases_take_both_residual_paths(monkeypatch):
    # the quantized column-decay candidates are well conditioned, so their
    # residual factor comes from G - P^T P and only the (d+k)-row matrix is
    # QR'd; the others also QR the n x k residual
    for name, X, Xt in itertools.chain(_column_decay_pairs(), _explicit_residual_pencil_pairs()):
        prepared = PreparedBase(X)
        _, rows = residual_qr_rows(prepared, Xt, prepared.resolve_lambda(), monkeypatch)
        n, d, k = X.shape + Xt.shape[1:]
        assert rows == ([n, d + k] if name.endswith("-explicit") else [d + k]), name


def test_exact_positive_definite():
    assert exact_positive_definite([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert not exact_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not exact_positive_definite([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


class TestQualityReport:
    def test_identical_pair(self):
        X = RNG.normal(size=(30, 5))
        rep = quality_report(X, X)
        assert rep.eigenspace_overlap == pytest.approx(1.0, abs=1e-10)
        assert rep.pip_loss == 0.0
        assert rep.reconstruction_error == 0.0
        assert rep.delta1 == pytest.approx(0.0, abs=1e-9)
        assert rep.delta2 == pytest.approx(0.0, abs=1e-9)
        assert rep.delta_max == pytest.approx(1.0, abs=1e-9)
        assert rep.lambda_used == pytest.approx(default_lambda(X))
        assert (rep.rank_x, rep.rank_xt) == (5, 5)
        assert (rep.n, rep.d, rep.k) == (30, 5, 5)

    def test_width_mismatch_omits_reconstruction(self):
        X = RNG.normal(size=(30, 5))
        Xt = RNG.normal(size=(30, 3))
        rep = quality_report(X, Xt)
        assert rep.reconstruction_error is None
        assert rep.value("reconstruction_error") is None

    def test_quantized_report_is_finite_and_sane(self):
        from embcompress.compress import compress_uniform, decompress

        X = RNG.normal(size=(80, 12))
        rep = quality_report(X, decompress(compress_uniform(X, 1)))
        assert 0.0 < rep.eigenspace_overlap < 1.0
        assert np.isfinite(rep.pip_loss)
        assert np.isfinite(rep.delta_max)
        assert rep.projected_reconstruction_error >= 0.0


_EPS = float(np.finfo(np.float64).eps)


def svd_basis(M):
    """Left singular vectors above the documented rank threshold, by plain
    np.linalg.svd."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, s > s[0] * max(M.shape) * _EPS]


def _oracle_pairs():
    from embcompress.compress import compress_pca, compress_uniform, decompress
    from embcompress.theory import gen_scaled_matrix, stochastic_quantize_full_range

    rng = np.random.default_rng(2718)
    X = rng.normal(size=(60, 8))
    yield "quantized", X, decompress(compress_uniform(X, 2)), 0.5
    # rank 3 in 8 columns, as a PCA --keep-v candidate decompresses
    yield "pca-keep-v", X, decompress(compress_pca(X, 3, keep_v=True)), 0.5
    yield "pca-narrow", X, decompress(compress_pca(X, 3)), 0.5
    # rank 7 in 8 columns: a full-rank candidate against a rank-deficient base
    yield "rank-deficient-base", np.hstack([X[:, :7], X[:, :1]]), rng.normal(size=(60, 5)), 0.5
    # column scales from 1 down to 1e-6: condition number about 1e6
    S = gen_scaled_matrix(150, 6, 1e-6, seed=3)
    yield "scaled", S, stochastic_quantize_full_range(S, 4, seed=4), 1e-3


@pytest.mark.filterwarnings("ignore::embcompress.measures.RankDeficiencyWarning")
@pytest.mark.parametrize("case", list(_oracle_pairs()), ids=lambda c: c[0])
class TestPreparedBaseOracles:
    """The single scoring path against plain numpy on dense matrices."""

    def test_overlap_matches_svd_oracle(self, case):
        _, X, Xt, _ = case
        G = svd_basis(X).T @ svd_basis(Xt)
        oracle = float(np.sum(G * G)) / max(X.shape[1], Xt.shape[1])
        assert abs(PreparedBase(X).overlap(Xt) - oracle) <= 1e-10

    def test_report_matches_dense_oracles(self, case):
        _, X, Xt, lam = case
        rep = PreparedBase(X).report(Xt, lam)
        assert rep.pip_loss == pytest.approx(dense_pip(X, Xt), rel=1e-9, abs=1e-7)
        P = np.linalg.lstsq(Xt, X, rcond=None)[0]
        proj = float(np.sum((Xt @ P - X) ** 2))
        assert rep.projected_reconstruction_error == pytest.approx(
            proj, abs=1e-9 * float(np.sum(X * X))
        )
        mus = dense_pencil_eigs(X, Xt, lam)
        assert abs(rep.delta1 - (1.0 - float(mus[0]))) <= 1e-7
        assert abs(rep.delta2 - (float(mus[-1]) - 1.0)) <= 1e-7
        assert (rep.rank_x, rep.rank_xt) == (
            svd_basis(X).shape[1], svd_basis(Xt).shape[1]
        )

    def test_wrappers_share_the_path(self, case):
        _, X, Xt, lam = case
        prepared = PreparedBase(X)
        rep = prepared.report(Xt, lam)
        assert quality_report(X, Xt, lam) == rep
        assert eigenspace_overlap(X, Xt) == rep.eigenspace_overlap
        assert quality_report(X, Xt).lambda_used == prepared.resolve_lambda()
        assert prepared.overlap(Xt) == rep.eigenspace_overlap


@pytest.fixture()
def candidate_svds(monkeypatch):
    """Counts the SVDs that PreparedBase takes once it is built."""
    calls = []

    def counted(M):
        calls.append(M.shape)
        return thin_svd(M)

    monkeypatch.setattr(measures, "thin_svd", counted)
    return calls


def svd_path_report(prepared, Xt, lam, monkeypatch):
    """The report with every candidate sent down the SVD path."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "GRAM_MAX_COND", 0.0)
        return prepared.report(Xt, lam)


def assert_paths_agree(gram, svd, prepared):
    assert abs(gram.eigenspace_overlap - svd.eigenspace_overlap) <= 1e-10
    assert abs(gram.projected_reconstruction_error - svd.projected_reconstruction_error) <= (
        1e-10 * prepared.sq_norm
    )
    assert abs(gram.pip_loss - svd.pip_loss) <= 1e-10 * svd.pip_loss
    assert gram.rank_xt == svd.rank_xt == gram.k


def _student_t_pairs():
    from embcompress.compress import compress_pca, compress_uniform, decompress
    from embcompress.theory import gen_student_t_matrix

    X = gen_student_t_matrix(10_000, 50, df=5.0, scale=1.0, seed=0)
    yield "k=d-1bit", X, decompress(compress_uniform(X, 1))
    yield "k=d-4bit-stoch", X, decompress(compress_uniform(X, 4, rounding="stochastic", seed=1))
    yield "k<d-pca", X, decompress(compress_pca(X, 20))
    yield "k<d-columns", X, X[:, :30] + 0.1 * RNG.standard_t(5, size=(10_000, 30))


def _rotated_spectrum(n, k, cond, seed):
    """n x k with singular values spread evenly in log scale over ``cond``,
    under a random rotation, so no column scaling undoes the conditioning."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, k)))[0]
    V = np.linalg.qr(rng.normal(size=(k, k)))[0]
    return (Q * np.logspace(0, -math.log10(cond), k)) @ V


class TestGramPath:
    """Candidates scored from their Gram matrix against the SVD path."""

    @pytest.mark.parametrize("case", list(_student_t_pairs()), ids=lambda c: c[0])
    def test_matches_svd_path(self, case, candidate_svds, monkeypatch):
        _, X, Xt = case
        prepared = PreparedBase(X)
        del candidate_svds[:]
        gram = prepared.report(Xt, 0.5)
        assert candidate_svds == []
        assert prepared.overlap(Xt) == gram.eigenspace_overlap
        assert_paths_agree(gram, svd_path_report(prepared, Xt, 0.5, monkeypatch), prepared)

    @pytest.mark.parametrize("cond", [1e2, 5e2, 2e3, 1e5])
    def test_cond_sweep_picks_the_path(self, cond, candidate_svds, monkeypatch):
        X = RNG.normal(size=(2000, 12))
        Xt = _rotated_spectrum(2000, 10, cond, seed=int(cond))
        prepared = PreparedBase(X)
        del candidate_svds[:]
        rep = prepared.report(Xt, 0.5)
        assert len(candidate_svds) == (0 if cond <= linalg.GRAM_MAX_COND else 1)
        assert_paths_agree(rep, svd_path_report(prepared, Xt, 0.5, monkeypatch), prepared)


def _fallback_pairs():
    from embcompress.compress import compress_pca, compress_uniform, decompress
    from embcompress.theory import gen_scaled_matrix, stochastic_quantize_full_range

    X = RNG.normal(size=(60, 8))
    yield "pca-keep-v", X, decompress(compress_pca(X, 3, keep_v=True))
    # the scaled matrix itself, cond 1e6, as the candidate of its quantization
    S = gen_scaled_matrix(150, 6, 1e-6, seed=3)
    yield "scaled-cond-1e6", stochastic_quantize_full_range(S, 4, seed=4), S
    W = RNG.normal(size=(30, 5))
    yield "k>n", W, RNG.normal(size=(30, 40))
    Z = decompress(compress_uniform(X, 2))
    Z[:, 3] = 0.0
    yield "zero-column", X, Z


@pytest.mark.filterwarnings("ignore::embcompress.measures.RankDeficiencyWarning")
@pytest.mark.parametrize("case", list(_fallback_pairs()), ids=lambda c: c[0])
def test_fallback_takes_the_svd_and_its_values(case, candidate_svds):
    # each of these leaves the Gram path, takes exactly one SVD of Xt, and
    # reports what the SVD formulas give
    _, X, Xt = case
    prepared = PreparedBase(X)
    del candidate_svds[:]
    rep = prepared.report(Xt, 1e-3)
    assert candidate_svds == [Xt.shape]
    assert prepared.overlap(Xt) == rep.eigenspace_overlap
    ft = thin_svd(Xt)
    Ut = ft.U[:, : ft.rank()]
    # U^T Ut: the retained U of an SVD-path base, all of X's U on the Gram path
    M = basis_ops(prepared)[0](Ut) if prepared.svd is None else prepared.U.T @ Ut
    assert rep.eigenspace_overlap == sq_fro_norm(M) / max(X.shape[1], Xt.shape[1])
    assert rep.projected_reconstruction_error == max(
        sq_fro_norm(X) - sq_fro_norm(Ut.T @ X), 0.0
    )
    assert rep.pip_loss == math.sqrt(max(
        sq_fro_norm(X.T @ X) + sq_fro_norm(Xt.T @ Xt) - 2.0 * sq_fro_norm(X.T @ Xt), 0.0
    ))
    assert rep.rank_xt == ft.rank()


def basis_ops(prepared):
    """(Y -> U^T Y, Z -> U Z) for all of X's left singular vectors U, read as
    the base's path reads them: the SVD's U, or U = X V diag(1/s) unformed on
    the Gram path."""
    if prepared.svd is not None:
        U = prepared.svd.U
        return (lambda Y: U.T @ Y), (lambda Z: U @ Z)
    X, V, s = prepared.X, prepared.V, prepared.s
    return (lambda Y: (V.T @ (X.T @ Y)) / s[:, None]), (lambda Z: X @ (V @ (Z / s[:, None])))


def explicit_deltas(prepared, Xt, lam):
    """The deltas with the residual formed explicitly, written out: E = Xt -
    U P with one re-orthogonalisation pass, the QR of E, then the QR of the
    small matrix and the eigenvalues of R J R^T."""
    project, lift = basis_ops(prepared)
    s = prepared.s
    d, k = s.shape[0], Xt.shape[1]
    P = project(Xt)
    E = Xt - lift(P)
    C = project(E)
    E -= lift(C)
    P += C
    Re = np.linalg.qr(E, mode="r")
    s2 = s * s
    M = np.zeros((d + Re.shape[0], k + d))
    M[:d, :k] = P / np.sqrt(s2 + lam)[:, None]
    M[:d, k:] = np.diag(np.sqrt(s2 / (s2 + lam)))
    M[d:, :k] = Re / math.sqrt(lam)
    R = np.linalg.qr(M, mode="r")
    J = np.concatenate([np.ones(k), -np.ones(d)])
    eigs = np.linalg.eigvalsh((R * J) @ R.T)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if Xt.shape[0] > R.shape[0]:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    delta1, delta2 = 0.0 - lo, hi + 0.0
    delta_max = math.inf if delta1 >= 1.0 else max(1.0 / (1.0 - delta1), delta2)
    return delta1, delta2, max(delta1, delta2), delta_max


def report_deltas(rep):
    return rep.delta1, rep.delta2, rep.delta, rep.delta_max


@pytest.fixture(scope="module")
def student_t_base():
    from embcompress.theory import gen_student_t_matrix

    X = gen_student_t_matrix(2000, 40, df=5.0, scale=1.0, seed=7)
    return X, PreparedBase(X)


class TestGramResidual:
    """The residual factor from G - P^T P against the explicit residual."""

    @pytest.mark.parametrize("rounding", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_matches_the_explicit_path(self, bits, rounding, student_t_base, monkeypatch):
        from embcompress.compress import compress_uniform, decompress

        X, prepared = student_t_base
        Xt = decompress(compress_uniform(X, bits, rounding=rounding, seed=bits))
        lam0 = prepared.resolve_lambda()
        for lam in (lam0, lam0 / 10, lam0 / 100):
            rep, rows = residual_qr_rows(prepared, Xt, lam, monkeypatch)
            if bits <= 4:  # trace(G - P^T P) / trace(G) is above 3e-2 here
                assert rows == [X.shape[1] + Xt.shape[1]]
            got, want = report_deltas(rep), explicit_deltas(prepared, Xt, lam)
            for g, w in zip(got[:3], want[:3]):
                assert abs(g - w) <= 1e-12 * abs(w)
            # delta_max = 1/(1 - delta1) amplifies an error in delta1 by delta_max
            assert abs(got[3] - want[3]) <= 1e-12 * want[3] * max(want[3], 1.0)

    def test_well_conditioned_candidate_qrs_only_the_small_matrix(self, monkeypatch):
        from embcompress.compress import compress_uniform, decompress

        X = RNG.normal(size=(500, 20))
        Xt = decompress(compress_uniform(X, 4))
        _, rows = residual_qr_rows(PreparedBase(X), Xt, 0.5, monkeypatch)
        assert rows == [20 + 20]


def _explicit_residual_pairs():
    from embcompress.compress import compress_pca, compress_uniform, decompress

    rng = np.random.default_rng(1618)
    X = rng.normal(size=(300, 10))
    yield "pca-keep-v", X, decompress(compress_pca(X, 4, keep_v=True))
    yield "pca-narrow", X, decompress(compress_pca(X, 4))
    yield "12-bit", X, decompress(compress_uniform(X, 12))
    yield "rank-deficient-base", np.hstack([X[:, :9], X[:, :1]]), rng.normal(size=(300, 6))
    yield "svd-path", X, _rotated_spectrum(300, 8, 1e5, seed=5)


@pytest.mark.filterwarnings("ignore::embcompress.measures.RankDeficiencyWarning")
@pytest.mark.parametrize("case", list(_explicit_residual_pairs()), ids=lambda c: c[0])
def test_refused_residual_factor_keeps_the_explicit_path_bit_for_bit(case, monkeypatch):
    _, X, Xt = case
    prepared = PreparedBase(X)
    rep, rows = residual_qr_rows(prepared, Xt, 1e-2, monkeypatch)
    assert rows[0] == X.shape[0]
    assert report_deltas(rep) == explicit_deltas(prepared, Xt, 1e-2)


def _power_law(n, d, cond, seed):
    """n x d with singular values s_i = i^-alpha, alpha set so that
    s_1 / s_d = cond, under random rotations on both sides."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, d)))[0]
    W = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return (Q * np.arange(1, d + 1) ** -(math.log(cond) / math.log(d))) @ W.T


def svd_base(X, monkeypatch):
    """X's PreparedBase with the Gram path refused: the SVD-path reference."""
    with monkeypatch.context() as m:
        m.setattr(measures, "gram_eigh", lambda A: None)
        return PreparedBase(X)


def _power_law_candidates(X):
    from embcompress.compress import compress_kmeans, compress_pca, compress_uniform, decompress

    yield "uniform-1bit", decompress(compress_uniform(X, 1))
    yield "uniform-4bit", decompress(compress_uniform(X, 4))
    yield "kmeans-3bit", decompress(compress_kmeans(X, 3))
    yield "pca", decompress(compress_pca(X, 20))
    # rank 20 in 60 columns: an SVD-path candidate of a Gram-path base
    yield "pca-keep-v", decompress(compress_pca(X, 20, keep_v=True))


# (cond(X), takes the Gram path): two well inside the guard, one on each side
POWER_LAW_CONDS = [pytest.param(cond, cond <= 1e3, id=f"cond-{cond:g}")
                   for cond in (2e1, 3e2, 9e2, 1.1e3)]

# Largest relative differences the Gram-path base may show against the SVD
# path, set from eps * cond(X)^2 = 2e-10 at the guard.  On these bases the
# overlap moved by at most 6e-14, lambda and the deltas by 2e-12.  PIP loss,
# the reconstruction errors, ranks and shapes come from the same blocks on
# both paths and must match exactly.
OVERLAP_RTOL = 1e-12
SPECTRAL_RTOL = 1e-10


@pytest.mark.filterwarnings("ignore::embcompress.measures.RankDeficiencyWarning")
@pytest.mark.parametrize("cond, gram", POWER_LAW_CONDS)
def test_gram_base_matches_the_svd_base(cond, gram, monkeypatch):
    X = _power_law(3000, 60, cond, seed=int(cond))
    prepared, reference = PreparedBase(X), svd_base(X, monkeypatch)
    assert (prepared.svd is None) == gram and prepared.rank == reference.rank == 60
    for name, Xt in _power_law_candidates(X):
        got, want = prepared.report(Xt), reference.report(Xt)
        if not gram:
            assert got == want, name
            continue
        assert abs(got.eigenspace_overlap - want.eigenspace_overlap) <= (
            OVERLAP_RTOL * want.eigenspace_overlap), name
        assert abs(got.lambda_used - want.lambda_used) <= SPECTRAL_RTOL * want.lambda_used
        for field in ("delta1", "delta2", "delta", "delta_max"):
            g, w = getattr(got, field), getattr(want, field)
            # PCA's delta2 is 0 up to rounding: below 1 the tolerance is absolute
            assert abs(g - w) <= SPECTRAL_RTOL * max(abs(w), 1.0), (name, field)
        for field in ("pip_loss", "reconstruction_error", "projected_reconstruction_error",
                      "rank_x", "rank_xt", "n", "d", "k"):
            assert getattr(got, field) == getattr(want, field), (name, field)
        assert prepared.overlap(Xt) == got.eigenspace_overlap


def _svd_path_bases():
    X = np.random.default_rng(99).normal(size=(200, 12))
    yield "rank-deficient", np.hstack([X[:, :11], X[:, :1]]), X[:, :7]
    yield "wide", X[:10].copy(), np.random.default_rng(5).normal(size=(10, 4))
    yield "over-threshold", _power_law(200, 12, 1.1e3, seed=3), X[:, :5]


@pytest.mark.filterwarnings("ignore::embcompress.measures.RankDeficiencyWarning")
@pytest.mark.parametrize("case", list(_svd_path_bases()), ids=lambda c: c[0])
def test_other_bases_keep_the_svd_path(case, monkeypatch):
    _, X, Xt = case
    prepared = PreparedBase(X)
    assert prepared.svd is not None and prepared.U is not None
    assert prepared.report(Xt, 0.5) == svd_base(X, monkeypatch).report(Xt, 0.5)


@pytest.mark.parametrize("k", [10, 100, 300])
def test_condition_estimate_admits_exactly_what_cond2_admits(k, monkeypatch):
    # the trcon estimate reads 2 to 50 times above cond_2(L) on rotated
    # factors; a factor it puts over the bound is decided by an SVD of L, so
    # the path is cond_2's choice, and each admitted candidate meets the
    # overlap tolerance against the SVD path
    X = RNG.normal(size=(2000, k))
    prepared = PreparedBase(X)
    svd_calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        svd_calls.append(a.shape)
        return svd(a, *args, **kwargs)

    for cond in (3.0, 3e2, 9e2, 1.1e3, 3e3):
        Xt = _rotated_spectrum(2000, k, cond, seed=k + int(cond))
        L = np.linalg.cholesky(Xt.T @ Xt)
        sv = np.linalg.svd(L, compute_uv=False)
        estimate = 1.0 / linalg._lower_rcond(L)
        assert estimate >= sv[0] / sv[-1]
        del svd_calls[:]
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", spy)
            admitted = linalg.well_conditioned_cholesky(Xt.T @ Xt) is not None
        assert admitted == (sv[0] / sv[-1] <= linalg.GRAM_MAX_COND), cond
        # the k x k SVD runs only to confirm an estimate over the bound
        assert svd_calls == ([] if estimate <= linalg.GRAM_MAX_COND else [(k, k)]), cond
        if admitted:
            gram = prepared.overlap(Xt)
            with monkeypatch.context() as m:
                m.setattr(linalg, "GRAM_MAX_COND", 0.0)
                assert abs(gram - prepared.overlap(Xt)) <= 1e-10


def _parent_rule(G) -> bool:
    """The guard before the estimate: a Cholesky factor with cond_2 <= 1e3."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    sv = np.linalg.svd(L, compute_uv=False)
    return bool(sv[-1] * linalg.GRAM_MAX_COND >= sv[0])


def _benchmark_and_ci_case(name):
    """A base and its candidates from the benchmark's lib and cli workloads
    (at seed 0) or from the CI smoke test."""
    from embcompress.compress import compress_kmeans, compress_pca, compress_uniform
    from embcompress.theory import gen_scaled_matrix, gen_student_t_matrix, gen_uniform_matrix

    if name == "lib":
        X = gen_student_t_matrix(10_000, 300, df=5.0, scale=1.0, seed=0)
        return X, [compress_uniform(X, 1), compress_uniform(X, 4),
                   compress_uniform(X, 4, rounding="stochastic"), compress_kmeans(X, 3),
                   compress_pca(X, 75)]
    if name == "cli":
        X = gen_uniform_matrix(10_000, 100, 0)
        return X, [compress_uniform(X, 1), compress_uniform(X, 4, rounding="stochastic"),
                   compress_kmeans(X, 2), compress_pca(X, 25, keep_v=True)]
    if name == "ci":
        X = gen_uniform_matrix(200, 16, 0)
        return X, [compress_uniform(X, 2), compress_uniform(X, 2, rounding="stochastic"),
                   compress_pca(X, 4, keep_v=True)]
    if name == "ci-15":
        X = gen_uniform_matrix(200, 15, 1)
        return X, [compress_uniform(X, 3), compress_kmeans(X, 3)]
    X = gen_scaled_matrix(200, 16, 1e-4, 0)
    return X, [compress_pca(X, 4)]


@pytest.mark.parametrize("name", ["lib", "cli", "ci", "ci-15", "ci-ill"])
def test_benchmark_and_ci_candidates_keep_their_paths(name):
    from embcompress.compress import decompress

    X, containers = _benchmark_and_ci_case(name)
    # the bases change path: the well-conditioned ones leave the SVD
    assert (PreparedBase(X).svd is None) == (name != "ci-ill")
    U = thin_svd(X).U
    for C in containers:
        Xt = decompress(C)
        G = Xt.T @ Xt
        assert (linalg.well_conditioned_cholesky(G) is not None) == _parent_rule(G)
        P = U.T @ Xt
        S = G - P.T @ P
        if np.trace(S) >= measures._RESIDUAL_MIN_TRACE * np.trace(G):
            assert (linalg.well_conditioned_cholesky(S) is not None) == _parent_rule(S)
