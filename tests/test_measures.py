import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from embcompress import measures
from embcompress.linalg import LinalgError, least_squares_solve, sq_fro_norm, thin_svd
from embcompress.measures import (
    PreparedBase,
    RankDeficiencyWarning,
    eigenspace_overlap,
    pip_loss,
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
        assert pip_loss(X, X) == 0.0
        assert pip_loss(X, -X) == 0.0

    def test_scaled_column(self):
        X = np.array([[1.0], [0.0]])
        assert pip_loss(X, 2.0 * X) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [20, 100, 200])
    def test_matches_dense_gram_difference(self, n):
        X = RNG.normal(size=(n, 7))
        Xt = X + 0.1 * RNG.normal(size=(n, 7))
        assert pip_loss(X, Xt) == pytest.approx(dense_pip(X, Xt), abs=1e-7)

    def test_different_widths_allowed(self):
        X = RNG.normal(size=(30, 6))
        Xt = RNG.normal(size=(30, 2))
        assert pip_loss(X, Xt) == pytest.approx(dense_pip(X, Xt), abs=1e-7)


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


@pytest.mark.parametrize("case", list(_column_decay_pairs()), ids=lambda c: c[0])
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
        m.setattr(measures, "_GRAM_MAX_COND", 0.0)
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
        assert len(candidate_svds) == (0 if cond <= measures._GRAM_MAX_COND else 1)
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
    U = prepared.U
    assert rep.eigenspace_overlap == sq_fro_norm(U.T @ Ut) / max(X.shape[1], Xt.shape[1])
    assert rep.projected_reconstruction_error == max(
        sq_fro_norm(X) - sq_fro_norm(Ut.T @ X), 0.0
    )
    assert rep.pip_loss == pip_loss(X, Xt)
    assert rep.rank_xt == ft.rank()
