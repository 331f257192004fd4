import math
import tracemalloc
import warnings

import numpy as np
import pytest

from embcompress import theory
from embcompress.compress import QuantizationGrid, compress_pca, decompress, quantize_codes
from embcompress.linalg import LinalgError, det_sum, least_squares_solve, sq_fro_norm, thin_svd
from embcompress.measures import PreparedBase, RankDeficiencyWarning, eigenspace_overlap
from embcompress.rng import CounterRng
from embcompress.theory import (
    GdConfig,
    _fit_logistic_gd,
    LabelModel,
    clipping_curve,
    closed_form_risk,
    conditioning_scalar,
    davis_kahan_sample_bound,
    exact_expected_gap,
    expected_gap_upper_bound,
    fit_linear_model,
    gen_scaled_matrix,
    gen_student_t_matrix,
    gen_uniform_matrix,
    lipschitz_gap_bound,
    scaling_experiment,
    simulate_lipschitz_gap,
    simulate_regression_gap,
    stochastic_quantize_full_range,
    table4_perturbation,
    uniform_overlap_bound,
)

RNG = np.random.default_rng(2718)


def coordinate_columns(n, cols):
    X = np.zeros((n, len(cols)))
    for j, i in enumerate(cols):
        X[i, j] = 1.0
    return X


class TestClosedFormRisk:
    def test_zero_for_spanned_noiseless_labels(self):
        X = RNG.normal(size=(20, 4))
        ybar = X @ RNG.normal(size=4)
        assert closed_form_risk(X, ybar, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        X = np.array([[1.0], [0.0]])
        assert closed_form_risk(X, [1.0, 1.0], 0.5) == pytest.approx(0.75)

    def test_matches_noise_draw_simulation(self):
        # oracle: draw noise, solve the normal equations per draw, average
        # the squared prediction error against the true labels
        X = np.array([[1.0], [0.0]])
        ybar = np.array([1.0, 1.0])
        sigma2 = 0.5
        f = thin_svd(X)
        draws = 100_000
        eps = RNG.normal(scale=math.sqrt(sigma2), size=(2, draws))
        Y = ybar[:, None] + eps
        W = (f.V / f.s) @ (f.U.T @ Y)
        errs = np.sum((X @ W - ybar[:, None]) ** 2, axis=0) / 2.0
        se = errs.std(ddof=1) / math.sqrt(draws)
        assert closed_form_risk(X, ybar, sigma2) == pytest.approx(
            errs.mean(), abs=3 * se
        )

    def test_rank_deficient_rejected(self):
        with pytest.raises(LinalgError, match="rank"):
            closed_form_risk(np.ones((4, 2)), np.zeros(4), 0.0)


@pytest.mark.parametrize("call", [
    lambda X, Xt: exact_expected_gap(X, Xt, LabelModel()),
    lambda X, Xt: simulate_regression_gap(X, Xt, LabelModel(), 4, seed=1),
    lambda X, Xt: simulate_lipschitz_gap(X, Xt, LabelModel(), 4, seed=1),
], ids=["exact_expected_gap", "simulate_regression_gap", "simulate_lipschitz_gap"])
def test_rank_deficient_design_raises_without_a_warning(call):
    X = gen_uniform_matrix(40, 4, seed=3)
    X[:, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinalgError, match=r"^X is rank-deficient \(numerical rank 3 < 4"):
            call(X, gen_uniform_matrix(40, 3, seed=4))


class TestExactExpectedGap:
    def test_zero_for_identical(self):
        X = RNG.normal(size=(30, 5))
        assert exact_expected_gap(X, X, LabelModel(noise_ratio=1.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hand_computed_half_overlap(self):
        # n=4, d=2, k=1, c=1, identity covariance, overlap 1/2:
        # gap = 0.5*0.5 - 1*2*1/16 = 0.125
        X = coordinate_columns(4, [0, 1])
        Xt = coordinate_columns(4, [0])
        assert eigenspace_overlap(X, Xt) == pytest.approx(0.5)
        gap = exact_expected_gap(X, Xt, LabelModel(noise_ratio=1.0))
        assert gap == pytest.approx(0.125)

    def test_monte_carlo_consistency_identity(self):
        X = gen_uniform_matrix(200, 10, seed=1)
        Xt = decompress(compress_pca(X, 5))
        model = LabelModel(noise_ratio=0.5)
        res = simulate_regression_gap(X, Xt, model, trials=20_000, seed=4)
        assert res.theory_kind == "exact_identity"
        assert abs(res.estimate - res.theory_value) <= 4 * res.std_error

    def test_monte_carlo_consistency_explicit_covariance(self):
        X = gen_uniform_matrix(150, 6, seed=2)
        Xt = stochastic_quantize_full_range(X, 2, 9)
        cov = np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.25])
        model = LabelModel(covariance=cov, noise_ratio=0.3)
        res = simulate_regression_gap(X, Xt, model, trials=20_000, seed=5)
        assert abs(res.estimate - res.theory_value) <= 4 * res.std_error

    def test_upper_bound_dominates_exact_gap(self):
        X = gen_uniform_matrix(100, 8, seed=3)
        Xt = stochastic_quantize_full_range(X, 3, 7)
        cov = np.diag(np.linspace(2.0, 0.5, 8))
        model = LabelModel(covariance=cov, noise_ratio=0.2)
        assert expected_gap_upper_bound(X, Xt, model) >= exact_expected_gap(
            X, Xt, model
        ) - 1e-12

    def test_covariance_size_checked(self):
        X = gen_uniform_matrix(20, 4, seed=0)
        with pytest.raises(ValueError, match="covariance"):
            exact_expected_gap(X, X, LabelModel(covariance=np.eye(3)))


class TestRegressionGapSimulation:
    def test_identical_designs_give_zero_to_rounding(self):
        # X projects onto its own Gram-path basis X V diag(1/s) and onto the
        # Cholesky basis X L^{-T} of the same span; each gap is a difference of
        # sums of d squares of order 1, over n, so it rounds to a few d eps / n
        n, d = 50, 6
        X = gen_uniform_matrix(n, d, seed=0)
        res = simulate_regression_gap(X, X, LabelModel(noise_ratio=1.0), 100, seed=1)
        tol = 10 * d * np.finfo(float).eps / n
        assert abs(res.estimate) <= tol
        assert res.std_error <= tol

    def test_span_preserving_candidate_gives_zero(self):
        X = gen_uniform_matrix(40, 5, seed=2)
        R = RNG.normal(size=(5, 5)) + 4 * np.eye(5)
        res = simulate_regression_gap(X, X @ R, LabelModel(), 100, seed=3)
        assert abs(res.estimate) <= 1e-10

    def test_requires_two_trials(self):
        X = gen_uniform_matrix(10, 2, seed=0)
        with pytest.raises(ValueError, match="trials"):
            simulate_regression_gap(X, X, LabelModel(), 1, seed=0)

    def test_trace_identity_matches_frobenius_form(self):
        X = gen_uniform_matrix(120, 9, seed=4)
        Xt = stochastic_quantize_full_range(X, 2, 5)
        U = thin_svd(X).U
        Ut = thin_svd(Xt).U
        M = Ut.T @ U
        assert sq_fro_norm(M) == pytest.approx(float(np.trace(U.T @ Ut @ M)), abs=1e-10)


class TestLipschitzBound:
    def test_zero_at_full_overlap_no_noise(self):
        X = gen_uniform_matrix(30, 4, seed=1)
        assert lipschitz_gap_bound(X, X, 1.0, LabelModel()) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_hand_computed_value(self):
        # identity covariance, L=1, d=4, n=100, overlap 3/4, c=0 -> 0.1
        X = coordinate_columns(100, [0, 1, 2, 3])
        Xt = coordinate_columns(100, [0, 1, 2])
        assert eigenspace_overlap(X, Xt) == pytest.approx(0.75)
        assert lipschitz_gap_bound(X, Xt, 1.0, LabelModel()) == pytest.approx(0.1)

    def test_simulated_gap_below_bound(self):
        X = gen_uniform_matrix(80, 6, seed=2)
        Xt = stochastic_quantize_full_range(X, 4, 3)
        model = LabelModel(noise_ratio=0.1)
        res = simulate_lipschitz_gap(X, Xt, model, trials=200, seed=8)
        assert res.theory_kind == "upper_bound"
        assert res.estimate <= res.theory_value + 4 * res.std_error

    @pytest.mark.parametrize("extra", [-3, 0, 2])
    def test_simulated_bound_equals_lipschitz_gap_bound(self, extra):
        # Xt narrower than, as wide as and wider than X: the bound from the
        # harness's own factors must be the public function's value exactly
        X = gen_uniform_matrix(80, 6, seed=2)
        if extra < 0:
            Xt = X[:, :extra]
        elif extra == 0:
            Xt = stochastic_quantize_full_range(X, 4, 3)
        else:
            Xt = np.hstack([X, gen_uniform_matrix(80, extra, seed=7)])
        model = LabelModel(noise_ratio=0.1)
        res = simulate_lipschitz_gap(X, Xt, model, trials=3, seed=8, L=2.5)
        assert res.theory_value == lipschitz_gap_bound(X, Xt, 2.5, model)

    def test_identical_designs_gap_is_zero(self):
        X = gen_uniform_matrix(40, 4, seed=5)
        res = simulate_lipschitz_gap(X, X, LabelModel(noise_ratio=0.1), 50, seed=9)
        assert abs(res.estimate) <= max(3 * res.std_error, 1e-12)

    def test_two_trials_have_positive_std_error(self):
        X = gen_uniform_matrix(30, 3, seed=6)
        Xt = stochastic_quantize_full_range(X, 1, 2)
        res = simulate_lipschitz_gap(X, Xt, LabelModel(noise_ratio=0.1), 2, seed=10)
        assert math.isfinite(res.std_error) and res.std_error > 0


class TestOverlapBound:
    def test_values(self):
        assert uniform_overlap_bound(4, 1.0) == pytest.approx(20 / 225)
        assert uniform_overlap_bound(1, 1.0) == pytest.approx(20.0)  # vacuous
        assert uniform_overlap_bound(8, 1.0) == pytest.approx(20 / 65025)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            uniform_overlap_bound(0, 1.0)
        with pytest.raises(ValueError):
            uniform_overlap_bound(4, 1.5)


class TestDavisKahanBound:
    def test_zero_for_identical(self):
        X = gen_uniform_matrix(30, 4, seed=0)
        assert davis_kahan_sample_bound(X, X) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_definition(self):
        base = thin_svd(RNG.normal(size=(25, 5))).U
        X = base * np.array([3.0, 2.5, 2.0, 1.5, 1.0])
        Xt = X + 0.01 * RNG.normal(size=X.shape)
        H = Xt @ Xt.T - X @ X.T
        smin_sq = 1.0  # smallest singular value squared of X
        direct = float(np.linalg.norm(H, "fro") ** 2) / (5 * smin_sq**2)
        assert davis_kahan_sample_bound(X, Xt) == pytest.approx(direct, rel=1e-9)

    def test_holds_per_seed_for_quantization(self):
        X = gen_uniform_matrix(300, 6, seed=1)
        assert conditioning_scalar(X) >= 0.5
        for seed in range(100):
            Xt = stochastic_quantize_full_range(X, 4, seed)
            gap = 1.0 - eigenspace_overlap(X, Xt)
            assert gap <= davis_kahan_sample_bound(X, Xt)


class TestBoundsOnPreparedBase:
    def test_same_values_as_plain_matrix(self):
        X = gen_uniform_matrix(80, 6, seed=2)
        Xt = stochastic_quantize_full_range(X, 4, 3)
        base = PreparedBase(X)
        model = LabelModel(noise_ratio=0.1)
        assert lipschitz_gap_bound(base, Xt, 2.0, model) == lipschitz_gap_bound(X, Xt, 2.0, model)
        assert expected_gap_upper_bound(base, Xt, model) == expected_gap_upper_bound(X, Xt, model)
        assert davis_kahan_sample_bound(base, Xt) == davis_kahan_sample_bound(X, Xt)
        assert conditioning_scalar(base) == conditioning_scalar(X)

    @pytest.mark.parametrize("decay_min", [1.0, 1e-4], ids=["gram-path", "svd-path"])
    def test_davis_kahan_matches_a_fresh_gram_bit_for_bit(self, decay_min):
        X = gen_scaled_matrix(200, 6, decay_min, seed=4)
        base = PreparedBase(X)
        for seed in range(3):
            Xt = stochastic_quantize_full_range(X, 4, seed)
            sq = sq_fro_norm(X.T @ X) + sq_fro_norm(Xt.T @ Xt) - 2.0 * sq_fro_norm(X.T @ Xt)
            want = math.sqrt(max(sq, 0.0)) ** 2 / (X.shape[1] * float(base.s[-1]) ** 4)
            assert davis_kahan_sample_bound(base, Xt) == want

    @pytest.mark.filterwarnings("ignore::embcompress.measures.RankDeficiencyWarning")
    def test_same_errors_as_plain_matrix(self):
        X = gen_uniform_matrix(40, 4, seed=3)
        X[:, 1] = 0.0
        with pytest.warns(RankDeficiencyWarning):
            base = PreparedBase(X)
        for arg in (X, base):
            with pytest.raises(LinalgError, match="X is rank-deficient"):
                davis_kahan_sample_bound(arg, X)
            with pytest.raises(ValueError, match="shape mismatch"):
                davis_kahan_sample_bound(arg, X[:, :3])
            with pytest.raises(ValueError, match="covariance is 3x3"):
                lipschitz_gap_bound(arg, X, 1.0, LabelModel(covariance=np.eye(3)))
            with pytest.raises(ValueError, match="L must be positive"):
                lipschitz_gap_bound(arg, X, 0.0, LabelModel())


class TestGenerators:
    def test_uniform_bounds_and_reproducibility(self):
        X = gen_uniform_matrix(500, 16, seed=3)
        assert np.max(np.abs(X)) <= 1.0 / math.sqrt(16)
        np.testing.assert_array_equal(X, gen_uniform_matrix(500, 16, seed=3))
        assert np.any(X != gen_uniform_matrix(500, 16, seed=4))

    def test_uniform_mean_moment(self):
        X = gen_uniform_matrix(1000, 50, seed=7)
        sd_entry = (2.0 / math.sqrt(50)) / math.sqrt(12.0)
        assert abs(X.mean()) <= 4.0 * sd_entry / math.sqrt(X.size)

    def test_scaled_matrix_column_factors(self):
        X = gen_uniform_matrix(200, 2, seed=5)
        Xs = gen_scaled_matrix(200, 2, 0.01, seed=5)
        np.testing.assert_allclose(Xs[:, 0], X[:, 0])
        np.testing.assert_allclose(Xs[:, 1], 0.01 * X[:, 1])

    def test_decay_one_is_identity(self):
        np.testing.assert_array_equal(
            gen_scaled_matrix(100, 6, 1.0, seed=9), gen_uniform_matrix(100, 6, seed=9)
        )

    def test_student_t_reproducible_and_heavy_tailed(self):
        X = gen_student_t_matrix(2000, 10, df=3.0, scale=1.0, seed=0)
        np.testing.assert_array_equal(X, gen_student_t_matrix(2000, 10, 3.0, 1.0, 0))
        assert np.max(np.abs(X)) > 6.0  # tails reach far beyond the bulk

    @pytest.mark.parametrize("df", [2.5, 5.0, 30.0])
    def test_student_t_matches_scipy_stats_ppf(self, df):
        import scipy.stats

        u = CounterRng(4).uniform_block(300, 7)
        want = 1.7 * scipy.stats.t.ppf(u, df)
        assert gen_student_t_matrix(300, 7, df, 1.7, seed=4).tobytes() == want.tobytes()



def _whole_uniform(n, d, seed):
    return (2.0 * CounterRng(seed).uniform_block(n, d) - 1.0) / math.sqrt(d)


class TestRowBlockedOracle:
    """Each generator and the full-range quantizer, written in row blocks of
    about ``_BLOCK_SCALARS`` scalars (655 rows at d = 100), against its
    whole-matrix expression: equal bytes, whether n is below one block or
    not a multiple of it."""

    SHAPES = pytest.mark.parametrize("n, d", [(300, 100), (2000, 100), (7, 1)])

    @SHAPES
    def test_uniform(self, n, d):
        assert gen_uniform_matrix(n, d, 5).tobytes() == _whole_uniform(n, d, 5).tobytes()

    @SHAPES
    def test_scaled(self, n, d):
        want = _whole_uniform(n, d, 6) * np.logspace(0.0, math.log10(1e-3), d)
        assert gen_scaled_matrix(n, d, 1e-3, 6).tobytes() == want.tobytes()

    @SHAPES
    def test_student_t(self, n, d):
        import scipy.special

        want = 1.3 * scipy.special.stdtrit(4.0, CounterRng(7).uniform_block(n, d))
        assert gen_student_t_matrix(n, d, 4.0, 1.3, 7).tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [None, 37])
    @pytest.mark.parametrize("cores", [1, 3])
    def test_student_t_on_any_cores_and_blocking(self, monkeypatch, cores, block):
        # the draw runs one thread per usable core, here switching threads
        # every microsecond, so workers interleave within a block's numpy calls
        import os
        import sys

        import scipy.special

        from embcompress import linalg

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        if block is not None:
            monkeypatch.setattr(linalg, "_BLOCK_SCALARS", block)
        want = 1.3 * scipy.special.stdtrit(4.0, CounterRng(7).uniform_block(2000, 100))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = gen_student_t_matrix(2000, 100, 4.0, 1.3, 7)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    @SHAPES
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_full_range_quantizer(self, n, d, bits):
        X = gen_uniform_matrix(n, d, 8)
        grid = QuantizationGrid(bits, 1.0 / math.sqrt(d))
        want = grid.values_for(quantize_codes(X, grid, "stochastic", CounterRng(9)))
        assert stochastic_quantize_full_range(X, bits, 9).tobytes() == want.tobytes()

    def test_full_range_quantizer_rejects_an_entry_past_the_interval(self):
        X = gen_uniform_matrix(50, 4, 1)
        for sign in (1.0, -1.0):
            Y = X.copy()
            Y[17, 2] = sign * np.nextafter(0.5, 1.0)
            with pytest.raises(ValueError, match="exceed"):
                stochastic_quantize_full_range(Y, 2, 0)


def _plain_gaps(X, Xt, model, trials, seed):
    """The gaps of simulate_regression_gap from the whole n x trials label
    matrix, with the bases the harness reads: X's Gram-path basis
    X V diag(1/s) and Xt's Cholesky basis Xt L^{-T}, both formed explicitly."""
    n, d = X.shape
    base = PreparedBase(X)
    assert base.svd is None
    U = X @ (base.V / base.s)
    Ut = np.linalg.solve(np.linalg.cholesky(Xt.T @ Xt), Xt.T).T
    Z = CounterRng(seed).substream(0).normal_block(trials, d)
    S = model.sqrt_factor()
    if S is not None:
        Z = Z @ S
    Y = U @ Z.T
    px, pt = U.T @ Y, Ut.T @ Y
    return (np.sum(px * px, axis=0) - np.sum(pt * pt, axis=0)
            + (Xt.shape[1] - d) * model.sigma2(n, d)) / n


class TestStreamedRegressionGapOracle:
    """The trial-blocked gaps against :func:`_plain_gaps`, which forms the
    bases explicitly where the harness reads them through X and L: they
    agreed to 4e-15 relative (OpenBLAS, 1 and 2 threads).  Blocks of a
    multiple of 64 trials gave the gaps of one whole block bit for bit (n =
    2000, 3000 trials); the tolerance also leaves room for other GEMM
    kernels, whose edge cases may sum in another order."""

    RTOL = 1e-12

    @pytest.mark.parametrize("covariance", [None, np.diag([3.0, 2.0, 1.0, 0.5, 0.25, 0.1]) + 0.05],
                             ids=["identity", "explicit"])
    @pytest.mark.parametrize("blocks", [(1, 0), (1, 3), (3, 0)],
                             ids=["one-block", "one-block-plus-3", "three-blocks"])
    def test_gaps_match_the_whole_label_matrix(self, monkeypatch, covariance, blocks):
        n = 1000
        X = gen_uniform_matrix(n, 6, seed=11)
        Xt = stochastic_quantize_full_range(X, 2, 12)[:, :5]
        model = LabelModel(covariance, noise_ratio=0.3)
        block = theory._trial_block(n, 10**6)
        assert block == 1024
        trials = blocks[0] * block + blocks[1]
        seen = []
        real = theory._experiment_result
        monkeypatch.setattr(theory, "_experiment_result",
                            lambda gaps, *a, **k: seen.append(gaps.copy()) or real(gaps, *a, **k))
        res = simulate_regression_gap(X, Xt, model, trials, seed=13)
        want = _plain_gaps(X, Xt, model, trials, 13)
        assert res.trials == trials
        np.testing.assert_allclose(seen[0], want, rtol=self.RTOL,
                                   atol=self.RTOL * float(np.max(np.abs(want))))

    def test_block_rule(self):
        assert theory._trial_block(2000, 10_000) == 512
        assert theory._trial_block(2000, 300) == 300
        assert theory._trial_block(10**6, 10**5) == 64
        for n in (1, 7, 1000, 3000, 20_000):
            assert theory._trial_block(n, 10**9) % 64 == 0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestBoundedMemory:
    """Peaks (tracemalloc) of the theory lab's largest arrays; the whole-matrix
    forms peaked at 165.8 MB, 3.0x and 6.0x their output."""

    def test_regression_gap_holds_one_label_block(self):
        X = gen_uniform_matrix(2000, 50, seed=0)
        Xt = stochastic_quantize_full_range(X, 2, 1)
        res, peak = _traced_peak(
            lambda: simulate_regression_gap(X, Xt, LabelModel(noise_ratio=0.1), 10_000, seed=2))
        assert res.trials == 10_000
        assert peak < 32 << 20, peak / 2**20

    def test_uniform_matrix_is_about_its_output(self):
        X, peak = _traced_peak(lambda: gen_uniform_matrix(10_000, 100, seed=3))
        assert peak <= 1.5 * X.nbytes, peak / X.nbytes

    def test_full_range_quantizer_is_about_its_output(self):
        X = gen_uniform_matrix(10_000, 100, seed=3)
        # decoding the whole code array at once peaked at 1.56x
        Xt, peak = _traced_peak(lambda: stochastic_quantize_full_range(X, 4, 5))
        assert peak <= 1.4 * Xt.nbytes, peak / Xt.nbytes

    def test_clipping_curve_holds_one_candidate_and_one_difference(self):
        # whole-matrix quantization at each grid point peaked at 5.6x X
        X = gen_student_t_matrix(10_000, 50, 5.0, 1.0, seed=0)
        r_grid = np.linspace(0.5, float(np.max(np.abs(X))), 3)
        rows, peak = _traced_peak(lambda: clipping_curve(X, 4, "stochastic", r_grid, seed=1))
        assert len(rows) == 3
        assert peak <= 3.5 * X.nbytes, peak / X.nbytes

    def test_scaling_frees_each_draw_before_the_next(self):
        # keeping the last (X, Xt) through the next draw peaked at 4.3x X
        rows, peak = _traced_peak(
            lambda: scaling_experiment("dim", [100], {"n": 10_000, "bits": 2}, [0, 1, 2]))
        assert len(rows) == 3
        assert peak <= 3 * 10_000 * 100 * 8, peak / (10_000 * 100 * 8)


class TestFitLinearModel:
    def test_squared_loss_reduces_to_least_squares(self):
        X = RNG.normal(size=(30, 4))
        y = RNG.normal(size=30)
        np.testing.assert_allclose(
            fit_linear_model(X, y, "squared"), least_squares_solve(X, y), atol=1e-12
        )

    def test_logistic_refinement_self_consistency(self):
        X = gen_uniform_matrix(60, 4, seed=2) * 3.0
        y = X @ np.array([1.0, -0.5, 0.25, 2.0])
        w = fit_linear_model(X, y, "logistic")
        w_fine = fit_linear_model(X, y, "logistic", GdConfig(tol=1e-6 * 60 / 10))
        assert np.max(np.abs(X @ w - X @ w_fine)) <= 1e-3

    def test_zero_column_rejected(self):
        X = np.zeros((10, 2))
        X[:, 0] = RNG.normal(size=10)
        with pytest.raises(LinalgError, match="rank"):
            fit_linear_model(X, np.zeros(10), "logistic")



def _smax(X):
    """sigma_max(X) from the thin SVD, as the callers of the GD fit pass it."""
    return float(thin_svd(X).s[0])


def _reference_fit_logistic_gd(X, Y, gd):
    """The GD loop written plainly, kept as an oracle: each loss evaluation
    recomputes the target sigmoid and sums two softplus terms, and the
    logits X @ W are recomputed for every gradient.  The step starts at
    1/L = 4 / sigma_max(X)^2, a trial is accepted when it passes the Armijo
    test and halved otherwise, and each accepted step doubles it.  Returns
    the weights and the number of halvings."""
    from scipy.special import expit

    def loss(pred, target):
        p = expit(target)
        return p * np.logaddexp(0.0, -pred) + (1.0 - p) * np.logaddexp(0.0, pred)

    n, d = X.shape
    tol = gd.tol if gd.tol is not None else 1e-6 * n
    smax = _smax(X)
    step = gd.step if gd.step is not None else 4.0 / smax**2
    S_target = expit(Y)
    W = np.zeros((d, Y.shape[1]))
    total = det_sum(loss(X @ W, Y))
    increases = halvings = 0
    for _ in range(gd.max_steps):
        G = X.T @ (expit(X @ W) - S_target)
        if float(np.max(np.sqrt(np.sum(G * G, axis=0)))) <= tol:
            break
        while True:
            W_new = W - step * G
            new_total = det_sum(loss(X @ W_new, Y))
            if new_total <= total - 0.5 * step * det_sum(G * G) or step < 1e-20:
                break
            step *= 0.5
            halvings += 1
        if new_total > total:
            increases += 1
            if increases >= 20:
                raise LinalgError("diverged")
        else:
            increases = 0
        W, total = W_new, new_total
        step *= 2.0
    else:
        warnings.warn("max_steps", RuntimeWarning)
    return W, halvings


def _logit_fixture(n, d, scale, seed):
    """(X, Y): a uniform design and three columns of noisy logits whose
    largest magnitude is about ``scale``."""
    rng = CounterRng(seed)
    X = gen_uniform_matrix(n, d, seed)
    Y = X @ rng.substream(0).normal_block(d, 3)
    Y += 0.1 * rng.substream(1).normal_block(n, 3) * float(np.std(Y))
    return X, Y * (scale / float(np.max(np.abs(Y))))


class TestLogisticGdOracle:
    @pytest.mark.parametrize("n,d,scale,seed", [(60, 3, 3.0, 1), (200, 5, 8.0, 2),
                                                 (40, 4, 1.0, 3)])
    def test_default_config_matches_reference(self, n, d, scale, seed):
        X, Y = _logit_fixture(n, d, scale, seed)
        W_ref, _ = _reference_fit_logistic_gd(X, Y, GdConfig())
        assert np.array_equal(_fit_logistic_gd(X, Y, GdConfig(), _smax(X)), W_ref)

    def test_logits_beyond_100(self):
        X, Y = _logit_fixture(80, 4, 150.0, 4)
        gd = GdConfig(max_steps=10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            W_ref, _ = _reference_fit_logistic_gd(X, Y, gd)
            W = _fit_logistic_gd(X, Y, gd, _smax(X))
        assert np.max(np.abs(Y)) > 100.0 and np.max(np.abs(X @ W_ref)) > 100.0
        assert np.array_equal(W, W_ref)

    def test_halved_step_matches_reference(self):
        X, Y = _logit_fixture(60, 3, 4.0, 5)
        gd = GdConfig(step=50.0)
        W_ref, halvings = _reference_fit_logistic_gd(X, Y, gd)
        assert halvings > 0
        assert np.array_equal(_fit_logistic_gd(X, Y, gd, _smax(X)), W_ref)

    def test_max_steps_warns_and_matches_reference(self):
        X, Y = _logit_fixture(60, 3, 4.0, 6)
        gd = GdConfig(max_steps=7)
        with pytest.warns(RuntimeWarning):
            W_ref, _ = _reference_fit_logistic_gd(X, Y, gd)
        with pytest.warns(RuntimeWarning, match="max_steps=7"):
            W = _fit_logistic_gd(X, Y, gd, _smax(X))
        assert np.array_equal(W, W_ref)


def _theorem2_fixture(seed):
    """(X, Y) shaped like a theorem2 fit: n=1000, d=10, and 200 columns of
    noisy logits U z + noise drawn the way the harness draws them."""
    n, d, trials = 1000, 10, 200
    rng = CounterRng(seed)
    X = gen_uniform_matrix(n, d, seed)
    basis = PreparedBase(X).basis
    Ybar = basis.B @ basis.lift(rng.substream(0).normal_block(trials, d).T)
    sigma = math.sqrt(LabelModel(noise_ratio=0.1).sigma2(n, d))
    return X, Ybar + sigma * rng.substream(1).normal_block(trials, n).T


def _newton_logistic(X, Y):
    """Per-column damped Newton solve of the summed logistic loss, run to
    near machine precision; independent of the GD loop."""
    from scipy.special import expit

    def loss(z, p):
        return float(np.sum(np.logaddexp(0.0, z) - p * z))

    W = np.zeros((X.shape[1], Y.shape[1]))
    for j in range(Y.shape[1]):
        p, w = expit(Y[:, j]), W[:, j]
        for _ in range(200):
            s = expit(X @ w)
            g = X.T @ (s - p)
            H = X.T @ (X * (s * (1.0 - s))[:, None])
            dw, t = np.linalg.solve(H, g), 1.0
            while loss(X @ (w - t * dw), p) > loss(X @ w, p) and t > 1e-8:
                t *= 0.5
            w = w - t * dw
            if np.max(np.abs(X @ (t * dw))) < 1e-12:
                break
        W[:, j] = w
    return W


_CONVERGENCE_FIXTURES = {
    "60x3": lambda: _logit_fixture(60, 3, 3.0, 1),
    "200x5": lambda: _logit_fixture(200, 5, 8.0, 2),
    "40x4": lambda: _logit_fixture(40, 4, 1.0, 3),
    "theorem2": lambda: _theorem2_fixture(1),
}


class TestLogisticGdConvergence:
    @pytest.mark.parametrize("name", list(_CONVERGENCE_FIXTURES))
    def test_matches_the_newton_solution(self, name):
        from scipy.special import expit

        X, Y = _CONVERGENCE_FIXTURES[name]()
        W = _fit_logistic_gd(X, Y, GdConfig(), _smax(X))
        G = X.T @ (expit(X @ W) - expit(Y))
        assert np.max(np.linalg.norm(G, axis=0)) <= 1e-6 * X.shape[0]
        assert np.max(np.abs(X @ (W - _newton_logistic(X, Y)))) <= 1e-3

    def test_theorem2_shaped_fit_takes_at_most_20_steps(self, monkeypatch):
        X, Y = _theorem2_fixture(1)
        calls = []
        sigmoid = theory._sigmoid
        monkeypatch.setattr(theory, "_sigmoid", lambda z: calls.append(z) or sigmoid(z))
        _fit_logistic_gd(X, Y, GdConfig(), _smax(X))
        # one call for the targets, then one per gradient
        assert len(calls) - 1 <= 20


class TestGdConfig:
    @pytest.mark.parametrize("kwargs", [
        {"step": 0}, {"step": -1.0}, {"step": float("nan")}, {"step": float("inf")},
        {"step": "abc"}, {"step": True}, {"tol": -1}, {"tol": 0.0}, {"tol": float("nan")},
        {"tol": "1e-3"}, {"max_steps": 0}, {"max_steps": -3}, {"max_steps": 1.5},
        {"max_steps": "10"}, {"max_steps": True}, {"max_steps": None},
    ], ids=repr)
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError, match=f"GdConfig.{next(iter(kwargs))}"):
            GdConfig(**kwargs)

    def test_accepts_numpy_and_int_values(self):
        gd = GdConfig(step=1, tol=np.float64(1e-3), max_steps=np.int64(5))
        assert (gd.step, gd.tol, gd.max_steps) == (1, 1e-3, 5)


class TestScalingExperiment:
    def test_row_schema_and_determinism(self):
        rows = scaling_experiment("bits", [1, 2], {"n": 300, "d": 6}, [0, 1])
        assert len(rows) == 4
        assert set(rows[0]) == {"axis", "level", "seed", "one_minus_overlap", "bound"}
        again = scaling_experiment("bits", [1, 2], {"n": 300, "d": 6}, [0, 1])
        assert rows == again

    def test_bits_reduce_overlap_gap(self):
        rows = scaling_experiment("bits", [1, 4], {"n": 1000, "d": 8}, [0, 1, 2])
        by_level = {
            lv: np.mean([r["one_minus_overlap"] for r in rows if r["level"] == lv])
            for lv in (1, 4)
        }
        assert by_level[4] < by_level[1]

    def test_axis_validated(self):
        with pytest.raises(ValueError, match="axis"):
            scaling_experiment("nope", [1], {}, [0])

    @pytest.mark.parametrize("axis, level", [("bits", 2.0), ("vocab", 100.5), ("dim", True),
                                             ("scalar", "0.5")])
    def test_level_kind_validated(self, axis, level):
        # a level the axis cannot take is rejected, not truncated
        with pytest.raises(ValueError, match=f"{axis} levels must be"):
            scaling_experiment(axis, [level], {"n": 50, "d": 4}, [0])


class TestClippingCurve:
    def test_full_threshold_high_precision_recovers_matrix(self):
        X = gen_uniform_matrix(100, 5, seed=1)
        xmax = float(np.max(np.abs(X)))
        rows = clipping_curve(X, 31, "deterministic", [xmax])
        assert rows[0]["recon_error"] <= 1e-6
        assert rows[0]["overlap"] == pytest.approx(1.0, abs=1e-9)

    def test_schema_and_determinism(self):
        X = gen_student_t_matrix(200, 8, 5.0, 1.0, seed=2)
        grid = np.linspace(0.5, float(np.max(np.abs(X))), 5)
        rows = clipping_curve(X, 2, "stochastic", grid, seed=3)
        assert [r["r"] for r in rows] == list(grid)
        assert rows == clipping_curve(X, 2, "stochastic", grid, seed=3)

    @pytest.mark.parametrize("rounding", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("block", [None, 37])
    @pytest.mark.parametrize("cores", [1, 3])
    def test_row_blocks_give_the_whole_matrix_rows(self, monkeypatch, rounding, block, cores):
        # each point's candidate is quantized by row blocks into one buffer
        import os

        from embcompress import linalg

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        X = gen_student_t_matrix(700, 30, 5.0, 1.0, seed=4)
        base = PreparedBase(X)
        r_grid = np.linspace(0.3, float(np.max(np.abs(X))), 4)
        if block is not None:  # the norms sum in these blocks too
            monkeypatch.setattr(linalg, "_BLOCK_SCALARS", block)
        want = []
        for i, r in enumerate(r_grid):
            grid = QuantizationGrid(3, float(r))
            Xt = grid.values_for(quantize_codes(X, grid, rounding, CounterRng(5).substream(i)))
            want.append({"r": float(r), "overlap": base.overlap(Xt),
                         "recon_error": math.sqrt(sq_fro_norm(Xt - X))})
        assert clipping_curve(base, 3, rounding, r_grid, seed=5) == want

    def test_grid_validation(self):
        X = gen_uniform_matrix(20, 3, seed=0)
        with pytest.raises(ValueError, match="r_grid"):
            clipping_curve(X, 2, "deterministic", [0.0])


class TestTable4Perturbation:
    def test_hand_computed_small_case(self):
        out = table4_perturbation([2.0, 1.0, 1.0], n=40, seed=1)
        pred = out["predicted"]
        assert pred["delta1"] == pytest.approx(4 / 5)
        assert pred["delta_max"] == pytest.approx(5.0)
        assert pred["one_minus_overlap"] == pytest.approx(1 / 3)
        for key, value in pred.items():
            assert out["measured"][key] == pytest.approx(value, abs=1e-8), key

    def test_overlap_is_d_minus_one_over_d(self):
        out = table4_perturbation(np.linspace(4, 1, 6), n=50, seed=2)
        assert out["report"].eigenspace_overlap == pytest.approx(5 / 6, abs=1e-10)

    def test_short_spectrum_rejected(self):
        with pytest.raises(ValueError):
            table4_perturbation([1.0], n=10, seed=0)
