import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import embcompress
from embcompress.bitpack import pack_codes, unpack_codes
from embcompress.compress import (
    CompressedEmbedding,
    QuantizationGrid,
    _kmeans_centroids,
    _nearest_centroid,
    compress_kmeans,
    compress_pca,
    compress_uniform,
    compressor,
    decompress,
    find_clip_threshold,
    quantization_objective,
    quantize_codes,
)
from embcompress.linalg import LinalgError, fro_norm, thin_svd
from embcompress.measures import PreparedBase, RankDeficiencyWarning
from embcompress.rng import CounterRng
from embcompress.storage import compression_rate
from embcompress.theory import (
    clipping_curve,
    gen_student_t_matrix,
    gen_uniform_matrix,
    stochastic_quantize_full_range,
)

RNG = np.random.default_rng(99)


def contiguous_partition_optimum(values, K):
    """Exhaustive optimal 1-D k-means loss: the optimum respects sorted
    order, so enumerate all contiguous partitions of the sorted values."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size

    def seg_cost(i, j):
        seg = v[i:j]
        return float(np.sum((seg - seg.mean()) ** 2))

    best = np.inf
    for cuts in itertools.combinations(range(1, n), min(K, n) - 1):
        bounds = (0, *cuts, n)
        cost = sum(seg_cost(bounds[t], bounds[t + 1]) for t in range(len(bounds) - 1))
        best = min(best, cost)
    return best


def kmeans_loss(values, centroids, assign):
    return float(np.sum((np.asarray(values, float) - centroids[assign]) ** 2))


def plain_objective(X, bits, r):
    """The clip objective as a full pass: quantize every entry, then take
    the norm of the difference."""
    g = QuantizationGrid(bits, r)
    return float(np.linalg.norm(g.values_for(quantize_codes(X, g)) - X))


def lloyd(values, K):
    """(centroids, assignments) of the scalar k-means that compress_kmeans runs."""
    values = np.asarray(values, dtype=np.float64).ravel()
    centroids = _kmeans_centroids(values, K)
    return centroids, _nearest_centroid(values, centroids)


def bincount_lloyd(values, K, max_iter=300, rel_tol=1e-4):
    """Lloyd with quantile seeding as full passes over the values in index
    order: ``(centroids, assign, iterations)``."""
    values = np.asarray(values, dtype=float).ravel()
    centroids = np.sort(np.quantile(values, (np.arange(K) + 0.5) / K))
    prev_loss = None
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        assign = np.searchsorted(0.5 * (centroids[:-1] + centroids[1:]), values)
        counts = np.bincount(assign, minlength=K)
        sums = np.bincount(assign, weights=values, minlength=K)
        centroids = centroids.copy()
        centroids[counts > 0] = sums[counts > 0] / counts[counts > 0]
        centroids.sort()
        loss = float(np.sum((values - centroids[assign]) ** 2))
        if prev_loss is not None and (prev_loss <= 0 or (prev_loss - loss) / prev_loss < rel_tol):
            break
        prev_loss = loss
    assign = np.searchsorted(0.5 * (centroids[:-1] + centroids[1:]), values)
    return centroids, assign, iterations


class TestGrid:
    def test_levels_and_spacing(self):
        g = QuantizationGrid(2, 1.0)
        np.testing.assert_allclose(
            g.values_for(np.arange(g.num_levels)), [-1.0, -1 / 3, 1 / 3, 1.0]
        )
        assert g.spacing == pytest.approx(2 / 3)
        assert g.num_levels == 4

    def test_levels_symmetric_and_equispaced(self):
        g = QuantizationGrid(5, 2.5)
        lv = g.values_for(np.arange(g.num_levels))
        np.testing.assert_allclose(lv, -lv[::-1], atol=1e-15)
        np.testing.assert_allclose(np.diff(lv), g.spacing, atol=1e-15)
        assert lv[0] == -2.5 and lv[-1] == 2.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            QuantizationGrid(0, 1.0)
        with pytest.raises(ValueError):
            QuantizationGrid(32, 1.0)
        with pytest.raises(ValueError):
            QuantizationGrid(4, 0.0)


def quantize(x, grid, rounding="deterministic", rng=None):
    """Grid values of the 1 x N row x, with coin counters (0, j)."""
    row = np.atleast_2d(np.asarray(x, dtype=float))
    return grid.values_for(quantize_codes(row, grid, rounding, rng))[0]


class TestDeterministicRounding:
    def test_one_bit(self):
        assert quantize([0.3], QuantizationGrid(1, 1.0))[0] == 1.0

    def test_two_bit_nearest(self):
        assert quantize([0.5], QuantizationGrid(2, 1.0))[0] == pytest.approx(1 / 3)

    def test_midpoint_rounds_up(self):
        assert quantize([2 / 3], QuantizationGrid(2, 1.0))[0] == 1.0

    def test_clips_to_the_threshold(self):
        g = QuantizationGrid(2, 1.0)
        codes = quantize_codes(np.array([[1.5, -3.0, 1.0000001, -1.0]]), g)
        np.testing.assert_array_equal(codes, [[3, 0, 3, 0]])
        assert codes.dtype == np.uint32

    def test_error_at_most_half_spacing(self):
        rng = np.random.default_rng(1)
        for bits in (1, 2, 4, 8, 16):
            X = rng.normal(size=(100, 20)) * 3.0
            r = 0.8 * float(np.max(np.abs(X)))
            g = QuantizationGrid(bits, r)
            xc = np.clip(X, -r, r)
            q = g.values_for(quantize_codes(X, g))
            assert np.max(np.abs(q - xc)) <= g.spacing / 2


class TestStochasticRounding:
    def test_grid_point_is_fixed(self):
        g = QuantizationGrid(2, 1.0)
        out = quantize(np.full(500, 1 / 3), g, "stochastic", CounterRng(3))
        np.testing.assert_allclose(out, 1 / 3, atol=1e-15)

    def test_bracket_probabilities(self):
        # x = 0.5 sits a quarter of the way from 1/3 to 1
        g = QuantizationGrid(2, 1.0)
        out = quantize(np.full(200_000, 0.5), g, "stochastic", CounterRng(11))
        p_hi = np.mean(out == 1.0)
        assert p_hi == pytest.approx(0.25, abs=0.005)
        assert np.all((out == 1.0) | (np.abs(out - 1 / 3) < 1e-15))

    def test_moment_check_one_bit(self):
        # mean of 10^6 +-1 draws at x=0 should be within 3 * sigma / 10^3
        g = QuantizationGrid(1, 1.0)
        out = quantize(np.zeros(1_000_000), g, "stochastic", CounterRng(17))
        assert abs(out.mean()) <= 3.0e-3

    def test_variance_popoviciu_bound(self):
        g = QuantizationGrid(3, 2.0)
        out = quantize(np.full(200_000, 0.37), g, "stochastic", CounterRng(23))
        assert out.var() <= g.spacing**2 / 4 + 1e-3
        assert g.spacing**2 / 4 <= g.clip**2 / (2**g.bits - 1) ** 2 + 1e-15

    def test_coin_is_keyed_by_row_and_column(self):
        g = QuantizationGrid(2, 1.0)
        rng = CounterRng(5)
        x = np.full((1, 4000), 0.5)
        u = rng.uniform(7, np.arange(4000))
        expected = np.where(u < 0.25, 3, 2)
        np.testing.assert_array_equal(
            quantize_codes(x, g, "stochastic", rng, row0=7)[0], expected
        )

    def test_requires_an_rng(self):
        with pytest.raises(ValueError, match="rng"):
            quantize_codes(np.zeros((1, 1)), QuantizationGrid(1, 1.0), "stochastic")


class TestQuantizeCodes:
    @pytest.mark.parametrize("rounding", ["deterministic", "stochastic"])
    def test_row_blocks_match_whole_matrix(self, rounding):
        X = RNG.normal(size=(37, 11)) * 2.0
        g = QuantizationGrid(3, 1.5)
        rng = CounterRng(21)
        whole = quantize_codes(X, g, rounding, rng)
        for i0, i1 in ((0, 1), (5, 18), (18, 37), (36, 37)):
            np.testing.assert_array_equal(
                quantize_codes(X[i0:i1], g, rounding, rng, row0=i0), whole[i0:i1]
            )

    @pytest.mark.parametrize("rounding", ["deterministic", "stochastic"])
    def test_out_of_range_entries_match_clipped_input(self, rounding):
        # X is not clipped; the clamp of the codes must give the same levels
        X = RNG.standard_t(2, size=(200, 30))
        rng = CounterRng(5)
        for bits, clip in itertools.product((1, 2, 3, 8, 16), (0.1, 0.7, 1.0, 3.3)):
            g = QuantizationGrid(bits, clip)
            np.testing.assert_array_equal(
                quantize_codes(X, g, rounding, rng),
                quantize_codes(np.clip(X, -clip, clip), g, rounding, rng),
            )

    def test_unknown_rounding_rejected(self):
        with pytest.raises(ValueError, match="unknown rounding"):
            quantize_codes(np.zeros((2, 2)), QuantizationGrid(1, 1.0), "nearest")

    def test_requires_a_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            quantize_codes(np.zeros(3), QuantizationGrid(1, 1.0))


class TestQuantizerGolden:
    """sha256 of quantizer outputs, captured before the quantizer paths were
    merged into :func:`quantize_codes`; every value must stay bit-identical.

    ``clipping_curve`` rows are hashed without their overlap: it comes from
    LAPACK, whose last digits depend on the BLAS build, while ``r`` and the
    reconstruction error are fixed by the quantized matrix.  ``CLIPPING`` was
    captured again when that error came to be summed in row blocks, which
    moved it by at most 1.8e-16 relative with the quantized values unchanged.

    ``KMEANS`` hashes codebook plus codes of :func:`compress_kmeans`, captured
    before the checkpoint lookup took one row per bound: on 120000 scalars,
    where every prefix sum is kept, and on 264060 (past 2**18, not a
    multiple of any checkpoint spacing), where runs are recomputed from
    checkpoints."""

    UNIFORM = {
        (1, "deterministic"): "8fcc2c616b6f5cd0ea4685d979388c732de069967c748e234ac05c6aaf5a0ccb",
        (1, "stochastic"): "b2f181709b449faa83e850133e0ecb98ed9aead5901ed493cfc98dde03bf3766",
        (3, "deterministic"): "94e583aa87ea0da948b3c10a7866b9ada476ef5f09d21e1937138c0aa152eb0d",
        (3, "stochastic"): "33eb1eb3e465a99b229445edcf26f1de21977260e288dd33a952303e472df546",
        (8, "deterministic"): "e45988a1cfa899cbf9f821ed2ac165a0f43d86077e92fa8e92b6911be4110811",
        (8, "stochastic"): "e9c70ac080e3c35fc610e1a1ef6231c05e5a8204434d84d2630dd772a30d0403",
    }
    CLIPPING = {
        "deterministic": "f5d665c8e9717dbfe0b5466b6a3dcc9eefc2a8d8a83d55f2302784f624c01d04",
        "stochastic": "d25cceba3f69fb55d24983cbeaf64783a7ad019dcdebccb82abeab65602b93a7",
    }
    KMEANS = {
        ("small", 1): "f69e7b9e449887eb01007bbfe7d075291985516e6fa2aeb213bb39db6bbd7a1d",
        ("small", 3): "5027ca6a7305c4bf5d5d1574856ba407e6163ea2d53d12261b8514a5517a8411",
        ("small", 8): "4e212c6ba56dc3dd7e418425290083b7ad8d4318b0248ed9c04351454fd40c14",
        ("large", 1): "8d6da68ec27657c715ca578e14fbb564093e381eda03f1f037dce85e04087b50",
        ("large", 3): "77e5933420a3cf2396d88bfb2becf0f38a417306bfeba0426149cf7399049ad1",
        ("large", 8): "43c86a05d870ba68903413a91353777076683998999490d47eeb66f687711852",
    }
    FULL_RANGE = {
        1: "4aa5e0490211b232bc306a3976f4f0141f5c5d9dc6d9eea3db0714771a6d8e24",
        3: "310ae9b855a13e243a6fec6fb59618c7cea35c3c087a5ee47a3be073cacd3279",
    }

    @pytest.fixture(scope="class")
    def X(self):
        return gen_student_t_matrix(2000, 60, 5, 1, seed=4)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("bits,rounding", sorted(UNIFORM))
    def test_compress_uniform(self, X, bits, rounding, threads):
        C = compress_uniform(X, bits, rounding=rounding, seed=11, threads=threads)
        blob = C.codes.tobytes() + struct.pack("<Bd", C.grid.bits, C.grid.clip)
        assert hashlib.sha256(blob).hexdigest() == self.UNIFORM[bits, rounding]

    @pytest.mark.parametrize("size,bits", sorted(KMEANS))
    def test_compress_kmeans(self, X, size, bits):
        from embcompress import compress as compress_mod

        if size == "large":
            X = gen_student_t_matrix(4401, 60, 5, 1, seed=4)
        assert (X.size > compress_mod._FULL_PREFIX_MAX_N) == (size == "large")
        C = compress_kmeans(X, bits)
        blob = C.codebook.tobytes() + C.codes.tobytes()
        assert hashlib.sha256(blob).hexdigest() == self.KMEANS[size, bits]

    @pytest.mark.parametrize("rounding", sorted(CLIPPING))
    def test_clipping_curve(self, X, rounding):
        r_grid = np.linspace(0.5, float(np.max(np.abs(X))), 6)
        rows = clipping_curve(X, 2, rounding, r_grid, seed=3)
        blob = json.dumps([[row["r"], row["recon_error"]] for row in rows]).encode()
        assert hashlib.sha256(blob).hexdigest() == self.CLIPPING[rounding]

    @pytest.mark.parametrize("bits", sorted(FULL_RANGE))
    def test_stochastic_quantize_full_range(self, bits):
        Xt = stochastic_quantize_full_range(gen_uniform_matrix(500, 20, seed=4), bits, 9)
        assert hashlib.sha256(Xt.tobytes()).hexdigest() == self.FULL_RANGE[bits]


class TestClipThreshold:
    def test_exactly_representable_matrix(self):
        v = 0.7777731
        X = np.where(RNG.random((40, 25)) < 0.5, -v, v)
        rstar = find_clip_threshold(X, 1, tol=1e-6)
        f = quantization_objective(X, 1)
        sweep = np.arange(1e-4, v + 1e-4, 1e-4)
        best_sweep = min(f(float(r)) for r in sweep)
        assert f(rstar) <= best_sweep
        assert f(rstar) == pytest.approx(0.0, abs=1e-4)

    def test_outliers_get_clipped(self):
        X = np.full((100, 100), 0.1)
        X[::2] *= -1.0
        flat = X.ravel()
        idx = RNG.choice(flat.size, size=flat.size // 100, replace=False)
        flat[idx] = np.where(RNG.random(idx.size) < 0.5, -10.0, 10.0)
        rstar = find_clip_threshold(X, 1, tol=0.01)
        assert rstar < 10.0 * 0.5  # clipping the 1% outliers beats covering them
        # dense grid oracle at step 1e-3 * max|X|
        f = quantization_objective(X, 1)
        rs = np.arange(1e-2, 10.0 + 1e-2, 1e-2)
        assert f(rstar) <= min(f(float(r)) for r in rs) + 1e-6

    def test_fine_grid_limit(self):
        X = RNG.normal(size=(50, 20))
        f = quantization_objective(X, 31)
        assert f(float(np.max(np.abs(X)))) <= 1e-6 * fro_norm(X)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            find_clip_threshold(np.zeros((3, 3)), 2)

    @pytest.mark.parametrize("bits", [0, 40])
    def test_bits_checked_before_the_sort(self, bits, monkeypatch):
        from embcompress import compress as compress_mod

        def no_sort(values, runs):
            raise AssertionError("sorted before bits were checked")

        monkeypatch.setattr(compress_mod, "_sort_scalars", no_sort)
        X = RNG.normal(size=(20, 5))
        for call in (quantization_objective, find_clip_threshold, compress_uniform):
            with pytest.raises(ValueError, match=r"bits must be in \[1, 31\]"):
                call(X, bits)

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_golden_close_to_grid_sweep(self, bits):
        X = gen_student_t_matrix(100, 100, df=5.0, scale=1.0, seed=9)
        rstar = find_clip_threshold(X, bits, tol=0.01)
        f = quantization_objective(X, bits)
        assert f(rstar) <= clip_sweep_bound(X, bits, 0.01) + 1e-12


def clip_sweep_bound(X, bits, tol):
    """The clip-search oracle: the least objective over a 1000-point sweep of
    (0, max|X|], plus the objective's rise over one ``tol`` width around the
    sweep's minimizer, which a search to within ``tol`` may give up."""
    f = quantization_objective(X, bits)
    xmax = float(np.max(np.abs(X)))
    rs = np.linspace(xmax / 1000, xmax, 1000)
    vals = [f(float(r)) for r in rs]
    i = int(np.argmin(vals))
    return max(f(min(rs[i] + tol, xmax)), f(max(rs[i] - tol, rs[0])))


class TestPrefixSums:
    @pytest.mark.parametrize("power", [1, 2])
    def test_run_sums_are_accurate_across_chunks(self, power, monkeypatch):
        from fractions import Fraction

        from embcompress import compress as compress_mod

        monkeypatch.setattr(compress_mod, "_PREFIX_CHUNK", 7)
        x = np.sort(gen_student_t_matrix(1, 600, df=3.0, scale=1.0, seed=8).ravel())
        x[300:] += 1e4  # a large running total ahead of small runs
        v = x if power == 1 else x * x
        p = compress_mod._prefix_sums(x)[2 * power - 2 : 2 * power]
        # row 0 is one sequential cumsum, whatever the chunking
        assert p[0].tobytes() == np.concatenate([[0.0], np.cumsum(v)]).tobytes()
        eps = np.finfo(float).eps
        rng = np.random.default_rng(1)
        for i, j in np.sort(rng.integers(0, x.size + 1, size=(40, 2)), axis=1):
            exact = sum(map(Fraction, v[i:j].tolist()), Fraction(0))
            got = (p[0, j] - p[0, i]) + (p[1, j] - p[1, i])
            assert abs(Fraction(got) - exact) <= 4 * eps * float(np.sum(np.abs(v[i:j])))


class TestCheckpointedPrefixSums:
    """``_SortedScalars`` keeps the prefix sums only at checkpoints; the run
    sums it recomputes from them must equal, bit for bit, the differences of
    the full :func:`_prefix_sums` rows."""

    @pytest.mark.parametrize("chunk", [None, 13])
    @pytest.mark.parametrize("step", [1, 7, None])
    @pytest.mark.parametrize("n", [4096, 5000])
    def test_segments_match_the_full_rows(self, n, step, chunk, monkeypatch):
        from embcompress import compress as compress_mod

        monkeypatch.setattr(compress_mod, "_FULL_PREFIX_MAX_N", 0)
        if step is not None:
            monkeypatch.setattr(compress_mod, "_CHECKPOINT", step)
        if chunk is not None:  # many build chunks and many recompute batches
            monkeypatch.setattr(compress_mod, "_PREFIX_CHUNK", chunk)
        step = compress_mod._CHECKPOINT
        x = np.sort(gen_student_t_matrix(1, n, df=3.0, scale=1.0, seed=8).ravel())
        x[n // 2 :] += 1e4  # a large running total ahead of small runs
        ss = compress_mod._sort_scalars(x, 1)
        assert ss.p.shape == (4, n // step + 1 + (n % step > 0))
        marks = np.arange(0, n + 1, step)
        rng = np.random.default_rng(n)
        bounds = np.sort(np.clip(np.concatenate(
            ([0, 0, n, n], marks, marks - 1, marks + 1, rng.integers(0, n + 1, 60))
        ), 0, n))
        self.assert_segments_match(ss, x, bounds)
        assert ss.p[:, -1].tobytes() == compress_mod._prefix_sums(x)[:, -1].tobytes()

    @staticmethod
    def assert_segments_match(ss, x, bounds):
        from embcompress import compress as compress_mod

        counts, sums, squares = ss.segments(bounds)
        np.testing.assert_array_equal(counts, np.diff(bounds))
        d = np.diff(compress_mod._prefix_sums(x)[:, bounds])
        assert sums.tobytes() == (d[0] + d[1]).tobytes()
        assert squares.tobytes() == (d[2] + d[3]).tobytes()

    @staticmethod
    def checkpointed(x, monkeypatch):
        from embcompress import compress as compress_mod

        monkeypatch.setattr(compress_mod, "_FULL_PREFIX_MAX_N", 0)
        ss = compress_mod._sort_scalars(x, 1)
        assert ss.step == compress_mod._CHECKPOINT > 1
        return ss

    @pytest.mark.parametrize("n", [1, 5, 1023])
    def test_fewer_values_than_the_step(self, n, monkeypatch):
        x = np.sort(gen_student_t_matrix(1, n, df=3.0, scale=1.0, seed=n).ravel())
        ss = self.checkpointed(x, monkeypatch)
        assert ss.p.shape == (4, 2)  # the start and the end
        bounds = np.unique(np.concatenate(([0, n, n // 2, n - 1], np.arange(0, n + 1, 97))))
        self.assert_segments_match(ss, x, bounds)

    def test_every_bound_on_a_checkpoint(self, monkeypatch):
        # every row of the recompute has width 0: the checkpoints themselves
        x = np.sort(gen_student_t_matrix(1, 5000, df=3.0, scale=1.0, seed=2).ravel())
        ss = self.checkpointed(x, monkeypatch)
        bounds = np.arange(0, x.size + 1, ss.step)
        assert np.all(bounds % ss.step == 0)
        self.assert_segments_match(ss, x, bounds)
        np.testing.assert_array_equal(ss._prefixes_at(bounds), ss.p[:, : bounds.size])

    def test_nothing_past_a_bound_is_summed(self, monkeypatch):
        # x[-1]**2 is finite but two of it overflow: the recompute row of the
        # last checkpoint must not run past n, nor any row past its bound
        x = np.sort(gen_student_t_matrix(1, 5000, df=3.0, scale=1.0, seed=4).ravel())
        x[-1] = 1e154
        ss = self.checkpointed(x, monkeypatch)
        bounds = np.array([0, 1023, 4097, 4999, 5000])
        with np.errstate(over="raise", invalid="raise"):
            self.assert_segments_match(ss, x, bounds)

    def test_repeated_bounds_give_empty_runs(self, monkeypatch):
        x = np.sort(gen_student_t_matrix(1, 5000, df=3.0, scale=1.0, seed=3).ravel())
        ss = self.checkpointed(x, monkeypatch)
        bounds = np.repeat([0, 1, 1500, 2048, 4999, 5000], 3)
        counts, sums, squares = ss.segments(bounds)
        empty = np.diff(bounds) == 0
        assert np.all(counts[empty] == 0)
        assert np.all(sums[empty] == 0.0) and np.all(squares[empty] == 0.0)
        self.assert_segments_match(ss, x, bounds)


class TestBlockedEncoders:
    """The encoders quantize or assign and pack about ``_BLOCK_SCALARS``
    scalars at a time; any blocking and thread count gives the bytes of the
    whole-matrix encoding."""

    @pytest.fixture(scope="class")
    def X(self):
        # 75000 scalars: two blocks at the default size
        return gen_student_t_matrix(2500, 30, 5, 1, seed=6)

    @pytest.fixture(scope="class")
    def whole(self, X):
        """Each container's codes as one whole-matrix call packs them."""
        from embcompress.bitpack import pack_codes

        out = {}
        for rounding in ("deterministic", "stochastic"):
            C = compress_uniform(X, 3, rounding=rounding, seed=9)
            out[rounding] = pack_codes(quantize_codes(X, C.grid, rounding, CounterRng(9)), 3)
        _, assign = lloyd(X.ravel(), 8)
        out["kmeans"] = pack_codes(assign.reshape(X.shape), 3)
        return out

    # one row per block; 7 rows per block, which do not divide 2500
    @pytest.mark.parametrize("block", [None, 1, 7 * 30 + 11])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_any_blocking_gives_the_whole_matrix_bytes(self, X, whole, block, threads,
                                                       monkeypatch):
        from embcompress import linalg

        if block is not None:
            monkeypatch.setattr(linalg, "_BLOCK_SCALARS", block)
        for rounding in ("deterministic", "stochastic"):
            C = compress_uniform(X, 3, rounding=rounding, seed=9, threads=threads)
            assert C.codes.tobytes() == whole[rounding].tobytes()
        assert compress_kmeans(X, 3, threads=threads).codes.tobytes() == whole["kmeans"].tobytes()

    @pytest.mark.parametrize("encoder", ["deterministic", "stochastic", "kmeans"])
    def test_peak_is_about_one_copy_of_x(self, encoder):
        # the whole-matrix encoders and full prefix rows peaked near 5x X
        X = np.random.default_rng(0).standard_t(5, size=(5000, 200))
        tracemalloc.start()
        try:
            if encoder == "kmeans":
                compress_kmeans(X, 3)
            else:
                compress_uniform(X, 4, rounding=encoder, seed=1, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * X.nbytes + (4 << 20), peak / X.nbytes


class TestClipObjectiveOracle:
    """The sorted prefix-sum objective against :func:`plain_objective`."""

    @staticmethod
    def check(X, bits, rs):
        f = quantization_objective(X, bits)
        for r in rs:
            want = plain_objective(X, bits, float(r))
            assert want > 0.0
            assert f(float(r)) == pytest.approx(want, rel=1e-12, abs=0.0), (bits, r)

    @pytest.mark.parametrize("bits", [1, 2, 4, 6, 8, 12])
    def test_student_t(self, bits):
        X = gen_student_t_matrix(200, 50, df=5.0, scale=1.0, seed=6)
        xmax = float(np.max(np.abs(X)))
        # the last two thresholds lie above max|X|
        self.check(X, bits, np.linspace(0.05, 1.5 * xmax, 11))

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_plus_minus_v_matrix(self, bits):
        v = 0.7777731
        X = np.where(np.random.default_rng(5).random((40, 25)) < 0.5, -v, v)
        self.check(X, bits, [0.1 * v, 0.5 * v, 0.9 * v, 1.3 * v, 2.5 * v])

    @pytest.mark.parametrize("r", [1.5, 0.3, 0.7777731])
    def test_entries_on_grid_midpoints(self, r):
        g = QuantizationGrid(2, r)
        mids = g.values_for(np.arange(3)) + 0.5 * g.spacing
        pool = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
                               [-2 * r, -r, 0.1 * r, 2 * r]])
        X = np.random.default_rng(7).choice(pool, size=(30, 20))
        self.check(X, 2, [r, 0.99 * r, 1.01 * r])

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_single_element(self, bits):
        self.check(np.array([[-0.37]]), bits, [0.1, 0.2, 0.5, 2.0, 1e3])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_squares_beyond_float_range(self):
        X = np.array([[-3e200, 1.0, 2e200]])
        f = quantization_objective(X, 2)
        for r in (1.0, 1e200, 5e200):
            assert f(r) == plain_objective(X, 2, r) == np.inf

    def test_zero_error_is_rounding_noise(self):
        # an exact fit leaves only the rounding of the moment form
        X = np.array([[-0.37, 0.37, 0.37]])
        assert quantization_objective(X, 1)(0.37) <= 1e-7 * fro_norm(X)

    @pytest.mark.parametrize("r", [1.5, 0.3, 0.25, 2.0 / 3.0])
    @pytest.mark.parametrize("bits", [1, 2, 3, 8])
    def test_level_runs_match_the_encoder(self, bits, r):
        from embcompress.compress import _level_starts

        g = QuantizationGrid(bits, r)
        edges = g.values_for(np.arange(g.num_levels)) + 0.5 * g.spacing
        pool = np.concatenate([edges, np.nextafter(edges, np.inf),
                               np.nextafter(edges, -np.inf), [-3 * r, 3 * r, 0.0, -0.0]])
        x = np.sort(np.random.default_rng(bits).choice(pool, size=997))
        codes = quantize_codes(x[None, :], g)[0]
        want = np.searchsorted(codes, np.arange(1, g.num_levels), side="left")
        np.testing.assert_array_equal(_level_starts(x, g), want)


class TestUniformCompression:
    def test_grid_matrix_round_trips_exactly(self):
        g = QuantizationGrid(3, 0.9371)
        codes = RNG.integers(0, 8, size=(30, 12))
        codes[0, 0] = 7  # pin max|X| to the clip value
        codes[0, 1] = 0
        X = g.values_for(codes)
        C = compress_uniform(X, 3)
        np.testing.assert_array_equal(decompress(C), X)

    def test_reconstruction_within_half_spacing(self):
        X = RNG.normal(size=(60, 15))
        C = compress_uniform(X, 4)
        clipped = np.clip(X, -C.grid.clip, C.grid.clip)
        assert np.max(np.abs(decompress(C) - clipped)) <= C.grid.spacing / 2

    def test_stochastic_runs_are_reproducible(self):
        X = RNG.normal(size=(50, 9))
        a = compress_uniform(X, 2, rounding="stochastic", seed=42)
        b = compress_uniform(X, 2, rounding="stochastic", seed=42)
        np.testing.assert_array_equal(a.codes, b.codes)
        c = compress_uniform(X, 2, rounding="stochastic", seed=43)
        assert np.any(c.codes != a.codes)

    @pytest.mark.parametrize("rounding", ["deterministic", "stochastic"])
    def test_thread_count_invariance(self, rounding):
        X = RNG.normal(size=(203, 17))
        one = compress_uniform(X, 3, rounding=rounding, seed=5, threads=1)
        many = compress_uniform(X, 3, rounding=rounding, seed=5, threads=8)
        np.testing.assert_array_equal(one.codes, many.codes)
        assert one.grid == many.grid

    def test_unbiasedness_of_stochastic_rounding(self):
        X = RNG.normal(size=(4, 5))
        C0 = compress_uniform(X, 2, rounding="stochastic", seed=0)
        r = C0.grid.clip
        target = np.clip(X, -r, r)
        draws = 10_000
        acc = np.zeros_like(X)
        for seed in range(draws):
            acc += decompress(compress_uniform(X, 2, rounding="stochastic", seed=seed))
        mean = acc / draws
        bound = 4.0 * C0.grid.spacing / np.sqrt(draws)
        frac_ok = np.mean(np.abs(mean - target) <= bound)
        assert frac_ok >= 0.99

    def test_compression_rate_near_32x_at_one_bit(self):
        X = RNG.normal(size=(1000, 96))
        C = compress_uniform(X, 1)
        assert 30.0 <= compression_rate(C) <= 32.0


class TestKmeans1D:
    def test_two_clusters_exact(self):
        centroids, assign = lloyd([0.0, 0.0, 1.0, 1.0], 2)
        np.testing.assert_allclose(centroids, [0.0, 1.0])
        assert kmeans_loss([0.0, 0.0, 1.0, 1.0], centroids, assign) == 0.0

    def test_three_points_two_clusters(self):
        values = [0.0, 0.4, 1.0]
        centroids, assign = lloyd(values, 2)
        # exhaustive contiguous-partition oracle gives loss 0.08 at (0.2, 1)
        assert contiguous_partition_optimum(values, 2) == pytest.approx(0.08)
        np.testing.assert_allclose(centroids, [0.2, 1.0])
        assert kmeans_loss(values, centroids, assign) == pytest.approx(0.08)

    def test_single_cluster_is_mean(self):
        values = RNG.normal(size=17)
        centroids, assign = lloyd(values, 1)
        assert centroids[0] == pytest.approx(values.mean())
        assert np.all(assign == 0)

    def test_more_clusters_than_distinct_values(self):
        centroids, assign = lloyd([1.0, 1.0, 2.0], 4)
        assert centroids.shape == (4,)
        assert kmeans_loss([1.0, 1.0, 2.0], centroids, assign) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_near_optimal_on_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        K = int(rng.integers(2, 4))
        values = rng.normal(size=n)
        centroids, assign = lloyd(values, K)
        loss = kmeans_loss(values, centroids, assign)
        opt = contiguous_partition_optimum(values, K)
        assert loss <= 1.05 * opt + 1e-12

    def test_centroids_sorted(self):
        centroids, _ = lloyd(RNG.normal(size=500), 16)
        assert np.all(np.diff(centroids) >= 0)


class TestKmeansLloydOracle:
    """The k-means of compress_kmeans against :func:`bincount_lloyd` on inputs
    seeded at quantiles (more than 1024 values, or K at least the number of
    values)."""

    CASES = {
        "student_t_k8": (gen_student_t_matrix(40, 50, df=4.0, scale=1.0, seed=2).ravel(), 8),
        "student_t_k16": (gen_student_t_matrix(40, 50, df=4.0, scale=1.0, seed=3).ravel(), 16),
        "duplicates": (np.random.default_rng(4).choice([-1.25, 0.1, 0.3, 2.0, 7.5], 3000), 4),
        "k_above_distinct": (np.random.default_rng(5).choice([-1.25, 0.1, 0.3, 2.0, 7.5], 3000), 8),
        "empty_clusters": (np.concatenate([np.zeros(2000), np.full(15, 1.0), np.full(9, 2.5)]), 4),
        "k_above_n": (np.array([1.0, 1.0, 2.0]), 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_bincount_lloyd(self, case, monkeypatch):
        from embcompress import compress as compress_mod

        values, K = self.CASES[case]
        segments = compress_mod._SortedScalars.segments
        calls = []

        def counted(self, bounds):
            calls.append(1)
            return segments(self, bounds)

        monkeypatch.setattr(compress_mod._SortedScalars, "segments", counted)
        centroids, assign = lloyd(values, K)
        ref_c, ref_a, iterations = bincount_lloyd(values, K)
        np.testing.assert_array_equal(assign, ref_a)
        assert len(calls) == iterations  # one run lookup per Lloyd iteration
        np.testing.assert_allclose(
            centroids, ref_c, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(values)))
        )

    def test_cases_reach_the_edges(self):
        _, K = self.CASES["empty_clusters"]
        centroids, _, _ = bincount_lloyd(*self.CASES["empty_clusters"])
        assert np.unique(centroids).size < K  # a seed stays put with no members
        values, K = self.CASES["k_above_distinct"]
        assert np.unique(values).size < K
        assert max(bincount_lloyd(v, K)[2] for v, K in self.CASES.values()) > 5


class TestKmeansCompression:
    def test_lossless_when_few_distinct_values(self):
        X = RNG.choice([-2.0, -0.5, 0.25, 3.0], size=(20, 6))
        C = compress_kmeans(X, 2)
        np.testing.assert_allclose(decompress(C), X, atol=1e-12)

    def test_one_bit_sign_matrix(self):
        X = np.array([[-1.0, -1.0], [1.0, 1.0]])
        C = compress_kmeans(X, 1)
        np.testing.assert_allclose(C.codebook, [-1.0, 1.0])

    def test_adapts_better_than_uniform_on_heavy_tails(self):
        X = gen_student_t_matrix(300, 30, df=3.0, scale=1.0, seed=5)
        for bits in (1, 2, 4):
            err_uniform = fro_norm(decompress(compress_uniform(X, bits)) - X)
            err_kmeans = fro_norm(decompress(compress_kmeans(X, bits)) - X)
            assert err_kmeans <= err_uniform

    def test_bits_range(self):
        with pytest.raises(ValueError):
            compress_kmeans(np.ones((2, 2)), 17)


class TestPcaCompression:
    def test_full_rank_keep_v_round_trip(self):
        X = RNG.normal(size=(30, 6))
        C = compress_pca(X, 6, keep_v=True)
        assert fro_norm(decompress(C) - X) <= 1e-8 * fro_norm(X)

    def test_rank_one_exact(self):
        u = RNG.normal(size=(20, 1))
        v = RNG.normal(size=(1, 5))
        X = u @ v
        C = compress_pca(X, 1, keep_v=True)
        assert fro_norm(decompress(C) - X) <= 1e-10 * fro_norm(X)

    def test_truncation_error_matches_spectral_tail(self):
        X = RNG.normal(size=(40, 10))
        s = thin_svd(X).s
        for k in (2, 5, 8):
            C = compress_pca(X, k, keep_v=True)
            tail = float(np.sum(s[k:] ** 2))
            assert fro_norm(decompress(C) - X) ** 2 == pytest.approx(tail, rel=1e-9)

    def test_reduced_shape_without_v(self):
        X = RNG.normal(size=(25, 8))
        C = compress_pca(X, 3)
        assert decompress(C).shape == (25, 3)

    def test_k_beyond_rank_rejected(self):
        X = np.outer(RNG.normal(size=12), RNG.normal(size=7))
        with pytest.raises(LinalgError, match="rank"):
            compress_pca(X, 3)

    def test_rank_deficient_base_warns_nothing(self):
        # the base's SVD path warns of the rank deficiency; compress_pca
        # checks k against the rank itself, and says nothing when k fits
        X = RNG.normal(size=(20, 2)) @ RNG.normal(size=(2, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C = compress_pca(X, 2, keep_v=True)
            assert fro_norm(decompress(C) - X) <= 1e-10 * fro_norm(X)
            with pytest.raises(LinalgError, match=r"k=3 exceeds the numerical rank 2"):
                compress_pca(X, 3)


def whole_decode(C):
    """The whole-array decode of a uniform or k-means container."""
    codes = unpack_codes(C.codes, C.d_orig, C.bits)
    return C.grid.values_for(codes) if C.method == "uniform" else C.codebook[codes]


@functools.lru_cache(maxsize=None)
def quantized(n, d, method, bits, rounding):
    X = gen_student_t_matrix(n, d, 5, 1, seed=n + d)
    if method == "kmeans":
        return compress_kmeans(X, bits)
    return compress_uniform(X, bits, rounding=rounding, seed=3)


class TestBlockedDecode:
    """:func:`decompress` unpacks and maps one :func:`_row_blocks` block at a
    time into its output; every value is the whole-array decode's."""

    # at d = 30 a block is 2184 rows: n one row below and one row above it;
    # rows of 7 codes end in padding bits at every width but 8 and 16
    SHAPES = [(1, 30), (100, 30), (2183, 30), (2185, 30), (40, 1), (50, 7)]
    KINDS = [("uniform", b, r) for b in (1, 2, 3, 4, 8, 16, 31)
             for r in ("deterministic", "stochastic")] + [("kmeans", b, None) for b in (1, 3, 8)]

    @pytest.mark.parametrize("block", [None, 1, 7 * 30 + 11])
    @pytest.mark.parametrize("method,bits,rounding", KINDS)
    def test_matches_the_whole_array_decode(self, method, bits, rounding, block, monkeypatch):
        from embcompress import linalg

        if block is not None:
            monkeypatch.setattr(linalg, "_BLOCK_SCALARS", block)
        for n, d in self.SHAPES:
            C = quantized(n, d, method, bits, rounding)
            out = decompress(C)
            assert out.dtype == np.float64 and out.shape == (n, d)
            assert out.tobytes() == whole_decode(C).tobytes(), (n, d)

    def test_malformed_codes_keep_their_errors(self):
        C = quantized(50, 7, "uniform", 3, "deterministic")
        with pytest.raises(ValueError, match=r"codes shape \(50, 2\) != expected \(50, 3\)"):
            dataclasses.replace(C, codes=C.codes[:, :2])
        # codes set past the container's own check reach unpack_codes' checks
        bad = copy.copy(C)
        object.__setattr__(bad, "codes", C.codes[:, :2])
        with pytest.raises(ValueError, match="packed row is 2 bytes, expected 3 for 7 3-bit codes"):
            decompress(bad)
        # a flat array is read one row block at a time: the shape in the text
        # is the first block's, (50,) here, where the whole-array decode read (150,)
        object.__setattr__(bad, "codes", C.codes.ravel())
        with pytest.raises(ValueError, match=r"packed codes must be 2-D, got shape \("):
            decompress(bad)

    @pytest.mark.parametrize("method,bits", [("uniform", 4), ("uniform", 8), ("kmeans", 3)])
    def test_peak_is_about_its_output(self, method, bits):
        # the whole-array decode held an n x d uint32 code array beside a
        # float temporary: 1.50x its output
        rng = np.random.default_rng(0)
        codes = pack_codes(rng.integers(0, 1 << bits, size=(10_000, 300)), bits)
        if method == "uniform":
            fields = dict(grid=QuantizationGrid(bits, 2.0))
        else:
            fields = dict(codebook=np.sort(rng.normal(size=1 << bits)))
        C = CompressedEmbedding(method=method, n=10_000, d_orig=300, bits=bits, codes=codes,
                                **fields)
        tracemalloc.start()
        try:
            out = decompress(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes, peak / out.nbytes


class TestBlockedProjection:
    """On the Gram path :func:`compress_pca` forms X V_k one
    :func:`_row_blocks` block at a time."""

    @pytest.fixture(scope="class", params=[300, 100])
    def base(self, request):
        # several blocks: 218 rows each at d = 300, 655 at d = 100
        X = gen_student_t_matrix(1500, request.param, 5, 1, seed=request.param)
        B = PreparedBase(X)
        assert B.svd is None
        return X, B

    @pytest.mark.parametrize("k", [1, 2, 25, 75, "d"])
    def test_matches_the_whole_product(self, base, k):
        X, B = base
        k = X.shape[1] if k == "d" else k
        C = compress_pca(X, k)
        whole = X @ B.V[:, :k]
        assert np.max(np.abs(C.reduced - whole)) <= 1e-14 * np.max(np.abs(whole))
        assert compress_pca(X, k).reduced.tobytes() == C.reduced.tobytes()

    def test_svd_path_keeps_its_bytes(self):
        X = RNG.normal(size=(40, 60))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)  # rank 40 of 60 columns
            B = PreparedBase(X)
        assert B.svd is not None
        for k in (1, 25, 40):
            expected = B.svd.U[:, :k] * B.s[:k]
            assert compress_pca(X, k).reduced.tobytes() == expected.tobytes()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_projection_keeps_no_copy_of_x_resident(self):
        # one whole-matrix X @ V_75 at two OpenBLAS threads left about 22 MB
        # resident past its 5.7 MB output, and the call grew the peak RSS
        # of a process that had already factored X by about 29 MB.  The
        # child reads VmHWM, the peak of its own memory map: its ru_maxrss
        # starts at the peak of the process that started it
        script = (
            "from embcompress.compress import compress_pca\n"
            "from embcompress.measures import PreparedBase\n"
            "from embcompress.theory import gen_student_t_matrix\n"
            "def peak_kb():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
            "X = gen_student_t_matrix(10000, 300, 5, 1, seed=0)\n"
            "PreparedBase(X)\n"
            "before = peak_kb()\n"
            "compress_pca(X, 75)\n"
            "print(1024 * (peak_kb() - before), X.nbytes)\n"
        )
        src = str(Path(embcompress.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        grown, nbytes = map(int, out.stdout.split())
        assert grown < nbytes / 2, grown / 2**20


def container_fields(C):
    """Every field of a container, each array as its dtype, shape and bytes."""
    return {f.name: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for f in dataclasses.fields(C) for v in (getattr(C, f.name),)}


class TestCompressor:
    """``compressor(spec)(X, seed, threads)`` is the direct ``compress_*`` call."""

    CASES = {
        "uniform-det": ({"bits": 3, "rounding": "deterministic"},
                        lambda X, seed, t: compress_uniform(X, 3, "deterministic", seed, t)),
        "uniform-stoch": ({"bits": 3, "full_range": False},
                          lambda X, seed, t: compress_uniform(X, 3, "stochastic", seed, t)),
        "full-range": ({"bits": 3}, lambda X, seed, t: compress_uniform(
            X, 3, "stochastic", seed, t, clip=1.0 / math.sqrt(X.shape[1]))),
        "kmeans": ({"method": "kmeans", "bits": 2},
                   lambda X, seed, t: compress_kmeans(X, 2, seed=seed, threads=t)),
        "pca": ({"method": "pca", "k": 5}, lambda X, seed, t: compress_pca(X, 5)),
        "pca-keep-v": ({"method": "pca", "k": 5, "keep_v": True},
                       lambda X, seed, t: compress_pca(X, 5, keep_v=True)),
    }

    @pytest.fixture(scope="class")
    def X(self):
        return gen_uniform_matrix(4000, 40, seed=6)  # three encode blocks of 1638 rows

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_builds_the_direct_call(self, X, case, threads):
        spec, direct = self.CASES[case]
        got = compressor(**spec)(X, 17, threads)
        assert container_fields(got) == container_fields(direct(X, 17, threads))

    def test_full_range_fixes_the_grid(self, X):
        C = compressor(bits=3)(X, 1)
        assert C.grid == QuantizationGrid(3, 1.0 / math.sqrt(40))
        Y = X.copy()
        Y[3, 4] = np.nextafter(C.grid.clip, 1.0)
        with pytest.raises(ValueError, match="exceed"):
            compressor(bits=3)(Y, 1)
        # a fixed clip below max|X| sends the entries past it to the end levels
        D = compress_uniform(X, 3, clip=0.05)
        assert D.grid.clip == 0.05 and np.max(np.abs(decompress(D))) == 0.05

    @pytest.mark.parametrize("seed", [-1, -(1 << 64) - 1, 1 << 64, (1 << 70) + 3])
    def test_seed_is_taken_modulo_2_64(self, X, seed):
        for spec in ({"bits": 2}, {"bits": 2, "full_range": False}, {"method": "kmeans", "bits": 2}):
            got = compressor(**spec)(X, seed)
            assert got.seed == seed % (1 << 64)
            assert container_fields(got) == container_fields(compressor(**spec)(X, got.seed))

    @pytest.mark.parametrize("spec, message", [
        ({"method": "nope"}, "unknown compression method 'nope'"),
        ({"bits": 0}, r"bits must be in \[1, 31\] for uniform, got 0"),
        ({"method": "kmeans", "bits": 17}, r"bits must be in \[1, 16\] for kmeans, got 17"),
        ({"method": "kmeans", "bits": None}, r"bits must be in \[1, 16\] for kmeans, got None"),
        ({"method": "pca"}, "method 'pca' needs a k of 1 or more, got None"),
        ({"method": "pca", "k": 0}, "method 'pca' needs a k of 1 or more, got 0"),
        ({"method": "pca", "k": 2, "full_range": True}, "full_range needs method 'uniform'"),
        ({"method": "kmeans", "full_range": True}, "full_range needs method 'uniform'"),
        ({"rounding": "deterministic", "full_range": True}, "full_range needs stochastic rounding"),
        ({"rounding": "det"}, "unknown rounding 'det'"),
    ])
    def test_spec_is_checked_before_any_matrix(self, spec, message):
        with pytest.raises(ValueError, match=message):
            compressor(**spec)


class TestCompressedEmbedding:
    def test_field_discipline(self):
        with pytest.raises(ValueError):
            CompressedEmbedding(method="uniform", n=2, d_orig=2, bits=2, codes=None)
        with pytest.raises(ValueError):
            CompressedEmbedding(method="nope", n=2, d_orig=2)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_the_recorded_range_is_rejected(self, seed):
        X = np.random.default_rng(0).normal(size=(5, 3))
        for make in (compress_uniform, compress_kmeans):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                make(X, 2, seed=seed)

    def test_largest_seed_is_recorded(self, tmp_path):
        from embcompress.storage import read_compressed, write_compressed

        X = np.random.default_rng(0).normal(size=(5, 3))
        write_compressed(compress_uniform(X, 2, seed=(1 << 64) - 1), None, tmp_path / "c.eqc")
        assert read_compressed(tmp_path / "c.eqc")[0].seed == (1 << 64) - 1

    def test_codes_stay_below_level_count(self):
        X = RNG.normal(size=(40, 11))
        for C in (compress_uniform(X, 3), compress_kmeans(X, 3)):
            from embcompress.bitpack import unpack_codes

            codes = unpack_codes(C.codes, C.d_orig, C.bits)
            assert codes.max() < (1 << C.bits)

    def test_payload_layout_example(self):
        # 9 one-bit codes per row pad to 2 bytes: codes block is 8 bytes
        X = RNG.normal(size=(4, 9))
        C = compress_uniform(X, 1)
        assert C.codes.nbytes == 8
