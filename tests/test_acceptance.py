"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(written through the captured-output bypass so the lines always reach the
console, e.g. under plain ``pytest``).
"""

import functools
import itertools
import math
import sys
import time

import numpy as np
import pytest

from embcompress.bitpack import pack_codes, unpack_codes
from embcompress.compress import (
    QuantizationGrid,
    _kmeans_centroids,
    _nearest_centroid,
    compress_kmeans,
    compress_pca,
    compress_uniform,
    decompress,
    find_clip_threshold,
    quantization_objective,
    quantize_codes,
)
from embcompress.linalg import sq_fro_norm, thin_svd
from embcompress.measures import (
    PreparedBase,
    eigenspace_overlap,
    quality_report,
)
from embcompress.rng import CounterRng
from embcompress.selection import (
    MeasureSpec,
    select_best,
    selection_error_rate,
    spearman_rho,
)
from embcompress.storage import (
    Vocabulary,
    compression_rate,
    read_compressed,
    read_report,
    write_compressed,
    write_text_embedding,
)
from embcompress.theory import (
    GdConfig,
    LabelModel,
    clipping_curve,
    conditioning_scalar,
    davis_kahan_sample_bound,
    exact_expected_gap,
    gen_student_t_matrix,
    gen_uniform_matrix,
    scaling_experiment,
    simulate_lipschitz_gap,
    simulate_regression_gap,
    stochastic_quantize_full_range,
    table4_perturbation,
    uniform_overlap_bound,
)

def contiguous_partition_optimum(values, K):
    """Exhaustive optimal 1-D k-means loss over contiguous partitions of the
    sorted values (the optimum respects sorted order)."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size

    def seg_cost(i, j):
        seg = v[i:j]
        return float(np.sum((seg - seg.mean()) ** 2))

    best = np.inf
    for cuts in itertools.combinations(range(1, n), min(K, n) - 1):
        bounds = (0, *cuts, n)
        best = min(
            best,
            sum(seg_cost(bounds[t], bounds[t + 1]) for t in range(len(bounds) - 1)),
        )
    return best


def kmeans_loss(values, centroids, assign):
    return float(np.sum((np.asarray(values, float) - centroids[assign]) ** 2))


def brute_force_error_rate(scores, perf, orientation):
    errors, valid = 0, 0
    for i, j in itertools.combinations(range(len(scores)), 2):
        if scores[i] == scores[j] or perf[i] == perf[j]:
            continue
        if orientation == "higher_better":
            chosen = i if scores[i] > scores[j] else j
        else:
            chosen = i if scores[i] < scores[j] else j
        other = j if chosen == i else i
        valid += 1
        if perf[chosen] < perf[other]:
            errors += 1
    return errors / valid


def brute_force_spearman(a, b):
    def ranks(x):
        out = []
        for v in x:
            less = sum(1 for u in x if u < v)
            equal = sum(1 for u in x if u == v)
            out.append(less + (equal + 1) / 2.0)
        return np.array(out)

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra**2) * np.sum(rb**2)))


def criterion(label, time_limit=None):
    """Run the criterion body, enforce its runtime budget, and always print
    one PASS/FAIL line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if time_limit is not None:
                    assert elapsed < time_limit, (
                        f"runtime {elapsed:.1f}s exceeds the {time_limit}s budget"
                    )
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {label}: FAIL ({elapsed:.1f}s)", file=sys.__stdout__)
                raise
            print(f"ACCEPTANCE {label}: PASS ({elapsed:.1f}s)", file=sys.__stdout__)

        return wrapper

    return deco


@criterion("1 table-4 replication", time_limit=10.0)
def test_criterion_1_table4():
    spectra = {
        3: [2.0, 1.5, 1.0],
        10: np.linspace(3.0, 1.0, 10),
        50: np.linspace(5.0, 1.0, 50),
    }
    for d, spectrum in spectra.items():
        out = table4_perturbation(spectrum, n=max(60, 3 * d), seed=d)
        for key, predicted in out["predicted"].items():
            assert out["measured"][key] == pytest.approx(predicted, abs=1e-8), (d, key)


@criterion("2 squared-loss gap identity", time_limit=120.0)
def test_criterion_2_regression_gap():
    rng = np.random.default_rng(2026)
    for case in range(20):
        n = int(rng.integers(50, 501))
        d = int(rng.integers(3, 21))
        k = int(rng.integers(1, d + 1))
        c = float(rng.choice([0.0, 0.5, 1.0]))
        X = gen_uniform_matrix(n, d, seed=case)
        if k < d:
            Xt = decompress(compress_pca(X, k))
        else:
            Xt = stochastic_quantize_full_range(X, int(rng.choice([2, 4])), case + 100)
        model = LabelModel(noise_ratio=c)
        res = simulate_regression_gap(X, Xt, model, trials=10_000, seed=case + 1)
        assert abs(res.estimate - res.theory_value) <= 4 * res.std_error, res.config
        # the cross-term trace identity agrees with the direct Frobenius form
        U = thin_svd(X).U
        Ut = thin_svd(Xt).U
        M = Ut.T @ U
        assert abs(sq_fro_norm(M) - float(np.trace(U.T @ Ut @ M))) <= 1e-10


@criterion("3 Lipschitz-loss gap bound", time_limit=600.0)
def test_criterion_3_lipschitz_bound():
    rng = np.random.default_rng(31)
    gd = GdConfig()
    for case in range(10):
        n = int(rng.integers(60, 121))
        d = int(rng.integers(4, 11))
        c = 0.0 if case % 2 == 0 else 0.1
        X = gen_uniform_matrix(n, d, seed=40 + case)
        if case % 3 == 0 and d > 2:
            Xt = decompress(compress_pca(X, d - 1))
        else:
            Xt = stochastic_quantize_full_range(X, int(rng.choice([2, 4])), case)
        model = LabelModel(noise_ratio=c)
        res = simulate_lipschitz_gap(X, Xt, model, trials=1000, seed=case, gd=gd, L=1.0)
        assert res.estimate <= res.theory_value + 4 * res.std_error, res.config


@criterion("4 quantization overlap bound", time_limit=120.0)
def test_criterion_4_quantization_bound():
    X = gen_uniform_matrix(1000, 10, seed=0)
    a = conditioning_scalar(X)
    assert a >= 0.5
    for bits in (4, 8):
        bound = uniform_overlap_bound(bits, a)
        gaps = []
        for seed in range(20):
            Xt = stochastic_quantize_full_range(X, bits, seed)
            gap = 1.0 - eigenspace_overlap(X, Xt)
            gaps.append(gap)
            assert gap <= davis_kahan_sample_bound(X, Xt), (bits, seed)
        assert float(np.mean(gaps)) <= bound, bits


@criterion("5 scaling sweeps", time_limit=600.0)
def test_criterion_5_scaling():
    seeds = list(range(5))

    def means(rows):
        levels = sorted({r["level"] for r in rows})
        return [
            float(np.mean([r["one_minus_overlap"] for r in rows if r["level"] == lv]))
            for lv in levels
        ]

    bit_means = means(scaling_experiment("bits", [1, 2, 4, 8, 16],
                                         {"n": 10_000, "d": 10}, seeds))
    assert all(b > a for b, a in zip(bit_means, bit_means[1:])), bit_means

    decay_levels = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    a_means = means(scaling_experiment("scalar", decay_levels,
                                       {"n": 10_000, "d": 10, "bits": 1}, seeds))
    assert all(b > a for b, a in zip(a_means, a_means[1:])), a_means

    for bits in (1, 2, 4):
        n_means = means(scaling_experiment("vocab", [100, 1000, 10_000],
                                           {"d": 10, "bits": bits}, seeds))
        assert max(n_means) / min(n_means) < 2.0, (bits, n_means)
        d_means = means(scaling_experiment("dim", [10, 30, 100, 300],
                                           {"n": 10_000, "bits": bits}, seeds))
        assert max(d_means) / min(d_means) < 2.0, (bits, d_means)


@criterion("6 clipping curves")
def test_criterion_6_clipping():
    X = gen_student_t_matrix(10_000, 50, df=5.0, scale=1.0, seed=0)
    xmax = float(np.max(np.abs(X)))
    r_grid = np.linspace(xmax / 100, xmax, 100)
    base = PreparedBase(X)
    for bits in (1, 2, 4):
        curves = {
            mode: clipping_curve(base, bits, mode, r_grid, seed=0)
            for mode in ("deterministic", "stochastic")
        }
        for mode, rows in curves.items():
            overlap = np.array([r["overlap"] for r in rows])
            recon = np.array([r["recon_error"] for r in rows])
            best_recon = int(np.argmin(recon))
            # argmax taken tie-aware: every grid point within 1e-9 of the
            # maximum counts (at b=1 the deterministic overlap curve is
            # constant in r, so the whole grid co-attains the max)
            near_max = np.nonzero(overlap >= overlap.max() - 1e-9)[0]
            dist = int(np.min(np.abs(near_max - best_recon)))
            assert dist <= 2, (bits, mode, dist)
        det_overlap = np.array([r["overlap"] for r in curves["deterministic"]])
        sto_overlap = np.array([r["overlap"] for r in curves["stochastic"]])
        assert float(np.mean(det_overlap >= sto_overlap)) >= 0.70, bits


@criterion("7 oracle equivalences", time_limit=120.0)
def test_criterion_7_oracles():
    rng = np.random.default_rng(7)

    # spectral deltas: reduced pencil vs dense n x n pencil
    import scipy.linalg

    for n, d, k in ((40, 5, 5), (80, 6, 3), (100, 4, 7)):
        X = rng.normal(size=(n, d))
        Xt = rng.normal(size=(n, k))
        lam = 0.8
        rep = quality_report(X, Xt, lam)
        mus = scipy.linalg.eigh(
            Xt @ Xt.T + lam * np.eye(n), X @ X.T + lam * np.eye(n), eigvals_only=True
        )
        assert abs(rep.delta1 - (1.0 - float(mus[0]))) <= 1e-7
        assert abs(rep.delta2 - (float(mus[-1]) - 1.0)) <= 1e-7

    # projected reconstruction error vs per-column least squares
    from embcompress.linalg import least_squares_solve

    X = rng.normal(size=(15, 4))
    Xt = rng.normal(size=(15, 3))
    direct = sum(
        float(np.sum((Xt @ least_squares_solve(Xt, X[:, j]) - X[:, j]) ** 2))
        for j in range(4)
    )
    assert abs(quality_report(X, Xt).projected_reconstruction_error - direct) <= 1e-8

    # PIP loss small-Gram form vs dense n x n difference
    for n in (50, 200):
        X = rng.normal(size=(n, 8))
        Xt = X + 0.2 * rng.normal(size=(n, 8))
        dense = float(np.linalg.norm(X @ X.T - Xt @ Xt.T, "fro"))
        assert abs(quality_report(X, Xt).pip_loss - dense) <= 1e-7

    # scalar k-means vs exhaustive contiguous-partition optimum
    for case in range(30):
        crng = np.random.default_rng(1000 + case)
        n = int(crng.integers(3, 13))
        K = int(crng.integers(1, 4))
        values = crng.normal(size=n)
        centroids = _kmeans_centroids(values, K)
        assign = _nearest_centroid(values, centroids)
        assert kmeans_loss(values, centroids, assign) <= (
            1.05 * contiguous_partition_optimum(values, K) + 1e-12
        )

    # golden-section threshold vs 1000-point sweep (+ one tol-width of slack)
    X = gen_student_t_matrix(60, 80, df=4.0, scale=1.0, seed=3)
    tol = 0.01
    for bits in (1, 2, 4):
        f = quantization_objective(X, bits)
        rstar = find_clip_threshold(X, bits, tol=tol)
        xmax = float(np.max(np.abs(X)))
        rs = np.linspace(xmax / 1000, xmax, 1000)
        vals = [f(float(r)) for r in rs]
        i = int(np.argmin(vals))
        slack = max(f(min(rs[i] + tol, xmax)), f(max(rs[i] - tol, rs[0]))) - vals[i]
        assert f(rstar) <= vals[i] + slack + 1e-12

    # rank statistics vs brute-force pair enumeration on <= 6 candidates
    for case in range(20):
        crng = np.random.default_rng(2000 + case)
        m = int(crng.integers(2, 7))
        scores = crng.integers(0, 5, size=m).astype(float)
        perf = crng.integers(0, 5, size=m).astype(float)
        if len(set(scores.tolist())) > 1 and len(set(perf.tolist())) > 1:
            assert spearman_rho(scores, perf) == pytest.approx(
                brute_force_spearman(scores, perf), abs=1e-12
            )
        valid = [
            (i, j)
            for i, j in itertools.combinations(range(m), 2)
            if scores[i] != scores[j] and perf[i] != perf[j]
        ]
        if valid:
            assert selection_error_rate(scores, perf, "higher_better") == pytest.approx(
                brute_force_error_rate(scores, perf, "higher_better"), abs=1e-12
            )


@criterion("8 compression invariants", time_limit=120.0)
def test_criterion_8_compression_invariants(tmp_path):
    rng = np.random.default_rng(8)

    # bit-pack round trip across every supported width
    for bits in range(1, 32):
        codes = rng.integers(0, 1 << bits, size=(3, 11), dtype=np.uint32)
        np.testing.assert_array_equal(
            unpack_codes(pack_codes(codes, bits), 11, bits), codes
        )

    # deterministic rounding error is at most half a spacing, entrywise
    X = rng.normal(size=(64, 24))
    for bits in (1, 3, 7):
        C = compress_uniform(X, bits)
        clipped = np.clip(X, -C.grid.clip, C.grid.clip)
        assert np.max(np.abs(decompress(C) - clipped)) <= C.grid.spacing / 2

    # stochastic unbiasedness: mean over 1e5 seeds within 4*spacing/sqrt(s)
    # of the clipped value on at least 99% of entries
    Xs = rng.normal(size=(3, 4))
    rstar = find_clip_threshold(Xs, 2)
    grid = QuantizationGrid(2, rstar)
    clipped = np.clip(Xs, -rstar, rstar)
    draws = 100_000
    acc = np.zeros_like(Xs)
    for seed in range(draws):
        acc += grid.values_for(quantize_codes(Xs, grid, "stochastic", CounterRng(seed)))
    mean = acc / draws
    tol = 4.0 * grid.spacing / math.sqrt(draws)
    assert np.mean(np.abs(mean - clipped) <= tol) >= 0.99

    # binary container round trip is byte-identical
    from embcompress.storage import _serialize_compressed

    vocab = Vocabulary(tuple(f"w{i}" for i in range(64)))
    for C in (
        compress_uniform(X, 3, rounding="stochastic", seed=1),
        compress_kmeans(X, 2),
        compress_pca(X, 5, keep_v=True),
    ):
        path = tmp_path / "c.eqc"
        write_compressed(C, vocab, path)
        C2, v2 = read_compressed(path)
        assert _serialize_compressed(C2, v2) == path.read_bytes()

    # thread-count invariance, both rounding modes
    import os

    workers = max(os.cpu_count() or 1, 2)
    for rounding in ("deterministic", "stochastic"):
        one = compress_uniform(X, 2, rounding=rounding, seed=3, threads=1)
        many = compress_uniform(X, 2, rounding=rounding, seed=3, threads=workers)
        assert one.codes.tobytes() == many.codes.tobytes()
        assert one.grid == many.grid


@criterion("9 selection sanity")
def test_criterion_9_selection():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 16))
    candidates = [
        compress_pca(X, 16, keep_v=True),  # lossless copy
        compress_uniform(X, 1),
        compress_pca(X, 4),
    ]
    spec = MeasureSpec.default("eigenspace_overlap")
    assert select_best(X, candidates, spec) == 0

    concordant_scores = [0.9, 0.7, 0.5, 0.3]
    concordant_perf = [0.9, 0.8, 0.7, 0.6]
    assert selection_error_rate(concordant_scores, concordant_perf, "higher_better") == 0.0
    assert selection_error_rate(concordant_scores, concordant_perf[::-1], "higher_better") == 1.0


@criterion("10 end-to-end CLI", time_limit=60.0)
def test_criterion_10_cli_pipeline(tmp_path, capsys):
    from embcompress.cli import run

    X = gen_uniform_matrix(10_000, 100, seed=10)
    base = tmp_path / "base.txt"
    write_text_embedding(
        X, Vocabulary(tuple(f"w{i}" for i in range(10_000))), base
    )

    b1 = tmp_path / "b1.eqc"
    assert run(["compress", "--method", "uniform", "--bits", "1",
                str(base), str(b1)]) == 0
    rate = compression_rate(read_compressed(b1)[0])
    assert 30.0 <= rate <= 32.0

    b4 = tmp_path / "b4.eqc"
    pca = tmp_path / "pca.eqc"
    assert run(["compress", "--method", "uniform", "--bits", "4",
                str(base), str(b4)]) == 0
    assert run(["compress", "--method", "pca", "--dim", "25",
                str(base), str(pca)]) == 0

    report = tmp_path / "report.json"
    assert run(["measure", "--out", str(report),
                str(base), str(b1), str(b4), str(pca)]) == 0
    reports = read_report(report)["body"]["reports"]
    assert set(reports) == {"b1", "b4", "pca"}

    capsys.readouterr()
    assert run(["select", str(base), str(b1), str(b4), str(pca)]) == 0
    assert capsys.readouterr().out.strip().endswith("winner: b4")
