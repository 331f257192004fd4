"""Each base matrix is factored once per call, and a candidate takes an SVD
only when it leaves the Gram path.

Calls to ``thin_svd`` are counted through the module bindings that
``measures`` and ``theory`` call it by.  Across calls, ``thin_svd``
remembers the last factorization, so the one-call shortcuts take one LAPACK
SVD of an unchanged base between them.
"""

import json

import numpy as np
import pytest

from embcompress import linalg, measures, theory
from embcompress.cli import run
from embcompress.compress import compress_pca, compress_uniform, decompress
from embcompress.selection import MeasureSpec, select_best
from embcompress.storage import Vocabulary, write_compressed, write_text_embedding


@pytest.fixture()
def calls(monkeypatch):
    counts = {"svd": 0}

    def counted(*args, **kwargs):
        counts["svd"] += 1
        return linalg.thin_svd(*args, **kwargs)

    for mod in (measures, theory):
        monkeypatch.setattr(mod, "thin_svd", counted)
    return counts


def _candidates(X):
    """Three full-rank candidates and one rank-deficient one (PCA --keep-v),
    which alone takes the SVD fallback."""
    return [compress_uniform(X, 1), compress_uniform(X, 2), compress_pca(X, 3),
            compress_pca(X, 3, keep_v=True)]


FALLBACKS = 1


def test_select_best_by_overlap_factors_base_once(calls):
    X = np.random.default_rng(1).normal(size=(80, 6))
    candidates = _candidates(X)
    calls.update(svd=0)
    with pytest.warns(measures.RankDeficiencyWarning):
        select_best(X, candidates, MeasureSpec.default("eigenspace_overlap"))
    assert calls == {"svd": 1 + FALLBACKS}


def test_cli_measure_factors_base_once(calls, tmp_path):
    X = np.random.default_rng(2).normal(size=(80, 6))
    base = tmp_path / "base.txt"
    write_text_embedding(X, Vocabulary(tuple(f"w{i}" for i in range(80))), base)
    paths = []
    for i, C in enumerate(_candidates(X)):
        paths.append(str(tmp_path / f"c{i}.eqc"))
        write_compressed(C, None, paths[-1])
    calls.update(svd=0)
    with pytest.warns(measures.RankDeficiencyWarning):
        assert run(["measure", "--out", str(tmp_path / "r.json"), str(base), *paths]) == 0
    assert calls == {"svd": 1 + FALLBACKS}


def test_clipping_curve_factors_base_once(calls, tmp_path):
    # four curves of seven quantized candidates each, all on the Gram path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 200, "d": 5, "df": 5.0, "r_points": 7, "bits": [1, 2],
                               "rounding": ["deterministic", "stochastic"]}))
    out = tmp_path / "out.json"
    assert run(["simulate", "clipping-curve", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == {"svd": 1}
    assert len(json.loads(out.read_text())["body"]["rows"]) == 4 * 7


def test_scaling_factors_each_matrix_once(calls):
    rows = theory.scaling_experiment("dim", [3, 5], {"n": 200}, [0, 1])
    assert calls["svd"] == len(rows)


def test_overlap_bound_experiment_factors_base_once(calls):
    X = theory.gen_uniform_matrix(200, 5, seed=0)
    theory.overlap_bound_experiment(X, 4, range(6))
    assert calls == {"svd": 1}


@pytest.mark.parametrize("prepared", [False, True])
def test_bounds_factor_a_plain_matrix_once_and_a_prepared_base_never(calls, prepared):
    X = theory.gen_uniform_matrix(200, 5, seed=0)
    Xt = theory.stochastic_quantize_full_range(X, 4, 1)  # on the Gram path
    arg = measures.PreparedBase(X) if prepared else X
    calls.update(svd=0)
    theory.conditioning_scalar(arg)
    theory.davis_kahan_sample_bound(arg, Xt)
    theory.lipschitz_gap_bound(arg, Xt, 1.0, theory.LabelModel())
    theory.expected_gap_upper_bound(arg, Xt, theory.LabelModel())
    assert calls == {"svd": 0 if prepared else 4}


def test_theorem2_factors_each_design_once(calls):
    X = theory.gen_uniform_matrix(120, 4, seed=0)
    Xt = compress_pca(X, 2).reduced
    theory.simulate_lipschitz_gap(X, Xt, theory.LabelModel(noise_ratio=0.1), 4, seed=1)
    assert calls == {"svd": 2}


def test_one_call_shortcuts_share_one_lapack_svd_of_x(monkeypatch):
    X = np.random.default_rng(3).normal(size=(120, 8))
    candidates = [compress_uniform(X, b) for b in (1, 2, 3, 4)] + [compress_pca(X, 5)]
    svd = np.linalg.svd
    of_x = []

    def spy(a, *args, **kwargs):
        of_x.append(a.shape == X.shape and np.array_equal(a, X))
        return svd(a, *args, **kwargs)

    linalg._forget()  # compress_pca above left X's factors in the memo
    monkeypatch.setattr(linalg.np.linalg, "svd", spy)
    for C in candidates:
        measures.quality_report(X, decompress(C))
    select_best(X, candidates, MeasureSpec.default("delta_max"))
    compress_pca(X, 3)
    assert sum(of_x) == 1
