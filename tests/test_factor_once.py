"""Each base matrix is factored once per call.

Calls to ``thin_svd`` and ``joint_orthonormal_basis`` are counted through the
module bindings that ``measures`` and ``theory`` call them by.
"""

import numpy as np
import pytest

from embcompress import linalg, measures, theory
from embcompress.cli import run
from embcompress.compress import compress_pca, compress_uniform
from embcompress.selection import MeasureSpec, select_best
from embcompress.storage import Vocabulary, write_compressed, write_text_embedding


@pytest.fixture()
def calls(monkeypatch):
    counts = {"svd": 0, "joint": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in (measures, theory):
        monkeypatch.setattr(mod, "thin_svd", counted("svd", linalg.thin_svd))
    monkeypatch.setattr(
        measures, "joint_orthonormal_basis",
        counted("joint", linalg.joint_orthonormal_basis),
    )
    return counts


def _candidates(X):
    return [compress_uniform(X, 1), compress_uniform(X, 2), compress_pca(X, 3)]


def test_select_best_by_overlap_factors_base_once(calls):
    X = np.random.default_rng(1).normal(size=(80, 6))
    candidates = _candidates(X)
    calls.update(svd=0, joint=0)
    select_best(X, candidates, MeasureSpec.default("eigenspace_overlap"))
    assert calls == {"svd": len(candidates) + 1, "joint": 0}


def test_cli_measure_factors_base_once(calls, tmp_path):
    X = np.random.default_rng(2).normal(size=(80, 6))
    base = tmp_path / "base.txt"
    write_text_embedding(X, Vocabulary(tuple(f"w{i}" for i in range(80))), base)
    paths = []
    for i, C in enumerate(_candidates(X)):
        paths.append(str(tmp_path / f"c{i}.eqc"))
        write_compressed(C, None, paths[-1])
    calls.update(svd=0, joint=0)
    assert run(["measure", "--out", str(tmp_path / "r.json"), str(base), *paths]) == 0
    assert calls == {"svd": len(paths) + 1, "joint": len(paths)}


def test_clipping_curve_factors_base_once(calls):
    X = theory.gen_student_t_matrix(200, 5, df=5.0, scale=1.0, seed=0)
    r_grid = np.linspace(0.5, float(np.max(np.abs(X))), 7)
    theory.clipping_curve(X, 2, "stochastic", r_grid)
    assert calls == {"svd": r_grid.size + 1, "joint": 0}


def test_scaling_factors_each_matrix_once(calls):
    rows = theory.scaling_experiment("dim", [3, 5], {"n": 200}, [0, 1])
    assert calls["svd"] == 2 * len(rows)


def test_overlap_bound_experiment_factors_base_once(calls):
    X = theory.gen_uniform_matrix(200, 5, seed=0)
    theory.overlap_bound_experiment(X, 4, range(6))
    assert calls == {"svd": 6 + 1, "joint": 0}


def test_theorem2_factors_each_design_once(calls):
    X = theory.gen_uniform_matrix(120, 4, seed=0)
    Xt = compress_pca(X, 2).reduced
    theory.simulate_lipschitz_gap(X, Xt, theory.LabelModel(noise_ratio=0.1), 4, seed=1)
    assert calls == {"svd": 2, "joint": 0}
