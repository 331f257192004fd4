"""Each base matrix is factored once per call: a well-conditioned base by the
symmetric eigensolve of X^T X, with no SVD of X at all, and any other base by
one thin SVD.  A candidate takes an SVD only when it leaves the Gram path.

Every factorization of a base or a candidate, in scoring, PCA compression
and the theory harnesses alike, goes through
:class:`~embcompress.measures.PreparedBase`, so ``calls`` counts ``thin_svd``
calls, and ``gram_eigh`` calls that return factors, through the bindings
that ``measures`` calls them by.  ``lapack_svds`` records every matrix handed
to ``np.linalg.svd``, so a test can count the SVDs taken of X itself.
``thin_svd`` keeps nothing between calls: factors are shared by holding the
:class:`~embcompress.measures.PreparedBase` that took them.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from embcompress import linalg, measures, theory
from embcompress.cli import run
from embcompress.compress import compress_pca, compress_uniform, decompress
from embcompress.selection import MeasureSpec, select_best
from embcompress.storage import (
    Vocabulary,
    read_text_embedding,
    write_compressed,
    write_text_embedding,
)


@pytest.fixture()
def calls(monkeypatch):
    counts = {"svd": 0, "gram": 0}

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return linalg.thin_svd(*args, **kwargs)

    def counted_gram(A):
        eig = linalg.gram_eigh(A)
        counts["gram"] += eig is not None
        return eig

    monkeypatch.setattr(measures, "thin_svd", counted_svd)
    monkeypatch.setattr(measures, "gram_eigh", counted_gram)
    return counts


def test_only_prepared_base_calls_thin_svd():
    """What ``calls`` counts is every factorization: no other library code
    calls ``thin_svd``."""
    callers = set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "thin_svd" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("measures", "PreparedBase")}


@pytest.fixture()
def lapack_svds(monkeypatch):
    """Copies of the matrices handed to np.linalg.svd from here on."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def svds_of(seen, X) -> int:
    return sum(a.shape == X.shape and np.array_equal(a, X) for a in seen)


# (id, base, LAPACK SVDs of it per call): cond(X) is about 3 for the normal
# matrix and 1e4 for the scaled one, which fails the Gram guard
BASES = [
    ("well-conditioned", np.random.default_rng(1).normal(size=(80, 6)), 0),
    ("ill-conditioned", theory.gen_scaled_matrix(80, 6, 1e-4, 0), 1),
]
by_base = pytest.mark.parametrize("X, of_x", [b[1:] for b in BASES], ids=[b[0] for b in BASES])


def _candidates(X):
    """Three full-rank candidates and one rank-deficient one (PCA --keep-v),
    which alone takes the SVD fallback on the well-conditioned base."""
    return [compress_uniform(X, 1), compress_uniform(X, 2), compress_pca(X, 3),
            compress_pca(X, 3, keep_v=True)]


FALLBACKS = 1


def _write_inputs(X, tmp_path):
    """The base as a text file, the candidates as containers, and X as read
    back from the text."""
    base = tmp_path / "base.txt"
    write_text_embedding(X, Vocabulary(tuple(f"w{i}" for i in range(X.shape[0]))), base)
    paths = []
    for i, C in enumerate(_candidates(X)):
        paths.append(str(tmp_path / f"c{i}.eqc"))
        write_compressed(C, None, paths[-1])
    return str(base), paths, read_text_embedding(base)[0]


@by_base
def test_select_best_by_overlap_factors_base_once(X, of_x, lapack_svds):
    candidates = _candidates(X)
    del lapack_svds[:]
    with pytest.warns(measures.RankDeficiencyWarning):
        select_best(X, candidates, MeasureSpec.default("eigenspace_overlap"))
    assert svds_of(lapack_svds, X) == of_x
    if of_x == 0:
        assert len(lapack_svds) == FALLBACKS


@by_base
@pytest.mark.parametrize("command", ["measure", "select"])
def test_cli_scoring_factors_base_once(X, of_x, command, lapack_svds, tmp_path):
    base, paths, X_read = _write_inputs(X, tmp_path)
    del lapack_svds[:]
    argv = ["measure", "--out", str(tmp_path / "r.json")] if command == "measure" else ["select"]
    with pytest.warns(measures.RankDeficiencyWarning):
        assert run([*argv, base, *paths]) == 0
    assert svds_of(lapack_svds, X_read) == of_x
    if of_x == 0:
        assert len(lapack_svds) == FALLBACKS


@by_base
def test_cli_compress_pca_factors_base_once(X, of_x, lapack_svds, tmp_path):
    base, _, X_read = _write_inputs(X, tmp_path)
    del lapack_svds[:]
    assert run(["compress", "--method", "pca", "--dim", "3", base,
                str(tmp_path / "p.eqc")]) == 0
    assert svds_of(lapack_svds, X_read) == of_x
    assert len(lapack_svds) == of_x


@by_base
def test_clipping_curve_factors_base_once(X, of_x, lapack_svds, calls, tmp_path):
    # four curves of seven quantized candidates each
    base, _, X_read = _write_inputs(X, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": base, "r_points": 7, "bits": [1, 2],
                               "rounding": ["deterministic", "stochastic"]}))
    out = tmp_path / "out.json"
    del lapack_svds[:]
    calls.update(svd=0, gram=0)
    assert run(["simulate", "clipping-curve", "--config", str(cfg), "--out", str(out)]) == 0
    assert svds_of(lapack_svds, X_read) == of_x
    if of_x == 0:
        assert calls == {"svd": 0, "gram": 1}
    assert len(json.loads(out.read_text())["body"]["rows"]) == 4 * 7


def test_scaling_factors_each_matrix_once(lapack_svds, calls):
    # decay_min 1 draws a uniform matrix, 1e-4 one with cond(X) about 1e4
    rows = theory.scaling_experiment("scalar", [1.0, 1e-4], {"n": 200, "d": 5}, [0, 1])
    assert len(rows) == 4
    for decay_min, seed in [(1.0, 0), (1.0, 1), (1e-4, 0), (1e-4, 1)]:
        X = theory.gen_scaled_matrix(200, 5, decay_min, seed)
        assert svds_of(lapack_svds, X) == (0 if decay_min == 1.0 else 1)
    assert calls == {"svd": 2, "gram": 2}


def test_overlap_bound_experiment_factors_base_once(calls):
    X = theory.gen_uniform_matrix(200, 5, seed=0)
    theory.overlap_bound_experiment(X, 4, range(6))
    assert calls == {"svd": 0, "gram": 1}


@pytest.mark.parametrize("prepared", [False, True])
def test_bounds_factor_a_plain_matrix_once_and_a_prepared_base_never(calls, prepared):
    X = theory.gen_uniform_matrix(200, 5, seed=0)
    Xt = theory.stochastic_quantize_full_range(X, 4, 1)  # on the Gram path
    arg = measures.PreparedBase(X) if prepared else X
    calls.update(svd=0, gram=0)
    theory.conditioning_scalar(arg)
    theory.davis_kahan_sample_bound(arg, Xt)
    theory.lipschitz_gap_bound(arg, Xt, 1.0, theory.LabelModel())
    theory.expected_gap_upper_bound(arg, Xt, theory.LabelModel())
    assert calls == {"svd": 0, "gram": 0 if prepared else 4}


def test_theorem2_factors_each_design_once(calls):
    # X takes its Gram path and Xt its Cholesky: the labels, the GD steps and
    # the bound all read those two factorizations
    X = theory.gen_uniform_matrix(120, 4, seed=0)
    Xt = compress_pca(X, 2).reduced
    calls.update(svd=0, gram=0)
    theory.simulate_lipschitz_gap(X, Xt, theory.LabelModel(noise_ratio=0.1), 4, seed=1)
    assert calls == {"svd": 0, "gram": 1}


@pytest.mark.filterwarnings("ignore:gradient descent stopped:RuntimeWarning")
@pytest.mark.parametrize("harness", [
    lambda X, Xt, model: theory.simulate_regression_gap(X, Xt, model, 6, seed=1),
    # GD on this X needs far more than 50 steps, which the count does not need
    lambda X, Xt, model: theory.simulate_lipschitz_gap(X, Xt, model, 6, seed=1,
                                                       gd=theory.GdConfig(max_steps=50)),
], ids=["theorem1", "theorem2"])
def test_theorems_share_an_ill_conditioned_base_svd(lapack_svds, harness):
    # cond(X) about 1e4 fails the Gram guard: the base takes one thin SVD, and
    # the labels, the projections, the GD step and the theory value all read it
    X = theory.gen_scaled_matrix(200, 5, 1e-4, 0)
    Xt = theory.stochastic_quantize_full_range(theory.gen_uniform_matrix(200, 5, 0), 4, 1)
    del lapack_svds[:]
    harness(X, Xt, theory.LabelModel(noise_ratio=0.1))
    assert svds_of(lapack_svds, X) == 1


def test_a_held_base_factors_x_once_and_each_shortcut_once(lapack_svds):
    X = theory.gen_scaled_matrix(120, 8, 1e-4, 0)
    Xts = [decompress(C) for C in [compress_uniform(X, b) for b in (1, 2, 3, 4)]
           + [compress_pca(X, 5)]]
    del lapack_svds[:]
    prepared = measures.PreparedBase(X)
    for Xt in Xts:
        prepared.report(Xt)
    assert svds_of(lapack_svds, X) == 1
    for i, Xt in enumerate(Xts, start=2):
        measures.quality_report(X, Xt)
        assert svds_of(lapack_svds, X) == i


@pytest.mark.parametrize("compression", [{}, {"compression": {"method": "pca", "k": 3}}],
                         ids=["uniform", "pca"])
@pytest.mark.parametrize("kind", ["theorem1", "theorem2"])
def test_cli_theorems_take_no_svd(lapack_svds, tmp_path, kind, compression):
    # both designs take the Gram path: the GD fits take sigma_max from the
    # eigenvalues the harness already holds, and the condition checks read
    # trcon; the PCA candidate's own compression reads X's Gram path too
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"n": 200, "d": 5, "c": 0.1, "trials": 20, "seed": 3,
                               **compression}))
    assert run(["simulate", kind, "--config", str(cfg), "--out",
                str(tmp_path / "t.out.json")]) == 0
    assert lapack_svds == []


def test_overlap_alone_never_forms_the_report_norms():
    X = np.random.default_rng(4).normal(size=(80, 6))
    candidates = _candidates(X)[:3]
    prepared = measures.PreparedBase(X)
    for C in candidates:
        prepared.overlap(decompress(C))
    assert "sq_norm" not in vars(prepared) and "sq_gram_norm" not in vars(prepared)
    prepared.report(decompress(candidates[0]))
    assert prepared.sq_norm == linalg.sq_fro_norm(X)
    assert prepared.sq_gram_norm == linalg.sq_fro_norm(X.T @ X)
