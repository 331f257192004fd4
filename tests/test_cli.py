import json
import math
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import embcompress
from embcompress.cli import run
from embcompress.storage import (
    FORMAT_VERSION,
    MAGIC,
    Vocabulary,
    compression_rate,
    read_compressed,
    read_report,
    read_text_embedding,
    write_text_embedding,
)


@pytest.fixture()
def base_embedding(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 24))
    path = tmp_path / "base.txt"
    write_text_embedding(X, Vocabulary(tuple(f"w{i}" for i in range(200))), path)
    return path, X


def test_help_and_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert run(["compress", "--method", "uniform"]) == 1  # missing args
    assert run(["measure"]) == 1
    assert run(["compress", "--method", "pca", "in", "out"]) == 1  # no --dim
    err = capsys.readouterr().err
    assert "required" in err or "--dim" in err
    assert run(["compress", "--frobnicate"]) == 1  # unknown flag


@pytest.mark.parametrize(
    "command,flags",
    [
        ("compress", ["--method", "--bits", "--dim", "--rounding", "--keep-v"]),
        ("measure", ["--lambda", "--measures", "--out"]),
        ("select", ["--criterion"]),
        ("evaluate", ["--perf", "--reports", "--out", "--csv"]),
        ("simulate", ["--config", "--out", "--csv"]),
        ("reconstruct", []),
    ],
)
def test_subcommand_help_documents_flags(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in flags:
        assert flag in text, (command, flag)


def test_missing_file_is_data_error(tmp_path):
    assert run(["compress", "--method", "uniform", "--bits", "1",
                str(tmp_path / "nope.txt"), str(tmp_path / "out.eqc")]) == 2


def test_invalid_utf8_is_data_error(tmp_path, capsys):
    path = tmp_path / "base.txt"
    path.write_bytes(b"a 1 2\nb 3 \xff4\n")
    assert run(["compress", "--method", "uniform", "--bits", "1",
                str(path), str(tmp_path / "out.eqc")]) == 2
    assert f"{path}:2: not valid UTF-8" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # rank-1 matrix cannot support a rank-3 truncation
    u = np.arange(1.0, 7.0)[:, None]
    X = u @ np.array([[1.0, 2.0, 3.0]])
    path = tmp_path / "base.txt"
    write_text_embedding(X, Vocabulary(tuple("abcdef")), path)
    code = run(["compress", "--method", "pca", "--dim", "3",
                str(path), str(tmp_path / "out.eqc")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_compress_one_bit_rate_and_roundtrip(base_embedding, tmp_path, capsys):
    base, X = base_embedding
    out = tmp_path / "u1.eqc"
    assert run(["compress", "--method", "uniform", "--bits", "1",
                str(base), str(out)]) == 0
    printed = capsys.readouterr().out
    rate = printed.split("compression_rate=")[1].strip()
    C, vocab = read_compressed(out)
    assert rate == f"{compression_rate(C):.4f}"
    assert 30.0 <= compression_rate(C) <= 32.0
    assert C.method == "uniform" and C.n == 200 and vocab is not None

    txt = tmp_path / "rec.txt"
    assert run(["reconstruct", str(out), str(txt)]) == 0
    Xr, vocab_r = read_text_embedding(txt)
    assert Xr.shape == X.shape
    assert vocab_r.tokens == vocab.tokens
    levels = {-C.grid.clip, C.grid.clip}
    assert set(np.unique(Xr)) <= levels


def test_compress_determinism_across_runs_and_threads(base_embedding, tmp_path):
    base, _ = base_embedding
    a, b, c = (tmp_path / name for name in ("a.eqc", "b.eqc", "c.eqc"))
    argv = ["--seed", "7", "compress", "--method", "uniform", "--bits", "2",
            "--rounding", "stoch", str(base)]
    assert run(["--threads", "1"] + argv + [str(a)]) == 0
    assert run(["--threads", "1"] + argv + [str(b)]) == 0
    assert run(["--threads", "8"] + argv + [str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_global_flags_accepted_after_subcommand(base_embedding, tmp_path):
    base, _ = base_embedding
    before, after = tmp_path / "before.eqc", tmp_path / "after.eqc"
    assert run(["--seed", "7", "compress", "--method", "uniform", "--bits", "2",
                "--rounding", "stoch", str(base), str(before)]) == 0
    assert run(["compress", "--method", "uniform", "--bits", "2",
                "--rounding", "stoch", "--seed", "7", str(base), str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()
    # a trailing flag overrides a leading one
    override = tmp_path / "override.eqc"
    assert run(["--seed", "1", "compress", "--method", "uniform", "--bits", "2",
                "--rounding", "stoch", "--seed", "7", str(base), str(override)]) == 0
    assert override.read_bytes() == before.read_bytes()


def test_measure_and_select_pipeline(base_embedding, tmp_path, capsys):
    base, _ = base_embedding
    lossless = tmp_path / "lossless.eqc"
    rough = tmp_path / "rough.eqc"
    small = tmp_path / "small.eqc"
    assert run(["compress", "--method", "pca", "--dim", "24", "--keep-v",
                str(base), str(lossless)]) == 0
    assert run(["compress", "--method", "uniform", "--bits", "1",
                str(base), str(rough)]) == 0
    assert run(["compress", "--method", "pca", "--dim", "6",
                str(base), str(small)]) == 0

    report_path = tmp_path / "report.json"
    assert run(["measure", "--out", str(report_path),
                str(base), str(lossless), str(rough), str(small)]) == 0
    doc = read_report(report_path)
    reports = doc["body"]["reports"]
    assert set(reports) == {"lossless", "rough", "small"}
    assert reports["lossless"]["eigenspace_overlap"] == pytest.approx(1.0, abs=1e-9)
    assert reports["small"]["reconstruction_error"] is None
    assert doc["input_digests"]["base"]

    capsys.readouterr()
    assert run(["select", str(base), str(rough), str(lossless), str(small)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("winner: lossless")


def test_evaluate_pipeline(tmp_path):
    reports = {
        "reports": {
            "a": {"eigenspace_overlap": 0.95, "pip_loss": 1.0},
            "b": {"eigenspace_overlap": 0.80, "pip_loss": 5.0},
            "c": {"eigenspace_overlap": 0.60, "pip_loss": 2.0},
        }
    }
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    from embcompress.storage import write_report

    write_report(reports, rep_dir / "r.json")
    perf = tmp_path / "perf.csv"
    perf.write_text(
        "candidate_id,task,performance,seed\n"
        "a,squad,0.9,0\nb,squad,0.8,0\nc,squad,0.7,0\n"
    )
    out = tmp_path / "summary.json"
    csv_out = tmp_path / "summary.csv"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out), "--csv", str(csv_out)]) == 0
    body = read_report(out)["body"]
    by_measure = {row["measure"]: row for row in body["rows"]}
    assert by_measure["eigenspace_overlap"]["selection_error_rate"] == 0.0
    assert by_measure["eigenspace_overlap"]["abs_spearman"] == pytest.approx(1.0)
    # pip_loss mis-ranks exactly the (b, c) pair: b is worse by the measure
    # but better downstream
    assert by_measure["pip_loss"]["selection_error_rate"] == pytest.approx(1 / 3)
    assert by_measure["pip_loss"]["max_regret"] == pytest.approx(0.1)
    assert csv_out.read_text().startswith("task,measure")


def test_evaluate_inf_delta_and_missing_candidates(tmp_path, capsys):
    # a measure report as `measure` writes it, with delta_max "inf" for b;
    # the CSV lacks the reported d and names the unreported e
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    (rep_dir / "measure.json").write_text("""{
  "body": {"reports": {
    "a": {"delta_max": 1.5, "eigenspace_overlap": 0.9, "dims": [50, 4, 4],
          "lambda_used": 0.25, "ranks": [4, 4]},
    "b": {"delta_max": "inf", "eigenspace_overlap": 0.5, "dims": [50, 4, 4],
          "lambda_used": 0.25, "ranks": [4, 3]},
    "c": {"delta_max": 3.0, "eigenspace_overlap": 0.7, "dims": [50, 4, 4],
          "lambda_used": 0.25, "ranks": [4, 4]},
    "d": {"delta_max": 2.0, "eigenspace_overlap": 0.8, "dims": [50, 4, 2],
          "lambda_used": 0.25, "ranks": [4, 2]}
  }},
  "input_digests": {},
  "tool_version": "0"
}
""")
    perf = tmp_path / "perf.csv"
    perf.write_text(
        "candidate_id,task,performance,seed\n"
        "a,sst,0.9,0\nb,sst,0.6,0\nc,sst,0.8,0\ne,sst,0.7,0\n"
    )
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 0
    body = read_report(out)["body"]
    assert body["missing_reports"] == ["e"]
    assert body["missing_performance"] == ["d"]
    by_measure = {row["measure"]: row for row in body["rows"]}
    row = by_measure["delta_max"]
    # b's infinite delta_max ranks it last, as its performance does
    assert row["n_candidates"] == 3
    assert math.isfinite(row["abs_spearman"]) and row["abs_spearman"] == pytest.approx(1.0)
    assert row["selection_error_rate"] == 0.0
    assert by_measure["eigenspace_overlap"]["abs_spearman"] == pytest.approx(1.0)
    assert "sst/delta_max: |rho|=1.0000" in capsys.readouterr().out


def test_simulate_theorem3_bound_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n": 400, "d": 10, "bits": 4, "a": 1.0, "seeds": [0, 1, 2]}
    ))
    out = tmp_path / "out.json"
    assert run(["simulate", "theorem3", "--config", str(cfg), "--out", str(out)]) == 0
    body = read_report(out)["body"]
    assert body["bound"] == pytest.approx(20 / 225, rel=1e-12)
    assert body["bound"] == pytest.approx(0.08889, abs=5e-6)
    assert not body["vacuous"]
    assert len(body["per_seed"]) == 3


def test_simulate_theorem1_and_theorem2(tmp_path):
    cfg = tmp_path / "cfg1.json"
    cfg.write_text(json.dumps({
        "n": 150, "d": 8, "c": 0.5, "trials": 2000, "seed": 1,
        "compression": {"method": "pca", "k": 4},
    }))
    out = tmp_path / "out1.json"
    assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 0
    res = read_report(out)["body"]["result"]
    assert abs(res["estimate"] - res["theory_value"]) <= 5 * res["std_error"]

    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({
        "n": 80, "d": 6, "c": 0.1, "trials": 100, "seed": 2, "L": 1.0,
        "compression": {"method": "uniform", "bits": 4},
    }))
    out2 = tmp_path / "out2.json"
    assert run(["simulate", "theorem2", "--config", str(cfg2), "--out", str(out2)]) == 0
    res2 = read_report(out2)["body"]["result"]
    assert res2["estimate"] <= res2["theory_value"] + 4 * res2["std_error"]


def test_simulate_table4_and_scaling_csv(tmp_path):
    cfg = tmp_path / "t4.json"
    cfg.write_text(json.dumps({"spectrum": [2.0, 1.0, 1.0], "n": 30, "seed": 0}))
    out = tmp_path / "t4_out.json"
    assert run(["simulate", "table4", "--config", str(cfg), "--out", str(out)]) == 0
    body = read_report(out)["body"]
    assert body["predicted"]["delta_max"] == pytest.approx(5.0)
    assert body["measured"]["delta_max"] == pytest.approx(5.0, abs=1e-8)

    cfg2 = tmp_path / "sc.json"
    cfg2.write_text(json.dumps({
        "axis": "bits", "levels": [1, 2], "base": {"n": 200, "d": 5},
        "seeds": [0, 1],
    }))
    out2 = tmp_path / "sc.json.out"
    csv2 = tmp_path / "sc.csv"
    assert run(["simulate", "scaling", "--config", str(cfg2),
                "--out", str(out2), "--csv", str(csv2)]) == 0
    lines = csv2.read_text().splitlines()
    assert lines[0] == "axis,level,seed,one_minus_overlap,bound"
    assert len(lines) == 5


def test_simulate_outputs_are_byte_stable(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 100, "d": 5, "bits": 2, "seeds": [0, 1]}))
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert run(["simulate", "theorem3", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["simulate", "theorem3", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_kmeans_compress_cli(base_embedding, tmp_path):
    base, X = base_embedding
    out = tmp_path / "km.eqc"
    assert run(["compress", "--method", "kmeans", "--bits", "2",
                str(base), str(out)]) == 0
    C, _ = read_compressed(out)
    assert C.method == "kmeans"
    assert C.codebook.shape == (4,)


def test_measure_flags(base_embedding, tmp_path):
    base, _ = base_embedding
    cand = tmp_path / "c.eqc"
    assert run(["compress", "--method", "uniform", "--bits", "2",
                str(base), str(cand)]) == 0
    out = tmp_path / "r.json"
    assert run(["measure", "--lambda", "0.5", "--measures",
                "eigenspace_overlap,delta_max", "--out", str(out),
                str(base), str(cand)]) == 0
    rep = read_report(out)["body"]["reports"]["c"]
    assert rep["lambda_used"] == 0.5
    assert "eigenspace_overlap" in rep and "delta_max" in rep
    assert "pip_loss" not in rep
    assert run(["measure", "--measures", "bogus", "--out", str(out),
                str(base), str(cand)]) == 1


def test_reconstruct_synthesizes_tokens_without_vocab(tmp_path):
    from embcompress.compress import compress_pca
    from embcompress.storage import write_compressed

    rng = np.random.default_rng(3)
    C = compress_pca(rng.normal(size=(5, 4)), 2)
    blob = tmp_path / "c.eqc"
    write_compressed(C, None, blob)
    out = tmp_path / "out.txt"
    assert run(["reconstruct", str(blob), str(out)]) == 0
    _, vocab = read_text_embedding(out)
    assert vocab.tokens == tuple(f"row{i}" for i in range(5))


@pytest.mark.parametrize("method_code, section", [
    (2, struct.pack("<IB", 0, 0)),  # pca, k = 0
    (1, struct.pack("<Bd", 0, 0.0)),  # kmeans, bits = 0
], ids=["pca-k0", "kmeans-bits0"])
def test_reconstruct_rejects_rows_without_values(tmp_path, capsys, method_code, section):
    body = (
        MAGIC + struct.pack("<HBBQQI", FORMAT_VERSION, method_code, 0, 0, 3, 3)
        + section + struct.pack("<I", 0)
    )
    blob = tmp_path / "c.eqc"
    blob.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    out = tmp_path / "out.txt"
    assert run(["reconstruct", str(blob), str(out)]) == 2
    assert not out.exists()
    assert "must be in" in capsys.readouterr().err


def test_reconstruct_rejects_token_count_mismatch(tmp_path, capsys):
    # uniform 1-bit container with n = 3 rows but two tokens
    body = (
        MAGIC + struct.pack("<HBBQQI", FORMAT_VERSION, 0, 0, 0, 3, 2)
        + struct.pack("<Bd", 1, 1.0) + bytes(3)
        + struct.pack("<I", 2) + struct.pack("<I", 1) + b"a" + struct.pack("<I", 1) + b"b"
    )
    blob = tmp_path / "c.eqc"
    blob.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    out = tmp_path / "out.txt"
    assert run(["reconstruct", str(blob), str(out)]) == 2
    assert not out.exists()
    assert "vocabulary has 2 tokens but the matrix has 3 rows" in capsys.readouterr().err


def test_clipping_curve_cli(tmp_path):
    cfg = tmp_path / "cc.json"
    cfg.write_text(json.dumps({
        "n": 100, "d": 6, "df": 5.0, "seed": 0, "bits": [1],
        "rounding": ["deterministic"], "r_points": 5,
    }))
    out = tmp_path / "cc_out.json"
    assert run(["simulate", "clipping-curve", "--config", str(cfg),
                "--out", str(out)]) == 0
    rows = read_report(out)["body"]["rows"]
    assert len(rows) == 5
    assert all(math.isfinite(r["overlap"]) for r in rows)


# `select` stdout on the candidates of `select_candidates`, recorded from the
# implementation that scored every candidate with a full quality report
SELECT_GOLDEN = {
    "reconstruction_error": (
        "small: excluded (reconstruction_error not applicable)\n"
        "1. mid reconstruction_error=23.2662\n"
        "2. rough reconstruction_error=40.9701\n"
        "3. twin reconstruction_error=40.9701\n"
        "winner: mid\n"
    ),
    "eigenspace_overlap": (
        "1. mid eigenspace_overlap=0.89035\n"
        "2. rough eigenspace_overlap=0.665772\n"
        "3. twin eigenspace_overlap=0.665772\n"
        "4. small eigenspace_overlap=0.25\n"
        "winner: mid\n"
    ),
}


@pytest.fixture()
def select_candidates(base_embedding, tmp_path):
    """rough (1 bit), small (PCA to 6 columns), twin (a byte copy of rough,
    so it ties with it) and mid (2 bits), in that order."""
    base, _ = base_embedding
    paths = {name: tmp_path / f"{name}.eqc" for name in ("rough", "small", "twin", "mid")}
    assert run(["compress", "--method", "uniform", "--bits", "1",
                str(base), str(paths["rough"])]) == 0
    paths["twin"].write_bytes(paths["rough"].read_bytes())
    assert run(["compress", "--method", "pca", "--dim", "6",
                str(base), str(paths["small"])]) == 0
    assert run(["compress", "--method", "uniform", "--bits", "2",
                str(base), str(paths["mid"])]) == 0
    return [str(p) for p in paths.values()]


@pytest.mark.parametrize("criterion", sorted(SELECT_GOLDEN))
def test_select_stdout_golden(base_embedding, select_candidates, criterion, capsys):
    base, _ = base_embedding
    capsys.readouterr()
    assert run(["select", "--criterion", criterion, str(base), *select_candidates]) == 0
    assert capsys.readouterr().out == SELECT_GOLDEN[criterion]


def test_select_best_agrees_with_cli_winner(base_embedding, select_candidates, capsys):
    import warnings
    from pathlib import Path

    from embcompress.measures import MEASURE_NAMES
    from embcompress.selection import MeasureSpec, select_best

    base, X = base_embedding
    containers = [read_compressed(p)[0] for p in select_candidates]
    names = [Path(p).stem for p in select_candidates]
    for criterion in MEASURE_NAMES:
        capsys.readouterr()
        assert run(["select", "--criterion", criterion, str(base), *select_candidates]) == 0
        cli_winner = capsys.readouterr().out.strip().splitlines()[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            idx = select_best(X, containers, MeasureSpec.default(criterion))
        assert cli_winner == f"winner: {names[idx]}", criterion


def test_import_loads_no_scipy():
    # scipy is imported by the few functions that use it, so a CLI process
    # that never reaches them does not pay for it
    env = dict(os.environ, PYTHONPATH=str(Path(embcompress.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, embcompress, embcompress.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_measure_loads_no_scipy(base_embedding, tmp_path):
    # the spectral deltas come from numpy's QR and symmetric eigensolver
    from embcompress.compress import compress_kmeans, compress_pca, compress_uniform
    from embcompress.storage import write_compressed

    base, X = base_embedding
    paths = []
    for name, C in [("u1", compress_uniform(X, 1)), ("km2", compress_kmeans(X, 2)),
                    ("p6", compress_pca(X, 6))]:
        paths.append(str(tmp_path / f"{name}.eqc"))
        write_compressed(C, None, paths[-1])
    argv = ["measure", "--out", str(tmp_path / "r.json"), str(base), *paths]
    env = dict(os.environ, PYTHONPATH=str(Path(embcompress.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from embcompress.cli import run; code = run(sys.argv[1:]); "
         "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"
