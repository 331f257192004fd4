import csv
import dataclasses
import inspect
import json
import math
import os
import struct
import subprocess
import sys
import time
import types
import typing
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import embcompress
from embcompress.cli import _SIMULATIONS, run
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


@pytest.mark.parametrize("method", ["uniform", "kmeans"])
@pytest.mark.parametrize("flag, want", [("0", 3), ("2", 2)])
def test_compress_threads_reach_both_encoders(base_embedding, tmp_path, monkeypatch,
                                              method, flag, want):
    # --threads 0 takes the usable cores: the affinity mask, not the machine
    from embcompress import compress

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 5, 9}, raising=False)
    seen = []
    real = getattr(compress, f"compress_{method}")
    monkeypatch.setattr(compress, f"compress_{method}",
                        lambda *a, threads, **k: seen.append(threads) or real(*a, **k))
    base, _ = base_embedding
    argv = ["--threads", flag, "compress", "--method", method, "--bits", "2", str(base),
            str(tmp_path / "o.eqc")]
    assert run(argv) == 0
    assert seen == [want]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("method", ["uniform", "kmeans"])
def test_seed_outside_the_recorded_range_is_a_usage_error(tmp_path, capsys, method, seed):
    # exit 1, not the 2 of a missing input: the seed is refused before any file is read
    out = tmp_path / "o.eqc"
    argv = ["compress", "--method", method, "--bits", "2", "--seed", seed,
            str(tmp_path / "missing.txt"), str(out)]
    assert run(argv) == 1
    assert not out.exists()
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--threads", "-3", "--method", "uniform", "--bits", "2"], "--threads must be 0 or more, got -3"),
    (["--method", "uniform", "--bits", "40"], "bits must be in [1, 31] for uniform, got 40"),
    (["--method", "kmeans", "--bits", "17"], "bits must be in [1, 16] for kmeans, got 17"),
    (["--method", "uniform", "--bits", "0"], "bits must be in [1, 31] for uniform, got 0"),
    (["--method", "kmeans"], "bits must be in [1, 16] for kmeans, got None"),
    (["--method", "pca", "--dim", "0"], "method 'pca' needs a k of 1 or more, got 0"),
], ids=["threads", "uniform-bits", "kmeans-bits", "zero-bits", "no-bits", "dim"])
def test_bad_flag_is_a_usage_error_before_the_input_is_read(tmp_path, capsys, flags, message):
    # exit 1, not the 2 of a missing input
    out = tmp_path / "o.eqc"
    assert run(["compress", *flags, str(tmp_path / "missing.txt"), str(out)]) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


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


def test_evaluate_rejects_nan_report_value(tmp_path, capsys):
    # json accepts a bare NaN; a report holding one is a format error
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    report = rep_dir / "measure.json"
    report.write_text(
        '{"body": {"reports": {"a": {"eigenspace_overlap": NaN}, '
        '"b": {"eigenspace_overlap": 0.5}, "c": {"eigenspace_overlap": "inf"}}}}\n'
    )
    perf = tmp_path / "perf.csv"
    perf.write_text("candidate_id,task,performance,seed\na,t,0.9,0\nb,t,0.6,0\nc,t,0.7,0\n")
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 2
    assert f"{report}: NaN is not a valid report value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        (b"b," + b"x" * 200_000 + b",0.5,0\n", "field larger than field limit (131072)"),
        (b"b,t\xff,0.5,0\n", "not valid UTF-8 at byte 0xff"),
    ],
)
def test_evaluate_rejects_a_hostile_perf_csv(tmp_path, capsys, line, message):
    # a data error (exit 2) naming the file and line, not a traceback
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    (rep_dir / "r.json").write_text('{"body": {"reports": {"a": {"eigenspace_overlap": 0.9}}}}\n')
    perf = tmp_path / "perf.csv"
    perf.write_bytes(b"candidate_id,task,performance,seed\na,t,0.9,0\n" + line)
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 2
    assert f"{perf}:3: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_a_candidate_in_two_report_files(tmp_path, capsys):
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    first, second = rep_dir / "a.json", rep_dir / "b.json"
    first.write_text('{"body": {"reports": {"u1": {"eigenspace_overlap": 0.9}, '
                     '"u2": {"eigenspace_overlap": 0.5}}}}\n')
    second.write_text('{"body": {"reports": {"u2": {"eigenspace_overlap": 0.01}}}}\n')
    perf = tmp_path / "perf.csv"
    perf.write_text("candidate_id,task,performance,seed\nu1,t,0.9,0\nu2,t,0.6,0\n")
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 2
    assert f"candidate 'u2' is reported in both {first} and {second}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ('[1, 2]', "'body' must be a JSON object"),
        ('{"reports": [1, 2]}', "'reports' must be a JSON object"),
        ('{"reports": {"u1": {"eigenspace_overlap": 0.9}, "u2": 0.5}}',
         "the report of candidate 'u2' must be a JSON object"),
    ],
    ids=["body-array", "reports-array", "entry-number"],
)
def test_evaluate_rejects_a_malformed_report_file(tmp_path, capsys, body, message):
    # each once crashed with an AttributeError and exit 1
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    report = rep_dir / "r.json"
    report.write_text(f'{{"body": {body}}}\n')
    perf = tmp_path / "perf.csv"
    perf.write_text("candidate_id,task,performance,seed\nu1,t,0.9,0\nu2,t,0.6,0\n")
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 2
    assert f"{report}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ['{"a": 1}', "[0.5]", '"abc"', "true"],
                         ids=["object", "array", "string", "boolean"])
def test_evaluate_rejects_a_malformed_measure_value(tmp_path, capsys, value):
    # an object once raised an uncaught TypeError, true was read as 1.0 and
    # "abc" exited 2 without naming the file or the candidate
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    report = rep_dir / "r.json"
    report.write_text('{"body": {"reports": {"u1": {"eigenspace_overlap": 0.9}, '
                      f'"u2": {{"eigenspace_overlap": 0.5, "pip_loss": {value}}}}}}}}}\n')
    perf = tmp_path / "perf.csv"
    perf.write_text("candidate_id,task,performance,seed\nu1,t,0.9,0\nu2,t,0.6,0\n")
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{report}: candidate 'u2': the measure 'pip_loss' must be a number" in err
    assert f"got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_evaluate_reads_every_valid_measure_value(tmp_path):
    # integers, floats, null and the strings of a serialized infinity
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    (rep_dir / "r.json").write_text(
        '{"body": {"reports": {"a": {"eigenspace_overlap": 1, "delta_max": "inf"}, '
        '"b": {"eigenspace_overlap": 0.5, "delta_max": 2.0, "pip_loss": null}, '
        '"c": {"eigenspace_overlap": 0, "delta_max": "-inf"}}}}\n')
    perf = tmp_path / "perf.csv"
    perf.write_text("candidate_id,task,performance,seed\na,t,0.9,0\nb,t,0.6,0\nc,t,0.3,0\n")
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 0
    rows = {r["measure"]: r for r in read_report(out)["body"]["rows"]}
    assert rows["eigenspace_overlap"]["selection_error_rate"] == 0.0
    assert rows["delta_max"]["n_candidates"] == 3


def test_evaluate_rejects_a_deeply_nested_report_file(tmp_path, capsys):
    # json.loads once raised RecursionError here: a traceback and exit 1
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    report = rep_dir / "r.json"
    report.write_text("[" * 200_000 + "]" * 200_000)
    perf = tmp_path / "perf.csv"
    perf.write_text("candidate_id,task,performance,seed\nu1,t,0.9,0\n")
    out = tmp_path / "summary.json"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out)]) == 2
    assert f"{report}: not a valid JSON report: maximum recursion depth" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "perf_rows, stdout, max_regret",
    [
        # one scored candidate: no pair, so every statistic is undefined
        ("a,t,0.9,0\n", "t/eigenspace_overlap: |rho|=n/a error_rate=n/a max_regret=n/a", None),
        # the overlap prefers a, which performs 0.9 - 0.7 worse than b
        ("a,t,0.7,0\nb,t,0.9,0\n",
         "t/eigenspace_overlap: |rho|=1.0000 error_rate=1.0000 max_regret=0.2000",
         0.9 - 0.7),
    ],
)
def test_evaluate_prints_every_statistic_with_four_decimals(
    tmp_path, capsys, perf_rows, stdout, max_regret
):
    rep_dir = tmp_path / "reports"
    rep_dir.mkdir()
    (rep_dir / "r.json").write_text(
        '{"body": {"reports": {"a": {"eigenspace_overlap": 0.9}, '
        '"b": {"eigenspace_overlap": 0.5}}}}\n'
    )
    perf = tmp_path / "perf.csv"
    perf.write_text("candidate_id,task,performance,seed\n" + perf_rows)
    out, csv_out = tmp_path / "summary.json", tmp_path / "summary.csv"
    assert run(["evaluate", "--perf", str(perf), "--reports", str(rep_dir),
                "--out", str(out), "--csv", str(csv_out)]) == 0
    assert stdout in capsys.readouterr().out.splitlines()
    # the JSON and CSV keep the unrounded value
    rows = read_report(out)["body"]["rows"]
    assert [r["max_regret"] for r in rows if r["measure"] == "eigenspace_overlap"] == [max_regret]
    with csv_out.open(newline="") as fh:
        csv_rows = [r for r in csv.DictReader(fh) if r["measure"] == "eigenspace_overlap"]
    assert [r["max_regret"] for r in csv_rows] == ["" if max_regret is None else repr(max_regret)]


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


def test_simulate_theorem3_rejects_empty_seeds(tmp_path, capsys):
    # it once factored X, warned "Mean of empty slice" and failed only when
    # writing the NaN mean
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 50, "d": 3, "bits": 2, "seeds": []}))
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["simulate", "theorem3", "--config", str(cfg), "--out", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert f"{cfg}: " in (err := capsys.readouterr().err) and "seeds must be non-empty" in err
    assert not out.exists()


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


def test_simulate_csv_rejected_before_the_run(tmp_path, capsys):
    # theorem2 has no table: the flag fails before any simulation or file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 80, "d": 6, "trials": 4}))
    out, csv_out = tmp_path / "out.json", tmp_path / "x.csv"
    assert run(["simulate", "theorem2", "--config", str(cfg), "--out", str(out),
                "--csv", str(csv_out)]) == 1
    assert "--csv is only valid for scaling and clipping-curve" in capsys.readouterr().err
    assert not out.exists() and not csv_out.exists()


@pytest.mark.parametrize("rounding", ["stochstic", "det"])
def test_simulate_rejects_an_unknown_rounding(tmp_path, capsys, rounding):
    # with full_range at its default, only "stochastic" takes the full-range
    # quantizer; anything else reaches compress_uniform, which rejects it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 80, "d": 6, "trials": 4,
                               "compression": {"method": "uniform", "rounding": rounding}}))
    out = tmp_path / "out.json"
    assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown rounding {rounding!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gd, message", [
    ({"step": 0}, "GdConfig.step must be"),
    ({"step": float("nan")}, "the config key 'gd.step' must be a JSON number or null, got NaN"),
    ({"tol": -1}, "GdConfig.tol must be"),
    ({"step": -1}, "GdConfig.step must be"),
    ({"max_steps": 0}, "GdConfig.max_steps must be"),
    ({"step": "abc"}, "the config key 'gd.step' must be a JSON number or null, got \"abc\""),
], ids=["step-0", "step-nan", "tol-negative", "step-negative", "max_steps-0", "step-str"])
def test_simulate_theorem2_rejects_an_invalid_gd_config(tmp_path, capsys, gd, message):
    # each of these once spun, diverged, fitted nothing or raised a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 80, "d": 6, "trials": 4, "gd": gd}))
    out = tmp_path / "out.json"
    assert run(["simulate", "theorem2", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}: " in (err := capsys.readouterr().err) and message in err
    assert not out.exists()


@pytest.mark.parametrize("rounding", ["deterministic", "stochstic"])
def test_simulate_rejects_full_range_without_stochastic_rounding(tmp_path, capsys, rounding):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 80, "d": 6, "trials": 4, "compression": {
        "method": "uniform", "rounding": rounding, "full_range": True}}))
    out = tmp_path / "out.json"
    assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"full_range needs stochastic rounding, got rounding {rounding!r}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, config, message",
    [
        ("theorem1", {"d": 5, "trials": 4}, "the config: missing a required argument: 'n'"),
        ("theorem1", [{"n": 80, "d": 6}], "the config must be a JSON object, not list"),
        ("theorem1", {"n": 80, "d": 6, "trials": 4, "compression": "uniform"},
         "the config key 'compression' must be a JSON object, got \"uniform\""),
        ("theorem2", {"n": 80, "d": 6, "trials": 4, "compression": {"method": "pca"}},
         "compression: method 'pca' needs a k of 1 or more, got None"),
        ("scaling", {"axis": "bits", "levels": 5},
         "the config key 'levels' must be a JSON array of at most 1000 entries, got 5"),
        ("theorem3", {"n": 80, "d": 6, "bits": 2, "seeds": 3},
         "the config key 'seeds' must be a JSON array of at most 1000 entries, got 3"),
        ("clipping-curve", {"n": 100, "d": 6, "bits": [1], "r_points": 0},
         "the config key 'r_points' must be in [1, 1000], got 0"),
        ("clipping-curve", {"input": "vectors.txt", "r_points": "5"},
         "the config key 'r_points' must be a JSON integer, got \"5\""),
        # a scalar of the wrong JSON type once raised a TypeError traceback
        ("theorem1", {"n": None, "d": 6}, "the config key 'n' must be a JSON integer, got null"),
        ("theorem2", {"n": 80, "d": 6, "trials": 4, "L": None},
         "the config key 'L' must be a JSON number, got null"),
        ("theorem3", {"n": 80, "d": 6, "bits": 2, "a": [1]},
         "the config key 'a' must be a JSON number or null, got [1]"),
        ("table4", {"spectrum": [2.0, 1.0], "n": {}},
         "the config key 'n' must be a JSON integer, got {}"),
        ("scaling", {"axis": "bits", "levels": [1], "base": {"n": "x"}},
         "the config key 'base.n' must be a JSON integer, got \"x\""),
        # and these once ran something the config did not ask for, with exit 0
        ("theorem1", {"n": 80, "d": 6, "trails": 4},
         "the config: got an unexpected keyword argument 'trails'; the keys are n, d, seed, "
         "compression, covariance, c, trials"),
        ("theorem1", {"n": 80, "d": 6, "trials": 4, "compression": {"bit": 2}},
         "compression: got an unexpected keyword argument 'bit'; the keys are method, bits, "
         "rounding, full_range, k, keep_v"),
        ("theorem2", {"n": 80, "d": 6, "trials": 4, "gd": {"stp": 1}},
         "gd: got an unexpected keyword argument 'stp'; the keys are step, tol, max_steps"),
        ("theorem1", {"n": 80, "d": 6, "trials": 4, "c": True},
         "the config key 'c' must be a JSON number, got true"),
        ("theorem1", {"n": 80.7, "d": 6, "trials": 4},
         "the config key 'n' must be a JSON integer, got 80.7"),
        ("theorem1", {"n": "80", "d": 6, "trials": 4},
         "the config key 'n' must be a JSON integer, got \"80\""),
        ("clipping-curve", {"n": 100, "d": 6, "bits": [1], "r_points": 2.5},
         "the config key 'r_points' must be a JSON integer, got 2.5"),
        ("scaling", {"axis": "bits", "levels": [2, 1.5]},
         "bits levels must be integral numbers, got 1.5"),
    ],
    ids=["missing-n", "array", "compression-str", "pca-without-k", "levels-int",
         "seeds-int", "r_points-0", "r_points-str", "n-null", "L-null", "a-array", "n-object",
         "base-n-str", "trails", "compression-bit", "gd-stp", "c-true", "n-float", "n-str",
         "r_points-float", "bits-level-float"],
)
def test_simulate_rejects_a_malformed_config(tmp_path, capsys, kind, config, message):
    # the first eight once crashed with a KeyError, AttributeError, TypeError or
    # ZeroDivisionError and exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    assert run(["simulate", kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_deeply_nested_config(tmp_path, capsys):
    # json.loads raised RecursionError, a traceback with exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out.json"
    assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}: cannot read config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, config, message", [
    ("clipping-curve", {"n": 100, "d": 6, "r_points": 1_000_000_000},
     "the config key 'r_points' must be in [1, 1000], got 1000000000"),
    ("theorem1", {"n": 1_000_000_000, "d": 5},
     "n*d = 5000000000 entries is above the cap of 33554432"),
    ("theorem1", {"n": 2001, "d": 5, "trials": 16_777}, "n*trials = 33570777 entries"),
    ("table4", {"spectrum": [2.0, 1.0], "n": 2**24 + 1}, "n*len(spectrum) = 33554434 entries"),
    ("scaling", {"axis": "vocab", "levels": [100, 2**23], "base": {"d": 5}},
     "n*d = 41943040 entries"),
    ("theorem3", {"n": 80, "d": 6, "bits": 2, "seeds": list(range(1001))},
     "the config key 'seeds' must be a JSON array of at most 1000 entries, got [0, 1, 2"),
], ids=["r_points", "theorem1-n", "n-trials", "table4-n", "scaling-level", "seeds"])
def test_simulate_rejects_an_oversized_config_before_any_work(
        tmp_path, capsys, kind, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    start = time.perf_counter()
    assert run(["simulate", kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"{cfg}: " in (err := capsys.readouterr().err) and message in err
    assert not out.exists()


def _arms(tp) -> tuple:
    """The members of a union annotation, or the annotation alone."""
    return typing.get_args(tp) if typing.get_origin(tp) in (typing.Union, types.UnionType) \
        else (tp,)


def _config_keys(fn, prefix=""):
    """(key path, annotation) of every key a simulation takes, the keys of
    its nested objects included, read off the signatures."""
    for name, param in inspect.signature(fn, eval_str=True).parameters.items():
        yield prefix + name, param.annotation
        for arm in _arms(param.annotation):
            if inspect.isfunction(arm) or dataclasses.is_dataclass(arm):
                yield from _config_keys(arm, f"{prefix}{name}.")


def _valid(tp):
    """A value of the JSON type ``tp`` takes."""
    arm = _arms(tp)[0]
    if typing.get_origin(arm) is list:
        return [_valid(typing.get_args(arm)[0])]
    return {int: 1, float: 1.0, str: "x", bool: True}.get(arm, {})


@pytest.mark.parametrize("kind, key, tp", [
    pytest.param(kind, key, tp, id=f"{kind}:{key}")
    for kind, fn in _SIMULATIONS.items() for key, tp in _config_keys(fn)
])
@pytest.mark.parametrize("wrong", ["scalar", "array"])
def test_simulate_rejects_a_wrong_type_for_every_key(tmp_path, capsys, kind, key, tp, wrong):
    # a value no annotation takes: an array of booleans, or a number or string
    # the key does not take; every required key holds a value of its own type
    params = inspect.signature(_SIMULATIONS[kind], eval_str=True).parameters
    config = {name: _valid(p.annotation) for name, p in params.items()
              if p.default is p.empty}
    value = [True] if wrong == "array" else 0.5 if str in _arms(tp) else "x"
    *outer, last = key.split(".")
    node = config
    for name in outer:
        node = node.setdefault(name, {})
    node[last] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    assert run(["simulate", kind, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # an array names its first entry: 'seeds[0]'
    assert f"{cfg}: the config key '{key}" in err and "must be a JSON" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["kmeans", "pca"])
def test_simulate_rejects_full_range_for_another_method(tmp_path, capsys, method):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 80, "d": 6, "trials": 4, "compression": {
        "method": method, "bits": 2, "k": 3, "full_range": True}}))
    out = tmp_path / "out.json"
    assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"full_range needs method 'uniform', got method {method!r}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_kmeans_candidate_is_the_library_one(tmp_path):
    from embcompress.compress import compress_kmeans, decompress
    from embcompress.theory import LabelModel, exact_expected_gap, gen_uniform_matrix

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 300, "d": 6, "c": 0.1, "trials": 50, "seed": 4,
                               "compression": {"method": "kmeans", "bits": 2}}))
    out = tmp_path / "out.json"
    assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 0
    X = gen_uniform_matrix(300, 6, 4)
    Xt = decompress(compress_kmeans(X, 2, seed=5))
    want = exact_expected_gap(X, Xt, LabelModel(noise_ratio=0.1))
    assert read_report(out)["body"]["result"]["theory_value"] == want


@pytest.mark.parametrize("rounding", ["stochastic", "deterministic"])
def test_simulate_theorem_seed_is_taken_modulo_2_64(tmp_path, rounding):
    # a negative seed ran the full-range quantizer, whose generator reduces it
    # modulo 2**64, but was refused by the clip search's container
    results = []
    for seed in (-5, (1 << 64) - 5):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 80, "d": 6, "trials": 4, "seed": seed, "compression": {
            "method": "uniform", "bits": 2, "rounding": rounding}}))
        out = tmp_path / f"out{seed}.json"
        assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 0
        result = read_report(out)["body"]["result"]
        results.append({key: result[key] for key in ("estimate", "std_error", "theory_value")})
    assert results[0] == results[1]


def test_simulate_theorem3_seeds_are_taken_modulo_2_64(tmp_path):
    rows = []
    for seeds in ([-1, (1 << 64) + 1], [(1 << 64) - 1, 1]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 80, "d": 5, "bits": 2, "seeds": seeds}))
        out = tmp_path / "out.json"
        assert run(["simulate", "theorem3", "--config", str(cfg), "--out", str(out)]) == 0
        rows.append([{key: row[key] for key in ("one_minus_overlap", "davis_kahan_bound")}
                     for row in read_report(out)["body"]["per_seed"]])
    assert rows[0] == rows[1]


def test_simulate_deterministic_rounding_takes_the_clip_search(tmp_path):
    # full_range false and full_range left out give the same compress_uniform run
    results = []
    for extra in ({}, {"full_range": False}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 80, "d": 6, "trials": 4, "compression": {
            "method": "uniform", "bits": 2, "rounding": "deterministic", **extra}}))
        out = tmp_path / f"out{len(results)}.json"
        assert run(["simulate", "theorem1", "--config", str(cfg), "--out", str(out)]) == 0
        results.append(read_report(out)["body"])
    assert results[0] == results[1]


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


@pytest.mark.parametrize("value", ["abc", "-1", "0", "nan", "inf"])
def test_measure_rejects_a_bad_lambda_before_reading(tmp_path, capsys, value):
    # a usage error naming the value, raised before the (missing) base is read
    out = tmp_path / "r.json"
    assert run(["measure", "--lambda", value, "--out", str(out),
                str(tmp_path / "missing.txt"), str(tmp_path / "c.eqc")]) == 1
    err = capsys.readouterr().err
    assert "--lambda" in err and repr(value) in err and "missing.txt" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "select"])
def test_duplicate_candidate_stems_rejected(base_embedding, tmp_path, command, capsys):
    # a/x.eqc and b/x.eqc would both become candidate id "x"
    base, _ = base_embedding
    paths = [tmp_path / sub / "x.eqc" for sub in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        assert run(["compress", "--method", "uniform", "--bits", "2",
                    str(base), str(path)]) == 0
    out = tmp_path / "r.json"
    argv = [command, *(["--out", str(out)] if command == "measure" else []),
            str(base), *map(str, paths)]
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "distinct stems" in captured.err and captured.out == ""
    assert not out.exists()


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


@pytest.mark.parametrize("tokens, reduced, message", [
    (("a b", "c"), [[1.0], [2.0]], "token 0 'a b' holds a space"),
    (None, [[1.0], [math.nan]], "row 1 holds a non-finite value"),
    (("1", "b"), [[1.0], [5.0]], "row 0 would be written as '1 1', which the reader takes"),
], ids=["space-in-token", "nan", "header-line"])
def test_reconstruct_refuses_text_it_cannot_read_back(tmp_path, capsys, tokens, reduced,
                                                      message):
    from embcompress.compress import CompressedEmbedding
    from embcompress.storage import write_compressed

    C = CompressedEmbedding(method="pca", n=2, d_orig=1, k=1, reduced=np.array(reduced))
    blob = tmp_path / "c.eqc"
    write_compressed(C, None if tokens is None else Vocabulary(tokens), blob)
    out = tmp_path / "out.txt"
    assert run(["reconstruct", str(blob), str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_reconstruct_refuses_a_one_column_base_that_would_lose_a_row(tmp_path, capsys):
    # a base read with --format glove: unchecked, the default read of the
    # output took "1 1" for a header and returned the one row "b"
    base = tmp_path / "one.txt"
    base.write_text("1 1\nb 5\n")
    blob, out = tmp_path / "one.eqc", tmp_path / "one-out.txt"
    assert run(["--format", "glove", "compress", "--method", "pca", "--dim", "1",
                str(base), str(blob)]) == 0
    assert run(["reconstruct", str(blob), str(out)]) == 2
    assert not out.exists()
    assert "error: row 0 would be written as '1 1'" in capsys.readouterr().err


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
