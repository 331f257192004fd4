"""Workload definitions shared by the driver (run.py) and its worker processes.

Each workload has a set-up step that writes its inputs into ``<work>/inputs``
and a pass: a fixed list of operations on those inputs.  An operation record
is a dict with ``op`` (unique within the pass), ``stage`` (the end-to-end
metric it counts towards), ``seconds``, ``ok`` and ``error``.  ``digests``
maps an operation to the sha256 of the output it produced, so passes can be
compared byte for byte.

The embcompress package is imported inside the functions that need it, so
the driver can import this module before it knows the package is present.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import asdict
from pathlib import Path

WORKLOADS = ("cli-text-10k", "lib-300d-10k", "theory-lab")

CLI_N, CLI_D = 10_000, 100
CLI_CANDIDATES = ("b1", "b4", "km2", "pca25")

LIB_N, LIB_D, LIB_DF = 10_000, 300, 5.0
# The base matrix of lib-300d-10k does not follow --seed.  quality_report on
# its pca-75 candidate raises LinalgError (the 10000x375 joint-basis SVD does
# not converge with 2 BLAS threads) for this matrix and for none of seeds
# 1-15, and that failure is a recorded baseline a later fix is measured
# against.  --seed still drives the rounding and provenance seeds.
LIB_MATRIX_SEED = 0
LIB_CANDIDATES = ("b1", "b4", "b4s", "km3", "p75")

THEORY_KINDS = ("clipping-curve", "scaling", "theorem1", "theorem2", "theorem3", "table4")
THEORY_STAGES = {
    "clipping-curve": "clipping_curve_s",
    "theorem1": "montecarlo_s",
    "theorem2": "montecarlo_s",
    "scaling": "sweep_s",
    "theorem3": "sweep_s",
    "table4": "sweep_s",
}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def theory_configs(seed: int) -> dict:
    """The six simulate configs of theory-lab, derived from the seed."""
    return {
        "clipping-curve": {
            "n": 10_000, "d": 50, "df": 5.0, "scale": 1.0, "seed": seed,
            "bits": [1, 4], "rounding": ["deterministic", "stochastic"], "r_points": 10,
        },
        "scaling": {
            "axis": "dim", "levels": [10, 30, 100], "base": {"n": 10_000, "bits": 2},
            "seeds": [seed, seed + 1, seed + 2],
        },
        "theorem1": {
            "n": 2000, "d": 50, "c": 0.1, "trials": 10_000, "seed": seed,
            "compression": {"method": "uniform", "bits": 2},
        },
        "theorem2": {
            "n": 1000, "d": 10, "c": 0.1, "trials": 200, "seed": seed,
            "compression": {"method": "uniform", "bits": 2},
        },
        "theorem3": {
            "n": 1000, "d": 10, "bits": 4, "seed": seed,
            "seeds": [seed + i for i in range(20)],
        },
        "table4": {"spectrum": [5.0, 4.0, 3.0, 2.0, 1.0], "n": 2000, "seed": seed},
    }


def setup(workload: str, seed: int, inputs: Path) -> None:
    """Write the workload's inputs into ``inputs`` with the program's own
    generators and writers."""
    import numpy as np

    from embcompress.storage import Vocabulary, write_text_embedding
    from embcompress.theory import gen_student_t_matrix, gen_uniform_matrix

    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "cli-text-10k":
        X = gen_uniform_matrix(CLI_N, CLI_D, seed)
        vocab = Vocabulary(tuple(f"w{i}" for i in range(CLI_N)))
        write_text_embedding(X, vocab, inputs / "base.txt")
        np.save(inputs / "X.npy", X)
    elif workload == "lib-300d-10k":
        X = gen_student_t_matrix(LIB_N, LIB_D, df=LIB_DF, scale=1.0, seed=LIB_MATRIX_SEED)
        np.save(inputs / "X.npy", X)
    else:
        for kind, cfg in theory_configs(seed).items():
            (inputs / f"{kind}.json").write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")


def input_files(workload: str, inputs: Path) -> list[Path]:
    if workload == "theory-lab":
        return [inputs / f"{kind}.json" for kind in THEORY_KINDS]
    if workload == "cli-text-10k":
        return [inputs / "base.txt", inputs / "X.npy"]
    return [inputs / "X.npy"]


# ---------------------------------------------------------------------------
# command lines


def cli_commands(seed: int, threads: int, inputs: Path, out: Path) -> list[tuple]:
    """(op, stage, argv) for the seven embcompress commands of one
    cli-text-10k pass; every path is absolute so a replay needs no chdir."""
    flags = ["--threads", str(threads), "--seed", str(seed)]
    base = str(inputs / "base.txt")
    eqc = {cid: str(out / f"{cid}.eqc") for cid in CLI_CANDIDATES}
    compress = {
        "b1": ["--method", "uniform", "--bits", "1"],
        "b4": ["--method", "uniform", "--bits", "4", "--rounding", "stoch"],
        "km2": ["--method", "kmeans", "--bits", "2"],
        "pca25": ["--method", "pca", "--dim", "25", "--keep-v"],
    }
    cmds = [
        (f"compress-{cid}", "compress_s", flags + ["compress", *compress[cid], base, eqc[cid]])
        for cid in CLI_CANDIDATES
    ]
    cands = [eqc[cid] for cid in CLI_CANDIDATES]
    cmds.append(("measure", "score_s",
                 flags + ["measure", "--out", str(out / "report.json"), base, *cands]))
    cmds.append(("select", "select_s", flags + ["select", base, *cands]))
    cmds.append(("reconstruct", "reconstruct_s",
                 flags + ["reconstruct", eqc["b4"], str(out / "restored.txt")]))
    return cmds


def theory_commands(threads: int, inputs: Path, out: Path) -> list[tuple]:
    return [
        (kind, THEORY_STAGES[kind],
         ["--threads", str(threads), "simulate", kind,
          "--config", str(inputs / f"{kind}.json"), "--out", str(out / f"{kind}.json")])
        for kind in THEORY_KINDS
    ]


def cli_digests(out: Path, select_stdout: str | None) -> dict:
    """Output digests of a cli-text-10k pass, keyed by the producing op."""
    files = {f"compress-{cid}": out / f"{cid}.eqc" for cid in CLI_CANDIDATES}
    files["measure"] = out / "report.json"
    files["reconstruct"] = out / "restored.txt"
    digests = {op: sha256_file(p) for op, p in files.items() if p.is_file()}
    if select_stdout is not None:
        digests["select"] = sha256_text(select_stdout)
    return digests


def theory_digests(out: Path) -> dict:
    return {
        kind: sha256_file(out / f"{kind}.json")
        for kind in THEORY_KINDS
        if (out / f"{kind}.json").is_file()
    }


# ---------------------------------------------------------------------------
# in-process passes (run inside a worker)


class Ops:
    """Operation records of one pass.  A raised exception is recorded, not
    propagated, so the pass goes on with the next operation; a tracer, when
    given, tags the spans of each operation with its name."""

    def __init__(self, tracer=None):
        self.records = []
        self.tracer = tracer

    def run(self, op: str, stage: str | None, fn):
        if self.tracer is not None:
            self.tracer.op = op
        t0 = time.perf_counter()
        try:
            result, ok, error = fn(), True, None
        except Exception as exc:  # counted as a failed operation
            result, ok, error = None, False, f"{type(exc).__name__}: {exc}"
        self.records.append({"op": op, "stage": stage, "seconds": time.perf_counter() - t0,
                             "ok": ok, "error": error})
        return result

    def cli(self, op: str, stage: str, argv: list) -> str:
        """In-process ``embcompress.cli.run``; returns what it printed."""
        from embcompress import cli

        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.run(argv)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {stderr.getvalue().strip()[-300:]}")

        self.run(op, stage, call)
        return stdout.getvalue()


def cli_replay(seed: int, threads: int, inputs: Path, out: Path, tracer=None) -> dict:
    """The seven cli-text-10k commands through ``cli.run`` in this process."""
    out.mkdir(parents=True, exist_ok=True)
    ops = Ops(tracer)
    select_stdout = None
    for op, stage, argv in cli_commands(seed, threads, inputs, out):
        printed = ops.cli(op, stage, argv)
        if op == "select":
            select_stdout = printed
    return {"ops": ops.records, "digests": cli_digests(out, select_stdout),
            "select_stdout": select_stdout}


def theory_pass(seed: int, threads: int, inputs: Path, out: Path, tracer=None) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    ops = Ops(tracer)
    for op, stage, argv in theory_commands(threads, inputs, out):
        ops.cli(op, stage, argv)
    return {"ops": ops.records, "digests": theory_digests(out)}


def _same_container(a, b) -> bool:
    """Field-by-field, bit-exact equality of two CompressedEmbedding."""
    for name in ("method", "n", "d_orig", "rounding", "seed", "bits", "k", "grid"):
        if getattr(a, name) != getattr(b, name):
            return False
    for name in ("codes", "codebook", "reduced", "basis_v"):
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None):
            return False
        if x is not None and (x.dtype != y.dtype or x.shape != y.shape
                              or x.tobytes() != y.tobytes()):
            return False
    return True


def lib_pass(seed: int, threads: int, inputs: Path, out: Path, tracer=None) -> dict:
    """One lib-300d-10k pass through the library API."""
    import numpy as np

    from embcompress import compress, measures, selection, storage

    out.mkdir(parents=True, exist_ok=True)
    X = np.load(inputs / "X.npy")
    make = {
        "b1": lambda: compress.compress_uniform(X, 1, rounding="deterministic", seed=seed,
                                                threads=threads),
        "b4": lambda: compress.compress_uniform(X, 4, rounding="deterministic", seed=seed,
                                                threads=threads),
        "b4s": lambda: compress.compress_uniform(X, 4, rounding="stochastic", seed=seed,
                                                 threads=threads),
        "km3": lambda: compress.compress_kmeans(X, 3, seed=seed),
        "p75": lambda: compress.compress_pca(X, 75),
    }
    ops = Ops(tracer)
    digests, overlaps, roundtrip = {}, {}, {}
    read_back, read_ids = [], []
    for cid in LIB_CANDIDATES:
        C = ops.run(f"compress-{cid}", "compress_s", make[cid])
        if C is None:
            continue
        path = out / f"{cid}.eqc"
        ops.run(f"write-{cid}", None, lambda: storage.write_compressed(C, None, path))
        if path.is_file():
            digests[f"write-{cid}"] = sha256_file(path)
        got = ops.run(f"read-{cid}", None, lambda: storage.read_compressed(path))
        if got is None:
            continue
        C2 = got[0]
        roundtrip[cid] = _same_container(C, C2)
        read_back.append(C2)
        read_ids.append(cid)
        Xt = ops.run(f"decompress-{cid}", "score_s", lambda: compress.decompress(C2))
        if Xt is None:
            continue
        rep = ops.run(f"quality_report-{cid}", "score_s",
                     lambda: measures.quality_report(X, Xt))
        if rep is not None:
            overlaps[cid] = rep.eigenspace_overlap
            digests[f"quality_report-{cid}"] = sha256_text(
                json.dumps(asdict(rep), sort_keys=True))
    spec = selection.MeasureSpec.default("eigenspace_overlap")
    winner = ops.run("select_best", "select_s",
                    lambda: selection.select_best(X, read_back, spec))
    if winner is not None:
        digests["select_best"] = sha256_text(str(winner))
    return {"ops": ops.records, "digests": digests, "overlaps": overlaps, "roundtrip": roundtrip,
            "winner": None if winner is None else read_ids[winner]}


IN_PROCESS = {"cli-text-10k": cli_replay, "lib-300d-10k": lib_pass, "theory-lab": theory_pass}
