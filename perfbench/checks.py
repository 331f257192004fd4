"""Output checks of one pass.

Each check maps a wrong output to the operation that produced it.  The
eigenspace overlap oracle is a plain ``np.linalg.svd`` of X and of the
decompressed candidate, computed here and not by the program's measures.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import workloads

OVERLAP_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)


def _basis(M: np.ndarray) -> np.ndarray:
    """Left singular vectors above the numerical-rank threshold
    s[0] * max(shape) * eps, the threshold the measures document."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return U[:, :0]
    return U[:, s > s[0] * max(M.shape) * _EPS]


class Oracle:
    def __init__(self, X: np.ndarray):
        self.X = X
        self.U = _basis(X)

    def overlap(self, Xt: np.ndarray) -> float:
        G = self.U.T @ _basis(Xt)
        return float(np.sum(G * G) / max(self.X.shape[1], Xt.shape[1]))


def _decoded(path: Path):
    """(container, vocabulary, dense matrix) of a container file, or None
    when it is missing or the program cannot read it back."""
    from embcompress.compress import decompress
    from embcompress.storage import StorageError, read_compressed

    try:
        C, vocab = read_compressed(path)
        return C, vocab, decompress(C)
    except (StorageError, ValueError, OSError):
        return None


def _argmax(scores: dict) -> str:
    """Highest score; ties go to the earliest candidate, as in the program."""
    return max(scores, key=scores.get)


def _reads_back(path: Path, X: np.ndarray) -> bool:
    """Tokens w0, w1, ... and values bit-identical to X, parsed here."""
    rows = path.read_text(encoding="utf-8").splitlines()
    try:
        vals = np.array([[float(v) for v in r.split(" ")[1:]] for r in rows])
    except ValueError:
        return False
    tokens = [r.split(" ", 1)[0] for r in rows]
    return (tokens == [f"w{i}" for i in range(workloads.CLI_N)]
            and vals.shape == X.shape and vals.tobytes() == X.tobytes())


def _check_cli(res: dict, out: Path, oracle: Oracle) -> dict:
    from embcompress.storage import write_compressed

    wrong, scores = {}, {}
    for cid in workloads.CLI_CANDIDATES:
        path, op = out / f"{cid}.eqc", f"compress-{cid}"
        if not path.is_file():
            continue
        decoded = _decoded(path)
        if decoded is None:
            wrong[op] = "container does not read back"
            continue
        C, vocab, Xt = decoded
        again = out / f"{cid}.roundtrip"
        write_compressed(C, vocab, again)
        if again.read_bytes() != path.read_bytes():
            wrong[op] = "container read->write is not byte-identical"
        scores[cid] = oracle.overlap(Xt)

    report = out / "report.json"
    if report.is_file():
        got = json.loads(report.read_text(encoding="utf-8"))["body"]["reports"]
        for cid, want in scores.items():
            val = got.get(cid, {}).get("eigenspace_overlap")
            if val is None or abs(val - want) > OVERLAP_TOL:
                wrong["measure"] = f"{cid}: overlap {val!r}, oracle {want!r}"

    lines = (res.get("select_stdout") or "").strip().splitlines()
    if lines and scores:
        want = _argmax(scores)
        if lines[-1] != f"winner: {want}":
            wrong["select"] = f"{lines[-1]!r}, oracle winner {want}"

    restored = out / "restored.txt"
    decoded = _decoded(out / "b4.eqc") if restored.is_file() else None
    if decoded is not None and not _reads_back(restored, decoded[2]):
        wrong["reconstruct"] = "restored text does not read back bit-exactly"
    return wrong


def _check_lib(res: dict, out: Path, oracle: Oracle) -> dict:
    wrong, scores = {}, {}
    for cid in workloads.LIB_CANDIDATES:
        if not res["roundtrip"].get(cid, True):
            wrong[f"read-{cid}"] = "read_compressed did not return the written container"
        decoded = _decoded(out / f"{cid}.eqc")
        if decoded is not None:
            scores[cid] = oracle.overlap(decoded[2])
    for cid, val in res["overlaps"].items():
        if cid not in scores or abs(val - scores[cid]) > OVERLAP_TOL:
            wrong[f"quality_report-{cid}"] = f"overlap {val!r}, oracle {scores.get(cid)!r}"
    if res["winner"] is not None and scores and res["winner"] != _argmax(scores):
        wrong["select_best"] = f"winner {res['winner']}, oracle winner {_argmax(scores)}"
    return wrong


def _check_theory(out: Path) -> dict:
    wrong = {}
    for kind in ("theorem1", "theorem2"):
        path = out / f"{kind}.json"
        if not path.is_file():
            continue
        r = json.loads(path.read_text(encoding="utf-8"))["body"]["result"]
        est, se, theory = r["estimate"], r["std_error"], r["theory_value"]
        if kind == "theorem1" and abs(est - theory) > 4.0 * se:
            wrong[kind] = f"estimate {est!r} is more than 4 SE ({se!r}) from {theory!r}"
        if kind == "theorem2" and est > theory:
            wrong[kind] = f"estimate {est!r} is above the bound {theory!r}"
    return wrong


def check_pass(workload: str, res: dict, out: Path, oracle) -> dict:
    """{op: reason} for every wrong output of the pass written to ``out``."""
    if workload == "cli-text-10k":
        return _check_cli(res, out, oracle)
    if workload == "lib-300d-10k":
        return _check_lib(res, out, oracle)
    return _check_theory(out)


def compare_digests(first: dict, other: dict) -> dict:
    """{op: reason} for every output that is not byte-identical to ``first``."""
    return {
        op: "output is not byte-identical across passes"
        for op in sorted(set(first) | set(other))
        if first.get(op) != other.get(op)
    }
