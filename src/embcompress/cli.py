"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or file-format error,
3 numerical failure.  Given the same arguments, inputs, and seed, and the
same BLAS thread count, every subcommand writes byte-identical outputs; a
different BLAS thread count can change the last digits of LAPACK results
(PCA factors, measure values).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import storage
from .compress import compress_kmeans, compress_pca, compress_uniform, decompress
from .linalg import LinalgError
from .measures import MEASURE_NAMES, PreparedBase
from .selection import MeasureSpec, evaluate_measures, rank_candidates
from .storage import FormatError, StorageError, Vocabulary
from .theory import (
    GdConfig,
    LabelModel,
    clipping_curve,
    gen_student_t_matrix,
    gen_uniform_matrix,
    overlap_bound_experiment,
    scaling_experiment,
    simulate_lipschitz_gap,
    simulate_regression_gap,
    stochastic_quantize_full_range,
    table4_perturbation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{self.prog}: {message}")


def _add_global_flags(parser, trailing: bool) -> None:
    """The global flags are accepted both before and after the subcommand;
    the trailing copies use SUPPRESS defaults so they only override the
    leading values when actually given."""
    suppress = {"default": argparse.SUPPRESS} if trailing else {}
    parser.add_argument(
        "--seed", type=int, **(suppress or {"default": 0}),
        help="global RNG seed (default 0)",
    )
    parser.add_argument(
        "--threads", type=int, **(suppress or {"default": 0}),
        help="row-parallel worker count; 0 = all cores (output is identical for any value)",
    )
    parser.add_argument(
        "--format", choices=("auto", "glove", "fasttext"),
        **(suppress or {"default": "auto"}),
        help="text embedding layout: headerless (glove), 'n d' header (fasttext), or auto-detect",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="embcompress", description=__doc__)
    parser.add_argument("--version", action="version", version=f"embcompress {__version__}")
    _add_global_flags(parser, trailing=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, trailing=True)
        return p

    p = add_parser("compress", help="compress a text embedding into the binary container")
    p.add_argument("--method", choices=("uniform", "kmeans", "pca"), required=True)
    p.add_argument("--bits", type=int, help="bits per entry (uniform/kmeans)")
    p.add_argument("--dim", type=int, help="retained dimension k (pca)")
    p.add_argument("--rounding", choices=("det", "stoch"), default="det")
    p.add_argument("--keep-v", action="store_true", help="store the right factor (pca)")
    p.add_argument("input")
    p.add_argument("output")

    p = add_parser("measure", help="score compressed candidates against a base embedding")
    p.add_argument("--lambda", dest="lam", default="auto",
                   help="regularizer for the spectral deltas: 'auto' or a float")
    p.add_argument("--measures", default=",".join(MEASURE_NAMES),
                   help="comma-separated measure names to report")
    p.add_argument("--out", required=True)
    p.add_argument("base")
    p.add_argument("compressed", nargs="+")

    p = add_parser("select", help="rank candidates by a quality criterion")
    p.add_argument("--criterion", choices=MEASURE_NAMES, default="eigenspace_overlap")
    p.add_argument("base")
    p.add_argument("candidates", nargs="+")

    p = add_parser("evaluate", help="score measures against downstream performance")
    p.add_argument("--perf", required=True, help="CSV: candidate_id,task,performance,seed")
    p.add_argument("--reports", required=True, help="directory of measure-report JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write the summary rows as CSV")

    p = add_parser("simulate", help="run a synthetic theory experiment")
    p.add_argument("kind", choices=("theorem1", "theorem2", "theorem3", "table4",
                                    "scaling", "clipping-curve"))
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write tabular results as CSV (scaling/clipping-curve)")

    p = add_parser("reconstruct", help="decompress a binary container to text")
    p.add_argument("compressed")
    p.add_argument("output")
    return parser


def _candidate_ids(paths) -> list[str]:
    """Candidate ids: the file stems, which must be distinct."""
    ids = [Path(path).stem for path in paths]
    if len(set(ids)) != len(ids):
        raise UsageError("candidate files must have distinct stems (they become ids)")
    return ids


def _cmd_compress(args) -> int:
    # flag validation precedes any file access
    if args.method == "pca" and args.dim is None:
        raise UsageError("compress --method pca requires --dim")
    if args.method in ("uniform", "kmeans") and args.bits is None:
        raise UsageError(f"compress --method {args.method} requires --bits")
    X, vocab = storage.read_text_embedding(args.input, fmt=args.format)
    rounding = "deterministic" if args.rounding == "det" else "stochastic"
    if args.method == "pca":
        C = compress_pca(X, args.dim, keep_v=args.keep_v)
    elif args.method == "uniform":
        threads = args.threads if args.threads > 0 else os.cpu_count() or 1
        C = compress_uniform(X, args.bits, rounding=rounding, seed=args.seed, threads=threads)
    else:
        C = compress_kmeans(X, args.bits, seed=args.seed)
    storage.write_compressed(C, vocab, args.output)
    print(
        f"{args.output}: method={C.method} n={C.n} d={C.d_orig} "
        f"compression_rate={storage.compression_rate(C):.4f}"
    )
    return EXIT_OK


def _cmd_measure(args) -> int:
    wanted = [m.strip() for m in args.measures.split(",") if m.strip()]
    for m in wanted:
        if m not in MEASURE_NAMES:
            raise UsageError(f"unknown measure {m!r}")
    ids = _candidate_ids(args.compressed)
    X, _ = storage.read_text_embedding(args.base, fmt=args.format)
    base = PreparedBase(X)
    lam = None if args.lam == "auto" else float(args.lam)
    reports = {}
    inputs = {"base": args.base}
    for cid, path in zip(ids, args.compressed):
        C, _vocab = storage.read_compressed(path)
        rep = base.report(decompress(C), lam)
        reports[cid] = {m: getattr(rep, m) for m in wanted}
        reports[cid].update(
            {"ranks": [rep.rank_x, rep.rank_xt], "dims": [rep.n, rep.d, rep.k],
             "lambda_used": rep.lambda_used}
        )
        inputs[cid] = path
        shown = ", ".join(
            f"{m}={reports[cid][m]:.6g}" for m in wanted if reports[cid][m] is not None
        )
        print(f"{cid}: {shown}")
    storage.write_report({"reports": reports}, args.out, inputs=inputs)
    return EXIT_OK


def _cmd_select(args) -> int:
    ids = _candidate_ids(args.candidates)
    X, _ = storage.read_text_embedding(args.base, fmt=args.format)
    candidates = (storage.read_compressed(path)[0] for path in args.candidates)
    ranking = rank_candidates(X, candidates, MeasureSpec.default(args.criterion))
    for idx, _shape in ranking.excluded:
        print(f"{ids[idx]}: excluded ({ranking.measure} not applicable)")
    winner = ranking.winner()
    for pos, (idx, val) in enumerate(ranking.scored, start=1):
        print(f"{pos}. {ids[idx]} {ranking.measure}={val:.6g}")
    print(f"winner: {ids[winner]}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    perf = storage.read_performance_csv(args.perf)
    reports, source = {}, {}
    report_dir = Path(args.reports)
    if not report_dir.is_dir():
        raise StorageError(f"{report_dir}: not a directory")
    for path in sorted(report_dir.glob("*.json")):
        body = storage.read_report(path)["body"]
        if not isinstance(body, dict):
            raise FormatError(f"{path}: 'body' must be a JSON object")
        found = body.get("reports", {})
        if not isinstance(found, dict):
            raise FormatError(f"{path}: 'reports' must be a JSON object")
        for cid, rep in found.items():
            if not isinstance(rep, dict):
                raise FormatError(f"{path}: the report of candidate {cid!r} must be a JSON object")
            if cid in source:
                raise FormatError(
                    f"candidate {cid!r} is reported in both {source[cid]} and {path}"
                )
            reports[cid], source[cid] = rep, path
    summary = evaluate_measures(reports, perf)
    storage.write_report(summary, args.out, inputs={"perf": args.perf})
    if args.csv:
        storage.write_table_csv(
            summary["rows"],
            ["task", "measure", "abs_spearman", "selection_error_rate",
             "max_regret", "n_candidates"],
            args.csv,
        )
    for row in summary["rows"]:
        rho, err, regret = (
            "n/a" if row[key] is None else format(row[key], ".4f")
            for key in ("abs_spearman", "selection_error_rate", "max_regret")
        )
        print(f"{row['task']}/{row['measure']}: |rho|={rho} error_rate={err} max_regret={regret}")
    return EXIT_OK


def _make_compressed_variant(X, spec: dict, seed: int):
    method = spec.get("method", "uniform")
    if method == "uniform":
        bits = int(spec.get("bits", 4))
        rounding = spec.get("rounding", "stochastic")
        if spec.get("full_range", rounding == "stochastic"):
            if rounding != "stochastic":
                raise ValueError(
                    f"full_range needs stochastic rounding, got rounding {rounding!r}"
                )
            return stochastic_quantize_full_range(X, bits, seed)
        return decompress(compress_uniform(X, bits, rounding=rounding, seed=seed))
    if method == "pca":
        return decompress(compress_pca(X, int(spec["k"])))
    raise ValueError(f"unknown compression spec method {method!r}")


def _label_model(cfg: dict) -> LabelModel:
    cov = cfg.get("covariance", "identity")
    if cov == "identity":
        cov_matrix = None
    elif isinstance(cov, dict) and "diag" in cov:
        cov_matrix = np.diag(np.asarray(cov["diag"], dtype=np.float64))
    elif isinstance(cov, dict) and "matrix" in cov:
        cov_matrix = np.asarray(cov["matrix"], dtype=np.float64)
    else:
        raise ValueError(f"bad covariance spec {cov!r}")
    return LabelModel(covariance=cov_matrix, noise_ratio=float(cfg.get("c", 0.0)))


def _theorem_pair(cfg: dict):
    """(X, Xt, seed): a uniform matrix and its compressed variant."""
    seed = int(cfg.get("seed", 0))
    X = gen_uniform_matrix(int(cfg["n"]), int(cfg["d"]), seed)
    Xt = _make_compressed_variant(X, cfg.get("compression", {"method": "uniform", "bits": 4}), seed + 1)
    return X, Xt, seed


def _simulate_theorem1(cfg: dict) -> dict:
    X, Xt, seed = _theorem_pair(cfg)
    result = simulate_regression_gap(
        X, Xt, _label_model(cfg), int(cfg.get("trials", 10_000)), seed + 2
    )
    return {"experiment": "regression_gap", "result": result}


def _simulate_theorem2(cfg: dict) -> dict:
    X, Xt, seed = _theorem_pair(cfg)
    gd_cfg = cfg.get("gd", {})
    gd = GdConfig(
        step=gd_cfg.get("step"),
        tol=gd_cfg.get("tol"),
        max_steps=gd_cfg.get("max_steps", 100_000),
    )
    result = simulate_lipschitz_gap(
        X, Xt, _label_model(cfg), int(cfg.get("trials", 1000)), seed + 2,
        gd=gd, L=float(cfg.get("L", 1.0)),
    )
    return {"experiment": "lipschitz_gap", "result": result}


def _simulate_theorem3(cfg: dict) -> dict:
    n, d = int(cfg["n"]), int(cfg["d"])
    bits = int(cfg["bits"])
    X = gen_uniform_matrix(n, d, int(cfg.get("seed", 0)))
    a = float(cfg["a"]) if "a" in cfg else None
    result = overlap_bound_experiment(X, bits, cfg.get("seeds", list(range(20))), a)
    body = {"experiment": "quantization_overlap_bound", "n": n, "d": d, "bits": bits}
    return {**body, **result}


def _simulate_table4(cfg: dict) -> dict:
    out = table4_perturbation(cfg["spectrum"], int(cfg["n"]), int(cfg.get("seed", 0)))
    return {"experiment": "top_singular_value_perturbation",
            "measured": out["measured"], "predicted": out["predicted"]}


def _simulate_scaling(cfg: dict) -> dict:
    rows = scaling_experiment(
        cfg["axis"], cfg["levels"], cfg.get("base", {}), cfg.get("seeds", [0, 1, 2, 3, 4])
    )
    return {"experiment": "scaling", "axis": cfg["axis"], "rows": rows}


def _simulate_clipping(cfg: dict) -> dict:
    seed = int(cfg.get("seed", 0))
    if "input" in cfg:
        X, _ = storage.read_text_embedding(cfg["input"])
    else:
        X = gen_student_t_matrix(
            int(cfg["n"]), int(cfg["d"]), float(cfg.get("df", 5.0)),
            float(cfg.get("scale", 1.0)), seed,
        )
    xmax = float(np.max(np.abs(X)))
    points = int(cfg.get("r_points", 100))
    r_grid = np.linspace(xmax / points, xmax, points)
    base = PreparedBase(X)
    rows = []
    for bits in cfg.get("bits", [1, 2, 4]):
        for rounding in cfg.get("rounding", ["deterministic", "stochastic"]):
            for row in clipping_curve(base, int(bits), rounding, r_grid, seed=seed):
                rows.append({"bits": int(bits), "rounding": rounding, **row})
    return {"experiment": "clipping_curve", "rows": rows}


_SIMULATIONS = {
    "theorem1": _simulate_theorem1,
    "theorem2": _simulate_theorem2,
    "theorem3": _simulate_theorem3,
    "table4": _simulate_table4,
    "scaling": _simulate_scaling,
    "clipping-curve": _simulate_clipping,
}
# the simulations whose result holds the table rows that --csv writes
_TABLE_KINDS = ("scaling", "clipping-curve")
# per simulation: the keys its config must hold, and the keys that must be a
# JSON object (dict) or array (list) where given
_CONFIG_KEYS = {
    "theorem1": (("n", "d"), {"compression": dict}),
    "theorem2": (("n", "d"), {"compression": dict, "gd": dict}),
    "theorem3": (("n", "d", "bits"), {"seeds": list}),
    "table4": (("spectrum", "n"), {"spectrum": list}),
    "scaling": (("axis", "levels"), {"levels": list, "base": dict, "seeds": list}),
    "clipping-curve": (("n", "d"), {"bits": list, "rounding": list}),
}


def _check_config(kind: str, cfg, path: Path) -> None:
    """Reject, before any work, a config that lacks a key the simulation
    reads or holds one of the wrong JSON type: a :class:`FormatError` naming
    the file and the key."""
    if not isinstance(cfg, dict):
        raise FormatError(f"{path}: the config must be a JSON object, not {type(cfg).__name__}")
    required, types = _CONFIG_KEYS[kind]
    missing = [key for key in required if key not in cfg]
    if missing and not (kind == "clipping-curve" and "input" in cfg):
        raise FormatError(f"{path}: a {kind} config needs the key {missing[0]!r}")
    for key, json_type in types.items():
        if not isinstance(cfg.get(key, json_type()), json_type):
            name = "object" if json_type is dict else "array"
            raise FormatError(f"{path}: the config key {key!r} must be a JSON {name}")
    spec = cfg.get("compression")
    if isinstance(spec, dict) and spec.get("method") == "pca" and "k" not in spec:
        raise FormatError(f"{path}: the config key 'compression' needs 'k' for method 'pca'")
    points = cfg.get("r_points", 1) if kind == "clipping-curve" else 1
    if type(points) not in (int, float) or not 1 <= points < math.inf:
        raise FormatError(f"{path}: the config key 'r_points' must be a finite number >= 1")


def _cmd_simulate(args) -> int:
    if args.csv and args.kind not in _TABLE_KINDS:
        raise UsageError(f"--csv is only valid for {' and '.join(_TABLE_KINDS)}")
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"{cfg_path}: cannot read config: {exc}") from exc
    _check_config(args.kind, cfg, cfg_path)
    body = _SIMULATIONS[args.kind](cfg)
    storage.write_report(body, args.out, inputs={"config": args.config})
    if args.csv:
        rows = body["rows"]
        storage.write_table_csv(rows, list(rows[0].keys()) if rows else [], args.csv)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    C, vocab = storage.read_compressed(args.compressed)
    X = decompress(C)
    if vocab is None:
        vocab = Vocabulary(tuple(f"row{i}" for i in range(X.shape[0])))
    storage.write_text_embedding(X, vocab, args.output)
    print(f"wrote {args.output} ({X.shape[0]}x{X.shape[1]})")
    return EXIT_OK


_COMMANDS = {
    "compress": _cmd_compress,
    "measure": _cmd_measure,
    "select": _cmd_select,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "reconstruct": _cmd_reconstruct,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (StorageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LinalgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())
