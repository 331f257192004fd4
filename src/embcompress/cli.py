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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import storage
from .compress import compress_kmeans, compress_pca, compress_uniform, decompress
from .linalg import LinalgError
from .measures import MEASURE_NAMES, PreparedBase
from .selection import MeasureSpec, evaluate_measures, rank_candidates
from .storage import StorageError, Vocabulary
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


def _default_threads(value: int) -> int:
    import os

    if value and value > 0:
        return value
    return os.cpu_count() or 1


def _candidate_id(path) -> str:
    return Path(path).stem


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
    else:
        if args.method == "uniform":
            C = compress_uniform(
                X,
                args.bits,
                rounding=rounding,
                seed=args.seed,
                threads=_default_threads(args.threads),
            )
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
    stems = [_candidate_id(p) for p in args.compressed]
    if len(set(stems)) != len(stems):
        raise UsageError("candidate files must have distinct stems (they become ids)")
    X, _ = storage.read_text_embedding(args.base, fmt=args.format)
    base = PreparedBase(X)
    lam = None if args.lam == "auto" else float(args.lam)
    reports = {}
    inputs = {"base": args.base}
    for path in args.compressed:
        C, _vocab = storage.read_compressed(path)
        rep = base.report(decompress(C), lam)
        cid = _candidate_id(path)
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
    X, _ = storage.read_text_embedding(args.base, fmt=args.format)
    ids = [_candidate_id(path) for path in args.candidates]
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
    reports = {}
    report_dir = Path(args.reports)
    if not report_dir.is_dir():
        raise StorageError(f"{report_dir}: not a directory")
    for path in sorted(report_dir.glob("*.json")):
        doc = storage.read_report(path)
        reports.update(doc["body"].get("reports", {}))
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
        rho = row["abs_spearman"]
        err = row["selection_error_rate"]
        print(
            f"{row['task']}/{row['measure']}: |rho|="
            f"{'n/a' if rho is None else format(rho, '.4f')} "
            f"error_rate={'n/a' if err is None else format(err, '.4f')} "
            f"max_regret={row['max_regret']}"
        )
    return EXIT_OK


def _make_compressed_variant(X, spec: dict, seed: int):
    method = spec.get("method", "uniform")
    if method == "uniform":
        bits = int(spec.get("bits", 4))
        rounding = spec.get("rounding", "stochastic")
        if spec.get("full_range", True):
            return stochastic_quantize_full_range(X, bits, seed) if rounding == "stochastic" \
                else decompress(compress_uniform(X, bits, rounding="deterministic", seed=seed))
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


def _simulate_theorem1(cfg: dict) -> tuple[dict, None]:
    X, Xt, seed = _theorem_pair(cfg)
    result = simulate_regression_gap(
        X, Xt, _label_model(cfg), int(cfg.get("trials", 10_000)), seed + 2
    )
    return {"experiment": "regression_gap", "result": result}, None


def _simulate_theorem2(cfg: dict) -> tuple[dict, None]:
    X, Xt, seed = _theorem_pair(cfg)
    gd_cfg = cfg.get("gd", {})
    gd = GdConfig(
        step=gd_cfg.get("step"),
        tol=gd_cfg.get("tol"),
        max_steps=int(gd_cfg.get("max_steps", 100_000)),
    )
    result = simulate_lipschitz_gap(
        X, Xt, _label_model(cfg), int(cfg.get("trials", 1000)), seed + 2,
        gd=gd, L=float(cfg.get("L", 1.0)),
    )
    return {"experiment": "lipschitz_gap", "result": result}, None


def _simulate_theorem3(cfg: dict) -> tuple[dict, None]:
    n, d = int(cfg["n"]), int(cfg["d"])
    bits = int(cfg["bits"])
    X = gen_uniform_matrix(n, d, int(cfg.get("seed", 0)))
    a = float(cfg["a"]) if "a" in cfg else None
    result = overlap_bound_experiment(X, bits, cfg.get("seeds", list(range(20))), a)
    body = {"experiment": "quantization_overlap_bound", "n": n, "d": d, "bits": bits}
    return {**body, **result}, None


def _simulate_table4(cfg: dict) -> tuple[dict, None]:
    out = table4_perturbation(
        cfg["spectrum"], int(cfg["n"]), int(cfg.get("seed", 0))
    )
    return {
        "experiment": "top_singular_value_perturbation",
        "measured": out["measured"],
        "predicted": out["predicted"],
    }, None


def _simulate_scaling(cfg: dict) -> tuple[dict, list[dict]]:
    rows = scaling_experiment(
        cfg["axis"], cfg["levels"], cfg.get("base", {}), cfg.get("seeds", [0, 1, 2, 3, 4])
    )
    return {"experiment": "scaling", "axis": cfg["axis"], "rows": rows}, rows


def _simulate_clipping(cfg: dict) -> tuple[dict, list[dict]]:
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
    return {"experiment": "clipping_curve", "rows": rows}, rows


_SIMULATIONS = {
    "theorem1": _simulate_theorem1,
    "theorem2": _simulate_theorem2,
    "theorem3": _simulate_theorem3,
    "table4": _simulate_table4,
    "scaling": _simulate_scaling,
    "clipping-curve": _simulate_clipping,
}


def _cmd_simulate(args) -> int:
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"{cfg_path}: cannot read config: {exc}") from exc
    body, csv_rows = _SIMULATIONS[args.kind](cfg)
    storage.write_report(body, args.out, inputs={"config": args.config})
    if args.csv:
        if csv_rows is None:
            raise UsageError("--csv is only valid for scaling and clipping-curve")
        columns = list(csv_rows[0].keys()) if csv_rows else []
        storage.write_table_csv(csv_rows, columns, args.csv)
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
