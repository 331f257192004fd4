"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or file-format error,
3 numerical failure.  Given the same arguments, inputs, and seed, and the
same BLAS thread count, every subcommand writes byte-identical outputs; a
different BLAS thread count can change the last digits of anything made from
BLAS products or LAPACK (every measure value, PCA factors), but not uniform
or k-means containers.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import __version__
from . import storage
from .compress import METHODS, SEED_LIMIT, compressor, decompress
from .linalg import LinalgError, _usable_cores, max_abs
from .measures import MEASURE_NAMES, PreparedBase
from .selection import MeasureSpec, evaluate_measures, rank_candidates
from .storage import FormatError, StorageError, Vocabulary
from .theory import (
    GdConfig,
    LabelModel,
    SCALING_KEYS,
    clipping_curve,
    gen_student_t_matrix,
    gen_uniform_matrix,
    overlap_bound_experiment,
    scaling_base,
    scaling_experiment,
    simulate_lipschitz_gap,
    simulate_regression_gap,
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


def _seed(text: str) -> int:
    """A --seed value: an integer a container can record."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _lambda(text: str) -> float | None:
    """A measure --lambda value: 'auto' (None) or a finite float above 0."""
    if text == "auto":
        return None
    try:
        lam = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(lam) and lam > 0):
        raise argparse.ArgumentTypeError(f"lambda must be a finite number above 0, got {text!r}")
    return lam


def _add_global_flags(parser, trailing: bool) -> None:
    """The global flags are accepted both before and after the subcommand;
    the trailing copies use SUPPRESS defaults so they only override the
    leading values when actually given."""
    suppress = {"default": argparse.SUPPRESS} if trailing else {}
    parser.add_argument(
        "--seed", type=_seed, **(suppress or {"default": 0}),
        help="global RNG seed, in [0, 2**64) (default 0)",
    )
    parser.add_argument(
        "--threads", type=int, **(suppress or {"default": 0}),
        help="row-parallel worker count; 0 = all usable cores (output is identical for any value)",
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
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--bits", type=int, help="bits per entry (uniform/kmeans)")
    p.add_argument("--dim", type=int, help="retained dimension k (pca)")
    p.add_argument("--rounding", choices=("det", "stoch"), default="det")
    p.add_argument("--keep-v", action="store_true", help="store the right factor (pca)")
    p.add_argument("input")
    p.add_argument("output")

    p = add_parser("measure", help="score compressed candidates against a base embedding")
    p.add_argument("--lambda", dest="lam", type=_lambda, default="auto",
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
    p.add_argument("kind", choices=tuple(_SIMULATIONS))
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
    rounding = "deterministic" if args.rounding == "det" else "stochastic"
    try:  # the spec is checked before any file access
        build = compressor(args.method, args.bits, rounding, full_range=False, k=args.dim,
                           keep_v=args.keep_v)
    except ValueError as exc:
        raise UsageError(f"compress: {exc}") from None
    threads = args.threads or _usable_cores()
    X, vocab = storage.read_text_embedding(args.input, fmt=args.format, threads=threads)
    C = build(X, args.seed, threads)
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
    X, _ = storage.read_text_embedding(args.base, fmt=args.format,
                                       threads=args.threads or _usable_cores())
    base = PreparedBase(X)
    reports = {}
    inputs = {"base": args.base}
    for cid, path in zip(ids, args.compressed):
        C, _vocab = storage.read_compressed(path)
        rep = base.report(decompress(C), args.lam)
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
    X, _ = storage.read_text_embedding(args.base, fmt=args.format,
                                       threads=args.threads or _usable_cores())
    candidates = (storage.read_compressed(path)[0] for path in args.candidates)
    ranking = rank_candidates(X, candidates, MeasureSpec.default(args.criterion))
    for idx, _shape in ranking.excluded:
        print(f"{ids[idx]}: excluded ({ranking.measure} not applicable)")
    winner = ranking.winner()
    for pos, (idx, val) in enumerate(ranking.scored, start=1):
        print(f"{pos}. {ids[idx]} {ranking.measure}={val:.6g}")
    print(f"winner: {ids[winner]}")
    return EXIT_OK


def _is_measure_value(value) -> bool:
    """A report's measure value: null, "inf", "-inf" or a number that is not
    a boolean, an integer only within float range."""
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return value is None or type(value) is float or value in ("inf", "-inf")


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
            for name in MEASURE_NAMES:
                if not _is_measure_value(rep.get(name)):
                    raise FormatError(
                        f"{path}: candidate {cid!r}: the measure {name!r} must be a number, "
                        f"null, \"inf\" or \"-inf\", got {json.dumps(rep[name])[:60]}"
                    )
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


# the most entries of any array a config sizes (256 MiB of float64), and the
# most entries of any config array and the most clip thresholds
MAX_ENTRIES = 2**25
MAX_LENGTH = 1000
_JSON_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean",
               type(None): "null", list: "array"}


def _bind(fn, cfg: dict, path, prefix: str = ""):
    """Call ``fn`` with the JSON object ``cfg`` as keyword arguments: the one
    place that reads a ``simulate`` config, so ``fn``'s signature is the one
    place that states its keys, their JSON types (see :func:`_typed`) and
    their defaults.  A missing or unknown key, a wrong type, or a ValueError
    of the call is a :class:`FormatError` naming the file ``path`` and the
    key path; ``prefix`` is that of ``cfg`` itself, ending in a dot."""
    sig = inspect.signature(fn, eval_str=True)
    try:
        sig.bind(**cfg)
    except TypeError as exc:
        raise FormatError(f"{path}: {prefix[:-1] or 'the config'}: {exc}; "
                          f"the keys are {', '.join(sig.parameters)}") from None
    kwargs = {key: _typed(value, sig.parameters[key].annotation, path, prefix + key)
              for key, value in cfg.items()}
    try:
        return fn(**kwargs)
    except ValueError as exc:  # a range or size the callee checks
        raise FormatError(f"{path}: {prefix[:-1] + ': ' if prefix else ''}{exc}") from exc


def _typed(value, tp, path, key: str):
    """``value``, the config's ``key``, checked against the annotation ``tp``:
    ``int`` takes no boolean, ``float`` any finite number (passed on as a
    float), ``list[T]`` at most MAX_LENGTH entries, and a function or
    dataclass a JSON object bound to it by :func:`_bind`."""
    arms = typing.get_args(tp) if typing.get_origin(tp) in (typing.Union, types.UnionType) \
        else (tp,)
    for arm in arms:
        if typing.get_origin(arm) is list:
            if isinstance(value, list) and len(value) <= MAX_LENGTH:
                return [_typed(v, typing.get_args(arm)[0], path, f"{key}[{i}]")
                        for i, v in enumerate(value)]
        elif arm is float:
            if type(value) in (int, float) and abs(value) <= sys.float_info.max:
                return float(value)
        elif type(value) is arm:
            return value
        elif isinstance(value, dict) and arm not in _JSON_NAMES:
            return _bind(arm, value, path, key + ".")
    expected = " or ".join(_JSON_NAMES.get(typing.get_origin(a) or a, "object") for a in arms)
    raise FormatError(f"{path}: the config key {key!r} must be a JSON {expected}"
                      f"{f' of at most {MAX_LENGTH} entries' if 'array' in expected else ''}, "
                      f"got {json.dumps(value)[:60]}")


def _cap(what: str, size: int) -> None:
    """Reject, before any allocation, an array a config sizes above MAX_ENTRIES."""
    if size > MAX_ENTRIES:
        raise ValueError(f"{what} = {size} entries is above the cap of {MAX_ENTRIES}")


def _covariance(diag: list[float] | None = None, matrix: list[list[float]] | None = None):
    """An explicit ``covariance``: its diagonal or the whole matrix."""
    if (diag is None) == (matrix is None):
        raise ValueError("a covariance object needs exactly one of 'diag' and 'matrix'")
    return np.diag(diag) if matrix is None else np.asarray(matrix, dtype=np.float64)


def _theorem_inputs(n, d, seed, compression, covariance, c, trials):
    """(X, Xt, model): a uniform matrix, its compressed variant and the label model."""
    _cap("n*d", n * d)
    _cap("n*trials", n * trials)
    if isinstance(covariance, str) and covariance != "identity":
        raise ValueError(f"bad covariance spec {covariance!r}")
    X = gen_uniform_matrix(n, d, seed)
    model = LabelModel(None if isinstance(covariance, str) else covariance, c)
    return X, decompress(compression(X, seed + 1)), model


def _simulate_theorem1(n: int, d: int, seed: int = 0, compression: compressor = compressor(),
                       covariance: typing.Union[str, _covariance] = "identity",
                       c: float = LabelModel.noise_ratio, trials: int = 10_000) -> dict:
    X, Xt, model = _theorem_inputs(n, d, seed, compression, covariance, c, trials)
    result = simulate_regression_gap(X, Xt, model, trials, seed + 2)
    return {"experiment": "regression_gap", "result": result}


def _simulate_theorem2(n: int, d: int, seed: int = 0, compression: compressor = compressor(),
                       covariance: typing.Union[str, _covariance] = "identity",
                       c: float = LabelModel.noise_ratio, trials: int = 1000,
                       gd: GdConfig = GdConfig(),
                       L: float = inspect.signature(simulate_lipschitz_gap).parameters["L"].default,
                       ) -> dict:
    X, Xt, model = _theorem_inputs(n, d, seed, compression, covariance, c, trials)
    result = simulate_lipschitz_gap(X, Xt, model, trials, seed + 2, gd=gd, L=L)
    return {"experiment": "lipschitz_gap", "result": result}


def _simulate_theorem3(n: int, d: int, bits: int, seed: int = 0,
                       seeds: list[int] = tuple(range(20)), a: float | None = None) -> dict:
    _cap("n*d", n * d)
    result = overlap_bound_experiment(gen_uniform_matrix(n, d, seed), bits, seeds, a)
    body = {"experiment": "quantization_overlap_bound", "n": n, "d": d, "bits": bits}
    return {**body, **result}


def _simulate_table4(spectrum: list[float], n: int, seed: int = 0) -> dict:
    _cap("n*len(spectrum)", n * len(spectrum))
    out = table4_perturbation(spectrum, n, seed)
    return {"experiment": "top_singular_value_perturbation",
            "measured": out["measured"], "predicted": out["predicted"]}


def _simulate_scaling(axis: str, levels: list[int | float], base: scaling_base = scaling_base(),
                      seeds: list[int] = tuple(range(5))) -> dict:
    for level in levels if axis in SCALING_KEYS else ():  # scaling_experiment rejects the rest
        point = {**base, SCALING_KEYS[axis][0]: level}
        _cap("n*d", point["n"] * point["d"])
    rows = scaling_experiment(axis, levels, base, seeds)
    return {"experiment": "scaling", "axis": axis, "rows": rows}


def _simulate_clipping(n: int | None = None, d: int | None = None, input: str | None = None,
                       df: float = 5.0, scale: float = 1.0, seed: int = 0,
                       bits: list[int] = (1, 2, 4),
                       rounding: list[str] = ("deterministic", "stochastic"),
                       r_points: int = 100) -> dict:
    if not 1 <= r_points <= MAX_LENGTH:
        raise ValueError(f"the config key 'r_points' must be in [1, {MAX_LENGTH}], got {r_points}")
    if input is not None:
        X, _ = storage.read_text_embedding(input)
    elif n is None or d is None:
        raise ValueError("a clipping-curve config needs the keys 'n' and 'd', or 'input'")
    else:
        _cap("n*d", n * d)
        X = gen_student_t_matrix(n, d, df, scale, seed)
    xmax = max_abs(X)
    r_grid = np.linspace(xmax / r_points, xmax, r_points)
    base = PreparedBase(X)
    rows = []
    for b in bits:
        for mode in rounding:
            for row in clipping_curve(base, b, mode, r_grid, seed=seed):
                rows.append({"bits": b, "rounding": mode, **row})
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


def _cmd_simulate(args) -> int:
    if args.csv and args.kind not in _TABLE_KINDS:
        raise UsageError(f"--csv is only valid for {' and '.join(_TABLE_KINDS)}")
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise StorageError(f"{cfg_path}: cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise FormatError(f"{cfg_path}: the config must be a JSON object, not {type(cfg).__name__}")
    body = _bind(_SIMULATIONS[args.kind], cfg, cfg_path)
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
        if args.threads < 0:  # before any file access
            raise UsageError(f"--threads must be 0 or more, got {args.threads}")
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
