"""Time the text embedding writer and reader on one worker and on every
usable core, and record the timings with the machine they ran on.

    python bench/text_io.py --out BENCH_<n>.json
    python bench/text_io.py --out quick.json --sizes 10000x100 --runs 3

Run it from the root of a checkout: it reads the program from ``src/``.
For each size it writes ``gen_uniform_matrix(n, d, 0)`` with
``write_text_embedding`` and reads the file back with
``read_text_embedding``, each once with one worker and once with
``linalg._usable_cores()`` workers, alternating which goes first.  Each
timing is the median and the interquartile range of ``--runs`` runs.  The
one-worker write and the forked write must give the same bytes, and every
read the matrix written, else the script exits 1.

It is opt-in, not a tier-1 test: at 100k x 300 one file is about 650 MB,
under ``--tmp``, and the default runs take several minutes.  The record
holds the machine, the BLAS library and its thread count, and the line
count of ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from embcompress import storage  # noqa: E402
from embcompress.linalg import _usable_cores  # noqa: E402
from embcompress.theory import gen_uniform_matrix  # noqa: E402


def blas_runtime() -> dict:
    """numpy's BLAS library by name and version, and the thread count and
    CPU kernel of its bundled OpenBLAS when that can be reached."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its configuration
        deps = {}
    out = {"name": deps.get("name"), "version": deps.get("version")}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if threads is None or config is None:
            continue
        threads.restype, threads.argtypes = ctypes.c_int, []
        config.restype, config.argtypes = ctypes.c_char_p, []
        out.update(threads=int(threads()), config=config().decode())
        break
    return out


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model or platform.processor(),
            "cpu_count": os.cpu_count(), "usable_cores": _usable_cores(),
            "python": platform.python_version(), "numpy": np.__version__}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def summary(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "iqr_s": q3 - q1, "runs_s": times}


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def bench_size(n: int, d: int, runs: int, tmp: Path) -> dict:
    cores = _usable_cores()
    X = gen_uniform_matrix(n, d, 0)
    vocab = storage.Vocabulary(tuple(f"w{i}" for i in range(n)))
    path = tmp / f"text_io_{n}x{d}.txt"
    times = {key: [] for key in ("write_1", "write_cores", "read_1", "read_cores")}
    digests = set()
    for run in range(runs):
        for workers in ((1, cores) if run % 2 == 0 else (cores, 1)):
            tag = "1" if workers == 1 else "cores"
            storage._usable_cores = lambda: workers
            try:
                t0 = time.perf_counter()
                storage.write_text_embedding(X, vocab, path)
                times[f"write_{tag}"].append(time.perf_counter() - t0)
            finally:
                storage._usable_cores = _usable_cores
            digests.add(digest(path))
            t0 = time.perf_counter()
            Y, got = storage.read_text_embedding(path, threads=workers)
            times[f"read_{tag}"].append(time.perf_counter() - t0)
            if Y.tobytes() != X.tobytes() or got != vocab:
                sys.exit(f"{n}x{d}: the read at {workers} workers differs from the matrix written")
            del Y, got
    size = path.stat().st_size
    path.unlink()
    if len(digests) != 1:
        sys.exit(f"{n}x{d}: the writes at 1 and {cores} workers differ")
    return {"n": n, "d": d, "text_bytes": size, "sha256": digests.pop(), "workers": cores,
            **{key: summary(ts) for key, ts in times.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON record to write")
    parser.add_argument("--sizes", default="10000x100,100000x300",
                        help="comma-separated n x d sizes (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=5, help="runs per timing (default: 5)")
    parser.add_argument("--tmp", default=None, help="directory for the text files")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for an interquartile range")
    sizes = [tuple(int(v) for v in s.split("x")) for s in args.sizes.split(",")]
    results = []
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        for n, d in sizes:
            res = bench_size(n, d, args.runs, Path(tmp))
            results.append(res)
            print(f"{n}x{d} ({res['text_bytes'] / 1e6:.1f} MB): "
                  + ", ".join(f"{key} {res[key]['median_s']:.3f} s (IQR {res[key]['iqr_s']:.3f})"
                              for key in ("write_1", "write_cores", "read_1", "read_cores")))
    record = {"bench": "text_io", "machine": machine(), "blas": blas_runtime(),
              "src_lines": src_lines(), "runs": args.runs, "results": results}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
