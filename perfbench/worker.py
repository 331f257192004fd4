"""Child process of the benchmark driver.

    python3 perfbench/worker.py '<json spec>'

``spec["mode"]`` is one of
  setup   write the workload's inputs (timed from outside as setup_s);
  pass    one in-process pass of lib-300d-10k or theory-lab;
  replay  the traced run: one pass traced, one untraced, one traced, all in
          this process; writes the spans of both traced passes as JSONL.
The result goes to ``spec["result"]`` as JSON.  PYTHONPATH must hold the
checkout's ``src``.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
import time
import warnings
from pathlib import Path

import spans
import workloads


def openblas_runtime() -> dict:
    """Thread count and run-time configuration (the CPU kernel chosen) of
    numpy's bundled OpenBLAS, or {} when it cannot be reached."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if threads is None or config is None:
            continue
        threads.restype, threads.argtypes = ctypes.c_int, []
        config.restype, config.argtypes = ctypes.c_char_p, []
        return {"threads": int(threads()), "config": config().decode()}
    return {}


def replay(spec: dict) -> dict:
    """Traced pass A, untraced pass U, traced pass B, in that order, so the
    overhead estimate is not biased by warm-up or drift."""
    run = workloads.IN_PROCESS[spec["workload"]]
    inputs, out = Path(spec["inputs"]), Path(spec["out"])
    passes, traced = {}, {}
    for label in ("A", "U", "B"):
        tracer = spans.Tracer() if label != "U" else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = run(spec["seed"], spec["threads"], inputs, out / label, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        res["pass_s"] = time.perf_counter() - t0
        passes[label] = res
        if tracer:
            traced[label] = tracer
    for label, tracer in traced.items():
        tracer.write_jsonl(spec["spans"], label)
    layer = spans.layer_metrics(traced["B"].spans)
    layer["trace.overhead_s"] = (
        0.5 * (passes["A"]["pass_s"] + passes["B"]["pass_s"]) - passes["U"]["pass_s"]
    )
    return {"passes": passes, "layer": layer,
            "counts": {label: spans.counts(t.spans) for label, t in traced.items()}}


def main() -> int:
    spec = json.loads(sys.argv[1])
    warnings.simplefilter("ignore")  # RankDeficiencyWarning etc.; outputs are checked instead
    mode = spec["mode"]
    if mode == "setup":
        workloads.setup(spec["workload"], spec["seed"], Path(spec["inputs"]))
        result = {"openblas": openblas_runtime()}
    elif mode == "pass":
        run = workloads.IN_PROCESS[spec["workload"]]
        result = run(spec["seed"], spec["threads"], Path(spec["inputs"]), Path(spec["out"]))
    else:
        result = replay(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
