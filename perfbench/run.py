"""embcompress benchmark driver.

    python3 perfbench/run.py --workload cli-text-10k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The driver sets up the workload's inputs
three times (setup_s is the median), then runs as many passes as fit in
``--seconds`` (at least one), one child process at a time, checks every
output, and prints the result as the last line of stdout.  ``--trace 1`` makes the separate
traced run that reports the per-layer metrics instead.  Metric names and
units come from BENCHMARK.json.  Working files go to ``.perfbench_work/``;
the last result of each workload and trace mode, and the spans of the last
traced run, stay in ``.perfbench_work/results/``.

Every child gets OPENBLAS_NUM_THREADS and ``--threads``/``threads=`` set to
the number of usable cores.  See perfbench/README.md for why each workload
exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s
CLI_ENTRY = "from embcompress.cli import main; main()"


class Run:
    """One benchmark invocation: its children, work directory and deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else (os.cpu_count() or 1)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=str(self.threads))

    def child(self, argv: list, tag: str) -> dict:
        """Run one child to completion; returns its wall time, exit code,
        peak RSS (``ru_maxrss`` from ``os.wait4``) and captured output."""
        out_path, err_path = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"run budget of {RUN_BUDGET_S:.0f} s used up before {tag}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"seconds": seconds, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
                "stderr": err_path.read_text(encoding="utf-8", errors="replace")}

    def worker(self, spec: dict, tag: str) -> tuple[dict, dict]:
        spec = dict(spec, workload=self.workload, seed=self.seed, threads=self.threads,
                    inputs=str(self.inputs), result=str(self.work / f"{tag}.json"))
        proc = self.child([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)], tag)
        if proc["rc"] != 0:
            raise RuntimeError(f"worker {tag} exited with {proc['rc']}: {proc['stderr'][-2000:]}")
        return json.loads(Path(spec["result"]).read_text(encoding="utf-8")), proc

    # -- set-up ------------------------------------------------------------

    def setup(self, repeats: int) -> dict:
        """Set up ``repeats`` times in fresh processes; each must write
        byte-identical inputs."""
        times, digests, blas = [], set(), {}
        for i in range(repeats):
            shutil.rmtree(self.inputs, ignore_errors=True)
            res, proc = self.worker({"mode": "setup"}, f"setup{i}")
            times.append(proc["seconds"])
            blas = res["openblas"]
            digests.add(tuple(workloads.sha256_file(p)
                              for p in workloads.input_files(self.workload, self.inputs)))
        return {"times": times, "deterministic": len(digests) == 1,
                "openblas": blas}

    # -- passes ------------------------------------------------------------

    def cli_pass(self, out: Path, tag: str) -> dict:
        """One cli-text-10k pass: seven fresh interpreters in a row."""
        out.mkdir(parents=True)
        ops, rss, select_stdout = [], 0, None
        t0 = time.perf_counter()
        for i, (op, stage, argv) in enumerate(
                workloads.cli_commands(self.seed, self.threads, self.inputs, out)):
            proc = self.child([sys.executable, "-c", CLI_ENTRY, *argv], f"{tag}-{i}")
            ok = proc["rc"] == 0
            ops.append({"op": op, "stage": stage, "seconds": proc["seconds"], "ok": ok,
                        "error": None if ok else f"exit code {proc['rc']}: "
                                                 f"{proc['stderr'].strip()[-300:]}"})
            rss = max(rss, proc["maxrss_kb"])
            if op == "select":
                select_stdout = proc["stdout"]
        pass_s = time.perf_counter() - t0
        return {"ops": ops, "digests": workloads.cli_digests(out, select_stdout),
                "select_stdout": select_stdout, "pass_s": pass_s, "peak_rss_kb": rss}

    def one_pass(self, index: int) -> dict:
        out = self.work / f"pass{index}"
        if self.workload == "cli-text-10k":
            res = self.cli_pass(out, f"pass{index}")
        else:
            res, proc = self.worker({"mode": "pass", "out": str(out)}, f"pass{index}")
            res.update(pass_s=proc["seconds"], peak_rss_kb=proc["maxrss_kb"])
        res["out"] = str(out)
        return res

    def passes(self, seconds: float) -> list:
        """At least one pass; another only while, judged by the last pass,
        it would end within ``seconds`` of measuring and within the run
        budget."""
        results = []
        t0 = time.perf_counter()
        while True:
            results.append(self.one_pass(len(results)))
            last = results[-1]["pass_s"]
            if time.perf_counter() - t0 + last > seconds \
                    or time.monotonic() + 1.5 * last > self.deadline:
                return results

    # -- checks ------------------------------------------------------------

    def oracle(self):
        import numpy as np

        if self.workload == "theory-lab":
            return None
        return checks.Oracle(np.load(self.inputs / "X.npy"))

    def judge(self, results: dict, oracle, checked) -> dict:
        """Failed and wrong operations of every pass.  ``results`` maps a
        pass label to its result; the first pass is the reference for byte
        identity, and the oracles check the passes in ``checked`` (byte
        identity with the first pass covers the others)."""
        failed, wrong = {}, {}
        first = next(iter(results.values()))
        for label, res in results.items():
            bad = {r["op"]: r["error"] for r in res["ops"] if not r["ok"]}
            found = {}
            if label in checked:
                found.update(checks.check_pass(self.workload, res, Path(res["out"]), oracle))
            if res is not first:
                found.update(checks.compare_digests(first["digests"], res["digests"]))
            for op, reason in found.items():
                bad.setdefault(op, reason)
            failed[label] = bad
            wrong[label] = found
        return {"failed": failed, "wrong": wrong,
                "attempted": sum(len(r["ops"]) for r in results.values()),
                "failed_count": sum(len(v) for v in failed.values())}


# ---------------------------------------------------------------------------
# statistics and the environment


def summary(values: list) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (None below eleven samples)."""
    vals = sorted(values)
    n = len(vals)
    tail = None
    if n > 10:
        tail = {"percentile": math.floor(100.0 * (n - 10) / n), "value": vals[n - 11]}
    return {"median": statistics.median(vals), "n": n, "tail": tail}


def stage_times(res: dict) -> dict:
    totals = {}
    for r in res["ops"]:
        if r["stage"]:
            totals[r["stage"]] = totals.get(r["stage"], 0.0) + r["seconds"]
    return totals


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported tree; do not let git search the parent directories
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(run: Run, blas_runtime: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": run.threads,
        "threads_flag": run.threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "build_config": blas.get("openblas configuration"),
                 "OPENBLAS_NUM_THREADS": run.env["OPENBLAS_NUM_THREADS"],
                 "threads_in_child": blas_runtime.get("threads"),
                 "runtime_config": blas_runtime.get("config")},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def timing_run(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = run.setup(SETUP_REPEATS)
    results = run.passes(seconds)
    labelled = {f"pass{i}": r for i, r in enumerate(results)}
    verdict = run.judge(labelled, run.oracle(), checked=set(labelled))
    series = {"pass_s": [r["pass_s"] for r in results],
              "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in results]}
    for r in results:
        for stage, value in stage_times(r).items():
            series.setdefault(stage, []).append(value)
    stats = {name: summary(vals) for name, vals in series.items()}
    stats["setup_s"] = summary(setup["times"])
    values = {name: s["median"] for name, s in stats.items()}
    extra = {"setup": setup, "stats": stats, "verdict": verdict,
             "passes": [{k: r[k] for k in ("ops", "digests", "pass_s", "peak_rss_kb")}
                        for r in results]}
    return values, extra


def trace_run(run: Run) -> tuple[dict, dict]:
    setup = run.setup(1)
    imports = [run.child([sys.executable, "-c", "import embcompress.cli"], f"import{i}")
               for i in range(IMPORT_REPEATS)]
    spans_path = ROOT / ".perfbench_work" / "results" / f"{run.workload}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    res, _ = run.worker({"mode": "replay", "out": str(run.work / "replay"),
                         "spans": str(spans_path)}, "replay")
    # Byte identity of A and U with B covers tracing on and off; the
    # oracles check B, the pass the per-layer metrics come from.
    results = {}
    for label in ("B", "A", "U"):
        results[label] = dict(res["passes"][label], out=str(run.work / "replay" / label))
    verdict = run.judge(results, run.oracle(), checked={"B"})
    if any(p["rc"] != 0 for p in imports):
        raise RuntimeError(f"import embcompress.cli failed: {imports[0]['stderr'][-2000:]}")
    values = dict(res["layer"], **{"cli.import_s": statistics.median(
        p["seconds"] for p in imports)})
    counts_repeat = res["counts"]["A"] == res["counts"]["B"]
    extra = {"setup": setup, "verdict": verdict, "counts": res["counts"],
             "counts_repeat": counts_repeat, "spans": str(spans_path.relative_to(ROOT)),
             "pass_s": {k: v["pass_s"] for k, v in res["passes"].items()}}
    return values, extra


# ---------------------------------------------------------------------------


def report(args, workload: str, wanted: list) -> None:
    """Run one workload, print its metrics and result line, and save the
    full record."""
    run = Run(workload, args.seed)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    results_dir = ROOT / ".perfbench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        values, extra = trace_run(run) if args.trace else timing_run(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    verdict = extra["verdict"]
    correct = (not any(verdict["wrong"].values()) and extra["setup"]["deterministic"]
               and extra.get("counts_repeat", True))
    env = environment(run, extra["setup"]["openblas"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "metrics": metrics, **extra}
    (results_dir / f"{workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"perfbench {workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        print(f"  counts repeat between traced passes: {extra['counts_repeat']}")
    else:
        for name, s in extra["stats"].items():
            unit = "MB" if name == "peak_rss_mb" else "s"
            tail = (f"p{s['tail']['percentile']}={s['tail']['value']:.4f}"
                    if s["tail"] else "no tail percentile below 11 samples")
            print(f"  {name:16s} {s['median']:12.4f} {unit:3s} median of {s['n']}; {tail}")
    print(f"  failed_ops       {verdict['failed_count']}/{verdict['attempted']}")
    for label, bad in verdict["failed"].items():
        for op, reason in bad.items():
            print(f"    {label}: {op}: {reason}")
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed_count"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, taken modulo 2**31 so every derived seed is valid")
    parser.add_argument("--seconds", type=float,
                        help="measuring window of one run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= 2**31

    if not (ROOT / "src" / "embcompress" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'embcompress'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the output checks read containers with the program
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        # One driver process per workload: a child's ru_maxrss includes the
        # parent's peak RSS at fork, and the checks grow the driver.
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    report(args, args.workload, spec["per_layer" if args.trace else "end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
