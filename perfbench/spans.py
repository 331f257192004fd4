"""Spans recorded from outside the program, and the per-layer metrics made
from them.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper in every ``embcompress`` module that binds the original,
because ``from .linalg import thin_svd`` copies the binding into
``measures``, ``compress`` and ``theory``.  The public methods of
``CounterRng`` are wrapped on the class, and each objective closure returned
by ``compress.quantization_objective`` is wrapped too, so clip-search
evaluations are counted.  ``uninstall`` restores every original binding.

A span is ``(id, parent, name, start, end, op, failed, amount)``.  Spans stay
in memory and are written as JSONL at the end.  A span opened in a pool
thread with no open span of its own takes the main thread's innermost open
span as its parent, so the row-parallel encoder's work is attributed to
``compress_uniform``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "storage", "compress", "bitpack", "rng", "linalg", "measures",
          "selection", "theory")
RNG_METHODS = ("uniform", "uniform_block", "normal", "normal_block", "substream")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _svd_gflop(args, kwargs, result) -> float:
    """Computed, not counted: 6mn^2 + 20n^3 flops for a thin SVD of an m x n
    matrix with m >= n (Golub and Van Loan, R-SVD with U1, Sigma and V)."""
    m, n = getattr(args[0], "shape", (0, 0))
    m, n = max(m, n), min(m, n)
    return (6.0 * m * n * n + 20.0 * n ** 3) / 1e9


# Work done by one call, recorded as the span's amount.
AMOUNTS = {
    "linalg.thin_svd": _svd_gflop,
    "bitpack.pack_codes": lambda a, k, r: int(getattr(a[0], "size", 0)),
    "bitpack.unpack_codes": lambda a, k, r: int(r.size),
    "rng.CounterRng.uniform": lambda a, k, r: int(getattr(r, "size", 1)),
    "storage.read_text_embedding": lambda a, k, r: _size(a[0]),
    "storage.write_compressed": lambda a, k, r: _size(a[2] if len(a) > 2 else k["path"]),
    "storage.read_compressed": lambda a, k, r: _size(a[0]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._stacks = defaultdict(list)
        self._main = threading.get_ident()
        self._restore = []

    def _wrap(self, name, fn, post=None):
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stacks[threading.get_ident()]
            main = self._stacks[self._main]
            parent = stack[-1] if stack else (main[-1] if main else None)
            stack.append(sid)
            result, failed = None, True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = time.perf_counter()
                stack.pop()
                qty = amount(args, kwargs, result) if amount and not failed else 0
                self.spans.append((sid, parent, name, t0, t1, self.op, failed, qty))
            return post(result) if post else result

        return traced

    def install(self) -> None:
        from embcompress.rng import CounterRng

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"embcompress.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                post = None
                if name == "quantization_objective":
                    post = lambda f: self._wrap("compress.clip_objective", f)  # noqa: E731
                wrappers[obj] = self._wrap(f"{layer}.{name}", obj, post)
        for modname, mod in list(sys.modules.items()):
            if modname != "embcompress" and not modname.startswith("embcompress."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for name in RNG_METHODS:
            orig = CounterRng.__dict__[name]
            self._restore.append((CounterRng, name, orig))
            setattr(CounterRng, name, self._wrap(f"rng.CounterRng.{name}", orig))

    def uninstall(self) -> None:
        while self._restore:
            target, name, obj = self._restore.pop()
            setattr(target, name, obj)

    def write_jsonl(self, path, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, op, failed, qty in self.spans:
                fh.write(json.dumps({"pass": label, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "op": op, "failed": failed,
                                     "amount": qty}) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    covered, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


class SpanIndex:
    """Totals, self times and counts over one pass's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.parent = {s[0]: s[1] for s in spans}
        self.name = {s[0]: s[2] for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s[1]].append((s[3], s[4]))
            self.by_name[s[2]].append(s)

    def _of(self, names):
        return [s for name in names for s in self.by_name.get(name, ())]

    def _outermost(self, names):
        """Spans of ``names`` with no ancestor of ``names``, so a call nested
        in another of the same set is not counted twice."""
        out = []
        for s in self._of(names):
            p = s[1]
            while p is not None and self.name.get(p) not in names:
                p = self.parent.get(p)
            if p is None:
                out.append(s)
        return out

    def total_s(self, *names) -> float:
        return sum(s[4] - s[3] for s in self._outermost(set(names)))

    def self_s(self, name) -> float:
        return sum(s[4] - s[3] - _union_length(self.children[s[0]], s[3], s[4])
                   for s in self._of({name}))

    def calls(self, name) -> int:
        return len(self._of({name}))

    def amount(self, name) -> float:
        return sum(s[7] for s in self._of({name}))

    def failures(self, name) -> int:
        return sum(1 for s in self._of({name}) if s[6])


def counts(spans) -> dict:
    """The counts that must repeat exactly between two passes."""
    ix = SpanIndex(spans)
    return {
        "linalg.svd_calls": ix.calls("linalg.thin_svd"),
        "compress.clip_objective_evals": ix.calls("compress.clip_objective"),
        "storage.read_text_calls": ix.calls("storage.read_text_embedding"),
        "bitpack.codes": int(ix.amount("bitpack.pack_codes") + ix.amount("bitpack.unpack_codes")),
        "rng.variates": int(ix.amount("rng.CounterRng.uniform")),
        "storage.container_bytes": int(ix.amount("storage.write_compressed")
                                       + ix.amount("storage.read_compressed")),
    }


def layer_metrics(spans) -> dict:
    """Per-layer metric values of one traced pass (trace.overhead_s and
    cli.import_s are measured by the caller).  A layer the workload does not
    reach reads 0."""
    ix = SpanIndex(spans)
    read_s = ix.total_s("storage.read_text_embedding")
    read_mb = ix.amount("storage.read_text_embedding") / 1e6
    m = {
        "cli.self_s": ix.self_s("cli.run"),
        "storage.read_text_s": read_s,
        "storage.read_text_mb_per_s": read_mb / read_s if read_s > 0 else 0.0,
        "storage.write_text_s": ix.total_s("storage.write_text_embedding"),
        "storage.container_write_s": ix.total_s("storage.write_compressed"),
        "storage.container_read_s": ix.total_s("storage.read_compressed"),
        "compress.clip_search_s": ix.total_s("compress.find_clip_threshold"),
        "compress.uniform_encode_s": ix.self_s("compress.compress_uniform"),
        "compress.kmeans_s": ix.total_s("compress.compress_kmeans"),
        "compress.pca_s": ix.total_s("compress.compress_pca"),
        "compress.decompress_s": ix.total_s("compress.decompress"),
        "bitpack.pack_s": ix.total_s("bitpack.pack_codes"),
        "bitpack.unpack_s": ix.total_s("bitpack.unpack_codes"),
        "rng.uniform_block_s": ix.total_s("rng.CounterRng.uniform_block"),
        "linalg.svd_s": ix.total_s("linalg.thin_svd"),
        "linalg.svd_gflop": ix.amount("linalg.thin_svd"),
        "linalg.svd_failures": ix.failures("linalg.thin_svd"),
        "linalg.joint_basis_s": ix.total_s("linalg.joint_orthonormal_basis"),
        "linalg.gen_eigs_s": ix.total_s("linalg.sym_generalized_eigs"),
        "measures.quality_report_calls": ix.calls("measures.quality_report"),
        "measures.quality_report_self_s": ix.self_s("measures.quality_report"),
        "measures.overlap_calls": ix.calls("measures.eigenspace_overlap"),
        "measures.overlap_s": ix.total_s("measures.eigenspace_overlap"),
        "measures.pip_loss_s": ix.total_s("measures.pip_loss"),
        "selection.select_best_calls": ix.calls("selection.select_best"),
        "selection.select_best_self_s": ix.self_s("selection.select_best"),
        "theory.gen_matrix_s": ix.total_s("theory.gen_uniform_matrix", "theory.gen_scaled_matrix",
                                          "theory.gen_student_t_matrix"),
        "theory.clipping_curve_self_s": ix.self_s("theory.clipping_curve"),
        "theory.scaling_self_s": ix.self_s("theory.scaling_experiment"),
        "theory.regression_gap_s": ix.total_s("theory.simulate_regression_gap"),
        "theory.lipschitz_gap_s": ix.total_s("theory.simulate_lipschitz_gap"),
        "theory.conditioning_s": ix.total_s("theory.conditioning_scalar"),
    }
    m.update(counts(spans))
    return m
