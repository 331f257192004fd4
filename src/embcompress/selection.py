"""Quality measures as selection criteria among compressed candidates.

Covers best-candidate selection, the pairwise selection error rate, maximum
regret, Spearman rank correlation, and the summary evaluation joining quality
reports with externally supplied downstream performance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compress import CompressedEmbedding, decompress
from .linalg import as_matrix, det_sum
from .measures import MEASURE_NAMES, PreparedBase

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"

DEFAULT_ORIENTATIONS = {
    "eigenspace_overlap": HIGHER_BETTER,
    "pip_loss": LOWER_BETTER,
    "reconstruction_error": LOWER_BETTER,
    "projected_reconstruction_error": LOWER_BETTER,
    "delta1": LOWER_BETTER,
    "delta2": LOWER_BETTER,
    "delta": LOWER_BETTER,
    "delta_max": LOWER_BETTER,
}


@dataclass(frozen=True)
class MeasureSpec:
    """A measure name plus the direction in which it prefers candidates."""

    name: str
    orientation: str

    def __post_init__(self):
        if self.name not in MEASURE_NAMES:
            raise ValueError(f"unknown measure {self.name!r}")
        if self.orientation not in (HIGHER_BETTER, LOWER_BETTER):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @classmethod
    def default(cls, name: str) -> "MeasureSpec":
        return cls(name, DEFAULT_ORIENTATIONS[name])


def _prefer(a: float, b: float, orientation: str) -> int:
    if orientation not in (HIGHER_BETTER, LOWER_BETTER):
        raise ValueError(f"unknown orientation {orientation!r}")
    if a == b:
        return 0
    better = a > b if orientation == HIGHER_BETTER else a < b
    return -1 if better else 1


@dataclass(frozen=True)
class PerformanceTable:
    """Rows of (candidate_id, task, performance, seed) with unique keys."""

    rows: tuple

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            cid, task, perf, seed = row
            if not isinstance(cid, str) or not cid:
                raise ValueError(f"candidate_id must be a non-empty string, got {cid!r}")
            if not math.isfinite(perf):
                raise ValueError(f"performance must be finite, got {perf!r} for {cid!r}")
            key = (cid, task, seed)
            if key in seen:
                raise ValueError(f"duplicate (candidate_id, task, seed) row: {key}")
            seen.add(key)

    def tasks(self) -> list[str]:
        return sorted({row[1] for row in self.rows})

    def mean_performance(self, task: str) -> dict[str, float]:
        """Per-candidate performance averaged over seeds for one task."""
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for cid, t, perf, _seed in self.rows:
            if t != task:
                continue
            sums[cid] = sums.get(cid, 0.0) + perf
            counts[cid] = counts.get(cid, 0) + 1
        return {cid: sums[cid] / counts[cid] for cid in sums}


@dataclass(frozen=True)
class Ranking:
    """Candidates ordered by one measure: ``scored`` holds (index, value)
    best first, ties in index order; ``excluded`` holds (index, shape) of
    the candidates the measure cannot score."""

    measure: str
    scored: tuple
    excluded: tuple

    def winner(self) -> int:
        """Index of the best candidate."""
        if not self.scored:
            raise ValueError(f"no candidate could be scored with {self.measure!r}")
        return self.scored[0][0]


def rank_candidates(base, candidates, measure: MeasureSpec, lam: float | None = None) -> Ranking:
    """Order an iterable of dense or :class:`CompressedEmbedding` candidates
    by one measure against the base matrix.  The base is factored once, and
    a candidate takes an SVD only when it leaves the Gram path (see
    :class:`PreparedBase`).  Ranking by overlap computes the overlap alone;
    any other measure computes the candidate's full quality report."""
    prepared = PreparedBase(base)
    lam = prepared.resolve_lambda(lam)
    scored, excluded = [], []
    for idx, cand in enumerate(candidates):
        Xt = decompress(cand) if isinstance(cand, CompressedEmbedding) else as_matrix(cand)
        if measure.name == "eigenspace_overlap":
            val = prepared.overlap(Xt)
        else:
            val = prepared.report(Xt, lam).value(measure.name)
        if val is None:
            excluded.append((idx, Xt.shape))
        else:
            scored.append((idx, val))
        del Xt  # freed before the next candidate is decompressed
    # a stable sort, also when reversed, keeps tied candidates in index order
    scored.sort(key=lambda item: item[1], reverse=measure.orientation == HIGHER_BETTER)
    return Ranking(measure.name, tuple(scored), tuple(excluded))


def select_best(base, candidates, measure: MeasureSpec, lam: float | None = None) -> int:
    """Index of the candidate the measure prefers against the base matrix.

    Candidates the measure cannot score (reconstruction error with mismatched
    widths) are excluded with a warning; ties go to the lowest index.
    """
    ranking = rank_candidates(base, candidates, measure, lam)
    for idx, shape in ranking.excluded:
        warnings.warn(
            f"candidate {idx} excluded: measure {measure.name!r} is not "
            f"applicable to shape {shape}",
            UserWarning,
            stacklevel=2,
        )
    return ranking.winner()


def _pairs(count: int):
    for i in range(count):
        for j in range(i + 1, count):
            yield i, j


def selection_error_rate(scores, perf, orientation: str) -> float:
    """Fraction of candidate pairs where the measure-preferred candidate has
    strictly worse performance.

    Pairs tied in score or in performance are excluded from the denominator.
    """
    scores = np.asarray(scores, dtype=np.float64)
    perf = np.asarray(perf, dtype=np.float64)
    if scores.shape != perf.shape or scores.ndim != 1 or scores.size < 2:
        raise ValueError("scores and perf must be equal-length 1-D with >= 2 entries")
    errors = 0
    valid = 0
    for i, j in _pairs(scores.size):
        pref = _prefer(scores[i], scores[j], orientation)
        if pref == 0 or perf[i] == perf[j]:
            continue
        valid += 1
        chosen = i if pref < 0 else j
        other = j if pref < 0 else i
        if perf[chosen] < perf[other]:
            errors += 1
    if valid == 0:
        raise ValueError("no pairs with distinct scores and distinct performances")
    return errors / valid


def max_regret(scores, perf, orientation: str) -> float:
    """Largest performance shortfall of the measure-selected candidate
    relative to the pair-best one; 0 when the measure never mis-selects.
    Pairs tied in score make no selection and contribute nothing."""
    scores = np.asarray(scores, dtype=np.float64)
    perf = np.asarray(perf, dtype=np.float64)
    if scores.shape != perf.shape or scores.ndim != 1 or scores.size < 2:
        raise ValueError("scores and perf must be equal-length 1-D with >= 2 entries")
    worst = 0.0
    for i, j in _pairs(scores.size):
        pref = _prefer(scores[i], scores[j], orientation)
        if pref == 0:
            continue
        chosen = i if pref < 0 else j
        worst = max(worst, max(perf[i], perf[j]) - perf[chosen])
    return worst


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their ranks."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(a, b) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("inputs must have equal length >= 2")
    ra = _fractional_ranks(a)
    rb = _fractional_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    va = det_sum(ra * ra)
    vb = det_sum(rb * rb)
    if va == 0.0 or vb == 0.0:
        raise ValueError("rank correlation is undefined when either input is constant")
    return det_sum(ra * rb) / math.sqrt(va * vb)


def evaluate_measures(reports, perf: PerformanceTable, tasks=None, measures=None) -> dict:
    """Join quality reports with downstream performance and summarize each
    measure per task: |Spearman rho|, selection error rate, max regret.

    ``reports`` maps candidate_id to a QualityReport or a plain dict of
    measure values.  Per-seed performances are averaged per candidate before
    ranking.  Candidates missing on either side are reported, not fatal.
    """
    tasks = list(tasks) if tasks is not None else perf.tasks()
    measures = list(measures) if measures is not None else list(MEASURE_NAMES)

    def lookup(cid: str, name: str):
        rep = reports[cid]
        if isinstance(rep, dict):
            val = rep.get(name)
        else:
            val = rep.value(name)
        if isinstance(val, str):  # "inf" from a serialized report
            val = float(val)
        return val

    rows = []
    missing_reports = sorted(
        {row[0] for row in perf.rows} - set(reports.keys())
    )
    missing_perf = sorted(set(reports.keys()) - {row[0] for row in perf.rows})
    for task in tasks:
        per_candidate = perf.mean_performance(task)
        cids = sorted(cid for cid in per_candidate if cid in reports)
        perf_vec = np.array([per_candidate[c] for c in cids])
        for name in measures:
            vals = [lookup(c, name) for c in cids]
            keep = [i for i, v in enumerate(vals) if v is not None]
            row = {
                "task": task,
                "measure": name,
                "n_candidates": len(keep),
                "abs_spearman": None,
                "selection_error_rate": None,
                "max_regret": None,
            }
            if len(keep) >= 2:
                scores = np.array([vals[i] for i in keep], dtype=np.float64)
                pvec = perf_vec[keep]
                orientation = DEFAULT_ORIENTATIONS[name]
                try:
                    row["abs_spearman"] = abs(spearman_rho(scores, pvec))
                except ValueError:
                    pass
                try:
                    row["selection_error_rate"] = selection_error_rate(
                        scores, pvec, orientation
                    )
                except ValueError:
                    pass
                row["max_regret"] = max_regret(scores, pvec, orientation)
            rows.append(row)
    return {
        "rows": rows,
        "missing_reports": missing_reports,
        "missing_performance": missing_perf,
    }
