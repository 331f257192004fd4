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
    """A measure name; it prefers candidates in its ``DEFAULT_ORIENTATIONS``
    direction."""

    name: str

    def __post_init__(self):
        if self.name not in MEASURE_NAMES:
            raise ValueError(f"unknown measure {self.name!r}")

    @classmethod
    def default(cls, name: str) -> "MeasureSpec":
        return cls(name)


@dataclass(frozen=True)
class PerformanceTable:
    """Rows of (candidate_id, task, performance, seed) with unique keys."""

    rows: tuple

    def __post_init__(self):
        seen = set()
        for cid, task, perf, seed in self.rows:
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
        sums: dict[str, tuple[float, int]] = {}
        for cid, t, perf, _seed in self.rows:
            if t == task:
                total, count = sums.get(cid, (0.0, 0))
                sums[cid] = (total + perf, count + 1)
        return {cid: total / count for cid, (total, count) in sums.items()}


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


def rank_candidates(base, candidates, measure: MeasureSpec) -> Ranking:
    """Order an iterable of dense or :class:`CompressedEmbedding` candidates
    by one measure against the base matrix.  The base is factored once, and
    a candidate takes an SVD only when it leaves the Gram path (see
    :class:`PreparedBase`).  Ranking by overlap computes the overlap alone;
    any other measure computes the candidate's full quality report at the
    default lambda, resolved before any candidate is read."""
    prepared = PreparedBase(base)
    lam = prepared.resolve_lambda()
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
    higher = DEFAULT_ORIENTATIONS[measure.name] == HIGHER_BETTER
    scored.sort(key=lambda item: item[1], reverse=higher)
    return Ranking(measure.name, tuple(scored), tuple(excluded))


def select_best(base, candidates, measure: MeasureSpec) -> int:
    """Index of the candidate the measure prefers against the base matrix,
    ranked by :func:`rank_candidates`.

    Candidates the measure cannot score (reconstruction error with mismatched
    widths) are excluded with a warning; ties go to the lowest index.
    """
    ranking = rank_candidates(base, candidates, measure)
    for idx, shape in ranking.excluded:
        warnings.warn(
            f"candidate {idx} excluded: measure {measure.name!r} is not "
            f"applicable to shape {shape}",
            UserWarning,
            stacklevel=2,
        )
    return ranking.winner()


def _pairwise(scores, perf, orientation: str):
    """Over the candidate pairs i < j: the measure's preference, +1 for i,
    -1 for j and 0 on a score tie (two infinite scores of one sign tie),
    and the performance difference perf[i] - perf[j]."""
    scores = np.asarray(scores, dtype=np.float64)
    perf = np.asarray(perf, dtype=np.float64)
    if scores.shape != perf.shape or scores.ndim != 1 or scores.size < 2:
        raise ValueError("scores and perf must be equal-length 1-D with >= 2 entries")
    if np.isnan(scores).any() or np.isnan(perf).any():
        raise ValueError("scores and perf must not contain NaN")
    if orientation == LOWER_BETTER:
        scores = -scores
    elif orientation != HIGHER_BETTER:
        raise ValueError(f"unknown orientation {orientation!r}")
    i, j = np.triu_indices(scores.size, k=1)
    pref = (scores[i] > scores[j]).astype(np.int8) - (scores[i] < scores[j])
    return pref, perf[i] - perf[j]


def selection_error_rate(scores, perf, orientation: str) -> float:
    """Fraction of candidate pairs where the measure-preferred candidate has
    strictly worse performance.

    Pairs tied in score or in performance are excluded from the denominator.
    """
    pref, diff = _pairwise(scores, perf, orientation)
    # +1 where the measure prefers the better performer, -1 the worse; 0 or
    # NaN (inf - inf) where scores or performances tie
    agree = pref * np.sign(diff)
    errors = np.count_nonzero(agree < 0)
    valid = errors + np.count_nonzero(agree > 0)
    if valid == 0:
        raise ValueError("no pairs with distinct scores and distinct performances")
    return errors / valid


def max_regret(scores, perf, orientation: str) -> float:
    """Largest performance shortfall of the measure-selected candidate
    relative to the pair-best one; 0 when the measure never mis-selects.
    Pairs tied in score make no selection and contribute nothing."""
    pref, diff = _pairwise(scores, perf, orientation)
    return float(np.max(np.abs(diff[pref * np.sign(diff) < 0]), initial=0.0))


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    return (starts + 0.5 * (counts + 1))[inverse]


def spearman_rho(a, b) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("inputs must have equal length >= 2")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("inputs must not contain NaN")
    ra, rb = (r - r.mean() for r in (_fractional_ranks(a), _fractional_ranks(b)))
    va = det_sum(ra * ra)
    vb = det_sum(rb * rb)
    if va == 0.0 or vb == 0.0:
        raise ValueError("rank correlation is undefined when either input is constant")
    return det_sum(ra * rb) / math.sqrt(va * vb)


def _report_value(report: dict, name: str):
    """One measure's value from a report dict; None when absent, and the
    strings "inf"/"-inf" of a serialized report as floats."""
    val = report.get(name)
    return float(val) if isinstance(val, str) else val


def _or_none(statistic):
    """``statistic()``, or None where it is undefined (every pair tied, a
    constant input)."""
    try:
        return statistic()
    except ValueError:
        return None


def evaluate_measures(reports, perf: PerformanceTable) -> dict:
    """Join quality reports with downstream performance and summarize each
    measure per task: |Spearman rho|, selection error rate, max regret.

    ``reports`` maps candidate_id to a dict of measure values.  There is a
    row per task and measure of ``MEASURE_NAMES``.  Per-seed performances
    are averaged per candidate before ranking.  Candidates missing on either
    side are reported, not fatal.  A NaN measure value raises ValueError.
    """
    performed = {row[0] for row in perf.rows}
    rows = []
    for task in perf.tasks():
        per_candidate = perf.mean_performance(task)
        cids = sorted(cid for cid in per_candidate if cid in reports)
        for name in MEASURE_NAMES:
            values = {c: _report_value(reports[c], name) for c in cids}
            scored = [c for c in cids if values[c] is not None]
            row = {"task": task, "measure": name, "n_candidates": len(scored),
                   "abs_spearman": None, "selection_error_rate": None, "max_regret": None}
            if len(scored) >= 2:
                scores = np.array([values[c] for c in scored], dtype=np.float64)
                pvec = np.array([per_candidate[c] for c in scored])
                orientation = DEFAULT_ORIENTATIONS[name]
                # max_regret is defined for any two candidates, so NaN fails there
                row.update(
                    max_regret=max_regret(scores, pvec, orientation),
                    abs_spearman=_or_none(lambda: abs(spearman_rho(scores, pvec))),
                    selection_error_rate=_or_none(
                        lambda: selection_error_rate(scores, pvec, orientation)),
                )
            rows.append(row)
    return {"rows": rows, "missing_reports": sorted(performed - set(reports)),
            "missing_performance": sorted(set(reports) - performed)}
