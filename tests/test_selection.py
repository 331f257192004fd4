import itertools

import numpy as np
import pytest

from embcompress.compress import compress_pca, compress_uniform
from embcompress.measures import MEASURE_NAMES
from embcompress.selection import (
    DEFAULT_ORIENTATIONS,
    MeasureSpec,
    PerformanceTable,
    evaluate_measures,
    max_regret,
    select_best,
    selection_error_rate,
    spearman_rho,
)

RNG = np.random.default_rng(555)


def brute_force_error_rate(scores, perf, orientation):
    errors, valid = 0, 0
    for i, j in itertools.combinations(range(len(scores)), 2):
        if scores[i] == scores[j] or perf[i] == perf[j]:
            continue
        if orientation == "higher_better":
            chosen = i if scores[i] > scores[j] else j
        else:
            chosen = i if scores[i] < scores[j] else j
        other = j if chosen == i else i
        valid += 1
        if perf[chosen] < perf[other]:
            errors += 1
    return errors / valid


def brute_force_max_regret(scores, perf, orientation):
    worst = 0.0
    for i, j in itertools.combinations(range(len(scores)), 2):
        if scores[i] == scores[j]:
            continue
        if orientation == "higher_better":
            chosen = i if scores[i] > scores[j] else j
        else:
            chosen = i if scores[i] < scores[j] else j
        worst = max(worst, max(perf[i], perf[j]) - perf[chosen])
    return worst


def brute_force_spearman(a, b):
    def ranks(x):
        out = []
        for v in x:
            less = sum(1 for u in x if u < v)
            equal = sum(1 for u in x if u == v)
            out.append(less + (equal + 1) / 2.0)
        return np.array(out)

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra**2) * np.sum(rb**2)))


def tied_and_infinite(seed, size=9):
    """Scores on a coarse grid with some +-inf entries, so that ties (also of
    two infinities) are common, and performances with ties of their own."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 4, size=size).astype(float)
    scores[rng.random(size) < 0.2] = np.inf
    scores[rng.random(size) < 0.2] = -np.inf
    perf = rng.integers(0, 5, size=size) / 4
    return scores, perf


ORIENTATIONS = ("higher_better", "lower_better")
NAN_CASES = [([0.5, np.nan, 0.2], [0.1, 0.2, 0.3]), ([0.5, 0.4, 0.2], [0.1, np.nan, 0.3])]


class TestMeasureSpec:
    def test_defaults(self):
        assert DEFAULT_ORIENTATIONS["eigenspace_overlap"] == "higher_better"
        for name in ("pip_loss", "delta", "delta_max", "reconstruction_error"):
            assert DEFAULT_ORIENTATIONS[name] == "lower_better"
        assert set(DEFAULT_ORIENTATIONS) == set(MEASURE_NAMES)
        assert MeasureSpec.default("delta") == MeasureSpec("delta")

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasureSpec("nope")


class TestSelectBest:
    def test_single_candidate(self):
        X = RNG.normal(size=(20, 4))
        spec = MeasureSpec.default("eigenspace_overlap")
        assert select_best(X, [X.copy()], spec) == 0

    def test_prefers_exact_copy_over_quantized(self):
        X = RNG.normal(size=(40, 6))
        rough = compress_uniform(X, 1)
        spec = MeasureSpec.default("eigenspace_overlap")
        assert select_best(X, [rough, X.copy()], spec) == 1

    def test_overlap_monotone_in_bits(self):
        X = RNG.normal(size=(60, 10))
        candidates = [compress_uniform(X, b) for b in (1, 2, 4)]
        spec = MeasureSpec.default("eigenspace_overlap")
        from embcompress.compress import decompress
        from embcompress.measures import eigenspace_overlap

        scores = [eigenspace_overlap(X, decompress(c)) for c in candidates]
        assert scores[0] < scores[1] < scores[2]
        assert select_best(X, candidates, spec) == 2

    def test_inapplicable_measure_excluded_with_warning(self):
        X = RNG.normal(size=(30, 6))
        narrow = compress_pca(X, 3)  # decompresses to 30x3
        same = compress_uniform(X, 2)
        spec = MeasureSpec.default("reconstruction_error")
        with pytest.warns(UserWarning, match="excluded"):
            assert select_best(X, [narrow, same], spec) == 1

    def test_all_excluded_fails(self):
        X = RNG.normal(size=(30, 6))
        narrow = compress_pca(X, 3)
        spec = MeasureSpec.default("reconstruction_error")
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no candidate"):
                select_best(X, [narrow], spec)

    def test_invariant_under_monotone_transform_of_scores(self):
        # argbest only sees the ordering, so any strictly monotone rescaling
        # of the measure leaves the winner unchanged; checked via delta vs
        # its exponential through two calls on reordered candidate lists
        X = RNG.normal(size=(50, 8))
        candidates = [compress_uniform(X, b) for b in (1, 2, 4)]
        spec = MeasureSpec.default("delta")
        winner = select_best(X, candidates, spec)
        reordered = candidates[::-1]
        assert reordered[select_best(X, reordered, spec)] is candidates[winner]


class TestSelectionErrorRate:
    def test_concordant_pair(self):
        assert selection_error_rate([0.9, 0.5], [0.8, 0.6], "higher_better") == 0.0

    def test_inverted_pair(self):
        assert selection_error_rate([0.9, 0.5], [0.6, 0.8], "higher_better") == 1.0

    def test_matches_brute_force_enumeration(self):
        scores = [0.9, 0.7, 0.5, 0.3]
        perf = [0.8, 0.9, 0.6, 0.7]
        rate = selection_error_rate(scores, perf, "higher_better")
        assert rate == pytest.approx(brute_force_error_rate(scores, perf, "higher_better"))
        assert rate == pytest.approx(2 / 6)

    def test_orientation_reversal_complements_rate(self):
        scores = RNG.normal(size=6)
        perf = RNG.normal(size=6)
        hi = selection_error_rate(scores, perf, "higher_better")
        lo = selection_error_rate(scores, perf, "lower_better")
        assert hi + lo == pytest.approx(1.0)

    def test_tied_pairs_excluded(self):
        rate = selection_error_rate([1.0, 1.0, 0.5], [0.1, 0.9, 0.5], "higher_better")
        # only the two pairs involving the third candidate count
        assert rate == pytest.approx(0.5)

    def test_no_valid_pairs_fails(self):
        with pytest.raises(ValueError, match="pairs"):
            selection_error_rate([1.0, 1.0], [0.2, 0.4], "higher_better")

    @pytest.mark.parametrize("seed", range(20))
    def test_ties_and_infinities_equal_brute_force(self, seed):
        scores, perf = tied_and_infinite(seed)
        for orientation in ORIENTATIONS:
            try:
                expected = brute_force_error_rate(scores, perf, orientation)
            except ZeroDivisionError:
                with pytest.raises(ValueError, match="pairs"):
                    selection_error_rate(scores, perf, orientation)
                continue
            assert selection_error_rate(scores, perf, orientation) == expected

    def test_two_infinite_scores_tie(self):
        # (inf, inf) makes no selection; only the pairs with the finite one count
        assert selection_error_rate([np.inf, np.inf, 0.0], [0.1, 0.9, 0.5],
                                    "higher_better") == 0.5

    @pytest.mark.parametrize("scores, perf", NAN_CASES)
    def test_nan_rejected(self, scores, perf):
        with pytest.raises(ValueError, match="NaN"):
            selection_error_rate(scores, perf, "higher_better")


class TestMaxRegret:
    def test_concordant_is_zero(self):
        assert max_regret([3.0, 2.0, 1.0], [0.9, 0.8, 0.7], "higher_better") == 0.0

    def test_single_inversion(self):
        assert max_regret([0.9, 0.5], [0.6, 0.63], "higher_better") == pytest.approx(0.03)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for scores, perf in ((rng.normal(size=6), rng.normal(size=6)),
                             tied_and_infinite(seed)):
            for orientation in ORIENTATIONS:
                assert max_regret(scores, perf, orientation) == brute_force_max_regret(
                    scores, perf, orientation
                )

    @pytest.mark.parametrize("scores, perf", NAN_CASES)
    def test_nan_rejected(self, scores, perf):
        with pytest.raises(ValueError, match="NaN"):
            max_regret(scores, perf, "lower_better")


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_match_average_rank_oracle(self):
        a = [1.0, 2.0, 2.0, 3.0]
        b = [1.0, 3.0, 2.0, 4.0]
        assert spearman_rho(a, b) == pytest.approx(brute_force_spearman(a, b))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_with_ties_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=10).astype(float)
        b = rng.integers(0, 4, size=10).astype(float)
        for a, b in ((a, b), tied_and_infinite(seed)):
            if len(set(a)) < 2 or len(set(b)) < 2:
                with pytest.raises(ValueError, match="constant"):
                    spearman_rho(a, b)
            else:
                assert spearman_rho(a, b) == brute_force_spearman(a, b)

    def test_invariant_under_increasing_transform(self):
        a = RNG.normal(size=8)
        b = RNG.normal(size=8)
        assert spearman_rho(np.exp(a), b) == pytest.approx(spearman_rho(a, b))

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman_rho([1.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize("a, b", NAN_CASES)
    def test_nan_rejected(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            spearman_rho(a, b)


class TestPerformanceTable:
    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PerformanceTable((("a", "t", 0.5, 0), ("a", "t", 0.6, 0)))

    def test_mean_over_seeds(self):
        table = PerformanceTable(
            (("a", "t", 0.4, 0), ("a", "t", 0.6, 1), ("b", "t", 0.9, 0))
        )
        assert table.mean_performance("t") == {"a": 0.5, "b": 0.9}


def _row(summary, measure):
    """The one summary row of ``measure`` (the tests use a single task)."""
    (row,) = (r for r in summary["rows"] if r["measure"] == measure)
    return row


def _reports(values_by_measure):
    # turn {measure: {cid: value}} into {cid: {measure: value}}
    out = {}
    for measure, per_cid in values_by_measure.items():
        for cid, v in per_cid.items():
            out.setdefault(cid, {})[measure] = v
    return out


class TestEvaluateMeasures:
    def test_perfectly_concordant_overlap(self):
        reports = _reports(
            {"eigenspace_overlap": {"a": 0.9, "b": 0.7, "c": 0.5}}
        )
        perf = PerformanceTable(
            (("a", "t", 0.9, 0), ("b", "t", 0.8, 0), ("c", "t", 0.7, 0))
        )
        summary = evaluate_measures(reports, perf)
        row = _row(summary, "eigenspace_overlap")
        assert row["abs_spearman"] == pytest.approx(1.0)
        assert row["selection_error_rate"] == 0.0
        assert row["max_regret"] == 0.0

    def test_inverted_table(self):
        reports = _reports({"eigenspace_overlap": {"a": 0.9, "b": 0.7, "c": 0.5}})
        perf = PerformanceTable(
            (("a", "t", 0.1, 0), ("b", "t", 0.2, 0), ("c", "t", 0.3, 0))
        )
        summary = evaluate_measures(reports, perf)
        row = _row(summary, "eigenspace_overlap")
        assert row["selection_error_rate"] == 1.0
        assert row["abs_spearman"] == pytest.approx(1.0)  # |rho| of a perfect reversal

    def test_mixed_table_matches_oracle(self):
        scores = {"a": 0.9, "b": 0.8, "c": 0.6, "d": 0.5, "e": 0.3, "f": 0.2}
        perfs = {"a": 0.75, "b": 0.8, "c": 0.6, "d": 0.65, "e": 0.5, "f": 0.55}
        reports = _reports({"pip_loss": {c: 1 - s for c, s in scores.items()}})
        perf = PerformanceTable(tuple((c, "t", p, 0) for c, p in perfs.items()))
        summary = evaluate_measures(reports, perf)
        row = _row(summary, "pip_loss")
        cids = sorted(scores)
        svec = [1 - scores[c] for c in cids]
        pvec = [perfs[c] for c in cids]
        assert row["selection_error_rate"] == pytest.approx(
            brute_force_error_rate(svec, pvec, "lower_better")
        )
        assert row["max_regret"] == pytest.approx(
            brute_force_max_regret(svec, pvec, "lower_better")
        )
        assert row["abs_spearman"] == pytest.approx(abs(brute_force_spearman(svec, pvec)))

    def test_seeds_averaged_before_ranking(self):
        reports = _reports({"eigenspace_overlap": {"a": 0.9, "b": 0.5}})
        perf = PerformanceTable(
            (
                ("a", "t", 1.0, 0),
                ("a", "t", 0.0, 1),  # noisy seeds averaging to 0.5
                ("b", "t", 0.4, 0),
            )
        )
        summary = evaluate_measures(reports, perf)
        assert _row(summary, "eigenspace_overlap")["selection_error_rate"] == 0.0

    def test_missing_joins_reported_not_fatal(self):
        reports = _reports({"eigenspace_overlap": {"a": 0.9, "b": 0.5, "zzz": 0.1}})
        perf = PerformanceTable(
            (("a", "t", 0.9, 0), ("b", "t", 0.6, 0), ("ghost", "t", 0.5, 0))
        )
        summary = evaluate_measures(reports, perf)
        assert summary["missing_reports"] == ["ghost"]
        assert summary["missing_performance"] == ["zzz"]
        assert _row(summary, "eigenspace_overlap")["n_candidates"] == 2

    def test_nan_value_raises(self):
        # a NaN score fails loudly instead of being ranked as a preference
        reports = _reports({"pip_loss": {"a": 0.1, "b": float("nan"), "c": 0.3}})
        perf = PerformanceTable((("a", "t", 0.9, 0), ("b", "t", 0.8, 0), ("c", "t", 0.7, 0)))
        with pytest.raises(ValueError, match="NaN"):
            evaluate_measures(reports, perf)

    def test_row_order_independent(self):
        reports = _reports({"delta": {"a": 0.9, "b": 0.5, "c": 0.7}})
        rows = (("a", "t", 0.5, 0), ("b", "t", 0.8, 0), ("c", "t", 0.6, 0))
        s1 = evaluate_measures(reports, PerformanceTable(rows))
        s2 = evaluate_measures(reports, PerformanceTable(rows[::-1]))
        assert s1 == s2
