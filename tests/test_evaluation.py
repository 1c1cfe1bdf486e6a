"""Tests for ROC computation, identified sets, overlap and aggregation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leakaudit.evaluation import (
    auroc,
    baseline_tpr,
    characteristic_analysis,
    identified_members,
    minority_tpr,
    overlap_analysis,
    overlap_fraction,
    roc_curve,
    star_level,
    threshold_at_fpr,
    tpr_at_fpr,
)


def make_scores(values, labels):
    """A score array and the boolean member vector aligned with it (label 1 = member)."""
    return np.asarray(values, dtype=float), np.asarray(labels) == 1


def ids_of(scores):
    """Candidate ids ``c0, c1, ...``, one per score."""
    return tuple(f"c{i}" for i in range(len(scores)))


def roc_brute_force(values, labels):
    """O(n^2) sweep over unique thresholds with the score >= t rule."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    n1 = int((labels == 1).sum())
    n0 = len(labels) - n1
    points = {(0.0, 0.0)}
    for t in np.unique(values):
        admitted = values >= t
        points.add((
            float((admitted & (labels == 0)).sum() / n0),
            float((admitted & (labels == 1)).sum() / n1),
        ))
    return points


class TestRoc:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[1] = 0, 1
            # coarse grid provokes ties
            values = rng.integers(0, 6, size=n).astype(float)
            roc = roc_curve(*make_scores(values, labels))
            got = {(float(f), float(t)) for f, t in zip(roc.fpr, roc.tpr)}
            assert got == roc_brute_force(values, labels)

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(1)
        roc = roc_curve(*make_scores(rng.normal(size=50), rng.integers(0, 2, size=50)))
        assert np.all(np.diff(roc.fpr) >= 0)
        assert np.all(np.diff(roc.tpr) >= 0)
        assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0
        assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0

    def test_ties_admitted_atomically(self):
        # one member and one non-member share the top score: admitting the
        # block yields FPR 0.5 immediately, so TPR at FPR=0 must be 0
        roc = roc_curve(*make_scores([2.0, 2.0, 1.0], [1, 0, 0]))
        assert tpr_at_fpr(roc, 0.0) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(*make_scores([1.0, 2.0], [1, 1]))

    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=2, max_size=30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_candidate_order_does_not_change_curve(self, rows, data):
        # a coarse score grid makes ties; within a tie block the candidates' order must not matter
        labels = [int(member) for _, member in rows]
        assume(0 < sum(labels) < len(labels))
        scores, is_member = make_scores([score for score, _ in rows], labels)
        perm = np.array(data.draw(st.permutations(range(len(rows)))))
        a, b = roc_curve(scores, is_member), roc_curve(scores[perm], is_member[perm])
        for got, want in ((b.thresholds, a.thresholds), (b.fpr, a.fpr), (b.tpr, a.tpr)):
            assert np.array_equal(got, want)


class TestTprAtFpr:
    def test_fpr_zero_is_strictly_above_all_nonmembers(self):
        roc = roc_curve(*make_scores([5.0, 4.0, 3.0, 2.0], [1, 1, 0, 1]))
        # two members above the best non-member score of 3
        assert tpr_at_fpr(roc, 0.0) == pytest.approx(2.0 / 3.0)

    def test_interpolation_never_exceeds_target(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=80)
        labels[:2] = [0, 1]
        roc = roc_curve(*make_scores(rng.normal(size=80), labels))
        for target in (0.0, 0.01, 0.1, 0.5):
            tpr = tpr_at_fpr(roc, target)
            ok = roc.fpr <= target + 1e-15
            assert tpr == float(roc.tpr[ok].max())

    def test_rejects_out_of_range(self):
        roc = roc_curve(*make_scores([1.0, 0.0], [1, 0]))
        with pytest.raises(ValueError):
            tpr_at_fpr(roc, 1.5)

    def test_threshold_realizes_tpr(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        values = rng.normal(size=40)
        scores, is_member = make_scores(values, labels)
        roc = roc_curve(scores, is_member)
        thr = threshold_at_fpr(roc, 0.0)
        ids = ids_of(scores)
        score_of = dict(zip(ids, scores))
        admitted_fp = sum(1 for r, i in enumerate(ids) if not is_member[r] and score_of[i] >= thr)
        assert admitted_fp == 0


class TestBaseline:
    def test_two_over_n(self):
        assert baseline_tpr(675) == pytest.approx(2.0 / 675.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            baseline_tpr(0)

    def test_monte_carlo_small(self):
        # random scores with a 2:1 member majority: mean TPR@FPR=0 is near
        # 2/N where N is the expected member count
        rng = np.random.default_rng(0)
        N, trials = 100, 2000
        total = round(1.5 * N)
        tprs = []
        for _ in range(trials):
            y = (rng.random(total) < 2.0 / 3.0).astype(int)
            if y.sum() in (0, total):
                continue
            s = rng.normal(size=total)
            top_non = s[y == 0].max()
            tprs.append(float((s[y == 1] > top_non).sum() / y.sum()))
        assert np.mean(tprs) == pytest.approx(2.0 / N, rel=0.2)


class TestIdentified:
    def test_members_above_threshold(self):
        scores, is_member = make_scores([5.0, 4.0, 3.0, 2.0], [1, 1, 0, 1])
        ident = identified_members(ids_of(scores), scores, is_member,
                                   threshold_at_fpr(roc_curve(scores, is_member), 0.0))
        assert ident == frozenset({"c0", "c1"})

    def test_no_false_positives_at_zero(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        scores, is_member = make_scores(rng.normal(size=60), labels)
        ids = ids_of(scores)
        ident = identified_members(ids, scores, is_member, threshold_at_fpr(roc_curve(scores, is_member), 0.0))
        score_of = dict(zip(ids, scores))
        top_non = max(score_of[i] for r, i in enumerate(ids) if not is_member[r])
        assert all(score_of[i] > top_non for i in ident)


class TestOverlap:
    def test_fraction_of_minimum(self):
        assert overlap_fraction({"a", "b", "c"}, {"b", "c", "d", "e"}) == pytest.approx(2.0 / 3.0)

    def test_empty_set_not_applicable(self):
        assert overlap_fraction(set(), {"a"}) is None

    def test_identical_sets_significant(self):
        pairs = [({"a", "b", "c"}, {"a", "b", "c"})] * 5
        result = overlap_analysis(pairs, omega_sizes=[100] * 5)
        assert result.observed_mean == 1.0
        assert result.p_value < 0.05
        assert result.stars != ""

    def test_skips_empty_pairs(self):
        pairs = [({"a"}, {"a"}), (set(), {"a"})]
        result = overlap_analysis(pairs, omega_sizes=[10, 10])
        assert result.n_skipped == 1
        assert len(result.observed) == 1

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            overlap_analysis([(set(), set())], omega_sizes=[10])

    def test_expected_fraction_is_hypergeometric_mean(self):
        pairs = [({"a", "b"}, {"c", "d", "e"})]
        result = overlap_analysis(pairs, omega_sizes=[10])
        # K=3 marked, n=2 drawn from 10: expected count 0.6, fraction 0.3
        assert result.expected[0] == pytest.approx(0.3)


class TestCharacteristic:
    def test_label_mode_positive_fraction(self):
        identified = [{"a", "b"}]
        members = [{"a", "b", "c", "d"}]
        values = {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0}
        result = characteristic_analysis(identified, members, values, mode="label")
        assert result.identified_summary == 1.0
        assert result.rest_summary == 0.0

    def test_metadata_mode_pools_across_reps(self):
        identified = [{"a"}, {"c"}]
        members = [{"a", "b"}, {"c", "d"}]
        values = {"a": 5.0, "b": 1.0, "c": 7.0, "d": 3.0}
        result = characteristic_analysis(identified, members, values, mode="metadata")
        assert result.identified_summary == pytest.approx(6.0)
        assert result.rest_summary == pytest.approx(2.0)

    def test_missing_values_rejected(self):
        with pytest.raises(KeyError):
            characteristic_analysis([{"a"}], [{"a", "b"}], {"a": 1.0})

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            characteristic_analysis([{"a"}], [{"a", "b"}], {"a": 1.0, "b": 0.0}, mode="nope")

    def test_all_skipped_rejected(self):
        with pytest.raises(ValueError):
            characteristic_analysis([set()], [{"a"}], {"a": 1.0})


class TestMinorityTpr:
    def test_threshold_from_full_challenge(self):
        # scores: members c0 (pos, top), c1 (neg), c3 (pos); non-member c2
        values = [5.0, 4.0, 3.0, 2.0]
        labels = [1, 1, 0, 1]
        scores, is_member = make_scores(values, labels)
        class_of = np.array([1, 0, 0, 1])  # c2, the non-member, is outside the minority count
        # minority among members is label 0 (one of three)
        assert minority_tpr(scores, is_member, class_of, threshold_at_fpr(roc_curve(scores, is_member), 0.0)) == 1.0

    def test_single_class_members_rejected(self):
        scores, is_member = make_scores([3.0, 2.0, 1.0], [1, 1, 0])
        with pytest.raises(ValueError):
            minority_tpr(scores, is_member, np.array([1, 1, 0]), threshold_at_fpr(roc_curve(scores, is_member), 0.0))


class TestAggregate:
    @pytest.mark.parametrize("p,stars", [
        (0.2, ""), (0.049, "*"), (0.009, "**"), (0.0009, "***"),
    ])
    def test_star_levels(self, p, stars):
        assert star_level(p) == stars


class TestAuroc:
    def test_matches_pair_counting(self):
        rng = np.random.default_rng(0)
        s = rng.integers(0, 5, size=30).astype(float)
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        pos = s[y == 1]
        neg = s[y == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert auroc(s, y) == pytest.approx(wins / (len(pos) * len(neg)))

    def test_perfect_separation(self):
        assert auroc([3.0, 2.0, 1.0, 0.0], [1, 1, 0, 0]) == 1.0

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariant(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=20)
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        assert auroc(np.exp(s), y) == pytest.approx(auroc(s, y))
