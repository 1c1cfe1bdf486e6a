"""Tests for the likelihood-ratio and robust membership attacks."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from leakaudit.attacks import (
    AttackScores,
    LiraParams,
    RmiaParams,
    rescale_confidence,
    run_lira,
    run_rmia,
)
from leakaudit.game import Challenge, TargetArtifacts
from leakaudit.nnet import TrainConfig, TrainedModel, init_model
from leakaudit.pipeline import save_scores
from leakaudit.stats import fit_gaussian
from oracles import lira_score, rmia_score

IDS = ("A", "B", "C")


def challenge_of(members, nonmembers, p_member):
    """A challenge of the given member and non-member rows, with the non-members as its population."""
    members, nonmembers = np.array(members), np.array(nonmembers)
    return Challenge(members=members, validation=members[:0], population=nonmembers, nonmembers=nonmembers,
                     p_member=p_member, seed=0)


CHALLENGE = challenge_of([0, 1], [2], 0.67)  # rows of IDS


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def by_id(table, ids=IDS):
    """The table's score of each candidate id; its rows follow ``ids``."""
    assert len(table.scores) == len(ids)
    return dict(zip(ids, table.scores.tolist()))


def flags_by_id(table, ids=IDS):
    """The table's flags keyed by candidate id instead of row."""
    return {ids[r]: reason for r, reason in table.flags.items()}


def make_artifacts(challenge, confidences):
    """A target's artifacts around an untrained model: the scores' CSV reads only the rows, challenge and members."""
    model = TrainedModel(model=init_model(1, TrainConfig(hidden_dims=(1,))), train_loss=0.0, val_losses=[],
                         best_epoch=0)
    return TargetArtifacts(model=model, confidences=np.asarray(confidences, dtype=float), challenge=challenge)


def make_fixture():
    """Three candidates (rows in ``IDS`` order), two shadows, confidences chosen for closed-form ratios.

    With variance_floor = 1, every single-observation Gaussian fit has unit
    variance, so log LR = ((o - mu_out)^2 - (o - mu_in)^2) / 2 exactly.
    Returns the target confidences, the (candidate x shadow) confidences,
    the inclusion mask and the expected scores.
    """
    # (target logit, in logit, out logit) per candidate
    logits = {
        "A": (0.0, 0.0, -2.0),   # log LR = 2
        "B": (0.0, 1.0, -1.0),   # log LR = 0
        "C": (1.0, 2.0, -2.0),   # log LR = 4
    }
    ids = IDS
    target_confs = np.array([sigmoid(logits[i][0]) for i in ids])
    # shadow 0 includes A and C; shadow 1 includes B
    mask = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.uint8)
    values = np.empty((3, 2))
    for r, i in enumerate(ids):
        _, in_logit, out_logit = logits[i]
        values[r, mask[r].argmax()] = sigmoid(in_logit)
        values[r, 1 - mask[r].argmax()] = sigmoid(out_logit)
    expected = {"A": 2.0, "B": 0.0, "C": 4.0}
    return target_confs, values, mask, expected


def misaligned(target, values, *mask):
    """Each array cut short in turn, so that its shape disagrees with the others; the mask only if given."""
    cases = [(target[1:], values, *mask), (target, values[1:], *mask)]
    return cases + [(target, values, m[:, :1]) for m in mask]


class TestRescale:
    def test_logit_of_half_is_zero(self):
        assert rescale_confidence(0.5) == 0.0

    def test_antisymmetry(self):
        assert rescale_confidence(0.8) == pytest.approx(-rescale_confidence(0.2))

    def test_clipping_bounds_extremes(self):
        hi = rescale_confidence(1.0, eps=1e-6)
        assert hi == pytest.approx(math.log((1 - 1e-6) / 1e-6))
        assert rescale_confidence(0.0, eps=1e-6) == pytest.approx(-hi)

    @given(st.floats(1e-5, 1 - 1e-5))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, p):
        assert rescale_confidence(p + 1e-6) > rescale_confidence(p)


class TestLiraScore:
    def test_closed_form_unit_variance(self):
        # o = 0, in fit N(0,1), out fit N(-2,1): log LR = 2
        score = lira_score(0.0, [0.0], [-2.0], LiraParams(variance_floor=1.0))
        assert score == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_fits_give_unit_ratio(self):
        # LR = 1, so log LR = 0
        score = lira_score(0.5, [1.0], [0.0], LiraParams(variance_floor=1.0))
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_multi_sample_fits(self):
        o_in = [1.0, 2.0, 3.0]
        o_out = [-1.0, 0.0, 1.0]
        score = lira_score(2.0, o_in, o_out)
        var = 1.0  # both samples have unbiased variance 1
        expected = ((2.0 - 0.0) ** 2 - (2.0 - 2.0) ** 2) / (2 * var)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LiraParams(clip_eps=0.7)
        with pytest.raises(ValueError):
            LiraParams(variance_floor=0.0)


class TestRunLira:
    def test_hand_fixture_exact(self):
        target, values, mask, expected = make_fixture()
        table = run_lira(target, values, mask, LiraParams(variance_floor=1.0))
        got = by_id(table)
        for i, value in expected.items():
            assert got[i] == pytest.approx(value, abs=1e-10)
        assert table.flags == {}

    def test_no_out_shadow_uses_pooled_fallback(self):
        target, values, mask, _ = make_fixture()
        mask[0] = [1, 1]  # candidate A now has no out-shadow
        table = run_lira(target, values, mask, LiraParams(variance_floor=1.0))
        assert flags_by_id(table) == {"A": "no_out_shadow"}
        # fallback fits the pooled out logits of B and C: mean -1.5, floored var 1;
        # A's in-fit now covers both shadows: logits (0, -2), mean -1, variance 2
        o = 0.0
        pooled_mean, pooled_var = -1.5, 1.0
        mu_in, var_in = -1.0, 2.0
        log_num = -0.5 * math.log(2 * math.pi * var_in) - (o - mu_in) ** 2 / (2 * var_in)
        log_den = -0.5 * math.log(2 * math.pi * pooled_var) - (o - pooled_mean) ** 2 / (2 * pooled_var)
        assert by_id(table)["A"] == pytest.approx(log_num - log_den, abs=1e-10)

    def test_no_in_shadow_flagged(self):
        target, values, mask, _ = make_fixture()
        mask[1] = [0, 0]
        table = run_lira(target, values, mask, LiraParams(variance_floor=1.0))
        assert flags_by_id(table) == {"B": "no_in_shadow"}

    def test_global_variance_mode(self):
        rng = np.random.default_rng(0)
        n, k = 12, 6
        ids = tuple(f"c{i}" for i in range(n))
        values = rng.uniform(0.2, 0.8, size=(n, k))
        mask = np.zeros((n, k), dtype=np.uint8)
        mask[:, : k // 2] = 1
        target = rng.uniform(0.2, 0.8, n)
        table = run_lira(target, values, mask, LiraParams(global_variance=True))
        got = by_id(table, ids)

        # shared variance: log LR reduces to a distance difference over one sigma^2
        logits = rescale_confidence(values)
        residuals = np.concatenate([
            logits[r, half] - logits[r, half].mean()
            for r in range(n)
            for half in (slice(None, k // 2), slice(k // 2, None))
        ])
        gv = float(residuals @ residuals / (residuals.size - 1))
        for r, i in enumerate(ids):
            o = rescale_confidence(target[r])
            mu_in = logits[r, : k // 2].mean()
            mu_out = logits[r, k // 2 :].mean()
            expected = ((o - mu_out) ** 2 - (o - mu_in) ** 2) / (2 * gv)
            assert got[i] == pytest.approx(expected, abs=1e-10)

    def test_scores_finite_and_complete(self):
        target, values, mask, _ = make_fixture()
        table = run_lira(target, values, mask)
        assert set(by_id(table)) == {"A", "B", "C"}
        assert all(math.isfinite(s) for s in by_id(table).values())

    def test_misaligned_target_rejected(self):
        for target, values, mask in misaligned(*make_fixture()[:3]):
            with pytest.raises(ValueError, match="not aligned"):
                run_lira(target, values, mask)


class TestRmiaScore:
    def test_counting_fixture_scores_half(self):
        # ratio_m = 0.75 / mean(0.5, 0.25) = 2, so ratio_m / gamma = 1 at gamma=2;
        # z ratios 0.5/0.7 = 0.714 and 0.8/0.25 = 3.2: only the first is <= 1, score 1/2
        score = rmia_score(
            target_conf=0.75,
            shadow_confs=np.array([0.5, 0.25]),
            z_target_confs=np.array([0.5, 0.8]),
            z_shadow_confs=np.array([[0.9, 0.5], [0.1, 0.4]]),
            gamma=2.0,
        )
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_empty_z_rejected(self):
        with pytest.raises(ValueError):
            rmia_score(0.5, np.array([0.5]), np.array([]), np.zeros((0, 1)))

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            RmiaParams(gamma=0.0)

    @given(st.floats(0.5, 4.0), st.floats(0.5, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_score_non_increasing_in_gamma(self, g1, g2):
        lo, hi = sorted([g1, g2])
        rng = np.random.default_rng(0)
        args = dict(
            target_conf=0.7,
            shadow_confs=rng.uniform(0.1, 0.9, size=4),
            z_target_confs=rng.uniform(0.1, 0.9, size=8),
            z_shadow_confs=rng.uniform(0.1, 0.9, size=(8, 4)),
        )
        assert rmia_score(**args, gamma=lo) >= rmia_score(**args, gamma=hi)


class TestRunRmia:
    def make_z_fixture(self):
        """The LiRA fixture's confidences, then two Z points: the (Z x shadow) and the target's Z confidences."""
        target, values, _, _ = make_fixture()
        return target, values, np.array([[0.9, 0.5], [0.1, 0.4]]), np.array([0.5, 0.8])

    def test_hand_fixture(self):
        target, values, z_shadow, z_target = self.make_z_fixture()
        table = run_rmia(target, values, z_shadow, z_target)
        # candidate A: conf 0.5, shadows (0.5, sigma(-2)), so ratio_m / 2 = 0.807;
        # Pr(z) averages both shadows: z ratios 0.5/0.7 = 0.714 and 0.8/0.25 = 3.2
        assert by_id(table)["A"] == 0.5
        assert set(by_id(table)) == {"A", "B", "C"}

    def test_z_ratio_equal_to_the_candidates_counts(self):
        # ratio_m = 0.5 / mean(0.25, 0.25) = 2, so ratio_m / gamma = 1 at gamma=2;
        # z ratios 0.5/0.5 = 1 and 0.5/0.25 = 2, all exact in binary: the tie at 1 counts, score 1/2
        table = run_rmia(np.array([0.5]), np.array([[0.25, 0.25]]), np.array([[0.5, 0.5], [0.25, 0.25]]),
                         np.array([0.5, 0.5]), RmiaParams(gamma=2.0))
        assert table.scores.tolist() == [0.5]

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    @settings(max_examples=50, deadline=None)
    def test_scores_follow_the_candidates_own_ratio(self, seed, gamma):
        """A candidate with a higher ratio_m never scores lower, whatever gamma."""
        rng = np.random.default_rng(seed)
        n, n_z, k = 30, 20, 4
        target, values = rng.uniform(1e-4, 1, n), rng.uniform(1e-4, 1, (n, k))
        table = run_rmia(target, values, rng.uniform(1e-4, 1, (n_z, k)), rng.uniform(1e-4, 1, n_z),
                         RmiaParams(gamma=gamma))
        order = np.argsort(target / values.mean(axis=1))
        assert (np.diff(table.scores[order]) >= 0).all()

    def test_empty_z_rejected(self):
        target, values, _, _ = self.make_z_fixture()
        with pytest.raises(ValueError):
            run_rmia(target, values, np.zeros((0, 2)), np.array([]))

    @pytest.mark.parametrize("columns", [1, 3])
    def test_z_table_needs_a_column_per_shadow(self, columns):
        target, values, z_shadow, z_target = self.make_z_fixture()
        with pytest.raises(ValueError, match="a column for each of the 2 shadows"):
            run_rmia(target, values, np.resize(z_shadow, (2, columns)), z_target)

    def test_misaligned_target_rejected(self):
        target, values, z_shadow, z_target = self.make_z_fixture()
        for args in misaligned(target, values):
            with pytest.raises(ValueError, match="not aligned"):
                run_rmia(*args, z_shadow, z_target)

    def test_memory_stays_linear_in_candidates_and_z(self):
        """No temporary grows with candidates x Z: here one such float64 array would take 80 GB."""
        n, n_z, k = 200_000, 50_000, 4
        rng = np.random.default_rng(0)
        args = (rng.uniform(0.01, 1, n), rng.uniform(0.01, 1, (n, k)), rng.uniform(0.01, 1, (n_z, k)),
                rng.uniform(0.01, 1, n_z))
        input_bytes = sum(a.nbytes for a in args)
        tracemalloc.start()
        try:
            run_rmia(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * input_bytes


class TestScoreTable:
    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            AttackScores(scores=np.array([float("inf")]))

    @pytest.mark.parametrize("scores", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [1.0, float("nan")]])
    def test_scores_array_must_match_ids(self, scores, tmp_path):
        challenge = challenge_of([0], [1], 0.5)
        artifacts = make_artifacts(challenge, [0.5, 0.5])
        with pytest.raises(ValueError):
            save_scores(AttackScores(scores=np.array(scores)), tmp_path / "scores.csv", artifacts, ("a", "b"))
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("ids", [("n1", "m1", "m2"), ("n,1", 'm "1"', "m\n2")], ids=["plain", "quoted"])
    def test_save_scores_writes_challenge_order(self, tmp_path, ids):
        """Ids with a comma, a quote or a line break read back; every line ends with a lone \\n."""
        challenge = challenge_of([2, 1], [0], 0.67)
        artifacts = make_artifacts(challenge, [0.5, 0.5, 0.5])
        table = AttackScores(scores=np.array([0.25, 0.5, 0.75]), flags={1: "no_out_shadow"})
        save_scores(table, tmp_path / "scores.csv", artifacts, ids)
        assert b"\r" not in (tmp_path / "scores.csv").read_bytes()
        with open(tmp_path / "scores.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["id", "score", "is_member", "flags"], [ids[2], "0.75", "1", ""],
                        [ids[1], "0.5", "1", "no_out_shadow"], [ids[0], "0.25", "0", ""]]

    def test_save_load_round_trip(self, tmp_path):
        target, values, mask, _ = make_fixture()
        table = run_lira(target, values, mask, LiraParams(variance_floor=1.0))
        path = tmp_path / "scores.csv"
        save_scores(table, path, make_artifacts(CHALLENGE, target), IDS)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["id"]: float(r["score"]) for r in rows} == by_id(table)
        assert {r["id"] for r in rows if r["is_member"] == "1"} == {IDS[r] for r in CHALLENGE.members}
        assert {r["id"]: r["flags"] for r in rows if r["flags"]} == flags_by_id(table)


# --- the array attacks against the per-candidate oracles --------------------


@st.composite
def attack_inputs(draw):
    """Random confidences with a mask that includes all-in and all-out rows."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row_kind = draw(st.lists(st.sampled_from(["random", "all_in", "all_out", "one_in", "one_out"]),
                             min_size=n, max_size=n))
    mask = (rng.random((n, k)) < 0.5).astype(np.uint8)
    for r, kind in enumerate(row_kind):
        if kind in ("all_in", "all_out"):
            mask[r] = kind == "all_in"
        elif kind in ("one_in", "one_out"):
            mask[r] = kind == "one_out"
            mask[r, rng.integers(k)] = kind == "one_in"
    values = rng.uniform(1e-4, 1 - 1e-4, size=(n, k))
    ids = tuple(f"c{r}" for r in range(n))
    target = rng.uniform(1e-4, 1 - 1e-4, n)
    return ids, target, values, mask


def lira_oracle(ids, target, values, mask, params):
    """Candidate by candidate with fit_gaussian, as LiRA is defined; (scores, flags) keyed by id."""
    logits = rescale_confidence(values, params.clip_eps)
    inside = mask.astype(bool)
    pooled = fit_gaussian(logits[~inside], floor=params.variance_floor) if (~inside).any() else None
    global_var = None
    if params.global_variance:
        res = [side - side.mean() for r in range(len(ids))
               for side in (logits[r][inside[r]], logits[r][~inside[r]]) if side.size >= 2]
        if res:
            pooled_res = np.concatenate(res)
            global_var = max(float(pooled_res @ pooled_res) / (pooled_res.size - 1), params.variance_floor)
    scores, flags = {}, {}
    for r, i in enumerate(ids):
        o = rescale_confidence(target[r], params.clip_eps)
        fits = []
        for name, side in (("no_in_shadow", logits[r][inside[r]]), ("no_out_shadow", logits[r][~inside[r]])):
            if side.size == 0:
                fits.append((pooled.mean, pooled.variance))
                flags[i] = name
            else:
                g = fit_gaussian(side, floor=params.variance_floor)
                fits.append((g.mean, global_var if global_var is not None else g.variance))
        (mu_in, var_in), (mu_out, var_out) = fits
        scores[i] = (-0.5 * math.log(var_in) - (o - mu_in) ** 2 / (2 * var_in)
                     + 0.5 * math.log(var_out) + (o - mu_out) ** 2 / (2 * var_out))
        if i not in flags and global_var is None:
            assert scores[i] == pytest.approx(
                lira_score(o, logits[r][inside[r]], logits[r][~inside[r]], params), rel=1e-9, abs=1e-9)
    return scores, flags


class TestArrayAttacksMatchOracles:
    @given(attack_inputs(), st.booleans(), st.sampled_from([1e-6, 1e-2, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_run_lira_matches_lira_score(self, inputs, global_variance, floor):
        ids, target, values, mask = inputs
        params = LiraParams(variance_floor=floor, global_variance=global_variance)
        if not (mask == 0).any():
            with pytest.raises(ValueError, match="no pooled fallback"):
                run_lira(target, values, mask, params)
            return
        table = run_lira(target, values, mask, params)
        scores, flags = lira_oracle(ids, target, values, mask, params)
        assert flags_by_id(table, ids) == flags
        got = by_id(table, ids)
        for i in ids:
            # a log ratio reaches 1e7 at a tiny floor, so the tolerance is relative there
            assert got[i] == pytest.approx(scores[i], rel=1e-9, abs=1e-9)

    @given(st.data(), st.integers(1, 40), st.integers(1, 8), st.integers(1, 12), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_run_rmia_matches_rmia_score_with_ties(self, data, n, k, n_z, gamma):
        """Confidences on a grid of eighths make ratio_z == ratio_m / gamma happen; both sides must count them."""
        def confidences(*shape):
            return data.draw(arrays(np.float64, shape, elements=st.integers(1, 8).map(lambda i: i / 8)))

        target, values, z_target, z_shadow = confidences(n), confidences(n, k), confidences(n_z), confidences(n_z, k)
        table = run_rmia(target, values, z_shadow, z_target, RmiaParams(gamma=gamma))
        expected = [rmia_score(target[r], values[r], z_target, z_shadow, gamma=gamma) for r in range(n)]
        assert table.scores.tolist() == expected
        assert table.flags == {}
