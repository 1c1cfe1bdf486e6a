"""Tests for challenge construction, the target's game and shadow ensembles."""

import json
from dataclasses import replace

import numpy as np
import pytest

from leakaudit import game
from leakaudit.game import (
    Challenge,
    GameConfig,
    ShadowParams,
    TargetArtifacts,
    assign_membership,
    collect_confidences,
    draw_challenge,
    draw_shadows,
    load_challenge,
    run_game,
    save_challenge,
    save_manifest,
    target_job,
    train_shadow_ensemble,
)
from leakaudit.nnet import TrainConfig, fit
from leakaudit.parallel import FitHelpers
from leakaudit.synth import SynthSpec, synth_dataset

FAST_CFG = TrainConfig(hidden_dims=(4,), dropout_rate=0.0, learning_rate=1e-2,
                       max_epochs=3, patience=3, seed=0)
NO_HELPERS = FitHelpers(0)


def play(dataset, cfg, game_cfg, seed):
    """A repetition's game in-process: draw the challenge, fit the target, query it on the candidates."""
    split, challenge = draw_challenge(dataset, game_cfg, seed)
    return run_game(dataset, split, challenge, fit(*target_job(dataset, split, cfg, seed)))


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0))


@pytest.fixture(scope="module")
def artifacts(dataset):
    return play(dataset, replace(FAST_CFG, fixed_epochs=3), GameConfig(), 5)


@pytest.fixture(scope="module")
def ensemble(dataset, artifacts):
    pool, candidates = artifacts.split.population_ids, artifacts.challenge.candidate_ids
    return train_shadow_ensemble(dataset, pool, candidates, ShadowParams(count=4, epochs=2), FAST_CFG, 11,
                                 NO_HELPERS)


class TestChallenge:
    def test_rejects_overlapping_sets(self):
        with pytest.raises(ValueError):
            Challenge(member_ids=("a",), nonmember_ids=("a",), p_member=0.5, seed=0)

    def test_candidate_ids_list_members_first(self):
        ch = Challenge(member_ids=("b", "a"), nonmember_ids=("c",), p_member=0.67, seed=0)
        assert ch.candidate_ids == ("b", "a", "c")

    def test_save_load_round_trip(self, artifacts, tmp_path):
        save_challenge(artifacts.challenge, tmp_path / "challenge.json")
        assert load_challenge(tmp_path / "challenge.json") == artifacts.challenge


class TestRecipes:
    @pytest.mark.parametrize("kwargs", [
        {"count": 1},
        {"inclusion_rate": 0.0},
        {"inclusion_rate": 1.0},
        {"epochs": 0},
        {"z_fraction": 0.0},
        {"z_fraction": 1.0},
        {"z_cap": 0},
        {"z_cap": -1},
    ])
    def test_shadow_params_reject_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ShadowParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"p_member": 0.0},
        {"p_member": 1.5},
        {"fractions": (0.6, 0.1, 0.45)},
        {"fractions": (1.1, -0.1, 0.0)},
        {"fractions": (0.5, 0.5)},
    ])
    def test_game_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GameConfig(**kwargs)

    def test_every_broken_rule_reported(self):
        with pytest.raises(ValueError) as exc:
            ShadowParams(count=1, epochs=0)
        assert [name for name, _ in exc.value.problems] == ["count", "epochs"]


class TestAssignMembership:
    def test_deterministic(self):
        ids = [f"s{i}" for i in range(50)]
        assert assign_membership(ids, 0.67, 3) == assign_membership(ids, 0.67, 3)

    def test_ratio_approximate(self):
        ids = [f"s{i}" for i in range(5000)]
        ch = assign_membership(ids, 0.67, 0)
        assert len(ch.member_ids) / 5000 == pytest.approx(0.67, abs=0.03)

    def test_partition_complete(self):
        ids = [f"s{i}" for i in range(30)]
        ch = assign_membership(ids, 0.5, 1)
        assert sorted(ch.candidate_ids) == sorted(ids)

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            assign_membership([], 0.5, 0)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            assign_membership(["a"], 1.5, 0)


class TestRunGame:
    def test_members_are_training_split(self, artifacts):
        assert set(artifacts.challenge.member_ids) == set(artifacts.split.train_ids)

    def test_nonmembers_come_from_population(self, artifacts):
        assert set(artifacts.challenge.nonmember_ids) <= set(artifacts.split.population_ids)

    def test_p_member_ratio(self, artifacts):
        n_mem = len(artifacts.challenge.member_ids)
        n_non = len(artifacts.challenge.nonmember_ids)
        assert n_non == round(n_mem * 0.33 / 0.67)

    def test_confidences_cover_all_candidates(self, dataset, artifacts):
        # one entry per candidate, in dataset order
        assert artifacts.ids == dataset.subset(artifacts.challenge.candidate_ids).ids
        assert artifacts.confidences.shape == (len(artifacts.ids),)
        assert np.all((artifacts.confidences > 0.0) & (artifacts.confidences < 1.0))

    def test_confidences_must_match_ids(self, artifacts):
        with pytest.raises(ValueError):
            TargetArtifacts(model=artifacts.model, ids=artifacts.ids, confidences=artifacts.confidences[1:],
                            challenge=artifacts.challenge, split=artifacts.split)

    @pytest.mark.parametrize("edit", ["drop", "foreign", "repeat"])
    def test_ids_must_be_the_challenge_candidates(self, artifacts, edit):
        ids = {"drop": artifacts.ids[1:], "foreign": ("x",) + artifacts.ids[1:],
               "repeat": artifacts.ids[:1] + artifacts.ids[:-1]}[edit]
        with pytest.raises(ValueError, match="challenge candidates"):
            TargetArtifacts(model=artifacts.model, ids=ids, confidences=artifacts.confidences[:len(ids)],
                            challenge=artifacts.challenge, split=artifacts.split)

    def test_is_member_marks_the_members(self, artifacts):
        assert artifacts.is_member.dtype == bool
        assert {i for i, m in zip(artifacts.ids, artifacts.is_member) if m} == set(artifacts.challenge.member_ids)

    def test_deterministic(self, dataset):
        a = play(dataset, replace(FAST_CFG, fixed_epochs=3), GameConfig(), 5)
        b = play(dataset, replace(FAST_CFG, fixed_epochs=3), GameConfig(), 5)
        assert a.challenge == b.challenge
        assert a.ids == b.ids
        assert np.array_equal(a.confidences, b.confidences)

    def test_population_too_small(self, dataset):
        game = GameConfig(p_member=0.2, fractions=(0.7, 0.1, 0.2))
        with pytest.raises(ValueError):
            draw_challenge(dataset, game, 0)

    def test_challenge_without_a_non_member_is_refused(self, dataset):
        """round(108 * 0.001 / 0.999) == 0: a challenge of members only has no ROC."""
        with pytest.raises(ValueError, match="p_member 0.999 leaves no non-member"):
            draw_challenge(dataset, GameConfig(p_member=0.999), 0)

    def test_overfit_target_separates_members(self, dataset):
        cfg = TrainConfig(hidden_dims=(16,), dropout_rate=0.0, weight_decay=0.0,
                          learning_rate=1e-2, max_epochs=40, patience=40, fixed_epochs=40, seed=0)
        art = play(dataset, cfg, GameConfig(), 2)
        member = np.isin(art.ids, art.challenge.member_ids)
        assert np.mean(art.confidences[member]) > np.mean(art.confidences[~member])


class TestShadowEnsemble:
    def test_mask_dimensions(self, ensemble):
        assert ensemble.mask.shape == (len(ensemble.ids), 4)
        assert len(ensemble.models) == 4
        assert len(ensemble.shadow_seeds) == 4

    def test_z_ids_are_disjoint_from_the_universe(self, ensemble):
        assert ensemble.z.ids
        assert not set(ensemble.z.ids) & set(ensemble.ids)
        assert (ensemble.rows(ensemble.z.ids) == -1).all()

    def test_z_dataset_holds_the_z_rows(self, dataset, ensemble):
        assert np.array_equal(ensemble.z.X, dataset.X[dataset.rows(ensemble.z.ids)])
        assert np.array_equal(ensemble.z.y, dataset.y[dataset.rows(ensemble.z.ids)])

    def test_z_excludes_candidates(self, ensemble, artifacts):
        assert not set(ensemble.z.ids) & set(artifacts.challenge.candidate_ids)

    def test_z_size(self, dataset, artifacts, ensemble):
        pool = dataset.subset(artifacts.split.population_ids)
        assert len(ensemble.z.ids) == round(0.25 * len(pool))

    def test_z_cap(self, dataset, artifacts):
        pool, candidates = artifacts.split.population_ids, artifacts.challenge.candidate_ids
        ens = train_shadow_ensemble(dataset, pool, candidates, ShadowParams(count=2, epochs=1, z_cap=5), FAST_CFG,
                                    0, NO_HELPERS)
        assert len(ens.z.ids) == 5

    def test_every_shadow_saw_two_classes(self, dataset, ensemble):
        label = dict(zip(dataset.ids, dataset.y.tolist()))
        for j in range(ensemble.k):
            included = [i for i, row in zip(ensemble.ids, ensemble.mask) if row[j]]
            assert {label[i] for i in included} == {0, 1}

    def test_deterministic(self, dataset, artifacts):
        pool, candidates = artifacts.split.population_ids, artifacts.challenge.candidate_ids
        e1 = train_shadow_ensemble(dataset, pool, candidates, ShadowParams(count=3, epochs=2), FAST_CFG, 4,
                                   NO_HELPERS)
        e2 = train_shadow_ensemble(dataset, pool, candidates, ShadowParams(count=3, epochs=2), FAST_CFG, 4,
                                   NO_HELPERS)
        assert np.array_equal(e1.mask, e2.mask)
        assert e1.z.ids == e2.z.ids
        for m1, m2 in zip(e1.models, e2.models):
            for w1, w2 in zip(m1.model.weights, m2.model.weights):
                assert np.array_equal(w1, w2)

    def test_shadow_epochs_respected(self, ensemble):
        for m in ensemble.models:
            assert len(m.train_losses) == 2

    def test_rejects_tiny_k(self, dataset):
        with pytest.raises(ValueError):
            train_shadow_ensemble(dataset, dataset.ids, dataset.ids, ShadowParams(count=1), FAST_CFG, 0, NO_HELPERS)

    @pytest.mark.parametrize("pool_rows,candidate_rows", [
        (2, None),  # round(0.25 * 2) == 0 Z points; None: every candidate lies outside the pool
        (40, 40),  # every pool sample is a candidate, so none may join Z
    ])
    def test_pool_without_z_point_rejected_before_training(self, dataset, monkeypatch,
                                                           pool_rows, candidate_rows):
        fits = []
        monkeypatch.setattr(game, "fit", lambda *args: fits.append(args))
        pool = dataset.ids[:pool_rows]
        candidates = dataset.ids[200:240] if candidate_rows is None else dataset.ids[:candidate_rows]
        with pytest.raises(ValueError, match="no Z point"):
            train_shadow_ensemble(dataset, pool, candidates, ShadowParams(count=2, epochs=1), FAST_CFG, 0,
                                  NO_HELPERS)
        assert fits == []

    def test_the_draw_is_what_the_shadows_train_on(self, dataset, artifacts, ensemble, monkeypatch):
        """``draw_shadows`` alone draws what ``train_shadow_ensemble`` trains: universe, mask, Z and seeds."""
        jobs = []
        monkeypatch.setattr(game, "fit", lambda *job: jobs.append(job))
        plan = draw_shadows(dataset, artifacts.split.population_ids, artifacts.challenge.candidate_ids,
                            ShadowParams(count=4, epochs=2), 11)
        assert plan.manifest() == ensemble.manifest()
        assert (plan.ids, plan.z) == (ensemble.ids, ensemble.z)
        train_shadow_ensemble(dataset, artifacts.split.population_ids, artifacts.challenge.candidate_ids,
                              ShadowParams(count=4, epochs=2), FAST_CFG, 11, NO_HELPERS)
        assert len(jobs) == 4
        for j, (train, validation, cfg) in enumerate(jobs):
            assert train.ids == tuple(i for i, bit in zip(plan.ids, plan.mask[:, j]) if bit)
            assert validation == plan.z
            assert (cfg.seed, cfg.fixed_epochs) == (plan.shadow_seeds[j], 2)


class TestConfidences:
    def test_matrix_aligned_with_mask(self, dataset, artifacts, ensemble):
        candidates = dataset.subset(artifacts.challenge.candidate_ids)
        values, mask = collect_confidences(ensemble, candidates)
        assert values.shape == (len(candidates), ensemble.k)
        row = {i: r for r, i in enumerate(ensemble.ids)}
        for r, sample_id in enumerate(candidates.ids):
            assert np.array_equal(mask[r], ensemble.mask[row[sample_id]])

    def test_values_in_open_interval(self, dataset, artifacts, ensemble):
        candidates = dataset.subset(artifacts.challenge.candidate_ids)
        values, _ = collect_confidences(ensemble, candidates)
        assert np.all((values > 0.0) & (values < 1.0))


class TestManifest:
    def test_manifest_round_trip(self, ensemble, tmp_path):
        path = tmp_path / "manifest.json"
        save_manifest(ensemble, path)
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest == ensemble.manifest()
        assert manifest["seed"] == ensemble.seed
        assert tuple(manifest["z_ids"]) == ensemble.z.ids
        assert all(isinstance(row, str) and len(row) == ensemble.k for row in manifest["mask"])
        decoded = np.array([[int(c) for c in row] for row in manifest["mask"]], dtype=np.uint8)
        assert np.array_equal(decoded, ensemble.mask)
        assert manifest["checkpoints"] == ["shadow_00.npz", "shadow_01.npz", "shadow_02.npz", "shadow_03.npz"]
