"""Tests for challenge construction, the target's game and shadow ensembles."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from leakaudit import game, nnet
from leakaudit.game import (
    Challenge,
    GameConfig,
    ShadowParams,
    TargetArtifacts,
    collect_confidences,
    draw_challenge,
    draw_shadows,
    run_game,
    fit_batch,
    target_job,
    train_shadow_ensemble,
)
from leakaudit.nnet import TrainConfig, fit, stack_capacity
from leakaudit.parallel import FitHelpers
from leakaudit.pipeline import save_manifest
from leakaudit.seeds import derive_rng, derive_seed
from leakaudit.synth import SynthSpec, synth_dataset
from oracles import assign_membership

FAST_CFG = TrainConfig(hidden_dims=(4,), dropout_rate=0.0, learning_rate=1e-2,
                       max_epochs=3, patience=3, seed=0)
NO_HELPERS = FitHelpers(0)


def play(dataset, cfg, game_cfg, seed):
    """A repetition's game in-process: draw the challenge, fit the target, query it on the candidates."""
    challenge = draw_challenge(dataset, game_cfg, seed)
    return run_game(dataset, challenge, fit_batch(dataset, [target_job(challenge, cfg)], NO_HELPERS)[0])


def train_shadows(dataset, challenge, shadow, cfg, seed):
    """The shadows that ``draw_shadows`` draws for ``challenge`` under ``seed``, trained in-process."""
    plan = draw_shadows(dataset, challenge.population, challenge.candidates, shadow, seed)
    return train_shadow_ensemble(dataset, plan, cfg, NO_HELPERS)[0]


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0))


@pytest.fixture(scope="module")
def artifacts(dataset):
    return play(dataset, replace(FAST_CFG, fixed_epochs=3), GameConfig(), 5)


@pytest.fixture(scope="module")
def ensemble(dataset, artifacts):
    return train_shadows(dataset, artifacts.challenge, ShadowParams(count=4, epochs=2), FAST_CFG, 11)


def assert_each_shadow_fits_as_alone(dataset, ensemble, cfg, epochs):
    """Each shadow's model, losses and best epoch are those :func:`fit` gives it on its training rows alone."""
    z = dataset.take(ensemble.z)
    for j, stacked in enumerate(ensemble.models):
        rows = ensemble.universe[ensemble.mask[:, j] == 1]
        model = fit(dataset.take(rows), z, replace(cfg, seed=ensemble.shadow_seeds[j], fixed_epochs=epochs))
        assert stacked.model.params.tobytes() == model.model.params.tobytes(), j
        assert stacked.train_loss == model.train_loss and stacked.val_losses == model.val_losses, j
        assert stacked.best_epoch == model.best_epoch, j


def same_challenge(a, b):
    return np.array_equal(a.members, b.members) and np.array_equal(a.nonmembers, b.nonmembers)


def challenge_of(members, validation, population, nonmembers):
    return Challenge(members=np.array(members, dtype=int), validation=np.array(validation, dtype=int),
                     population=np.array(population, dtype=int), nonmembers=np.array(nonmembers, dtype=int),
                     p_member=0.5, seed=0)


class TestChallenge:
    @pytest.mark.parametrize("groups", [
        ([0], [], [0], [0]),  # a member is also a population row
        ([0], [1], [2], [1]),  # a non-member outside the population
        ([0], [1, 1], [2], [2]),  # a validation row twice
    ])
    def test_rejects_overlapping_groups(self, groups):
        with pytest.raises(ValueError, match="disjoint"):
            challenge_of(*groups)

    def test_candidate_ids_list_members_first(self):
        ch = challenge_of([1, 0], [3], [2, 4], [2])
        assert ch.candidates.tolist() == [1, 0, 2]
        assert ch.record(("a", "b", "c"))["member_ids"] == ["b", "a"]


class TestDrawChallenge:
    def test_sizes_and_disjointness(self, dataset):
        ch = draw_challenge(dataset, GameConfig(fractions=(0.45, 0.10, 0.45)), 3)
        assert (len(ch.members), len(ch.validation), len(ch.population)) == (108, 24, 108)
        rows = np.concatenate([ch.members, ch.validation, ch.population])
        assert sorted(rows.tolist()) == list(range(len(dataset)))

    def test_remainder_goes_to_population(self):
        ds = synth_dataset(SynthSpec(n=23, dim=2, seed=0))
        ch = draw_challenge(ds, GameConfig(p_member=0.5, fractions=(0.45, 0.10, 0.45)), 0)
        # floor(10.35)=10, floor(2.3)=2, remainder 11
        assert (len(ch.members), len(ch.validation), len(ch.population)) == (10, 2, 11)

    def test_deterministic_under_seed(self, dataset):
        def rows(seed):
            ch = draw_challenge(dataset, GameConfig(fractions=(0.5, 0.2, 0.3)), seed)
            return np.concatenate([ch.members, ch.validation, ch.population, ch.nonmembers])

        assert np.array_equal(rows(9), rows(9))
        assert not np.array_equal(rows(9), rows(10))

    def test_groups_are_slices_of_the_split_permutation(self, dataset):
        """Train, validation and population are consecutive slices of ``derive_rng(seed, "split").permutation(n)``."""
        ch = draw_challenge(dataset, GameConfig(fractions=(0.3, 0.1, 0.6)), 7)
        perm = derive_rng(7, "split").permutation(len(dataset))
        assert np.array_equal(ch.members, perm[:72])
        assert np.array_equal(ch.validation, perm[72:96])
        assert np.array_equal(ch.population, perm[96:])


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
        rows = np.arange(50)
        assert same_challenge(assign_membership(rows, 0.67, 3), assign_membership(rows, 0.67, 3))

    def test_ratio_approximate(self):
        ch = assign_membership(np.arange(5000), 0.67, 0)
        assert len(ch.members) / 5000 == pytest.approx(0.67, abs=0.03)

    def test_partition_complete(self):
        ch = assign_membership(np.arange(30), 0.5, 1)
        assert sorted(ch.candidates.tolist()) == list(range(30))

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            assign_membership([], 0.5, 0)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            assign_membership([0], 1.5, 0)


class TestRunGame:
    def test_members_are_training_split(self, artifacts):
        train, val, cfg = target_job(artifacts.challenge, FAST_CFG)
        assert np.array_equal(train, np.sort(artifacts.challenge.members))
        assert np.array_equal(val, np.sort(artifacts.challenge.validation))
        assert cfg.seed == derive_seed(artifacts.challenge.seed, "target")

    def test_nonmembers_come_from_population(self, artifacts):
        assert set(artifacts.challenge.nonmembers.tolist()) <= set(artifacts.challenge.population.tolist())

    def test_p_member_ratio(self, artifacts):
        n_mem = len(artifacts.challenge.members)
        n_non = len(artifacts.challenge.nonmembers)
        assert n_non == round(n_mem * 0.33 / 0.67)

    def test_confidences_cover_all_candidates(self, dataset, artifacts):
        # one entry per candidate, in dataset order
        assert np.array_equal(artifacts.rows, np.sort(artifacts.challenge.candidates))
        assert artifacts.confidences.shape == (len(artifacts.rows),)
        assert np.all((artifacts.confidences > 0.0) & (artifacts.confidences < 1.0))

    def test_confidences_must_match_ids(self, artifacts):
        with pytest.raises(ValueError):
            TargetArtifacts(model=artifacts.model, confidences=artifacts.confidences[1:],
                            challenge=artifacts.challenge)

    def test_is_member_marks_the_members(self, artifacts):
        assert artifacts.is_member.dtype == bool
        assert {r for r, m in zip(artifacts.rows.tolist(), artifacts.is_member) if m} \
            == set(artifacts.challenge.members.tolist())

    def test_deterministic(self, dataset):
        a = play(dataset, replace(FAST_CFG, fixed_epochs=3), GameConfig(), 5)
        b = play(dataset, replace(FAST_CFG, fixed_epochs=3), GameConfig(), 5)
        assert a.challenge.record(dataset.ids) == b.challenge.record(dataset.ids)
        assert np.array_equal(a.rows, b.rows)
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
        member = np.isin(art.rows, art.challenge.members)
        assert np.mean(art.confidences[member]) > np.mean(art.confidences[~member])


class TestShadowEnsemble:
    def test_mask_dimensions(self, ensemble):
        assert ensemble.mask.shape == (len(ensemble.universe), 4)
        assert len(ensemble.models) == 4
        assert len(ensemble.shadow_seeds) == 4

    def test_z_ids_are_disjoint_from_the_universe(self, ensemble):
        assert ensemble.z.size
        assert not set(ensemble.z.tolist()) & set(ensemble.universe.tolist())
        assert (ensemble.inclusion(ensemble.z) == 0).all()

    def test_z_excludes_candidates(self, ensemble, artifacts):
        assert not set(ensemble.z.tolist()) & set(artifacts.challenge.candidates.tolist())

    def test_z_size(self, dataset, artifacts, ensemble):
        assert len(ensemble.z) == round(0.25 * len(artifacts.challenge.population))

    def test_z_cap(self, dataset, artifacts):
        plan = draw_shadows(dataset, artifacts.challenge.population, artifacts.challenge.candidates,
                            ShadowParams(count=2, epochs=1, z_cap=5), 0)
        assert len(plan.z) == 5

    def test_every_shadow_saw_two_classes(self, dataset, ensemble):
        label = dataset.y.tolist()
        for j in range(ensemble.k):
            included = [r for r, row in zip(ensemble.universe.tolist(), ensemble.mask) if row[j]]
            assert {label[r] for r in included} == {0, 1}

    def test_deterministic(self, dataset, artifacts):
        e1 = train_shadows(dataset, artifacts.challenge, ShadowParams(count=3, epochs=2), FAST_CFG, 4)
        e2 = train_shadows(dataset, artifacts.challenge, ShadowParams(count=3, epochs=2), FAST_CFG, 4)
        assert np.array_equal(e1.mask, e2.mask)
        assert np.array_equal(e1.z, e2.z)
        for m1, m2 in zip(e1.models, e2.models):
            for w1, w2 in zip(m1.model.weights, m2.model.weights):
                assert np.array_equal(w1, w2)

    def test_shadow_epochs_respected(self, ensemble):
        for m in ensemble.models:
            assert len(m.val_losses) == 2

    def test_rejects_tiny_k(self, dataset):
        rows = np.arange(len(dataset))
        with pytest.raises(ValueError):
            draw_shadows(dataset, rows, rows, ShadowParams(count=1), 0)

    @pytest.mark.parametrize("pool_rows,candidate_rows", [
        (2, None),  # round(0.25 * 2) == 0 Z points; None: every candidate lies outside the pool
        (40, 40),  # every pool sample is a candidate, so none may join Z
    ])
    def test_pool_without_z_point_rejected_at_the_draw(self, dataset, pool_rows, candidate_rows):
        pool = np.arange(pool_rows)
        candidates = np.arange(200, 240) if candidate_rows is None else np.arange(candidate_rows)
        with pytest.raises(ValueError, match="no Z point"):
            draw_shadows(dataset, pool, candidates, ShadowParams(count=2, epochs=1), 0)

    def test_the_draw_is_what_the_shadows_train_on(self, dataset, artifacts, ensemble, monkeypatch):
        """``train_shadow_ensemble`` trains its plan as drawn: universe, mask, Z and seeds."""
        stacks = []
        monkeypatch.setattr(game, "fit_stack", lambda jobs: stacks.append(jobs) or [None] * len(jobs))
        plan = draw_shadows(dataset, artifacts.challenge.population, artifacts.challenge.candidates,
                            ShadowParams(count=4, epochs=2), 11)
        assert plan.manifest(dataset.ids) == ensemble.manifest(dataset.ids)
        assert np.array_equal(plan.universe, ensemble.universe) and np.array_equal(plan.z, ensemble.z)
        train_shadow_ensemble(dataset, plan, FAST_CFG, NO_HELPERS)
        [jobs] = stacks
        assert jobs.X is dataset.X and jobs.y is dataset.y
        assert all(val_rows is plan.z for val_rows in jobs.val_rows)
        assert len(jobs) == 4
        for j, (rows, cfg) in enumerate(zip(jobs.rows, jobs.cfgs, strict=True)):
            assert rows.tolist() == [r for r, bit in zip(plan.universe.tolist(), plan.mask[:, j]) if bit]
            assert (cfg.seed, cfg.fixed_epochs) == (plan.shadow_seeds[j], 2)

    def test_in_process_stacks_give_each_shadow_the_model_it_gets_alone(self, dataset, artifacts, monkeypatch):
        """Five shadows of a three-per-stack model train as a stack of three, then of two; blocks shrink mid-epoch.

        The validation set is scored two models at a time, so the first stack's pass runs in two blocks.
        """
        cfg = replace(FAST_CFG, hidden_dims=(64, 64), dropout_rate=0.2, batch_size=8)
        stacks = []
        real_fit_stack = game.fit_stack
        monkeypatch.setattr(game, "fit_stack", lambda jobs: stacks.append(len(jobs)) or real_fit_stack(jobs))
        plan = draw_shadows(dataset, artifacts.challenge.population, artifacts.challenge.candidates,
                            ShadowParams(count=5, epochs=3), 2)
        monkeypatch.setattr(nnet, "VALIDATION_ELEMENTS", 2 * len(plan.z) * 64)
        ensemble, _ = train_shadow_ensemble(dataset, plan, cfg, NO_HELPERS)
        assert stack_capacity(dataset.dimension, cfg.hidden_dims) == 3 and stacks == [3, 2]
        full = (ensemble.mask.sum(axis=0) // cfg.batch_size).tolist()
        assert len(set(full[:3])) > 1 and len(set(full[3:])) > 1, full
        assert_each_shadow_fits_as_alone(dataset, ensemble, cfg, 3)

    @pytest.mark.parametrize("train,stacks,alone", [
        (replace(FAST_CFG, fixed_epochs=2), [5], 0),  # the shadows' epochs: the target heads their stack
        (replace(FAST_CFG, fixed_epochs=3), [4], 1),  # fixed epochs, but not the shadows' 2
        (FAST_CFG, [4], 1),  # it stops early
    ], ids=["stacks", "other_epochs", "early"])
    def test_the_target_joins_the_shadows_stack_only_where_its_recipe_is_theirs(self, dataset, artifacts, monkeypatch,
                                                                                train, stacks, alone):
        """In-process, a target that stacks with nothing goes through ``fit``; every model is what it gets alone."""
        stacked, fits = [], []
        real_fit_stack, real_fit = game.fit_stack, game.fit
        monkeypatch.setattr(game, "fit_stack", lambda jobs: stacked.append(len(jobs)) or real_fit_stack(jobs))
        monkeypatch.setattr(game, "fit", lambda *job: fits.append(job) or real_fit(*job))
        plan = draw_shadows(dataset, artifacts.challenge.population, artifacts.challenge.candidates,
                            ShadowParams(count=4, epochs=2), 11)
        rows, val, cfg = job = target_job(artifacts.challenge, train)
        ensemble, [target] = train_shadow_ensemble(dataset, plan, train, NO_HELPERS, lead=[job])
        assert stacked == stacks and len(fits) == alone
        expected = real_fit(dataset.take(rows), dataset.take(val), cfg)
        assert target.model.params.tobytes() == expected.model.params.tobytes()
        assert target.val_losses == expected.val_losses and target.best_epoch == expected.best_epoch
        assert_each_shadow_fits_as_alone(dataset, ensemble, train, 2)

    def test_a_model_without_hidden_layers_trains_in_process(self, dataset, artifacts):
        """``hidden_dims = ()``, a logistic model: the target fits, and each stacked shadow gets what it gets alone."""
        cfg = replace(FAST_CFG, hidden_dims=())
        target = play(dataset, replace(cfg, fixed_epochs=3), GameConfig(), 5)
        assert len(target.model.model.weights) == 1 and len(target.model.val_losses) == 3
        ensemble = train_shadows(dataset, artifacts.challenge, ShadowParams(count=3, epochs=2), cfg, 4)
        assert_each_shadow_fits_as_alone(dataset, ensemble, cfg, 2)

    def test_in_process_shadows_allocate_less_than_copies_of_their_training_sets(self):
        """At a wide-challenge shape, 16 stacked shadows of an 8-unit model allocate less than their training sets.

        Jobs of datasets, stacked, held K copies of the training features at once.
        """
        dataset = synth_dataset(SynthSpec(n=12_000, dim=16, positive_fraction=0.3, separation=2.0, seed=1))
        challenge = draw_challenge(dataset, GameConfig(), 1)
        cfg = TrainConfig(hidden_dims=(8,), fixed_epochs=1)
        tracemalloc.start()
        try:
            ensemble = train_shadows(dataset, challenge, ShadowParams(count=16, epochs=1, z_fraction=0.5), cfg, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < int(ensemble.mask.sum()) * dataset.dimension * 8


class TestConfidences:
    def test_matrix_aligned_with_mask(self, dataset, artifacts, ensemble):
        rows = artifacts.rows
        values = collect_confidences(ensemble, dataset.X[rows], dataset.y[rows])
        mask = ensemble.inclusion(rows)
        assert values.shape == mask.shape == (len(rows), ensemble.k)
        assert mask.dtype == np.uint8
        row = {r: m for m, r in enumerate(ensemble.universe.tolist())}
        for i, r in enumerate(rows.tolist()):
            assert np.array_equal(mask[i], ensemble.mask[row[r]])

    def test_values_in_open_interval(self, dataset, artifacts, ensemble):
        rows = artifacts.rows
        values = collect_confidences(ensemble, dataset.X[rows], dataset.y[rows])
        assert np.all((values > 0.0) & (values < 1.0))


class TestManifest:
    def test_manifest_round_trip(self, dataset, ensemble, tmp_path):
        path = tmp_path / "manifest.json"
        save_manifest(ensemble, path, dataset.ids)
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest == ensemble.manifest(dataset.ids)
        assert manifest["seed"] == ensemble.seed
        assert manifest["z_ids"] == [dataset.ids[r] for r in ensemble.z]
        assert all(isinstance(row, str) and len(row) == ensemble.k for row in manifest["mask"])
        decoded = np.array([[int(c) for c in row] for row in manifest["mask"]], dtype=np.uint8)
        assert np.array_equal(decoded, ensemble.mask)
        assert manifest["checkpoints"] == ["shadow_00.npz", "shadow_01.npz", "shadow_02.npz", "shadow_03.npz"]
