"""Tests for shadow fits in helper processes: same models, errors raised, no helper left running."""

import os
from dataclasses import replace

import numpy as np
import pytest

from leakaudit import pipeline
from leakaudit.config import ExperimentConfig
from leakaudit.game import GameConfig, ShadowParams, run_game, train_shadow_ensemble
from leakaudit.nnet import TrainConfig, fit
from leakaudit.parallel import MIN_SHADOW_STEPS, FitHelpers, helper_count
from leakaudit.synth import SynthSpec, synth_dataset

FAST_CFG = TrainConfig(hidden_dims=(4,), dropout_rate=0.1, learning_rate=1e-2,
                       max_epochs=3, patience=3, seed=0)
SHADOW = ShadowParams(count=5, epochs=2)


@pytest.fixture(scope="module")
def shadow_inputs():
    dataset = synth_dataset(SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0))
    artifacts = run_game(dataset, replace(FAST_CFG, fixed_epochs=2), GameConfig(), 5)
    return dataset.subset(artifacts.split.population_ids), dataset.subset(artifacts.challenge.candidate_ids)


def stopped(procs):
    return all(proc.poll() is not None for proc in procs)


def test_helper_fits_are_bit_identical_to_in_process(shadow_inputs):
    pool, candidates = shadow_inputs
    local = train_shadow_ensemble(pool, candidates, SHADOW, FAST_CFG, 11)
    with FitHelpers(2) as helpers:
        remote = train_shadow_ensemble(pool, candidates, SHADOW, FAST_CFG, 11, helpers=helpers)
        procs = list(helpers.procs)
    assert len(procs) == 2 and stopped(procs)
    assert remote.shadow_seeds == local.shadow_seeds
    assert np.array_equal(remote.mask, local.mask)
    assert remote.ids == local.ids and remote.z_ids == local.z_ids
    for a, b in zip(remote.models, local.models, strict=True):
        assert a.model.params.tobytes() == b.model.params.tobytes()
        assert a.train_losses == b.train_losses and a.val_losses == b.val_losses
        assert a.best_epoch == b.best_epoch
        # the unpickled model's layers are still views of its params
        a.model.weights[0][0, 0] = 7.0
        assert a.model.params[0] == 7.0


def test_a_fit_error_in_a_helper_raises_its_type_and_leaves_the_helpers_ready(shadow_inputs):
    pool, candidates = shadow_inputs
    good = (pool, candidates, replace(FAST_CFG, fixed_epochs=1))
    wide = synth_dataset(SynthSpec(n=40, dim=5, seed=1))
    bad = (pool, wide, FAST_CFG)  # train and validation dimensions differ
    with FitHelpers(2) as helpers:
        with pytest.raises(ValueError, match="dimensions differ") as info:
            helpers.fit_all([good, bad, good, good])
        assert "in a fit helper" in str(info.value.__cause__)
        # the other helper finished its job, so both take the next call; the
        # long first job finishes last, and its result still comes first
        jobs = [(pool, candidates, replace(FAST_CFG, fixed_epochs=epochs, seed=seed))
                for epochs, seed in ((40, 1), (1, 2), (1, 3))]
        again = helpers.fit_all(jobs)
        procs = list(helpers.procs)
    assert stopped(procs)
    assert [m.model.params.tobytes() for m in again] == [fit(*job).model.params.tobytes() for job in jobs]


def test_an_exception_in_the_parent_stops_every_helper(shadow_inputs):
    pool, candidates = shadow_inputs
    helpers = FitHelpers(2)
    procs = []

    def jobs():
        procs.extend(helpers.procs)
        yield pool, candidates, FAST_CFG
        raise KeyError("job source failed")  # while the first job runs in a helper

    with pytest.raises(KeyError), helpers:
        helpers.fit_all(jobs())
    assert len(procs) == 2 and stopped(procs)
    assert helpers.procs == []


def test_start_rule_picks_helpers_by_shadow_steps():
    cores = len(os.sched_getaffinity(0))
    # the positive-control recipe: 10 shadows x 200 epochs over 1,500 samples
    control = ExperimentConfig(
        synth=SynthSpec(n=1500, dim=64), train=TrainConfig(hidden_dims=(32,)),
        shadow=ShadowParams(count=10, epochs=200, z_fraction=0.5),
    )
    # a wide challenge: 16 shadows x 2 epochs over 12,000 samples
    wide = replace(control, synth=SynthSpec(n=12000, dim=16), shadow=ShadowParams(count=16, epochs=2))
    assert pipeline._shadow_steps(control, 1500) == 22_000
    assert pipeline._shadow_steps(wide, 12000) == 2_720
    assert helper_count(22_000) == (cores if cores > 1 else 0)
    assert helper_count(2_720) == 0
    assert helper_count(MIN_SHADOW_STEPS - 1) == 0


def test_run_experiment_stops_its_helpers_when_a_repetition_raises(tmp_path, monkeypatch):
    started = set()

    class Recorded(FitHelpers):
        def start(self):
            super().start()
            started.update(self.procs)

    def failing_lira(*args, **kwargs):
        raise ArithmeticError("scoring failed")

    cfg = ExperimentConfig(
        synth=SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0),
        train=replace(FAST_CFG, fixed_epochs=2), shadow=SHADOW, repetitions=2,
        output_dir=str(tmp_path / "out"),
    )
    monkeypatch.setattr(pipeline, "FitHelpers", Recorded)
    monkeypatch.setattr(pipeline, "helper_count", lambda steps: 2)
    monkeypatch.setattr(pipeline, "run_lira", failing_lira)
    report = pipeline.run_experiment(cfg)
    assert report["errors"] == {"0": "ArithmeticError: scoring failed", "1": "ArithmeticError: scoring failed"}
    assert len(started) == 2 and stopped(started)  # one pair of helpers served both repetitions
