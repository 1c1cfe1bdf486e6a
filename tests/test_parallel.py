"""Tests for shadow fits in helper processes: same models, errors raised, no helper left running."""

import hashlib
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leakaudit import BLAS_THREAD_VARS, parallel, pipeline
from leakaudit.config import ExperimentConfig
from leakaudit.game import GameConfig, ShadowParams, draw_challenge, draw_shadows, train_shadow_ensemble
from leakaudit.nnet import FitJobs, TrainConfig, fit, fit_stack, load_model
from leakaudit.parallel import MIN_FIT_SECONDS, FitHelpers, helper_count, step_seconds
from leakaudit.synth import SynthSpec, synth_dataset

FAST_CFG = TrainConfig(hidden_dims=(4,), dropout_rate=0.1, learning_rate=1e-2,
                       max_epochs=3, patience=3, seed=0)
SHADOW = ShadowParams(count=5, epochs=2)


@pytest.fixture(scope="module")
def shadow_draw():
    """The dataset, the pool rows and the candidate rows of one repetition's shadows."""
    dataset = synth_dataset(SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0))
    challenge = draw_challenge(dataset, GameConfig(), 5)
    return dataset, challenge.population, challenge.candidates


@pytest.fixture(scope="module")
def shadow_inputs(shadow_draw):
    """The pool and the candidates as datasets, and ``jobs(cfgs, rows)``, validated on the candidates.

    Each job trains on its ``rows`` of the pool, or on the whole pool.
    """
    dataset, pool, candidates = shadow_draw
    pool, candidates = dataset.take(np.sort(pool)), dataset.take(np.sort(candidates))

    def jobs(cfgs, rows=None):
        rows = rows or [np.arange(len(pool))] * len(cfgs)
        return FitJobs(pool.X, pool.y, candidates.X, candidates.y, rows, list(cfgs))

    return pool, candidates, jobs


def stopped(procs):
    return all(proc.poll() is not None for proc in procs)


def test_helper_fits_are_bit_identical_to_in_process(shadow_draw):
    dataset = shadow_draw[0]
    plan = draw_shadows(*shadow_draw, SHADOW, 11)
    local = train_shadow_ensemble(dataset, plan, FAST_CFG, FitHelpers(0))
    with FitHelpers(2) as helpers:
        remote = train_shadow_ensemble(dataset, plan, FAST_CFG, helpers)
        procs = list(helpers.procs)
    assert len(procs) == 2 and stopped(procs)
    assert remote.shadow_seeds == local.shadow_seeds
    assert np.array_equal(remote.mask, local.mask)
    assert np.array_equal(remote.universe, local.universe) and np.array_equal(remote.z, local.z)
    for a, b in zip(remote.models, local.models, strict=True):
        assert a.model.params.tobytes() == b.model.params.tobytes()
        assert a.train_losses == b.train_losses and a.val_losses == b.val_losses
        assert a.best_epoch == b.best_epoch
        # the unpickled model's layers are still views of its params
        a.model.weights[0][0, 0] = 7.0
        assert a.model.params[0] == 7.0


def test_a_fit_error_in_a_helper_raises_its_type_and_leaves_the_helpers_ready(shadow_inputs):
    pool, candidates, jobs = shadow_inputs
    everything, one_class = np.arange(len(pool)), np.flatnonzero(pool.y == 1)
    with FitHelpers(2) as helpers:
        with pytest.raises(ValueError, match="both classes must be present") as info:
            # the first stack, of the first two jobs, holds the one-class training set
            helpers.submit(jobs([replace(FAST_CFG, fixed_epochs=1)] * 4,
                                [everything, one_class, everything, everything])).wait()
        assert "in a fit helper" in str(info.value.__cause__)
        # the other helper finished its stack, so both take the next batch; the
        # first stack, of two jobs, finishes last, and its results still come first
        cfgs = [replace(FAST_CFG, fixed_epochs=20, seed=seed) for seed in (1, 2, 3)]
        again = helpers.submit(jobs(cfgs)).wait()
        procs = list(helpers.procs)
    assert stopped(procs)
    assert [m.model.params.tobytes() for m in again] == [fit(pool, candidates, cfg).model.params.tobytes()
                                                          for cfg in cfgs]


def test_start_rule_picks_helpers_by_shadow_steps():
    cores = len(os.sched_getaffinity(0))
    helpers = cores if cores > 1 else 0
    # the positive-control recipe: 10 shadows x 200 epochs of a 32-unit MLP over 1,500 samples
    control = ExperimentConfig(
        synth=SynthSpec(n=1500, dim=64), train=TrainConfig(hidden_dims=(32,), fixed_epochs=200),
        shadow=ShadowParams(count=10, epochs=200, z_fraction=0.5),
    )
    # the default 256x128 recipe on the same data: few steps, each about 12 times dearer
    default = ExperimentConfig(synth=SynthSpec(n=1500, dim=64))
    # a wide challenge: 16 shadows x 2 epochs of an 8-unit MLP over 12,000 samples
    wide = replace(control, synth=SynthSpec(n=12000, dim=16), train=TrainConfig(hidden_dims=(8,), fixed_epochs=2),
                   shadow=ShadowParams(count=16, epochs=2))
    seconds = {name: pipeline._fit_seconds(cfg, synth_dataset(cfg.synth))
               for name, cfg in (("control", control), ("default", default), ("wide", wide))}
    # 2,200 target and 22,000 shadow steps; 1,100 and 1,650; 170 and 2,720
    assert seconds["control"] == pytest.approx(24_200 * step_seconds(64, (64, 32, 1)))
    assert seconds["default"] == pytest.approx(2_750 * step_seconds(64, (64, 256, 128, 1)))
    assert seconds["wide"] == pytest.approx(2_890 * step_seconds(64, (16, 8, 1)))
    assert [helper_count(seconds[name]) for name in ("control", "default", "wide")] == [helpers, helpers, 0]
    assert helper_count(MIN_FIT_SECONDS) == helpers
    assert helper_count(0.999 * MIN_FIT_SECONDS) == 0


def test_a_batch_returns_its_models_in_job_order_when_a_later_batch_finishes_first(shadow_inputs):
    pool, candidates, jobs = shadow_inputs
    slow = [replace(FAST_CFG, fixed_epochs=epochs, seed=seed) for epochs, seed in ((800, 1), (1, 2))]
    fast = [replace(FAST_CFG, fixed_epochs=1, seed=seed) for seed in (3, 4, 5)]
    with FitHelpers(2) as helpers:
        first = helpers.submit(jobs(slow))
        second = helpers.submit(jobs(fast))
        fast_models = second.wait()
        # the second batch ran on the helper the short job freed while the 800-epoch job ran
        assert any(b is first for b, _ in helpers._running.values())
        slow_models = first.wait()
        procs = list(helpers.procs)
    assert stopped(procs)
    for models, cfgs in ((slow_models, slow), (fast_models, fast)):
        assert [m.model.params.tobytes() for m in models] == [fit(pool, candidates, cfg).model.params.tobytes()
                                                              for cfg in cfgs]


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


def pooled_config(tmp_path, name):
    return ExperimentConfig(
        synth=SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0),
        train=replace(FAST_CFG, fixed_epochs=2), shadow=SHADOW, repetitions=2,
        output_dir=str(tmp_path / name),
    )


def test_run_experiment_on_helpers_writes_the_files_of_an_in_process_run(tmp_path, monkeypatch):
    # with 1, 2 or 3 helpers the shadows train in stacks of other sizes and groupings; the second
    # recipe's target early-stops, the one job whose stack ends on patience
    early = replace(FAST_CFG, max_epochs=200, patience=1)
    for recipe, train in (("fixed", replace(FAST_CFG, fixed_epochs=2)), ("early", early)):
        outputs = {}
        for count in (0, 1, 2, 3):
            monkeypatch.setattr(pipeline, "helper_count", lambda seconds, count=count: count)
            out = tmp_path / f"{recipe}_{count}"
            pipeline.run_experiment(replace(pooled_config(tmp_path, out.name), train=train))
            outputs[count] = {p.relative_to(out): hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(outputs[0]) == 1 + 2 * (8 + SHADOW.count)
        assert outputs[1] == outputs[2] == outputs[3] == outputs[0], recipe
    for rep in (0, 1):
        target = load_model(tmp_path / "early_0" / f"rep_{rep:03d}" / "target.npz")
        assert target.best_epoch < len(target.val_losses) < early.max_epochs


def test_a_stack_holding_a_failing_job_raises_its_type_and_leaves_the_helpers_ready(shadow_inputs):
    pool, candidates, jobs = shadow_inputs
    everything, one_class = np.arange(len(pool)), np.flatnonzero(pool.y == 1)
    with FitHelpers(1) as helpers:
        batch = helpers.submit(jobs([replace(FAST_CFG, fixed_epochs=1)] * 3, [everything, one_class, everything]))
        assert [list(indices) for _, indices in helpers._running.values()] == [[0, 1, 2]]  # one stack
        with pytest.raises(ValueError, match="both classes must be present"):
            batch.wait()
        cfgs = [replace(FAST_CFG, fixed_epochs=2, seed=seed) for seed in (1, 2)]
        again = helpers.submit(jobs(cfgs)).wait()
        procs = list(helpers.procs)
    assert stopped(procs)
    assert [m.model.params.tobytes() for m in again] == [fit(pool, candidates, cfg).model.params.tobytes()
                                                          for cfg in cfgs]


def test_stacks_share_out_the_unfinished_jobs_and_never_exceed_a_stack(shadow_inputs):
    """The first stack takes an even share of all jobs not yet finished; a large model goes one at a time."""
    _, _, jobs = shadow_inputs
    small = jobs([replace(FAST_CFG, fixed_epochs=1, seed=seed) for seed in range(11)])
    with FitHelpers(2) as helpers:
        target = helpers.submit(small[:1])
        shadows = helpers.submit(small[1:])
        # the target alone, then 6 of the 10 shadows: half of the 11 jobs not yet finished
        assert sorted(len(indices) for _, indices in helpers._running.values()) == [1, 6]
        target.wait()
        shadows.wait()
        large = replace(FAST_CFG, hidden_dims=(128, 128), fixed_epochs=1)  # over 16k parameters
        helpers.submit(jobs([replace(large, seed=seed) for seed in range(3)]))
        assert [len(indices) for _, indices in helpers._running.values()] == [1, 1]


def test_a_helper_is_sent_only_the_rows_its_stack_trains_on(shadow_inputs, monkeypatch):
    pool, candidates, jobs = shadow_inputs
    sent, dump = [], pickle.dump
    monkeypatch.setattr(pickle, "dump", lambda obj, *args, **kwargs: sent.append(obj) or dump(obj, *args, **kwargs))
    cfgs = [replace(FAST_CFG, fixed_epochs=1, seed=seed) for seed in (1, 2)]
    rows = [np.arange(40, 0, -2), np.arange(30, 60)]
    with FitHelpers(2) as helpers:
        models = helpers.submit(jobs(cfgs, rows)).wait()
    # two helpers, so a stack of one job each
    assert [len(stack) for stack in sent] == [1, 1]
    # in float32, the training dtype, which halves the features sent
    for stack, job_rows in zip(sent, rows, strict=True):
        assert stack.X.dtype == stack.X_val.dtype == np.float32
        assert np.array_equal(stack.X, pool.X[np.sort(job_rows)].astype(np.float32))
        assert np.array_equal(stack.y, pool.y[np.sort(job_rows)])
        assert np.array_equal(stack.X_val, candidates.X.astype(np.float32))
    for model, job_rows, cfg in zip(models, rows, cfgs, strict=True):
        alone = fit(pool.take(job_rows), candidates, cfg)
        assert model.model.params.tobytes() == alone.model.params.tobytes()


def test_a_helper_whose_input_ends_exits_with_0_after_its_last_reply_and_its_stray_output(shadow_inputs):
    """A helper started as FitHelpers starts one, whose fit prints without a newline to what it sees as stdout."""
    _, _, jobs = shadow_inputs
    src = str(Path(parallel.__file__).resolve().parent.parent)
    noisy = ("import sys; sys.path[:0] = sys.argv[1:]; from leakaudit import parallel; real = parallel.fit_stack; "
             "parallel.fit_stack = lambda jobs: print('stray', end='') or real(jobs); parallel.serve()")
    stack = jobs([replace(FAST_CFG, fixed_epochs=2, seed=seed) for seed in (1, 2)])
    proc = subprocess.Popen([sys.executable, "-S", "-c", noisy, src, *sys.path], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        pickle.dump(stack, proc.stdin)
        proc.stdin.flush()
        ok, models = pickle.load(proc.stdout)
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stdout.read() == b"" and proc.stderr.read() == b"stray"
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert ok and [m.model.params.tobytes() for m in models] == [m.model.params.tobytes() for m in fit_stack(stack)]


def test_an_exception_in_the_parent_stops_every_helper(shadow_inputs):
    _, _, jobs = shadow_inputs

    class Jobs(FitJobs):
        def __getitem__(self, part):
            if part.start == 1:  # read once the first job runs in a helper
                raise KeyError("job source failed")
            return FitJobs(**{**vars(self), "rows": self.rows[part], "cfgs": self.cfgs[part]})

    helpers = FitHelpers(2)
    with pytest.raises(KeyError), helpers:
        helpers.start()
        procs = list(helpers.procs)
        helpers.submit(Jobs(**vars(jobs([replace(FAST_CFG, fixed_epochs=400)] * 2)))).wait()
    assert len(procs) == 2 and stopped(procs)
    assert helpers.procs == []


def test_a_target_that_fails_in_a_helper_raises_its_type_and_leaves_no_helper_running(tmp_path, monkeypatch):
    started = set()
    real_target_job = pipeline.target_job

    class Recorded(FitHelpers):
        def start(self):
            super().start()
            started.update(self.procs)

    def one_class_target_job(challenge, cfg):
        val, [(train, train_cfg)] = real_target_job(challenge, cfg)
        return val, [(train[labels[train] == 1], train_cfg)]

    labels = synth_dataset(pooled_config(tmp_path, "out").synth).y
    monkeypatch.setattr(pipeline, "FitHelpers", Recorded)
    monkeypatch.setattr(pipeline, "helper_count", lambda seconds: 2)
    monkeypatch.setattr(pipeline, "target_job", one_class_target_job)
    report = pipeline.run_experiment(pooled_config(tmp_path, "out"))
    assert set(report["errors"]) == {"0", "1"}
    assert all(error.startswith("ValueError: class weights undefined: both classes must be present")
               for error in report["errors"].values())
    assert len(started) == 2 and stopped(started)


def os_threads(code: str, env: dict[str, str]) -> list[str]:
    """What ``code`` prints, then the OS threads of the Python process that ran it, with ``env`` added."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(parallel.__file__).resolve().parent.parent)
    code += "; print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')))"
    return subprocess.run([sys.executable, "-c", code], env={**base, **env, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout.split()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="counts threads in /proc/self/status (Linux)")
def test_a_process_that_imports_leakaudit_runs_blas_on_one_thread_unless_the_user_set_a_count():
    cores = len(os.sched_getaffinity(0))
    show = "import leakaudit, numpy, os; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    assert os_threads(show, {}) == ["1", "1", "1"]
    assert os_threads(show, {"OPENBLAS_NUM_THREADS": "2"}) == ["2", "1", str(min(2, cores))]
    # numpy imported first keeps its own default, one thread a core
    numpy_first = "import numpy, leakaudit, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert os_threads(numpy_first, {})[1] == str(cores)


@pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="reads a helper's /proc/PID/environ (Linux)")
def test_helpers_run_blas_on_one_thread_whatever_the_parent_runs(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    with FitHelpers(1) as helpers:
        helpers.start()
        environ = Path(f"/proc/{helpers.procs[0].pid}/environ").read_bytes().split(b"\0")
    assert {f"{var}=1".encode() for var in BLAS_THREAD_VARS} <= set(environ)
