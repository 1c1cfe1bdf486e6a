"""Tests for shadow fits in helper processes: same models, errors raised, no helper left running.

The tests of helpers run on both start paths: forked from this process,
which runs on one OS thread (tests/conftest.py), and spawned while a
second thread runs.
"""

import hashlib
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leakaudit import BLAS_THREAD_VARS, game, parallel, pipeline
from leakaudit.config import ExperimentConfig
from leakaudit.game import GameConfig, ShadowParams, draw_challenge, draw_shadows, train_shadow_ensemble
from leakaudit.nnet import FitJobs, TrainConfig, fit, load_model
from leakaudit.parallel import MIN_FIT_SECONDS, FitHelpers, fit_seconds, helper_count, step_seconds
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

    The jobs' arrays hold the pool's rows, then the candidates'. Each job
    trains on its ``rows`` of the pool, or on the whole pool.
    """
    dataset, pool, candidates = shadow_draw
    pool, candidates = dataset.take(np.sort(pool)), dataset.take(np.sort(candidates))
    val = np.arange(len(pool), len(pool) + len(candidates))

    def jobs(cfgs, rows=None):
        rows = rows or [np.arange(len(pool))] * len(cfgs)
        return FitJobs(np.concatenate([pool.X, candidates.X]), np.concatenate([pool.y, candidates.y]), rows,
                       [val] * len(cfgs), list(cfgs))

    return pool, candidates, jobs


def stopped(procs):
    return all(proc.poll() is not None for proc in procs)


def start_of(proc) -> str:
    """How a running helper started: ``fork`` if its command line is this process's, else ``spawn``."""
    deadline = time.monotonic() + 10
    # a spawned helper's command line can read empty for a moment after Popen returns
    while not (cmdline := Path(f"/proc/{proc.pid}/cmdline").read_bytes()) and time.monotonic() < deadline:
        time.sleep(0.001)
    if cmdline == Path("/proc/self/cmdline").read_bytes():
        return "fork"
    assert cmdline.startswith(f"{sys.executable}\0-S\0-c\0".encode())
    return "spawn"


@pytest.fixture(params=["fork", "spawn"])
def start_path(request):
    """The start path the test's helpers must take: ``fork`` as this process runs, ``spawn`` beside a second thread."""
    if request.param == "fork":
        assert len(os.listdir("/proc/self/task")) == 1, "tests/conftest.py must import leakaudit before numpy"
        yield "fork"
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield "spawn"
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    deadline = time.monotonic() + 10
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:  # it can outlive join() a moment
        time.sleep(0.001)


@pytest.fixture
def fit_helpers(start_path, monkeypatch):
    """FitHelpers, pipeline's included, that assert every helper they start took ``start_path``.

    Every batch pays for helpers, however cheap. Its ``started`` lists every helper started in the test.
    """
    class Helpers(FitHelpers):
        started = []

        def start(self):
            fresh = not self.procs
            super().start()
            if fresh:
                assert [start_of(proc) for proc in self.procs] == [start_path] * self.n
                self.started.extend(self.procs)

    monkeypatch.setattr(pipeline, "FitHelpers", Helpers)
    monkeypatch.setattr(parallel, "MIN_FIT_SECONDS", 0)
    return Helpers


def test_helper_fits_are_bit_identical_to_in_process(shadow_draw, fit_helpers):
    dataset = shadow_draw[0]
    plan = draw_shadows(*shadow_draw, SHADOW, 11)
    local, _ = train_shadow_ensemble(dataset, plan, FAST_CFG, FitHelpers(0))
    with fit_helpers(2) as helpers:
        remote, _ = train_shadow_ensemble(dataset, plan, FAST_CFG, helpers)
        procs = list(helpers.procs)
    assert len(procs) == 2 and stopped(procs)
    assert remote.shadow_seeds == local.shadow_seeds
    assert np.array_equal(remote.mask, local.mask)
    assert np.array_equal(remote.universe, local.universe) and np.array_equal(remote.z, local.z)
    for a, b in zip(remote.models, local.models, strict=True):
        assert a.model.params.tobytes() == b.model.params.tobytes()
        assert a.train_loss == b.train_loss and a.val_losses == b.val_losses
        assert a.best_epoch == b.best_epoch
        # the unpickled model's layers are still views of its params
        a.model.weights[0][0, 0] = 7.0
        assert a.model.params[0] == 7.0


def test_a_fit_error_in_a_helper_raises_its_type_and_leaves_the_helpers_ready(shadow_inputs, fit_helpers):
    pool, candidates, jobs = shadow_inputs
    everything, one_class = np.arange(len(pool)), np.flatnonzero(pool.y == 1)
    with fit_helpers(2) as helpers:
        with pytest.raises(ValueError, match="both classes must be present") as info:
            # the first stack, of the first two jobs, holds the one-class training set
            helpers.fit(jobs([replace(FAST_CFG, fixed_epochs=1)] * 4, [everything, one_class, everything, everything]))
        assert "in a fit helper" in str(info.value.__cause__)
        # the other helper finished its stack, so both take the next batch; the
        # first stack, of two jobs, finishes last, and its results still come first
        cfgs = [replace(FAST_CFG, fixed_epochs=20, seed=seed) for seed in (1, 2, 3)]
        again = helpers.fit(jobs(cfgs))
        procs = list(helpers.procs)
    assert stopped(procs)
    assert [m.model.params.tobytes() for m in again] == [fit(pool, candidates, cfg).model.params.tobytes()
                                                          for cfg in cfgs]


class Priced(Exception):
    """What a stand-in for the batch's price raises, with the batch it was handed."""


def drawn_batch(cfg: ExperimentConfig, monkeypatch) -> FitJobs:
    """Repetition 0's batch of fits, the target's first, as :func:`game.fit_batch` prices it; nothing trains."""
    def price(jobs):
        raise Priced(jobs)

    monkeypatch.setattr(game, "fit_seconds", price)
    dataset = synth_dataset(cfg.synth)
    challenge, plan = pipeline._draw_rep(dataset, cfg, 0)
    with pytest.raises(Priced) as priced:
        train_shadow_ensemble(dataset, plan, cfg.train, FitHelpers(0), lead=[pipeline.target_job(challenge, cfg.train)])
    return priced.value.args[0]


def test_start_rule_picks_helpers_by_the_price_of_the_drawn_batch(monkeypatch):
    # the positive-control recipe: 10 shadows x 200 epochs of a 32-unit MLP over 1,500 samples
    control = ExperimentConfig(
        synth=SynthSpec(n=1500, dim=64), train=TrainConfig(hidden_dims=(32,), fixed_epochs=200),
        shadow=ShadowParams(count=10, epochs=200, z_fraction=0.5),
    )
    # the default 256x128 recipe on the same data: few steps, each about 6 times the control's
    default = ExperimentConfig(synth=SynthSpec(n=1500, dim=64))
    # a wide challenge: 16 shadows x 2 epochs of an 8-unit MLP over 12,000 samples
    wide = replace(control, synth=SynthSpec(n=12000, dim=16), train=TrainConfig(hidden_dims=(8,), fixed_epochs=2),
                   shadow=ShadowParams(count=16, epochs=2))
    # CI's "same output on one core and on all cores" recipe, whose shadows' universe leaves Z out
    ci = ExperimentConfig(synth=SynthSpec(n=600, dim=8, positive_fraction=0.4),
                          train=TrainConfig(hidden_dims=(8,), max_epochs=240, fixed_epochs=240),
                          shadow=ShadowParams(count=8, epochs=240), repetitions=1)
    cases = [(control, 19_000, (64, 32, 1), True), (default, 2_585, (64, 256, 128, 1), True),
             (wide, 2_548, (16, 8, 1), False), (ci, 8_880, (8, 8, 1), False),
             (replace(ci, shadow=replace(ci.shadow, count=10)), 10_800, (8, 8, 1), True)]
    two = FitHelpers(2)
    for cfg, steps, dims, pays in cases:
        batch = drawn_batch(cfg, monkeypatch)
        assert sum(parallel._model_steps(batch)) == steps
        assert fit_seconds(batch) == pytest.approx(steps * step_seconds(64, dims))
        assert two.pays(fit_seconds(batch)) == pays
    assert two.pays(MIN_FIT_SECONDS) and not two.pays(0.999 * MIN_FIT_SECONDS)
    assert not FitHelpers(0).pays(100 * MIN_FIT_SECONDS)


@pytest.mark.parametrize("cores, helpers", [({0}, 0), ({0, 1}, 2)])
def test_a_run_holds_one_helper_per_available_core_and_none_on_one(monkeypatch, cores, helpers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    assert helper_count() == helpers


def test_run_experiment_stops_its_helpers_when_a_repetition_raises(tmp_path, monkeypatch, fit_helpers):
    def failing_lira(*args, **kwargs):
        raise ArithmeticError("scoring failed")

    cfg = ExperimentConfig(
        synth=SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0),
        train=replace(FAST_CFG, fixed_epochs=2), shadow=SHADOW, repetitions=2,
        output_dir=str(tmp_path / "out"),
    )
    monkeypatch.setattr(pipeline, "helper_count", lambda: 2)
    monkeypatch.setattr(pipeline, "run_lira", failing_lira)
    report = pipeline.run_experiment(cfg)
    assert report["errors"] == {"0": "ArithmeticError: scoring failed", "1": "ArithmeticError: scoring failed"}
    started = fit_helpers.started
    assert len(started) == 2 and stopped(started)  # one pair of helpers served both repetitions


def run_files(out: Path) -> dict:
    """Each file of the run directory ``out``, by its path in it, and its sha256."""
    return {p.relative_to(out): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def pooled_config(tmp_path, name):
    return ExperimentConfig(
        synth=SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0),
        train=replace(FAST_CFG, fixed_epochs=2), shadow=SHADOW, repetitions=2,
        output_dir=str(tmp_path / name),
    )


def test_run_experiment_on_helpers_writes_the_files_of_an_in_process_run(tmp_path, monkeypatch, fit_helpers):
    # with 1, 2 or 3 helpers the shadows train in stacks of other sizes and groupings; the second
    # recipe's target early-stops, the one job whose stack ends on patience
    early = replace(FAST_CFG, max_epochs=200, patience=1)
    for recipe, train in (("fixed", replace(FAST_CFG, fixed_epochs=2)), ("early", early)):
        outputs = {}
        for count in (0, 1, 2, 3):
            monkeypatch.setattr(pipeline, "helper_count", lambda count=count: count)
            out = tmp_path / f"{recipe}_{count}"
            pipeline.run_experiment(replace(pooled_config(tmp_path, out.name), train=train))
            outputs[count] = run_files(out)
        assert len(outputs[0]) == 1 + 2 * (8 + SHADOW.count)
        assert outputs[1] == outputs[2] == outputs[3] == outputs[0], recipe
    assert len(fit_helpers.started) == 2 * (1 + 2 + 3) and stopped(fit_helpers.started)
    for rep in (0, 1):
        target = load_model(tmp_path / "early_0" / f"rep_{rep:03d}" / "target.npz")
        assert target.best_epoch < len(target.val_losses) < early.max_epochs


def test_a_run_whose_batches_price_under_the_threshold_starts_no_helper(tmp_path, monkeypatch):
    monkeypatch.setattr(FitHelpers, "start", lambda self: pytest.fail("a helper started"))
    outputs = {}
    for count in (0, 2):
        monkeypatch.setattr(pipeline, "helper_count", lambda count=count: count)
        out = tmp_path / f"helpers_{count}"
        pipeline.run_experiment(pooled_config(tmp_path, out.name))
        outputs[count] = run_files(out)
    assert len(outputs[0]) == 1 + 2 * (8 + SHADOW.count)
    assert outputs[2] == outputs[0]


def sent_stacks(monkeypatch) -> list:
    """Every stack that pickle.dump is handed from now on, in the order it is sent."""
    sent, dump = [], pickle.dump
    monkeypatch.setattr(pickle, "dump", lambda obj, *args, **kwargs: sent.append(obj) or dump(obj, *args, **kwargs))
    return sent


def test_a_stack_holding_a_failing_job_raises_its_type_and_leaves_the_helpers_ready(shadow_inputs, monkeypatch,
                                                                                    fit_helpers):
    pool, candidates, jobs = shadow_inputs
    everything, one_class = np.arange(len(pool)), np.flatnonzero(pool.y == 1)
    sent = sent_stacks(monkeypatch)
    with fit_helpers(1) as helpers:
        with pytest.raises(ValueError, match="both classes must be present"):
            helpers.fit(jobs([replace(FAST_CFG, fixed_epochs=1)] * 3, [everything, one_class, everything]))
        assert [len(stack) for stack in sent] == [3]  # one stack
        cfgs = [replace(FAST_CFG, fixed_epochs=2, seed=seed) for seed in (1, 2)]
        again = helpers.fit(jobs(cfgs))
        procs = list(helpers.procs)
    assert stopped(procs)
    assert [m.model.params.tobytes() for m in again] == [fit(pool, candidates, cfg).model.params.tobytes()
                                                          for cfg in cfgs]


class AnsweringHelper:
    """A stand-in for a helper process that answers each stack when the parent flushes it, training nothing.

    Its reply is each job's seed, and ``stacks`` lists the seeds of every stack it was sent.
    """

    def __init__(self):
        read, write = os.pipe()
        self.stdout, self._replies = open(read, "rb"), open(write, "wb")
        self.stacks = []
        helper = self

        class Input(io.BytesIO):
            def flush(self):
                if self.getvalue():
                    helper.answer(pickle.loads(self.getvalue()))
                    self.seek(0)
                    self.truncate()

        self.stdin = Input()

    def answer(self, stack) -> None:
        seeds = [cfg.seed for cfg in stack.cfgs]
        self.stacks.append(seeds)
        pickle.dump((True, seeds), self._replies)
        self._replies.flush()

    def kill(self) -> None:
        pass

    def wait(self) -> int:
        self._replies.close()
        return 0


def split(cfg: ExperimentConfig, n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Repetition 0 of ``cfg`` trained on ``n`` answering helpers: each one's stacks, the jobs' seeds, the replies.

    The seeds and the replies are in job order, the target's first.
    """
    dataset = synth_dataset(cfg.synth)
    challenge, plan = pipeline._draw_rep(dataset, cfg, 0)
    job = pipeline.target_job(challenge, cfg.train)
    helpers = FitHelpers(n)
    helpers.procs = [AnsweringHelper() for _ in range(n)]
    with helpers:
        ensemble, [target] = train_shadow_ensemble(dataset, plan, cfg.train, helpers, lead=[job])
        stacks = [proc.stacks for proc in helpers.procs]
    return stacks, [job[2].seed, *plan.shadow_seeds], [target, *ensemble.models]


# the positive-control workload at seed 1: a 675-row target, 11 batches of 64, and shadows of 8 or 9 batches
CONTROL = ExperimentConfig(
    synth=SynthSpec(n=1500, dim=64, positive_fraction=0.2, separation=4.0, seed=1),
    train=TrainConfig(hidden_dims=(32,), dropout_rate=0.0, weight_decay=0.0, learning_rate=3e-4, max_epochs=200,
                      fixed_epochs=200),
    shadow=ShadowParams(count=10, epochs=200, z_fraction=0.5), seed=1,
)


def sent_once_in_runs(stacks: list[list[list[int]]], seeds: list[int]) -> bool:
    """Whether the helpers' ``stacks`` hold every job of ``seeds`` once, each stack a run of consecutive jobs."""
    sent = [stack for helper in stacks for stack in helper]
    runs = [seeds[seeds.index(stack[0]):seeds.index(stack[0]) + len(stack)] for stack in sent]
    return sent == runs and sorted(seed for stack in sent for seed in stack) == sorted(seeds)


def test_two_helpers_split_a_positive_control_repetition_by_model_steps():
    """2,200 target model-steps and 1,600 or 1,800 a shadow: the target and four shadows, then six; not 5 and 5."""
    stacks, seeds, replies = split(CONTROL, 2)
    assert sorted(stacks) == sorted([[seeds[:5]], [seeds[5:]]])
    assert replies == seeds


def test_an_early_stopping_target_rides_alone_and_every_job_is_sent_once():
    stacks, seeds, replies = split(replace(CONTROL, train=replace(CONTROL.train, fixed_epochs=None)), 2)
    assert [seeds[0]] in [stack for helper in stacks for stack in helper]
    assert sent_once_in_runs(stacks, seeds)
    assert replies == seeds


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_stack_exceeds_its_capacity_and_the_models_return_in_job_order(n):
    cfg = replace(CONTROL, train=replace(CONTROL.train, hidden_dims=(80,)))  # 5,281 parameters, 3 to a stack
    stacks, seeds, replies = split(cfg, n)
    assert max(len(stack) for helper in stacks for stack in helper) == 3
    assert sent_once_in_runs(stacks, seeds)
    assert replies == seeds


def test_a_real_helper_pair_shares_out_model_steps_and_never_exceeds_a_stack(shadow_inputs, monkeypatch,
                                                                             fit_helpers):
    """On started helpers: equal jobs split evenly, the larger count on a tie; a large model goes one at a time."""
    _, _, jobs = shadow_inputs
    sent = sent_stacks(monkeypatch)
    with fit_helpers(2) as helpers:
        helpers.fit(jobs([replace(FAST_CFG, fixed_epochs=1, seed=seed) for seed in range(11)]))
        # 5.5 jobs' model-steps each: 6 on the first, then the other 5
        assert [len(stack) for stack in sent] == [6, 5]
        sent.clear()
        large = replace(FAST_CFG, hidden_dims=(128, 128), fixed_epochs=1)  # over 16k parameters
        helpers.fit(jobs([replace(large, seed=seed) for seed in range(3)]))
        assert [len(stack) for stack in sent] == [1, 1, 1]
    assert stopped(fit_helpers.started)


def test_a_helper_is_sent_only_the_rows_its_stack_trains_on(shadow_inputs, monkeypatch, fit_helpers):
    pool, candidates, jobs = shadow_inputs
    sent = sent_stacks(monkeypatch)
    cfgs = [replace(FAST_CFG, fixed_epochs=1, seed=seed) for seed in (1, 2)]
    rows = [np.arange(40, 0, -2), np.arange(30, 60)]
    with fit_helpers(2) as helpers:
        models = helpers.fit(jobs(cfgs, rows))
    # two helpers, so a stack of one job each
    assert [len(stack) for stack in sent] == [1, 1]
    # in float32, the training dtype, which halves the features sent; the candidates validate each job
    for stack, job_rows in zip(sent, rows, strict=True):
        assert stack.X.dtype == stack.y.dtype == np.float32
        assert np.array_equal(stack.X, np.concatenate([pool.X[np.sort(job_rows)], candidates.X]).astype(np.float32))
        assert np.array_equal(stack.y, np.concatenate([pool.y[np.sort(job_rows)], candidates.y]))
        assert np.array_equal(stack.val_rows[0], np.arange(len(job_rows), len(job_rows) + len(candidates)))
    for model, job_rows, cfg in zip(models, rows, cfgs, strict=True):
        alone = fit(pool.take(job_rows), candidates, cfg)
        assert model.model.params.tobytes() == alone.model.params.tobytes()


def exit_code(proc, seconds: float = 60.0) -> int | None:
    """The helper's exit code, or None if it still runs after ``seconds``."""
    deadline = time.monotonic() + seconds
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.01)
    return proc.poll()


def test_a_helper_whose_input_ends_exits_with_0_after_its_last_reply_and_its_stray_output(
        shadow_inputs, fit_helpers, start_path, monkeypatch, capfd):
    """A helper whose fit prints without a newline to what it sees as stdout."""
    _, _, jobs = shadow_inputs
    real = parallel.fit_stack
    # a forked helper runs this process's patched fit_stack, a spawned one patches its own
    monkeypatch.setattr(parallel, "fit_stack", lambda jobs: print("stray", end="") or real(jobs))
    monkeypatch.setattr(parallel, "_SERVE", "import sys; sys.path[:0] = sys.argv[1:]; from leakaudit import parallel; "
                        "real = parallel.fit_stack; parallel.fit_stack = lambda jobs: print('stray', end='') or "
                        "real(jobs); parallel.serve(sys.stdin.buffer, sys.stdout.buffer)")
    stack = jobs([replace(FAST_CFG, fixed_epochs=2, seed=seed) for seed in (1, 2)])
    with fit_helpers(1) as helpers:
        models = helpers.fit(stack)
        [proc] = helpers.procs
        assert os.getsid(proc.pid) == proc.pid  # in a session of its own, which a Ctrl-C does not reach
        if start_path == "fork":  # its stdout is its stderr, and it keeps no fd of the parent's but 0-2
            fds = {int(fd): os.readlink(f"/proc/{proc.pid}/fd/{fd}") for fd in os.listdir(f"/proc/{proc.pid}/fd")}
            assert len(fds) == 5 and fds[1] == fds[2]
        proc.stdin.close()
        assert exit_code(proc) == 0
        assert proc.stdout.read() == b""
    assert capfd.readouterr() == ("", "stray")
    assert [m.model.params.tobytes() for m in models] == [m.model.params.tobytes() for m in real(stack)]


def test_a_helper_whose_input_ends_exits_while_the_others_run(fit_helpers):
    """No helper holds another's input open: the first of two exits on its own."""
    with fit_helpers(2) as helpers:
        helpers.start()
        first, second = helpers.procs
        first.stdin.close()
        assert exit_code(first) == 0
        assert second.poll() is None
    assert stopped(fit_helpers.started)


def test_an_exception_in_the_parent_stops_every_helper(shadow_inputs, fit_helpers):
    _, _, jobs = shadow_inputs

    class Jobs(FitJobs):
        def __getitem__(self, part):
            if part.start == 1:  # read once the first job runs in a helper
                raise KeyError("job source failed")
            return FitJobs(**{**vars(self), "rows": self.rows[part], "val_rows": self.val_rows[part],
                              "cfgs": self.cfgs[part]})

    helpers = fit_helpers(2)
    with pytest.raises(KeyError), helpers:
        helpers.start()
        procs = list(helpers.procs)
        helpers.fit(Jobs(**vars(jobs([replace(FAST_CFG, fixed_epochs=400)] * 2))))
    assert len(procs) == 2 and stopped(procs)
    assert helpers.procs == []


def test_a_helper_that_exits_before_it_replies_stops_every_helper(shadow_inputs, fit_helpers, monkeypatch):
    _, _, jobs = shadow_inputs
    # a forked helper runs this process's patched fit_stack, a spawned one patches its own
    monkeypatch.setattr(parallel, "fit_stack", lambda jobs: os._exit(3))
    monkeypatch.setattr(parallel, "_SERVE", "import os, sys; sys.path[:0] = sys.argv[1:]; from leakaudit import "
                        "parallel; parallel.fit_stack = lambda jobs: os._exit(3); "
                        "parallel.serve(sys.stdin.buffer, sys.stdout.buffer)")
    with fit_helpers(2) as helpers:
        with pytest.raises(RuntimeError, match="^a fit helper exited before returning its result$"):
            helpers.fit(jobs([replace(FAST_CFG, fixed_epochs=1, seed=seed) for seed in (1, 2)]))
        assert helpers.procs == []
    started = fit_helpers.started
    assert len(started) == 2 and stopped(started)
    # the first to exit stops the other, which may have exited first
    codes = [proc.returncode for proc in started]
    assert 3 in codes and set(codes) <= {3, -signal.SIGKILL}
    for proc in started:
        with pytest.raises(ProcessLookupError):  # reaped
            os.kill(proc.pid, 0)


def test_a_target_that_fails_in_a_helper_raises_its_type_and_leaves_no_helper_running(tmp_path, monkeypatch,
                                                                                      fit_helpers):
    real_target_job = pipeline.target_job

    def one_class_target_job(challenge, cfg):
        train, val, train_cfg = real_target_job(challenge, cfg)
        return train[labels[train] == 1], val, train_cfg

    labels = synth_dataset(pooled_config(tmp_path, "out").synth).y
    sent = sent_stacks(monkeypatch)
    monkeypatch.setattr(pipeline, "helper_count", lambda: 2)
    monkeypatch.setattr(pipeline, "target_job", one_class_target_job)
    report = pipeline.run_experiment(pooled_config(tmp_path, "out"))
    assert set(report["errors"]) == {"0", "1"}
    assert all(error.startswith("ValueError: class weights undefined: both classes must be present")
               for error in report["errors"].values())
    # each repetition's target failed in a helper, at the head of a stack of shadows
    targets = [stack for stack in sent if np.all(stack.y[stack.rows[0]] == 1)]
    assert len(targets) == 2 and all(len(stack) > 1 for stack in targets)
    assert len(fit_helpers.started) == 2 and stopped(fit_helpers.started)


def parent_env(env: dict[str, str]) -> dict[str, str]:
    """The environment of a Python process that imports this checkout's leakaudit, with ``env`` added.

    It is ours without BLAS thread counts, and without ``PYTHONUNBUFFERED``, so that stdout is buffered.
    """
    base = {k: v for k, v in os.environ.items() if k not in (*BLAS_THREAD_VARS, "PYTHONUNBUFFERED")}
    return {**base, **env, "PYTHONPATH": str(Path(parallel.__file__).resolve().parent.parent)}


def os_threads(code: str, env: dict[str, str]) -> list[str]:
    """What ``code`` prints, then the OS threads of the Python process that ran it, with ``env`` added."""
    code += "; print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')))"
    return subprocess.run([sys.executable, "-c", code], env=parent_env(env),
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


# The start of a parent process that imports leakaudit first. With argv[1] == "thread" it runs a second
# thread, so its helpers are spawned. start_of(proc) is how a helper started.
PARENT = """
import sys, threading, time
from pathlib import Path
import leakaudit
if sys.argv[1:] == ["thread"]:
    threading.Thread(target=threading.Event().wait, daemon=True).start()
def start_of(proc):
    while not (cmdline := Path(f"/proc/{proc.pid}/cmdline").read_bytes()):  # empty while a spawned helper execs
        time.sleep(0.001)
    return "fork" if cmdline == Path("/proc/self/cmdline").read_bytes() else "spawn"
"""


def one_stack(epochs: int) -> str:
    """Code that makes ``stack``, two 4-unit models of ``epochs`` epochs on 64 rows of random data."""
    return f"""
import numpy as np
from leakaudit.nnet import FitJobs, TrainConfig
X, y = np.random.default_rng(0).normal(size=(64, 4)), np.arange(64) % 2
cfgs = [TrainConfig(hidden_dims=(4,), fixed_epochs={epochs}, seed=seed) for seed in (1, 2)]
stack = FitJobs(X, y, [np.arange(64)] * 2, [np.arange(64)] * 2, cfgs)
"""


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_helpers_run_blas_on_one_thread_whatever_the_parent_runs(start):
    """Each helper's own thread count after it trained a stack, under a parent on one BLAS thread or on two."""
    if start == "spawn" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("on one core OpenBLAS starts no second thread, and the parent forks")
    code = PARENT + one_stack(2) + """
import json
from leakaudit import parallel
with parallel.FitHelpers(1) as helpers:
    helpers.fit(stack)
    [proc] = helpers.procs
    status = Path(f"/proc/{proc.pid}/status").read_text().splitlines()
    threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
    environ = Path(f"/proc/{proc.pid}/environ").read_bytes().decode().split("\\0")
    print(json.dumps({"start": start_of(proc), "threads": threads, "environ": environ}))
"""
    env = {var: "2" for var in BLAS_THREAD_VARS} if start == "spawn" else {}
    shown = json.loads(subprocess.run([sys.executable, "-c", code], env=parent_env(env), capture_output=True,
                                      text=True, check=True, timeout=120).stdout)
    assert shown["start"] == start
    assert shown["threads"] == 1
    if start == "spawn":
        assert {f"{var}=1" for var in BLAS_THREAD_VARS} <= set(shown["environ"])


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_a_partial_line_the_parent_left_unflushed_appears_once(start):
    """On stdout and on a stderr that buffers, as stdout does, also when a forked helper logs through both."""
    code = PARENT + one_stack(2) + """
import io, logging
from leakaudit import parallel
sys.stderr = io.TextIOWrapper(io.BufferedWriter(io.FileIO(2, "w", closefd=False)), line_buffering=True)
log = logging.getLogger("helper")
for stream in (sys.stdout, sys.stderr):
    log.addHandler(logging.StreamHandler(stream))
real = parallel.fit_stack
parallel.fit_stack = lambda jobs: log.warning("fit") or real(jobs)
sys.stdout.write("out")
sys.stderr.write("partial")
with parallel.FitHelpers(1) as helpers:
    helpers.fit(stack)
    started = start_of(helpers.procs[0])
sys.stderr.write(" line\\n")
print("", started)
"""
    args = ["thread"] if start == "spawn" else []
    done = subprocess.run([sys.executable, "-c", code, *args], env=parent_env({}), capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout == f"out {start}\n"
    # a forked helper's stdout is its stderr; a spawned helper runs its own fit_stack, which logs nothing
    assert done.stderr == {"fork": "partialfit\nfit\n line\n", "spawn": "partial line\n"}[start]


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_a_ctrl_c_in_the_parent_stops_every_helper(start):
    """SIGINT to the parent's process group, as a terminal sends it, while both helpers fit."""
    code = PARENT + one_stack(100_000) + """
from leakaudit.parallel import FitHelpers
with FitHelpers(2) as helpers:
    helpers.start()
    print(*(start_of(proc) for proc in helpers.procs), *(proc.pid for proc in helpers.procs), flush=True)
    helpers.fit(stack)
"""
    args = ["thread"] if start == "spawn" else []
    parent = subprocess.Popen([sys.executable, "-c", code, *args], env=parent_env({}), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        starts_and_pids = parent.stdout.readline().split()
        os.killpg(parent.pid, signal.SIGINT)
        _, err = parent.communicate(timeout=60)
    finally:
        parent.kill()
        parent.wait()
    assert starts_and_pids[:2] == [start, start]
    assert parent.returncode != 0 and err.rstrip().endswith("KeyboardInterrupt")
    for pid in map(int, starts_and_pids[2:]):
        with pytest.raises(ProcessLookupError):  # the parent waited for it
            os.kill(pid, 0)
