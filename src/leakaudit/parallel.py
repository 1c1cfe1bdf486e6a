"""Model fits in helper processes, one per available core.

The fits of a repetition, the target's and the shadows', are independent
and each has its own seed, so where a fit runs, and beside which other
fits, does not change its result. :class:`FitHelpers` starts its helpers
with ``subprocess`` from ``sys.executable``, each with one-thread BLAS, as
every leakaudit process has it (see :mod:`leakaudit`), so that the helpers
do not oversubscribe the cores. It does not use
``multiprocessing``: a pool's handler threads cost the parent memory,
and its ``spawn`` start re-runs an unguarded ``__main__``.

The parent dispatches from its own thread. :meth:`FitHelpers.submit`
queues a batch of jobs, a :class:`leakaudit.nnet.FitJobs`, and returns;
while any :class:`Batch` is waited for, the parent sends each idle
helper a stack of queued jobs, a slice of the batch packed to the rows
it trains on (:meth:`leakaudit.nnet.FitJobs.packed`). The helper trains
it in lockstep with :func:`leakaudit.nnet.fit_stack`, as
:func:`leakaudit.game.start_fits` trains a batch when there are no
helpers. A repetition submits two batches: the target alone, then its
shadows. A stack takes an even share of the jobs not yet finished,
counting those still running, so that the helpers finish together, and
at most :func:`leakaudit.nnet.stack_capacity` jobs, which keeps large
models in stacks of one; it never mixes two batches. The parent finds
the idle helper with ``select`` on the helpers' stdout and stores each
result under its batch and job index, so the output does not depend on
scheduling. Helpers use POSIX pipes and ``select``.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import select
import subprocess
import sys
import traceback
from collections import deque
from collections.abc import Sequence
from pathlib import Path

from leakaudit import BLAS_THREAD_VARS
from leakaudit.nnet import FitJobs, TrainedModel, fit_stack, stack_capacity

__all__ = ["Batch", "FitHelpers", "helper_count", "step_seconds"]

# A helper costs about 0.2 s of CPU to start, mostly the numpy import. Below
# this many estimated seconds of fits per repetition the start-up eats what
# the other cores save.
MIN_FIT_SECONDS = 1.0
# One optimizer step on one core: a fixed cost for the Python and numpy calls
# plus a cost per multiply-add of one row through the layers. Fitted to lone
# float32 fits, one-thread BLAS, batch 64, on a 2-vCPU host: 8 units on 16
# features, 32 and 128 units on 64, and 256x128 units on 64, 256 and 2,048
# features. They took 113 us to 8.3 ms a step, each within 0.7x to 1.2x of this.
STEP_BASE_S = 110e-6
MULTIPLY_ADD_S = 0.25e-9

# -S skips the site module, a fifth of a helper's start-up; the parent's own
# import path, passed as arguments, stands in for what site would add
_SERVE = "import sys; sys.path[:0] = sys.argv[1:]; from leakaudit.parallel import serve; serve()"
# the helpers run BLAS on one thread even where the user set another count for the parent
_ONE_THREAD_BLAS = dict.fromkeys(BLAS_THREAD_VARS, "1")


def step_seconds(batch_size: int, dims: Sequence[int]) -> float:
    """Estimated seconds of one optimizer step, its share of the per-epoch evaluation included, on one core.

    It prices one model's step, as if fits ran one at a time: a step in a stack costs less.
    """
    return STEP_BASE_S + MULTIPLY_ADD_S * batch_size * sum(a * b for a, b in zip(dims, dims[1:]))


def helper_count(fit_seconds: float) -> int:
    """Helpers worth starting for this many estimated seconds of fits: one per available core, or none."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cores if cores > 1 and fit_seconds >= MIN_FIT_SECONDS else 0


class FitHelpers:
    """``n`` helper processes that run fit jobs, a stack at a time.

    A context manager: the helpers start on the first :meth:`start` or
    :meth:`submit` and are all stopped and waited for on exit. With
    ``n == 0`` it is empty (false) and starts nothing.
    """

    def __init__(self, n: int):
        self.n = n
        self.procs: list[subprocess.Popen] = []
        self._idle: list[subprocess.Popen] = []
        self._running: dict[subprocess.Popen, tuple[Batch, range]] = {}  # each helper's batch and job indices
        self._queue: deque[Batch] = deque()  # batches with jobs not yet sent, oldest first

    def __len__(self) -> int:
        return self.n

    def __enter__(self) -> "FitHelpers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Start the helpers unless they run; returns without waiting for them to load."""
        if self.procs:
            return
        src = str(Path(__file__).resolve().parent.parent)
        env = {**os.environ, **_ONE_THREAD_BLAS}
        # in a session of their own, a Ctrl-C reaches only the parent, which stops them
        self.procs = [
            subprocess.Popen([sys.executable, "-S", "-c", _SERVE, src, *sys.path], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, env=env, start_new_session=True)
            for _ in range(self.n)
        ]
        self._idle = list(self.procs)

    def submit(self, jobs: FitJobs) -> Batch:
        """Queue a fit of every job behind the batches already queued; returns without waiting.

        Idle helpers get the first jobs at once, the rest as helpers come
        free while any batch is waited for. The jobs of a batch train in
        stacks, so a batch of more than one job must be what
        :func:`leakaudit.nnet.fit_stack` stacks: recipes that differ only
        in the seed and set ``fixed_epochs``.
        """
        if not self.n:
            raise ValueError("FitHelpers(0) has no helper to run a job")
        self.start()
        batch = Batch(self, jobs)
        self._queue.append(batch)
        with self._stopped_on_error():
            self._dispatch()
        return batch

    def _dispatch(self) -> None:
        """Send each idle helper the next stack of queued jobs, the oldest batch first."""
        while self._idle and self._queue:
            batch = self._queue[0]
            if batch.sent == len(batch.jobs):
                self._queue.popleft()
                continue
            unfinished = (sum(len(indices) for _, indices in self._running.values())
                          + sum(len(b.jobs) - b.sent for b in self._queue))
            jobs = batch.jobs
            size = min(math.ceil(unfinished / self.n), len(jobs) - batch.sent,
                       stack_capacity(jobs.X.shape[1], jobs.cfgs[batch.sent].hidden_dims))
            indices = range(batch.sent, batch.sent + size)
            stack = jobs[indices.start:indices.stop].packed()
            proc = self._idle.pop()
            self._running[proc] = batch, indices
            batch.sent += size
            # the rows the stack trains on once, then each job's rows and recipe; protocol 5 streams the
            # arrays from their own memory, with no copy
            pickle.dump(stack, proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            proc.stdin.flush()

    def _collect(self) -> None:
        """Wait for a running helper's reply; file every reply that is ready under its batch and job indices."""
        ready, _, _ = select.select([p.stdout for p in self._running], [], [])
        for proc in [p for p in self._running if p.stdout in ready]:
            ok, value = pickle.load(proc.stdout)
            batch, indices = self._running.pop(proc)
            self._idle.append(proc)
            if ok:
                batch.results.update(zip(indices, value))
            elif batch.failure is None:
                batch.failure = value
                if batch in self._queue:  # send none of its other jobs
                    self._queue.remove(batch)

    @contextlib.contextmanager
    def _stopped_on_error(self):
        """Stop every helper if the body raises, since a job may be half sent or half read."""
        try:
            yield
        except (EOFError, BrokenPipeError) as exc:
            self.close()
            raise RuntimeError("a fit helper exited before returning its result") from exc
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop every helper: kill those mid-job, end the input of the rest, then wait for all."""
        for proc in self._running:
            proc.kill()
        procs, self.procs = self.procs, []
        self._idle, self._running, self._queue = [], {}, deque()
        for proc in procs:
            with contextlib.suppress(BrokenPipeError):  # a killed helper left a job unread
                proc.stdin.close()
        for proc in procs:
            proc.wait()
            proc.stdout.close()


class Batch:
    """The jobs of one :meth:`FitHelpers.submit` call; :meth:`wait` returns their models."""

    def __init__(self, helpers: FitHelpers, jobs: FitJobs):
        self.helpers = helpers
        self.jobs = jobs
        self.sent = 0
        self.results: dict[int, TrainedModel] = {}
        self.failure: tuple[BaseException, str] | None = None

    def wait(self) -> list[TrainedModel]:
        """The models of this batch in job order, once every job sent has returned.

        Meanwhile the helpers keep running the jobs of every queued batch.
        An exception that a fit raised in a helper is raised here once
        this batch's other running stacks have returned. A helper that
        dies or an interrupt stops every helper.
        """
        helpers = self.helpers
        with helpers._stopped_on_error():
            while self in helpers._queue or any(b is self for b, _ in helpers._running.values()):
                helpers._collect()
                helpers._dispatch()
        if self.failure is not None:
            error, helper_traceback = self.failure
            raise error from RuntimeError(f"in a fit helper:\n{helper_traceback}")
        if len(self.results) < len(self.jobs):
            raise RuntimeError("the fit helpers were stopped before this batch finished")
        return [self.results[i] for i in range(len(self.jobs))]


def serve() -> None:
    """A helper's loop: fit each pickled stack of jobs from stdin, write ``(ok, models or error)`` to stdout.

    When its input ends the helper flushes stderr and exits at once with
    ``os._exit(0)``: every reply is written and flushed, and the
    interpreter's teardown would only keep the parent waiting.
    """
    jobs, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the replies
    while True:
        try:
            stack = pickle.load(jobs)
        except EOFError:
            sys.stderr.flush()
            os._exit(0)
        try:
            reply = pickle.dumps((True, fit_stack(stack)))
        except Exception as exc:  # noqa: BLE001 - the parent raises it
            failure = (exc, traceback.format_exc())
            try:
                reply = pickle.dumps((False, failure))
            except Exception:  # noqa: BLE001 - an exception that does not pickle
                reply = pickle.dumps((False, (RuntimeError(f"{type(exc).__name__}: {exc}"), failure[1])))
        replies.write(reply)
        replies.flush()
