"""Model fits in helper processes, one per available core.

The fits of a repetition, the target's and the shadows', are independent
and each has its own seed, so where a fit runs, and beside which other
fits, does not change its result. Every helper runs BLAS on one thread,
as every leakaudit process does (see :mod:`leakaudit`), so that the
helpers do not oversubscribe the cores. :class:`FitHelpers` starts them
in one of two ways, chosen by what the parent is:

- A parent that runs on one OS thread (``/proc/self/task`` holds one
  entry) forks them. Such a parent runs one-thread BLAS, since OpenBLAS
  starts its thread pool when numpy loads, and no other thread can hold
  a lock across the fork. A forked helper already holds numpy,
  leakaudit and the data: a fork of a 45 MB parent takes about 1 ms on
  a 2-vCPU host, where a fresh interpreter takes 0.14-0.20 s of CPU to
  import them.
- Any other parent starts them with ``subprocess`` from
  ``sys.executable``, with the BLAS thread count set to one in their
  environment. That covers a user-set thread count, numpy imported
  before leakaudit, threads of the application, and a platform without
  ``/proc``.

Nothing but :meth:`FitHelpers.start` depends on the start path: both
helpers serve from two pipes with :func:`serve`. It does not use
``multiprocessing``: a pool's handler threads cost the parent memory,
and its ``spawn`` start re-runs an unguarded ``__main__``.

The parent dispatches from its own thread. :meth:`FitHelpers.fit`
takes a batch of jobs, a :class:`leakaudit.nnet.FitJobs`, and blocks
until every job has returned: it sends each idle helper the next stack
of the batch, packed to the rows it trains and validates on
(:meth:`leakaudit.nnet.FitJobs.packed`). The helper trains it in
lockstep with :func:`leakaudit.nnet.fit_stack`, as
:func:`leakaudit.game.fit_batch` trains a batch when there are no
helpers. A repetition fits one batch: its target, then its shadows.

A stack is a run of consecutive jobs of the batch that ``fit_stack``
takes together (:meth:`leakaudit.nnet.FitJobs.stack_end`): recipes that
differ only in the seed, with ``fixed_epochs`` set, and at most
:func:`leakaudit.nnet.stack_capacity` of them, which keeps large models
in stacks of one. Of that run an idle helper takes the first jobs whose
model-steps, ``ceil(rows / batch_size) × epochs`` each, come nearest to
an even share of the model-steps not yet finished, those still running
included, so that the helpers finish together. With two helpers a
positive-control repetition, of 2,200 model-steps for the target and
1,600 or 1,800 for each shadow, runs as the target and four shadows on
one helper and six shadows on the other, where an even share of the
jobs would have given the target and five. An early-stopping target
stacks with nothing and trains alone. The parent finds the idle helper
with ``select`` on the helpers' stdout and stores each result under its
job index, so the output does not depend on scheduling. Helpers use
POSIX pipes and ``select``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import traceback
from collections.abc import Sequence
from pathlib import Path
from typing import BinaryIO, NoReturn

from leakaudit import BLAS_THREAD_VARS
from leakaudit.nnet import FitJobs, TrainedModel, fit_stack

__all__ = ["FitHelpers", "helper_count", "step_seconds"]

# Below this many estimated seconds of fits per repetition the fits run in-process. A forked helper
# starts in about 1 ms (a 45 MB parent on a 2-vCPU host), but a spawned one imports numpy and
# leakaudit afresh, 0.14-0.20 s of CPU each; on either path every stack is packed, pickled and sent
# through a pipe, and the shadows train in smaller stacks than the one stack of an in-process run.
# The value dates from spawned helpers only and is not re-tuned for forked ones.
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
_SERVE = ("import sys; sys.path[:0] = sys.argv[1:]; from leakaudit.parallel import serve; "
          "serve(sys.stdin.buffer, sys.stdout.buffer)")
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
    :meth:`fit` and are all stopped and waited for on exit. With
    ``n == 0`` it is empty (false) and starts nothing.
    """

    def __init__(self, n: int):
        self.n = n
        self.procs: list[subprocess.Popen | _Forked] = []

    def __len__(self) -> int:
        return self.n

    def __enter__(self) -> "FitHelpers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Start the helpers unless they run; returns without waiting for them to load.

        A parent on one OS thread forks them; any other spawns them (see the module's docstring).
        """
        if self.procs:
            return
        if _one_thread():
            self.procs = [_Forked() for _ in range(self.n)]
        else:
            src = str(Path(__file__).resolve().parent.parent)
            env = {**os.environ, **_ONE_THREAD_BLAS}
            # in a session of their own, a Ctrl-C reaches only the parent, which stops them
            self.procs = [
                subprocess.Popen([sys.executable, "-S", "-c", _SERVE, src, *sys.path], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, env=env, start_new_session=True)
                for _ in range(self.n)
            ]

    def fit(self, jobs: FitJobs) -> list[TrainedModel]:
        """Fit every job on the helpers; returns their models in job order once every job has returned.

        The jobs train in stacks of consecutive jobs that
        :func:`leakaudit.nnet.fit_stack` takes together; a job that stacks
        with none trains alone. Each idle helper gets the next stack (see
        the module's docstring). An exception that a fit raised in a helper
        is raised here once the other running stacks have returned, and
        leaves the helpers ready. A helper that dies or an interrupt stops
        every helper, since a stack may be half sent or half read.
        """
        if not self.n:
            raise ValueError("FitHelpers(0) has no helper to run a job")
        self.start()
        # each job's model-steps, what the helpers share out: its batches an epoch times its (most) epochs
        steps = [math.ceil(len(rows) / cfg.batch_size) * (cfg.fixed_epochs or cfg.max_epochs)
                 for rows, cfg in zip(jobs.rows, jobs.cfgs, strict=True)]
        idle = list(self.procs)
        running: dict[subprocess.Popen | _Forked, range] = {}  # each running helper's job indices
        results: list[TrainedModel | None] = [None] * len(jobs)
        failure: tuple[BaseException, str] | None = None
        sent = 0
        try:
            while True:
                while idle and sent < len(jobs) and failure is None:
                    unfinished = sum(steps[i] for indices in running.values() for i in indices) + sum(steps[sent:])
                    indices = range(sent, sent + _share(steps[sent:jobs.stack_end(sent)], unfinished / self.n))
                    proc = idle.pop()
                    running[proc] = indices
                    sent = indices.stop
                    # the stack packed to the rows it trains on, then each job's rows and recipe; protocol 5
                    # streams the arrays from their own memory, with no copy
                    pickle.dump(jobs[indices.start:indices.stop].packed(), proc.stdin,
                                protocol=pickle.HIGHEST_PROTOCOL)
                    proc.stdin.flush()
                if not running:
                    break
                ready, _, _ = select.select([p.stdout for p in running], [], [])
                for proc in [p for p in running if p.stdout in ready]:
                    ok, value = pickle.load(proc.stdout)
                    indices = running.pop(proc)
                    idle.append(proc)
                    if ok:
                        results[indices.start:indices.stop] = value
                    elif failure is None:  # send none of the other jobs
                        failure = value
        except BaseException as exc:
            for proc in running:
                proc.kill()
            self.close()
            if isinstance(exc, (EOFError, BrokenPipeError)):
                raise RuntimeError("a fit helper exited before returning its result") from exc
            raise
        if failure is not None:
            error, helper_traceback = failure
            raise error from RuntimeError(f"in a fit helper:\n{helper_traceback}")
        return results

    def close(self) -> None:
        """Stop every helper: end the input of each, then wait for all."""
        procs, self.procs = self.procs, []
        for proc in procs:
            with contextlib.suppress(BrokenPipeError):  # a killed helper left a stack unread
                proc.stdin.close()
        for proc in procs:
            proc.wait()
            proc.stdout.close()


def _share(steps: Sequence[int], share: float) -> int:
    """How many of the jobs of ``steps`` model-steps, taken in order, come nearest to ``share`` in all; at least one.

    Of two counts equally near, the larger.
    """
    totals = list(itertools.accumulate(steps))
    return min(range(len(totals), 0, -1), key=lambda count: abs(totals[count - 1] - share))


def _one_thread() -> bool:
    """Whether this process runs on one OS thread, as ``/proc/self/task`` shows; False where it cannot be read."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


class _Forked:
    """A helper forked from this process, serving from two pipes: what :class:`FitHelpers` uses of a ``Popen``."""

    def __init__(self):
        jobs, self_jobs = os.pipe()
        self_replies, replies = os.pipe()
        # a buffered line would otherwise be written again by the helper
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (jobs, self_jobs, self_replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve_forked(jobs, replies)
        os.close(jobs)
        os.close(replies)
        self.stdin = open(self_jobs, "wb")
        self.stdout = open(self_replies, "rb")
        self.returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self) -> int:
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:  # a reaped pid may belong to another process by now
            os.kill(self.pid, signal.SIGKILL)


def _serve_forked(jobs: int, replies: int) -> NoReturn:
    """A forked helper's whole life: keep only its pipes and fds 0-2, then :func:`serve`; never returns."""
    try:
        # in a session of its own, a Ctrl-C reaches only the parent, which stops it
        os.setsid()
        # the parent's other pipe ends, those of earlier helpers included: a helper whose input the parent
        # closes must see its end
        for fd in map(int, os.listdir("/proc/self/fd")):  # readable, as /proc/self/task was
            if fd > 2 and fd not in (jobs, replies):
                with contextlib.suppress(OSError):  # the listing's own fd, closed by now
                    os.close(fd)
        # a stray write to stdout goes to stderr, never to the parent's stdout; sys.stderr may have
        # written to an fd closed above (a captured stream), so it writes to fd 2 again
        os.dup2(2, 1)
        sys.stderr = open(2, "w", errors="backslashreplace", buffering=1, closefd=False)
        serve(open(jobs, "rb"), open(replies, "wb"))
    except BaseException:  # noqa: BLE001 - it must not return into the parent's code
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(1)


def serve(jobs: BinaryIO, replies: BinaryIO) -> NoReturn:
    """A helper's loop: fit each pickled stack of jobs from ``jobs``, write ``(ok, models or error)`` to ``replies``.

    When its input ends the helper flushes stderr and exits at once with
    ``os._exit(0)``: every reply is written and flushed, and the
    interpreter's teardown would only keep the parent waiting.
    """
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
