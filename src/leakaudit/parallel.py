"""Shadow fits in helper processes, one per available core.

The shadow fits of a repetition are independent and each has its own
seed, so where a fit runs does not change its result. :class:`FitHelpers`
starts its helpers with ``subprocess`` from ``sys.executable``, each with
one-thread BLAS so that the helpers do not oversubscribe the cores. It
does not use ``multiprocessing``: a pool's handler threads cost the
parent memory, and its ``spawn`` start re-runs an unguarded ``__main__``.

The parent dispatches from its own thread. It pickles a
``(d_train, d_val, cfg)`` job only when a helper is idle, finds the idle
helper with ``select`` on the helpers' stdout, and stores each result
under its job index, so the output does not depend on scheduling.
Helpers use POSIX pipes and ``select``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Iterable

from leakaudit.data import Dataset
from leakaudit.nnet import TrainConfig, TrainedModel, fit

__all__ = ["FitHelpers", "helper_count"]

# A helper costs about 0.3 s of CPU to start, mostly the numpy import, and
# a small-MLP optimizer step about 70 us. Below this many shadow steps per
# repetition the start-up eats what the other cores save.
MIN_SHADOW_STEPS = 10_000

_SERVE = "import sys; sys.path.insert(0, sys.argv[1]); from leakaudit.parallel import serve; serve()"
_ONE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def helper_count(shadow_steps: int) -> int:
    """Helpers worth starting for this many shadow optimizer steps: one per available core, or none."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cores if cores > 1 and shadow_steps >= MIN_SHADOW_STEPS else 0


class FitHelpers:
    """``n`` helper processes that run :func:`leakaudit.nnet.fit` jobs.

    A context manager: the helpers start on the first :meth:`start` or
    :meth:`fit_all` and are all stopped and waited for on exit. With
    ``n == 0`` it is empty (false) and starts nothing.
    """

    def __init__(self, n: int):
        self.n = n
        self.procs: list[subprocess.Popen] = []

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
            subprocess.Popen([sys.executable, "-c", _SERVE, src], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, env=env, start_new_session=True)
            for _ in range(self.n)
        ]

    def fit_all(self, jobs: Iterable[tuple[Dataset, Dataset, TrainConfig]]) -> list[TrainedModel]:
        """``fit(*job)`` for every job, in job order, wherever each one ran.

        A job is pickled only when a helper is idle for it. An exception
        that a fit raises in a helper is raised here once the other
        helpers have finished their jobs, so they stay ready for the
        next call. A helper that dies or an interrupt stops every helper.
        """
        self.start()
        pending = enumerate(jobs)
        idle = list(self.procs)
        running: dict[subprocess.Popen, int] = {}
        results: dict[int, TrainedModel] = {}
        failure = None
        try:
            while True:
                while idle and failure is None and (job := next(pending, None)) is not None:
                    proc = idle.pop()
                    running[proc] = job[0]
                    # protocol 5 streams the arrays from their own memory, with no copy
                    pickle.dump(job[1], proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                    proc.stdin.flush()
                if not running:
                    break
                ready, _, _ = select.select([p.stdout for p in running], [], [])
                for proc in [p for p in running if p.stdout in ready]:
                    ok, value = pickle.load(proc.stdout)
                    index = running.pop(proc)
                    idle.append(proc)
                    if ok:
                        results[index] = value
                    elif failure is None:
                        failure = value
        except (EOFError, BrokenPipeError) as exc:
            self.close(kill=running)
            raise RuntimeError("a fit helper exited before returning its result") from exc
        except BaseException:
            self.close(kill=running)
            raise
        if failure is not None:
            error, helper_traceback = failure
            raise error from RuntimeError(f"in a fit helper:\n{helper_traceback}")
        return [results[i] for i in range(len(results))]

    def close(self, kill: Iterable[subprocess.Popen] = ()) -> None:
        """Stop every helper: ``kill`` those mid-job, end the input of the rest, then wait for all."""
        for proc in kill:
            proc.kill()
        procs, self.procs = self.procs, []
        for proc in procs:
            with contextlib.suppress(BrokenPipeError):  # a killed helper left a job unread
                proc.stdin.close()
        for proc in procs:
            proc.wait()
            proc.stdout.close()


def serve() -> None:
    """A helper's loop: fit each pickled job from stdin, write ``(ok, result)`` to stdout."""
    jobs, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the replies
    while True:
        try:
            job = pickle.load(jobs)
        except EOFError:
            return
        try:
            reply = pickle.dumps((True, fit(*job)))
        except Exception as exc:  # noqa: BLE001 - the parent raises it
            failure = (exc, traceback.format_exc())
            try:
                reply = pickle.dumps((False, failure))
            except Exception:  # noqa: BLE001 - an exception that does not pickle
                reply = pickle.dumps((False, (RuntimeError(f"{type(exc).__name__}: {exc}"), failure[1])))
        replies.write(reply)
        replies.flush()
