"""Host-speed probe: scales the benchmark's wall times to a fixed host speed.

The shared host runs a vCPU at one of a few speeds: a fixed kernel takes
1.5-2x longer in its slow states than in its fast one, the state switches
every few seconds, and the host can stay slow for ten minutes or more.
A wall time therefore follows the host as much as the program. Each
timed call is bracketed by two short probes of a fixed kernel, and its
time is reported as ``wall * REFERENCE_S / mean(before, after)``: the
seconds it would take on a host where the kernel runs in ``REFERENCE_S``.

The kernel mixes what the audits spend their time on: tiny matmuls and
interpreter arithmetic (training steps) and building and serialising
Python objects (the attacks, manifests and score files). It is the
benchmark's own code, so a change to leakaudit cannot move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# seconds per kernel() call in the host's fast state, on the 2-vCPU Xeon
# (Sapphire Rapids, KVM) the bounds in BENCHMARK.json were set on
REFERENCE_S = 0.63e-3
PROBE_S = 0.15

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 32))
_X = _rng.standard_normal((128, 64))


def kernel() -> float:
    s = 0.0
    for _ in range(20):
        s += float(np.maximum(_X @ _W, 0.0).sum())
        for i in range(50):
            s += i * 0.5
    table = {str(i): [i, i * 0.5, (i, str(i))] for i in range(300)}
    return s + len(json.dumps(table))


def probe(seconds: float = PROBE_S) -> float:
    """Mean seconds per kernel() call over about ``seconds`` of calls."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / calls


def scale(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` at reference speed, from the probes taken just before and after it."""
    return wall_s * REFERENCE_S * 2.0 / (before + after)
