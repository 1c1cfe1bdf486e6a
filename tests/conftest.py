"""Loaded by pytest before any test module, so that leakaudit loads before numpy.

numpy then starts with leakaudit's one BLAS thread, and the test process
runs on one OS thread: a parent that forks its fit helpers. Were numpy
imported first, it would start a BLAS thread per core, and every helper
would be spawned (see :mod:`leakaudit.parallel`).
"""

import leakaudit.parallel


def pytest_report_header() -> str:
    return f"fit helpers start by {'fork' if leakaudit.parallel._one_thread() else 'spawn'}"
