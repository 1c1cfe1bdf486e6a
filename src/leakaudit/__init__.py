"""Privacy audit toolkit: membership-inference attacks against binary classifiers.

Runs the membership-inference game end-to-end (target training, shadow
ensembles, LiRA and RMIA scoring) and evaluates leakage via TPR at low
FPR, overlap analysis, and minority-class enrichment. Each part is a
submodule, such as :mod:`leakaudit.pipeline` or :mod:`leakaudit.nnet`.

Every leakaudit process runs BLAS on one thread: its only parallelism is
the fit helpers of :mod:`leakaudit.parallel`. The thread count is read
when numpy is first imported, so it is set here, before any submodule
imports numpy. A value already in the environment wins, and a program
that imports numpy before leakaudit keeps numpy's default.
"""

import os

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var
