"""Privacy audit toolkit: membership-inference attacks against binary classifiers.

Runs the membership-inference game end-to-end (target training, shadow
ensembles, LiRA and RMIA scoring) and evaluates leakage via TPR at low
FPR, overlap analysis, and minority-class enrichment. Each part is a
submodule, such as :mod:`leakaudit.pipeline` or :mod:`leakaudit.nnet`.
"""

__version__ = "0.1.0"
