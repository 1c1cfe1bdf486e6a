"""Privacy audit toolkit: membership-inference attacks against binary classifiers.

Runs the membership-inference game end-to-end (target training, shadow
ensembles, LiRA and RMIA scoring) and evaluates leakage via TPR at low
FPR, overlap analysis, and minority-class enrichment.

The names below load their module on first use, so that a fit helper
process (see :mod:`leakaudit.parallel`) imports only what a fit needs.
"""

import importlib

_EXPORTS = {
    "leakaudit.data": ("Dataset", "class_weights", "load_dataset"),
    "leakaudit.nnet": ("MlpModel", "TrainConfig", "TrainedModel", "fit", "init_model", "predict_confidences"),
    "leakaudit.game": ("Challenge", "ShadowEnsemble", "TargetArtifacts", "collect_confidences", "run_game",
                       "train_shadow_ensemble"),
    "leakaudit.attacks": ("AttackScores", "LiraParams", "RmiaParams", "run_lira", "run_rmia"),
    "leakaudit.evaluation": ("RocCurve", "baseline_tpr", "identified_members", "overlap_fraction", "roc_curve",
                             "tpr_at_fpr"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module 'leakaudit' has no attribute {name!r}")
    return getattr(importlib.import_module(_HOME[name]), name)
