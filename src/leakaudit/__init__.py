"""Privacy audit toolkit: membership-inference attacks against binary classifiers.

Runs the membership-inference game end-to-end (target training, shadow
ensembles, LiRA and RMIA scoring) and evaluates leakage via TPR at low
FPR, overlap analysis, and minority-class enrichment.
"""

from leakaudit.data import Dataset, SplitAssignment, class_weights, load_dataset, split_dataset
from leakaudit.nnet import MlpModel, TrainConfig, TrainedModel, fit, init_model, predict_confidences
from leakaudit.game import (
    Challenge,
    ConfidenceMatrix,
    ShadowEnsemble,
    TargetArtifacts,
    assign_membership,
    collect_confidences,
    run_game,
    train_shadow_ensemble,
)
from leakaudit.attacks import AttackScores, LiraParams, RmiaParams, run_lira, run_rmia
from leakaudit.evaluation import (
    RocCurve,
    baseline_tpr,
    identified_members,
    overlap_fraction,
    roc_curve,
    tpr_at_fpr,
)

__version__ = "0.1.0"
