"""Per-sample membership scores: likelihood-ratio (LiRA) and robust (RMIA) attacks.

Both attacks are pure, bit-deterministic functions of confidence arrays;
:func:`z_confidences`, which gathers RMIA's Z table, is the one function
here that queries models. Every per-candidate array (target confidences,
matrix rows, scores and flag rows) follows one order: the challenge's
candidates in dataset order, as ``TargetArtifacts.rows`` lists them. Both
attacks score every candidate at once: LiRA from masked row sums over the
candidate x shadow logit matrix, RMIA by one sort of the Z ratios and one
binary search per candidate. The LiRA score is the natural-log likelihood
ratio. This module scores and writes no file: :mod:`leakaudit.pipeline`
writes the score CSVs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from leakaudit.data import Dataset
from leakaudit.game import ShadowEnsemble, collect_confidences
from leakaudit.nnet import TrainedModel, predict_confidences
from leakaudit.recipe import check
from leakaudit.stats import fit_gaussian

__all__ = [
    "LiraParams",
    "RmiaParams",
    "AttackScores",
    "rescale_confidence",
    "run_lira",
    "z_confidences",
    "run_rmia",
]

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class LiraParams:
    clip_eps: float = 1e-6
    variance_floor: float = 1e-6
    global_variance: bool = False

    def __post_init__(self):
        check(
            ("clip_eps", 0.0 < self.clip_eps < 0.5, f"must be in (0, 0.5), got {self.clip_eps}"),
            ("variance_floor", self.variance_floor > 0, f"must be positive, got {self.variance_floor}"),
        )


@dataclass(frozen=True)
class RmiaParams:
    gamma: float = 2.0

    def __post_init__(self):
        check(("gamma", self.gamma > 0, f"must be positive, got {self.gamma}"))


@dataclass
class AttackScores:
    """Per-candidate membership scores, one per candidate row; higher means more likely a member.

    ``flags`` maps the row of each fallback-scored candidate to its reason; only LiRA falls back.
    """

    scores: np.ndarray
    flags: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        bad = np.flatnonzero(~np.isfinite(self.scores))
        if bad.size:
            raise ValueError(f"non-finite scores at candidate rows {bad[:5].tolist()}")


def rescale_confidence(p: float | np.ndarray, eps: float = LiraParams.clip_eps) -> float | np.ndarray:
    """Logit rescaling log(p / (1 - p)) with endpoint clipping."""
    clipped = np.clip(np.asarray(p, dtype=float), eps, 1.0 - eps)
    out = np.log(clipped / (1.0 - clipped))
    return float(out) if np.ndim(p) == 0 else out


def _log_normal_pdf(x, mean, var):
    return -0.5 * np.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def _check_shapes(target: np.ndarray, values: np.ndarray) -> None:
    if values.ndim != 2 or target.shape != values.shape[:1]:
        raise ValueError(f"target {target.shape} and values {values.shape} "
                         "are not aligned as one (candidate x shadow) matrix")


def run_lira(
    target: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
    params: LiraParams = LiraParams(),
) -> AttackScores:
    """Per-candidate log-likelihood ratios from the (candidate x shadow) confidences ``values``.

    ``target`` holds the target's confidence of each candidate and ``mask``
    marks the shadows that trained on it. Each side's Gaussian is fitted
    to the candidate's in-shadow (or out-shadow) logits: the mean, and the
    unbiased variance floored at ``variance_floor`` (exactly the floor for
    a single logit). Candidates lacking an in-shadow (or out-shadow)
    population are scored against a Gaussian pooled over all candidates'
    out-shadow logits and flagged.
    """
    _check_shapes(target, values)
    if mask.shape != values.shape:
        raise ValueError(f"mask {mask.shape} and values {values.shape} are not aligned")
    logits = rescale_confidence(values, params.clip_eps)
    inside = mask.astype(bool)
    floor = params.variance_floor
    pooled_out = logits[~inside]
    pooled_fit = fit_gaussian(pooled_out, floor=floor) if pooled_out.size else None

    # per side (in, out): logit count, mean and sum of squared deviations of every candidate
    sides = []
    for name, member in (("in", inside), ("out", ~inside)):
        count = member.sum(axis=1)
        mean = np.where(member, logits, 0.0).sum(axis=1) / np.maximum(count, 1)
        sq_dev = np.where(member, (logits - mean[:, None]) ** 2, 0.0).sum(axis=1)
        sides.append((name, count, mean, sq_dev))
    global_var = None
    if params.global_variance:
        # Within-candidate variance pooled across the whole matrix: residuals
        # against each candidate's own in-mean and out-mean, from every side
        # with at least two logits. Between-candidate spread is deliberately
        # excluded; it reflects sample difficulty, not shadow-training noise.
        n_res = sum(int(count[count >= 2].sum()) for _, count, _, _ in sides)
        if n_res:
            ss = sum(float(sq_dev[count >= 2].sum()) for _, count, _, sq_dev in sides)
            global_var = max(ss / (n_res - 1), floor)

    o_target = rescale_confidence(target, params.clip_eps)
    log_l = []
    flags: dict[int, str] = {}
    for name, count, mean, sq_dev in sides:
        # unbiased variance; a side with a single logit gets the floor
        var = np.maximum(sq_dev / np.maximum(count - 1, 1), floor)
        if global_var is not None:
            var = np.full_like(var, global_var)
        missing = count == 0
        if missing.any():
            if pooled_fit is None:
                raise ValueError(f"candidate row {np.argmax(missing)}: no {name}-shadows and no pooled fallback")
            mean = np.where(missing, pooled_fit.mean, mean)
            var = np.where(missing, pooled_fit.variance, var)
            flags.update(dict.fromkeys(np.flatnonzero(missing).tolist(), f"no_{name}_shadow"))
        log_l.append(_log_normal_pdf(o_target, mean, var))
    log_lr = log_l[0] - log_l[1]
    if flags:
        log.warning("LiRA: %d candidates scored via pooled fallback", len(flags))
    return AttackScores(scores=log_lr, flags=flags)


def z_confidences(dataset: Dataset, ensemble: ShadowEnsemble, target: TrainedModel) -> tuple[np.ndarray, np.ndarray]:
    """RMIA's Z table: the (Z x shadow) confidences of ``ensemble`` on its Z rows of ``dataset``, and the target's."""
    X, y = dataset.X[ensemble.z], dataset.y[ensemble.z]
    return collect_confidences(ensemble, X, y), predict_confidences(target, X, y)


def run_rmia(
    target: np.ndarray,
    values: np.ndarray,
    z_shadow: np.ndarray,
    z_target: np.ndarray,
    params: RmiaParams = RmiaParams(),
) -> AttackScores:
    """RMIA scores for every candidate against the shared Z table (see :func:`z_confidences`).

    ``target`` and ``values`` are as in :func:`run_lira`. As in Zarifzadeh,
    Liu and Shokri (ICML 2024), Pr(x) and Pr(z) both average every shadow,
    so RMIA needs no inclusion mask: no Z row is in any shadow's or the
    target's training set. A candidate's score is the fraction of Z points
    with ``ratio_z <= ratio_m / gamma``. That is a monotone function of its
    own ratio, so gamma changes the ROC only through the ties it creates.
    The Z ratios are sorted once and each candidate costs one binary search,
    so no temporary grows with Z x candidates. No candidate is flagged.
    """
    _check_shapes(target, values)
    if not len(z_target) or z_shadow.shape != (len(z_target), values.shape[1]):
        raise ValueError(f"Z table {z_shadow.shape} needs a row for each of the {len(z_target)} Z targets "
                         f"(at least one) and a column for each of the {values.shape[1]} shadows")
    ratio_m = target / values.mean(axis=1)
    ratio_z = np.sort(z_target / z_shadow.mean(axis=1))
    return AttackScores(scores=np.searchsorted(ratio_z, ratio_m / params.gamma, side="right") / len(ratio_z))

