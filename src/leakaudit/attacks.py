"""Per-sample membership scores: likelihood-ratio (LiRA) and robust (RMIA) attacks.

Both attacks consume the target model's true-label confidences and the
shadow ConfidenceMatrix; they are pure functions of their inputs and
bit-deterministic on recomputation. Every per-candidate array (target
confidences, matrix rows, scores and member vector) follows one order:
the challenge's candidates in dataset order. Both attacks score every
candidate at once: LiRA from masked row sums over the candidate x shadow
logit matrix, RMIA from (Z x K) @ (K x block) products over fixed-size
candidate blocks. The LiRA score is the natural-log likelihood ratio.
The scalar :func:`lira_score` and :func:`rmia_score` state each attack
for a single candidate and serve as test oracles.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from leakaudit.game import Challenge, ConfidenceMatrix, ShadowEnsemble, TargetArtifacts, collect_confidences
from leakaudit.nnet import predict_confidences
from leakaudit.recipe import check
from leakaudit.stats import fit_gaussian

__all__ = [
    "LiraParams",
    "RmiaParams",
    "AttackScores",
    "rescale_confidence",
    "lira_score",
    "run_lira",
    "rmia_score",
    "run_rmia",
    "save_scores",
]

log = logging.getLogger(__name__)

# most elements of one (Z x block) temporary in run_rmia; bounds its memory whatever Z and N are
RMIA_BLOCK_ELEMENTS = 1 << 16


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
    """Per-candidate membership scores; higher means more likely a member.

    ``scores`` and ``is_member`` are aligned with ``ids`` (every challenge
    candidate once); ``flags`` maps each fallback-scored id to its reason.
    """

    attack: str
    ids: tuple[str, ...]
    scores: np.ndarray
    challenge: Challenge
    flags: dict[str, str] = field(default_factory=dict)
    is_member: np.ndarray = field(init=False)

    def __post_init__(self):
        candidates = self.challenge.candidate_ids
        if len(self.ids) != len(candidates) or set(self.ids) != set(candidates):
            raise ValueError(f"table ids do not list the {len(candidates)} challenge candidates")
        if self.scores.shape != (len(self.ids),):
            raise ValueError(f"{self.scores.shape} scores for {len(self.ids)} candidates")
        bad = ~np.isfinite(self.scores)
        if bad.any():
            raise ValueError(f"non-finite scores for ids {[self.ids[r] for r in np.flatnonzero(bad)[:5]]}")
        members = set(self.challenge.member_ids)
        self.is_member = np.array([i in members for i in self.ids], dtype=bool)


def rescale_confidence(p: float | np.ndarray, eps: float = LiraParams.clip_eps) -> float | np.ndarray:
    """Logit rescaling log(p / (1 - p)) with endpoint clipping."""
    clipped = np.clip(np.asarray(p, dtype=float), eps, 1.0 - eps)
    out = np.log(clipped / (1.0 - clipped))
    return float(out) if np.ndim(p) == 0 else out


def lira_score(
    o_target: float,
    o_in: Sequence[float],
    o_out: Sequence[float],
    params: LiraParams = LiraParams(),
) -> float:
    """Gaussian log-likelihood ratio log N(o|in-fit) - log N(o|out-fit)."""
    fit_in = fit_gaussian(o_in, floor=params.variance_floor)
    fit_out = fit_gaussian(o_out, floor=params.variance_floor)
    return float(_log_normal_pdf(o_target, fit_in.mean, fit_in.variance)
                 - _log_normal_pdf(o_target, fit_out.mean, fit_out.variance))


def _log_normal_pdf(x, mean, var):
    return -0.5 * np.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def _check_aligned(artifacts: TargetArtifacts, confs: ConfidenceMatrix) -> None:
    if artifacts.ids != confs.ids:
        raise ValueError("target confidences are not aligned with the confidence matrix rows")


def run_lira(
    artifacts: TargetArtifacts,
    confs: ConfidenceMatrix,
    params: LiraParams = LiraParams(),
) -> AttackScores:
    """Per-candidate log-likelihood ratios from the shadow confidence matrix.

    Each side's Gaussian is fitted to the candidate's in-shadow (or
    out-shadow) logits: the mean, and the unbiased variance floored at
    ``variance_floor`` (exactly the floor for a single logit). Candidates
    lacking an in-shadow (or out-shadow) population are scored against a
    Gaussian pooled over all candidates' out-shadow logits and flagged.
    """
    _check_aligned(artifacts, confs)
    logits = rescale_confidence(confs.values, params.clip_eps)
    inside = confs.mask.astype(bool)
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

    o_target = rescale_confidence(artifacts.confidences, params.clip_eps)
    log_l = []
    flags: dict[str, str] = {}
    for name, count, mean, sq_dev in sides:
        # unbiased variance; a side with a single logit gets the floor
        var = np.maximum(sq_dev / np.maximum(count - 1, 1), floor)
        if global_var is not None:
            var = np.full_like(var, global_var)
        missing = count == 0
        if missing.any():
            if pooled_fit is None:
                first = confs.ids[np.argmax(missing)]
                raise ValueError(f"candidate {first!r}: no {name}-shadows and no pooled fallback")
            mean = np.where(missing, pooled_fit.mean, mean)
            var = np.where(missing, pooled_fit.variance, var)
            flags.update({confs.ids[r]: f"no_{name}_shadow" for r in np.flatnonzero(missing)})
        log_l.append(_log_normal_pdf(o_target, mean, var))
    log_lr = log_l[0] - log_l[1]
    if flags:
        log.warning("LiRA: %d candidates scored via pooled fallback", len(flags))
    return AttackScores(attack="lira", ids=confs.ids, scores=log_lr, challenge=artifacts.challenge, flags=flags)


def rmia_score(
    target_conf: float,
    shadow_confs: np.ndarray,
    out_mask: np.ndarray,
    z_target_confs: np.ndarray,
    z_shadow_confs: np.ndarray,
    gamma: float = RmiaParams.gamma,
) -> float:
    """Fraction of reference points z dominated by factor gamma.

    ``out_mask`` marks the shadows that excluded the candidate; the z
    probabilities average over exactly those shadows.
    """
    if z_target_confs.size == 0:
        raise ValueError("Z reference set must be non-empty")
    p_m = float(np.mean(shadow_confs))
    ratio_m = target_conf / p_m
    out = out_mask.astype(bool)
    if not out.any():
        out = np.ones_like(out, dtype=bool)
    p_z = z_shadow_confs[:, out].mean(axis=1)
    ratio_z = z_target_confs / p_z
    return float(np.mean(ratio_m / ratio_z >= gamma))


def run_rmia(
    artifacts: TargetArtifacts,
    confs: ConfidenceMatrix,
    ensemble: ShadowEnsemble,
    params: RmiaParams = RmiaParams(),
) -> AttackScores:
    """RMIA scores for every candidate against the ensemble's shared Z table.

    A candidate's P(z) averages the Z confidences over the shadows that
    excluded it, or over all shadows when none did (flagged). Candidates
    are scored in blocks so that no temporary exceeds
    ``RMIA_BLOCK_ELEMENTS`` elements however large Z and the challenge are.
    """
    _check_aligned(artifacts, confs)
    if not ensemble.z_ids:
        raise ValueError("ensemble carries an empty Z set")
    z_shadow = ensemble.z_confidences
    if z_shadow is None:
        z_shadow = collect_confidences(ensemble, ensemble.z).values
    z_target = ensemble.z_target_confidences
    if z_target is None:
        if artifacts.model is None:
            raise ValueError("target confidences for Z unavailable and no target model to query")
        z_target = predict_confidences(artifacts.model, ensemble.z.X, ensemble.z.y)

    out = ~confs.mask.astype(bool)
    no_out = ~out.any(axis=1)
    out[no_out] = True
    n_out = out.sum(axis=1)
    ratio_m = artifacts.confidences / confs.values.mean(axis=1)
    block = max(1, RMIA_BLOCK_ELEMENTS // len(z_target))
    dominated = np.empty(len(confs.ids), dtype=np.int64)
    for lo in range(0, len(confs.ids), block):
        hi = lo + block
        p_z = z_shadow @ out[lo:hi].T.astype(float)
        p_z /= n_out[lo:hi]
        ratio_z = z_target[:, None] / p_z
        dominated[lo:hi] = np.count_nonzero(ratio_m[lo:hi] / ratio_z >= params.gamma, axis=0)
    scores = dominated / len(z_target)

    flags = {confs.ids[r]: "no_out_shadow" for r in np.flatnonzero(no_out)}
    if flags:
        log.warning("RMIA: %d candidates had no excluding shadow; averaged over all shadows",
                    len(flags))
    return AttackScores(attack="rmia", ids=confs.ids, scores=scores, challenge=artifacts.challenge, flags=flags)


def save_scores(scores: AttackScores, path: str | Path) -> None:
    """Write the score table as CSV ``id,score,is_member,flags``, rows in challenge order (members first)."""
    row = {i: r for r, i in enumerate(scores.ids)}
    order = [row[i] for i in scores.challenge.candidate_ids]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score", "is_member", "flags"])
        for sample_id, score, member in zip(scores.challenge.candidate_ids, scores.scores[order].tolist(),
                                            scores.is_member[order].tolist()):
            writer.writerow([sample_id, repr(score), int(member), scores.flags.get(sample_id, "")])

