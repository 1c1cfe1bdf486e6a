"""Reference implementations that the array code in ``leakaudit`` is tested against.

Each states one quantity the simple way: a scalar or per-batch form that
the package computes faster, fused or stacked. None of them runs in an
audit. :func:`same_dataset` is the tests' dataset comparison.
"""

import math
from typing import Sequence

import numpy as np

from leakaudit.attacks import LiraParams, RmiaParams
from leakaudit.data import Dataset
from leakaudit.game import Challenge
from leakaudit.nnet import LOSS_CLIP_EPS, MlpModel, _backward, _forward, _output_delta, _sigmoid
from leakaudit.seeds import derive_rng
from leakaudit.stats import fit_gaussian


def _log_normal_pdf(x, mean, var):
    return -0.5 * np.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def lira_score(
    o_target: float,
    o_in: Sequence[float],
    o_out: Sequence[float],
    params: LiraParams = LiraParams(),
) -> float:
    """LiRA for one candidate: the Gaussian log-likelihood ratio log N(o|in-fit) - log N(o|out-fit)."""
    fit_in = fit_gaussian(o_in, floor=params.variance_floor)
    fit_out = fit_gaussian(o_out, floor=params.variance_floor)
    return float(_log_normal_pdf(o_target, fit_in.mean, fit_in.variance)
                 - _log_normal_pdf(o_target, fit_out.mean, fit_out.variance))


def rmia_score(
    target_conf: float,
    shadow_confs: np.ndarray,
    z_target_confs: np.ndarray,
    z_shadow_confs: np.ndarray,
    gamma: float = RmiaParams.gamma,
) -> float:
    """RMIA for one candidate: the fraction of reference points z with ratio_z <= ratio_m / gamma.

    Pr(m) and every Pr(z) average all shadows, as Zarifzadeh, Liu and
    Shokri (ICML 2024) define them.
    """
    if z_target_confs.size == 0:
        raise ValueError("Z reference set must be non-empty")
    ratio_m = target_conf / np.mean(shadow_confs)
    ratio_z = z_target_confs / z_shadow_confs.mean(axis=1)
    return float(np.mean(ratio_z <= ratio_m / gamma))


def weighted_bce_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    weights: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Mean class-weighted binary cross-entropy with probability clipping: what ``nnet._mean_bce`` computes."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    if logits.shape != labels.shape:
        raise ValueError(f"logits and labels shapes differ: {logits.shape} vs {labels.shape}")
    if logits.size == 0:
        raise ValueError("empty batch")
    p = np.clip(_sigmoid(logits), LOSS_CLIP_EPS, 1.0 - LOSS_CLIP_EPS)
    w = np.where(labels == 1, weights[1], weights[0])
    ll = -labels * np.log(p) - (1 - labels) * np.log(1.0 - p)
    return float(np.mean(w * ll))


def loss_and_grads(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    weights: tuple[float, float] = (1.0, 1.0),
    train: bool = False,
    rng: np.random.Generator | None = None,
    real: int | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Loss plus analytic gradients w.r.t. every weight and bias array of one model on one batch.

    ``nnet.fit`` and ``nnet.fit_stack`` take the same gradients without the
    loss; this is the reference their training step is checked against.
    The batch, its labels and its class weights are cast to the model's
    dtype, float32 for a model as it trains; the loss is taken in float64.
    With ``real``, only the batch's first ``real`` rows are its own and the
    rest is padding, as a fit pads a model's last batch: padding rows weigh
    0, draw no dropout and count in no mean.
    """
    X = np.asarray(X, dtype=model.params.dtype)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    real = len(y) if real is None else real
    cache: list = []
    logits = _forward(model, X, train, rng, cache, real)
    grads = model.copy()
    w = np.where(y == 1, weights[1], weights[0]).astype(X.dtype)
    w[real:] = 0.0
    _backward(model, cache, _output_delta(_sigmoid(logits), y.astype(X.dtype), w, real), grads)
    return weighted_bce_loss(logits[:real], y[:real], weights), grads.weights, grads.biases


def assign_membership(candidates: np.ndarray, p_member: float, seed: int) -> Challenge:
    """A challenge by an independent biased coin flip per candidate row; deterministic under seed."""
    candidates = np.asarray(candidates, dtype=np.intp)
    if not candidates.size:
        raise ValueError("candidate set must be non-empty")
    if not 0.0 <= p_member <= 1.0:
        raise ValueError(f"p_member must be in [0,1], got {p_member}")
    bits = derive_rng(seed, "membership").random(len(candidates)) < p_member
    return Challenge(members=candidates[bits], validation=candidates[:0], population=candidates[~bits],
                     nonmembers=candidates[~bits], p_member=p_member, seed=seed)


def deduplicate(X: np.ndarray, labels: Sequence[int]) -> tuple[list[int], int, int]:
    """The rows ``load_dataset`` keeps, with its counts of exact duplicates and conflicting-label rows.

    Rows are grouped by their tuple of values, in which ``-0.0`` equals ``0.0``. A group keeps its first
    row if its labels agree, and loses every row if they conflict.
    """
    groups: dict[tuple, list[int]] = {}
    for r, row in enumerate(X.tolist()):
        groups.setdefault(tuple(row), []).append(r)
    keep = sorted(group[0] for group in groups.values() if len({labels[r] for r in group}) == 1)
    n_conflict = sum(len(group) for group in groups.values() if len({labels[r] for r in group}) > 1)
    return keep, len(X) - n_conflict - len(keep), n_conflict


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Whether ``a`` and ``b`` hold the same ids, features, labels and metadata columns, row by row."""
    return (a.ids == b.ids and np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
            and a.meta.keys() == b.meta.keys() and all(np.array_equal(a.meta[k], b.meta[k]) for k in a.meta))
