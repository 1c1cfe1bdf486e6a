"""Leakage evaluation: ROC at low FPR, identified sets, overlap and enrichment.

Thresholds sweep the unique score values with equal scores admitted
atomically, so the reported FPR never exceeds the target. FPR = 0 means
"strictly above every non-member score". The per-table functions take an
attack's score array with the candidates' member vector (and ids or
labels) aligned with it, and read them through boolean masks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from leakaudit.stats import TestResult, _mwu_statistic, hypergeom_expected, mann_whitney_u, wilcoxon_signed_rank

__all__ = [
    "RocCurve",
    "OverlapAnalysis",
    "CharacteristicResult",
    "roc_curve",
    "tpr_at_fpr",
    "threshold_at_fpr",
    "baseline_tpr",
    "identified_members",
    "overlap_fraction",
    "overlap_analysis",
    "characteristic_analysis",
    "minority_tpr",
    "star_level",
    "auroc",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep points from +inf down; fpr/tpr non-decreasing."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray


@dataclass(frozen=True)
class OverlapAnalysis:
    observed: tuple[float, ...]
    expected: tuple[float, ...]
    observed_mean: float
    expected_mean: float
    p_value: float
    stars: str
    n_skipped: int


@dataclass(frozen=True)
class CharacteristicResult:
    identified_summary: float
    rest_summary: float
    test: TestResult
    stars: str
    n_skipped: int


def roc_curve(scores: np.ndarray, is_member: np.ndarray) -> RocCurve:
    """Exact ROC over unique score thresholds (rule: score >= threshold); ``is_member`` is boolean."""
    n_mem = int(is_member.sum())
    n_non = int(len(is_member) - n_mem)
    if n_mem == 0 or n_non == 0:
        raise ValueError("ROC requires at least one member and one non-member")

    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = is_member[order]
    tp = np.cumsum(y_sorted)
    fp = np.cumsum(~y_sorted)
    # last index of each tie block = atomic admission of equal scores
    is_block_end = np.append(s_sorted[1:] != s_sorted[:-1], True)
    idx = np.flatnonzero(is_block_end)

    thresholds = np.concatenate([[np.inf], s_sorted[idx]])
    fpr = np.concatenate([[0.0], fp[idx] / n_non])
    tpr = np.concatenate([[0.0], tp[idx] / n_mem])
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def tpr_at_fpr(roc: RocCurve, fpr_target: float) -> float:
    """Maximum TPR among sweep points with FPR <= target."""
    if not 0.0 <= fpr_target <= 1.0:
        raise ValueError(f"fpr_target must be in [0,1], got {fpr_target}")
    ok = roc.fpr <= fpr_target + 1e-15
    return float(roc.tpr[ok].max())


def threshold_at_fpr(roc: RocCurve, fpr_target: float) -> float:
    """Threshold achieving tpr_at_fpr; +inf when no point qualifies beyond the origin."""
    ok = roc.fpr <= fpr_target + 1e-15
    best = np.flatnonzero(ok & (roc.tpr == roc.tpr[ok].max()))
    return float(roc.thresholds[best[0]])


def baseline_tpr(n_members: int) -> float:
    """Random-guessing TPR at FPR 0 when members outnumber non-members 2:1."""
    if n_members < 1:
        raise ValueError(f"n_members must be >= 1, got {n_members}")
    return 2.0 / n_members


def identified_members(ids: Sequence[str], scores: np.ndarray, is_member: np.ndarray,
                       threshold: float) -> frozenset[str]:
    """Member ids admitted at ``threshold``, e.g. :func:`threshold_at_fpr` of the scores' ROC."""
    return frozenset(compress(ids, is_member & (scores >= threshold)))


def overlap_fraction(set_a: Iterable[str], set_b: Iterable[str]) -> float | None:
    """|A n B| / min(|A|, |B|); None (not applicable) when either set is empty."""
    a, b = set(set_a), set(set_b)
    if not a or not b:
        return None
    return len(a & b) / min(len(a), len(b))


def overlap_analysis(
    set_pairs: Sequence[tuple[Iterable[str], Iterable[str]]],
    omega_sizes: Sequence[int],
) -> OverlapAnalysis:
    """Observed vs chance overlap across repetitions, with a one-sided signed-rank test.

    Expected-by-chance per repetition is the hypergeometric mean
    n*K/N (K = larger set, n = smaller set, N = training-set size),
    expressed as a fraction of the smaller set.
    """
    observed: list[float] = []
    expected: list[float] = []
    n_skipped = 0
    for (raw_a, raw_b), omega in zip(set_pairs, omega_sizes):
        a, b = set(raw_a), set(raw_b)
        frac = overlap_fraction(a, b)
        if frac is None:
            n_skipped += 1
            continue
        n_small, n_large = min(len(a), len(b)), max(len(a), len(b))
        observed.append(frac)
        expected.append(hypergeom_expected(omega, n_large, n_small) / n_small)
    if not observed:
        raise ValueError("no repetition has two non-empty identified sets")
    diffs = np.array(observed) - np.array(expected)
    test = wilcoxon_signed_rank(diffs, alternative="greater")
    return OverlapAnalysis(
        observed=tuple(observed),
        expected=tuple(expected),
        observed_mean=float(np.mean(observed)),
        expected_mean=float(np.mean(expected)),
        p_value=test.p_value,
        stars=star_level(test.p_value),
        n_skipped=n_skipped,
    )


def characteristic_analysis(
    identified_sets: Sequence[Iterable[str]],
    member_sets: Sequence[Iterable[str]],
    values: Mapping[str, float],
    mode: str = "label",
) -> CharacteristicResult:
    """Compare identified vs not-identified members on a label or scalar attribute.

    ``mode="label"``: per-repetition positive fractions in each group,
    two-sided Mann-Whitney across repetitions. ``mode="metadata"``: values
    pooled across repetitions, two-sided Mann-Whitney on the pooled groups.
    Repetitions with an empty identified or rest group are skipped.
    """
    if mode not in ("label", "metadata"):
        raise ValueError(f"mode must be 'label' or 'metadata', got {mode!r}")
    missing = {i for members in member_sets for i in members if i not in values}
    if missing:
        raise KeyError(f"attribute values missing for {len(missing)} member ids")

    ident_group: list[float] = []
    rest_group: list[float] = []
    n_skipped = 0
    for identified, members in zip(identified_sets, member_sets):
        # in sorted order, so that the float sums do not follow the hash order of the ids
        ident = sorted(set(identified))
        rest = sorted(set(members).difference(ident))
        if not ident or not rest:
            n_skipped += 1
            continue
        if mode == "label":
            ident_group.append(float(np.mean([values[i] for i in ident])))
            rest_group.append(float(np.mean([values[i] for i in rest])))
        else:
            ident_group.extend(float(values[i]) for i in ident)
            rest_group.extend(float(values[i]) for i in rest)
    if not ident_group or not rest_group:
        raise ValueError("no repetition with both identified and not-identified members")
    if n_skipped:
        log.info("characteristic analysis skipped %d repetitions with empty groups", n_skipped)
    test = mann_whitney_u(ident_group, rest_group, alternative="two-sided")
    return CharacteristicResult(
        identified_summary=float(np.mean(ident_group)),
        rest_summary=float(np.mean(rest_group)),
        test=test,
        stars=star_level(test.p_value),
        n_skipped=n_skipped,
    )


def minority_tpr(
    scores: np.ndarray,
    is_member: np.ndarray,
    labels: np.ndarray,
    threshold: float,
) -> float:
    """TPR over minority-class members at a full-challenge threshold.

    ``is_member`` and ``labels`` hold each candidate's membership bit and
    class label, aligned with ``scores``. The threshold is fixed by the
    complete challenge (see :func:`threshold_at_fpr`); only the TPR
    numerator/denominator restrict to the minority class.
    """
    n_pos = int(np.count_nonzero(labels[is_member] == 1))
    n_neg = int(np.count_nonzero(is_member)) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("no minority class present among members")
    minority = is_member & (labels == (1 if n_pos < n_neg else 0))
    hits = int(np.count_nonzero(minority & (scores >= threshold)))
    return hits / int(np.count_nonzero(minority))


def star_level(p: float) -> str:
    """Significance stars: * p<.05, ** p<.01, *** p<.001."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based AUROC (Mann-Whitney U / (n0*n1)) with midrank tie handling."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    if n0 == 0 or n1 == 0:
        raise ValueError("AUROC requires both classes")
    return float(_mwu_statistic(s[y == 1], s[y == 0]) / (n0 * n1))
