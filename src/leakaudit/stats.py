"""Numerical statistics kernel.

Gaussian fitting for the likelihood-ratio attack, exact and
normal-approximation nonparametric tests (Wilcoxon signed-rank,
Mann-Whitney U) for the repetition-level significance analysis, and the
hypergeometric overlap expectation.

The sample size alone picks each rank test's p-value: exact enumeration
in the small-sample regime (signed-rank: n <= 20; Mann-Whitney:
n_a + n_b <= 12 and no ties), otherwise a tie-corrected normal
approximation with continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

__all__ = [
    "GaussianFit",
    "TestResult",
    "fit_gaussian",
    "wilcoxon_signed_rank",
    "mann_whitney_u",
    "hypergeom_expected",
]

WILCOXON_EXACT_MAX_N = 20
MWU_EXACT_MAX_TOTAL = 12

_ALTERNATIVES = ("two-sided", "greater", "less")


@dataclass(frozen=True)
class GaussianFit:
    """Mean/variance summary of a sample, with a variance floor applied."""

    mean: float
    variance: float


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test.

    ``method`` is "exact" for enumeration-based p-values, "normal" for the
    approximation, or "degenerate" when the data carry no signal (e.g. all
    signed-rank differences are zero).
    """

    statistic: float
    p_value: float
    method: str


def fit_gaussian(samples: Sequence[float], floor: float) -> GaussianFit:
    """Fit mean and unbiased variance, flooring the variance at ``floor``.

    A single observation yields variance exactly ``floor``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot fit a Gaussian to an empty sample")
    mean = float(arr.mean())
    var = float(arr.var(ddof=1)) if arr.size > 1 else floor
    return GaussianFit(mean=mean, variance=max(var, floor))


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _check_alternative(alternative: str) -> None:
    if alternative not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}")


def _result(statistic: float, p_greater: float, p_less: float, method: str, alternative: str) -> TestResult:
    """The outcome for ``alternative`` from the two one-sided tail probabilities."""
    p = {"greater": p_greater, "less": p_less}.get(alternative, 2.0 * min(p_greater, p_less))
    return TestResult(statistic=statistic, p_value=float(min(p, 1.0)), method=method)


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of their covered ranks; NaN has no rank."""
    if np.isnan(values).any():
        raise ValueError("cannot rank NaN values")
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a tie group ending at rank e with c members covers ranks e-c+1..e; their mean is an exact half
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def wilcoxon_signed_rank(samples: Sequence[float], alternative: str = "two-sided") -> TestResult:
    """Wilcoxon signed-rank test of the sample location against zero.

    The statistic is W+, the sum of midranks of positive values. Zeros
    are dropped; if every value is zero the result is degenerate with
    p = 1. The p-value is exact for n <= 20 nonzero values.
    """
    _check_alternative(alternative)
    diffs = np.asarray(samples, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return TestResult(statistic=0.0, p_value=1.0, method="degenerate")

    ranks = _midranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    # doubled ranks are integers even under midrank ties
    ranks2 = np.rint(2.0 * ranks).astype(np.int64)
    w2 = int(round(2.0 * w_plus))

    if n <= WILCOXON_EXACT_MAX_N:
        total = int(ranks2.sum())
        counts = np.zeros(total + 1, dtype=float)
        counts[0] = 1.0
        for r in ranks2:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[: total + 1 - r]
            counts += shifted
        denom = counts.sum()  # 2**n, exact in float64 for n <= 52
        p_greater = counts[w2:].sum() / denom
        p_less = counts[: w2 + 1].sum() / denom
        meth = "exact"
    else:
        mean = n * (n + 1) / 4.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        tie_term = float(((tie_counts.astype(float) ** 3) - tie_counts).sum()) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        sd = math.sqrt(max(var, 1e-300))
        p_greater = _normal_sf((w_plus - mean - 0.5) / sd)
        p_less = _normal_sf(-(w_plus - mean + 0.5) / sd)
        meth = "normal"

    return _result(w_plus, p_greater, p_less, meth, alternative)


def _mwu_statistic(a: np.ndarray, b: np.ndarray) -> float:
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    r_a = float(ranks[: a.size].sum())
    return r_a - a.size * (a.size + 1) / 2.0


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float], alternative: str = "two-sided") -> TestResult:
    """Mann-Whitney U test comparing two independent samples.

    The statistic is U_A (pairs where a beats b, ties counting 1/2).
    "greater" tests whether A tends to exceed B. Exact enumeration is used
    when n_a + n_b <= 12 and the pooled sample has no ties.
    """
    _check_alternative(alternative)
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")

    n_a, n_b = a.size, b.size
    n = n_a + n_b
    u_a = _mwu_statistic(a, b)
    pooled = np.concatenate([a, b])
    has_ties = np.unique(pooled).size < n

    if n <= MWU_EXACT_MAX_TOTAL and not has_ties:
        # every n_a-subset of ranks {1..n} is equally likely under H0
        n_ge = 0
        n_le = 0
        n_total = 0
        base = n_a * (n_a + 1) / 2.0
        for combo in combinations(range(1, n + 1), n_a):
            u = sum(combo) - base
            n_total += 1
            if u >= u_a:
                n_ge += 1
            if u <= u_a:
                n_le += 1
        p_greater = n_ge / n_total
        p_less = n_le / n_total
        meth = "exact"
    else:
        mean = n_a * n_b / 2.0
        _, tie_counts = np.unique(pooled, return_counts=True)
        tie_term = float(((tie_counts.astype(float) ** 3) - tie_counts).sum())
        var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        sd = math.sqrt(max(var, 1e-300))
        p_greater = _normal_sf((u_a - mean - 0.5) / sd)
        p_less = _normal_sf(-(u_a - mean + 0.5) / sd)
        meth = "normal"

    return _result(u_a, p_greater, p_less, meth, alternative)


def hypergeom_expected(N: int, K: int, n: int) -> float:
    """Expected intersection size n*K/N when drawing n of N items, K marked."""
    if not (0 <= K <= N and 0 <= n <= N):
        raise ValueError(f"require 0 <= K <= N and 0 <= n <= N, got N={N}, K={K}, n={n}")
    if N == 0:
        return 0.0
    return n * K / N
