"""Synthetic two-cluster binary classification data for desk-scale audits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from leakaudit.data import Dataset
from leakaudit.recipe import check

__all__ = ["SynthSpec", "synth_dataset"]


@dataclass(frozen=True)
class SynthSpec:
    """Two unit-variance Gaussian clusters at controllable separation."""

    n: int
    dim: int
    positive_fraction: float = 0.5
    separation: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check(
            ("n", self.n >= 2, f"must be >= 2, got {self.n}"),
            ("dim", self.dim >= 1, f"must be >= 1, got {self.dim}"),
            ("positive_fraction", 0.0 < self.positive_fraction < 1.0, f"must be in (0,1), got {self.positive_fraction}"),
            ("separation", self.separation >= 0, f"must be non-negative, got {self.separation}"),
        )


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset with exactly round(n * positive_fraction) positives.

    Class means sit ``separation`` apart in Euclidean distance regardless
    of dimension. Each record carries a "size" metadata scalar (count of
    positive-valued features) so the metadata characteristic test has
    something to chew on.
    """
    n_pos = int(round(spec.n * spec.positive_fraction))
    n_pos = min(max(n_pos, 1), spec.n - 1)
    rng = np.random.default_rng(spec.seed)
    labels = np.zeros(spec.n, dtype=int)
    labels[:n_pos] = 1
    rng.shuffle(labels)
    offset = spec.separation / np.sqrt(spec.dim)
    X = rng.standard_normal((spec.n, spec.dim))
    X[labels == 1] += offset
    width = len(str(spec.n - 1))
    return Dataset(
        ids=[f"s{idx:0{width}d}" for idx in range(spec.n)],
        X=X,
        y=labels,
        meta={"size": np.count_nonzero(X > 0, axis=1)},
    )
