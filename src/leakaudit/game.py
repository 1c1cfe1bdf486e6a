"""Membership-inference game orchestration.

Draws the challenge (candidate samples with hidden membership bits),
queries the trained target on it, and constructs shadow-model ensembles
with per-sample inclusion tracking and a reserved Z set excluded from
all shadow training. :func:`start_fits` is the one place that decides
where fits run: the target's, and the shadows' in
:func:`train_shadow_ensemble`.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from leakaudit.data import Dataset, SplitAssignment, split_dataset
from leakaudit.nnet import TrainConfig, TrainedModel, fit, predict_confidences
from leakaudit.parallel import FitHelpers
from leakaudit.recipe import check
from leakaudit.seeds import derive_rng, derive_seed

__all__ = [
    "Challenge",
    "GameConfig",
    "ShadowParams",
    "TargetArtifacts",
    "ShadowEnsemble",
    "assign_membership",
    "draw_challenge",
    "target_job",
    "start_fits",
    "run_game",
    "train_shadow_ensemble",
    "collect_confidences",
    "save_challenge",
    "load_challenge",
    "save_manifest",
    "load_manifest",
]


@dataclass(frozen=True)
class Challenge:
    """Candidate ids with their hidden membership bits (1 = member)."""

    member_ids: tuple[str, ...]
    nonmember_ids: tuple[str, ...]
    p_member: float
    seed: int

    def __post_init__(self):
        if set(self.member_ids) & set(self.nonmember_ids):
            raise ValueError("member and non-member id sets must be disjoint")

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return self.member_ids + self.nonmember_ids


@dataclass(frozen=True)
class GameConfig:
    """Challenge recipe: member share of the candidates and train/validation/population split.

    Every split is needed: the target trains on the train split and picks
    its epoch on the validation split, and the non-members come from the
    population split.
    """

    p_member: float = 0.67
    fractions: tuple[float, float, float] = (0.45, 0.10, 0.45)

    def __post_init__(self):
        fractions = self.fractions
        check(
            ("p_member", 0.0 < self.p_member < 1.0, f"must be in (0,1), got {self.p_member}"),
            ("fractions", len(fractions) == 3 and min(fractions) > 0 and abs(sum(fractions) - 1.0) <= 1e-9,
             f"must be three positive numbers that sum to 1, got {fractions}"),
        )


@dataclass(frozen=True)
class ShadowParams:
    """Shadow ensemble recipe; see :func:`train_shadow_ensemble`."""

    count: int = 10
    inclusion_rate: float = 0.5
    epochs: int = 15
    z_fraction: float = 0.25
    z_cap: int | None = None

    def __post_init__(self):
        check(
            ("count", self.count >= 2, f"must be >= 2, got {self.count}"),
            ("inclusion_rate", 0.0 < self.inclusion_rate < 1.0, f"must be in (0,1), got {self.inclusion_rate}"),
            ("epochs", self.epochs >= 1, f"must be >= 1, got {self.epochs}"),
            ("z_fraction", 0.0 < self.z_fraction < 1.0, f"must be in (0,1), got {self.z_fraction}"),
            ("z_cap", self.z_cap is None or self.z_cap >= 1, f"must be none or >= 1, got {self.z_cap}"),
        )


@dataclass
class TargetArtifacts:
    """Everything the adversary receives about one target model.

    ``ids`` are the challenge's candidates in dataset order, as
    ``dataset.subset(challenge.candidate_ids)`` yields them, and
    ``confidences`` and ``is_member`` hold the target's true-label confidence and the membership of each.
    """

    model: TrainedModel
    ids: tuple[str, ...]
    confidences: np.ndarray
    challenge: Challenge
    split: SplitAssignment
    is_member: np.ndarray = field(init=False)

    def __post_init__(self):
        candidates = self.challenge.candidate_ids
        if len(self.ids) != len(candidates) or set(self.ids) != set(candidates):
            raise ValueError(f"ids do not list the {len(candidates)} challenge candidates")
        if self.confidences.shape != (len(self.ids),):
            raise ValueError(f"{self.confidences.shape} target confidences for {len(self.ids)} candidates")
        members = set(self.challenge.member_ids)
        self.is_member = np.array([i in members for i in self.ids], dtype=bool)


@dataclass
class ShadowEnsemble:
    """K shadow models with a (sample x shadow) inclusion mask.

    ``ids`` indexes the mask rows and covers the shadows' sampling
    universe; ``z`` holds the reserved Z samples, which no shadow trains
    on and which the shadows and the target are queried on. Its ids are
    not in ``ids``, so :meth:`rows` gives them -1.
    """

    models: tuple[TrainedModel, ...]
    ids: tuple[str, ...]
    mask: np.ndarray
    z: Dataset
    shadow_epochs: int
    seed: int
    shadow_seeds: tuple[int, ...]

    def __post_init__(self):
        if self.mask.shape != (len(self.ids), self.k):
            raise ValueError(f"mask shape {self.mask.shape} does not match ids x shadows")
        listed = np.flatnonzero(self.rows(self.z.ids) >= 0)
        if listed.size:
            raise ValueError(f"reserved Z id {self.z.ids[listed[0]]!r} is listed in the sampling universe ids")

    @property
    def k(self) -> int:
        return len(self.models)

    def rows(self, sample_ids: Sequence[str]) -> np.ndarray:
        """Mask row of each id, or -1 for an id the ensemble never saw."""
        index = {i: r for r, i in enumerate(self.ids)}
        return np.array([index.get(i, -1) for i in sample_ids], dtype=np.intp)


def assign_membership(candidate_ids: Sequence[str], p_member: float, seed: int) -> Challenge:
    """Independent biased coin flip per candidate; deterministic under seed."""
    if not candidate_ids:
        raise ValueError("candidate set must be non-empty")
    if not 0.0 <= p_member <= 1.0:
        raise ValueError(f"p_member must be in [0,1], got {p_member}")
    rng = derive_rng(seed, "membership")
    bits = rng.random(len(candidate_ids)) < p_member
    members = tuple(i for i, b in zip(candidate_ids, bits) if b)
    nonmembers = tuple(i for i, b in zip(candidate_ids, bits) if not b)
    return Challenge(member_ids=members, nonmember_ids=nonmembers, p_member=p_member, seed=seed)


def draw_challenge(dataset: Dataset, game: GameConfig, seed: int) -> tuple[SplitAssignment, Challenge]:
    """The split and the challenge of the game under ``seed``.

    All training-split samples are member candidates; non-member candidates
    are drawn from the population split so that members make up
    ``game.p_member`` of the challenge.
    """
    split = split_dataset(dataset, game.fractions, derive_seed(seed, "split"))
    n_members = len(split.train_ids)
    n_nonmembers = int(round(n_members * (1.0 - game.p_member) / game.p_member))
    if n_nonmembers > len(split.population_ids):
        raise ValueError(
            f"population split too small: need {n_nonmembers} non-members, "
            f"have {len(split.population_ids)}"
        )
    rng = derive_rng(seed, "nonmembers")
    nonmembers = tuple(
        str(i) for i in rng.choice(np.array(split.population_ids), size=n_nonmembers, replace=False)
    )
    challenge = Challenge(
        member_ids=tuple(split.train_ids),
        nonmember_ids=nonmembers,
        p_member=game.p_member,
        seed=seed,
    )
    return split, challenge


def target_job(dataset: Dataset, split: SplitAssignment, cfg: TrainConfig,
               seed: int) -> tuple[Dataset, Dataset, TrainConfig]:
    """The target's :func:`fit` arguments in the game under ``seed``: train and validation split, recipe."""
    train_cfg = replace(cfg, seed=derive_seed(seed, "target"))
    return dataset.subset(split.train_ids), dataset.subset(split.validation_ids), train_cfg


def start_fits(jobs: Sequence[tuple[Dataset, Dataset, TrainConfig]],
               helpers: FitHelpers) -> Callable[[], list[TrainedModel]]:
    """Start ``fit(*job)`` for every job; returns the wait for their models, in job order.

    With helpers the jobs are queued there as one batch (see
    :meth:`FitHelpers.submit`) and this returns at once; with none they
    are fitted here, one at a time, before this returns.
    """
    if helpers:
        return helpers.submit(jobs).wait
    models = [fit(*job) for job in jobs]
    return lambda: models


def run_game(dataset: Dataset, split: SplitAssignment, challenge: Challenge,
             target: TrainedModel) -> TargetArtifacts:
    """Record the trained ``target``'s true-label confidence on every candidate of the drawn ``challenge``."""
    candidates = dataset.subset(challenge.candidate_ids)
    confs = predict_confidences(target, candidates.features_array(), candidates.labels_array())
    return TargetArtifacts(model=target, ids=candidates.ids, confidences=confs, challenge=challenge, split=split)


def train_shadow_ensemble(
    pool: Dataset,
    candidates: Dataset,
    shadow: ShadowParams,
    cfg: TrainConfig,
    seed: int,
    helpers: FitHelpers,
) -> ShadowEnsemble:
    """Train ``shadow.count`` shadows over the pool-plus-candidates sampling universe.

    A Z set of ``shadow.z_fraction * len(pool)`` pool samples (never
    candidates, optionally capped at ``shadow.z_cap``) is reserved,
    excluded from every shadow and used as each shadow's validation set;
    a pool that yields no Z point is rejected before any shadow trains.
    Every remaining sample enters each shadow independently with
    probability ``shadow.inclusion_rate``. Shadows reuse the target
    hyperparameters and train for exactly ``shadow.epochs`` epochs, where
    :func:`start_fits` runs them; each shadow's model is the same
    wherever, and beside whichever shadows, it trains.
    """
    k = shadow.count
    z_eligible = [i for i in pool.ids if i not in candidates]
    n_z = int(round(shadow.z_fraction * len(pool)))
    if shadow.z_cap is not None:
        n_z = min(n_z, shadow.z_cap)
    n_z = min(n_z, len(z_eligible))
    if n_z == 0:
        raise ValueError(
            f"shadow pool of {len(pool)} samples ({len(z_eligible)} outside the candidates) "
            f"yields no Z point at z_fraction {shadow.z_fraction}"
        )
    rng = derive_rng(seed, "z-reserve")
    z_ids = tuple(str(i) for i in rng.choice(np.array(z_eligible), size=n_z, replace=False))
    z_set = set(z_ids)

    # sampling universe: pool minus Z, then the candidates outside the pool
    parts = [(pool, [r for r, i in enumerate(pool.ids) if i not in z_set]),
             (candidates, [r for r, i in enumerate(candidates.ids) if i not in pool])]
    universe = Dataset(
        [d.ids[r] for d, rows in parts for r in rows],
        np.concatenate([d.X[rows] for d, rows in parts]),
        np.concatenate([d.y[rows] for d, rows in parts]),
    )

    coin_rng = derive_rng(seed, "inclusion")
    incl = (coin_rng.random((len(universe), k)) < shadow.inclusion_rate).astype(np.uint8)
    # a shadow with no samples or one class cannot train; re-flip such columns
    for j in range(k):
        tries = 0
        while True:
            col = incl[:, j].astype(bool)
            if col.any() and len(set(universe.y[col])) == 2:
                break
            tries += 1
            if tries > 100:
                raise ValueError(f"could not draw a two-class training set for shadow {j}")
            incl[:, j] = (coin_rng.random(len(universe)) < shadow.inclusion_rate).astype(np.uint8)

    z_dataset = pool.take(pool.rows(z_ids))
    shadow_seeds = [derive_seed(seed, "shadow", j) for j in range(k)]
    jobs = _ShadowJobs(universe, incl, z_dataset, [replace(cfg, seed=s, fixed_epochs=shadow.epochs)
                                                   for s in shadow_seeds])
    models = start_fits(jobs, helpers)()

    return ShadowEnsemble(
        models=tuple(models),
        ids=universe.ids,
        mask=incl,
        z=z_dataset,
        shadow_epochs=shadow.epochs,
        seed=seed,
        shadow_seeds=tuple(shadow_seeds),
    )


class _ShadowJobs(Sequence):
    """The shadows' :func:`fit` arguments, in shadow order.

    Each training subset is taken only when its job is read, so the K
    never sit in memory together.
    """

    def __init__(self, universe: Dataset, incl: np.ndarray, z: Dataset, cfgs: list[TrainConfig]):
        self.universe, self.incl, self.z, self.cfgs = universe, incl, z, cfgs

    def __len__(self) -> int:
        return len(self.cfgs)

    def __getitem__(self, j: int) -> tuple[Dataset, Dataset, TrainConfig]:
        return self.universe.take(np.flatnonzero(self.incl[:, j])), self.z, self.cfgs[j]


def collect_confidences(ensemble: ShadowEnsemble, samples: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(sample x shadow) true-label confidences, and the inclusion mask rows of the samples (zero for unseen ids)."""
    values = np.column_stack([predict_confidences(m, samples.X, samples.y) for m in ensemble.models])
    row = ensemble.rows(samples.ids)
    seen = row >= 0
    mask = np.zeros((len(samples), ensemble.k), dtype=np.uint8)
    mask[seen] = ensemble.mask[row[seen]]
    return values, mask


def save_challenge(challenge: Challenge, path: str | Path) -> None:
    """Write the challenge, the one record of a repetition's membership (see :func:`load_challenge`)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(challenge), fh, indent=2, sort_keys=True)


def load_challenge(path: str | Path) -> Challenge:
    """Read a :func:`save_challenge` file."""
    with open(path, encoding="utf-8") as fh:
        ch = json.load(fh)
    return Challenge(member_ids=tuple(ch["member_ids"]), nonmember_ids=tuple(ch["nonmember_ids"]),
                     p_member=ch["p_member"], seed=ch["seed"])


def save_manifest(ensemble: ShadowEnsemble, path: str | Path,
                  checkpoint_paths: Sequence[str] | None = None) -> None:
    """Write a JSON manifest sufficient to re-verify the inclusion mask offline (see :func:`load_manifest`)."""
    n, k = ensemble.mask.shape
    bits = (ensemble.mask + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    manifest = {
        "seed": ensemble.seed,
        "shadow_epochs": ensemble.shadow_epochs,
        "shadow_seeds": list(ensemble.shadow_seeds),
        "z_ids": list(ensemble.z.ids),
        "ids": list(ensemble.ids),
        "mask": [bits[r * k:(r + 1) * k] for r in range(n)],
        "checkpoints": list(checkpoint_paths) if checkpoint_paths else [],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_manifest(path: str | Path) -> dict:
    """Read a :func:`save_manifest` file; its mask rows, one '0'/'1' per checkpoint, become a uint8 array."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    rows, k = manifest["mask"], len(manifest["checkpoints"])
    if not all(isinstance(row, str) and len(row) == k for row in rows):
        raise ValueError(f"{path}: every mask row must be a string of {k} characters")
    bits = np.frombuffer("".join(rows).encode("utf-8"), dtype=np.uint8) - ord("0")
    if (bits > 1).any():
        raise ValueError(f"{path}: mask rows may hold only '0' and '1'")
    manifest["mask"] = bits.reshape(len(rows), k)
    return manifest
