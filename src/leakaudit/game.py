"""Membership-inference game orchestration.

:func:`draw_challenge` draws a repetition's split and challenge as one
:class:`Challenge`: the target's train split (the members), its
validation split, the population and the non-members drawn from it.
:func:`draw_shadows` alone draws the shadows' sampling universe, per-sample
inclusion mask and a reserved Z set excluded from all shadow training;
a run trains its draw, a re-attack and a resumed run check it against
``manifest.json``. :func:`fit_batch` is the one place that decides where
and how fits run: in helper processes or here, in lockstep stacks of the
jobs whose recipes stack. :func:`train_shadow_ensemble` trains a
repetition's fits as one batch, the target's first: it joins the
shadows' first stack where its recipe is theirs but the seed, and trains
alone where it stops early. A sample is its dataset row throughout: the
challenge, the shadows' universe and Z set are row arrays, and ids are read only to
build the records of ``challenge.json`` (:meth:`Challenge.record`) and
``manifest.json`` (:meth:`ShadowPlan.manifest`). This module draws and
trains and writes no file: :mod:`leakaudit.pipeline` writes both records.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from leakaudit.data import Dataset
from leakaudit.nnet import FitJobs, TrainConfig, TrainedModel, fit, fit_stack, predict_confidences
from leakaudit.parallel import FitHelpers
from leakaudit.recipe import check
from leakaudit.seeds import derive_rng, derive_seed

__all__ = [
    "Challenge",
    "GameConfig",
    "ShadowParams",
    "TargetArtifacts",
    "ShadowPlan",
    "ShadowEnsemble",
    "nonmember_count",
    "draw_challenge",
    "target_job",
    "fit_batch",
    "run_game",
    "draw_shadows",
    "train_shadow_ensemble",
    "collect_confidences",
]


@dataclass(frozen=True, eq=False)
class Challenge:
    """One repetition's split of the dataset rows and its candidates' hidden membership bits.

    ``members`` is the train split, on which the target trains and picks
    its epoch by ``validation``; ``population`` is the rest, and
    ``nonmembers`` are drawn from it. Each array is in draw order.
    """

    members: np.ndarray
    validation: np.ndarray
    population: np.ndarray
    nonmembers: np.ndarray
    p_member: float
    seed: int

    def __post_init__(self):
        rows = np.concatenate([self.members, self.validation, self.population])
        if np.unique(rows).size != rows.size or not np.isin(self.nonmembers, self.population).all():
            raise ValueError("train, validation and population rows must be disjoint, "
                             "and every non-member a population row")

    @property
    def candidates(self) -> np.ndarray:
        """Every candidate's row, members first: the order of ``challenge.json`` and of the score CSVs."""
        return np.concatenate([self.members, self.nonmembers])

    def record(self, ids: Sequence[str]) -> dict:
        """The challenge as ``challenge.json`` holds it, each row named by its id in ``ids``."""
        return {"member_ids": [ids[r] for r in self.members.tolist()],
                "nonmember_ids": [ids[r] for r in self.nonmembers.tolist()],
                "p_member": self.p_member, "seed": self.seed}


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
    """Shadow ensemble recipe; see :func:`draw_shadows`."""

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

    ``rows`` are the challenge's candidates in dataset order, the one order
    of every per-candidate array; ``confidences`` and ``is_member`` hold the
    target's true-label confidence and the membership of each.
    """

    model: TrainedModel
    confidences: np.ndarray
    challenge: Challenge
    rows: np.ndarray = field(init=False)
    is_member: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rows = np.sort(self.challenge.candidates)
        self.is_member = np.isin(self.rows, self.challenge.members)
        if self.confidences.shape != self.rows.shape:
            raise ValueError(f"{self.confidences.shape} target confidences for {len(self.rows)} candidates")


@dataclass
class ShadowPlan:
    """The shadows' draw (see :func:`draw_shadows`): who trains each shadow, and with which seed.

    ``universe`` holds the dataset rows of the sampling universe and
    ``mask`` one row per universe sample and one column per shadow. ``z``
    holds the dataset rows of the reserved Z samples, on which no shadow
    trains and the shadows and the target are queried; :meth:`inclusion`
    gives them zero rows.
    """

    universe: np.ndarray
    mask: np.ndarray
    z: np.ndarray
    shadow_epochs: int
    seed: int
    shadow_seeds: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.shadow_seeds)

    @property
    def checkpoints(self) -> list[str]:
        """Each shadow's checkpoint file name, in shadow order."""
        return [f"shadow_{j:02d}.npz" for j in range(self.k)]

    def inclusion(self, rows: np.ndarray) -> np.ndarray:
        """The mask row of each dataset row in ``rows``, or a zero row for a row outside the universe."""
        order = np.argsort(self.universe)
        at = order[np.minimum(np.searchsorted(self.universe, rows, sorter=order), len(order) - 1)]
        return np.where((self.universe[at] == rows)[:, None], self.mask[at], 0)

    def manifest(self, ids: Sequence[str]) -> dict:
        """The plan as ``manifest.json`` holds it, rows named by ``ids``, mask rows as '0'/'1' strings."""
        n, k = self.mask.shape
        bits = (self.mask + ord("0")).astype(np.uint8).tobytes().decode("ascii")
        return {
            "checkpoints": self.checkpoints,
            "shadow_epochs": self.shadow_epochs,
            "seed": self.seed,
            "shadow_seeds": list(self.shadow_seeds),
            "z_ids": [ids[r] for r in self.z.tolist()],
            "ids": [ids[r] for r in self.universe.tolist()],
            "mask": [bits[r * k:(r + 1) * k] for r in range(n)],
        }


@dataclass
class ShadowEnsemble(ShadowPlan):
    """A :class:`ShadowPlan` with its K trained shadow models, in shadow order."""

    models: tuple[TrainedModel, ...]


def nonmember_count(n: int, game: GameConfig) -> int:
    """How many non-members :func:`draw_challenge` draws from ``n`` samples.

    A :class:`RecipeError` names ``fractions`` for an empty split or too
    small a population, and ``p_member`` for a challenge without non-members.
    """
    n_train, n_val = (math.floor(f * n) for f in game.fractions[:2])
    n_pop = n - n_train - n_val
    check(("fractions", min(n_train, n_val, n_pop) > 0,
           f"leave an empty split of {n} samples: {n_train} train, {n_val} validation, {n_pop} population"))
    n_nonmembers = int(round(n_train * (1.0 - game.p_member) / game.p_member))
    check(("fractions", n_nonmembers <= n_pop,
           f"leave a population split of {n_pop}, too small for {n_nonmembers} non-members"),
          ("p_member", n_nonmembers > 0,
           f"{game.p_member} leaves no non-member beside {n_train} members"))
    return n_nonmembers


def draw_challenge(dataset: Dataset, game: GameConfig, seed: int) -> Challenge:
    """The split and the challenge of the game under ``seed``.

    The train and validation splits, of floored sizes, and the population,
    the remainder, are slices of one permutation of the rows. All
    training-split samples are member candidates; non-member candidates are
    drawn from the population so that members make up ``game.p_member`` of
    the challenge, in the sizes of :func:`nonmember_count`.
    """
    n = len(dataset)
    n_nonmembers = nonmember_count(n, game)
    n_train, n_val = (math.floor(f * n) for f in game.fractions[:2])
    perm = derive_rng(seed, "split").permutation(n)
    population = perm[n_train + n_val:]
    nonmembers = derive_rng(seed, "nonmembers").choice(population, size=n_nonmembers, replace=False)
    return Challenge(members=perm[:n_train], validation=perm[n_train:n_train + n_val], population=population,
                     nonmembers=nonmembers, p_member=game.p_member, seed=seed)


def target_job(challenge: Challenge, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, TrainConfig]:
    """The target's fit in ``challenge``'s game as :func:`fit_batch` takes it: training and validation rows, recipe."""
    return np.sort(challenge.members), np.sort(challenge.validation), replace(
        cfg, seed=derive_seed(challenge.seed, "target"))


def fit_batch(dataset: Dataset, jobs: Sequence[tuple[np.ndarray, np.ndarray, TrainConfig]],
              helpers: FitHelpers) -> list[TrainedModel]:
    """Fit every job, in helpers if there are any, else here; returns their models in job order.

    A job is its training rows and its validation rows of ``dataset``, and
    its recipe. With helpers the jobs go there as one batch (see
    :meth:`FitHelpers.submit`). With none they are fitted here, as a helper
    would, by :func:`fit_stack`, in stacks of as many consecutive jobs as
    :meth:`FitJobs.stack_end` allows; a stack of one, such as an
    early-stopping target, by :func:`fit`.
    """
    rows, val_rows, cfgs = zip(*jobs)
    batch = FitJobs(dataset.X, dataset.y, rows, val_rows, cfgs)
    if helpers:
        return helpers.submit(batch).wait()
    models: list[TrainedModel] = []
    start = 0
    while start < len(batch):
        stop = batch.stack_end(start)
        if stop - start == 1:
            models.append(fit(dataset.take(rows[start]), dataset.take(val_rows[start]), cfgs[start]))
        else:
            models += fit_stack(batch[start:stop])
        start = stop
    return models


def run_game(dataset: Dataset, challenge: Challenge, target: TrainedModel) -> TargetArtifacts:
    """Record the trained ``target``'s true-label confidence on every candidate of the drawn ``challenge``."""
    rows = np.sort(challenge.candidates)
    confs = predict_confidences(target, dataset.X[rows], dataset.y[rows])
    return TargetArtifacts(model=target, confidences=confs, challenge=challenge)


def draw_shadows(dataset: Dataset, pool: np.ndarray, candidates: np.ndarray,
                 shadow: ShadowParams, seed: int) -> ShadowPlan:
    """Draw the shadows' sampling universe, inclusion mask, Z set and seeds from dataset rows; trains nothing.

    A Z set of ``shadow.z_fraction * len(pool)`` pool samples (never
    candidates, optionally capped at ``shadow.z_cap``) is reserved and
    excluded from every shadow; a pool that yields no Z point is
    rejected. The universe is the pool minus Z, then the candidates
    outside the pool, each in dataset order. Every universe sample enters
    each shadow independently with probability ``shadow.inclusion_rate``,
    and a shadow left with one class is drawn again.
    """
    k = shadow.count
    pool = np.unique(pool)
    candidates = np.unique(candidates)
    z_eligible = pool[~np.isin(pool, candidates)]
    n_z = min(int(round(shadow.z_fraction * len(pool))), shadow.z_cap or len(pool), len(z_eligible))
    if n_z == 0:
        raise ValueError(
            f"shadow pool of {len(pool)} samples ({len(z_eligible)} outside the candidates) "
            f"yields no Z point at z_fraction {shadow.z_fraction}"
        )
    z_rows = derive_rng(seed, "z-reserve").choice(z_eligible, size=n_z, replace=False)
    universe = np.concatenate([pool[~np.isin(pool, z_rows)], candidates[~np.isin(candidates, pool)]])

    y = dataset.y[universe]
    coin_rng = derive_rng(seed, "inclusion")
    incl = (coin_rng.random((len(universe), k)) < shadow.inclusion_rate).astype(np.uint8)
    # a shadow with no samples or one class cannot train; re-flip such columns
    for j in range(k):
        for _ in range(101):
            col = incl[:, j].astype(bool)
            if 0 < np.count_nonzero(y[col]) < np.count_nonzero(col):
                break
            incl[:, j] = coin_rng.random(len(universe)) < shadow.inclusion_rate
        else:
            raise ValueError(f"could not draw a two-class training set for shadow {j}")

    return ShadowPlan(
        universe=universe,
        mask=incl,
        z=z_rows,
        shadow_epochs=shadow.epochs,
        seed=seed,
        shadow_seeds=tuple(derive_seed(seed, "shadow", j) for j in range(k)),
    )


def train_shadow_ensemble(dataset: Dataset, plan: ShadowPlan, cfg: TrainConfig, helpers: FitHelpers,
                          lead: Sequence[tuple[np.ndarray, np.ndarray, TrainConfig]] = ()
                          ) -> tuple[ShadowEnsemble, list[TrainedModel]]:
    """Train the shadows of ``plan``, each on its mask column, validated on Z; returns them and the models of ``lead``.

    Shadows reuse the target hyperparameters and train for exactly
    ``plan.shadow_epochs`` epochs. The jobs of ``lead``, a repetition's
    target, go ahead of them in one :func:`fit_batch`, so that
    they stack with the shadows where their recipes do. Each model is the
    same wherever, and beside whichever models, it trains.
    """
    jobs = [(plan.universe[np.flatnonzero(plan.mask[:, j])], plan.z,
             replace(cfg, seed=s, fixed_epochs=plan.shadow_epochs)) for j, s in enumerate(plan.shadow_seeds)]
    models = fit_batch(dataset, [*lead, *jobs], helpers)
    return ShadowEnsemble(**vars(plan), models=tuple(models[len(lead):])), models[:len(lead)]


def collect_confidences(ensemble: ShadowEnsemble, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (sample x shadow) true-label confidences of the samples ``X`` with labels ``y``."""
    return np.column_stack([predict_confidences(m, X, y) for m in ensemble.models])

