"""Experiment configuration: flat ``key = value`` files with dotted namespaces.

``_KEYS`` maps every config key to the dataclass field it sets, and
:func:`config_record` reads the fields back by key. A key left out takes
the default of the dataclass that owns the field
(``GameConfig``, ``ShadowParams``, ``TrainConfig``, ``LiraParams``,
``RmiaParams``, ``SynthSpec`` or ``ExperimentConfig``), which also checks
the field's rules. Unknown keys, unparsable values and broken rules are
all reported at once, each under its config key, and so are the
challenge's size rules when ``data.synth.*`` fixes the dataset's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from leakaudit.attacks import LiraParams, RmiaParams
from leakaudit.game import GameConfig, ShadowParams, nonmember_count
from leakaudit.nnet import TrainConfig
from leakaudit.recipe import RecipeError, check
from leakaudit.synth import SynthSpec

__all__ = ["ConfigError", "ExperimentConfig", "config_record", "parse_config_text", "validate_config"]


class ConfigError(ValueError):
    """Carries the full list of configuration problems."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str | None = None
    synth: SynthSpec | None = None
    game: GameConfig = field(default_factory=GameConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    shadow: ShadowParams = field(default_factory=ShadowParams)
    lira: LiraParams = field(default_factory=LiraParams)
    rmia: RmiaParams = field(default_factory=RmiaParams)
    repetitions: int = 5
    fpr_targets: tuple[float, ...] = (0.0, 1e-3)
    seed: int = 0
    output_dir: str = "leakaudit_out"
    metadata_key: str | None = None

    def __post_init__(self):
        # the report's identified-set analyses read the FPR 0 entry of every repetition
        check(
            ("repetitions", self.repetitions >= 1, f"must be >= 1, got {self.repetitions}"),
            ("fpr_targets", all(0.0 <= f <= 1.0 for f in self.fpr_targets),
             f"must lie in [0,1], got {self.fpr_targets}"),
            ("fpr_targets", 0.0 in self.fpr_targets, f"must include 0, got {self.fpr_targets}"),
        )


# parsers of the stripped value strings that parse_config_text returns; a
# ValueError from one is reported as "<key>: cannot parse <value>"
def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",")) if raw else ()


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(_float(v) for v in raw.split(","))


def _opt_int(raw: str) -> int | None:
    return None if raw in ("", "none") else int(raw)


def _bool(raw: str) -> bool:
    word = raw.lower()
    if word not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"{raw!r} is not a boolean")
    return word in ("true", "yes", "1")


# config key -> (section, field, parser). Section "" is ExperimentConfig itself,
# "split" fills GameConfig.fractions by position, "synth" is the SynthSpec built
# when a data.synth.* key is set, and the others are the dataclasses in _SECTIONS.
_KEYS = {
    "data.path": ("", "dataset_path", str),
    "data.synth.n": ("synth", "n", int),
    "data.synth.dim": ("synth", "dim", int),
    "data.synth.positive_fraction": ("synth", "positive_fraction", _float),
    "data.synth.separation": ("synth", "separation", _float),
    "data.synth.seed": ("synth", "seed", int),
    "split.train": ("split", 0, _float),
    "split.validation": ("split", 1, _float),
    "split.population": ("split", 2, _float),
    "train.hidden_dims": ("train", "hidden_dims", _int_tuple),
    "train.dropout": ("train", "dropout_rate", _float),
    "train.learning_rate": ("train", "learning_rate", _float),
    "train.weight_decay": ("train", "weight_decay", _float),
    "train.batch_size": ("train", "batch_size", int),
    "train.max_epochs": ("train", "max_epochs", int),
    "train.patience": ("train", "patience", int),
    "train.fixed_epochs": ("train", "fixed_epochs", _opt_int),
    "shadow.count": ("shadow", "count", int),
    "shadow.inclusion_rate": ("shadow", "inclusion_rate", _float),
    "shadow.epochs": ("shadow", "epochs", int),
    "shadow.z_fraction": ("shadow", "z_fraction", _float),
    "shadow.z_cap": ("shadow", "z_cap", _opt_int),
    "attack.lira.clip_eps": ("lira", "clip_eps", _float),
    "attack.lira.variance_floor": ("lira", "variance_floor", _float),
    "attack.lira.global_variance": ("lira", "global_variance", _bool),
    "attack.rmia.gamma": ("rmia", "gamma", _float),
    "game.p_member": ("game", "p_member", _float),
    "run.repetitions": ("", "repetitions", int),
    "run.fpr_targets": ("", "fpr_targets", _float_tuple),
    "run.seed": ("", "seed", int),
    "run.output_dir": ("", "output_dir", str),
    "report.metadata_key": ("", "metadata_key", str),
}
_SECTIONS = {
    "game": GameConfig,
    "train": TrainConfig,
    "shadow": ShadowParams,
    "lira": LiraParams,
    "rmia": RmiaParams,
}
# (section, field) -> the config key that errors about the field name
_FIELD_KEYS = {(section, name): key for key, (section, name, _) in _KEYS.items()}
_FIELD_KEYS["game", "fractions"] = "split.*"


def config_record(cfg: ExperimentConfig) -> dict:
    """Each key's value in ``cfg`` by its ``_KEYS`` entry, tuples as lists; ``data.*`` keys only when set."""
    record = {}
    for key, (section, name, _) in _KEYS.items():
        owner = cfg.game.fractions if section == "split" else getattr(cfg, section) if section else cfg
        if owner is None:  # no synth spec
            continue
        value = owner[name] if section == "split" else getattr(owner, name)
        if value is not None or key != "data.path":
            record[key] = list(value) if isinstance(value, tuple) else value
    return record


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    pairs: dict[str, str] = {}
    errors: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            errors.append(f"line {line_no}: duplicate key {key!r}")
            continue
        pairs[key] = value.strip()
    if errors:
        raise ConfigError(errors)
    return pairs


def validate_config(path: str | Path) -> ExperimentConfig:
    """Load, default-fill and validate a config file.

    Raises :class:`ConfigError` carrying every violation found.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"no such config file: {path}"])
    pairs = parse_config_text(path.read_text(encoding="utf-8"))

    errors: list[str] = []
    values: dict[str, dict] = {section: {} for section in ("", "synth", "split", *_SECTIONS)}
    for key, raw in pairs.items():
        if key not in _KEYS:
            errors.append(f"unknown key {key!r}")
            continue
        section, name, parse = _KEYS[key]
        try:
            values[section][name] = parse(raw)
        except (TypeError, ValueError):
            errors.append(f"{key}: cannot parse {raw!r}")
    if values["split"]:
        values["game"]["fractions"] = tuple(values["split"].get(i, f) for i, f in enumerate(GameConfig.fractions))

    def build(section: str, cls, **fields):
        """``cls`` (or any callable) of the section's values, or None after recording its broken rules."""
        try:
            return cls(**values[section], **fields)
        except RecipeError as exc:
            errors.extend(f"{_FIELD_KEYS[section, name]} {message}" for name, message in exc.problems)
            return None

    built = {section: build(section, cls) for section, cls in _SECTIONS.items()}

    has_synth = any(key.startswith("data.synth.") for key in pairs)
    synth = None
    if "data.path" in pairs and has_synth:
        errors.append("data.path and data.synth.* are mutually exclusive")
    elif not has_synth and "data.path" not in pairs:
        errors.append("config must set data.path or data.synth.*")
    elif has_synth:
        missing = [f"data.synth.{name}" for name in ("n", "dim") if f"data.synth.{name}" not in pairs]
        if missing:
            errors.append(f"data.synth: missing {' and '.join(missing)}")
        elif {"n", "dim"} <= values["synth"].keys():
            synth = build("synth", SynthSpec)
    if synth is not None and built["game"] is not None:  # the dataset's size is known: can the challenge be drawn?
        build("game", lambda **fields: nonmember_count(synth.n, GameConfig(**fields)))

    cfg = build("", ExperimentConfig, synth=synth,
                **{section: built[section] or cls() for section, cls in _SECTIONS.items()})
    if errors:
        raise ConfigError(errors)
    return cfg
