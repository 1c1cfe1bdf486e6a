"""Experiment configuration: flat ``key = value`` files with dotted namespaces.

``_KEYS`` maps every config key to the dataclass field it sets; a key
left out takes the default of the dataclass that owns the field
(``GameConfig``, ``ShadowParams``, ``TrainConfig``, ``LiraParams``,
``RmiaParams``, ``SynthSpec`` or ``ExperimentConfig``). Unknown keys,
unparsable values and range violations are all reported at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from leakaudit.attacks import LiraParams, RmiaParams
from leakaudit.game import GameConfig, ShadowParams
from leakaudit.nnet import TrainConfig
from leakaudit.synth import SynthSpec

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "validate_config"]


class ConfigError(ValueError):
    """Carries the full list of configuration problems."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str | None = None
    synth: SynthSpec | None = None
    fractions: tuple[float, float, float] = GameConfig.fractions
    train: TrainConfig = field(default_factory=TrainConfig)
    target_fixed_epochs: int | None = None
    shadow: ShadowParams = field(default_factory=ShadowParams)
    lira: LiraParams = field(default_factory=LiraParams)
    rmia: RmiaParams = field(default_factory=RmiaParams)
    p_member: float = GameConfig.p_member
    repetitions: int = 5
    fpr_targets: tuple[float, ...] = (0.0, 1e-3)
    seed: int = 0
    output_dir: str = "leakaudit_out"
    metadata_key: str | None = None
    write_svg: bool = True


# parsers of the stripped value strings that parse_config_text returns
def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",")) if raw else ()


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _opt_int(raw: str) -> int | None:
    return None if raw in ("", "none") else int(raw)


def _bool(raw: str) -> bool:
    return raw.lower() in ("1", "true", "yes")


# config key -> (section, field, parser). Section "" is ExperimentConfig itself,
# "split" fills its fractions by position, "synth" is the SynthSpec built when a
# data.synth.* key is set, and the others are the dataclasses in _SECTIONS.
_KEYS = {
    "data.path": ("", "dataset_path", str),
    "data.synth.n": ("synth", "n", int),
    "data.synth.dim": ("synth", "dim", int),
    "data.synth.positive_fraction": ("synth", "positive_fraction", float),
    "data.synth.separation": ("synth", "separation", float),
    "data.synth.seed": ("synth", "seed", int),
    "split.train": ("split", 0, float),
    "split.validation": ("split", 1, float),
    "split.population": ("split", 2, float),
    "train.hidden_dims": ("train", "hidden_dims", _int_tuple),
    "train.dropout": ("train", "dropout_rate", float),
    "train.learning_rate": ("train", "learning_rate", float),
    "train.weight_decay": ("train", "weight_decay", float),
    "train.batch_size": ("train", "batch_size", int),
    "train.max_epochs": ("train", "max_epochs", int),
    "train.patience": ("train", "patience", int),
    "train.fixed_epochs": ("", "target_fixed_epochs", _opt_int),
    "shadow.count": ("shadow", "count", int),
    "shadow.inclusion_rate": ("shadow", "inclusion_rate", float),
    "shadow.epochs": ("shadow", "epochs", int),
    "shadow.z_fraction": ("shadow", "z_fraction", float),
    "shadow.z_cap": ("shadow", "z_cap", _opt_int),
    "attack.lira.clip_eps": ("lira", "clip_eps", float),
    "attack.lira.variance_floor": ("lira", "variance_floor", float),
    "attack.lira.global_variance": ("lira", "global_variance", _bool),
    "attack.rmia.gamma": ("rmia", "gamma", float),
    "game.p_member": ("", "p_member", float),
    "run.repetitions": ("", "repetitions", int),
    "run.fpr_targets": ("", "fpr_targets", _float_tuple),
    "run.seed": ("", "seed", int),
    "run.output_dir": ("", "output_dir", str),
    "run.svg": ("", "write_svg", _bool),
    "report.metadata_key": ("", "metadata_key", str),
}
# section -> (key prefix named in errors, dataclass)
_SECTIONS = {
    "train": ("train", TrainConfig),
    "shadow": ("shadow", ShadowParams),
    "lira": ("attack.lira", LiraParams),
    "rmia": ("attack.rmia", RmiaParams),
}


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

    sections = {}
    for section, (prefix, cls) in _SECTIONS.items():
        try:
            sections[section] = cls(**values[section])
        except ValueError as exc:
            errors.append(f"{prefix}: {exc}")
            sections[section] = cls()

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
            try:
                synth = SynthSpec(**values["synth"])
            except ValueError as exc:
                errors.append(f"data.synth: {exc}")

    fractions = tuple(values["split"].get(i, f) for i, f in enumerate(ExperimentConfig.fractions))
    cfg = ExperimentConfig(**values[""], synth=synth, fractions=fractions, **sections)

    if min(fractions) < 0 or abs(sum(fractions) - 1.0) > 1e-9:
        errors.append(f"split fractions must be non-negative and sum to 1, got {fractions}")
    if cfg.target_fixed_epochs is not None and cfg.target_fixed_epochs < 1:
        errors.append(f"train.fixed_epochs must be >= 1, got {cfg.target_fixed_epochs}")
    shadow = cfg.shadow
    if shadow.count < 2:
        errors.append(f"shadow.count must be >= 2, got {shadow.count}")
    if not 0.0 < shadow.inclusion_rate < 1.0:
        errors.append(f"shadow.inclusion_rate must be in (0,1), got {shadow.inclusion_rate}")
    if shadow.epochs < 1:
        errors.append(f"shadow.epochs must be >= 1, got {shadow.epochs}")
    if not 0.0 <= shadow.z_fraction < 1.0:
        errors.append(f"shadow.z_fraction must be in [0,1), got {shadow.z_fraction}")
    if not 0.0 < cfg.p_member < 1.0:
        errors.append(f"game.p_member must be in (0,1), got {cfg.p_member}")
    if cfg.repetitions < 1:
        errors.append(f"run.repetitions must be >= 1, got {cfg.repetitions}")
    if any(not 0.0 <= f <= 1.0 for f in cfg.fpr_targets):
        errors.append(f"run.fpr_targets must lie in [0,1], got {cfg.fpr_targets}")
    if errors:
        raise ConfigError(errors)
    return cfg
