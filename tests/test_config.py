"""Tests for config parsing, defaulting and validation."""

import pytest

from leakaudit.config import _KEYS, ConfigError, ExperimentConfig, parse_config_text, validate_config
from leakaudit.synth import SynthSpec


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """
data.synth.n = 100
data.synth.dim = 4
"""


class TestParseText:
    def test_key_value_pairs(self):
        pairs = parse_config_text("a.b = 1\n c.d=  x y \n")
        assert pairs == {"a.b": "1", "c.d": "x y"}

    def test_comments_and_blank_lines(self):
        pairs = parse_config_text("# header\na = 1  # trailing\n\n   \n")
        assert pairs == {"a": "1"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("a = 1\na = 2\n")
        assert "duplicate" in str(exc.value)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("just words\n")
        assert "line 1" in str(exc.value)

    def test_all_errors_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("bad line\na = 1\na = 2\n")
        assert len(exc.value.errors) == 2


class TestValidate:
    def test_defaults(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, MINIMAL))
        assert cfg.game.p_member == 0.67
        assert cfg.shadow.count == 10
        assert cfg.shadow.inclusion_rate == 0.5
        assert cfg.shadow.epochs == 15
        assert cfg.rmia.gamma == 2.0
        assert cfg.lira.global_variance is False
        assert cfg.game.fractions == (0.45, 0.10, 0.45)
        assert cfg.fpr_targets == (0.0, 1e-3)
        assert cfg.repetitions == 5
        assert cfg.train.fixed_epochs is None

    def test_defaults_come_from_the_dataclasses(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, MINIMAL))
        assert cfg == ExperimentConfig(synth=SynthSpec(100, 4))

    def test_full_happy_path(self, tmp_path):
        text = """
        data.synth.n = 1500
        data.synth.dim = 64
        data.synth.positive_fraction = 0.2
        data.synth.separation = 4.0
        data.synth.seed = 1
        train.hidden_dims = 32
        train.dropout = 0.0
        train.weight_decay = 0.0
        train.learning_rate = 3e-4
        train.batch_size = 64
        train.max_epochs = 200
        train.fixed_epochs = 200
        shadow.count = 10
        shadow.epochs = 200
        shadow.z_fraction = 0.5
        attack.lira.global_variance = true
        attack.rmia.gamma = 2.0
        run.repetitions = 5
        run.fpr_targets = 0.0, 0.001
        run.seed = 2
        run.output_dir = out
        """
        cfg = validate_config(write_config(tmp_path, text))
        assert cfg.synth.n == 1500
        assert cfg.synth.separation == 4.0
        assert cfg.train.hidden_dims == (32,)
        assert cfg.train.weight_decay == 0.0
        assert cfg.train.fixed_epochs == 200
        assert cfg.shadow.z_fraction == 0.5
        assert cfg.lira.global_variance is True
        assert cfg.fpr_targets == (0.0, 0.001)
        assert cfg.seed == 2
        assert cfg.output_dir == "out"

    def test_csv_path_config(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, "data.path = data.csv\n"))
        assert cfg.dataset_path == "data.csv"
        assert cfg.synth is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(tmp_path / "absent.cfg")

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "no.such.key = 1\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("unknown key" in e for e in exc.value.errors)

    def test_data_source_required(self, tmp_path):
        path = write_config(tmp_path, "run.seed = 1\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("data.path or data.synth" in e for e in exc.value.errors)

    def test_data_sources_mutually_exclusive(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "data.path = data.csv\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("mutually exclusive" in e for e in exc.value.errors)

    def test_stray_synth_key_with_data_path_rejected(self, tmp_path):
        path = write_config(tmp_path, "data.path = d.csv\ndata.synth.seed = 3\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("mutually exclusive" in e for e in exc.value.errors)

    @pytest.mark.parametrize("text,missing", [
        ("data.synth.seed = 3\n", ("data.synth.n", "data.synth.dim")),
        ("data.synth.n = 100\n", ("data.synth.dim",)),
        ("data.synth.dim = 4\n", ("data.synth.n",)),
    ])
    def test_synth_without_size_names_missing_keys(self, tmp_path, text, missing):
        with pytest.raises(ConfigError) as exc:
            validate_config(write_config(tmp_path, text))
        joined = "\n".join(exc.value.errors)
        for key in missing:
            assert key in joined
        assert "mutually exclusive" not in joined

    def test_split_must_sum_to_one(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "split.train = 0.6\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("sum to 1" in e for e in exc.value.errors)

    def test_multiple_errors_reported_together(self, tmp_path):
        text = MINIMAL + """
        shadow.count = 1
        game.p_member = 1.5
        run.repetitions = 0
        train.learning_rate = abc
        """
        with pytest.raises(ConfigError) as exc:
            validate_config(write_config(tmp_path, text))
        joined = "\n".join(exc.value.errors)
        assert len(exc.value.errors) >= 4
        assert "shadow.count" in joined
        assert "p_member" in joined
        assert "repetitions" in joined
        assert "train.learning_rate" in joined

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("1", True), ("yes", True), ("false", False), ("0", False),
        ("no", False), ("TRUE", True), ("No", False),
    ])
    def test_boolean_parsing(self, tmp_path, raw, expected):
        path = write_config(tmp_path, MINIMAL + f"attack.lira.global_variance = {raw}\n")
        assert validate_config(path).lira.global_variance is expected

    @pytest.mark.parametrize("raw", ["ture", "on", "2", ""])
    def test_unknown_boolean_word_rejected(self, tmp_path, raw):
        path = write_config(tmp_path, MINIMAL + f"attack.lira.global_variance = {raw}\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert exc.value.errors == [f"attack.lira.global_variance: cannot parse {raw!r}"]

    @pytest.mark.parametrize("key,raw", [
        ("attack.lira.variance_floor", "inf"),
        ("train.learning_rate", "inf"),
        ("train.learning_rate", "nan"),
        ("attack.rmia.gamma", "-inf"),
        ("run.fpr_targets", "0.0, inf"),
    ])
    def test_non_finite_float_rejected(self, tmp_path, key, raw):
        path = write_config(tmp_path, MINIMAL + f"{key} = {raw}\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert exc.value.errors == [f"{key}: cannot parse {raw!r}"]

    def test_fpr_targets_range_checked(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "run.fpr_targets = 0.0, 1.5\n")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("fpr_targets" in e for e in exc.value.errors)

    def test_empty_hidden_dims_allowed(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "train.hidden_dims =\n")
        assert validate_config(path).train.hidden_dims == ()

    def test_z_cap_none(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "shadow.z_cap = none\n")
        assert validate_config(path).shadow.z_cap is None

    @pytest.mark.parametrize("line,key", [
        ("run.fpr_targets = 0.001", "run.fpr_targets"),
        ("shadow.z_cap = -1", "shadow.z_cap"),
        ("shadow.z_cap = 0", "shadow.z_cap"),
        ("shadow.z_fraction = 0", "shadow.z_fraction"),
        ("train.fixed_epochs = 0", "train.fixed_epochs"),
        ("split.train = 0\nsplit.population = 0.9", "split.*"),
        ("split.validation = 0\nsplit.train = 0.55", "split.*"),
        ("split.population = 0\nsplit.train = 0.9", "split.*"),
    ])
    def test_recipe_rule_reported_under_its_key(self, tmp_path, line, key):
        with pytest.raises(ConfigError) as exc:
            validate_config(write_config(tmp_path, MINIMAL + line + "\n"))
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith(key)

    @pytest.mark.parametrize("lines,key,words", [
        ("split.validation = 0.001\nsplit.train = 0.549", "split.*", "empty split"),
        ("game.p_member = 0.999", "game.p_member", "no non-member"),
        ("game.p_member = 0.2", "split.*", "too small for 432 non-members"),
    ])
    def test_synth_size_rule_reported_under_its_key(self, tmp_path, lines, key, words):
        """A synthetic dataset's size is known, so a challenge that cannot be drawn from it fails validation."""
        text = "data.synth.n = 240\ndata.synth.dim = 4\n" + lines + "\n"
        with pytest.raises(ConfigError) as exc:
            validate_config(write_config(tmp_path, text))
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith(key) and words in exc.value.errors[0]

    def test_every_broken_rule_of_one_section_reported(self, tmp_path):
        text = MINIMAL + "shadow.count = 1\nshadow.epochs = 0\n"
        with pytest.raises(ConfigError) as exc:
            validate_config(write_config(tmp_path, text))
        assert len(exc.value.errors) == 2
        assert exc.value.errors[0].startswith("shadow.count")
        assert exc.value.errors[1].startswith("shadow.epochs")

    def test_every_key_round_trips(self, tmp_path):
        """Each key written as its field's value builds exactly that config, so no key points at a moved field.

        ``report.metadata_key`` takes a sample value, since a plain string key cannot spell None;
        ``data.path`` excludes ``data.synth.*`` and is covered by test_csv_path_config.
        """
        expected = ExperimentConfig(synth=SynthSpec(100, 4), metadata_key="size")
        lines = []
        for key, (section, name, _) in _KEYS.items():
            if key == "data.path":
                continue
            if section == "split":
                value = expected.game.fractions[name]
            else:
                value = getattr(getattr(expected, section) if section else expected, name)
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, tuple):
                value = ", ".join(map(str, value))
            lines.append(f"{key} = {'none' if value is None else value}")
        assert validate_config(write_config(tmp_path, "\n".join(lines))) == expected
