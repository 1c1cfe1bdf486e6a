"""Tests for the command-line interface and its exit codes."""

import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from leakaudit.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from leakaudit.data import load_dataset

TINY_RUN = """
data.synth.n = 240
data.synth.dim = 4
data.synth.positive_fraction = 0.4
data.synth.separation = 3.0
train.hidden_dims = 4
train.dropout = 0.0
train.learning_rate = 1e-2
train.max_epochs = 2
train.fixed_epochs = 2
shadow.count = 2
shadow.epochs = 1
run.repetitions = 1
run.seed = 0
"""


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    cfg_path = out / "exp.cfg"
    cfg_path.write_text(TINY_RUN + f"run.output_dir = {out / 'results'}\n", encoding="utf-8")
    code = main(["run", str(cfg_path)])
    return out, cfg_path, code


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["synth", "--n", "50", "--dim", "3",
                     "--positive-fraction", "0.4", "--out", str(out)])
        assert code == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        ds = load_dataset(out)
        assert len(ds) == 50 and ds.dimension == 3

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--n", "1", "--dim", "3",
                     "--positive-fraction", "0.4", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data.synth.n = 100\ndata.synth.dim = 4\n", encoding="utf-8")
        assert main(["validate", str(cfg)]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data.synth.n = 100\ndata.synth.dim = 4\nbogus = 1\n", encoding="utf-8")
        assert main(["validate", str(cfg)]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_missing_config(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.cfg")]) == EXIT_USAGE


class TestRun:
    def test_completes_and_writes_report(self, run_out):
        out, _, code = run_out
        assert code == EXIT_OK
        report = json.loads((out / "results" / "report.json").read_text(encoding="utf-8"))
        assert report["n_repetitions_completed"] == 1

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("run.seed = 1\n", encoding="utf-8")
        assert main(["run", str(cfg)]) == EXIT_USAGE


class TestAttack:
    def test_refreshes_scores(self, run_out, capsys):
        _, cfg_path, _ = run_out
        assert main(["attack", str(cfg_path)]) == EXIT_OK
        assert "refreshed" in capsys.readouterr().out

    def test_missing_repetition_is_runtime_failure(self, run_out, tmp_path, capsys):
        out, _, _ = run_out
        shutil.copytree(out / "results" / "rep_000", tmp_path / "results" / "rep_000")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_RUN.replace("run.repetitions = 1", "run.repetitions = 2")
                       + f"run.output_dir = {tmp_path / 'results'}\n", encoding="utf-8")
        assert main(["attack", str(cfg)]) == EXIT_RUNTIME
        assert "refreshed 1/2 repetitions" in capsys.readouterr().out
        report = json.loads((tmp_path / "results" / "report.json").read_text(encoding="utf-8"))
        assert list(report["errors"]) == ["1"]

    def test_no_artifacts_is_usage_error(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_RUN + f"run.output_dir = {tmp_path / 'nothing'}\n", encoding="utf-8")
        assert main(["attack", str(cfg)]) == EXIT_USAGE


class TestReport:
    def test_csv_render(self, run_out, capsys):
        out, _, _ = run_out
        assert main(["report", "--report", str(out / "results" / "report.json"),
                     "--format", "csv"]) == EXIT_OK
        assert (out / "results" / "summary.csv").exists()

    def test_missing_report_is_usage_error(self, tmp_path):
        assert main(["report", "--report", str(tmp_path / "report.json")]) == EXIT_USAGE


class TestArgumentErrors:
    def test_unknown_format_is_usage_error(self, tmp_path, capsys):
        assert main(["report", "--report", str(tmp_path / "report.json"), "--format", "pdf"]) == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_config_argument_is_usage_error(self, capsys):
        assert main(["run"]) == EXIT_USAGE
        assert "required" in capsys.readouterr().err

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage" in capsys.readouterr().out


class TestReadme:
    def test_quick_start_config_validates(self, tmp_path, monkeypatch, capsys):
        """The README's quick-start synth command and audit.cfg heredoc, run as written, give a valid config."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        synth = re.search(r"^leakaudit (synth .*)$", readme, re.MULTILINE)
        heredoc = re.search(r"^cat > audit\.cfg <<'CFG'\n(.*?)^CFG$", readme, re.MULTILINE | re.DOTALL)
        assert synth and heredoc, "README quick start lost its synth command or audit.cfg heredoc"
        monkeypatch.chdir(tmp_path)
        assert main(shlex.split(synth.group(1))) == EXIT_OK
        assert Path("data.csv").exists()
        Path("audit.cfg").write_text(heredoc.group(1), encoding="utf-8")
        assert main(["validate", "audit.cfg"]) == EXIT_OK, capsys.readouterr().err
