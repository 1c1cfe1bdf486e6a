"""Tests for the repeated-experiment pipeline, resume and report rendering."""

import json
from dataclasses import replace

import pytest

from leakaudit.config import ExperimentConfig, ShadowParams
from leakaudit.nnet import TrainConfig
from leakaudit.pipeline import report_render, rerun_attacks, run_experiment
from leakaudit.synth import SynthSpec

TINY = ExperimentConfig(
    synth=SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0),
    train=TrainConfig(hidden_dims=(4,), dropout_rate=0.0, learning_rate=1e-2,
                      max_epochs=3, patience=3, seed=0),
    target_fixed_epochs=3,
    shadow=ShadowParams(count=4, epochs=2),
    repetitions=2,
    fpr_targets=(0.0, 0.001),
    seed=0,
    write_svg=False,
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = replace(TINY, output_dir=str(out))
    report = run_experiment(cfg)
    return out, cfg, report


ARTIFACTS = [
    "target.npz", "manifest.json", "challenge.json", "rep_report.json",
    "scores_lira.csv", "scores_rmia.csv", "roc_lira.csv", "roc_rmia.csv",
]


class TestRunExperiment:
    def test_report_structure(self, run_dir):
        _, _, report = run_dir
        assert report["n_repetitions_completed"] == 2
        assert report["errors"] == {}
        assert len(report["repetitions"]) == 2
        for name in ("lira", "rmia"):
            agg = report["attacks"][name]["tpr"]["0.0"]
            assert set(agg) == {"per_rep", "median", "baseline", "p_value", "stars"}
            assert len(agg["per_rep"]) == 2
            assert 0.0 <= agg["p_value"] <= 1.0
        assert "overlap" in report
        assert len(report["population_auroc"]["per_rep"]) == 2

    def test_rep_artifacts_on_disk(self, run_dir):
        out, _, _ = run_dir
        for rep in (0, 1):
            rep_dir = out / f"rep_{rep:03d}"
            for name in ARTIFACTS:
                assert (rep_dir / name).exists(), name
            shadows = sorted(rep_dir.glob("shadow_*.npz"))
            assert len(shadows) == 4

    def test_report_json_matches_return_value(self, run_dir):
        out, _, report = run_dir
        on_disk = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert on_disk == json.loads(json.dumps(report))

    def test_resume_is_byte_identical(self, run_dir):
        out, cfg, _ = run_dir
        tracked = [out / "report.json"] + [
            out / f"rep_{rep:03d}" / name
            for rep in (0, 1)
            for name in ("scores_lira.csv", "scores_rmia.csv", "rep_report.json")
        ]
        before = {p: p.read_bytes() for p in tracked}
        # force rep 1 to re-run from scratch while rep 0 is resumed from disk
        (out / "rep_001" / "rep_report.json").unlink()
        (out / "report.json").unlink()
        run_experiment(cfg)
        after = {p: p.read_bytes() for p in tracked}
        assert before == after

    def test_rerun_attacks_reproduces_scores(self, run_dir):
        out, cfg, _ = run_dir
        tracked = [
            out / f"rep_{rep:03d}" / f"scores_{name}.csv"
            for rep in (0, 1) for name in ("lira", "rmia")
        ]
        before = {p: p.read_bytes() for p in tracked}
        rerun_attacks(cfg)
        after = {p: p.read_bytes() for p in tracked}
        assert before == after

    def test_rerun_attacks_without_artifacts(self, tmp_path):
        cfg = replace(TINY, output_dir=str(tmp_path / "empty"))
        with pytest.raises(FileNotFoundError):
            rerun_attacks(cfg)


class TestReportRender:
    def test_csv_outputs(self, run_dir):
        out, _, report = run_dir
        written = report_render(out / "report.json", "csv")
        names = {p.name for p in written}
        assert names == {"summary.csv", "label_fractions.csv", "overlap.csv"}
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == "attack,fpr_target,median_tpr,baseline,p_value,stars"
        # one row per attack per FPR target
        assert len(summary) == 1 + 2 * 2

    def test_svg_output(self, run_dir):
        out, _, _ = run_dir
        written = report_render(out / "report.json", "svg")
        assert written == [out / "roc.svg"]
        text = (out / "roc.svg").read_text(encoding="utf-8")
        assert text.startswith("<svg") and "polyline" in text

    def test_json_output(self, run_dir):
        out, _, _ = run_dir
        written = report_render(out / "report.json", "json")
        assert written == [out / "report_pretty.json"]

    def test_missing_report(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            report_render(tmp_path / "report.json", "csv")

    def test_unknown_format(self, run_dir):
        out, _, _ = run_dir
        with pytest.raises(ValueError):
            report_render(out / "report.json", "pdf")

