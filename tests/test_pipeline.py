"""Tests for the repeated-experiment pipeline, resume and report rendering."""

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakaudit import game, pipeline
from leakaudit.attacks import AttackScores, RmiaParams
from leakaudit.config import ExperimentConfig, ShadowParams, validate_config
from leakaudit.data import Dataset, load_dataset, save_dataset
from leakaudit.game import Challenge, GameConfig, TargetArtifacts, draw_challenge, draw_shadows
from leakaudit.nnet import TrainConfig, load_model
from leakaudit.pipeline import _aggregate, _write_csv, report_render, rerun_attacks, run_experiment, save_scores
from leakaudit.recipe import RecipeError
from leakaudit.seeds import derive_seed
from leakaudit.synth import SynthSpec, synth_dataset

TINY = ExperimentConfig(
    synth=SynthSpec(n=240, dim=4, positive_fraction=0.4, separation=3.0, seed=0),
    train=TrainConfig(hidden_dims=(4,), dropout_rate=0.0, learning_rate=1e-2,
                      max_epochs=3, patience=3, fixed_epochs=3, seed=0),
    shadow=ShadowParams(count=4, epochs=2),
    repetitions=2,
    fpr_targets=(0.0, 0.001),
    seed=0,
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

    def test_membership_is_written_only_to_the_challenge(self, run_dir):
        out, _, _ = run_dir
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for rep, summary in enumerate(report["repetitions"]):
            rep_dir = out / f"rep_{rep:03d}"
            rep_report = json.loads((rep_dir / "rep_report.json").read_text(encoding="utf-8"))
            assert "member_ids" not in rep_report and "member_ids" not in summary
            challenge = json.loads((rep_dir / "challenge.json").read_text(encoding="utf-8"))
            assert rep_report["n_members"] == len(challenge["member_ids"])
        assert "member_ids" not in report

    def test_challenge_json_is_the_drawn_record(self, run_dir):
        out, cfg, _ = run_dir
        dataset = synth_dataset(cfg.synth)
        for rep in (0, 1):
            drawn = draw_challenge(dataset, cfg.game, derive_seed(cfg.seed, "rep", rep))
            stored = json.loads((out / f"rep_{rep:03d}" / "challenge.json").read_text(encoding="utf-8"))
            assert stored == drawn.record(dataset.ids)

    def test_manifest_lists_each_sample_once(self, run_dir):
        out, _, _ = run_dir
        for rep in (0, 1):
            manifest = json.loads((out / f"rep_{rep:03d}" / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["z_ids"] and len(manifest["mask"]) == len(manifest["ids"])
            assert len(set(manifest["ids"])) == len(manifest["ids"])
            assert not set(manifest["ids"]) & set(manifest["z_ids"])

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

    def test_empty_validation_split_is_refused_with_the_config(self):
        """No target is trained, or audited, without a validation loss to pick its epoch by."""
        with pytest.raises(RecipeError, match="fractions must be three positive numbers"):
            replace(TINY, game=replace(TINY.game, fractions=(0.5, 0.0, 0.5)))

    def test_challenge_without_a_non_member_fails_before_any_fit(self, tmp_path, monkeypatch):
        """round(108 * 0.001 / 0.999) == 0 non-members: each repetition fails at its draw, with nothing trained."""
        fits = []
        monkeypatch.setattr(game, "fit_batch", lambda *args: fits.append(args))
        cfg = replace(TINY, game=GameConfig(p_member=0.999), output_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert fits == []
        assert sorted(report["errors"]) == ["0", "1"]
        assert all("no non-member" in error for error in report["errors"].values())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_rerun_attacks_reproduces_scores(self, run_dir):
        out, cfg, _ = run_dir
        tracked = [out / "report.json"] + [
            out / f"rep_{rep:03d}" / name
            for rep in (0, 1) for name in ("scores_lira.csv", "scores_rmia.csv", "rep_report.json")
        ]
        before = {p: p.read_bytes() for p in tracked}
        rerun_attacks(cfg)
        after = {p: p.read_bytes() for p in tracked}
        assert before == after

    def test_rerun_attacks_without_artifacts(self, tmp_path):
        cfg = replace(TINY, output_dir=str(tmp_path / "empty"))
        with pytest.raises(FileNotFoundError):
            rerun_attacks(cfg)


def copy_run(run_dir, dest: Path) -> ExperimentConfig:
    """A copy of the run's repetitions and report under ``dest``, and the config that points at it."""
    out, cfg, _ = run_dir
    for rep_dir in out.glob("rep_*"):
        shutil.copytree(rep_dir, dest / rep_dir.name)
    shutil.copy(out / "report.json", dest / "report.json")
    return replace(cfg, output_dir=str(dest))


def with_per_epoch_train_losses(path: Path) -> float:
    """Rewrite a checkpoint's meta as checkpoints were once written, a train loss per epoch; return its train loss."""
    with np.load(path) as npz:
        arrays = dict(npz)
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    loss = meta.pop("train_loss")
    meta["train_losses"] = [loss + (epoch - meta["best_epoch"]) for epoch in range(1, len(meta["val_losses"]) + 1)]
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    return loss


def files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def run_files(out: Path) -> dict[str, bytes]:
    """The files ``run`` writes under ``out``, without the tables ``report`` rendered there."""
    return {name: data for name, data in files(out).items() if name == "report.json" or name.startswith("rep_")}


class TestRerunAttacks:
    def test_another_gamma_rewrites_both_reports_as_a_fresh_run_writes_them(self, run_dir, tmp_path):
        cfg = replace(copy_run(run_dir, tmp_path / "attacked"), rmia=RmiaParams(gamma=1.5))
        before = files(tmp_path / "attacked")
        report = rerun_attacks(cfg)
        attacked = files(tmp_path / "attacked")
        assert attacked["rep_000/scores_rmia.csv"] != before["rep_000/scores_rmia.csv"]
        assert report["config"]["attack.rmia.gamma"] == 1.5

        fresh_report = run_experiment(replace(cfg, output_dir=str(tmp_path / "fresh")))
        assert attacked == files(tmp_path / "fresh")
        assert report == fresh_report

    def test_changed_seed_raises_naming_the_repetition_and_writes_nothing(self, run_dir, tmp_path):
        cfg = copy_run(run_dir, tmp_path)
        before = files(tmp_path)
        with pytest.raises(ValueError, match="rep_000"):
            rerun_attacks(replace(cfg, seed=cfg.seed + 1))
        assert files(tmp_path) == before

    @pytest.mark.parametrize("shadow,field", [
        ({"count": 6}, "checkpoints"),
        ({"epochs": 5}, "shadow_epochs"),
        ({"count": 6, "epochs": 5}, "checkpoints"),
        ({"z_fraction": 0.3}, "z_ids"),
        ({"inclusion_rate": 0.6}, "mask"),
        ({"z_cap": 5}, "z_ids"),
    ])
    def test_stale_shadow_recipe_raises_naming_the_key_and_writes_nothing(self, run_dir, tmp_path, shadow, field,
                                                                          monkeypatch):
        """A changed ``shadow.*`` key draws other shadows than manifest.json records; no checkpoint is loaded."""
        cfg = copy_run(run_dir, tmp_path)
        before = files(tmp_path)
        monkeypatch.setattr(pipeline, "load_model", lambda path: pytest.fail(f"{path} loaded before the check"))
        with pytest.raises(ValueError, match=rf"rep_000: .*shadows: manifest.json field '{field}' differs"):
            rerun_attacks(replace(cfg, shadow=replace(cfg.shadow, **shadow)))
        assert files(tmp_path) == before

    def test_each_repetition_is_finished_before_the_next_is_loaded(self, run_dir, tmp_path, monkeypatch):
        cfg = copy_run(run_dir, tmp_path)
        events = []
        real_load, real_finish = pipeline.load_model, pipeline._finish_rep
        monkeypatch.setattr(pipeline, "load_model", lambda path: events.append(Path(path).parent.name)
                            or real_load(path))
        monkeypatch.setattr(pipeline, "_finish_rep", lambda *args: events.append(f"finish {args[2]}")
                            or real_finish(*args))
        rerun_attacks(cfg)
        models = 1 + TINY.shadow.count
        assert events == ["rep_000"] * models + ["finish 0"] + ["rep_001"] * models + ["finish 1"]

    def test_repetition_without_models_is_an_error(self, run_dir, tmp_path):
        cfg = copy_run(run_dir, tmp_path)
        shutil.rmtree(tmp_path / "rep_001")
        report = rerun_attacks(cfg)
        assert report["n_repetitions_completed"] == 1
        assert list(report["errors"]) == ["1"] and "rep_001" in report["errors"]["1"]
        assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == report


    def test_changed_challenge_in_a_later_repetition_raises_before_any_rewrite(self, run_dir, tmp_path):
        cfg = replace(copy_run(run_dir, tmp_path), rmia=RmiaParams(gamma=1.5))
        shutil.copy(tmp_path / "rep_000" / "challenge.json", tmp_path / "rep_001" / "challenge.json")
        before = files(tmp_path)
        with pytest.raises(ValueError, match="rep_001"):
            rerun_attacks(cfg)
        assert files(tmp_path) == before

    def test_repetition_without_challenge_is_an_error_and_the_report_matches(self, run_dir, tmp_path):
        cfg = replace(copy_run(run_dir, tmp_path), rmia=RmiaParams(gamma=1.5))
        (tmp_path / "rep_001" / "challenge.json").unlink()
        report = rerun_attacks(cfg)
        assert list(report["errors"]) == ["1"]
        assert report["errors"]["1"].startswith("FileNotFoundError") and "rep_001" in report["errors"]["1"]
        assert report["config"]["attack.rmia.gamma"] == 1.5
        assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == json.loads(json.dumps(report))
        assert json.loads((tmp_path / "rep_000" / "rep_report.json").read_text(encoding="utf-8")) \
            == report["repetitions"][0]


class TestResume:
    @pytest.mark.parametrize("change,stale", [
        ({"shadow": replace(TINY.shadow, count=5)}, "shadows: manifest.json field 'checkpoints' differs"),
        ({"seed": TINY.seed + 1}, "challenge"),
    ])
    def test_stale_repetition_refuses_before_any_fit_or_write(self, run_dir, tmp_path, monkeypatch, change, stale):
        """Repetition 0 has no marker and would run again, but repetition 1's stored draw is stale: nothing runs."""
        cfg = copy_run(run_dir, tmp_path)
        (tmp_path / "rep_000" / "rep_report.json").unlink()
        before = files(tmp_path)
        monkeypatch.setattr(game, "fit_batch", lambda *args: pytest.fail("a fit started before the check"))
        with pytest.raises(ValueError, match=rf"rep_001: the config or the data no longer draws the stored {stale}"):
            run_experiment(replace(cfg, **change))
        assert files(tmp_path) == before

    @pytest.mark.parametrize("change", [
        {"rmia": RmiaParams(gamma=1.5)},
        {"fpr_targets": (*TINY.fpr_targets, 0.01)},
    ], ids=["gamma", "fpr_target"])
    def test_changed_attack_settings_rewrite_every_file_as_a_fresh_run_writes_them(self, run_dir, tmp_path, change):
        """Both stored repetitions are scored again from their checkpoints with the config given."""
        cfg = replace(copy_run(run_dir, tmp_path / "resumed"), **change)
        report = run_experiment(cfg)
        assert report["errors"] == {}

        fresh_report = run_experiment(replace(cfg, output_dir=str(tmp_path / "fresh")))
        assert files(tmp_path / "resumed") == files(tmp_path / "fresh")
        assert report == fresh_report

    @pytest.mark.parametrize("checkpoint", ["target.npz", "shadow_01.npz"])
    def test_marked_repetition_without_a_checkpoint_is_an_error_and_the_run_goes_on(self, run_dir, tmp_path,
                                                                                    checkpoint):
        cfg = copy_run(run_dir, tmp_path)
        (tmp_path / "rep_001" / checkpoint).unlink()
        report = run_experiment(cfg)
        assert report["n_repetitions_completed"] == 1
        assert list(report["errors"]) == ["1"]
        error = report["errors"]["1"]
        assert error.startswith("FileNotFoundError") and f"rep_001/{checkpoint}" in error
        assert report["repetitions"] == run_dir[2]["repetitions"][:1]

    def test_checkpoints_of_per_epoch_train_losses_attack_and_resume_rewriting_every_file_alike(self, run_dir,
                                                                                                 tmp_path):
        cfg = copy_run(run_dir, tmp_path)
        losses = {path: with_per_epoch_train_losses(path) for path in sorted(tmp_path.rglob("*.npz"))}
        assert [load_model(path).train_loss for path in losses] == list(losses.values())
        before = files(tmp_path)
        rerun_attacks(cfg)
        assert files(tmp_path) == before
        assert run_experiment(cfg)["errors"] == {}
        assert files(tmp_path) == before

    def test_a_marker_is_not_read_and_a_garbled_one_is_rewritten(self, run_dir, tmp_path):
        cfg = copy_run(run_dir, tmp_path)
        (tmp_path / "rep_001" / "rep_report.json").write_text('{"rep": 1, "att', encoding="utf-8")
        assert run_experiment(cfg)["errors"] == {}
        assert files(tmp_path) == run_files(run_dir[0])


class Crash(BaseException):
    """Stands in for the process dying: no ``except Exception`` catches it."""


class TestInterruptedRun:
    @pytest.mark.parametrize("name", ["rep_report.json", "challenge.json", "manifest.json"])
    def test_crash_inside_a_record_write_leaves_no_record(self, run_dir, tmp_path, monkeypatch, name):
        cfg = replace(run_dir[1], output_dir=str(tmp_path))
        real_dump = json.dump

        def dump_half_then_crash(obj, fh, **kwargs):
            if Path(fh.name).name.startswith(name) and Path(fh.name).parent.name == "rep_001":
                fh.write(json.dumps(obj, **kwargs)[:40])
                raise Crash
            real_dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump_half_then_crash)
        with pytest.raises(Crash):
            run_experiment(cfg)
        monkeypatch.undo()
        assert (tmp_path / "rep_000" / name).exists()
        assert not (tmp_path / "rep_001" / name).exists()

        assert run_experiment(cfg)["errors"] == {}
        assert files(tmp_path) == run_files(run_dir[0])

    def test_attack_records_a_repetition_without_a_marker_and_scores_the_others(self, run_dir, tmp_path):
        """A run cut before repetition 1's marker: its checkpoints stay, but attack does not finish it."""
        cfg = replace(copy_run(run_dir, tmp_path), rmia=RmiaParams(gamma=1.5))
        (tmp_path / "rep_001" / "rep_report.json").unlink()
        before = files(tmp_path)
        report = rerun_attacks(cfg)
        after = files(tmp_path)
        assert list(report["errors"]) == ["1"]
        assert report["errors"]["1"].startswith("FileNotFoundError") and "rep_001" in report["errors"]["1"]
        assert report["n_repetitions_completed"] == 1
        assert after["rep_000/scores_rmia.csv"] != before["rep_000/scores_rmia.csv"]
        assert json.loads(after["rep_000/rep_report.json"]) == report["repetitions"][0]
        assert {k: v for k, v in after.items() if k.startswith("rep_001/")} \
            == {k: v for k, v in before.items() if k.startswith("rep_001/")}

    def test_attack_without_a_marker_raises_and_writes_nothing(self, run_dir, tmp_path):
        cfg = copy_run(run_dir, tmp_path)
        for rep_dir in tmp_path.glob("rep_*"):
            (rep_dir / "rep_report.json").unlink()
        before = files(tmp_path)
        with pytest.raises(FileNotFoundError, match="no stored repetition"):
            rerun_attacks(cfg)
        assert files(tmp_path) == before


def test_write_csv_writes_an_array_as_its_rows(tmp_path):
    rows = np.array([[np.inf, 0.0, 0.0], [0.1 + 0.2, 1 / 3, 1e-300], [-2.5, 1.0, 5.0]])
    _write_csv(tmp_path / "array.csv", "a,b,c", rows)
    _write_csv(tmp_path / "rows.csv", "a,b,c", [tuple(r) for r in rows.tolist()])
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("rows", [
    np.empty((0, 3)),
    np.array([[-0.0, np.inf, 5e-324]]),
    np.array([[1e308, -np.inf, 0.1 + 0.2], [-0.0, 0.0, -5e-324], [1 / 3, 2.0, -1e308]]),
    np.array([[7.0]]),
])
def test_write_csv_writes_an_array_as_one_repr_a_value_row_by_row(tmp_path, rows):
    _write_csv(tmp_path / "array.csv", "a,b,c", rows)
    line = ",".join(["{!r}"] * rows.shape[1]) + "\n"
    expected = "a,b,c\n" + "".join(line.format(*row) for row in rows.tolist())
    assert (tmp_path / "array.csv").read_bytes() == expected.encode()


QUOTED = ',"\r\n'
# ids with and without the characters a CSV field must quote, a leading # or space, and non-ASCII text
sample_ids = st.text(st.sampled_from([*QUOTED, "#", " ", "a", "7", "é", "漢", "\t"])
                     | st.characters(blacklist_categories=("Cs",)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(sample_ids, min_size=1, max_size=8, unique=True), data=st.data())
def test_save_scores_writes_the_bytes_of_csv_writer(ids, data):
    n = len(ids)
    rows = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    m = data.draw(st.integers(0, n))
    challenge = Challenge(members=rows[:m], validation=np.array([], dtype=np.intp), population=rows[m:],
                          nonmembers=rows[m:], p_member=0.5, seed=0)
    scores = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)))
    flagged = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    table = AttackScores(scores=scores, flags={i: "no_in_shadow" for i in flagged})
    artifacts = TargetArtifacts(model=None, confidences=np.zeros(n), challenge=challenge)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        save_scores(table, path, artifacts, ids)
        written = path.read_bytes()
    expected = ["id,score,is_member,flags\n"]
    order = np.searchsorted(artifacts.rows, challenge.candidates)
    for r, i in zip(challenge.candidates.tolist(), order.tolist()):
        # csv.writer quotes a field that holds a character of its line end, so with \r\n it quotes a lone \r,
        # which it leaves bare with \n (Python 3.11)
        line = StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(
            [ids[r], repr(float(scores[i])), int(artifacts.is_member[i]), table.flags.get(i, "")])
        expected.append(line.getvalue().removesuffix("\r\n") + "\n")
    assert written == "".join(expected).encode()


def test_save_scores_quotes_an_id_holding_a_lone_carriage_return(tmp_path):
    challenge = Challenge(members=np.array([0]), validation=np.array([], dtype=np.intp), population=np.array([1]),
                          nonmembers=np.array([1]), p_member=0.5, seed=0)
    artifacts = TargetArtifacts(model=None, confidences=np.zeros(2), challenge=challenge)
    save_scores(AttackScores(scores=np.array([0.5, 0.25]), flags={}), tmp_path / "scores.csv", artifacts, ["a\rb", "c"])
    with open(tmp_path / "scores.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["id", "score", "is_member", "flags"], ["a\rb", "0.5", "1", ""],
                                        ["c", "0.25", "0", ""]]


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

    def test_summary_lists_fpr_targets_by_number(self, tmp_path):
        keys = ["0.0", "1e-05", "0.001", "0.01"]
        agg = {"median": 0.1, "baseline": 0.01, "p_value": 0.5, "stars": ""}
        report = {"attacks": {name: {"tpr": {k: agg for k in keys}} for name in ("lira", "rmia")}}
        (tmp_path / "report.json").write_text(json.dumps(report, sort_keys=True), encoding="utf-8")
        report_render(tmp_path / "report.json", "csv")
        rows = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[name, k] for name in ("lira", "rmia") for k in keys]

    def test_svg_output(self, run_dir):
        out, _, _ = run_dir
        written = report_render(out / "report.json", "svg")
        assert written == [out / "roc.svg"]
        text = (out / "roc.svg").read_text(encoding="utf-8")
        assert text.startswith("<svg") and "polyline" in text

    def test_svg_plots_the_first_repetition_the_report_holds(self, run_dir, tmp_path):
        """Repetition 0 lost its marker, so the re-attacked report holds repetition 1 alone: the plot shows it."""
        cfg = copy_run(run_dir, tmp_path / "attacked")
        (tmp_path / "attacked" / "rep_000" / "rep_report.json").unlink()
        assert [r["rep"] for r in rerun_attacks(cfg)["repetitions"]] == [1]
        assert files(tmp_path / "attacked" / "rep_000") != files(tmp_path / "attacked" / "rep_001")
        report_render(tmp_path / "attacked" / "report.json", "svg")

        shutil.copytree(tmp_path / "attacked" / "rep_001", tmp_path / "alone" / "rep_001")
        shutil.copy(tmp_path / "attacked" / "report.json", tmp_path / "alone" / "report.json")
        report_render(tmp_path / "alone" / "report.json", "svg")
        assert (tmp_path / "attacked" / "roc.svg").read_bytes() == (tmp_path / "alone" / "roc.svg").read_bytes()

    def test_svg_of_a_report_without_a_repetition_raises(self, run_dir, tmp_path):
        copy_run(run_dir, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        (tmp_path / "report.json").write_text(json.dumps({**report, "repetitions": []}), encoding="utf-8")
        with pytest.raises(FileNotFoundError, match="no completed repetition"):
            report_render(tmp_path / "report.json", "svg")
        assert not (tmp_path / "roc.svg").exists()

    def test_missing_report(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            report_render(tmp_path / "report.json", "csv")

    def test_unknown_format(self, run_dir):
        out, _, _ = run_dir
        with pytest.raises(ValueError):
            report_render(out / "report.json", "pdf")



class TestManifest:
    """``manifest.json`` is what ``draw_shadows`` draws, and ``attack`` checks it without parsing it."""

    def test_save_load_round_trip(self, run_dir):
        out, cfg, _ = run_dir
        dataset = synth_dataset(cfg.synth)
        rep_seed = derive_seed(cfg.seed, "rep", 0)
        challenge = draw_challenge(dataset, cfg.game, rep_seed)
        plan = draw_shadows(dataset, challenge.population, challenge.candidates, cfg.shadow,
                            derive_seed(rep_seed, "ensemble"))
        stored = json.loads((out / "rep_000" / "manifest.json").read_text(encoding="utf-8"))
        assert stored == plan.manifest(dataset.ids)
        assert stored["checkpoints"] == [f"shadow_{j:02d}.npz" for j in range(cfg.shadow.count)]
        assert all((out / "rep_000" / name).exists() for name in stored["checkpoints"])
        assert load_model(out / "rep_000" / stored["checkpoints"][0]).train_loss > 0.0

    @staticmethod
    def attack_edited(run_dir, tmp_path, edit, field):
        """``rerun_attacks`` on a copy of the run whose rep_000 manifest ``edit`` changed: it must refuse."""
        cfg = copy_run(run_dir, tmp_path)
        path = tmp_path / "rep_000" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        before = files(tmp_path)
        with pytest.raises(ValueError, match=rf"rep_000: .*manifest.json field '{field}' differs"):
            rerun_attacks(cfg)
        assert files(tmp_path) == before

    def test_z_id_listed_in_ids_rejected(self, run_dir, tmp_path):
        """A manifest that also lists a Z id in ``ids`` (the older layout) no longer matches the draw."""
        self.attack_edited(run_dir, tmp_path, lambda manifest: manifest["ids"].append(manifest["z_ids"][0]), "ids")

    def test_flipped_mask_bit_rejected(self, run_dir, tmp_path):
        def flip(manifest):
            row = manifest["mask"][1]
            manifest["mask"][1] = ("1" if row[0] == "0" else "0") + row[1:]

        self.attack_edited(run_dir, tmp_path, flip, "mask")

    @pytest.mark.parametrize("bad_row", ["01", "0101", "01x", "0 1", [0, 1, 0]])
    def test_malformed_row_rejected(self, run_dir, tmp_path, bad_row):
        def break_row(manifest):
            manifest["mask"][1] = bad_row

        self.attack_edited(run_dir, tmp_path, break_row, "mask")


def test_every_file_names_a_sample_by_the_id_of_its_row(tmp_path):
    """With ids that sort against their rows and a row dropped at ingest, a sort of ids in place of rows shows."""
    synth = synth_dataset(TINY.synth)
    rows = [*range(10), 3, *range(10, len(synth))]  # row 10 repeats row 3, so ingest drops it
    ids = [f"id{999 - r:04d}" for r in range(len(rows))]
    save_dataset(Dataset(ids, synth.X[rows], synth.y[rows]), tmp_path / "data.csv")
    dataset = load_dataset(tmp_path / "data.csv")
    assert len(dataset) == len(synth) and list(dataset.ids) == sorted(dataset.ids, reverse=True)
    cfg = replace(TINY, synth=None, dataset_path=str(tmp_path / "data.csv"), repetitions=1,
                  output_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    rep_dir = tmp_path / "out" / "rep_000"
    before = files(tmp_path / "out")
    rerun_attacks(cfg)
    assert files(tmp_path / "out") == before

    challenge = json.loads((rep_dir / "challenge.json").read_text(encoding="utf-8"))
    drawn = draw_challenge(dataset, cfg.game, derive_seed(cfg.seed, "rep", 0))
    assert challenge["member_ids"] == [dataset.ids[r] for r in drawn.members]
    for name in ("lira", "rmia"):
        with open(rep_dir / f"scores_{name}.csv", newline="", encoding="utf-8") as fh:
            scores = list(csv.DictReader(fh))
        assert [r["id"] for r in scores] == challenge["member_ids"] + challenge["nonmember_ids"]
        assert [r["is_member"] for r in scores] == ["1"] * len(challenge["member_ids"]) \
            + ["0"] * len(challenge["nonmember_ids"])

    manifest = json.loads((rep_dir / "manifest.json").read_text(encoding="utf-8"))
    row = {sample_id: r for r, sample_id in enumerate(dataset.ids)}
    universe = [row[i] for i in manifest["ids"]]
    n_pool = len(drawn.population) - len(manifest["z_ids"])  # the pool minus Z, then the members
    assert universe[:n_pool] == sorted(set(drawn.population.tolist()) - {row[i] for i in manifest["z_ids"]})
    assert universe[n_pool:] == sorted(drawn.members.tolist())


# Pools floats of mixed magnitudes from two repetitions, where the order of the sums shows in the last digits.
METADATA_MEANS = """
import json
import numpy as np
from leakaudit.config import ExperimentConfig
from leakaudit.data import Dataset
from leakaudit.pipeline import _aggregate

rng = np.random.default_rng(0)
ids = [f"s{i}" for i in range(300)]
size = rng.standard_normal(300) * 10.0 ** rng.integers(-4, 4, 300)
dataset = Dataset(ids, np.zeros((300, 1)), rng.integers(0, 2, 300), meta={"size": size})
attack = {"tpr": {"0.0": 0.1}, "minority_tpr": {"0.0": None}, "identified": {"0.0": ids[:30]}}
rep = {"baseline_tpr": 0.01, "n_members": 200, "attacks": {"lira": attack, "rmia": attack},
       "population_auroc": 0.5}
report = _aggregate(dataset, ExperimentConfig(fpr_targets=(0.0,), metadata_key="size"), [rep, rep],
                    [set(ids[:200]), set(ids[20:220])], {})
analysis = report["attacks"]["lira"]["metadata_analysis"]
print(json.dumps([analysis["identified_mean"], analysis["rest_mean"]]))
"""


def hand_rep(tpr, baseline=0.01):
    """A repetition summary with one FPR target (0) and no identified members."""
    attack = {"tpr": {"0.0": tpr}, "minority_tpr": {"0.0": None}, "identified": {"0.0": []}}
    return {"baseline_tpr": baseline, "n_members": 100,
            "attacks": {"lira": attack, "rmia": attack}, "population_auroc": 0.5}


RECIPE = """
train.hidden_dims = 8, 4
train.dropout = 0.1
train.learning_rate = 0.005
train.weight_decay = 0
train.batch_size = 32
train.max_epochs = 7
train.patience = 2
train.fixed_epochs = 5
attack.lira.clip_eps = 0.0001
attack.lira.variance_floor = 0.01
attack.lira.global_variance = true
split.train = 0.5
split.validation = 0.2
split.population = 0.3
shadow.z_cap = 9
run.fpr_targets = 0.0, 0.01
"""


@pytest.mark.parametrize("data", [
    "data.synth.n = 240\ndata.synth.dim = 4\ndata.synth.separation = 2.5\ndata.synth.seed = 3",
    "data.path = data.csv\nreport.metadata_key = size",
], ids=["synth", "path"])
def test_report_config_written_back_is_the_config(tmp_path, data):
    """The report's config block names every key it holds, so it reads back as the config that wrote it."""
    (tmp_path / "run.cfg").write_text(f"{data}\n{RECIPE}run.output_dir = out\n", encoding="utf-8")
    cfg = validate_config(tmp_path / "run.cfg")
    block = json.loads(json.dumps(_aggregate(synth_dataset(SynthSpec(n=10, dim=2)), cfg, [], [], {})["config"]))
    assert "run.output_dir" not in block and block["train.hidden_dims"] == [8, 4]

    def line(key, value):
        return f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}"

    lines = [line(key, value) for key, value in block.items() if value is not None]  # None is every such default
    (tmp_path / "back.cfg").write_text("\n".join([*lines, "run.output_dir = out"]), encoding="utf-8")
    assert validate_config(tmp_path / "back.cfg") == cfg


class TestAggregate:
    @pytest.fixture(scope="class")
    def aggregate(self):
        dataset = synth_dataset(SynthSpec(n=10, dim=2))
        cfg = replace(TINY, fpr_targets=(0.0,))
        return lambda tprs: _aggregate(dataset, cfg, [hand_rep(t) for t in tprs], [set()] * len(tprs), {})

    def test_median_and_significance(self, aggregate):
        report = aggregate([0.05, 0.06, 0.07, 0.08, 0.09])
        for name in ("lira", "rmia"):
            entry = report["attacks"][name]["tpr"]["0.0"]
            assert entry["median"] == pytest.approx(0.07)
            assert entry["p_value"] == pytest.approx(1.0 / 32.0)
            assert entry["stars"] == "*"
            assert entry["baseline"] == pytest.approx(0.01)
        assert report["n_repetitions_completed"] == 5

    def test_null_not_significant(self, aggregate):
        report = aggregate([0.0, 0.0, 0.01, 0.0, 0.0])
        assert report["attacks"]["lira"]["tpr"]["0.0"]["p_value"] > 0.05

    def test_no_repetitions_leaves_attacks_empty(self, aggregate):
        report = aggregate([])
        assert report["n_repetitions_completed"] == 0
        assert report["attacks"] == {}

    def test_negative_zero_fpr_target_reads_the_zero_entry(self):
        dataset = synth_dataset(SynthSpec(n=10, dim=2))
        report = _aggregate(dataset, replace(TINY, fpr_targets=(-0.0,)), [hand_rep(0.05)], [set()], {})
        assert report["attacks"]["lira"]["tpr"]["0.0"]["median"] == 0.05

    def test_characteristic_analyses_read_the_member_sets(self):
        ids = [f"s{i}" for i in range(8)]
        size = np.arange(8, dtype=float)
        dataset = Dataset(ids, np.zeros((8, 1)), np.array([1, 1, 0, 0, 1, 0, 0, 0]), meta={"size": size})
        rep = hand_rep(0.05)
        rep["attacks"]["lira"] = {**rep["attacks"]["lira"], "identified": {"0.0": ["s0", "s1"]}}
        members = [set(ids[:4])]

        report = _aggregate(dataset, replace(TINY, fpr_targets=(0.0,), metadata_key="size"), [rep], members, {})
        lira = report["attacks"]["lira"]
        assert lira["label_analysis"]["identified_positive_fraction"] == 1.0
        assert lira["label_analysis"]["rest_positive_fraction"] == 0.0
        assert lira["metadata_analysis"]["key"] == "size"
        assert (lira["metadata_analysis"]["identified_mean"], lira["metadata_analysis"]["rest_mean"]) == (0.5, 2.5)
        # rmia identified nobody, so neither analysis applies to it
        assert set(report["attacks"]["rmia"]["metadata_analysis"]) == {"not_applicable"}

        report = _aggregate(dataset, replace(TINY, fpr_targets=(0.0,), metadata_key="age"), [rep], members, {})
        assert report["attacks"]["lira"]["metadata_analysis"] == {"not_applicable": "metadata key 'age' absent"}

    def test_nan_metadata_is_not_ranked(self):
        ids = [f"s{i}" for i in range(8)]
        size = np.array([0.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        dataset = Dataset(ids, np.zeros((8, 1)), np.zeros(8, dtype=int), meta={"size": size})
        rep = hand_rep(0.05)
        rep["attacks"]["lira"] = {**rep["attacks"]["lira"], "identified": {"0.0": ["s0", "s1"]}}
        report = _aggregate(dataset, replace(TINY, fpr_targets=(0.0,), metadata_key="size"), [rep], [set(ids[:4])], {})
        assert report["attacks"]["lira"]["metadata_analysis"] == {"not_applicable": "cannot rank NaN values"}

    def test_metadata_means_do_not_depend_on_the_hash_seed(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = [subprocess.run([sys.executable, "-c", METADATA_MEANS], capture_output=True, text=True, check=True,
                               env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
                for seed in ("1", "2")]
        means = [json.loads(run.stdout) for run in runs]
        assert means[0] == means[1]
