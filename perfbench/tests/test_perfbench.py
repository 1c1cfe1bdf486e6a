"""Tests of the benchmark's own logic: span arithmetic, names and output checks.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import json
import re
from pathlib import Path

import pytest

import checks
import metrics
import spans
from workloads import END_TO_END, LAYER_METRICS, WORKLOADS, config_text

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# the benchmark contract: a letter or digit, then at most 63 of [A-Za-z0-9_.-]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_direct_children_only():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    tree = [
        span("root", 0.0, 10.0),
        span("x", 2.0, 6.0, parent=0),
        span("y", 4.0, 8.0, parent=0),
        span("z", 9.0, 12.0, parent=0),
    ]
    # children cover [2, 8] and [9, 10] of the root
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_originals():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    originals = (Owner.outer, Owner.inner)
    tracer = spans.Tracer()
    tracer.patch(Owner, "outer", "m.outer", lambda a, kw, r: {"result": r})
    tracer.patch(Owner, "inner", "m.inner")
    assert Owner.outer(3) == 7
    tracer.uninstall()
    assert (Owner.outer, Owner.inner) == originals
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.attrs) == ("m.outer", None, {"result": 7})
    assert (inner.name, inner.parent) == ("m.inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_metric_names_match_the_pattern():
    names = list(LAYER_METRICS) + list(END_TO_END) + list(WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    for bad in ("", "audit s", "a/b", "é", "-lead", "x" * 65):
        assert not NAME.fullmatch(bad)


def test_benchmark_json_matches_the_definitions():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: (unit, better) for k, (unit, better, _) in LAYER_METRICS.items()}


def test_tail_percentile_leaves_ten_samples_beyond():
    assert metrics.tail_percentile(list(range(10))) is None
    pct, value = metrics.tail_percentile([float(v) for v in range(20)])
    assert pct == 50.0 and value == 9.0
    assert sum(1 for v in range(20) if v > value) == 10


def test_scale_divides_by_the_mean_of_the_probes_around_the_call():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(3.0, ref, ref) == pytest.approx(3.0)
    # a host at half speed doubles both the wall time and the probes
    assert hostspeed.scale(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert hostspeed.scale(5.0, ref, 4 * ref) == pytest.approx(2.0)


def test_auroc_handles_ties_like_the_rank_statistic():
    from leakaudit.evaluation import auroc

    scores = [0.1, 0.4, 0.4, 0.8, 0.8, 0.8, 0.2, 0.9]
    members = [0, 1, 0, 1, 0, 1, 0, 1]
    assert metrics.auroc(scores, members) == pytest.approx(auroc(scores, members))


@pytest.fixture(scope="module")
def tiny_audit(tmp_path_factory):
    """A fast real audit: the wide_challenge recipe on 300 rows with 4 shadows."""
    from leakaudit import pipeline
    from leakaudit.config import validate_config
    from leakaudit.data import save_dataset
    from leakaudit.synth import SynthSpec, synth_dataset

    work = tmp_path_factory.mktemp("tiny")
    save_dataset(synth_dataset(SynthSpec(n=300, dim=4, positive_fraction=0.3, separation=2.0, seed=3)),
                 work / "data.csv")
    text = config_text(WORKLOADS["wide_challenge"], str(work / "data.csv"), str(work / "out"), 3)
    (work / "audit.cfg").write_text(text.replace("shadow.count = 16", "shadow.count = 4"))
    cfg = validate_config(work / "audit.cfg")
    report = pipeline.run_experiment(cfg)
    return cfg, report


def test_clean_audit_passes_every_check(tiny_audit):
    from leakaudit import pipeline

    cfg, report = tiny_audit
    out = Path(cfg.output_dir)
    results = checks.check_audit(out, report, cfg.repetitions)
    before = checks.snapshot(checks.score_files(out, cfg.repetitions))
    pipeline.rerun_attacks(cfg)
    results += checks.check_reproduced(before)
    assert results and all(c.ok for c in results), [c for c in results if not c.ok]


def _tamper(path: Path, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[1] = value
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_score_fails(tiny_audit, tmp_path, value):
    cfg, report = tiny_audit
    rep_dir = checks.rep_dirs(Path(cfg.output_dir), 1)[0]
    copy = tmp_path / rep_dir.name
    copy.mkdir()
    for name in ("scores_lira.csv", "challenge.json"):
        (copy / name).write_bytes((rep_dir / name).read_bytes())
    _tamper(copy / "scores_lira.csv", value)
    result = checks.check_scores(copy / "scores_lira.csv", copy / "challenge.json")
    assert not result.ok and "non-finite" in result.detail


def test_missing_candidate_fails(tiny_audit, tmp_path):
    cfg, _ = tiny_audit
    rep_dir = checks.rep_dirs(Path(cfg.output_dir), 1)[0]
    lines = (rep_dir / "scores_rmia.csv").read_text(encoding="utf-8").splitlines()
    (tmp_path / "scores_rmia.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    result = checks.check_scores(tmp_path / "scores_rmia.csv", rep_dir / "challenge.json")
    assert not result.ok and "1 missing" in result.detail


def test_tampered_score_is_a_failed_operation_after_reattack(tiny_audit):
    """A finite but altered score passes the per-file checks; the re-attack comparison catches it."""
    from leakaudit import pipeline

    cfg, _ = tiny_audit
    out = Path(cfg.output_dir)
    target = checks.score_files(out, cfg.repetitions)[0]
    _tamper(target, "12345.0")
    before = checks.snapshot(checks.score_files(out, cfg.repetitions))
    pipeline.rerun_attacks(cfg)
    results = checks.check_reproduced(before)
    failed = [c for c in results if not c.ok]
    assert [c.name for c in failed] == [f"reattack_identical:{target.parent.name}/{target.name}"]


def test_decreasing_roc_fails(tmp_path):
    path = tmp_path / "roc_lira.csv"
    path.write_text("threshold,fpr,tpr\ninf,0.0,0.0\n2.0,0.0,0.5\n1.0,0.5,0.25\n", encoding="utf-8")
    assert not checks.check_roc(path).ok


def test_leak_check_needs_median_strictly_above_baseline():
    assert checks.check_leak([0.0, 0.02, 0.03], [0.01, 0.01], "lira").ok
    assert not checks.check_leak([0.0, 0.01, 0.03], [0.01, 0.01], "lira").ok
    assert not checks.check_leak([], [0.01], "lira").ok


def test_fixed_figures_pool_repetitions_of_the_given_audits():
    import worker

    def sample(lira, tpr0, mb):
        return {"auc": {"lira": lira, "rmia": [0.5] * len(lira)}, "artifact_mb": mb,
                "fpr0": {"lira": tpr0, "rmia": tpr0, "baseline": [0.01] * len(tpr0)}}

    raised = {"checks": []}
    figures, leak = worker.fixed_figures(
        [sample([0.6], [0.02], 3.0), raised, sample([0.7], [0.0], 1.0), sample([0.8], [0.03], 2.0)],
        expect_leak=True)
    assert figures == {"lira_auc": pytest.approx(0.7), "rmia_auc": pytest.approx(0.5), "artifact_mb": 2.0}
    assert [c.ok for c in leak] == [True, True]
    assert worker.fixed_figures([sample([0.6], [0.0], 1.0)], expect_leak=False)[1] == []


def test_overhead_ratio_pairs_each_audit_with_its_traced_rerun():
    import run

    samples = [
        {"audit": 0, "traced": False, "audit_s": 2.0},
        {"audit": 0, "traced": True, "audit_s": 2.2},
        {"audit": 1, "traced": False, "audit_s": 4.0},
        {"audit": 1, "traced": True, "audit_s": 5.0},
        {"audit": 2, "traced": False, "audit_s": 3.0},
        {"audit": 2, "traced": True},  # raised: no time, no ratio
    ]
    assert run.overhead_ratios(samples) == pytest.approx([0.1, 0.25])


def test_layer_metrics_cover_every_named_layer(tiny_audit, tmp_path):
    from dataclasses import replace

    from leakaudit import config, data, pipeline

    cfg_path = Path(tiny_audit[0].output_dir).parent / "audit.cfg"
    cfg = replace(tiny_audit[0], output_dir=str(tmp_path / "out"))
    original = pipeline.run_experiment
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        config.validate_config(cfg_path)
        data.load_dataset(cfg.dataset_path)
        pipeline.run_experiment(cfg)
        pipeline.rerun_attacks(cfg)
    finally:
        tracer.uninstall()
    assert pipeline.run_experiment is original
    spans.annotate(tracer.spans)
    values = metrics.layer_metrics(tracer.spans)
    assert set(values) == set(LAYER_METRICS) - {"trace.overhead_ratio"}
    assert values["nnet.fit_calls"] == 1 + 4
    assert values["evaluation.roc_curves_per_table"] > 1
    fits = [s for s in tracer.spans if s.name == "nnet.fit"]
    assert [s.shadow for s in fits] == [None, 0, 1, 2, 3]
    loads = [s for s in tracer.spans if s.name == "nnet.load_model"]
    assert [(s.rep, s.shadow) for s in loads] == [(0, None), (0, 0), (0, 1), (0, 2), (0, 3)]


def test_an_audit_that_raises_is_a_failed_operation(tiny_audit, tmp_path):
    from dataclasses import replace

    import worker

    cfg = replace(tiny_audit[0], dataset_path=str(tmp_path / "missing.csv"),
                  output_dir=str(tmp_path / "out"))
    sample = worker.audit_once("unused.cfg", cfg, tracer=None, reattack_share=0.0)
    assert [(c.name, c.ok) for c in sample["checks"]] == [("audit_raised", False)]
    assert "missing.csv" in sample["checks"][0].detail and "audit_s" not in sample
