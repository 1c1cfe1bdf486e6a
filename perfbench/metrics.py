"""Summary statistics and per-layer metrics computed from spans."""

from __future__ import annotations

import math

from spans import Span, self_times


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (percent, value).

    Needs eleven samples; with fewer there is no such percentile.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def auroc(scores: list[float], members: list[int]) -> float:
    """Probability that a random member outscores a random non-member, ties counting half.

    A copy of leakaudit.evaluation.auroc kept on purpose, so that the
    audit-power figures do not depend on the code they judge.
    """
    pos = [s for s, m in zip(scores, members) if m == 1]
    neg = [s for s, m in zip(scores, members) if m == 0]
    if not pos or not neg:
        raise ValueError("AUROC needs members and non-members")
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = sum(r for r, m in zip(ranks, members) if m == 1)
    u = rank_sum - len(pos) * (len(pos) + 1) / 2.0
    return u / (len(pos) * len(neg))


def _under(spans: list[Span], root_name: str) -> list[bool]:
    """Whether each span lies inside (or is) a span named ``root_name``."""
    inside = []
    for s in spans:
        p = s.parent
        flag = s.name == root_name
        if p is not None:
            flag = flag or inside[p]
        inside.append(flag)
    return inside


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts for one traced audit plus re-attack."""
    selfs = self_times(spans)

    def pick(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return math.fsum(s.duration for s in pick(name))

    def self_total(name):
        return math.fsum(t for s, t in zip(spans, selfs) if s.name == name)

    def attr_sum(name, key, only=None):
        return sum(s.attrs.get(key, 0) for i, s in enumerate(spans)
                   if s.name == name and (only is None or only[i]))

    in_audit = _under(spans, "pipeline.run_experiment")
    fit_s = total("nnet.fit")
    steps = attr_sum("nnet.fit", "steps")
    load_s = total("data.load_dataset")
    tables = [i for i, s in enumerate(spans) if s.name in ("attacks.run_lira", "attacks.run_rmia")]
    scored = sum(spans[i].attrs["candidates"] for i in tables)
    audit_tables = sum(1 for i in tables if in_audit[i])
    audit_rocs = sum(1 for i, s in enumerate(spans) if s.name == "evaluation.roc_curve" and in_audit[i])
    analyses = ("minority_tpr", "overlap_analysis", "characteristic_analysis", "auroc")
    return {
        "nnet.fit_s": fit_s,
        "nnet.fit_calls": len(pick("nnet.fit")),
        "nnet.epochs": attr_sum("nnet.fit", "epochs"),
        "nnet.steps": steps,
        # fit time per optimizer step, the per-epoch loss evaluation included
        "nnet.step_us": 1e6 * fit_s / steps if steps else 0.0,
        "nnet.predict_s": total("nnet.predict_confidences"),
        "nnet.predict_rows": attr_sum("nnet.predict_confidences", "rows"),
        "nnet.save_model_s": total("nnet.save_model"),
        "nnet.load_model_s": total("nnet.load_model"),
        "game.run_game_self_s": self_total("game.run_game"),
        "game.train_shadow_ensemble_self_s": self_total("game.train_shadow_ensemble"),
        "game.collect_confidences_s": total("game.collect_confidences"),
        "game.collect_confidences_rows": attr_sum("game.collect_confidences", "rows"),
        "game.save_manifest_s": total("game.save_manifest"),
        "game.manifest_bytes": attr_sum("game.save_manifest", "bytes"),
        "attacks.run_lira_s": total("attacks.run_lira"),
        "attacks.run_rmia_s": total("attacks.run_rmia"),
        "attacks.candidates": attr_sum("attacks.run_lira", "candidates", in_audit),
        "attacks.fallback_ratio": sum(spans[i].attrs["flagged"] for i in tables) / scored if scored else 0.0,
        "attacks.save_scores_s": total("attacks.save_scores"),
        "stats.fit_gaussian_calls": len(pick("stats.fit_gaussian")),
        "stats.wilcoxon_s": total("stats.wilcoxon_signed_rank"),
        "stats.mann_whitney_s": total("stats.mann_whitney_u"),
        "evaluation.roc_curve_s": total("evaluation.roc_curve"),
        "evaluation.roc_curve_calls": len(pick("evaluation.roc_curve")),
        "evaluation.roc_curves_per_table": audit_rocs / audit_tables if audit_tables else 0.0,
        "evaluation.analyses_s": math.fsum(total(f"evaluation.{f}") for f in analyses),
        "data.load_dataset_s": load_s,
        "data.load_rows_per_s": attr_sum("data.load_dataset", "rows") / load_s if load_s else 0.0,
        "data.subset_s": total("data.subset"),
        "data.subset_calls": len(pick("data.subset")),
        "data.features_array_s": total("data.features_array"),
        "data.features_array_calls": len(pick("data.features_array")),
        "pipeline.run_experiment_self_s": self_total("pipeline.run_experiment"),
        "pipeline.rerun_attacks_self_s": self_total("pipeline.rerun_attacks"),
        "pipeline.report_render_s": total("pipeline.report_render"),
        "config.validate_config_s": total("config.validate_config"),
    }
