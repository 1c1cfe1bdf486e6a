"""End-to-end repeated experiments: draw, train, attack, evaluate, aggregate.

Each repetition writes its artifacts (challenge, checkpoints, ensemble
manifest, score and ROC CSVs) into its own directory, with its membership
only in ``challenge.json``, and finishes with a ``rep_report.json``
marker, whose presence alone says that the repetition is stored.
:func:`_draw_rep` alone draws a repetition: its challenge, split
included, and its shadows. A run and a re-attack share one loop
(:func:`_run_reps`): it draws every repetition and checks each stored one
against its ``challenge.json`` and ``manifest.json`` (:func:`_stale`)
before anything is trained, loaded or written. Then a stored repetition
is loaded from its checkpoints, and a run trains any other one: it
trains the target and the shadows as one batch of fits, the target's
first, and queries the target, in that one order whether the fits run
in-process or in helpers. Each ends
in :func:`_finish_rep`, from the target's game and the shadow ensemble to
the score and ROC CSVs and the ``rep_report.json``, and all aggregate
into ``report.json``. So a resumed run writes what a fresh run with its
config writes. Every run file is written here: each of the four JSON
records by :func:`_write_json`, through a temp file that then replaces it,
and every CSV by :func:`_write_csv` or, as text fields quoted where they
need it, by :func:`_write_fields`, lines ended by ``\n``. The attacks and the
evaluation take plain arrays in the one candidate order of
:mod:`leakaudit.attacks`, the rows of the repetition's
``TargetArtifacts``. A sample's id is read only where a file names it:
``challenge.json``, ``manifest.json``, the score CSVs and
``rep_report.json``'s identified sets.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import re
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from leakaudit.attacks import AttackScores, run_lira, run_rmia, z_confidences
from leakaudit.config import ExperimentConfig, config_record
from leakaudit.data import Dataset, load_dataset
from leakaudit.evaluation import (
    baseline_tpr,
    auroc,
    characteristic_analysis,
    identified_members,
    minority_tpr,
    overlap_analysis,
    roc_curve,
    star_level,
    threshold_at_fpr,
    tpr_at_fpr,
)
from leakaudit.game import (
    Challenge,
    ShadowEnsemble,
    ShadowPlan,
    TargetArtifacts,
    collect_confidences,
    draw_challenge,
    draw_shadows,
    run_game,
    target_job,
    train_shadow_ensemble,
)
from leakaudit.nnet import load_model, predict_confidences, save_model
from leakaudit.parallel import FitHelpers, helper_count, step_seconds
from leakaudit.seeds import derive_seed
from leakaudit.stats import wilcoxon_signed_rank
from leakaudit.synth import synth_dataset

__all__ = ["run_experiment", "rerun_attacks", "report_render"]

log = logging.getLogger(__name__)

ATTACK_NAMES = ("lira", "rmia")
# what a field may not hold unquoted: the delimiter, the quote and the line ends
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _fpr_key(fpr: float) -> str:
    return repr(float(fpr) + 0.0)  # + 0.0 turns -0.0 into the 0.0 key the report reads


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return synth_dataset(cfg.synth)
    return load_dataset(cfg.dataset_path)


def _rep_dir(out_dir: Path, rep: int) -> Path:
    return out_dir / f"rep_{rep:03d}"


def _fit_seconds(cfg: ExperimentConfig, dataset: Dataset) -> float:
    """Estimated one-core seconds of one repetition's fits: the target's at most, and the shadows'.

    The target trains on the train split for at most its epoch budget.
    The shadows are priced as if they sampled from the train and
    population splits, but their drawn universe leaves out the Z set
    (:func:`leakaudit.game.draw_shadows`), so the estimate runs high: 1.20 s
    for CI's 600-row "same output on one core and on all cores" recipe,
    whose drawn model-steps, priced the same way, come to 0.99 s. Counting
    Z would move that recipe below
    :data:`leakaudit.parallel.MIN_FIT_SECONDS` (1.0 s) and off the helpers
    whose output that step compares, so the estimate keeps its value; to
    correct it is a change of its own.
    """
    batch = cfg.train.batch_size
    n = len(dataset)
    universe = n - math.floor(cfg.game.fractions[1] * n)
    target_epochs = cfg.train.fixed_epochs or cfg.train.max_epochs
    steps = (target_epochs * math.ceil(math.floor(cfg.game.fractions[0] * n) / batch)
             + cfg.shadow.count * cfg.shadow.epochs * math.ceil(cfg.shadow.inclusion_rate * universe / batch))
    return steps * step_seconds(batch, (dataset.dimension, *cfg.train.hidden_dims, 1))


def _draw_rep(dataset: Dataset, cfg: ExperimentConfig, rep: int) -> tuple[Challenge, ShadowPlan]:
    """Repetition ``rep``'s challenge and shadows: what a run trains, and what a resume and a re-attack check."""
    rep_seed = derive_seed(cfg.seed, "rep", rep)
    challenge = draw_challenge(dataset, cfg.game, rep_seed)
    shadows = draw_shadows(dataset, challenge.population, challenge.candidates, cfg.shadow,
                           derive_seed(rep_seed, "ensemble"))
    return challenge, shadows


def _run_single_rep(dataset: Dataset, cfg: ExperimentConfig, rep: int, challenge: Challenge, shadows: ShadowPlan,
                    rep_dir: Path, helpers: FitHelpers, stored: bool) -> dict:
    """Load a stored repetition from its checkpoints, or train and save any other, then finish it.

    Its models go when this returns, so a run or a re-attack holds one repetition's at a time.
    """
    if stored:
        artifacts = run_game(dataset, challenge, load_model(rep_dir / "target.npz"))
        ensemble = ShadowEnsemble(**vars(shadows), models=tuple(
            load_model(rep_dir / name) for name in shadows.checkpoints))
    else:
        # one batch of every fit, the target's first, so that it can share the shadows' first stack
        ensemble, [target] = train_shadow_ensemble(dataset, shadows, cfg.train, helpers,
                                                   lead=[target_job(challenge, cfg.train)])
        artifacts = run_game(dataset, challenge, target)

        rep_dir.mkdir(parents=True, exist_ok=True)
        save_model(artifacts.model, rep_dir / "target.npz")
        for name, shadow in zip(ensemble.checkpoints, ensemble.models):
            save_model(shadow, rep_dir / name)
        save_manifest(ensemble, rep_dir / "manifest.json", dataset.ids)
        _write_json(rep_dir / "challenge.json", challenge.record(dataset.ids))
    return _finish_rep(dataset, cfg, rep, artifacts, ensemble, rep_dir)


def _finish_rep(dataset: Dataset, cfg: ExperimentConfig, rep: int, artifacts: TargetArtifacts,
                ensemble: ShadowEnsemble, rep_dir: Path) -> dict:
    """Score every candidate with both attacks, write the score and ROC CSVs, then the ``rep_report.json`` marker.

    Both attacks share one query of the shadows on the candidates. The
    population AUROC scores the target's probability of class 1.
    """
    rows = artifacts.rows
    values = collect_confidences(ensemble, dataset.X[rows], dataset.y[rows])
    z_shadow, z_target = z_confidences(dataset, ensemble, artifacts.model)
    scores = {
        "lira": run_lira(artifacts.confidences, values, ensemble.inclusion(rows), cfg.lira),
        "rmia": run_rmia(artifacts.confidences, values, z_shadow, z_target, cfg.rmia),
    }
    for name in ATTACK_NAMES:
        save_scores(scores[name], rep_dir / f"scores_{name}.csv", artifacts, dataset.ids)
        roc = roc_curve(scores[name].scores, artifacts.is_member)
        _write_csv(rep_dir / f"roc_{name}.csv", "threshold,fpr,tpr",
                   np.column_stack([roc.thresholds, roc.fpr, roc.tpr]))
    pop = np.sort(artifacts.challenge.population)
    conf1 = predict_confidences(artifacts.model, dataset.X[pop], np.ones(len(pop), dtype=int))
    summary = {**_evaluate_rep(cfg, dataset, artifacts, scores), "rep": rep,
               "population_auroc": auroc(conf1, dataset.y[pop])}
    return _write_json(rep_dir / "rep_report.json", summary)


def _evaluate_rep(cfg: ExperimentConfig, dataset: Dataset, artifacts: TargetArtifacts,
                  scores: dict[str, AttackScores]) -> dict:
    """The attacks' TPRs, minority TPRs and identified sets, the last named by id."""
    challenge, is_member = artifacts.challenge, artifacts.is_member
    ids = [dataset.ids[r] for r in artifacts.rows.tolist()]
    labels = dataset.y[artifacts.rows]
    summary: dict = {"attacks": {}}
    summary["n_members"] = len(challenge.members)
    summary["n_nonmembers"] = len(challenge.nonmembers)
    summary["baseline_tpr"] = baseline_tpr(len(challenge.members))
    for name, table in scores.items():
        roc = roc_curve(table.scores, is_member)
        entry: dict = {"tpr": {}, "minority_tpr": {}, "identified": {}, "n_flagged": len(table.flags)}
        for fpr in cfg.fpr_targets:
            key = _fpr_key(fpr)
            threshold = threshold_at_fpr(roc, fpr)
            entry["tpr"][key] = tpr_at_fpr(roc, fpr)
            entry["identified"][key] = sorted(identified_members(ids, table.scores, is_member, threshold))
            try:
                entry["minority_tpr"][key] = minority_tpr(table.scores, is_member, labels, threshold)
            except ValueError:
                entry["minority_tpr"][key] = None
        summary["attacks"][name] = entry
    zero = _fpr_key(0.0)
    summary["combined_identified_fpr0"] = sorted(
        set(summary["attacks"]["lira"]["identified"][zero]) | set(summary["attacks"]["rmia"]["identified"][zero])
    )
    return summary


def _write_json(path: Path, obj: dict) -> dict:
    """Write ``obj`` through a temp file in the same directory, so that a crash leaves the old file or none."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return obj


def _write_csv(path: Path, header: str, rows: Iterable[Sequence] | np.ndarray) -> Path:
    """Write the ``header`` line, then ``rows``, every line ended by ``\\n``.

    A numeric array is formatted a column at a time, each value by repr (:func:`_write_fields`); other
    rows go through one :func:`csv.writer`, which writes a float by repr, None as an empty field and
    quotes a field that needs it.
    """
    if isinstance(rows, np.ndarray):
        return _write_fields(path, header, [map(repr, column) for column in rows.T.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _write_fields(path: Path, header: str, columns: Sequence[Iterable[str]]) -> Path:
    """Write the ``header`` line, then a line for each row of the ``columns`` of text fields, joined by ``,``.

    Each field is written as it is given, so a field that holds ``,``, ``"``, ``\\r`` or ``\\n`` must come
    quoted (:func:`_quoted`).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")
    return path


def save_manifest(plan: ShadowPlan, path: Path, ids: Sequence[str]) -> None:
    """Write the shadows' draw (:meth:`ShadowPlan.manifest`), the record that a resume and a re-attack check."""
    _write_json(path, plan.manifest(ids))


def _quoted(field: str) -> str:
    """``field`` as CSV writes it: in quotes, each quote doubled, if it holds ``,``, ``"``, ``\\r`` or ``\\n``."""
    return '"' + field.replace('"', '""') + '"' if _NEEDS_QUOTES.search(field) else field


def save_scores(table: AttackScores, path: Path, artifacts: TargetArtifacts, ids: Sequence[str]) -> None:
    """Write ``table`` as CSV ``id,score,is_member,flags`` in challenge order (members first), rows named by ``ids``.

    An id is quoted if it needs quotes; a flag never does.
    """
    if table.scores.shape != artifacts.confidences.shape:
        raise ValueError(f"{len(table.scores)} scores for {len(artifacts.rows)} candidates")
    rows = artifacts.challenge.candidates
    order = np.searchsorted(artifacts.rows, rows)
    names = [ids[row] for row in rows.tolist()]
    if _NEEDS_QUOTES.search("".join(names)):
        names = [_quoted(name) for name in names]
    _write_fields(path, "id,score,is_member,flags",
                  [names, map(repr, table.scores[order].tolist()),
                   map(str, artifacts.is_member[order].astype(int).tolist()),
                   [table.flags.get(i, "") for i in order.tolist()]])


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run (or resume) all repetitions and write the aggregated report JSON.

    A resume scores each stored repetition again from its checkpoints with
    ``cfg``'s attacks and FPR targets, and trains the others (see
    :func:`_run_reps`). Large enough fits train side by side in helper
    processes (see :mod:`leakaudit.parallel`), which end before this returns.
    """
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    return _run_reps(cfg, train=True)


def rerun_attacks(cfg: ExperimentConfig) -> dict:
    """Re-attack every stored repetition with ``cfg``'s attacks and rewrite both reports, as a run does.

    It is a resumed run that trains nothing (see :func:`_run_reps`). With
    no repetition stored, it raises :class:`FileNotFoundError` and writes nothing.
    """
    return _run_reps(cfg, train=False)


def _run_reps(cfg: ExperimentConfig, train: bool) -> dict:
    """Draw and check every repetition, finish each in turn, and write ``report.json``.

    A stored repetition, one with a ``rep_report.json`` marker, whose draw
    differs from its stored files (see :func:`_stale`) raises before
    anything is trained, loaded or written. Then, one at a time, a stored
    repetition is loaded from its checkpoints, any other is trained and
    saved if ``train`` is set, and each ends in :func:`_finish_rep`. A
    repetition that fails, or has no marker with ``train`` unset, is
    recorded under ``errors`` and the others go on.
    """
    out_dir = Path(cfg.output_dir)
    dataset = build_dataset(cfg)
    drawn: list[tuple[int, Path, Challenge, ShadowPlan, bool]] = []
    errors: dict[str, str] = {}
    for rep in range(cfg.repetitions):
        rep_dir = _rep_dir(out_dir, rep)
        try:
            challenge, shadows = _draw_rep(dataset, cfg, rep)
            stored = (rep_dir / "rep_report.json").exists()
            if not (stored or train):
                raise FileNotFoundError(f"{rep_dir}: no rep_report.json, the repetition is incomplete")
            stale = stored and _stale(rep_dir, dataset.ids, challenge, shadows)
        except Exception as exc:  # noqa: BLE001 - record and continue
            log.exception("repetition %d failed", rep)
            errors[str(rep)] = f"{type(exc).__name__}: {exc}"
            continue
        if stale:
            raise ValueError(stale)
        drawn.append((rep, rep_dir, challenge, shadows, stored))
    if not (drawn or train):
        raise FileNotFoundError(f"no stored repetition artifacts under {out_dir}")

    summaries: list[dict] = []
    member_sets: list[set[str]] = []
    # the helpers start at the first fit, so a re-attack starts none
    with FitHelpers(helper_count(_fit_seconds(cfg, dataset))) as helpers:
        for rep, rep_dir, challenge, shadows, stored in drawn:
            try:
                summaries.append(_run_single_rep(dataset, cfg, rep, challenge, shadows, rep_dir, helpers, stored))
            except Exception as exc:  # noqa: BLE001 - record and continue
                log.exception("repetition %d failed", rep)
                errors[str(rep)] = f"{type(exc).__name__}: {exc}"
                continue
            member_sets.append({dataset.ids[r] for r in challenge.members.tolist()})
    return _write_json(out_dir / "report.json", _aggregate(dataset, cfg, summaries, member_sets, errors))


def _aggregate(
    dataset: Dataset,
    cfg: ExperimentConfig,
    reps: Sequence[dict],
    member_sets: Sequence[set[str]],
    errors: dict[str, str],
) -> dict:
    """The report over the repetition summaries ``reps``; ``member_sets`` holds each one's member ids."""
    report: dict = {
        "config": {key: value for key, value in config_record(cfg).items() if key != "run.output_dir"},
        "n_repetitions_completed": len(reps),
        "errors": errors,
        "repetitions": list(reps),
        "attacks": {},
    }
    if not reps:
        return report

    baselines = np.array([r["baseline_tpr"] for r in reps])
    zero = _fpr_key(0.0)
    for name in ATTACK_NAMES:
        entry: dict = {"tpr": {}, "minority_tpr_median": {}}
        for fpr in cfg.fpr_targets:
            key = _fpr_key(fpr)
            tprs = np.array([r["attacks"][name]["tpr"][key] for r in reps])
            test = wilcoxon_signed_rank(tprs - baselines, alternative="greater")
            entry["tpr"][key] = {
                "per_rep": [float(t) for t in tprs],
                "median": float(np.median(tprs)),
                "baseline": float(np.mean(baselines)),
                "p_value": test.p_value,
                "stars": star_level(test.p_value),
            }
            m_tprs = [r["attacks"][name]["minority_tpr"][key] for r in reps]
            m_tprs = [t for t in m_tprs if t is not None]
            entry["minority_tpr_median"][key] = float(np.median(m_tprs)) if m_tprs else None
        report["attacks"][name] = entry

    # identified-set analyses at FPR 0
    ident = {name: [set(r["attacks"][name]["identified"][zero]) for r in reps] for name in ATTACK_NAMES}
    report["combined_fpr0_sizes"] = [len(set(r.get("combined_identified_fpr0", []))) for r in reps]
    report["per_attack_fpr0_sizes"] = {name: [len(s) for s in ident[name]] for name in ATTACK_NAMES}

    omega = [r["n_members"] for r in reps]
    try:
        report["overlap"] = asdict(overlap_analysis(list(zip(ident["lira"], ident["rmia"])), omega))
    except ValueError as exc:
        report["overlap"] = {"not_applicable": str(exc)}

    labels = dict(zip(dataset.ids, dataset.y.tolist()))
    meta_key = cfg.metadata_key
    meta = dict(zip(dataset.ids, dataset.meta[meta_key].tolist())) if meta_key in dataset.meta else None
    for name in ATTACK_NAMES:
        entry = report["attacks"][name]
        entry["label_analysis"] = _characteristic(
            ident[name], member_sets, labels, "label", "identified_positive_fraction", "rest_positive_fraction")
        if meta is not None:
            entry["metadata_analysis"] = _characteristic(
                ident[name], member_sets, meta, "metadata", "identified_mean", "rest_mean", key=meta_key)
        elif meta_key:
            entry["metadata_analysis"] = {"not_applicable": f"metadata key {meta_key!r} absent"}

    report["population_auroc"] = {
        "per_rep": [r["population_auroc"] for r in reps],
        "median": float(np.median([r["population_auroc"] for r in reps])),
    }
    return report


def _characteristic(identified: list[set[str]], member_sets: Sequence[set[str]], values: dict,
                    mode: str, identified_name: str, rest_name: str, **extra) -> dict:
    """One :func:`characteristic_analysis` report entry, or its reason for not applying."""
    try:
        res = characteristic_analysis(identified, member_sets, values, mode=mode)
    except ValueError as exc:
        return {"not_applicable": str(exc)}
    return {**extra, identified_name: res.identified_summary, rest_name: res.rest_summary,
            "p_value": res.test.p_value, "stars": res.stars, "n_skipped": res.n_skipped}


def _stale(rep_dir: Path, ids: Sequence[str], challenge: Challenge, shadows: ShadowPlan) -> str | None:
    """Why ``rep_dir``'s stored challenge, or its first differing ``manifest.json`` field, is not this draw, or None."""
    if json.loads((rep_dir / "challenge.json").read_text(encoding="utf-8")) != challenge.record(ids):
        what = "challenge"
    else:
        stored = json.loads((rep_dir / "manifest.json").read_text(encoding="utf-8"))
        drawn = shadows.manifest(ids)
        differs = next((key for key in [*drawn, *stored] if drawn.get(key) != stored.get(key)), None)
        what = differs and f"shadows: manifest.json field {differs!r} differs"
    return what and f"{rep_dir}: the config or the data no longer draws the stored {what}"


# --- report rendering -------------------------------------------------------


def report_render(report_path: str | Path, fmt: str) -> list[Path]:
    """Emit summary tables or plots next to the report file.

    ``csv`` writes three tables: a per-attack summary, a label-fraction
    table and an overlap table; ``svg`` writes a log-FPR ROC
    plot with one polyline per attack.
    """
    report_path = Path(report_path)
    if not report_path.exists():
        raise FileNotFoundError(f"no such report: {report_path}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    out_dir = report_path.parent
    written: list[Path] = []

    if fmt == "csv":
        attacks = sorted(report.get("attacks", {}).items())
        analyses = [(name, entry.get("label_analysis") or {}) for name, entry in attacks]
        ov = report.get("overlap") or {}
        written.append(_write_csv(
            out_dir / "summary.csv", "attack,fpr_target,median_tpr,baseline,p_value,stars",
            [(name, key, agg["median"], agg["baseline"], agg["p_value"], agg["stars"])
             for name, entry in attacks
             for key, agg in sorted(entry.get("tpr", {}).items(), key=lambda item: float(item[0]))]))
        written.append(_write_csv(
            out_dir / "label_fractions.csv",
            "attack,identified_positive_fraction,rest_positive_fraction,p_value,stars",
            [(name, la["identified_positive_fraction"], la["rest_positive_fraction"], la["p_value"], la["stars"])
             for name, la in analyses if "identified_positive_fraction" in la]))
        written.append(_write_csv(
            out_dir / "overlap.csv", "observed_mean,expected_mean,p_value,stars",
            [(ov["observed_mean"], ov["expected_mean"], ov["p_value"], ov["stars"])]
            if "observed_mean" in ov else []))
    elif fmt == "svg":
        written.append(_render_roc_svg(out_dir, report))
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv or svg)")
    return written


def _render_roc_svg(out_dir: Path, report: dict) -> Path:
    """Log-FPR ROC plot from the ROC CSVs of the report's first completed repetition."""
    width, height, margin = 640, 480, 60
    colors = {"lira": "#1f77b4", "rmia": "#d62728"}
    if not report.get("repetitions"):
        raise FileNotFoundError(f"the report under {out_dir} holds no completed repetition to plot")
    rep_dir = _rep_dir(out_dir, report["repetitions"][0]["rep"])
    curves: dict[str, list[tuple[float, float]]] = {}
    for name in ATTACK_NAMES:
        with open(rep_dir / f"roc_{name}.csv", encoding="utf-8") as fh:
            next(fh)
            curves[name] = [(float(f), float(t)) for _, f, t in (line.split(",") for line in fh)]

    fpr_floor = 10 ** math.floor(
        math.log10(min(min((f for f, _ in pts if f > 0), default=1e-3) for pts in curves.values()))
    )
    log_min = math.log10(fpr_floor)

    def sx(f: float) -> float:
        f = max(f, fpr_floor)
        return margin + (math.log10(f) - log_min) / (0.0 - log_min) * (width - 2 * margin)

    def sy(t: float) -> float:
        return height - margin - t * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 15}" text-anchor="middle" font-size="14">false positive rate (log)</text>',
        f'<text x="18" y="{height / 2}" text-anchor="middle" font-size="14" transform="rotate(-90 18 {height / 2})">true positive rate</text>',
    ]
    decade = int(round(math.log10(fpr_floor)))
    for d in range(decade, 1):
        x = sx(10 ** d)
        parts.append(f'<line x1="{x}" y1="{height - margin}" x2="{x}" y2="{height - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{height - margin + 20}" text-anchor="middle" font-size="12">1e{d}</text>')
    for i, (name, pts) in enumerate(sorted(curves.items())):
        coords = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for f, t in pts)
        parts.append(f'<polyline fill="none" stroke="{colors.get(name, "black")}" stroke-width="2" points="{coords}"/>')
        parts.append(
            f'<text x="{width - margin - 80}" y="{margin + 20 + 18 * i}" font-size="13" '
            f'fill="{colors.get(name, "black")}">{name}</text>'
        )
    parts.append("</svg>")
    path = out_dir / "roc.svg"
    path.write_text("\n".join(parts), encoding="utf-8")
    return path
