"""Acceptance suite: eleven end-to-end criteria with printed verdicts.

Each test prints a ``criterion N: PASS/FAIL`` line directly to the
terminal (bypassing capture) before asserting, so a full run leaves an
auditable checklist. The two slow criteria (positive control and its
byte-identical re-run) share one frozen experiment configuration.
"""

import json
import math
import time
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from leakaudit.attacks import LiraParams, RmiaParams, run_lira, run_rmia, z_confidences
from leakaudit.config import ExperimentConfig, ShadowParams
from leakaudit.evaluation import (
    baseline_tpr,
    characteristic_analysis,
    overlap_analysis,
    roc_curve,
    tpr_at_fpr,
)
from leakaudit.game import collect_confidences, draw_shadows, train_shadow_ensemble
from leakaudit.nnet import TrainConfig, fit, forward_logits, init_model, predict_confidences
from leakaudit.parallel import FitHelpers
from leakaudit.pipeline import run_experiment
from leakaudit.stats import hypergeom_expected, mann_whitney_u, wilcoxon_signed_rank
from leakaudit.synth import SynthSpec, synth_dataset
from oracles import assign_membership, loss_and_grads, weighted_bce_loss


def verdict(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# Frozen positive-control configuration: deliberately memorizing training
# regime (no dropout, no weight decay, 200 fixed epochs) on separable
# synthetic data. Every acceptance run uses exactly these values.
POSITIVE_CONTROL = ExperimentConfig(
    synth=SynthSpec(n=1500, dim=64, positive_fraction=0.2, separation=4.0, seed=1),
    train=TrainConfig(hidden_dims=(32,), dropout_rate=0.0, learning_rate=3e-4,
                      weight_decay=0.0, batch_size=64, max_epochs=200, patience=10, fixed_epochs=200, seed=0),
    shadow=ShadowParams(count=10, inclusion_rate=0.5, epochs=200, z_fraction=0.5),
    lira=LiraParams(global_variance=True),
    rmia=RmiaParams(gamma=2.0),
    repetitions=5,
    fpr_targets=(0.0, 0.001),
    seed=2,
)


@pytest.fixture(scope="module")
def positive_control(tmp_path_factory):
    out = tmp_path_factory.mktemp("positive_control")
    cfg = replace(POSITIVE_CONTROL, output_dir=str(out))
    report = run_experiment(cfg)
    return out, report


@pytest.fixture(scope="module")
def minority_control(tmp_path_factory):
    out = tmp_path_factory.mktemp("minority_control")
    cfg = replace(
        POSITIVE_CONTROL,
        synth=replace(POSITIVE_CONTROL.synth, positive_fraction=0.05),
        output_dir=str(out),
    )
    report = run_experiment(cfg)
    return cfg, report


# --- criterion 1: analytic gradients match finite differences ---------------


def numeric_gradients(model, X, y, weights, eps=1e-6):
    grads = []
    for arr in model.weights + model.biases:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = weighted_bce_loss(forward_logits(model, X), y, weights)
            arr[idx] = orig - eps
            lm = weighted_bce_loss(forward_logits(model, X), y, weights)
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def test_criterion_1_gradient_correctness(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(10):
        dim = int(rng.integers(2, 21))
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(depth))
        cfg = TrainConfig(hidden_dims=hidden, dropout_rate=0.0, seed=trial)
        model = init_model(dim, cfg)
        # zero-init biases can park a ReLU pre-activation exactly on the
        # kink, where a finite difference straddles the non-differentiable
        # point; random biases keep the check at differentiable inputs
        for b in model.biases:
            b += rng.normal(scale=0.3, size=b.shape)
        n = int(rng.integers(5, 15))
        X = rng.normal(size=(n, dim))
        y = rng.integers(0, 2, size=n)
        weights = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        _, gw, gb = loss_and_grads(model, X, y, weights)
        numeric = numeric_gradients(model, X, y, weights)
        for analytic, approx in zip(gw + gb, numeric):
            denom = max(float(np.abs(approx).max()), 1e-8)
            worst = max(worst, float(np.abs(analytic - approx).max()) / denom)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 10.0
    verdict(capsys, 1, "gradient check", ok,
            f"max relative error {worst:.3g} (< 1e-4), {elapsed:.1f}s (< 10s)")


# --- criterion 2: exact rank tests match brute-force enumeration ------------


def midranks(values):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sv = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def wilcoxon_brute_force(samples, alternative):
    diffs = np.asarray(samples, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return 1.0
    ranks = midranks(np.abs(diffs))
    w_obs = float(ranks[diffs > 0].sum())
    n_ge = n_le = 0
    for signs in product((0, 1), repeat=n):
        w = float(sum(r for r, s in zip(ranks, signs) if s))
        n_ge += w >= w_obs
        n_le += w <= w_obs
    total = 2 ** n
    if alternative == "greater":
        return n_ge / total
    if alternative == "less":
        return n_le / total
    return min(1.0, 2.0 * min(n_ge / total, n_le / total))


def mwu_brute_force(a, b, alternative):
    pooled = np.concatenate([a, b])
    n_a = len(a)
    ranks = midranks(pooled)

    def u_stat(idx_a):
        return float(ranks[list(idx_a)].sum()) - n_a * (n_a + 1) / 2.0

    u_obs = u_stat(range(n_a))
    n_ge = n_le = n_total = 0
    for combo in combinations(range(pooled.size), n_a):
        u = u_stat(combo)
        n_total += 1
        n_ge += u >= u_obs
        n_le += u <= u_obs
    if alternative == "greater":
        return n_ge / n_total
    if alternative == "less":
        return n_le / n_total
    return min(1.0, 2.0 * min(n_ge / n_total, n_le / n_total))


def test_criterion_2_exact_test_oracles(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(1)
    alternatives = ("two-sided", "greater", "less")
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(1, 11))
        samples = rng.integers(-3, 4, size=n).astype(float) / 2.0
        alt = alternatives[trial % 3]
        got = wilcoxon_signed_rank(samples, alternative=alt)
        assert got.p_value == wilcoxon_brute_force(samples, alt), (samples, alt)
        checked += 1
    for trial in range(1000):
        n_a = int(rng.integers(1, 6))
        n_b = int(rng.integers(1, 11 - n_a))
        # continuous draws keep the pooled sample tie-free, where the
        # rank-subset enumeration is the exact null distribution
        a = rng.normal(size=n_a)
        b = rng.normal(size=n_b)
        alt = alternatives[trial % 3]
        got = mann_whitney_u(a, b, alternative=alt)
        assert got.p_value == mwu_brute_force(a, b, alt), (a, b, alt)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 2000 and elapsed < 60.0
    verdict(capsys, 2, "exact rank-test oracles", ok,
            f"{checked} fixtures matched enumeration exactly, {elapsed:.1f}s (< 60s)")


# --- criterion 3: ROC against a brute-force threshold sweep -----------------


def make_scores(values, labels):
    """A score array and the boolean member vector aligned with it (label 1 = member)."""
    return np.asarray(values, dtype=float), np.asarray(labels) == 1


def test_criterion_3_roc_oracle(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        # half the fixtures use a coarse grid to provoke score ties
        if trial % 2:
            values = rng.integers(0, 8, size=n).astype(float)
        else:
            values = rng.normal(size=n)
        n1 = int(labels.sum())
        n0 = n - n1
        points = {(0.0, 0.0)}
        for t in np.unique(values):
            admitted = values >= t
            points.add((
                float((admitted & (labels == 0)).sum() / n0),
                float((admitted & (labels == 1)).sum() / n1),
            ))
        roc = roc_curve(*make_scores(values, labels))
        got = {(float(f), float(t)) for f, t in zip(roc.fpr, roc.tpr)}
        assert got == points, trial
        for target in (0.0, 0.001, 0.05, 0.5):
            expected = max(t for f, t in points if f <= target + 1e-15)
            assert tpr_at_fpr(roc, target) == expected, (trial, target)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    verdict(capsys, 3, "ROC oracle", ok,
            f"100 fixtures matched the O(n^2) sweep exactly, {elapsed:.1f}s (< 30s)")


# --- criterion 4: random-guessing baseline is 2/N ---------------------------


def test_criterion_4_baseline_monte_carlo(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(3)
    details = []
    ok = True
    for n_members in (100, 859):
        # N is the expected member count; candidates outnumber members 3:2
        total = round(1.5 * n_members)
        tprs = []
        while len(tprs) < 10_000:
            y = rng.random(total) < 2.0 / 3.0
            n1 = int(y.sum())
            if n1 in (0, total):
                continue
            s = rng.normal(size=total)
            top_non = s[~y].max()
            tprs.append(float((s[y] > top_non).sum() / n1))
        mean = float(np.mean(tprs))
        expected = baseline_tpr(n_members)
        rel = abs(mean - expected) / expected
        ok = ok and rel < 0.10
        details.append(f"N={n_members}: mean {mean:.5f} vs 2/N {expected:.5f} (rel {rel:.3f})")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    verdict(capsys, 4, "2/N baseline", ok, "; ".join(details) + f", {elapsed:.1f}s (< 60s)")


# --- criterion 5: hand-computed attack fixtures -----------------------------


def test_criterion_5_hand_fixture_attacks(capsys):
    def sigmoid(x):
        return 1.0 / (1.0 + math.exp(-x))

    # (target logit, in logit, out logit): unit-variance Gaussian fits give
    # log-likelihood ratios 2, 0 and 4 in closed form
    logits = {"A": (0.0, 0.0, -2.0), "B": (0.0, 1.0, -1.0), "C": (1.0, 2.0, -2.0)}
    ids = ("A", "B", "C")
    target_confs = np.array([sigmoid(logits[i][0]) for i in ids])
    mask = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.uint8)
    values = np.empty((3, 2))
    for r, i in enumerate(ids):
        _, in_logit, out_logit = logits[i]
        values[r, mask[r].argmax()] = sigmoid(in_logit)
        values[r, 1 - mask[r].argmax()] = sigmoid(out_logit)

    # rows of every array follow ids
    lira = run_lira(target_confs, values, mask, LiraParams(variance_floor=1.0))
    lira_scores = dict(zip(ids, lira.scores.tolist()))
    expected_lira = {"A": 2.0, "B": 0.0, "C": 4.0}
    lira_ok = all(
        abs(lira_scores[i] - v) <= 1e-10 for i, v in expected_lira.items()
    )

    # RMIA counting fixture: candidate A gets target confidence 0.75 and
    # shadow confidences (0.5, 0.25), so its ratio is 0.75/0.375 = 2; with
    # gamma=2 it dominates exactly one of the two reference points (z
    # ratios 0.714 and 3.2, Pr(z) averaged over both shadows), scoring 0.5
    target_confs[ids.index("A")] = 0.75
    values[0] = [0.5, 0.25]
    z_shadow, z_target = np.array([[0.9, 0.5], [0.1, 0.4]]), np.array([0.5, 0.8])
    rmia = run_rmia(target_confs, values, z_shadow, z_target, RmiaParams(gamma=2.0))
    rmia_a = float(rmia.scores[ids.index("A")])
    rmia_ok = abs(rmia_a - 0.5) <= 1e-10

    ok = lira_ok and rmia_ok
    verdict(capsys, 5, "hand-fixture attacks", ok,
            f"LiRA scores {[round(lira_scores[i], 6) for i in ids]} vs (2, 0, 4) (tol 1e-10); "
            f"RMIA score {rmia_a} vs 0.5 (tol 1e-10)")


# --- criterion 6: positive control detects leakage --------------------------


def test_criterion_6_positive_control(capsys, positive_control):
    _, report = positive_control
    details = []
    ok = report["n_repetitions_completed"] == 5
    for name in ("lira", "rmia"):
        agg = report["attacks"][name]["tpr"]["0.0"]
        threshold = 5.0 * agg["baseline"]
        attack_ok = agg["median"] >= threshold and agg["p_value"] < 0.05
        ok = ok and attack_ok
        details.append(
            f"{name}: median TPR@0 {agg['median']:.4f} vs 5x baseline "
            f"{threshold:.4f}, p {agg['p_value']:.4g}"
        )
    verdict(capsys, 6, "leakage positive control", ok, "; ".join(details))


# --- criterion 7: null calibration ------------------------------------------


def _null_study_tprs(study, n_reps=5):
    """Attack TPR@FPR=0 when the target never saw any candidate.

    The target trains on its own split; the challenge candidates are all
    drawn from the held-out population, with artificial membership bits.
    """
    cfg = TrainConfig(hidden_dims=(8,), dropout_rate=0.0, learning_rate=1e-2,
                      weight_decay=0.0, batch_size=32, max_epochs=5, patience=5, seed=study)
    tprs = {"lira": [], "rmia": []}
    baselines = []
    for rep in range(n_reps):
        seed = 1000 * study + rep
        ds = synth_dataset(SynthSpec(n=400, dim=8, positive_fraction=0.4,
                                     separation=3.0, seed=seed))
        perm = np.random.default_rng(seed).permutation(400)  # train, validation and population: 30/10/60%
        trained = fit(ds.take(np.sort(perm[:120])), ds.take(np.sort(perm[120:160])),
                      replace(cfg, seed=seed, fixed_epochs=5))
        pop = np.sort(perm[160:])
        challenge = assign_membership(pop[:90], 2.0 / 3.0, seed=seed)
        candidates = np.sort(challenge.candidates)
        target_confs = predict_confidences(trained, ds.X[candidates], ds.y[candidates])
        is_member = np.isin(candidates, challenge.members)
        plan = draw_shadows(ds, pop, candidates, ShadowParams(count=4, epochs=3), seed)
        ensemble, _ = train_shadow_ensemble(ds, plan, replace(cfg, seed=seed), FitHelpers(0))
        values = collect_confidences(ensemble, ds.X[candidates], ds.y[candidates])
        tables = {
            "lira": run_lira(target_confs, values, ensemble.inclusion(candidates), LiraParams(global_variance=True)),
            "rmia": run_rmia(target_confs, values, *z_confidences(ds, ensemble, trained), RmiaParams(gamma=2.0)),
        }
        for name, table in tables.items():
            tprs[name].append(tpr_at_fpr(roc_curve(table.scores, is_member), 0.0))
        baselines.append(baseline_tpr(len(challenge.members)))
    return tprs, baselines


def test_criterion_7_null_calibration(capsys):
    n_studies = 20
    non_significant = 0
    for study in range(n_studies):
        tprs, baselines = _null_study_tprs(study)
        significant = False
        for name in ("lira", "rmia"):
            diffs = np.array(tprs[name]) - np.array(baselines)
            test = wilcoxon_signed_rank(diffs, alternative="greater")
            significant = significant or test.p_value < 0.05
        non_significant += not significant
    ok = non_significant >= 18
    verdict(capsys, 7, "null calibration", ok,
            f"{non_significant}/{n_studies} studies non-significant (need >= 18)")


# --- criterion 8: overlap machinery -----------------------------------------


def test_criterion_8_overlap_machinery(capsys):
    rng = np.random.default_rng(4)
    omega, size_a, size_b = 100, 10, 20
    trials = 100_000
    counts = np.empty(trials)
    done = 0
    while done < trials:
        m = min(10_000, trials - done)
        bool_a = np.zeros((m, omega), dtype=bool)
        bool_b = np.zeros((m, omega), dtype=bool)
        idx_a = np.argpartition(rng.random((m, omega)), size_a, axis=1)[:, :size_a]
        idx_b = np.argpartition(rng.random((m, omega)), size_b, axis=1)[:, :size_b]
        np.put_along_axis(bool_a, idx_a, True, axis=1)
        np.put_along_axis(bool_b, idx_b, True, axis=1)
        counts[done:done + m] = (bool_a & bool_b).sum(axis=1)
        done += m
    expected = hypergeom_expected(omega, size_b, size_a)
    se = float(counts.std(ddof=1)) / math.sqrt(trials)
    mc_ok = abs(float(counts.mean()) - expected) < 4.0 * se

    # independent random pairs at R=5: analysis should stay quiet
    universe = [f"m{i}" for i in range(omega)]
    pairs = []
    for _ in range(5):
        a = set(rng.choice(universe, size=size_a, replace=False))
        b = set(rng.choice(universe, size=size_b, replace=False))
        pairs.append((a, b))
    random_result = overlap_analysis(pairs, omega_sizes=[omega] * 5)
    random_ok = random_result.p_value >= 0.05

    # forced identical sets at R=5: maximal overlap, significant
    same = set(universe[:size_a])
    forced = overlap_analysis([(same, set(same))] * 5, omega_sizes=[omega] * 5)
    forced_ok = forced.observed_mean == 1.0 and forced.p_value < 0.05

    ok = mc_ok and random_ok and forced_ok
    verdict(capsys, 8, "overlap machinery", ok,
            f"MC mean {counts.mean():.4f} vs expected {expected:.4f} (4SE {4 * se:.4f}); "
            f"random pairs p {random_result.p_value:.3f}; "
            f"identical sets overlap {forced.observed_mean} p {forced.p_value:.4g}")


# --- criterion 9: minority enrichment ---------------------------------------


def test_criterion_9_minority_enrichment(capsys, minority_control):
    cfg, report = minority_control
    ds = synth_dataset(cfg.synth)
    labels = dict(zip(ds.ids, ds.y.tolist()))

    enriched = 0
    reps = report["repetitions"]
    challenges = [Path(cfg.output_dir) / f"rep_{rep['rep']:03d}" / "challenge.json" for rep in reps]
    member_sets = [set(json.loads(path.read_text(encoding="utf-8"))["member_ids"]) for path in challenges]
    for rep, members in zip(reps, member_sets):
        dataset_minority = sum(labels[i] for i in members) / len(members)
        ident = rep.get("combined_identified_fpr0", [])
        if ident:
            minority_fraction = sum(labels[i] for i in ident) / len(ident)
            enriched += minority_fraction > dataset_minority
    majority_ok = enriched > len(reps) / 2

    # the per-attack label analysis must exercise the rank test end to end
    mwu_ok = any(
        "p_value" in (report["attacks"][name].get("label_analysis") or {})
        for name in ("lira", "rmia")
    )
    # and the analysis entry point itself, on the per-repetition sets
    ident_sets = [set(r.get("combined_identified_fpr0", [])) for r in reps]
    direct = characteristic_analysis(ident_sets, member_sets, labels, mode="label")
    direct_ok = 0.0 <= direct.test.p_value <= 1.0

    ok = majority_ok and mwu_ok and direct_ok
    verdict(capsys, 9, "minority enrichment", ok,
            f"{enriched}/{len(reps)} repetitions enriched above the dataset "
            f"minority fraction; pooled identified positive fraction "
            f"{direct.identified_summary:.3f} vs rest {direct.rest_summary:.3f}")


# --- criterion 10: attack combination grows the identified set --------------


def test_criterion_10_union_identified_sets(capsys, positive_control):
    _, report = positive_control
    reps = report["repetitions"]
    ge_everywhere = True
    strict_somewhere = False
    sizes = []
    for rep in reps:
        a = set(rep["attacks"]["lira"]["identified"]["0.0"])
        b = set(rep["attacks"]["rmia"]["identified"]["0.0"])
        union = a | b
        ge_everywhere = ge_everywhere and len(union) >= max(len(a), len(b))
        strict_somewhere = strict_somewhere or len(union) > max(len(a), len(b))
        sizes.append((len(a), len(b), len(union)))
    ok = ge_everywhere and strict_somewhere
    verdict(capsys, 10, "attack combination", ok,
            f"(lira, rmia, union) sizes per repetition: {sizes}")


# --- criterion 11: byte-identical re-run ------------------------------------


def test_criterion_11_determinism(capsys, positive_control, tmp_path):
    first_dir, _ = positive_control
    cfg = replace(POSITIVE_CONTROL, output_dir=str(tmp_path / "rerun"))
    run_experiment(cfg)

    mismatches = []
    files = ["report.json"] + [
        f"rep_{rep:03d}/scores_{name}.csv"
        for rep in range(POSITIVE_CONTROL.repetitions)
        for name in ("lira", "rmia")
    ]
    for rel in files:
        a = (first_dir / rel).read_bytes()
        b = (tmp_path / "rerun" / rel).read_bytes()
        if a != b:
            mismatches.append(rel)
    ok = not mismatches
    verdict(capsys, 11, "byte-identical re-run", ok,
            f"{len(files)} files compared, mismatches: {mismatches or 'none'}")
