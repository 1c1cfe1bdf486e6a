"""Workload definitions and the per-layer -> end-to-end map.

Each workload is a synthetic dataset spec plus the ``key = value`` config
lines that `leakaudit run` would read. The benchmark's seed feeds both the
data generator and ``run.seed``, so one seed fixes every input.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    dim: int
    positive_fraction: float
    separation: float
    config: dict[str, str] = field(default_factory=dict)
    # positive_control only: both attacks' median TPR at FPR 0 must beat 2/N
    expect_leak: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="positive_control",
            why=(
                "The acceptance suite's leakage control: a 32-unit MLP trained 200 fixed epochs with "
                "10 shadows, so about 19k tiny AdamW steps per audit make fit most of it."
            ),
            n=1500, dim=64, positive_fraction=0.2, separation=4.0,
            config={
                "train.hidden_dims": "32",
                "train.dropout": "0.0",
                "train.weight_decay": "0.0",
                "train.learning_rate": "3e-4",
                "train.max_epochs": "200",
                "train.fixed_epochs": "200",
                "shadow.count": "10",
                "shadow.inclusion_rate": "0.5",
                "shadow.epochs": "200",
                "shadow.z_fraction": "0.5",
                "attack.lira.global_variance": "true",
                "attack.rmia.gamma": "2.0",
                "run.fpr_targets": "0.0, 0.001",
            },
            expect_leak=True,
        ),
        Workload(
            name="wide_challenge",
            why=(
                "About 8k candidates and 2.7k Z points with cheap training (8 units, 2 epochs, K=16): "
                "attacks, data handling and artifact I/O dominate."
            ),
            n=12000, dim=16, positive_fraction=0.3, separation=2.0,
            config={
                "train.hidden_dims": "8",
                "train.max_epochs": "2",
                "train.fixed_epochs": "2",
                "shadow.count": "16",
                "shadow.epochs": "2",
                "shadow.z_fraction": "0.5",
            },
        ),
    )
}

# metric name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "nnet.fit_s": ("s", "lower", "audit_s on positive_control; barely on wide_challenge"),
    "nnet.fit_calls": ("count", "lower", "audit_s on positive_control"),
    "nnet.epochs": ("count", "lower", "audit_s on positive_control"),
    "nnet.steps": ("count", "lower", "audit_s on positive_control"),
    "nnet.step_us": ("us", "lower", "audit_s on positive_control"),
    "nnet.predict_s": ("s", "lower", "reattack_s on every workload; audit_s slightly"),
    "nnet.predict_rows": ("count", "lower", "reattack_s on every workload; audit_s slightly"),
    "nnet.save_model_s": ("s", "lower", "audit_s slightly"),
    "nnet.load_model_s": ("s", "lower", "reattack_s on every workload"),
    "game.run_game_self_s": ("s", "lower", "audit_s on wide_challenge"),
    "game.train_shadow_ensemble_self_s": ("s", "lower", "audit_s on wide_challenge"),
    "game.collect_confidences_s": ("s", "lower", "audit_s and reattack_s on wide_challenge"),
    "game.collect_confidences_rows": ("count", "lower", "audit_s and reattack_s on wide_challenge"),
    "game.save_manifest_s": ("s", "lower", "audit_s on wide_challenge"),
    "game.manifest_bytes": ("bytes", "lower", "artifact_mb on wide_challenge"),
    "attacks.run_lira_s": ("s", "lower", "reattack_s and audit_s on wide_challenge; barely on training workloads"),
    "attacks.run_rmia_s": ("s", "lower", "reattack_s and audit_s on wide_challenge; barely on training workloads"),
    "attacks.candidates": ("count", "higher", "reattack_s and audit_s on wide_challenge"),
    "attacks.fallback_ratio": ("ratio", "lower", "lira_auc and rmia_auc where shadows are few"),
    "attacks.save_scores_s": ("s", "lower", "audit_s and reattack_s on wide_challenge"),
    "stats.fit_gaussian_calls": ("count", "lower", "reattack_s on wide_challenge (drops once LiRA is vectorized)"),
    "stats.wilcoxon_s": ("s", "lower", "audit_s (report aggregation)"),
    "stats.mann_whitney_s": ("s", "lower", "audit_s on wide_challenge"),
    "evaluation.roc_curve_s": ("s", "lower", "audit_s on wide_challenge"),
    "evaluation.roc_curve_calls": ("count", "lower", "audit_s on wide_challenge"),
    "evaluation.roc_curves_per_table": ("ratio", "lower", "audit_s on wide_challenge (ideally 1)"),
    "evaluation.analyses_s": ("s", "lower", "audit_s on wide_challenge"),
    "data.load_dataset_s": ("s", "lower", "setup_s everywhere; audit_s and reattack_s on wide_challenge"),
    "data.load_rows_per_s": ("1/s", "higher", "setup_s everywhere"),
    "data.subset_s": ("s", "lower", "audit_s and reattack_s on wide_challenge"),
    "data.subset_calls": ("count", "lower", "audit_s and reattack_s on wide_challenge"),
    "data.features_array_s": ("s", "lower", "audit_s and reattack_s on wide_challenge"),
    "data.features_array_calls": ("count", "lower", "audit_s and reattack_s on wide_challenge"),
    "pipeline.run_experiment_self_s": ("s", "lower", "audit_s and artifact_mb"),
    "pipeline.rerun_attacks_self_s": ("s", "lower", "reattack_s"),
    "pipeline.report_render_s": ("s", "lower", "audit_s and artifact_mb"),
    "config.validate_config_s": ("s", "lower", "setup_s"),
    "trace.overhead_ratio": ("ratio", "lower", "none; qualifies the per-layer numbers"),
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "audit_s": ("s", "lower"),
    "reattack_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "artifact_mb": ("MB", "lower"),
    "lira_auc": ("ratio", "higher"),
    "rmia_auc": ("ratio", "higher"),
}


def config_text(workload: Workload, csv_path: str, output_dir: str, seed: int) -> str:
    # one repetition per audit: a run times several short audits, and takes
    # audit power over the repetitions of its first few
    lines = [f"data.path = {csv_path}"]
    lines += [f"{k} = {v}" for k, v in workload.config.items()]
    lines += [
        "run.repetitions = 1",
        f"run.seed = {seed}",
        f"run.output_dir = {output_dir}",
    ]
    return "\n".join(lines) + "\n"
