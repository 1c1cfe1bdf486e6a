"""The measured side of one benchmark run, in a process of its own.

    python3 perfbench/worker.py CONFIG --seconds S --trace 0|1 [--expect-leak] [--spans PATH]
    python3 perfbench/worker.py CONFIG --setup-only

Set-up is what a user's `leakaudit run` does before its first
repetition: import leakaudit, validate the config and load the CSV. The
worker prints ``ready`` when set-up is done, so the parent can time it
from process start. It then audits the config's dataset for about ``S``
seconds (``run_experiment`` on a fresh output directory, followed by
``rerun_attacks``), audit ``i`` with ``run.seed`` set to
``1000 * seed + i``, checks every output, and prints one JSON line of raw
samples. It always completes the first ``POWER_AUDITS`` audits: their
repetitions give the audit-power figures and the leak check, so those do
not depend on how many audits fit in the time. With ``--trace 1`` each
audit runs twice, untraced and then traced with spans recorded around
leakaudit's public functions, so that the two times compare equal work.
Every timing is taken between two host-speed probes and kept both as
wall seconds and scaled to reference speed (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leakaudit import config, data, pipeline  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

REATTACK_SHARE = 0.25
POWER_AUDITS = 5


def audit_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def audit_once(cfg_path: str, cfg, tracer: spans.Tracer | None, reattack_share: float) -> dict:
    """One audit plus re-attacks on a fresh output directory, checked and timed."""
    out_dir = Path(cfg.output_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    sample: dict = {"traced": tracer is not None, "checks": []}
    if tracer is not None:
        spans.install(tracer)
    try:
        if tracer is not None:
            # the set-up calls, so that their layers show in the trace too
            config.validate_config(cfg_path)
            data.load_dataset(cfg.dataset_path)
        before = hostspeed.probe()
        t0 = time.perf_counter()
        report = pipeline.run_experiment(cfg)
        wall = time.perf_counter() - t0
        after = hostspeed.probe()
        sample["audit_wall_s"] = wall
        sample["audit_s"] = hostspeed.scale(wall, before, after)

        sample["artifact_mb"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) / 1e6
        sample["checks"] += checks.check_audit(out_dir, report, cfg.repetitions)
        sample["auc"] = {a: [] for a in checks.ATTACKS}
        for path in checks.score_files(out_dir, cfg.repetitions):
            _, scores, members = checks.read_scores(path)
            sample["auc"][path.stem.removeprefix("scores_")].append(metrics.auroc(scores, members))
        sample["fpr0"] = checks.fpr0_per_rep(report)
        # re-attacks are short next to an audit on the training workloads, so
        # they repeat until they take a quarter of the audit's time; a traced
        # run re-attacks once per audit, as the layer metrics assume
        audit_scores = checks.snapshot(checks.score_files(out_dir, cfg.repetitions))
        walls: list[float] = []
        start = hostspeed.probe()
        while not walls or sum(walls) < reattack_share * wall:
            t0 = time.perf_counter()
            pipeline.rerun_attacks(cfg)
            walls.append(time.perf_counter() - t0)
            sample["checks"] += checks.check_reproduced(audit_scores)
        end = hostspeed.probe()
        sample["reattack_wall_s"] = walls
        sample["reattack_s"] = [hostspeed.scale(w, start, end) for w in walls]
    except Exception:  # noqa: BLE001 - a crashed audit is a failed operation
        sample["checks"].append(checks.Check("audit_raised", False, traceback.format_exc()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return sample


def fixed_figures(samples: list[dict], expect_leak: bool) -> tuple[dict, list[checks.Check]]:
    """Artifact size, audit power and the leak check over the given (untraced) audits.

    Given the first POWER_AUDITS audits, which every run completes, these
    repeat exactly for a seed. The AUCs are means over repetitions, which
    vary less from seed to seed than medians. An audit that raised has no
    figures; its own failed check already counts.
    """
    done = [s for s in samples if "auc" in s]
    figures = {f"{a}_auc": math.fsum(v) / len(v)
               for a in checks.ATTACKS if (v := [x for s in done for x in s["auc"][a]])}
    if done:
        figures["artifact_mb"] = statistics.median(s["artifact_mb"] for s in done)
    leak = []
    if expect_leak:
        per_rep = {a: [t for s in done for t in s["fpr0"].get(a, [])] for a in checks.ATTACKS}
        baselines = [b for s in done for b in s["fpr0"].get("baseline", [])]
        leak = [checks.check_leak(per_rep[a], baselines, a) for a in checks.ATTACKS]
    return figures, leak


def measure(cfg_path: str, cfg, seconds: float, trace: bool, expect_leak: bool,
            spans_path: str | None) -> dict:
    samples: list[dict] = []
    durations: list[float] = []
    layer_runs: list[dict] = []
    span_records: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = len(durations)
        audit_cfg = replace(cfg, seed=audit_seed(cfg.seed, index))
        samples.append({"audit": index, **audit_once(cfg_path, audit_cfg, None,
                                                      0.0 if trace else REATTACK_SHARE)})
        if trace:
            tracer = spans.Tracer()
            samples.append({"audit": index, **audit_once(cfg_path, audit_cfg, tracer, 0.0)})
            spans.annotate(tracer.spans)
            layer_runs.append(metrics.layer_metrics(tracer.spans))
            span_records += [{"audit": index, **asdict(s)} for s in tracer.spans]
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= POWER_AUDITS and elapsed + statistics.median(durations) > seconds:
            break
    measured_s = time.perf_counter() - start
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    figures, leak = fixed_figures([s for s in samples if not s["traced"] and s["audit"] < POWER_AUDITS],
                          expect_leak)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in span_records)
    return {
        "samples": [{**s, "checks": [asdict(c) for c in s["checks"]]} for s in samples],
        "fixed": figures,
        "fixed_checks": [asdict(c) for c in leak],
        "layers": layer_runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_s": measured_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-leak", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    cfg = config.validate_config(args.config)
    data.load_dataset(cfg.dataset_path)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(args.config, cfg, args.seconds, bool(args.trace), args.expect_leak, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
