"""leakaudit benchmark: one audit workload per run, timed from outside.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. The seed generates the workload's CSV and the audits'
``run.seed``. The run then times set-up in several fresh processes, and
times audits (``run_experiment``) and re-attacks (``rerun_attacks``) in
one more process for about S seconds, checking every output (see
worker.py). Times are scaled to a reference host speed (see
hostspeed.py) and reported as medians. It prints each metric with its
unit, sample count, median, tail and, for times, the median wall
seconds, then the check verdicts and the environment, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
Scratch files live under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from metrics import tail_percentile
from workloads import END_TO_END, LAYER_METRICS, WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }
    env.update({var: os.environ.get(var, "unset") for var in THREAD_VARS})
    env["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return env


def make_inputs(workload, seed: int, work: Path) -> Path:
    """Write the workload's CSV and config; return the config path relative to ROOT."""
    from leakaudit.data import save_dataset
    from leakaudit.synth import SynthSpec, synth_dataset

    spec = SynthSpec(n=workload.n, dim=workload.dim, positive_fraction=workload.positive_fraction,
                     separation=workload.separation, seed=seed)
    rel = work.relative_to(ROOT)
    save_dataset(synth_dataset(spec), work / "data.csv")
    (work / "audit.cfg").write_text(
        config_text(workload, str(rel / "data.csv"), str(rel / "out"), seed), encoding="utf-8")
    return rel / "audit.cfg"


def spawn_worker(args: list[str]) -> tuple[float, str]:
    """Run the worker; return (seconds from spawn until it printed ``ready``, rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, rest


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        cfg = str(make_inputs(workload, seed, work))
        probes = [hostspeed.probe()]
        setup_wall = []
        for _ in range(SETUP_PROBES):
            setup_wall.append(spawn_worker([cfg, "--setup-only"])[0])
            probes.append(hostspeed.probe())
        setup = [hostspeed.scale(w, a, b) for w, a, b in zip(setup_wall, probes, probes[1:])]
        args = [cfg, "--seconds", str(seconds), "--trace", str(int(trace))]
        if workload.expect_leak:
            args.append("--expect-leak")
        if trace:
            args += ["--spans", str((WORK / f"spans-{name}-{seed}.jsonl").relative_to(ROOT))]
        out = spawn_worker(args)[1]
        raw = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, seed, trace, setup, setup_wall, raw)


def overhead_ratios(samples: list[dict]) -> list[float]:
    """Traced over untraced audit time, minus one, per audit that ran both ways."""
    times: dict[int, dict[bool, float]] = {}
    for s in samples:
        if "audit_s" in s:
            times.setdefault(s["audit"], {})[s["traced"]] = s["audit_s"]
    return [t[True] / t[False] - 1.0 for t in times.values() if len(t) == 2]


def summarize(name: str, seed: int, trace: bool, setup: list[float], setup_wall: list[float],
              raw: dict) -> dict:
    samples = raw["samples"]
    checks = [c for s in samples for c in s["checks"]] + raw["fixed_checks"]
    untraced = [s for s in samples if not s["traced"]]

    def series(key):
        return [s[key] for s in untraced if key in s]

    wall = {}
    if trace:
        values = {k: [run[k] for run in raw["layers"]] for k in LAYER_METRICS if k != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = overhead_ratios(samples)
        units = {k: unit for k, (unit, _, _) in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": setup,
            "audit_s": series("audit_s"),
            "reattack_s": [t for ts in series("reattack_s") for t in ts],
            "peak_rss_mb": [raw["peak_rss_mb"]],
            **{k: [raw["fixed"][k]] for k in ("artifact_mb", "lira_auc", "rmia_auc") if k in raw["fixed"]},
        }
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
        wall = {
            "setup_s": setup_wall,
            "audit_s": series("audit_wall_s"),
            "reattack_s": [t for ts in series("reattack_wall_s") for t in ts],
        }
    failed = sum(1 for c in checks if not c["ok"])
    missing = [k for k in units if not values.get(k)]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(),
        "iterations": len(samples),
        "measured_s": raw["measured_s"],
        "checks": checks,
        "samples": values,
        "wall_samples": wall,
        "result": {
            "correct": failed == 0 and not missing,
            "attempted": len(checks),
            "failed": failed,
            "metrics": {k: {"value": statistics.median(values[k]), "unit": units[k]}
                        for k in units if k not in missing},
        },
    }


def render(summary: dict) -> str:
    res = summary["result"]
    lines = [
        f"workload {summary['workload']}  seed {summary['seed']}  trace {summary['trace']}  "
        f"iterations {summary['iterations']}  measured {summary['measured_s']:.1f} s",
        "env " + json.dumps(summary["env"], sort_keys=True),
        f"{'metric':36} {'unit':6} {'n':>3} {'median':>12}  tail (>=10 samples beyond)",
    ]
    for name, m in res["metrics"].items():
        values = summary["samples"][name]
        tail = tail_percentile(values)
        tail_txt = f"p{tail[0]:.0f} = {tail[1]:.6g}" if tail else f"n/a, {len(values)} < 11 samples"
        if name in summary["wall_samples"]:
            tail_txt += f"  (wall median {statistics.median(summary['wall_samples'][name]):.6g})"
        moves = f"  moves: {LAYER_METRICS[name][2]}" if name in LAYER_METRICS else ""
        lines.append(f"{name:36} {m['unit']:6} {len(values):>3} {m['value']:>12.6g}  {tail_txt}{moves}")
    verdicts: dict[str, list[int]] = {}
    for c in summary["checks"]:
        kind = c["name"].split(":")[0]
        tally = verdicts.setdefault(kind, [0, 0])
        tally[0] += 1
        tally[1] += 0 if c["ok"] else 1
    lines.append(f"checks: {res['attempted']} attempted, {res['failed']} failed")
    for kind, (n, bad) in verdicts.items():
        lines.append(f"  {'FAIL' if bad else 'PASS'} {kind}: {n - bad}/{n}")
    lines += [f"  FAIL {c['name']}: {c['detail']}" for c in summary["checks"] if not c["ok"]]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leakaudit" / "__init__.py").is_file():
        print(f"error: no leakaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (WORK / f"result-{name}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1), encoding="utf-8")
        print(render(summary))
        print(json.dumps(summary["result"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
