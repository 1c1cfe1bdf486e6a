"""Correctness checks on an audit's output directory.

Each check is one operation: it passes or fails, and a failure is never
skipped or retried. The checks read only the files a run leaves behind,
so a tampered file fails them the same way a faulty program would.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

ATTACKS = ("lira", "rmia")
FPR0_KEY = "0.0"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def rep_dirs(out_dir: Path, repetitions: int) -> list[Path]:
    return [Path(out_dir) / f"rep_{rep:03d}" for rep in range(repetitions)]


def read_scores(path: Path) -> tuple[list[str], list[float], list[int]]:
    ids, scores, members = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ids.append(row["id"])
            scores.append(float(row["score"]))
            members.append(int(row["is_member"]))
    return ids, scores, members


def check_repetitions(report: dict, repetitions: int) -> Check:
    done = report.get("n_repetitions_completed")
    errors = report.get("errors") or {}
    return Check("repetitions_completed", done == repetitions and not errors,
                 f"{done}/{repetitions} completed, errors: {errors or 'none'}")


def check_scores(path: Path, challenge_path: Path) -> Check:
    """Every candidate has exactly one finite score and its true membership bit."""
    name = f"scores_complete:{path.parent.name}/{path.name}"
    try:
        with open(challenge_path, encoding="utf-8") as fh:
            challenge = json.load(fh)
        ids, scores, members = read_scores(path)
    except (OSError, ValueError, KeyError) as exc:
        return Check(name, False, f"unreadable: {exc}")
    expected = {i: 1 for i in challenge["member_ids"]}
    expected.update({i: 0 for i in challenge["nonmember_ids"]})
    got = dict(zip(ids, members))
    problems = []
    if len(ids) != len(got):
        problems.append(f"{len(ids) - len(got)} duplicate ids")
    if got != expected:
        missing = len(expected.keys() - got.keys())
        extra = len(got.keys() - expected.keys())
        wrong = sum(1 for i in expected.keys() & got.keys() if expected[i] != got[i])
        problems.append(f"{missing} missing, {extra} extra, {wrong} wrong membership bits")
    bad = sum(1 for s in scores if not math.isfinite(s))
    if bad:
        problems.append(f"{bad} non-finite scores")
    return Check(name, not problems, "; ".join(problems) or f"{len(ids)} candidates")


def check_roc(path: Path) -> Check:
    """FPR and TPR never decrease along the threshold sweep."""
    name = f"roc_monotone:{path.parent.name}/{path.name}"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(float(r["fpr"]), float(r["tpr"])) for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError) as exc:
        return Check(name, False, f"unreadable: {exc}")
    drops = sum(1 for (f0, t0), (f1, t1) in zip(rows, rows[1:]) if f1 < f0 or t1 < t0)
    ok = bool(rows) and drops == 0
    return Check(name, ok, f"{len(rows)} points, {drops} decreasing steps")


def fpr0_per_rep(report: dict) -> dict[str, list[float]]:
    """Each attack's per-repetition TPR at FPR 0 and the 2/N baselines, as the report holds them."""
    out = {"baseline": [r["baseline_tpr"] for r in report.get("repetitions", [])]}
    for attack in ATTACKS:
        tpr = report.get("attacks", {}).get(attack, {}).get("tpr", {})
        if FPR0_KEY in tpr:
            out[attack] = tpr[FPR0_KEY]["per_rep"]
    return out


def check_leak(tprs: list[float], baselines: list[float], attack: str) -> Check:
    """Median TPR at FPR 0 over repetitions is strictly above the mean 2/N random baseline."""
    name = f"beats_baseline:{attack}"
    if not tprs or not baselines:
        return Check(name, False, "no TPR at FPR 0 in the reports")
    median, baseline = statistics.median(tprs), statistics.fmean(baselines)
    return Check(name, median > baseline,
                 f"median TPR {median:.5f} over {len(tprs)} repetitions vs baseline {baseline:.5f}")


def check_audit(out_dir: Path, report: dict, repetitions: int) -> list[Check]:
    checks = [check_repetitions(report, repetitions)]
    for rep_dir in rep_dirs(out_dir, repetitions):
        for attack in ATTACKS:
            checks.append(check_scores(rep_dir / f"scores_{attack}.csv", rep_dir / "challenge.json"))
            checks.append(check_roc(rep_dir / f"roc_{attack}.csv"))
    return checks


def score_files(out_dir: Path, repetitions: int) -> list[Path]:
    return [d / f"scores_{a}.csv" for d in rep_dirs(out_dir, repetitions) for a in ATTACKS]


def snapshot(paths: list[Path]) -> dict[Path, bytes | None]:
    return {p: p.read_bytes() if p.is_file() else None for p in paths}


def check_reproduced(before: dict[Path, bytes | None]) -> list[Check]:
    """A re-attack rewrote every score file byte for byte."""
    out = []
    for path, old in before.items():
        new = path.read_bytes() if path.is_file() else None
        ok = old is not None and new == old
        out.append(Check(f"reattack_identical:{path.parent.name}/{path.name}", ok,
                         "identical" if ok else "differs from the audit's file"))
    return out
