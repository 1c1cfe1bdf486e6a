"""In-memory spans around calls into leakaudit's public functions.

The tracer replaces the names that calling modules bind (for example
``leakaudit.pipeline.run_game``) with wrappers that record a span per
call, and puts the originals back on ``uninstall``. Spans nest by call
stack; a span's self time is its duration minus the part of it that its
direct children cover.
"""

from __future__ import annotations

import functools
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rep: int | None = None
    shadow: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` recording a span; ``attrs(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for k in sorted(kids, key=lambda c: c.start):
            lo, hi = max(k.start, cursor), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


_REP_DIR = re.compile(r"rep_(\d+)$")
_SHADOW_FILE = re.compile(r"shadow_(\d+)\.npz$")
_PER_SHADOW_PARENTS = ("game.train_shadow_ensemble", "game.collect_confidences")


def annotate(spans: list[Span]) -> None:
    """Fill each span's repetition and shadow index.

    In an audit a repetition starts with each ``game.run_game``; in a
    re-attack it is read from the ``rep_NNN`` directory of the checkpoints
    being loaded. A ``fit`` or ``predict_confidences`` directly under the
    shadow ensemble is numbered by its position among its siblings;
    checkpoint files name their shadow.
    """
    rep = None
    sibling_count: dict[tuple[int, str], int] = {}
    for s in spans:
        if s.name in ("pipeline.run_experiment", "pipeline.rerun_attacks"):
            rep = None
        elif s.name == "game.run_game":
            rep = 0 if rep is None else rep + 1
        path = s.attrs.get("path")
        if path is not None:
            m = _REP_DIR.search(Path(path).parent.name)
            if m:
                rep = int(m.group(1))
            m = _SHADOW_FILE.search(Path(path).name)
            if m:
                s.shadow = int(m.group(1))
        s.rep = rep
        if s.parent is not None and spans[s.parent].name in _PER_SHADOW_PARENTS:
            key = (s.parent, s.name)
            s.shadow = sibling_count.get(key, 0)
            sibling_count[key] = s.shadow + 1


def install(tracer: Tracer) -> None:
    """Wrap every public leakaudit function the audit and re-attack paths call."""
    from leakaudit import attacks, config, data, evaluation, game, nnet, pipeline

    def rows_of(arg_index):
        return lambda a, kw, r: {"rows": len(a[arg_index])}

    def path_of(arg_index):
        return lambda a, kw, r: {"path": str(a[arg_index])}

    def fit_counts(a, kw, r):
        d_train, cfg = a[0], a[2]
        epochs = len(r.train_losses)
        return {"epochs": epochs, "steps": epochs * math.ceil(len(d_train) / cfg.batch_size)}

    def table_counts(a, kw, r):
        return {"candidates": len(r.scores), "flagged": len(r.flags)}

    def manifest_counts(a, kw, r):
        return {"path": str(a[1]), "bytes": Path(a[1]).stat().st_size}

    # config and data are also called by the benchmark's own set-up
    tracer.patch(config, "validate_config", "config.validate_config")
    tracer.patch(data, "load_dataset", "data.load_dataset", lambda a, kw, r: {"rows": len(r)})
    tracer.patch(pipeline, "load_dataset", "data.load_dataset", lambda a, kw, r: {"rows": len(r)})
    tracer.patch(data.Dataset, "subset", "data.subset")
    tracer.patch(data.Dataset, "features_array", "data.features_array")

    tracer.patch(game, "fit", "nnet.fit", fit_counts)
    for mod in (game, attacks, pipeline):
        tracer.patch(mod, "predict_confidences", "nnet.predict_confidences", rows_of(1))
    tracer.patch(pipeline, "save_model", "nnet.save_model", path_of(1))
    tracer.patch(pipeline, "load_model", "nnet.load_model", path_of(0))

    tracer.patch(pipeline, "run_game", "game.run_game")
    tracer.patch(pipeline, "train_shadow_ensemble", "game.train_shadow_ensemble")
    for mod in (pipeline, attacks):
        tracer.patch(mod, "collect_confidences", "game.collect_confidences", rows_of(1))
    tracer.patch(pipeline, "save_manifest", "game.save_manifest", manifest_counts)

    tracer.patch(pipeline, "run_lira", "attacks.run_lira", table_counts)
    tracer.patch(pipeline, "run_rmia", "attacks.run_rmia", table_counts)
    tracer.patch(pipeline, "save_scores", "attacks.save_scores", path_of(1))

    tracer.patch(attacks, "fit_gaussian", "stats.fit_gaussian")
    for mod in (pipeline, evaluation):
        tracer.patch(mod, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank")
    tracer.patch(evaluation, "mann_whitney_u", "stats.mann_whitney_u")

    for mod in (pipeline, evaluation):
        tracer.patch(mod, "roc_curve", "evaluation.roc_curve")
    for fn in ("minority_tpr", "overlap_analysis", "characteristic_analysis", "auroc"):
        tracer.patch(pipeline, fn, f"evaluation.{fn}")

    tracer.patch(pipeline, "run_experiment", "pipeline.run_experiment")
    tracer.patch(pipeline, "rerun_attacks", "pipeline.rerun_attacks")
    tracer.patch(pipeline, "report_render", "pipeline.report_render")
