"""Outside-in tracing of cluster_mlp.

The tracer replaces each public function of the program's modules with a
wrapper, at every module attribute a caller looks it up through (for
example `constructor.holdout_split`, `clustering.lloyd` and
`mlp.loss_and_gradient`), plus `Dataset.take`. Each call becomes one span:
name, start, end, parent span and sample id. Spans stay in memory until the
run ends; `layer_metrics` turns them into per-layer self times and counts.
No file of the program is changed.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("dataset", "clustering", "mlp", "metrics", "constructor", "cli")

# Private functions that a per-layer metric is defined on.
PRIVATE_WRAPPED = frozenset({"_split_candidates", "_write_report"})

PREP = ("filter_labeled", "clean_sentinels", "holdout_split", "fit_normalization", "apply_normalization")

# Span fields, in the order they are stored.
NAME, START, END, PARENT, SAMPLE, EXTRA = range(6)


def _xmeans_extra(args, kwargs, result) -> dict:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    # Every accepted split adds exactly one cluster to the kmin start.
    return {"accepted": result.k - cfg.kmin}


def _lloyd_extra(args, kwargs, result) -> dict:
    # The WCSS history has one entry per iteration plus the final assignment.
    return {"iters": len(result[2]) - 1}


def _lbfgs_extra(args, kwargs, result) -> dict:
    report = result[1]
    return {"iters": report.iterations, "converged": int(report.converged)}


EXTRAS = {
    "clustering.xmeans": _xmeans_extra,
    "clustering.lloyd": _lloyd_extra,
    "mlp.lbfgs_minimize": _lbfgs_extra,
}


class Tracer:
    """Records spans while installed. `sample` tags the spans of one
    user-level call."""

    def __init__(self):
        self.spans: list[list] = []
        self.sample = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.sample, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][EXTRA] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, fn) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # Only loaded modules can be called; importing the others here would
        # put their import time inside the traced call.
        for module in filter(None, (sys.modules.get(f"cluster_mlp.{layer}") for layer in LAYERS)):
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or not value.__module__.startswith("cluster_mlp."):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_WRAPPED:
                    continue
                name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                self._patch(module, attr, self._wrap(name, value))
        dataset = sys.modules["cluster_mlp.dataset"]
        self._patch(dataset.Dataset, "take", self._wrap("dataset.take", dataset.Dataset.take))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, sample: int):
        self.sample = sample
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")

    def load(self, path, sample: int) -> None:
        """Appends spans written by `dump` in another process, re-tagged
        with `sample` and with parent indices shifted to this tracer."""
        offset = len(self.spans)
        for name, start, end, parent, _, extra in json.loads(Path(path).read_text(encoding="utf-8")):
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, sample, extra])


def _sample_metrics(spans: list[tuple[list, float]], wall_s: float) -> dict[str, float]:
    """Per-layer figures for one sample, from (span, self seconds) pairs."""
    total = defaultdict(float)  # inclusive seconds per span name
    calls = defaultdict(int)
    own = defaultdict(float)  # self seconds per span name
    extra = defaultdict(int)
    for s, self_s in spans:
        name = s[NAME]
        total[name] += s[END] - s[START]
        calls[name] += 1
        own[name] += self_s
        for key, value in (s[EXTRA] or {}).items():
            extra[f"{name}.{key}"] += value

    def layer_self(layer: str, skip: tuple[str, ...] = ()) -> float:
        return sum(v for k, v in own.items() if k.split(".", 1)[0] == layer and k not in skip)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    lloyd_iters = extra["clustering.lloyd.iters"]
    lbfgs_iters = extra["mlp.lbfgs_minimize.iters"]
    objective_calls = calls["mlp.loss_and_gradient"]
    split_attempts = calls["clustering._split_candidates"]
    return {
        "dataset.load_csv_s": total["dataset.load_csv"],
        "dataset.prep_s": sum(total[f"dataset.{f}"] for f in PREP),
        "dataset.take_s": total["dataset.take"],
        "dataset.take_calls": calls["dataset.take"],
        "dataset.self_s": layer_self("dataset"),
        "clustering.xmeans_s": total["clustering.xmeans"],
        "clustering.kmeans_s": total["clustering.kmeans"],
        "clustering.lloyd_calls": calls["clustering.lloyd"],
        "clustering.lloyd_iters": lloyd_iters,
        "clustering.lloyd_ms_per_iter": ratio(total["clustering.lloyd"], lloyd_iters, 1000.0),
        "clustering.bic_calls": calls["clustering.bic_score"],
        "clustering.bic_s": total["clustering.bic_score"],
        "clustering.split_attempts": split_attempts,
        "clustering.split_accept_ratio": ratio(extra["clustering.xmeans.accepted"], split_attempts),
        "clustering.dbscan_s": total["clustering.dbscan"],
        "clustering.meanshift_s": total["clustering.meanshift"],
        "clustering.self_s": layer_self("clustering"),
        "mlp.train_s": total["mlp.train"],
        "mlp.objective_calls": objective_calls,
        "mlp.objective_ms": ratio(total["mlp.loss_and_gradient"], objective_calls, 1000.0),
        "mlp.lbfgs_iters": lbfgs_iters,
        "mlp.calls_per_iter": ratio(objective_calls, lbfgs_iters),
        "mlp.converged_share": ratio(extra["mlp.lbfgs_minimize.converged"], calls["mlp.lbfgs_minimize"]),
        "mlp.lbfgs_self_s": own["mlp.lbfgs_minimize"],
        "mlp.unflatten_s": total["mlp.unflatten"],
        "mlp.predict_s": total["mlp.predict"],
        "mlp.save_model_s": total["mlp.save_model"],
        "mlp.self_s": layer_self("mlp"),
        "metrics.metric_block_s": total["metrics.metric_block"],
        "metrics.self_s": layer_self("metrics"),
        "constructor.self_s": layer_self("constructor"),
        "cli.import_s": total["cli.import"],
        "cli.write_s": total["cli._write_report"] + total["mlp.save_model"],
        "cli.self_s": layer_self("cli", skip=("cli.import",)),
        "trace.wall_s": wall_s,
        "trace.coverage": ratio(sum(own.values()), wall_s),
    }


def layer_metrics(spans: list[list], traced_walls: dict[int, float]) -> dict[str, float]:
    """Median over traced samples of each per-layer figure. Counts repeat
    exactly from sample to sample, so their median is the exact count.
    A span's self time is its duration less that of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by_sample: dict[int, list[tuple[list, float]]] = defaultdict(list)
    for s, covered in zip(spans, child):
        by_sample[s[SAMPLE]].append((s, s[END] - s[START] - covered))
    rows = [_sample_metrics(by_sample[sample], wall) for sample, wall in traced_walls.items()]
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
