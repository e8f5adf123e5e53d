"""End-to-end construction: cluster the training split, size the hidden
layer from the cluster count, train with L-BFGS, and evaluate.

Also provides the ad-hoc baseline (a sweep over hidden widths) and the
kmin stability study for X-means.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from . import clustering, cpus, metrics, mlp
from .clustering import (
    Algorithm,
    ClusteringError,
    ClusteringResult,
    DbscanConfig,
    MeanShiftConfig,
    XMeansConfig,
)
from .dataset import (
    CleaningPolicy,
    Dataset,
    NormalizationParams,
    SplitSpec,
    apply_normalization,
    clean_sentinels,
    filter_labeled,
    fit_normalization,
    holdout_split,
    require_field_types,
)
from .metrics import MetricBlock
from .mlp import NetworkSpec, TrainConfig, TrainReport


class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    """The config of one algorithm, xmeans, dbscan or meanshift, names the
    algorithm that sizes the network; with none set, X-means runs with its
    defaults."""

    xmeans: XMeansConfig | None = None
    dbscan: DbscanConfig | None = None
    meanshift: MeanShiftConfig | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    cleaning: CleaningPolicy = field(default_factory=CleaningPolicy)
    validation_fraction: float = 0.2  # 0 reports no validation block
    validation_seed: int = 1

    def __post_init__(self):
        require_field_types(self)
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError(f"validation_fraction must be in [0, 1), got {self.validation_fraction!r}")
        if self.validation_seed < 0:
            raise ValueError(f"validation_seed must be non-negative, got {self.validation_seed!r}")
        present = [a.value for a in Algorithm if getattr(self, a.value) is not None]
        if len(present) > 1:
            raise ValueError(f"more than one algorithm config: {present}")
        if not present:
            object.__setattr__(self, "xmeans", XMeansConfig())

    @property
    def algorithm(self) -> Algorithm:
        return next(a for a in Algorithm if getattr(self, a.value) is not None)


@dataclass(frozen=True)
class PipelineReport:
    spec: NetworkSpec
    clustering_seconds: float
    training_seconds: float
    metrics_train: MetricBlock
    metrics_test: MetricBlock
    metrics_validation: MetricBlock | None
    training: TrainReport
    clustering_diagnostics: dict  # ClusteringResult.diagnostics
    model: mlp.MlpModel = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        """The cluster count, which is the hidden width."""
        return self.spec.hidden_width


@dataclass(frozen=True)
class SweepEntry:
    hidden_width: int
    rms_test: float
    correlation: float
    training_seconds: float
    training: TrainReport


@dataclass(frozen=True)
class SweepReport:
    entries: tuple[SweepEntry, ...]
    best_hidden_width: int
    threads: int  # threads that trained the widths, the caller included
    seconds: float  # wall time of the whole sweep, data preparation included


@dataclass(frozen=True)
class StabilityRow:
    kmin: int
    k: int
    clustering_seconds: float
    diagnostics: dict  # X-means' ClusteringResult.diagnostics


@contextmanager
def _stage(name: str):
    """Re-raises a failure inside the block as PipelineError naming the stage."""
    try:
        yield
    except Exception as e:
        raise PipelineError(name, e) from e


def construct_architecture(
    train: Dataset, cfg: PipelineConfig
) -> tuple[NetworkSpec, ClusteringResult]:
    """Clusters the (normalized) training features only; the hidden width is
    the resulting cluster count. Targets never enter the clustering input."""
    # An algorithm's value names both its config field and its function.
    algo = cfg.algorithm.value
    result = getattr(clustering, algo)(train.features, getattr(cfg, algo))
    if result.k < 1:  # DBSCAN labelled every point noise
        raise ClusteringError("no clusters; architecture undefined")
    return NetworkSpec(input_width=train.d, hidden_width=result.k), result


def prepare(
    ds: Dataset, split: SplitSpec, cleaning: CleaningPolicy
) -> tuple[Dataset, Dataset, NormalizationParams, Dataset]:
    """The data step shared by the pipeline, the sweep, the kmin study and
    `cluster`: drop unlabeled and sentinel rows, make the holdout split, and
    fit the normalization on the training part only. Returns the raw train
    and test parts, that normalization and the z-scored training part."""
    with _stage("cleaning"):
        cleaned = clean_sentinels(filter_labeled(ds, cleaning), cleaning)
    with _stage("split"):
        train_raw, test_raw = holdout_split(cleaned, split)
    with _stage("normalization"):
        norm = fit_normalization(train_raw)
        train_norm = apply_normalization(train_raw, norm)
    return train_raw, test_raw, norm, train_norm


def timed_clustering(
    train_norm: Dataset, cfg: PipelineConfig
) -> tuple[NetworkSpec, ClusteringResult, float]:
    """The clustering stage of the pipeline, the kmin study and `cluster`:
    construct_architecture on the normalized training part, with its wall
    time in seconds. A failure raises PipelineError naming the stage."""
    start = time.perf_counter()
    with _stage("clustering"):
        spec, result = construct_architecture(train_norm, cfg)
    return spec, result, time.perf_counter() - start


def run_pipeline(ds: Dataset, cfg: PipelineConfig) -> PipelineReport:
    """Full method on a raw dataset: clean, split, normalize (fit on train
    only), cluster to pick the architecture, train, evaluate. The report
    carries the trained model."""
    train_raw, test_raw, norm, train_norm = prepare(ds, cfg.split, cfg.cleaning)
    spec, clustered, clustering_seconds = timed_clustering(train_norm, cfg)

    start = time.perf_counter()
    with _stage("training"):
        model, train_report = mlp.train(spec, train_norm, cfg.train_cfg, norm)
    training_seconds = time.perf_counter() - start
    del train_norm  # the metrics below peak the run's memory; they take raw parts

    # reported-only validation cut carved from the training portion
    val_part = None
    if train_raw.n >= 5 and cfg.validation_fraction > 0.0:
        _, val_part = holdout_split(
            train_raw,
            SplitSpec(train_fraction=1.0 - cfg.validation_fraction, seed=cfg.validation_seed),
        )
    with _stage("metrics"):
        val_block = None if val_part is None else _metric_block(model, val_part)
        train_block = _metric_block(model, train_raw)
        test_block = _metric_block(model, test_raw)

    return PipelineReport(
        spec=spec,
        clustering_seconds=clustering_seconds,
        training_seconds=training_seconds,
        metrics_train=train_block,
        metrics_test=test_block,
        metrics_validation=val_block,
        training=train_report,
        clustering_diagnostics=clustered.diagnostics,
        model=model,
    )


def _metric_block(model: mlp.MlpModel, part: Dataset) -> MetricBlock:
    return metrics.metric_block(mlp.predict(model, part), part.targets)


def sweep_hidden(
    ds: Dataset,
    widths: list[int],
    split: SplitSpec,
    train_cfg: TrainConfig,
    cleaning: CleaningPolicy = CleaningPolicy(),
) -> SweepReport:
    """Ad-hoc baseline: one model per hidden width on the pipeline's cleaned
    split; the best width minimizes test RMS (ties go to the smaller network).

    The widths are independent, so they train concurrently, widest first, on
    one thread per CPU of the budget at most (the caller is one of them). No
    arithmetic is shared between them, so each entry equals that of a serial
    loop bit for bit. Entries come in sorted width order. When widths fail,
    the others still run, and the PipelineError of the smallest failing width
    is raised, as a serial loop would raise it."""
    if not widths:
        raise ValueError("widths must be non-empty")
    start = time.perf_counter()
    _, test_raw, norm, train_norm = prepare(ds, split, cleaning)

    def sweep_entry(w: int) -> SweepEntry:
        spec = NetworkSpec(input_width=train_norm.d, hidden_width=w)
        start = time.perf_counter()
        with _stage("training"):
            model, trained = mlp.train(spec, train_norm, train_cfg, norm)
        training_seconds = time.perf_counter() - start
        with _stage("metrics"):
            pred = mlp.predict(model, test_raw)
            rms_test = metrics.rms(pred, test_raw.targets)
            correlation = metrics.correlation(pred, test_raw.targets)
        return SweepEntry(
            hidden_width=w,
            rms_test=rms_test,
            correlation=correlation,
            training_seconds=training_seconds,
            training=trained,
        )

    entries, threads = cpus.map_widest_first(sweep_entry, sorted(widths))
    best = min(entries, key=lambda e: (e.rms_test, e.hidden_width))
    return SweepReport(tuple(entries), best.hidden_width, threads, time.perf_counter() - start)


def kmin_stability(ds: Dataset, kmins: list[int], cfg: PipelineConfig) -> list[StabilityRow]:
    """The pipeline's cluster count for each kmin: the data is prepared and
    normalized once, as the pipeline does, and clustered once per kmin with
    the same seed. Nothing is trained."""
    if cfg.algorithm is not Algorithm.XMEANS:
        raise ValueError("kmin stability requires the X-means algorithm")
    if not kmins:
        raise ValueError("kmins must be non-empty")
    train_norm = prepare(ds, cfg.split, cfg.cleaning)[3]
    rows = []
    for kmin in kmins:
        xcfg = replace(cfg.xmeans, kmin=kmin, kmax=max(kmin, cfg.xmeans.kmax))
        spec, clustered, seconds = timed_clustering(train_norm, replace(cfg, xmeans=xcfg))
        rows.append(StabilityRow(kmin, spec.hidden_width, seconds, clustered.diagnostics))
    return rows
