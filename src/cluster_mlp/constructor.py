"""End-to-end construction: cluster the training split, size the hidden
layer from the cluster count, train with L-BFGS, and evaluate.

Also provides the ad-hoc baseline (a sweep over hidden widths) and the
kmin stability study for X-means.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import clustering, metrics, mlp
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
    algorithm: Algorithm = Algorithm.XMEANS
    xmeans: XMeansConfig | None = field(default_factory=XMeansConfig)
    dbscan: DbscanConfig | None = None
    meanshift: MeanShiftConfig | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    cleaning: CleaningPolicy = field(default_factory=CleaningPolicy)
    validation_fraction: float = 0.2
    validation_seed: int = 1

    def __post_init__(self):
        require_field_types(self)
        present = {
            Algorithm.XMEANS: self.xmeans,
            Algorithm.DBSCAN: self.dbscan,
            Algorithm.MEANSHIFT: self.meanshift,
        }
        if present.get(self.algorithm) is None:
            raise ValueError(f"missing config for algorithm {self.algorithm.value}")
        others = [a for a, c in present.items() if a is not self.algorithm and c is not None]
        if others:
            raise ValueError(f"extra algorithm configs present: {[a.value for a in others]}")


@dataclass(frozen=True)
class PipelineReport:
    k: int
    spec: NetworkSpec
    clustering_seconds: float
    training_seconds: float
    metrics_train: MetricBlock
    metrics_test: MetricBlock
    metrics_validation: MetricBlock | None
    train_rows: int
    test_rows: int
    training: TrainReport
    clustering_diagnostics: dict  # ClusteringResult.diagnostics

    def __post_init__(self):
        if self.spec.hidden_width != self.k:
            raise ValueError("hidden width must equal the cluster count")


@dataclass(frozen=True)
class SweepEntry:
    hidden_width: int
    rms_test: float
    correlation: float
    training_seconds: float
    iterations: int  # TrainReport.iterations of this width's training
    converged: bool  # TrainReport.converged


@dataclass(frozen=True)
class SweepReport:
    entries: tuple[SweepEntry, ...]
    best_hidden_width: int


@dataclass(frozen=True)
class StabilityRow:
    kmin: int
    k: int
    clustering_seconds: float
    stopped_by: str  # X-means' diagnostics["stopped_by"]


def _run_clustering(features: np.ndarray, cfg: PipelineConfig) -> ClusteringResult:
    if cfg.algorithm is Algorithm.XMEANS:
        return clustering.xmeans(features, cfg.xmeans)
    if cfg.algorithm is Algorithm.DBSCAN:
        return clustering.dbscan(features, cfg.dbscan)
    if cfg.algorithm is Algorithm.MEANSHIFT:
        return clustering.meanshift(features, cfg.meanshift)
    raise ValueError(f"unsupported pipeline algorithm: {cfg.algorithm}")


def construct_architecture(
    train: Dataset, cfg: PipelineConfig
) -> tuple[NetworkSpec, ClusteringResult]:
    """Clusters the (normalized) training features only; the hidden width is
    the resulting cluster count. Targets never enter the clustering input."""
    result = _run_clustering(train.features, cfg)
    if result.k < 1:  # DBSCAN labelled every point noise
        raise ClusteringError("no clusters; architecture undefined")
    return NetworkSpec(input_width=train.d, hidden_width=result.k), result


def prepare(
    ds: Dataset, split: SplitSpec, cleaning: CleaningPolicy
) -> tuple[Dataset, Dataset, NormalizationParams]:
    """The data step shared by the pipeline, the sweep and `cluster`: drop
    unlabeled and sentinel rows, make the holdout split, and fit the
    normalization on the training part only. Returns the raw train and test
    parts and that normalization."""
    try:
        cleaned = filter_labeled(ds, cleaning)
        cleaned = clean_sentinels(cleaned, cleaning)
    except Exception as e:
        raise PipelineError("cleaning", e) from e

    try:
        train_raw, test_raw = holdout_split(cleaned, split)
    except Exception as e:
        raise PipelineError("split", e) from e
    return train_raw, test_raw, fit_normalization(train_raw)


def run_pipeline(ds: Dataset, cfg: PipelineConfig) -> PipelineReport:
    """Full method on a raw dataset: clean, split, normalize (fit on train
    only), cluster to pick the architecture, train, evaluate."""
    report, _ = run_pipeline_with_model(ds, cfg)
    return report


def run_pipeline_with_model(
    ds: Dataset, cfg: PipelineConfig
) -> tuple[PipelineReport, mlp.MlpModel]:
    """run_pipeline, also returning the trained model for serialization."""
    train_raw, test_raw, norm = prepare(ds, cfg.split, cfg.cleaning)
    train_norm = apply_normalization(train_raw, norm)

    start = time.perf_counter()
    try:
        spec, clustered = construct_architecture(train_norm, cfg)
    except Exception as e:
        raise PipelineError("clustering", e) from e
    clustering_seconds = time.perf_counter() - start

    start = time.perf_counter()
    try:
        model, train_report = mlp.train(spec, train_raw, cfg.train_cfg, norm=norm)
    except Exception as e:
        raise PipelineError("training", e) from e
    training_seconds = time.perf_counter() - start

    # reported-only validation cut carved from the training portion
    val_block: MetricBlock | None = None
    if train_raw.n >= 5 and 0.0 < cfg.validation_fraction < 1.0:
        fit_part, val_part = holdout_split(
            train_raw,
            SplitSpec(train_fraction=1.0 - cfg.validation_fraction, seed=cfg.validation_seed),
        )
        val_block = metrics.metric_block(mlp.predict(model, val_part), val_part.targets)

    report = PipelineReport(
        k=spec.hidden_width,
        spec=spec,
        clustering_seconds=clustering_seconds,
        training_seconds=training_seconds,
        metrics_train=metrics.metric_block(mlp.predict(model, train_raw), train_raw.targets),
        metrics_test=metrics.metric_block(mlp.predict(model, test_raw), test_raw.targets),
        metrics_validation=val_block,
        train_rows=train_raw.n,
        test_rows=test_raw.n,
        training=train_report,
        clustering_diagnostics=clustered.diagnostics,
    )
    return report, model


def sweep_hidden(
    ds: Dataset,
    widths: list[int],
    split: SplitSpec,
    train_cfg: TrainConfig,
    cleaning: CleaningPolicy = CleaningPolicy(),
) -> SweepReport:
    """Ad-hoc baseline: one model per hidden width on the pipeline's cleaned
    split; the best width minimizes test RMS (ties go to the smaller network)."""
    if not widths:
        raise ValueError("widths must be non-empty")
    train_raw, test_raw, norm = prepare(ds, split, cleaning)

    entries = []
    for w in sorted(widths):
        spec = NetworkSpec(input_width=train_raw.d, hidden_width=w)
        start = time.perf_counter()
        model, trained = mlp.train(spec, train_raw, train_cfg, norm=norm)
        training_seconds = time.perf_counter() - start
        pred = mlp.predict(model, test_raw)
        entries.append(
            SweepEntry(
                hidden_width=w,
                rms_test=metrics.rms(pred, test_raw.targets),
                correlation=metrics.correlation(pred, test_raw.targets),
                training_seconds=training_seconds,
                iterations=trained.iterations,
                converged=trained.converged,
            )
        )
    best = min(entries, key=lambda e: (e.rms_test, e.hidden_width))
    return SweepReport(entries=tuple(entries), best_hidden_width=best.hidden_width)


def kmin_stability(ds: Dataset, kmins: list[int], cfg: PipelineConfig) -> list[StabilityRow]:
    """The pipeline's cluster count for each kmin: the data is prepared and
    normalized once, as the pipeline does, and clustered once per kmin with
    the same seed. Nothing is trained."""
    if cfg.algorithm is not Algorithm.XMEANS:
        raise ValueError("kmin stability requires the X-means algorithm")
    if not kmins:
        raise ValueError("kmins must be non-empty")
    train_raw, _, norm = prepare(ds, cfg.split, cfg.cleaning)
    train_norm = apply_normalization(train_raw, norm)
    rows = []
    for kmin in kmins:
        xcfg = replace(cfg.xmeans, kmin=kmin, kmax=max(kmin, cfg.xmeans.kmax))
        start = time.perf_counter()
        try:
            spec, clustered = construct_architecture(train_norm, replace(cfg, xmeans=xcfg))
        except Exception as e:
            raise PipelineError("clustering", e) from e
        rows.append(
            StabilityRow(
                kmin=kmin,
                k=spec.hidden_width,
                clustering_seconds=time.perf_counter() - start,
                stopped_by=clustered.diagnostics["stopped_by"],
            )
        )
    return rows
