"""Command-line front end.

Commands: cluster, pipeline, sweep, stability, synth, evaluate. Each takes
a JSON config document (schema-validated, unknown keys rejected) plus a
small set of override flags. Reports are JSON documents with a `header`
section (timings, timestamp, config digest) and a `body` section that is
byte-identical across reruns with the same config and seeds.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, constructor, metrics, mlp
from .clustering import (
    Algorithm,
    ClusteringError,
    DbscanConfig,
    MeanShiftConfig,
    XMeansConfig,
)
from .constructor import PipelineConfig, PipelineError
from .dataset import (
    CleaningPolicy,
    DataError,
    Dataset,
    SplitSpec,
    TargetFn,
    apply_normalization,
    load_csv,
    require_field_types,
    synth_blobs,
    write_csv,
)
from .mlp import NumericalError, TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

CONFIG_SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class RunFiles:
    """The top-level file keys of the cluster, pipeline, sweep and stability
    configs."""

    input: str
    target_column: str
    output: str
    id_column: str | None = None
    model_output: str | None = None

    def __post_init__(self):
        require_field_types(self)


@dataclass(frozen=True)
class SynthSpec:
    k: int
    per_cluster: int
    d: int
    separation: float
    noise_std: float
    output: str
    target_fn: str = TargetFn.LINEAR_OF_CENTER.value
    seed: int = 0

    def __post_init__(self):
        require_field_types(self)


@dataclass(frozen=True)
class EvaluateSpec:
    input: str
    output: str
    pred_column: str = "pred"
    actual_column: str = "actual"
    outlier_threshold: float = 0.15

    def __post_init__(self):
        require_field_types(self)
        if self.outlier_threshold <= 0:
            raise ValueError(f"outlier_threshold must be positive, got {self.outlier_threshold!r}")
        if self.pred_column == self.actual_column:
            raise ValueError(
                f"pred_column {self.pred_column!r} and actual_column {self.actual_column!r} must differ"
            )


def _load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8-sig"))  # a byte-order mark is dropped
    except UnicodeDecodeError as e:
        raise ConfigError(f"{p}: not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{p}: schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
    return doc


def _object_section(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"config: section {where!r} must be an object")
    return section


def _parse_section(doc: dict, cls, where: str, shared: set[str] = frozenset()):
    """Builds the config dataclass cls from the object doc, whose keys must
    be cls's fields or `shared` keys, which other parsers read from the same
    object. A field without a default must be present; the dataclass
    checks the values."""
    _object_section(doc, where)
    names = {f.name for f in fields(cls)}
    unknown = set(doc) - names - shared
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**{key: value for key, value in doc.items() if key in names})
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _positive_ints(doc: dict, key: str) -> None:
    """The check of the sweep's `widths` and of the stability study's `kmins`."""
    values = doc.get(key)
    if not isinstance(values, list) or not values or not all(
        type(v) is int and v >= 1 for v in values
    ):
        raise ConfigError(f"config: {key} must be a non-empty list of positive integers, got {values!r}")


ALGORITHM_CONFIGS = {
    Algorithm.XMEANS: XMeansConfig,
    Algorithm.DBSCAN: DbscanConfig,
    Algorithm.MEANSHIFT: MeanShiftConfig,
}


def _parse_algorithm(doc: dict) -> tuple[Algorithm, object]:
    """The named algorithm and its parsed config section. Every algorithm
    section present is parsed, so a malformed one is refused even when
    another algorithm runs."""
    name = doc.get("algorithm")
    try:
        algo = Algorithm(name)
    except ValueError:
        choices = [a.value for a in Algorithm]
        raise ConfigError(f"config: algorithm must be one of {choices}, got {name!r}") from None
    parsed = {
        a: _parse_section(doc.get(a.value, {}), ALGORITHM_CONFIGS[a], a.value)
        for a in Algorithm
        if a is algo or a.value in doc
    }
    return algo, parsed[algo]


# Top-level keys besides the RunFiles ones: those of every command, then
# those of each command.
PIPELINE_KEYS = {"schema_version", "split", "train", "cleaning", "validation_fraction", "validation_seed"}
ALGORITHM_KEYS = {"algorithm", *(a.value for a in Algorithm)}
COMMAND_KEYS = {
    "cluster": ALGORITHM_KEYS,
    "pipeline": ALGORITHM_KEYS,
    "sweep": {"widths"},
    "stability": ALGORITHM_KEYS | {"kmins"},
}


def _parse_pipeline_config(doc: dict, command: str) -> tuple[PipelineConfig, RunFiles]:
    """The config of cluster, pipeline, sweep or stability. The sweep's
    `widths` and the study's `kmins` are checked here and read from doc."""
    files = _parse_section(doc, RunFiles, "config", PIPELINE_KEYS | COMMAND_KEYS[command])
    split = _parse_section(doc.get("split", {}), SplitSpec, "split")
    train_cfg = _parse_section(doc.get("train", {}), TrainConfig, "train")
    cleaning = _parse_section(doc.get("cleaning", {}), CleaningPolicy, "cleaning")

    if command == "sweep":
        _positive_ints(doc, "widths")
        return PipelineConfig(split=split, train_cfg=train_cfg, cleaning=cleaning), files

    algo, algo_cfg = _parse_algorithm(doc)
    if command == "stability":
        if algo is not Algorithm.XMEANS:
            raise ConfigError("config: stability requires algorithm 'xmeans'")
        _positive_ints(doc, "kmins")

    validation = {k: doc[k] for k in ("validation_fraction", "validation_seed") if k in doc}
    try:
        cfg = PipelineConfig(
            split=split,
            train_cfg=train_cfg,
            cleaning=cleaning,
            **validation,
            **{algo.value: algo_cfg},
        )
    except ValueError as e:
        raise ConfigError(f"config: {e}") from e
    return cfg, files


# ---------------------------------------------------------------- reports


def _config_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_report(path, doc: dict, header: dict) -> None:
    out = {"header": header, "body": doc}
    Path(path).write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _header(config_doc: dict, timings: dict) -> dict:
    return {
        "artifact_version": __version__,
        "config_digest": _config_digest(config_doc),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "timings_seconds": timings,
    }


def _load_input(files: RunFiles) -> Dataset:
    return load_csv(files.input, files.target_column, files.id_column)


# ---------------------------------------------------------------- commands


def cmd_cluster(config_doc: dict, files: RunFiles, cfg: PipelineConfig) -> int:
    train_raw, _, norm = constructor.prepare(_load_input(files), cfg.split, cfg.cleaning)
    _, result, clustering_seconds = constructor.timed_clustering(apply_normalization(train_raw, norm), cfg)

    sizes = np.bincount(result.labels[result.labels >= 0], minlength=result.k)
    body = {
        "algorithm": result.algorithm.value,
        "k": result.k,
        "cluster_sizes": sizes.tolist(),
        "noise_points": int(np.sum(result.labels == -1)),
        "labels": result.labels.tolist(),
        "row_ids": list(train_raw.row_ids),
    }
    header = _header(config_doc, {"clustering": clustering_seconds}) | {"diagnostics": result.diagnostics}
    _write_report(files.output, body, header)
    print(f"clustering: {result.algorithm.value}  k={result.k}  "
          f"time={clustering_seconds:.3f}s  sizes={sizes.tolist()}")
    return EXIT_OK


def cmd_pipeline(config_doc: dict, files: RunFiles, cfg: PipelineConfig) -> int:
    ds = _load_input(files)
    report = constructor.run_pipeline(ds, cfg)
    if files.model_output:
        mlp.save_model(report.model, files.model_output)
    validation = report.metrics_validation
    body = {
        "architecture": str(report.spec),
        "k": report.k,
        "train_rows": report.metrics_train.n,
        "test_rows": report.metrics_test.n,
        "metrics_train": asdict(report.metrics_train),
        "metrics_validation": None if validation is None else asdict(validation),
        "metrics_test": asdict(report.metrics_test),
    }
    timings = {
        "clustering": report.clustering_seconds,
        "training": report.training_seconds,
    }
    trained = report.training
    diagnostics = {
        "iterations": trained.iterations,
        "converged": trained.converged,
        "objective_calls": trained.objective_calls,
        "grad_inf_norm": trained.grad_inf_norm,
        "restart_losses": list(trained.restart_losses),
        "threads": trained.threads,
        "clustering": report.clustering_diagnostics,
    }
    _write_report(files.output, body, _header(config_doc, timings) | {"diagnostics": diagnostics})

    t = report.metrics_test
    print(f"architecture {report.spec}  (k={report.k} clusters)")
    print(f"  test: rms={t.rms:.4f}  norm_rms={t.norm_rms:.4f}  bias={t.bias:.4f}  "
          f"outliers>0.15={t.outlier_fraction:.2%}  corr={t.correlation:.4f}")
    print(f"  clustering {report.clustering_seconds:.3f}s, training {report.training_seconds:.3f}s")
    if not trained.converged:
        print(f"  training not converged (max_iter={cfg.train_cfg.max_iter})")
    return EXIT_OK


def cmd_sweep(config_doc: dict, files: RunFiles, cfg: PipelineConfig) -> int:
    ds = _load_input(files)
    report = constructor.sweep_hidden(
        ds, config_doc["widths"], cfg.split, cfg.train_cfg, cleaning=cfg.cleaning
    )
    body = {
        "entries": [
            {
                "hidden_width": e.hidden_width,
                "rms_test": e.rms_test,
                "correlation": e.correlation,
            }
            for e in report.entries
        ],
        "best_hidden_width": report.best_hidden_width,
    }
    timings = {
        "sweep": report.seconds,
        "training_per_width": {str(e.hidden_width): e.training_seconds for e in report.entries},
    }
    diagnostics = {
        "threads": report.threads,
        "per_width": {
            str(e.hidden_width): {"iterations": e.training.iterations, "converged": e.training.converged}
            for e in report.entries
        },
    }
    _write_report(files.output, body, _header(config_doc, timings) | {"diagnostics": diagnostics})
    print(f"{'width':>6} {'rms_test':>10} {'corr':>8} {'time_s':>8}")
    for e in report.entries:
        print(f"{e.hidden_width:>6} {e.rms_test:>10.4f} {e.correlation:>8.4f} {e.training_seconds:>8.2f}")
    print(f"best hidden width: {report.best_hidden_width}")
    return EXIT_OK


def cmd_stability(config_doc: dict, files: RunFiles, cfg: PipelineConfig) -> int:
    ds = _load_input(files)
    rows = constructor.kmin_stability(ds, config_doc["kmins"], cfg)
    body = {
        "split_seed": cfg.split.seed,
        "rows": [{"kmin": r.kmin, "k": r.k} for r in rows],
    }
    timings = {"per_kmin": {str(r.kmin): {"clustering": r.clustering_seconds} for r in rows}}
    diagnostics = {"per_kmin": {str(r.kmin): {"stopped_by": r.diagnostics["stopped_by"]} for r in rows}}
    _write_report(files.output, body, _header(config_doc, timings) | {"diagnostics": diagnostics})
    print(f"{'kmin':>5} {'k':>4} {'cluster_s':>10}")
    for r in rows:
        print(f"{r.kmin:>5} {r.k:>4} {r.clustering_seconds:>10.3f}")
    return EXIT_OK


def cmd_synth(config_doc: dict) -> int:
    spec = _parse_section(config_doc, SynthSpec, "config", {"schema_version"})
    try:
        target_fn = TargetFn(spec.target_fn)
    except ValueError:
        raise ConfigError(f"config: unknown target_fn {spec.target_fn!r}") from None
    try:
        ds = synth_blobs(
            spec.k, spec.per_cluster, spec.d, spec.separation, spec.noise_std, target_fn, spec.seed
        )
    except ValueError as e:
        raise ConfigError(f"config: {e}") from e

    out = Path(spec.output)
    write_csv(ds, out, target_column="target")
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps(
            {"true_k": spec.k, "per_cluster": spec.per_cluster, "d": spec.d, "seed": spec.seed,
             "separation": spec.separation, "noise_std": spec.noise_std,
             "target_fn": spec.target_fn},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {ds.n} rows to {out} (true k={spec.k}; metadata in {sidecar.name})")
    return EXIT_OK


def cmd_evaluate(config_doc: dict) -> int:
    spec = _parse_section(config_doc, EvaluateSpec, "config", {"schema_version"})
    ds = load_csv(spec.input, target_column=spec.actual_column)
    if spec.pred_column not in ds.feature_names:
        raise DataError(f"{spec.input}: prediction column {spec.pred_column!r} not found")
    pred = ds.features[:, ds.feature_names.index(spec.pred_column)]
    threshold = spec.outlier_threshold
    try:
        block = metrics.metric_block(pred, ds.targets, threshold)
    except ValueError as e:
        raise NumericalError(str(e)) from e
    body = {"metrics": asdict(block), "outlier_threshold": threshold}
    _write_report(spec.output, body, _header(config_doc, {}))
    print(f"n={block.n}  rms={block.rms:.4f}  norm_rms={block.norm_rms:.4f}  "
          f"bias={block.bias:.4f}  outliers>{threshold}={block.outlier_fraction:.2%}  "
          f"corr={block.correlation:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------- driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluster-mlp",
        description="Regression MLPs sized by non-parametric clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, seeded in [
        ("cluster", "run the configured clustering on the training split", "the split seed"),
        ("pipeline", "full run: clean, split, cluster, size, train, evaluate", "the split seed"),
        ("sweep", "ad-hoc baseline: train one model per hidden width", "the split seed"),
        ("stability", "X-means cluster count vs kmin study", "the split seed"),
        ("synth", "generate a synthetic blob dataset as CSV", "the blob seed"),
        ("evaluate", "metrics for a predictions CSV", None),  # nothing to seed
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument("--input", help="override the input path")
        p.add_argument("--output", help="override the output path")
        if seeded:
            p.add_argument("--seed", type=int, help=f"override {seeded}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        if args.input is not None:
            doc["input"] = args.input
        if args.output is not None:
            doc["output"] = args.output

        if args.command == "evaluate":
            return cmd_evaluate(doc)
        if args.command == "synth":
            if args.seed is not None:
                doc["seed"] = args.seed
            return cmd_synth(doc)
        if args.seed is not None:
            _object_section(doc.setdefault("split", {}), "split")["seed"] = args.seed

        cfg, files = _parse_pipeline_config(doc, args.command)
        handler = {
            "cluster": cmd_cluster,
            "pipeline": cmd_pipeline,
            "sweep": cmd_sweep,
            "stability": cmd_stability,
        }[args.command]
        return handler(doc, files, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, PipelineError) as e:
        # An undefined metric is numerical, as in `evaluate`.
        if isinstance(e, PipelineError) and (
            e.stage == "metrics" or isinstance(e.cause, (NumericalError, ClusteringError))
        ):
            print(f"numerical error: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, ClusteringError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
