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
import time
from dataclasses import fields
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
    RowPolicy,
    SplitSpec,
    TargetFn,
    apply_normalization,
    load_csv,
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


def _require(doc: dict, key: str, typ, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, typ) or isinstance(value, bool) and typ is not bool:
        raise ConfigError(f"{where}: key {key!r} must be {typ}, got {type(value).__name__}")
    return value


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{p}: schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
    return doc


def _require_object(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"config: section {where!r} must be an object")
    return section


def _parse_section(doc: dict, cls, where: str):
    """Builds the config dataclass cls from a section whose keys must be
    among cls's fields; the dataclass validates the values."""
    _require_object(doc, where)
    _check_keys(doc, {f.name for f in fields(cls)}, where)
    try:
        return cls(**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_cleaning(doc: dict) -> CleaningPolicy:
    _require_object(doc, "cleaning")
    _check_keys(doc, {"target_missing_sentinel", "feature_sentinels", "row_policy"}, "cleaning")
    policy = doc.get("row_policy", "drop_row_if_any_sentinel")
    try:
        row_policy = RowPolicy(policy)
    except ValueError:
        raise ConfigError(f"cleaning: unknown row_policy {policy!r}") from None
    try:
        return CleaningPolicy(
            target_missing_sentinel=float(doc.get("target_missing_sentinel", -9.999)),
            feature_sentinels=frozenset(
                float(v) for v in doc.get("feature_sentinels", [99.0, -99.0])
            ),
            row_policy=row_policy,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"cleaning: {e}") from e


ALGORITHM_CONFIGS = {
    Algorithm.XMEANS: XMeansConfig,
    Algorithm.DBSCAN: DbscanConfig,
    Algorithm.MEANSHIFT: MeanShiftConfig,
}


def _parse_algorithm(doc: dict) -> tuple[Algorithm, dict]:
    name = _require(doc, "algorithm", str, "config")
    try:
        algo = Algorithm(name)
    except ValueError:
        raise ConfigError(f"config: unknown algorithm {name!r}") from None
    if algo is Algorithm.KMEANS:
        raise ConfigError("config: 'kmeans' is not a pipeline algorithm (it is parametric)")
    parsed = _parse_section(doc.get(algo.value, {}), ALGORITHM_CONFIGS[algo], algo.value)
    # xmeans is named even when unused: PipelineConfig defaults it to a config
    return algo, {"xmeans": None, algo.value: parsed}


PIPELINE_KEYS = {
    "schema_version",
    "input",
    "target_column",
    "id_column",
    "output",
    "algorithm",
    "xmeans",
    "dbscan",
    "meanshift",
    "split",
    "train",
    "cleaning",
    "validation_fraction",
    "validation_seed",
    "widths",
    "kmins",
    "model_output",
}


def _parse_pipeline_config(doc: dict, command: str) -> tuple[PipelineConfig, dict]:
    extra_forbidden = {
        "cluster": {"widths", "kmins"},
        "pipeline": {"widths", "kmins"},
        "sweep": {"kmins", "algorithm", "xmeans", "dbscan", "meanshift"},
        "stability": {"widths"},
    }[command]
    allowed = PIPELINE_KEYS - extra_forbidden
    _check_keys(doc, allowed, "config")

    io = {
        "input": _require(doc, "input", str, "config"),
        "target_column": _require(doc, "target_column", str, "config"),
        "id_column": doc.get("id_column"),
        "output": _require(doc, "output", str, "config"),
        "model_output": doc.get("model_output"),
        "widths": doc.get("widths"),
        "kmins": doc.get("kmins"),
    }
    if io["id_column"] is not None and not isinstance(io["id_column"], str):
        raise ConfigError("config: id_column must be a string or null")

    split = _parse_section(doc.get("split", {}), SplitSpec, "split")
    train_cfg = _parse_section(doc.get("train", {}), TrainConfig, "train")
    cleaning = _parse_cleaning(doc.get("cleaning", {}))

    if command == "sweep":
        widths = io["widths"]
        if not isinstance(widths, list) or not widths or not all(
            isinstance(w, int) and w >= 1 for w in widths
        ):
            raise ConfigError("config: sweep requires a non-empty list of positive 'widths'")
        cfg = PipelineConfig(
            algorithm=Algorithm.XMEANS,
            xmeans=XMeansConfig(),
            split=split,
            train_cfg=train_cfg,
            cleaning=cleaning,
        )
        return cfg, io

    algo, algo_kwargs = _parse_algorithm(doc)
    if command == "stability":
        kmins = io["kmins"]
        if algo is not Algorithm.XMEANS:
            raise ConfigError("config: stability requires algorithm 'xmeans'")
        if not isinstance(kmins, list) or not kmins or not all(
            isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in kmins
        ):
            raise ConfigError("config: stability requires a non-empty list of positive 'kmins'")

    try:
        cfg = PipelineConfig(
            algorithm=algo,
            split=split,
            train_cfg=train_cfg,
            cleaning=cleaning,
            validation_fraction=(
                _require(doc, "validation_fraction", float, "config")
                if "validation_fraction" in doc
                else 0.2
            ),
            validation_seed=doc.get("validation_seed", 1),
            **algo_kwargs,
        )
    except ValueError as e:
        raise ConfigError(f"config: {e}") from e
    return cfg, io


# ---------------------------------------------------------------- reports


def _config_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _metric_dict(block: metrics.MetricBlock | None) -> dict | None:
    if block is None:
        return None
    return {
        "rms": block.rms,
        "norm_rms": block.norm_rms,
        "bias": block.bias,
        "outlier_fraction": block.outlier_fraction,
        "correlation": block.correlation,
        "n": block.n,
    }


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


def _load_input(io: dict) -> Dataset:
    return load_csv(io["input"], io["target_column"], io["id_column"])


# ---------------------------------------------------------------- commands


def cmd_cluster(config_doc: dict, io: dict, cfg: PipelineConfig) -> int:
    train_raw, _, norm = constructor.prepare(_load_input(io), cfg.split, cfg.cleaning)
    train_norm = apply_normalization(train_raw, norm)
    start = time.perf_counter()
    _, result = constructor.construct_architecture(train_norm, cfg)
    clustering_seconds = time.perf_counter() - start

    sizes = np.bincount(result.labels[result.labels >= 0], minlength=result.k)
    body = {
        "algorithm": result.algorithm.value,
        "k": result.k,
        "cluster_sizes": sizes.tolist(),
        "noise_points": int(np.sum(result.labels == -1)),
        "labels": result.labels.tolist(),
        "row_ids": list(train_raw.row_ids),
    }
    _write_report(io["output"], body, _header(config_doc, {"clustering": clustering_seconds}))
    print(f"clustering: {result.algorithm.value}  k={result.k}  "
          f"time={clustering_seconds:.3f}s  sizes={sizes.tolist()}")
    return EXIT_OK


def cmd_pipeline(config_doc: dict, io: dict, cfg: PipelineConfig) -> int:
    ds = _load_input(io)
    report, model = constructor.run_pipeline_with_model(ds, cfg)
    if io.get("model_output"):
        mlp.save_model(model, io["model_output"])
    body = {
        "architecture": str(report.spec),
        "k": report.k,
        "train_rows": report.train_rows,
        "test_rows": report.test_rows,
        "metrics_train": _metric_dict(report.metrics_train),
        "metrics_validation": _metric_dict(report.metrics_validation),
        "metrics_test": _metric_dict(report.metrics_test),
    }
    timings = {
        "clustering": report.clustering_seconds,
        "training": report.training_seconds,
    }
    _write_report(io["output"], body, _header(config_doc, timings))

    t = report.metrics_test
    print(f"architecture {report.spec}  (k={report.k} clusters)")
    print(f"  test: rms={t.rms:.4f}  norm_rms={t.norm_rms:.4f}  bias={t.bias:.4f}  "
          f"outliers>0.15={t.outlier_fraction:.2%}  corr={t.correlation:.4f}")
    print(f"  clustering {report.clustering_seconds:.3f}s, training {report.training_seconds:.3f}s")
    return EXIT_OK


def cmd_sweep(config_doc: dict, io: dict, cfg: PipelineConfig) -> int:
    ds = _load_input(io)
    report = constructor.sweep_hidden(
        ds, io["widths"], cfg.split, cfg.train_cfg, cleaning=cfg.cleaning
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
        "training_per_width": {str(e.hidden_width): e.training_seconds for e in report.entries}
    }
    _write_report(io["output"], body, _header(config_doc, timings))
    print(f"{'width':>6} {'rms_test':>10} {'corr':>8} {'time_s':>8}")
    for e in report.entries:
        print(f"{e.hidden_width:>6} {e.rms_test:>10.4f} {e.correlation:>8.4f} {e.training_seconds:>8.2f}")
    print(f"best hidden width: {report.best_hidden_width}")
    return EXIT_OK


def cmd_stability(config_doc: dict, io: dict, cfg: PipelineConfig) -> int:
    ds = _load_input(io)
    rows = constructor.kmin_stability(ds, io["kmins"], cfg)
    body = {
        "split_seed": cfg.split.seed,
        "rows": [{"kmin": r.kmin, "k": r.k} for r in rows],
    }
    timings = {
        "per_kmin": {
            str(r.kmin): {"clustering": r.clustering_seconds, "training": r.training_seconds}
            for r in rows
        }
    }
    _write_report(io["output"], body, _header(config_doc, timings))
    print(f"{'kmin':>5} {'k':>4} {'cluster_s':>10} {'train_s':>9}")
    for r in rows:
        print(f"{r.kmin:>5} {r.k:>4} {r.clustering_seconds:>10.3f} {r.training_seconds:>9.2f}")
    return EXIT_OK


SYNTH_KEYS = {
    "schema_version",
    "k",
    "per_cluster",
    "d",
    "separation",
    "noise_std",
    "target_fn",
    "seed",
    "output",
}


def cmd_synth(config_doc: dict) -> int:
    _check_keys(config_doc, SYNTH_KEYS, "config")
    k = _require(config_doc, "k", int, "config")
    per_cluster = _require(config_doc, "per_cluster", int, "config")
    d = _require(config_doc, "d", int, "config")
    separation = _require(config_doc, "separation", float, "config")
    noise_std = _require(config_doc, "noise_std", float, "config")
    output = _require(config_doc, "output", str, "config")
    fn_name = config_doc.get("target_fn", "linear_of_center")
    try:
        target_fn = TargetFn(fn_name)
    except ValueError:
        raise ConfigError(f"config: unknown target_fn {fn_name!r}") from None
    seed = _require(config_doc, "seed", int, "config") if "seed" in config_doc else 0
    try:
        ds = synth_blobs(k, per_cluster, d, separation, noise_std, target_fn, seed)
    except ValueError as e:
        raise ConfigError(f"config: {e}") from e

    out = Path(output)
    write_csv(ds, out, target_column="target")
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps(
            {"true_k": k, "per_cluster": per_cluster, "d": d, "seed": seed,
             "separation": separation, "noise_std": noise_std, "target_fn": fn_name},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {ds.n} rows to {out} (true k={k}; metadata in {sidecar.name})")
    return EXIT_OK


EVALUATE_KEYS = {
    "schema_version",
    "input",
    "pred_column",
    "actual_column",
    "output",
    "outlier_threshold",
}


def cmd_evaluate(config_doc: dict) -> int:
    _check_keys(config_doc, EVALUATE_KEYS, "config")
    input_path = _require(config_doc, "input", str, "config")
    pred_col = config_doc.get("pred_column", "pred")
    actual_col = config_doc.get("actual_column", "actual")
    output = _require(config_doc, "output", str, "config")
    threshold = float(config_doc.get("outlier_threshold", 0.15))

    ds = load_csv(input_path, target_column=actual_col)
    if pred_col not in ds.feature_names:
        raise DataError(f"{input_path}: prediction column {pred_col!r} not found")
    pred = ds.features[:, ds.feature_names.index(pred_col)]
    try:
        block = metrics.metric_block(pred, ds.targets, threshold)
    except ValueError as e:
        raise NumericalError(str(e)) from e
    body = {"metrics": _metric_dict(block), "outlier_threshold": threshold}
    _write_report(output, body, _header(config_doc, {}))
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
    for name, doc in [
        ("cluster", "run the configured clustering on the training split"),
        ("pipeline", "full run: clean, split, cluster, size, train, evaluate"),
        ("sweep", "ad-hoc baseline: train one model per hidden width"),
        ("stability", "X-means cluster count vs kmin study"),
        ("synth", "generate a synthetic blob dataset as CSV"),
        ("evaluate", "metrics for a predictions CSV"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument("--input", help="override the input path")
        p.add_argument("--output", help="override the output path")
        p.add_argument("--seed", type=int, help="override the split seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        if args.input is not None:
            doc["input"] = args.input
        if args.output is not None:
            doc["output"] = args.output

        if args.command == "synth":
            if args.seed is not None:
                doc.pop("split", None)
                doc["seed"] = args.seed
            return cmd_synth(doc)
        if args.command == "evaluate":
            doc.pop("split", None)
            return cmd_evaluate(doc)
        if args.seed is not None:
            _require_object(doc.setdefault("split", {}), "split")["seed"] = args.seed

        cfg, io = _parse_pipeline_config(doc, args.command)
        handler = {
            "cluster": cmd_cluster,
            "pipeline": cmd_pipeline,
            "sweep": cmd_sweep,
            "stability": cmd_stability,
        }[args.command]
        return handler(doc, io, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, PipelineError) as e:
        if isinstance(e, PipelineError) and isinstance(e.cause, (NumericalError, ClusteringError)):
            print(f"numerical error: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, ClusteringError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
