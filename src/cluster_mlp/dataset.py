"""Dataset loading, cleaning, normalization, splitting, and synthesis.

Cleaning follows photometric-catalog conventions: a sentinel target value
marks unlabeled rows, and per-feature sentinel magnitudes (99 / -99) mark
measurement failures. Sentinel matching is exact equality on the parsed
float; the catalogs encode flags as exact literals.
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Raised for unreadable, malformed, or emptied-out datasets."""


# For each annotation a config field's value is checked against: the types
# it takes and how an error message names them.
_KINDS = {
    "int": ((int, np.integer), "an integer"),
    "float": ((int, float, np.integer, np.floating), "a number"),
    "str": ((str,), "a string"),
}


def _checked(name: str, value, kind: str, nullable: bool = False):
    """value as a config field annotated kind stores it, or ValueError naming
    the field. bool is never a number. A float field stores a finite float,
    so 1 and 1.0 configure alike and JSON's NaN and Infinity are refused."""
    types, noun = _KINDS[kind]
    if nullable and value is None:
        return None
    if isinstance(value, types) and not isinstance(value, bool):
        try:
            value = float(value) if kind == "float" else value
        except OverflowError:
            pass  # an integer beyond the range of a double
        else:
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            return value
    raise ValueError(f"{name} must be {noun}{' or None' if nullable else ''}, got {value!r}")


def require_field_types(cfg) -> None:
    """Checks each field of the dataclass cfg annotated int, float or str, or
    one of them `| None`, against its annotation (see _checked); fields of
    other types are left to the dataclass. Annotations are read as the
    strings that postponed evaluation leaves."""
    for f in fields(cfg):
        kind, _, rest = f.type.partition(" | ")
        if kind in _KINDS:
            value = _checked(f.name, getattr(cfg, f.name), kind, nullable=rest == "None")
            object.__setattr__(cfg, f.name, value)


@dataclass(frozen=True)
class Dataset:
    """n rows of a regression set; the three arrays are read-only.

    row_ids names each row. Loaded from a CSV with an id column, it holds
    the stripped cells of that column as Python strings (dtype object, so
    no character is dropped). Otherwise it holds each row's int64 position
    among the data rows of its source, counting from 0. Cleaning and
    splitting carry the ids of the rows they keep; the `cluster` command
    writes str() of each."""

    features: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)
    feature_names: tuple[str, ...]
    row_ids: np.ndarray  # (n,)

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        t = np.asarray(self.targets, dtype=float)
        r = np.asarray(self.row_ids)
        if r.dtype.kind == "U":  # a fixed-width str array drops trailing NULs
            r = np.array(self.row_ids, dtype=object)
        if f.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if t.ndim != 1:
            raise DataError("targets must be 1-d")
        n = f.shape[0]
        if t.shape[0] != n:
            raise DataError("row count mismatch between features and targets")
        if r.shape != (n,):
            raise DataError(f"row_ids must be 1-d with one entry per row ({n}), got shape {r.shape}")
        if len(self.feature_names) != f.shape[1]:
            raise DataError("feature_names length does not match feature width")
        for name, a in (("features", f), ("targets", t), ("row_ids", r)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """The rows at idx."""
        idx = np.asarray(idx)
        return Dataset(
            features=self.features[idx],
            targets=self.targets[idx],
            feature_names=self.feature_names,
            row_ids=self.row_ids[idx],
        )


@dataclass(frozen=True)
class CleaningPolicy:
    target_missing_sentinel: float = -9.999
    feature_sentinels: frozenset[float] = frozenset({99.0, -99.0})  # empty keeps every row

    def __post_init__(self):
        # Also takes the JSON form of the sentinels: a list of numbers.
        require_field_types(self)
        sentinels = self.feature_sentinels
        if not isinstance(sentinels, (list, frozenset)):
            raise ValueError(f"feature_sentinels must be a list of numbers, got {sentinels!r}")
        sentinels = frozenset(_checked("feature_sentinels", v, "float") for v in sentinels)
        object.__setattr__(self, "feature_sentinels", sentinels)


@dataclass(frozen=True)
class NormalizationParams:
    center: np.ndarray  # (d,)
    scale: np.ndarray  # (d,), all > 0
    target_center: float
    target_scale: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        s = np.asarray(self.scale, dtype=float)
        if np.any(s <= 0) or self.target_scale <= 0:
            raise ValueError("all scales must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "scale", s)

    @property
    def d(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        require_field_types(self)
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class TargetFn(enum.Enum):
    LINEAR_OF_CENTER = "linear_of_center"
    SUM_OF_FEATURES = "sum_of_features"


def load_csv(path, target_column: str, id_column: str | None = None) -> Dataset:
    """Loads a comma-separated file: header row, one named target column,
    optional id column, everything else a feature. Sentinels are kept
    verbatim; cleaning is a separate step. Every cell must parse as a
    finite number; a DataError names the row and column of the first that
    does not, and names the file when it is not UTF-8 CSV text.

    The header is read and checked once; it must name each column once, so
    a repeated target name cannot load as a feature. A body of plain
    numeric cells with no id column is parsed by numpy in one call; any
    other body, including every malformed one, is read row by row, so the
    row reader alone words the errors."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports write.
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            repeated = sorted({name for name in header if header.count(name) > 1})
            if repeated:
                raise DataError(f"{path}: header names column {repeated[0]!r} more than once")
            if target_column not in header:
                raise DataError(f"{path}: target column {target_column!r} not in header {header}")
            if id_column is not None and id_column not in header:
                raise DataError(f"{path}: id column {id_column!r} not in header")
            t_idx = header.index(target_column)
            id_idx = header.index(id_column) if id_column is not None else None
            feat_idx = [i for i in range(len(header)) if i != t_idx and i != id_idx]
            if not feat_idx:
                raise DataError(f"{path}: no feature columns")

            table = _numeric_body(fh, len(header)) if id_idx is None else None
            if table is not None:
                features, targets = table.take(feat_idx, axis=1), np.ascontiguousarray(table[:, t_idx])
                row_ids = np.arange(table.shape[0])
            else:
                fh.seek(0)
                next(reader)  # the header, checked above
                features, targets, row_ids = _read_rows(path, reader, header, feat_idx, t_idx, id_idx)
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: not readable as UTF-8 CSV: {e}") from None
    return Dataset(
        features=features,
        targets=targets,
        feature_names=tuple(header[i] for i in feat_idx),
        row_ids=row_ids,
    )


def _numeric_body(fh, width: int) -> np.ndarray | None:
    """The rest of fh as one (n, width) table through np.loadtxt, or None
    where the row reader must decide: the parse fails or warns, there is no
    data row, the table's width is not the header's, or a cell is not
    finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2, comments=None)
    except (ValueError, UserWarning):
        return None
    if table.shape[0] == 0 or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _read_rows(path: Path, reader, header: list[str], feat_idx: list[int], t_idx: int, id_idx: int | None):
    """The row-by-row body parse: (features, targets, row_ids). Handles id
    columns, quoted cells and every number float() accepts, and words every
    load error. Without an id column the ids are the data rows' positions,
    as the numpy parse gives them: skipped blank lines are not counted."""
    rows: list[list[float]] = []
    targets: list[float] = []
    ids: list[str] = []
    for lineno, record in enumerate(reader, start=2):
        if not any(cell.strip() for cell in record):
            continue  # an empty or all-blank line, such as trailing spaces
        if len(record) != len(header):
            raise DataError(f"{path}: row {lineno} has {len(record)} cells, expected {len(header)}")
        parsed = []
        for i in feat_idx + [t_idx]:
            cell = record[i].strip()
            if cell == "":
                raise DataError(f"{path}: row {lineno}, column {header[i]!r}: empty cell")
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {lineno}, column {header[i]!r}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row {lineno}, column {header[i]!r}: non-finite value {cell!r}")
            parsed.append(value)
        rows.append(parsed[:-1])
        targets.append(parsed[-1])
        if id_idx is not None:
            ids.append(record[id_idx].strip())
    if not rows:
        raise DataError(f"{path}: no data rows")
    row_ids = np.array(ids, dtype=object) if id_idx is not None else np.arange(len(rows))
    return np.array(rows, dtype=float), np.array(targets, dtype=float), row_ids


def filter_labeled(ds: Dataset, policy: CleaningPolicy) -> Dataset:
    """Keeps only rows whose target differs from the missing-target sentinel."""
    keep = np.flatnonzero(ds.targets != policy.target_missing_sentinel)
    if keep.size == 0:
        raise DataError("no labeled rows after filtering the target sentinel")
    return ds.take(keep)


def clean_sentinels(ds: Dataset, policy: CleaningPolicy) -> Dataset:
    """Drops rows containing any feature sentinel; with no sentinels, returns
    ds itself."""
    if not policy.feature_sentinels:
        return ds
    bad = np.zeros(ds.n, dtype=bool)
    for s in policy.feature_sentinels:
        bad |= np.any(ds.features == s, axis=1)
    keep = np.flatnonzero(~bad)
    if keep.size == 0:
        raise DataError("no rows left after dropping feature sentinels")
    return ds.take(keep)


def holdout_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle, then cut at floor(train_fraction * n)."""
    if ds.n < 2:
        raise DataError("holdout split needs at least 2 rows")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(ds.n)
    cut = int(np.floor(spec.train_fraction * ds.n))
    cut = max(1, min(cut, ds.n - 1))
    return ds.take(perm[:cut]), ds.take(perm[cut:])


def fit_normalization(train: Dataset) -> NormalizationParams:
    """Per-column mean / population std; zero-variance columns get scale 1.
    A column whose mean or std overflows is a DataError naming it."""
    with np.errstate(over="ignore", invalid="ignore"):
        center = train.features.mean(axis=0)
        scale = train.features.std(axis=0)
        t_center = float(train.targets.mean())
        t_scale = float(train.targets.std())
    labels = [*(f"column {name!r}" for name in train.feature_names), "the target"]
    for what, c, s in zip(labels, [*center, t_center], [*scale, t_scale]):
        if not (math.isfinite(c) and math.isfinite(s)):
            raise DataError(f"normalization of {what} is not finite: center {float(c)}, scale {float(s)}")
    scale = np.where(scale == 0.0, 1.0, scale)
    if t_scale == 0.0:
        t_scale = 1.0
    return NormalizationParams(
        center=center,
        scale=scale,
        target_center=t_center,
        target_scale=t_scale,
    )


def apply_normalization(ds: Dataset, p: NormalizationParams) -> Dataset:
    """z-scores features and target with the given parameters."""
    if ds.d != p.d:
        raise DataError(f"dimension mismatch: dataset d={ds.d}, params d={p.d}")
    return Dataset(
        features=(ds.features - p.center) / p.scale,
        targets=(ds.targets - p.target_center) / p.target_scale,
        feature_names=ds.feature_names,
        row_ids=ds.row_ids,
    )


def _place_centers(k: int, d: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    # Shuffled grid: each column assigns the k centers distinct jittered
    # levels spaced 1.5*separation apart. Any two centers then differ by at
    # least 1.25*separation in every column, and every column keeps enough
    # spread that z-scoring cannot blow up the within-cluster noise.
    levels = 1.5 * separation * np.arange(k, dtype=float)
    centers = np.empty((k, d))
    for j in range(d):
        jitter = rng.uniform(0.0, 0.25 * separation, size=k)
        centers[:, j] = rng.permutation(levels) + jitter
    return centers


def synth_blobs(
    k: int,
    per_cluster: int,
    d: int,
    separation: float,
    noise_std: float,
    target_fn: TargetFn = TargetFn.LINEAR_OF_CENTER,
    seed: int = 0,
) -> Dataset:
    """Seeded Gaussian blobs with mutually separated centers. Row i belongs
    to blob i // per_cluster; the centers are the first draws of
    default_rng(seed), as _place_centers(k, d, separation, rng) makes them."""
    if k < 1 or per_cluster < 1 or d < 1:
        raise ValueError("k, per_cluster, d must be positive")
    if separation <= 0 or noise_std <= 0:
        raise ValueError("separation and noise_std must be positive")
    rng = np.random.default_rng(seed)
    centers = _place_centers(k, d, separation, rng)
    labels = np.repeat(np.arange(k), per_cluster)
    features = centers[labels] + rng.normal(0.0, noise_std, size=(k * per_cluster, d))

    if target_fn is TargetFn.LINEAR_OF_CENTER:
        w = rng.normal(0.0, 1.0, size=d)
        targets = centers[labels] @ w / max(separation, 1.0)
    elif target_fn is TargetFn.SUM_OF_FEATURES:
        targets = features.sum(axis=1)
    else:
        raise ValueError(f"unknown target_fn: {target_fn}")

    return Dataset(
        features=features,
        targets=targets,
        feature_names=tuple(f"f{i}" for i in range(d)),
        row_ids=np.arange(k * per_cluster),
    )


def write_csv(ds: Dataset, path, target_column: str = "target") -> None:
    """Writes a dataset back out in the ingestion schema, features then the
    target (17 significant digits, so a round-trip through load_csv is
    lossless)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*ds.feature_names, target_column])
        for i in range(ds.n):
            writer.writerow([f"{v:.17g}" for v in ds.features[i]] + [f"{ds.targets[i]:.17g}"])
