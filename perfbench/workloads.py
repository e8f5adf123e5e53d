"""The benchmark's four workloads.

Each workload makes its inputs from the run seed, makes one user-level call
of the program per sample through its public entry points, and checks the
call's output. The program sees only the generated arrays or the CSV file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from cluster_mlp import clustering, constructor
from cluster_mlp.clustering import DbscanConfig, MeanShiftConfig, XMeansConfig
from cluster_mlp.constructor import PipelineConfig
from cluster_mlp.dataset import (
    SplitSpec,
    apply_normalization,
    fit_normalization,
    holdout_split,
    synth_blobs,
)
from cluster_mlp.mlp import TrainConfig

from hostspeed import Reading

HERE = Path(__file__).resolve().parent

# Keeps a hung CLI run inside the benchmark's own time limit.
CHILD_TIMEOUT_S = 150

# A test RMS above this share of the targets' standard deviation fails the
# check. Seeds 0-19 of both training workloads stayed at or under 0.0039.
RMS_CEILING_SHARE = 0.02

# Sizes: the full size the benchmark measures, and a tiny one for its smoke test.
SIZES = {
    "xmeans-cluster": {"full": dict(k=32, per_cluster=5000, kmax=128), "smoke": dict(k=6, per_cluster=100, kmax=24)},
    "width-sweep": {"full": dict(k=8, per_cluster=1500, d=10, widths=10), "smoke": dict(k=4, per_cluster=300, d=4, widths=4)},
    "csv-pipeline": {"full": dict(k=8, per_cluster=10000, d=10, kmax=32), "smoke": dict(k=4, per_cluster=600, d=4, kmax=8)},
    "density-cluster": {"full": dict(pool=2000, dbscan_n=3000, meanshift_n=1500), "smoke": dict(pool=200, dbscan_n=400, meanshift_n=200)},
}


def _normalized(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=0)) / x.std(axis=0)


class XMeansCluster:
    """The work of `cluster-mlp cluster`: X-means on the normalized 70 %
    training split. Clustering (Lloyd, BIC, splits) does nearly all the
    work and the MLP none."""

    # X-means' work follows the blob layout, so the layout is one fixed
    # synth_blobs draw and the seed picks the 70 % of its rows that are
    # clustered.
    LAYOUT_SEED = 0

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.k, self.seed, self.size = size["k"], seed, size

    def setup(self) -> None:
        ds = synth_blobs(k=self.k, per_cluster=self.size["per_cluster"], d=8, separation=30.0, noise_std=1.0, seed=self.LAYOUT_SEED)
        train, _ = holdout_split(ds, SplitSpec(train_fraction=0.7, seed=self.seed))
        self.train = apply_normalization(train, fit_normalization(train))
        self.cfg = PipelineConfig(xmeans=XMeansConfig(kmin=2, kmax=self.size["kmax"]))

    def call(self):
        return constructor.construct_architecture(self.train, self.cfg)

    def check(self, outcome) -> list[str]:
        spec, result = outcome
        failures = [] if result.k == self.k else [f"X-means recovered k={result.k}, expected {self.k}"]
        if spec.hidden_width != result.k:
            failures.append(f"hidden width {spec.hidden_width} differs from k={result.k}")
        return failures


class WidthSweep:
    """The paper's baseline: `sweep_hidden` over widths 1..10 with the
    default TrainConfig. No clustering; the MLP objective does most of the
    work, over many small models of varying width."""

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed, self.size = seed, size

    def setup(self) -> None:
        s = self.size
        self.ds = synth_blobs(k=s["k"], per_cluster=s["per_cluster"], d=s["d"], separation=30.0, noise_std=1.0, seed=self.seed)
        self.widths = list(range(1, s["widths"] + 1))
        self.ceiling = RMS_CEILING_SHARE * float(np.std(self.ds.targets))

    def call(self):
        return constructor.sweep_hidden(self.ds, self.widths, SplitSpec(train_fraction=0.7, seed=self.seed), TrainConfig())

    def check(self, report) -> list[str]:
        failures = []
        if [e.hidden_width for e in report.entries] != self.widths:
            failures.append(f"sweep returned widths {[e.hidden_width for e in report.entries]}")
        self.test_rms = min(e.rms_test for e in report.entries)
        if not self.test_rms <= self.ceiling:
            failures.append(f"best test RMS {self.test_rms:.6g} above the ceiling {self.ceiling:.6g}")
        return failures


class CsvPipeline:
    """`python -m cluster_mlp.cli pipeline` in a fresh process, so start-up
    and imports count as they do for users. The only workload that reads a
    CSV, cleans rows, uses `Dataset.take` at scale and writes output files."""

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.reference: tuple[bytes, bytes] | None = None

    def setup(self) -> None:
        s = self.size
        ds = synth_blobs(k=s["k"], per_cluster=s["per_cluster"], d=s["d"], separation=30.0, noise_std=1.0, seed=self.seed)
        rng = np.random.default_rng([self.seed, 1])
        targets = np.array(ds.targets)
        targets[rng.random(ds.n) < 0.05] = -9.999  # missing-target sentinel
        features = np.array(ds.features)
        flagged = np.flatnonzero(rng.random(ds.n) < 0.02)
        features[flagged, rng.integers(0, s["d"], size=flagged.size)] = 99.0  # feature sentinel
        labeled = targets != -9.999
        self.ceiling = RMS_CEILING_SHARE * float(np.std(targets[labeled]))

        csv_path = self.workdir / "input.csv"
        header = ",".join(list(ds.feature_names) + ["target"])
        np.savetxt(csv_path, np.column_stack([features, targets]), fmt="%.17g", delimiter=",", header=header, comments="")
        self.report_path = self.workdir / "report.json"
        self.model_path = self.workdir / "model.json"
        self.config_path = self.workdir / "pipeline.json"
        config = {
            "schema_version": 1,
            "input": str(csv_path),
            "target_column": "target",
            "output": str(self.report_path),
            "model_output": str(self.model_path),
            "algorithm": "xmeans",
            "xmeans": {"kmin": 2, "kmax": s["kmax"], "seed": 0},
            "split": {"train_fraction": 0.7, "seed": self.seed},
            "train": {"max_iter": 300},
        }
        self.config_path.write_text(json.dumps(config), encoding="utf-8")

    def call(self, tracer=None, probed=False):
        """Runs the CLI once. With `tracer`, its spans join the tracer's;
        with `probed`, it runs under the host-speed probe and
        `self.reading` holds the probe's reading, or None if it wrote none."""
        args = ["pipeline", str(self.config_path)]
        if tracer is not None:
            spans_path = self.workdir / f"spans-{tracer.sample}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        elif probed:
            reading_path = self.workdir / "reading.json"
            reading_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "probed_cli.py"), str(reading_path), *args]
        else:
            cmd = [sys.executable, "-m", "cluster_mlp.cli", *args]
        proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
        if tracer is not None and spans_path.is_file():
            tracer.load(spans_path, tracer.sample)
            spans_path.unlink()
        if probed:
            self.reading = Reading.load(reading_path) if reading_path.is_file() else None
        return proc

    def check(self, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"CLI exited with {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"]
        body = json.loads(self.report_path.read_text(encoding="utf-8"))["body"]
        failures = []
        if body["k"] != self.size["k"]:
            failures.append(f"pipeline recovered k={body['k']}, expected {self.size['k']}")
        self.test_rms = body["metrics_test"]["rms"]
        if not self.test_rms <= self.ceiling:
            failures.append(f"test RMS {self.test_rms:.6g} above the ceiling {self.ceiling:.6g}")
        # The report body and the model file must not change between reruns.
        output = (json.dumps(body, sort_keys=True).encode(), self.model_path.read_bytes())
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            failures.append("report body or model file differs from the first run")
        return failures


class DensityCluster:
    """DBSCAN on ~3000 and MeanShift on ~1500 normalized 3-d blob rows: the
    density half of `clustering`, which shares no code with X-means, and the
    one workload whose peak RSS comes from an algorithm's temporary."""

    # MeanShift's iteration count follows the distances between the blob
    # centres, so the centres are one fixed synth_blobs draw and the seed
    # picks which points of that population each run clusters.
    LAYOUT_SEED = 0
    K = 5

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed, self.size = seed, size

    def setup(self) -> None:
        s = self.size
        pool = synth_blobs(k=self.K, per_cluster=s["pool"], d=3, separation=30.0, noise_std=1.0, seed=self.LAYOUT_SEED).features
        rng = np.random.default_rng(self.seed)
        self.dbscan_points = _normalized(pool[rng.choice(pool.shape[0], s["dbscan_n"], replace=False)])
        self.meanshift_points = _normalized(pool[rng.choice(pool.shape[0], s["meanshift_n"], replace=False)])

    def call(self):
        return (
            clustering.dbscan(self.dbscan_points, DbscanConfig(eps=0.3, min_pts=5)),
            clustering.meanshift(self.meanshift_points, MeanShiftConfig(bandwidth=0.5)),
        )

    def check(self, outcome) -> list[str]:
        return [f"{r.algorithm.value} recovered k={r.k}, expected {self.K}" for r in outcome if r.k != self.K]


WORKLOADS = {
    "xmeans-cluster": XMeansCluster,
    "width-sweep": WidthSweep,
    "csv-pipeline": CsvPipeline,
    "density-cluster": DensityCluster,
}

# Workloads whose calls run in child processes rather than in this one.
IN_CHILD = frozenset({"csv-pipeline"})


def make(name: str, seed: int, smoke: bool, workdir: Path):
    return WORKLOADS[name](seed, SIZES[name]["smoke" if smoke else "full"], workdir)
