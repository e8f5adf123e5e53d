#!/usr/bin/env python3
"""SHA-256 digests of every output the benchmark's checks look at.

    python3 scripts/output_digest.py [--workloads NAME ...] [--seeds N ...]

For each workload and seed this builds the inputs of perfbench/workloads.py
at full size, makes one call and hashes its output:

- xmeans-cluster: the X-means labels and centroids;
- width-sweep: every sweep entry except its training_seconds;
- csv-pipeline: the report body as canonical JSON and the model file bytes;
- density-cluster: the DBSCAN labels and cluster means, and the MeanShift
  labels and modes.

It prints one digest per workload and seed, then one over all of them. Two
checkouts that print the same lines computed bit-identical outputs. Like
the benchmark, it runs with one BLAS/OpenMP thread; scratch files go to the
system temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("xmeans-cluster", "width-sweep", "csv-pipeline", "density-cluster")


def _parts(name: str, workload, outcome):
    """The bytes of one call's checked output."""
    if name == "xmeans-cluster":
        _, result = outcome
        return [result.labels.tobytes(), result.representatives.tobytes()]
    if name == "width-sweep":
        entries = [(e.hidden_width, e.rms_test, e.correlation) for e in outcome.entries]
        return [repr((entries, outcome.best_hidden_width)).encode()]
    if name == "csv-pipeline":
        body = json.loads(workload.report_path.read_text(encoding="utf-8"))["body"]
        return [json.dumps(body, sort_keys=True).encode(), workload.model_path.read_bytes()]
    return [array.tobytes() for result in outcome for array in (result.labels, result.representatives)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    args = p.parse_args(argv)

    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from run import THREAD_VARS

    # BLAS reads its thread count when numpy loads; the CLI child inherits both.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    import workloads

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        for name in args.workloads:
            for seed in args.seeds:
                workdir = Path(tmp) / f"{name}-{seed}"
                workdir.mkdir()
                workload = workloads.make(name, seed, False, workdir)
                workload.setup()
                outcome = workload.call()
                for problem in workload.check(outcome):
                    print(f"{name} seed {seed}: check failed: {problem}", file=sys.stderr)
                digest = hashlib.sha256()
                for part in _parts(name, workload, outcome):
                    digest.update(part)
                line = f"{name:16s} seed {seed:<3d} {digest.hexdigest()}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
    print(f"{'all':16s} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
