#!/usr/bin/env python3
"""SHA-256 digests of every output the benchmark's checks look at.

    python3 scripts/output_digest.py [--workloads NAME ...] [--seeds N ...] [--check FILE]

For each workload and seed this builds the inputs of perfbench/workloads.py
at full size, makes one call and hashes its output:

- xmeans-cluster: the X-means labels and centroids;
- width-sweep: each sweep entry's width, test RMS and correlation, and the
  best width;
- csv-pipeline: the report body as canonical JSON and the model file bytes;
- density-cluster: the DBSCAN labels and cluster means, and the MeanShift
  labels and modes.

It prints one digest per workload and seed, then one over all of them. Two
checkouts that print the same lines computed bit-identical outputs. Like
the benchmark, it runs with one BLAS/OpenMP thread; scratch files go to the
system temporary directory.

Digests depend on the numpy and BLAS build, so the script first writes that
build to standard error as `#` lines. `scripts/output_digests.txt` holds
those lines and the listing of the default workloads and seeds:

    python3 scripts/output_digest.py > listing.txt 2> build.txt
    cat build.txt listing.txt > scripts/output_digests.txt

Every call's output also goes through the workload's own check (the one the
benchmark runs); when any fails, the script prints `checks: F of N failed`
and exits 1. A scan over many seeds is one command:

    python3 scripts/output_digest.py --workloads xmeans-cluster --seeds $(seq 0 199)

`--check FILE` compares each computed digest with the line of FILE for the
same workload and seed, names every one that differs or is missing, and
exits 1 if any does. It notes when FILE's build lines are not this build's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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


def _build_lines() -> list[str]:
    """The numpy and BLAS build, as `#` lines."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', 'no details')})"
    except (TypeError, KeyError):  # an older numpy has no dict mode
        blas_text = "unknown"
    return [
        f"# numpy {np.__version__}, python {platform.python_version()}, {platform.machine()}",
        f"# BLAS {blas_text}",
    ]


def _check(computed: dict, path: Path) -> int:
    """0 if every computed digest equals FILE's; else names each that does not."""
    lines = path.read_text(encoding="utf-8").splitlines()
    expected = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[1] == "seed":
            expected[(fields[0], int(fields[2]))] = fields[3]
    if [line for line in lines if line.startswith("#")] != _build_lines():
        print(f"note: {path} was made with another numpy or BLAS build", file=sys.stderr)
    bad = 0
    for (name, seed), digest in computed.items():
        if (name, seed) not in expected:
            print(f"check: {name} seed {seed} missing from {path}", file=sys.stderr)
            bad += 1
        elif expected[(name, seed)] != digest:
            print(f"check: {name} seed {seed} differs from {path}", file=sys.stderr)
            bad += 1
    if bad:
        print(f"check failed: {bad} of {len(computed)} digests", file=sys.stderr)
        return 1
    print(f"check passed: {len(computed)} digests equal {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    p.add_argument("--check", metavar="FILE", type=Path, help="compare the digests with a committed listing")
    args = p.parse_args(argv)
    if args.check is not None and not args.check.is_file():
        p.error(f"no such file: {args.check}")

    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from run import THREAD_VARS

    # BLAS reads its thread count when numpy loads; the CLI child inherits both.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    import workloads

    for line in _build_lines():
        print(line, file=sys.stderr)
    computed = {}
    failed = 0
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        for name in args.workloads:
            for seed in args.seeds:
                workdir = Path(tmp) / f"{name}-{seed}"
                workdir.mkdir()
                workload = workloads.make(name, seed, False, workdir)
                workload.setup()
                outcome = workload.call()
                problems = workload.check(outcome)
                for problem in problems:
                    print(f"{name} seed {seed}: check failed: {problem}", file=sys.stderr)
                failed += bool(problems)
                digest = hashlib.sha256()
                for part in _parts(name, workload, outcome):
                    digest.update(part)
                computed[(name, seed)] = digest.hexdigest()
                line = f"{name:16s} seed {seed:<3d} {digest.hexdigest()}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
    print(f"{'all':16s} {total.hexdigest()}")
    status = 0 if args.check is None else _check(computed, args.check)
    if failed:
        print(f"checks: {failed} of {len(computed)} failed", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
