"""Benchmark of cluster-mlp: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cluster-mlp checkout. The program is driven only
through its public entry points, with one BLAS/OpenMP thread. The run sets
up its inputs from the seed, makes one warm-up call, then repeats the
workload's user-level call for S seconds and checks every output.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json. Their times are taken under the
host-speed probe (hostspeed.py) and scaled to its nominal host speed.
With --trace 1 it holds the per-layer metrics, taken without the probe
from traced calls that alternate with untraced ones. The lines before it
print the same metrics by name with their units, the sample counts, the
machine facts, the raw wall times and the host's slowdown per sample.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def _parse(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def _measure(fn, probe):
    """Runs fn under the probe, if any; returns its outcome, its wall
    seconds and the probe's reading (None without a probe)."""
    if probe is None:
        t = perf_counter()
        return fn(), perf_counter() - t, None
    probe.start()
    try:
        t = perf_counter()
        outcome = fn()
        wall = perf_counter() - t
    finally:
        reading = probe.stop()
    return outcome, wall, reading


def _scaled(wall: float, reading) -> float:
    return wall if reading is None else reading.scaled(wall)


def _machine() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _emit(metrics: dict, units: dict) -> dict:
    for name, value in metrics.items():
        print(f"{name:32s} {value:>14.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, spec)
    if not (SRC / "cluster_mlp" / "__init__.py").is_file():
        print(f"error: no cluster_mlp sources at {SRC}; run from the root of a cluster-mlp checkout",
              file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, so these are set before
    # the first numpy import; children inherit them.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    # End-to-end times are taken under the probe; the traced run takes
    # none, so that traced and untraced calls compare like with like.
    probe = None if args.trace else hostspeed.Probe()
    # Importing the workloads imports numpy and cluster_mlp.
    workloads, import_wall, reading = _measure(lambda: importlib.import_module("workloads"), probe)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.make(args.workload, args.seed, args.smoke, workdir)
        return _run(args, spec, workload, probe, _scaled(import_wall, reading))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec: dict, workload, probe, import_s: float) -> int:
    import tracing
    import workloads

    in_child = args.workload in workloads.IN_CHILD
    attempted = failed = 0
    test_rms = []
    raw_walls, slowdowns = [], []

    def call(tracer=None):
        """One checked user-level call; returns its time in seconds,
        scaled to the nominal host speed when taken under the probe."""
        nonlocal attempted, failed
        if tracer is not None and in_child:
            tracer.sample = attempted
            outcome, wall, reading = _measure(lambda: workload.call(tracer), None)
        elif tracer is not None:
            with tracer.installed(attempted):
                outcome, wall, reading = _measure(workload.call, None)
        elif in_child and probe is not None:
            # The probe runs in the CLI's process, where the work is done.
            outcome, wall, _ = _measure(lambda: workload.call(probed=True), None)
            reading = workload.reading
        else:
            outcome, wall, reading = _measure(workload.call, probe)
        if tracer is None:
            raw_walls.append(wall)
            slowdowns.append((reading.mean_s if reading else hostspeed.kernel()) / hostspeed.NOMINAL_S)
        problems = workload.check(outcome)
        attempted += 1
        if problems:
            failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
        test_rms.append(getattr(workload, "test_rms", 0.0))
        return _scaled(wall, reading)

    setups = []
    for _ in range(SETUP_REPEATS):
        _, wall, reading = _measure(workload.setup, probe)
        setups.append(_scaled(wall, reading))
    warmup_s = call()
    setup_s = import_s + statistics.median(setups) + warmup_s

    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls = [], {}
    min_samples = 2 if args.trace else 1
    # A sample starts only if one more call, as long as the last, still
    # ends within --seconds; so the run does not overrun its budget.
    start, last_s = perf_counter(), raw_walls[-1]
    while len(walls) + len(traced_walls) < min_samples or perf_counter() - start + last_s <= args.seconds:
        traced = tracer is not None and attempted % 2 == 0
        sample = attempted
        t = perf_counter()
        wall = call(tracer if traced else None)
        last_s = perf_counter() - t
        if traced:
            traced_walls[sample] = wall
        else:
            walls.append(wall)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"# workload {args.workload} seed {args.seed}: {len(walls)} untraced and "
          f"{len(traced_walls)} traced samples after one warm-up call")
    print(f"# machine {json.dumps(_machine(), sort_keys=True)}")
    print(f"# setup: import {import_s:.4f} s, median of {SETUP_REPEATS} input builds "
          f"{statistics.median(setups):.4f} s, warm-up call {warmup_s:.4f} s")
    scaling = "scaled to the nominal host speed" if probe is not None else "raw"
    print(f"# untraced call seconds per sample, {scaling}: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"# raw wall seconds per untraced call, warm-up first: {' '.join(f'{w:.4f}' for w in raw_walls)}")
    print(f"# host slowdown per untraced call, warm-up first: {' '.join(f'{s:.3f}' for s in slowdowns)}")
    print(f"# ops attempted {attempted}, failed {failed}")
    if tracer is None:
        who = resource.RUSAGE_CHILDREN if in_child else resource.RUSAGE_SELF
        end_to_end = {
            "wall_scaled_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        metrics = _emit(end_to_end, units)
    else:
        # Times of the traced run are raw, so the end-to-end metrics are
        # not printed under their names; the raw times are on the # lines.
        per_layer = tracing.layer_metrics(tracer.spans, traced_walls)
        per_layer["trace.overhead_s"] = statistics.median(traced_walls.values()) - statistics.median(walls)
        per_layer["trace.samples"] = len(traced_walls)
        per_layer["mlp.test_rms"] = statistics.median(test_rms)
        per_layer = {m["name"]: per_layer[m["name"]] for m in spec["per_layer"]}
        metrics = _emit(per_layer, units)
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
