"""Guard of the BLAS assumption behind the objective's two row parts.

    python3 tests/row_split_guard.py

`mlp.Workspace` with two parts computes `xs @ w1.T` (a gemm, or a gemv at
k = 1) and `h @ w2` (a gemv) one row part at a time, and gives the bits of
one part only if this BLAS computes each row part at the cut as it
computes the whole product. It does with one BLAS thread, the setting of
the benchmark and of scripts/output_digest.py; a multi-threaded BLAS
splits a large call's rows among its own threads, and then the parts can
round differently. So this script runs with one BLAS thread, and a BLAS
build that tiles rows differently fails here, not in the output digests.

It checks a grid of shapes at the workspace's own cut, then compares
loss_and_gradient with one and with two parts on random (shape, theta)
draws, among them row counts just above mlp.SPLIT_MIN_WORK / k, row counts
off the 64-row grid and k = 1. It prints the count of differing cases of
each check and exits 1 if any differs. tests/test_mlp.py runs it.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count when numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from cluster_mlp import mlp  # noqa: E402


def grid_mismatches() -> tuple[list[tuple[int, int, int]], int]:
    """Shapes whose row parts of the gemm or the gemv differ from the
    whole product, and the number of shapes checked."""
    rng = np.random.default_rng(0)
    shapes = [(n, d, k) for d in (1, 3, 10, 13) for n in (128, 130, 191, 1000, 4097, 8400, 25_001, 52_117)
              for k in (1, 2, 5, 8, 16)]
    bad = []
    for n, d, k in shapes:
        theta = rng.normal(size=k * (d + 2) + 1)
        w1, b1, w2 = theta[: k * d].reshape(k, d), theta[k * d : k * d + k], theta[k * d + k : -1]
        xs = rng.normal(size=(n, d))
        with mlp.Workspace(n, k, 2) as work:
            rows = work.rows
        pre = xs @ w1.T
        h = np.tanh(pre + b1)
        pred = h @ w2
        pre_parts, pred_parts = np.empty((n, k)), np.empty(n)
        for r in rows:
            np.matmul(xs[r], w1.T, out=pre_parts[r])
            np.matmul(h[r], w2, out=pred_parts[r])
        if not (np.array_equal(pre_parts, pre) and np.array_equal(pred_parts, pred)):
            bad.append((n, d, k))
    return bad, len(shapes)


def draw_mismatches() -> tuple[list[tuple[int, int, int]], int]:
    """(shape, theta) draws where two parts differ from one, and the number
    of draws."""
    rng = np.random.default_rng(33)
    shapes = [(int(np.exp(rng.uniform(np.log(130), np.log(70_000)))), int(rng.integers(1, 14)),
               int(rng.integers(1, 17))) for _ in range(180)]
    shapes += [(-(-mlp.SPLIT_MIN_WORK // k) + extra, 10, k) for k in (1, 4, 8, 16) for extra in (0, 1, 63)]
    shapes += [(n, 3, 1) for n in (1, 5, 63, 64, 127, 129, 191, 4095, 4161, 20_033, 52_117, 69_999)]
    bad = []
    for n, d, k in shapes:
        xs, ys = rng.normal(size=(n, d)), rng.normal(size=n)
        theta = rng.normal(size=k * (d + 2) + 1) * rng.uniform(0.1, 3.0)
        with mlp.Workspace(n, k, 2) as work:
            one_loss, one_grad = mlp.loss_and_gradient(theta, xs, ys)
            two_loss, two_grad = mlp.loss_and_gradient(theta, xs, ys, work)
        if one_loss != two_loss or not np.array_equal(one_grad, two_grad):
            bad.append((n, d, k))
    return bad, len(shapes)


def main() -> int:
    failed = False
    for name, (bad, total) in (("grid shapes", grid_mismatches()), ("draws", draw_mismatches())):
        print(f"{len(bad)} of {total} {name} differ" + (f": {bad}" if bad else ""))
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
