"""Three-layer perceptron regressor (d : k : 1) and its quasi-Newton trainer.

Hidden activation is tanh, output is linear. Training minimizes the halved
mean squared error with full-batch L-BFGS (two-loop recursion, strong Wolfe
line search) over the flat parameter vector theta in `flatten` order. Models
carry the normalization parameters they were trained with, so prediction
accepts raw features and returns raw-unit targets.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import cpus
from .dataset import Dataset, NormalizationParams, apply_normalization, require_field_types

MODEL_FORMAT_VERSION = 1

# The strong Wolfe constants of the line search: sufficient decrease (c1)
# and curvature (c2).
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9

# A training splits its objective's rows between two threads when n * k
# reaches this and its CPU budget holds two threads. Each evaluation then
# pays five thread handoffs. Measured with one BLAS thread at d = 10, the
# split objective was slower at 8,400 x 10, 30,000 x 5 and 10,000 x 16
# (n * k 84,000-160,000), even or faster at n * k = 200,000 (20,000 x 10,
# 25,000 x 8, 40,000 x 5, 100,000 x 2), and 17-40 % faster from 280,000
# on (52,117 x 8: -31 %).
SPLIT_MIN_WORK = 200_000


class NumericalError(Exception):
    """Non-finite values encountered during optimization."""


@dataclass(frozen=True)
class NetworkSpec:
    input_width: int
    hidden_width: int

    def __post_init__(self):
        if self.input_width < 1 or self.hidden_width < 1:
            raise ValueError("layer widths must be positive")

    def __str__(self) -> str:
        return f"{self.input_width}:{self.hidden_width}:1"

    @property
    def n_params(self) -> int:
        d, k = self.input_width, self.hidden_width
        return k * d + k + k + 1


@dataclass(frozen=True)
class MlpModel:
    w1: np.ndarray  # (k, d)
    b1: np.ndarray  # (k,)
    w2: np.ndarray  # (k,)
    b2: float
    norm: NormalizationParams

    def __post_init__(self):
        for arr in (self.w1, self.b1, self.w2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model weights must be finite")
        if not np.isfinite(self.b2):
            raise ValueError("model weights must be finite")
        k, d = self.w1.shape
        if self.b1.shape != (k,) or self.w2.shape != (k,):
            raise ValueError("inconsistent layer shapes")

    @property
    def spec(self) -> NetworkSpec:
        k, d = self.w1.shape
        return NetworkSpec(input_width=d, hidden_width=k)


@dataclass(frozen=True)
class TrainConfig:
    lbfgs_memory: int = 10
    max_iter: int = 300
    grad_tol: float = 1e-6
    init_scale_seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        require_field_types(self)
        if self.lbfgs_memory < 1 or self.max_iter < 1 or self.restarts < 1:
            raise ValueError("memory, max_iter, restarts must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class TrainReport:
    final_loss: float
    iterations: int
    converged: bool
    objective_calls: int  # objective evaluations, line searches included
    grad_inf_norm: float  # ||grad||_inf at the returned point
    restart_losses: tuple[float, ...]  # each restart's final loss, in restart order
    threads: int = 1  # threads that evaluated the objective


def init_model(spec: NetworkSpec, seed: int, norm: NormalizationParams | None = None) -> MlpModel:
    """Uniform weights in +/- sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    d, k = spec.input_width, spec.hidden_width
    lim1 = np.sqrt(6.0 / (d + k))
    lim2 = np.sqrt(6.0 / (k + 1))
    if norm is None:
        norm = NormalizationParams(
            center=np.zeros(d), scale=np.ones(d), target_center=0.0, target_scale=1.0
        )
    return MlpModel(
        w1=rng.uniform(-lim1, lim1, size=(k, d)),
        b1=np.zeros(k),
        w2=rng.uniform(-lim2, lim2, size=k),
        b2=0.0,
        norm=norm,
    )


def forward(m: MlpModel, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (m.w1.shape[1],):
        raise ValueError(f"expected input of length {m.w1.shape[1]}, got shape {x.shape}")
    return float(m.w2 @ np.tanh(m.w1 @ x + m.b1) + m.b2)


def forward_batch(m: MlpModel, xs: np.ndarray) -> np.ndarray:
    return np.tanh(xs @ m.w1.T + m.b1) @ m.w2 + m.b2


def flatten(m: MlpModel) -> np.ndarray:
    """Canonical flattening: w1 row-major, b1, w2, b2."""
    return np.concatenate([m.w1.ravel(), m.b1, m.w2, [m.b2]])


def unflatten(theta: np.ndarray, spec: NetworkSpec, norm: NormalizationParams) -> MlpModel:
    d, k = spec.input_width, spec.hidden_width
    if theta.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got {theta.shape}")
    w1 = theta[: k * d].reshape(k, d)
    b1 = theta[k * d : k * d + k]
    w2 = theta[k * d + k : k * d + 2 * k]
    b2 = float(theta[-1])
    return MlpModel(w1=w1.copy(), b1=b1.copy(), w2=w2.copy(), b2=b2, norm=norm)


class Workspace:
    """The buffers of one training's objective, reused by every evaluation
    and restart, split into row parts: one part, or two with a helper thread
    that evaluates the second. Use it as a context manager; leaving it stops
    and joins the helper.

    The row-wise steps run on each part's rows: `xs @ w1.T`, the bias add,
    tanh, `h @ w2`, the residual and its square, `/ n`, the outer product
    with w2 and `1 - h**2`. No sum is split: each reduction runs whole on
    one part, and the two parts run different reductions at the same time.
    The cut is a multiple of 64 rows, where a single-threaded BLAS computes
    a row slice of a gemm or gemv as it computes the whole product, so two
    parts give the bits of one (tests/row_split_guard.py checks this build).
    A multi-threaded BLAS splits the rows of a large call again among its
    own threads, and then the two can differ in the last bits."""

    def __init__(self, n: int, k: int, parts: int = 1):
        if parts not in (1, 2):
            raise ValueError(f"parts must be 1 or 2, got {parts!r}")
        self.h, self.d_h = np.empty((n, k)), np.empty((n, k))
        self.resid, self.sq = np.empty(n), np.empty(n)
        cut = (n // 2) // 64 * 64 if parts == 2 else n
        self.rows = (slice(0, cut), slice(cut, n))[:parts]
        self._barrier = threading.Barrier(parts)
        self._failure: BaseException | None = None
        self._helper = None
        if parts == 2:
            self._helper = threading.Thread(target=self._serve)
            self._helper.start()

    @property
    def parts(self) -> int:
        return len(self.rows)

    def __enter__(self) -> Workspace:
        return self

    def __exit__(self, *exc) -> None:
        self._barrier.abort()  # the helper stops at its next wait
        if self._helper is not None:
            self._helper.join()

    def _evaluate(self, theta: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[float, np.ndarray]:
        """loss_and_gradient's work, on arguments it has checked."""
        d = xs.shape[1]
        k = self.h.shape[1]
        w1 = theta[: k * d].reshape(k, d)
        self._args = (xs, ys, w1, theta[k * d : k * d + k], theta[k * d + k : k * d + 2 * k], theta[-1])
        try:
            self._sync()  # the helper starts its part
            self._part(0)
            self._sync()  # ... and has ended it
        except BaseException:
            self._barrier.abort()
            raise
        return self.loss, np.concatenate([self.g_w1.ravel(), self.g_b1, self.g_w2, [self.g_b2]])

    def _sync(self) -> None:
        """Waits for the other part; one part has none to wait for. A failure
        of the helper is raised in the caller."""
        if self._helper is None:
            return
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            if self._failure is not None:
                raise self._failure from None
            raise

    def _serve(self) -> None:
        """The helper's loop: part 1 of each evaluation, until the barrier
        is aborted."""
        try:
            while True:
                self._sync()
                self._part(1)
                self._sync()
        except threading.BrokenBarrierError:
            pass  # closed, or the caller failed
        except BaseException as e:
            self._failure = e
            self._barrier.abort()

    def _part(self, p: int) -> None:
        """Part p's rows of each row-wise step, and its reductions: part 0
        takes the loss and the b2 and w1 gradients, the last part those of
        w2 and b1. A sync separates the steps that read the other part's
        rows. In place, each step rounds as in the plain expressions,
        d_h = outer(d_pred, w2) * (1 - h**2) included."""
        xs, ys, w1, b1, w2, b2 = self._args
        rows = self.rows[p]
        first, last = p == 0, p == self.parts - 1
        h, d_h, resid, sq = self.h[rows], self.d_h[rows], self.resid[rows], self.sq[rows]
        np.matmul(xs[rows], w1.T, out=h)
        h += b1
        np.tanh(h, out=h)
        np.matmul(h, w2, out=resid)
        resid += b2
        resid -= ys[rows]
        np.square(resid, out=sq)
        resid /= xs.shape[0]  # now d_pred
        np.multiply(resid[:, None], w2, out=d_h)
        self._sync()
        if first:
            self.loss = float(0.5 * np.mean(self.sq))
            self.g_b2 = float(self.resid.sum())
        if last:
            self.g_w2 = self.h.T @ self.resid  # before 1 - h**2 overwrites h
        self._sync()
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
        d_h *= h
        self._sync()
        if first:
            self.g_w1 = self.d_h.T @ xs
        if last:
            self.g_b1 = self.d_h.sum(axis=0)


def loss_and_gradient(
    theta: np.ndarray, xs: np.ndarray, ys: np.ndarray, work: Workspace | None = None
) -> tuple[float, np.ndarray]:
    """Halved MSE and its exact analytic gradient, both in flattening order,
    evaluated in `work` (a fresh one-part workspace when None). One and two
    parts give the same bits with a single-threaded BLAS (see Workspace).

    w1, b1, w2 and b2 are read as views of theta; the hidden width k follows
    from len(theta) = k * (d + 2) + 1 with d the width of xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, d = xs.shape
    k = (theta.size - 1) // (d + 2)
    if k < 1 or theta.shape != (k * (d + 2) + 1,) or ys.shape != (n,):
        raise ValueError(f"theta {theta.shape} and ys {ys.shape} do not fit a batch of shape {xs.shape}")
    if work is None:
        work = Workspace(n, k)
    elif work.h.shape != (n, k):
        raise ValueError(f"workspace of shape {work.h.shape} does not fit {n} rows and width {k}")
    return work._evaluate(theta, xs, ys)


def _quadratic_interp(a_lo, f_lo, g_lo, a_hi, f_hi) -> float:
    # quadratic interpolation fallback keeps the zoom step simple and safe
    denom = 2.0 * (f_hi - f_lo - g_lo * (a_hi - a_lo))
    if denom == 0.0:
        return 0.5 * (a_lo + a_hi)
    a = a_lo - g_lo * (a_hi - a_lo) ** 2 / denom
    lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
    span = hi - lo
    if not np.isfinite(a) or a < lo + 0.1 * span or a > hi - 0.1 * span:
        return 0.5 * (a_lo + a_hi)
    return float(a)


def _strong_wolfe(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    f0: float,
    g0: np.ndarray,
    direction: np.ndarray,
    max_evals: int = 50,
) -> tuple[float, float, np.ndarray]:
    """Bracketing-and-zoom line search; returns (alpha, f, grad) at the
    accepted point satisfying the strong Wolfe conditions with WOLFE_C1 and
    WOLFE_C2."""
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0:
        raise NumericalError("line search requires a descent direction")

    def phi(alpha: float) -> tuple[float, np.ndarray, float]:
        f, g = objective(x + alpha * direction)
        return f, g, float(g @ direction)

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi, evals) -> tuple[float, float, np.ndarray]:
        for _ in range(max_evals - evals):
            a = _quadratic_interp(a_lo, f_lo, d_lo, a_hi, f_hi)
            f, g, dphi = phi(a)
            if f > f0 + WOLFE_C1 * a * dphi0 or f >= f_lo:
                a_hi, f_hi = a, f
            else:
                if abs(dphi) <= -WOLFE_C2 * dphi0:
                    return a, f, g
                if dphi * (a_hi - a_lo) >= 0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, d_lo = a, f, dphi
            if abs(a_hi - a_lo) < 1e-16:
                break
        f, g, _ = phi(a_lo)
        return a_lo, f, g

    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    a = 1.0
    for i in range(max_evals):
        f, g, dphi = phi(a)
        if not np.isfinite(f):
            a = 0.5 * (a_prev + a)
            continue
        if f > f0 + WOLFE_C1 * a * dphi0 or (f >= f_prev and i > 0):
            return zoom(a_prev, f_prev, d_prev, a, f, i + 1)
        if abs(dphi) <= -WOLFE_C2 * dphi0:
            return a, f, g
        if dphi >= 0:
            return zoom(a, f, dphi, a_prev, f_prev, i + 1)
        a_prev, f_prev, d_prev = a, f, dphi
        a *= 2.0
    # exhausted the budget: fall back to the last finite trial point
    f, g = objective(x + a_prev * direction)
    return a_prev, f, g


def lbfgs_minimize(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    cfg: TrainConfig,
) -> tuple[np.ndarray, TrainReport]:
    """Two-loop-recursion L-BFGS with strong Wolfe line search.

    Stops at ||grad||_inf < grad_tol or max_iter. Curvature pairs with
    s'y <= 1e-10 ||s|| ||y|| are discarded; the initial inverse-Hessian
    scale is s'y / y'y from the most recent kept pair.
    """
    calls = 0

    def counted(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal calls
        calls += 1
        return objective(theta)

    x = np.array(x0, dtype=float)
    f, g = counted(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise NumericalError("non-finite objective or gradient at iteration 0")

    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=cfg.lbfgs_memory)
    iterations = 0
    grad_inf = float(np.max(np.abs(g)))

    while grad_inf >= cfg.grad_tol and iterations < cfg.max_iter:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(history):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if history:
            s, y, _ = history[-1]
            gamma = (s @ y) / (y @ y)
            q *= gamma
        for (s, y, rho), a in zip(history, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        direction = -q
        if g @ direction >= 0:
            direction = -g  # restart on a non-descent direction

        alpha, f_new, g_new = _strong_wolfe(counted, x, f, g, direction)
        if not (np.isfinite(f_new) and np.all(np.isfinite(g_new))):
            raise NumericalError(f"non-finite objective or gradient at iteration {iterations + 1}")
        x_new = x + alpha * direction
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            history.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
        iterations += 1
        grad_inf = float(np.max(np.abs(g)))

    return x, TrainReport(
        final_loss=float(f),
        iterations=iterations,
        converged=grad_inf < cfg.grad_tol,
        objective_calls=calls,
        grad_inf_norm=grad_inf,
        restart_losses=(float(f),),
    )


def train(
    spec: NetworkSpec,
    train_set: Dataset,
    cfg: TrainConfig,
    norm: NormalizationParams,
) -> tuple[MlpModel, TrainReport]:
    """Trains on a training set z-scored with `norm`, which the model
    carries. Runs cfg.restarts seeded initializations and keeps the model
    with the lowest final training loss (ties: lowest restart index). The
    report is the kept restart's, with iterations and objective calls summed
    over all restarts and every restart's final loss listed.

    The objective splits its rows between two threads when n * k reaches
    SPLIT_MIN_WORK and the CPU budget (cpus.budget) holds two; with a
    single-threaded BLAS the result is the same bit for bit."""
    if train_set.d != spec.input_width:
        raise ValueError(f"dataset width {train_set.d} does not match spec {spec}")
    xs, ys = train_set.features, train_set.targets
    k = spec.hidden_width
    parts = 2 if train_set.n * k >= SPLIT_MIN_WORK and cpus.budget() >= 2 else 1
    with Workspace(train_set.n, k, parts) as work:

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            return loss_and_gradient(theta, xs, ys, work)

        runs = [
            lbfgs_minimize(objective, flatten(init_model(spec, cfg.init_scale_seed + r)), cfg)
            for r in range(cfg.restarts)
        ]
    theta, rep = min(runs, key=lambda run: run[1].final_loss)
    totals = replace(
        rep,
        iterations=sum(r.iterations for _, r in runs),
        objective_calls=sum(r.objective_calls for _, r in runs),
        restart_losses=tuple(r.final_loss for _, r in runs),
        threads=parts,
    )
    return unflatten(theta, spec, norm), totals


def predict(m: MlpModel, ds: Dataset) -> np.ndarray:
    """Predicts raw-unit targets from raw features."""
    if ds.d != m.w1.shape[1]:
        raise ValueError(f"dataset width {ds.d} does not match model input {m.w1.shape[1]}")
    z = forward_batch(m, apply_normalization(ds, m.norm).features)
    return z * m.norm.target_scale + m.norm.target_center


def save_model(m: MlpModel, path) -> None:
    """Versioned JSON document; floats at 17 significant digits so the
    save -> load -> predict round trip is bit-identical."""
    def f17(v: float) -> str:
        return f"{v:.17g}"

    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": {"input_width": m.spec.input_width, "hidden_width": m.spec.hidden_width, "output_width": 1},
        "w1": [[f17(v) for v in row] for row in m.w1],
        "b1": [f17(v) for v in m.b1],
        "w2": [f17(v) for v in m.w2],
        "b2": f17(m.b2),
        "norm": {
            "center": [f17(v) for v in m.norm.center],
            "scale": [f17(v) for v in m.norm.scale],
            "target_center": f17(m.norm.target_center),
            "target_scale": f17(m.norm.target_scale),
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_model(path) -> MlpModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {doc.get('format_version')}")
    norm = NormalizationParams(
        center=np.array([float(v) for v in doc["norm"]["center"]]),
        scale=np.array([float(v) for v in doc["norm"]["scale"]]),
        target_center=float(doc["norm"]["target_center"]),
        target_scale=float(doc["norm"]["target_scale"]),
    )
    return MlpModel(
        w1=np.array([[float(v) for v in row] for row in doc["w1"]]),
        b1=np.array([float(v) for v in doc["b1"]]),
        w2=np.array([float(v) for v in doc["w2"]]),
        b2=float(doc["b2"]),
        norm=norm,
    )
