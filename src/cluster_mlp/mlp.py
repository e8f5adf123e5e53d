"""Three-layer perceptron regressor (d : k : 1) and its quasi-Newton trainer.

Hidden activation is tanh, output is linear. Training minimizes the halved
mean squared error with full-batch L-BFGS (two-loop recursion, strong Wolfe
line search) over the flat parameter vector theta in `flatten` order. Models
carry the normalization parameters they were trained with, so prediction
accepts raw features and returns raw-unit targets.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import Dataset, NormalizationParams, apply_normalization, fit_normalization, require_field_types

MODEL_FORMAT_VERSION = 1

# The strong Wolfe constants of the line search: sufficient decrease (c1)
# and curvature (c2).
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9


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


def loss_and_gradient(theta: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[float, np.ndarray]:
    """Halved MSE and its exact analytic gradient, both in flattening order.

    w1, b1, w2 and b2 are read as views of theta; the hidden width k follows
    from len(theta) = k * (d + 2) + 1 with d the width of xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, d = xs.shape
    k = (theta.size - 1) // (d + 2)
    if k < 1 or theta.shape != (k * (d + 2) + 1,) or ys.shape != (n,):
        raise ValueError(f"theta {theta.shape} and ys {ys.shape} do not fit a batch of shape {xs.shape}")
    w1 = theta[: k * d].reshape(k, d)
    b1 = theta[k * d : k * d + k]
    w2 = theta[k * d + k : k * d + 2 * k]
    # In place: one (n, k) buffer holds the pre-activation, then h, then
    # 1 - h^2, and one (n,) buffer the residual, then d_pred. Each step
    # rounds as in the plain expressions, d_h = outer(d_pred, w2) * (1 - h**2)
    # included, so loss and gradient are bit-identical to them.
    h = xs @ w1.T
    h += b1
    np.tanh(h, out=h)
    resid = h @ w2
    resid += theta[-1]
    resid -= ys
    loss = float(0.5 * np.mean(resid**2))

    d_pred = resid
    d_pred /= n
    g_w2 = h.T @ d_pred
    g_b2 = float(d_pred.sum())
    d_h = np.outer(d_pred, w2)
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    d_h *= h
    g_w1 = d_h.T @ xs
    g_b1 = d_h.sum(axis=0)
    grad = np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])
    return loss, grad


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
    norm: NormalizationParams | None = None,
) -> tuple[MlpModel, TrainReport]:
    """Trains on the given raw dataset; normalization is fit here when not
    supplied. Runs cfg.restarts seeded initializations and keeps the model
    with the lowest final training loss (ties: lowest restart index). The
    report is the kept restart's, with iterations and objective calls summed
    over all restarts and every restart's final loss listed."""
    if train_set.d != spec.input_width:
        raise ValueError(f"dataset width {train_set.d} does not match spec {spec}")
    if norm is None:
        norm = fit_normalization(train_set)
    normalized = apply_normalization(train_set, norm)
    xs, ys = normalized.features, normalized.targets

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        return loss_and_gradient(theta, xs, ys)

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
