"""The benchmark's tracer (perfbench/tracing.py) finds what it wraps by name.
A rename in cluster_mlp would not break it; the per-layer metric defined on
the old name would just read 0. These checks make such a rename fail here."""

import importlib
import importlib.util
import inspect
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # the tracer's directory is only read
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def layer_functions(tracing) -> dict[str, object]:
    """Every function the tracer can wrap, as `layer.attribute`."""
    found = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"cluster_mlp.{layer}")
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__.startswith("cluster_mlp."):
                found[f"{layer}.{attr}"] = value
    return found


def test_private_wrapped_names_are_functions(tracing):
    names = {name.split(".", 1)[1] for name in layer_functions(tracing)}
    assert tracing.PRIVATE_WRAPPED <= names, sorted(tracing.PRIVATE_WRAPPED - names)


def test_named_spans_are_functions(tracing):
    functions = layer_functions(tracing)
    wanted = set(tracing.EXTRAS) | {f"dataset.{name}" for name in tracing.PREP}
    assert wanted <= set(functions), sorted(wanted - set(functions))


def test_dataset_take_exists():
    from cluster_mlp.dataset import Dataset

    assert inspect.isfunction(Dataset.take)


def test_split_objective_traced_on_the_calling_thread(tracing, monkeypatch):
    # The tracer keeps one span stack for all threads, so a wrapped function
    # called on the objective's helper thread would garble its counts. Every
    # evaluation enters through mlp.loss_and_gradient on the calling thread.
    from cluster_mlp import mlp
    from cluster_mlp.dataset import Dataset, NormalizationParams

    monkeypatch.setattr(mlp, "SPLIT_MIN_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    callers = []

    class CallerTracer(tracing.Tracer):
        def _open(self, name):
            callers.append(threading.get_ident())
            return super()._open(name)

    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(300, 2)), rng.normal(size=300), ("a", "b"), tuple(map(str, range(300))))
    norm = NormalizationParams(np.zeros(2), np.ones(2), 0.0, 1.0)
    tracer = CallerTracer()
    with tracer.installed(0):
        _, report = mlp.train(mlp.NetworkSpec(2, 3), ds, mlp.TrainConfig(max_iter=10, restarts=2), norm)
    names = [span[tracing.NAME] for span in tracer.spans]
    assert report.threads == 2
    assert names.count("mlp.loss_and_gradient") == report.objective_calls
    assert set(callers) == {threading.get_ident()}
    assert all(span[tracing.END] >= span[tracing.START] for span in tracer.spans)
