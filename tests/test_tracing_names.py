"""The benchmark's tracer (perfbench/tracing.py) finds what it wraps by name.
A rename in cluster_mlp would not break it; the per-layer metric defined on
the old name would just read 0. These checks make such a rename fail here."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

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
