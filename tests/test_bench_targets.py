"""The benchmark's tracer wraps package functions by name; each must exist.

A name the tracer cannot find is reported as absent and its per-layer
metrics drop out of the benchmark's result line.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, name, kind", _targets(), ids=str)
def test_target_is_callable(module, name, kind):
    owner = importlib.import_module(f"manypairs.{module}")
    assert callable(getattr(owner, name, None)), f"manypairs.{module}.{name}"


@pytest.mark.parametrize("module, name, parameters", [
    ("optimize", "family_chsh", ("n", "strategy")),
    ("simulate", "write_jsonl", ("path",)),
    ("simulate", "write_csv", ("path",)),
], ids=str)
def test_traced_parameter_names(module, name, parameters):
    # the tracer reads these arguments by name; were one renamed, it
    # would report optimize.response_build.s or simulate.bytes_written
    # as 0 without an error
    owner = importlib.import_module(f"manypairs.{module}")
    assert set(parameters) <= set(
        inspect.signature(getattr(owner, name)).parameters)
