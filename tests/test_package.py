"""Package-level bindings: submodules keep their names, and every
function the benchmark's tracer (perfbench/tracing.py) wraps exists."""

import importlib.util
import inspect
import sys
from pathlib import Path

import recoding
import recoding.transfer


def test_transfer_submodule_is_not_shadowed():
    assert inspect.ismodule(recoding.transfer)


def test_benchmark_tracer_resolves_every_traced_name():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(tracing)
        tracing.Tracer()  # KeyError if a traced name is gone: it reads vars(holder)[attr]
    finally:
        del sys.modules[spec.name]
