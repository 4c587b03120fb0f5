"""Package-level bindings: submodules keep their names, and every
function the benchmark's tracer (perfbench/tracing.py) wraps exists."""

import importlib.util
import inspect
import json
import os
import subprocess
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


def loaded_scipy_modules(module: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after importing `module`."""
    code = (f"import json, sys, {module}; "
            "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))")
    tests = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(recoding.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy():
    """scipy loads only where a stationary law is solved."""
    assert loaded_scipy_modules("recoding.cli") == []


def test_oracles_load_scipy():
    """The benchmark worker reads scipy's version after loading the oracles,
    also in runs that never solved a law."""
    assert "scipy" in loaded_scipy_modules("oracles")
