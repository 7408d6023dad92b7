"""The span tracer in ``perfbench/tracer.py`` patches qmeter by name: every
function it wraps must still exist where it looks, or a traced benchmark run
fails.  The tracer module is loaded by path and only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qmeter.cycle import CycleEngine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("span, module, attr", tracer.PATCHES)
def test_patched_functions_exist(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("span, attr", tracer.METHODS)
def test_patched_engine_methods_exist(span, attr):
    assert callable(getattr(CycleEngine, attr, None)), f"CycleEngine.{attr}"
