"""The library names the benchmark's tracer wraps still exist.

`perfbench/tracer.py` replaces each (module, attribute) of its
LAYER_FUNCTIONS with a counting wrapper in every benchmark run, so a name
deleted or renamed in the library fails every run with an AttributeError.
This test loads the tracer by file path, without importing the benchmark as
a package, and looks each name up.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_benchmark_wrapped_names_exist(monkeypatch):
    # load without leaving a bytecode cache beside the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYER_FUNCTIONS
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _ in tracer.LAYER_FUNCTIONS
               if not hasattr(module, attr)]
    assert missing == []
