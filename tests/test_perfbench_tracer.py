"""Guard: every function the benchmark tracer wraps still exists.

``perfbench/tracer.py`` replaces functions by module and name while
``run.py --trace 1`` runs; a renamed or deleted function would silently drop
its per-layer metrics, so each entry must resolve to a callable.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name,name", [(module, name) for module, name, _ in _tracer().FUNCTIONS]
)
def test_traced_function_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))
