"""Guard: packages export lazily, and each run loads only the layers it uses.

Every package ``__init__`` but two lists its exports in one lazy table
(``repro._exports``), so importing a package imports none of its
submodules.  These tests run in fresh interpreters, where the import order
is the one under test rather than whatever earlier tests left behind:

* every name in a package ``__all__`` resolves, after all submodules are
  imported, to the object its defining module binds -- never to a
  submodule that shares its name -- and is listed by ``dir(package)``;
* the cell and structural-ATPG registries fill themselves from the module
  that owns them, with no help from a package ``__init__``;
* the paper's Table-1 path imports none of the gate-level ATPG stack.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str):
    """Run *code* in a fresh interpreter and return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_export_resolves_to_its_defining_object():
    problems = _run("""
        import importlib, inspect, json, pkgutil, sys
        import repro

        names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
        modules = [importlib.import_module(name) for name in names]
        plain = [m for m in modules if not hasattr(m, "__path__")]
        problems = []
        for package in [m for m in modules if hasattr(m, "__path__")]:
            for name in package.__all__:
                where = f"{package.__name__}.{name}"
                value = getattr(package, name)
                if inspect.ismodule(value):
                    problems.append(f"{where} is a module")
                    continue
                if name not in dir(package):
                    problems.append(f"{where} is missing from dir()")
                home = sys.modules.get(getattr(value, "__module__", None) or "")
                if getattr(value, "__name__", None) == name and home is not None:
                    if vars(home).get(name) is not value:
                        problems.append(f"{where} differs from {home.__name__}.{name}")
                elif not any(vars(m).get(name) is value for m in plain):
                    problems.append(f"{where} is bound by no defining module")
        # The root package lists its subpackages.
        for name in repro.__all__:
            if not inspect.ismodule(getattr(repro, name)):
                problems.append(f"repro.{name} is not a subpackage")
        print(json.dumps(problems))
    """)
    assert problems == []


def test_cell_registry_fills_from_the_builder_alone():
    cells = _run("""
        import json
        from repro.cells.builder import available_cells
        print(json.dumps(available_cells()))
    """)
    assert cells == [
        "AOI21", "INV", "NAND", "NAND2", "NAND3", "NOR", "NOR2", "NOR3", "NOT", "OAI21",
    ]


def test_atpg_engine_registry_fills_from_the_engine_module_alone():
    engines = _run("""
        import json
        from repro.atpg.structural.engine import atpg_engine_names
        print(json.dumps(atpg_engine_names()))
    """)
    assert engines == ["d-alg", "podem"]


def test_table1_path_imports_no_logic_test_stack():
    loaded = _run("""
        import json, sys
        from repro.experiments import run_table1
        print(json.dumps(sorted(sys.modules)))
    """)
    heavy = (
        "repro.atpg", "repro.campaign", "repro.service", "repro.analysis_static",
        "repro.faults", "repro.testing", "repro.logic.compiled",
    )
    assert [m for m in loaded if m.startswith(heavy)] == []
