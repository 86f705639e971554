"""Guard: every public name of the program is used by the code that runs.

A name in a package's ``__all__``, and every public module-level function and
public method defined under ``src/repro``, must be referenced somewhere in
the program: a module under ``src/repro`` (package ``__init__`` files, which
only re-export, do not count), a benchmark, an example or a perfbench script.
Tests do not count either, so a definition that only its own tests keep alive
fails here and should be deleted with them.  References are matched by name,
so a method counts as used when any program code names it (an override is
kept alive by the call through its base class).  ``ALLOWED_UNUSED`` names the
few definitions that a remaining test checks the program against; it cannot
go stale, because each entry must still be defined and still be unused.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PROGRAM_DIRS = ("benchmarks", "examples", "perfbench")

#: Public names no program module uses, each kept because a test checks
#: other code against it (or reaches other code through it).
ALLOWED_UNUSED = {
    # Exported functions.
    "evaluate_gate_values": "reference gate evaluation the compiled kernels are checked against",
    "structurally_equal": "oracle of the .bench write/parse round-trip tests",
    "output_switches": "the paper's output-must-switch rule, asserted beside the OBD excitation rule",
    "is_sensitized": "path sensitization reference the path-delay fault simulators are checked against",
    # Functions and methods.
    "evaluate5": "five-valued gate evaluation the structural ATPG tables are checked against",
    "stamp": "Element.stamp, the scalar MNA reference the compiled stamp plan is checked against",
    "drain_current": "Mosfet device current, the KCL check of solved operating points",
    "loads_of": "fan-out by netlist scan, the reference for the compiled fan-out index",
    "levelize": "net levels by name, on which the compiled levelization is checked",
    "stage_at": "time-to-stage lookup, the inverse time_of_stage is checked against",
    "shard_files": "lists a checkpoint's shard files, which the recovery tests count and damage",
    "add_current_source": "builds the current sources of the stamp-plan parity fixtures",
}


def _packages() -> list[str]:
    return sorted(
        ".".join(("repro",) + path.parent.relative_to(SRC).parts)
        for path in SRC.rglob("__init__.py")
    )


def _program_files() -> list[Path]:
    files = [path for path in SRC.rglob("*.py") if path.name != "__init__.py"]
    for directory in PROGRAM_DIRS:
        files.extend((ROOT / directory).rglob("*.py"))
    return sorted(files)


def _referenced_names() -> set[str]:
    names: set[str] = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def _definitions() -> dict[str, list[str]]:
    """Every public module-level function and public method under ``src/repro``,
    by name, with where it is defined."""
    definitions: dict[str, list[str]] = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions):
                found = [(node.name, f"{module}:{node.name}")]
            elif isinstance(node, ast.ClassDef):
                found = [(item.name, f"{module}:{node.name}.{item.name}")
                         for item in node.body if isinstance(item, functions)]
            else:
                continue
            for name, where in found:
                if not name.startswith("_"):
                    definitions.setdefault(name, []).append(where)
    return definitions


def _exports() -> dict[str, list[str]]:
    """Every non-module name in a package ``__all__``, with its packages."""
    exports: dict[str, list[str]] = {}
    for name in _packages():
        package = importlib.import_module(name)
        for export in getattr(package, "__all__", ()):
            if not hasattr(package, export):  # a submodule not imported yet
                importlib.import_module(f"{name}.{export}")
            if not inspect.ismodule(getattr(package, export)):
                exports.setdefault(export, []).append(name)
    return exports


@pytest.fixture(scope="module")
def unused() -> dict[str, list[str]]:
    """Exports and definitions that no program code names, with where they live."""
    referenced = _referenced_names()
    found: dict[str, list[str]] = {}
    for public in (_exports(), _definitions()):
        for name, places in public.items():
            if name not in referenced:
                found.setdefault(name, []).extend(places)
    return found


def test_scan_sees_the_program():
    assert len(_packages()) >= 10
    names = _referenced_names()
    # Imported by name, called as an attribute, and wrapped by string.
    assert {"simulate_pattern", "run", "measure_gate_obd_delay"} <= names


def test_scan_sees_methods_and_functions():
    definitions = _definitions()
    assert "src/repro/spice/waveform.py:Waveform.first_crossing" in definitions["first_crossing"]
    assert "src/repro/faults/obd.py:obd_fault_universe" in definitions["obd_fault_universe"]
    assert "__init__" not in definitions and "_step_count" not in definitions


def test_every_public_name_is_used(unused):
    offenders = {name: places for name, places in unused.items()
                 if name not in ALLOWED_UNUSED}
    assert offenders == {}, (
        "public but used by no program module: delete them (and the tests "
        "that test only them) or give them a caller"
    )


def test_allow_list_is_not_stale(unused):
    assert len(ALLOWED_UNUSED) <= 12
    assert sorted(set(ALLOWED_UNUSED) - set(_exports()) - set(_definitions())) == []
    assert sorted(set(ALLOWED_UNUSED) - set(unused)) == []
