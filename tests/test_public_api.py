"""Guard: every name a package exports is used by the code that runs.

A name in a package's ``__all__`` must be referenced somewhere in the
program: a module under ``src/repro`` (package ``__init__`` files, which only
re-export, do not count), a benchmark, an example or a perfbench script.
Tests do not count either, so an export that only its own tests keep alive
fails here and should be deleted with them.  ``ALLOWED_UNUSED`` names the few
exports that a remaining test compares the program against; it cannot go
stale, because each entry must still be exported and still be unused.
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

#: Exports no program module uses, each kept as a test oracle.
ALLOWED_UNUSED = {
    "evaluate_gate_values": "reference gate evaluation the compiled kernels are checked against",
    "structurally_equal": "oracle of the .bench write/parse round-trip tests",
    "output_switches": "the paper's output-must-switch rule, asserted beside the OBD excitation rule",
    "is_sensitized": "path sensitization reference the path-delay fault simulators are checked against",
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
    referenced = _referenced_names()
    return {name: packages for name, packages in _exports().items()
            if name not in referenced}


def test_scan_sees_the_program():
    assert len(_packages()) >= 10
    names = _referenced_names()
    # Imported by name, called as an attribute, and wrapped by string.
    assert {"simulate_pattern", "run", "measure_gate_obd_delay"} <= names


def test_every_export_is_used(unused):
    offenders = {name: packages for name, packages in unused.items()
                 if name not in ALLOWED_UNUSED}
    assert offenders == {}, (
        "exported but used by no program module: delete them (and the tests "
        "that test only them) or give them a caller"
    )


def test_allow_list_is_not_stale(unused):
    exports = _exports()
    assert len(ALLOWED_UNUSED) <= 5
    assert sorted(set(ALLOWED_UNUSED) - set(exports)) == []
    assert sorted(set(ALLOWED_UNUSED) - set(unused)) == []
