"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names once, keyed by the module that
defines them, and binds what :func:`_lazy_exports` returns::

    __getattr__, __dir__, __all__ = _lazy_exports(__name__, {
        ".netlist": ("Gate", "LogicCircuit"),
    })

Importing the package then imports none of its submodules.  A name's module
is imported on the first access to the name, and the value is stored in the
package's globals, so later lookups never reach ``__getattr__``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def _lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` of *package*.

    *table* maps a module name relative to *package* (``".netlist"``,
    ``"..podem"``) to the names the package re-exports from it.
    """
    owners = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(owners[name], package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, list(owners)
