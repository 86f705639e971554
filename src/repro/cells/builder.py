"""Transistor-level cell construction helpers.

Cells are built directly into a :class:`~repro.spice.netlist.Circuit`.  Every
builder returns a :class:`CellInstance` describing the logical pins and the
individual transistors, which is what the oxide-breakdown machinery needs to
enumerate and inject defect sites (the paper's ``NA``, ``NB``, ``PA``, ``PB``
site naming for a NAND gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..spice.netlist import Circuit
from .technology import Technology


@dataclass(frozen=True)
class TransistorSite:
    """One transistor inside a cell, i.e. one potential OBD defect site.

    Attributes
    ----------
    element_name:
        Name of the :class:`~repro.spice.elements.mosfet.Mosfet` element in
        the circuit.
    polarity:
        ``"n"`` or ``"p"``.
    input_pin:
        Logical input pin of the cell that drives this transistor's gate
        (``"A"``, ``"B"``, ...).
    site:
        Paper-style site label: polarity letter + input pin, e.g. ``"NA"``.
    drain / gate / source / bulk:
        Circuit node names of the four terminals.
    network:
        ``"pull_down"`` for NMOS network devices, ``"pull_up"`` for PMOS.
    """

    element_name: str
    polarity: str
    input_pin: str
    drain: str
    gate: str
    source: str
    bulk: str
    network: str

    @property
    def site(self) -> str:
        return f"{self.polarity.upper()}{self.input_pin}"


@dataclass
class CellInstance:
    """A placed transistor-level cell."""

    name: str
    cell_type: str
    inputs: dict[str, str]
    output: str
    vdd: str
    gnd: str
    transistors: list[TransistorSite] = field(default_factory=list)
    internal_nodes: list[str] = field(default_factory=list)

    def site(self, label: str) -> TransistorSite:
        """Look up a transistor by its paper-style site label (e.g. ``"NA"``)."""
        for t in self.transistors:
            if t.site == label.upper():
                return t
        raise KeyError(f"cell {self.name!r} has no transistor site {label!r}")

    def sites(self) -> list[str]:
        """All site labels of the cell."""
        return [t.site for t in self.transistors]


def add_transistor(
    circuit: Circuit,
    tech: Technology,
    name: str,
    polarity: str,
    drain: str,
    gate: str,
    source: str,
    bulk: str,
    width_scale: float = 1.0,
) -> None:
    """Add a single MOSFET (with its parasitic capacitors) to *circuit*."""
    if polarity == "n":
        model = tech.nmos
        width = tech.nmos_width * width_scale
    elif polarity == "p":
        model = tech.pmos
        width = tech.pmos_width * width_scale
    else:
        raise ValueError(f"polarity must be 'n' or 'p', got {polarity!r}")
    circuit.add_mosfet(name, drain, gate, source, bulk, model, width, tech.length)


# --------------------------------------------------------------------------- #
# Cell builder registry: cell_type -> callable(circuit, tech, name, inputs,
# output, vdd, gnd, width_scale) -> CellInstance.  Populated by the individual
# cell modules at import time (inverter, nand, nor, complex gates).
# --------------------------------------------------------------------------- #
CellBuilder = Callable[..., CellInstance]

_CELL_BUILDERS: dict[str, CellBuilder] = {}


def register_cell(cell_type: str, builder: CellBuilder) -> None:
    """Register a builder for a cell type (e.g. ``"NAND2"``)."""
    key = cell_type.upper()
    if key in _CELL_BUILDERS:
        raise ValueError(f"cell type {cell_type!r} already registered")
    _CELL_BUILDERS[key] = builder


def available_cells() -> list[str]:
    """Names of all registered cell types."""
    return sorted(_CELL_BUILDERS)


def build_cell(
    circuit: Circuit,
    tech: Technology,
    cell_type: str,
    name: str,
    inputs: Sequence[str],
    output: str,
    vdd: str = "vdd",
    gnd: str = "0",
    width_scale: float = 1.0,
) -> CellInstance:
    """Instantiate a registered cell type into *circuit*.

    ``inputs`` are the circuit nodes connected to the cell's logical inputs in
    pin order (A, B, C, ...).
    """
    key = cell_type.upper()
    if key not in _CELL_BUILDERS:
        raise KeyError(
            f"unknown cell type {cell_type!r}; available: {', '.join(available_cells())}"
        )
    return _CELL_BUILDERS[key](
        circuit,
        tech,
        name,
        list(inputs),
        output,
        vdd=vdd,
        gnd=gnd,
        width_scale=width_scale,
    )


INPUT_PIN_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H")


def pin_names(count: int) -> list[str]:
    """Standard logical pin names for an *count*-input cell."""
    if count < 1 or count > len(INPUT_PIN_NAMES):
        raise ValueError(f"unsupported input count {count}")
    return list(INPUT_PIN_NAMES[:count])
