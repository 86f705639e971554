"""Injection of the diode-resistor OBD model into transistor-level circuits.

The injected network follows Figure 3b of the paper:

* a resistor from the defective transistor's **gate** to an internal
  breakdown node ``X`` (the breakdown spot);
* two pn junctions between ``X`` and the **source** and **drain** diffusions,
  oriented by device polarity (for an NMOS the spot sits in the p-substrate,
  so the junction anodes are at ``X``; for a PMOS the spot sits in the n-well,
  so the junction anodes are at the p+ source/drain);
* a large resistor from ``X`` to the **bulk**, modeling the distant substrate
  connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cells.builder import CellInstance, TransistorSite
from ..cells.fixtures import GateHarness
from ..spice.elements import DiodeModel
from ..spice.netlist import Circuit
from .breakdown import BreakdownParameters
from .defect import OBDDefect


@dataclass(frozen=True)
class InjectedDefect:
    """Bookkeeping for a defect injected into a circuit."""

    defect: OBDDefect
    site: TransistorSite
    breakdown_node: str
    element_names: tuple[str, ...]


def inject_at_site(
    circuit: Circuit,
    site: TransistorSite,
    parameters: BreakdownParameters,
    label: str | None = None,
) -> InjectedDefect:
    """Attach the breakdown network to one transistor of *circuit*.

    Parameters
    ----------
    circuit:
        Circuit containing the transistor (the circuit is modified in place).
    site:
        The transistor to break down, as reported by the cell builders.
    parameters:
        Electrical parameters of the breakdown network.
    label:
        Optional prefix for the injected element names (defaults to
        ``obd:<element name>``).
    """
    prefix = label or f"obd:{site.element_name}"
    node_x = f"{prefix}:x"
    diode_model = DiodeModel(
        saturation_current=parameters.saturation_current,
        ideality=parameters.ideality,
    )

    names: list[str] = []

    def _add(name: str, adder: Callable[[], object]) -> None:
        adder()
        names.append(name)

    r_name = f"{prefix}:rgate"
    _add(r_name, lambda: circuit.add_resistor(r_name, site.gate, node_x, parameters.resistance))

    if site.polarity == "n":
        # Breakdown spot in the p-substrate: junctions point from X into the
        # n+ source/drain diffusions.
        ds_name = f"{prefix}:dsrc"
        dd_name = f"{prefix}:ddrn"
        _add(ds_name, lambda: circuit.add_diode(ds_name, node_x, site.source, diode_model))
        _add(dd_name, lambda: circuit.add_diode(dd_name, node_x, site.drain, diode_model))
    else:
        # Breakdown spot in the n-well: junctions point from the p+
        # source/drain diffusions into X.
        ds_name = f"{prefix}:dsrc"
        dd_name = f"{prefix}:ddrn"
        _add(ds_name, lambda: circuit.add_diode(ds_name, site.source, node_x, diode_model))
        _add(dd_name, lambda: circuit.add_diode(dd_name, site.drain, node_x, diode_model))

    rsub_name = f"{prefix}:rsub"
    _add(
        rsub_name,
        lambda: circuit.add_resistor(rsub_name, node_x, site.bulk, parameters.substrate_resistance),
    )

    return InjectedDefect(
        defect=OBDDefect(site=site.site, gate=None),
        site=site,
        breakdown_node=node_x,
        element_names=tuple(names),
    )


def inject_into_cell(
    circuit: Circuit,
    cell: CellInstance,
    defect: OBDDefect,
) -> InjectedDefect:
    """Inject *defect* into the matching transistor of a placed cell."""
    site = cell.site(defect.site)
    if site.polarity != defect.polarity:
        raise ValueError(
            f"defect {defect} polarity does not match transistor {site.element_name}"
        )
    injected = inject_at_site(circuit, site, defect.effective_parameters, label=f"obd:{cell.name}:{defect.site}")
    return InjectedDefect(
        defect=defect.in_gate(cell.name),
        site=site,
        breakdown_node=injected.breakdown_node,
        element_names=injected.element_names,
    )


def inject_into_harness(harness: GateHarness, defect: OBDDefect) -> InjectedDefect:
    """Inject *defect* into the device under test of a Figure-5 harness."""
    return inject_into_cell(harness.circuit, harness.dut, defect)


def harness_preparer(defect: OBDDefect | None) -> Callable[[GateHarness], None]:
    """A ``prepare`` callback for :func:`repro.cells.characterize.characterize_harness`.

    Passing ``None`` returns a no-op preparer (fault-free reference run).
    """

    def _prepare(harness: GateHarness) -> None:
        if defect is not None:
            inject_into_harness(harness, defect)

    return _prepare
