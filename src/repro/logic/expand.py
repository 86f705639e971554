"""Gate-level to transistor-level expansion.

:func:`expand_to_transistors` builds the full transistor-level SPICE circuit
of a gate-level netlist, returning the cell instances so that OBD defects
(the sites of :func:`repro.faults.obd.obd_fault_universe`) can be injected
into any of them for the Figure-9 style full-circuit simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..spice.elements import PiecewiseLinearWaveform
from ..spice.netlist import Circuit
from .gates import GateType
from .netlist import LogicCircuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cells/core import logic)
    from ..cells.builder import CellInstance
    from ..cells.technology import Technology

#: Gate types that have a direct transistor-level cell implementation.
EXPANDABLE_TYPES = {
    GateType.INV: "INV",
    GateType.NAND2: "NAND2",
    GateType.NAND3: "NAND3",
    GateType.NOR2: "NOR2",
    GateType.NOR3: "NOR3",
    GateType.AOI21: "AOI21",
    GateType.OAI21: "OAI21",
}


@dataclass
class ExpandedCircuit:
    """Transistor-level expansion of a gate-level netlist."""

    logic: LogicCircuit
    circuit: Circuit
    tech: "Technology"
    cells: dict[str, "CellInstance"]
    input_sources: dict[str, str]

    def cell(self, gate_name: str) -> "CellInstance":
        return self.cells[gate_name]


def expand_to_transistors(
    logic: LogicCircuit,
    tech: "Technology",
    input_waveforms: dict[str, object] | None = None,
    input_levels: dict[str, int] | None = None,
) -> ExpandedCircuit:
    """Build the transistor-level circuit of a gate-level netlist.

    Each primary input gets an ideal voltage source (DC level from
    ``input_levels`` or a time waveform from ``input_waveforms``); each gate
    becomes its transistor-level cell, sharing node names with the logic
    netlist so waveforms can be looked up by net name.
    """
    from ..cells.builder import CellInstance, build_cell

    logic.validate()
    circuit = Circuit(f"expanded-{logic.name}")
    circuit.add_voltage_source("vdd", "vdd", "0", dc=tech.vdd)

    sources: dict[str, str] = {}
    for net in logic.primary_inputs:
        source_name = f"v_{net}"
        waveform = (input_waveforms or {}).get(net)
        if waveform is not None:
            circuit.add_voltage_source(source_name, net, "0", waveform=waveform)
        else:
            level = (input_levels or {}).get(net, 0)
            circuit.add_voltage_source(source_name, net, "0", dc=tech.logic_level(level))
        sources[net] = source_name

    cells: dict[str, CellInstance] = {}
    for gate in logic.topological_order():
        if gate.gate_type not in EXPANDABLE_TYPES:
            raise ValueError(
                f"gate {gate.name!r} of type {gate.gate_type.value} has no transistor-level cell"
            )
        cells[gate.name] = build_cell(
            circuit,
            tech,
            EXPANDABLE_TYPES[gate.gate_type],
            gate.name,
            list(gate.inputs),
            gate.output,
            vdd="vdd",
            gnd="0",
        )
    return ExpandedCircuit(
        logic=logic,
        circuit=circuit,
        tech=tech,
        cells=cells,
        input_sources=sources,
    )


#: Rise/fall time of the primary-input edges of a two-pattern test.
INPUT_EDGE_S = 50e-12


def two_pattern_input_waveforms(
    logic: LogicCircuit,
    tech: "Technology",
    first: Sequence[int],
    second: Sequence[int],
    launch_time: float,
    t_stop: float | None = None,
) -> dict[str, PiecewiseLinearWaveform]:
    """PWL waveforms applying a two-pattern sequence at the primary inputs.

    Each input that changes ramps linearly over :data:`INPUT_EDGE_S`.
    """
    inputs = logic.primary_inputs
    if len(first) != len(inputs) or len(second) != len(inputs):
        raise ValueError("pattern width does not match the number of primary inputs")
    end = t_stop if t_stop is not None else launch_time * 2.0
    waveforms: dict[str, PiecewiseLinearWaveform] = {}
    for net, bit1, bit2 in zip(inputs, first, second):
        level1 = tech.logic_level(int(bit1))
        level2 = tech.logic_level(int(bit2))
        waveforms[net] = PiecewiseLinearWaveform(
            [
                (0.0, level1),
                (launch_time, level1),
                (launch_time + INPUT_EDGE_S, level2),
                (end, level2),
            ]
        )
    return waveforms
