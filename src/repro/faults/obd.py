"""Gate-level oxide-breakdown fault model.

An :class:`ObdFault` names a transistor of a gate instance in a gate-level
netlist.  Its behaviour at the gate level is a *transition* fault at the gate
output whose excitation, unlike the classical transition fault, is **input
specific**: only the two-pattern sequences returned by
:func:`repro.core.excitation.excitation_conditions` excite it.  This is the
fault object handed to the OBD ATPG engine and to the OBD fault simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from ..cells.builder import pin_names
from ..core.breakdown import BreakdownStage
from ..core.defect import OBDDefect
from ..core.excitation import Sequence2, excitation_conditions
from ..logic.expand import EXPANDABLE_TYPES
from ..logic.gates import GateType
from ..logic.netlist import LogicCircuit
from .base import Fault, FaultList


@dataclass(frozen=True)
class ObdFault(Fault):
    """An oxide-breakdown defect in one transistor of one gate instance."""

    gate_name: str
    gate_type: GateType
    site: str

    @property
    def key(self) -> str:
        return f"{self.gate_name}/{self.site}"

    def describe(self) -> str:
        return f"OBD in transistor {self.site} of {self.gate_type.value} gate {self.gate_name}"

    @property
    def polarity(self) -> str:
        return self.site[0].lower()

    @property
    def input_pin(self) -> str:
        return self.site[1:]

    @cached_property
    def local_sequences(self) -> tuple[Sequence2, ...]:
        """Gate-input two-pattern sequences that excite this defect."""
        return tuple(excitation_conditions(self.gate_type, self.site, mode="obd"))

    @property
    def output_edge(self) -> str:
        """Direction of the output transition delayed by this defect.

        NMOS (pull-down) defects slow falling outputs, PMOS (pull-up) defects
        slow rising outputs.
        """
        return "falling" if self.polarity == "n" else "rising"

    def as_defect(self, stage: BreakdownStage = BreakdownStage.MBD2) -> OBDDefect:
        """Circuit-level defect description for transistor-level injection."""
        return OBDDefect(site=self.site, stage=stage, gate=self.gate_name)


def obd_fault_universe(
    circuit: LogicCircuit,
    gate_types: Iterable[GateType | str] | None = None,
) -> FaultList[ObdFault]:
    """All OBD faults of a gate-level netlist: one per transistor site.

    Every expandable gate contributes ``2 * num_inputs`` faults, an NMOS and
    a PMOS site per input pin.  ``gate_types`` restricts the universe (the
    paper's Section 4.3 counts only the NAND gates of the full-adder example:
    14 gates x 4 transistors = 56 faults); a gate of a requested type that
    has no transistor-level cell raises :class:`ValueError`.
    """
    wanted = set(EXPANDABLE_TYPES) if gate_types is None else {GateType(t) for t in gate_types}
    faults = []
    for gate in circuit:
        if gate.gate_type not in wanted:
            continue
        if gate.gate_type not in EXPANDABLE_TYPES:
            raise ValueError(f"gate {gate.name!r} of type {gate.gate_type.value} is not expandable")
        for pin in pin_names(gate.gate_type.num_inputs):
            faults.append(ObdFault(gate.name, gate.gate_type, f"N{pin}"))
            faults.append(ObdFault(gate.name, gate.gate_type, f"P{pin}"))
    return FaultList(faults)
