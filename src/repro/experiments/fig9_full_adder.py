"""Experiment E5: Figure 9 -- propagation of OBD effects through the full adder.

A single OBD defect is injected into one NAND gate sitting in the middle of
the full-adder sum circuit (several logic stages of upstream and downstream
logic on both sides).  The primary-input sequence that excites the defect is
obtained from the OBD ATPG engine (the paper justified it by hand); the
transistor-level simulation then shows the delayed transition arriving at the
sum output, even though the degraded internal level is restored on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.delay import TransitionMeasurement, measure_transition
from ..atpg.obd_atpg import generate_obd_test
from ..cells.technology import Technology, default_technology
from ..core.breakdown import BreakdownStage
from ..core.injection import inject_into_cell
from ..faults.obd import ObdFault
from ..logic.circuits import full_adder_sum
from ..logic.expand import expand_to_transistors, two_pattern_input_waveforms
from ..logic.gates import GateType
from ..logic.netlist import LogicCircuit
from ..logic.simulator import simulate_pattern
from ..spice.analysis.transient import transient
from ..spice.waveform import Waveform

#: Default target gate: a minterm NAND with several stages of upstream and
#: downstream logic (level 4 of the depth-9 circuit).
DEFAULT_TARGET_GATE = "nand_m4"

#: The four defects injected one at a time, as in Figure 9.
DEFAULT_SITES = ("NA", "NB", "PA", "PB")


@dataclass
class Fig9Case:
    """One injected defect and its observed effect at the sum output."""

    site: str
    stage: BreakdownStage
    sequence: tuple
    measurement: TransitionMeasurement
    sum_waveform: Waveform
    fault_free_measurement: TransitionMeasurement

    @property
    def extra_delay(self) -> Optional[float]:
        if self.measurement.delay is None or self.fault_free_measurement.delay is None:
            return None
        return self.measurement.delay - self.fault_free_measurement.delay

    @property
    def observable(self) -> bool:
        """The defect visibly changes the primary-output behaviour."""
        if self.measurement.is_stuck:
            return True
        extra = self.extra_delay
        nominal = self.fault_free_measurement.delay
        if extra is None or nominal is None:
            return False
        return extra > 0.05 * nominal


@dataclass
class Fig9Result:
    """All injected cases for the chosen target gate."""

    tech_name: str
    target_gate: str
    cases: dict[str, Fig9Case]

    def rows(self) -> list[str]:
        lines = [f"=== Figure 9 reproduction: OBD propagation through {self.target_gate} ==="]
        for site, case in self.cases.items():
            nominal = case.fault_free_measurement.table_entry()
            lines.append(
                f"{site:<4} stage={case.stage.value:<5} seq={case.sequence} "
                f"sum delay: fault-free {nominal}, defective {case.measurement.table_entry()}"
            )
        return lines

    def all_observable(self) -> bool:
        return all(case.observable for case in self.cases.values())


def _launch_measurement(
    result,
    logic: LogicCircuit,
    sequence,
    tech: Technology,
    launch_time: float,
    capture_window: float,
) -> TransitionMeasurement:
    """Measure the SUM transition for a primary-input two-pattern sequence."""
    first, second = sequence
    out1 = simulate_pattern(logic, first)["SUM"]
    out2 = simulate_pattern(logic, second)["SUM"]
    output_edge = None if out1 == out2 else ("rising" if out2 > out1 else "falling")
    switching = [
        (net, b1, b2)
        for net, b1, b2 in zip(logic.primary_inputs, first, second)
        if b1 != b2
    ]
    input_net, b1, b2 = switching[0]
    input_edge = "rising" if b2 > b1 else "falling"
    return measure_transition(
        result.waveform(input_net),
        result.waveform("SUM"),
        input_edge=input_edge,
        output_edge=output_edge,
        threshold=tech.half_vdd,
        launch_after=launch_time * 0.5,
        capture_window=capture_window,
    )


def run_fig9(
    tech: Technology | None = None,
    target_gate: str = DEFAULT_TARGET_GATE,
    sites: Sequence[str] = DEFAULT_SITES,
    stage: BreakdownStage = BreakdownStage.MBD2,
    dt: float = 5e-12,
    launch_time: float = 1.5e-9,
    observation_window: float = 2.5e-9,
    capture_window: float = 2.0e-9,
) -> Fig9Result:
    """Inject each defect into *target_gate* and observe the sum output."""
    tech = tech or default_technology()
    logic = full_adder_sum()
    gate = logic.gate(target_gate)
    if gate.gate_type != GateType.NAND2:
        raise ValueError(f"target gate {target_gate!r} must be a NAND2")

    cases: dict[str, Fig9Case] = {}
    t_stop = launch_time + observation_window

    for site in sites:
        fault = ObdFault(gate.name, gate.gate_type, site)
        atpg = generate_obd_test(logic, fault)
        if not atpg.success:
            continue
        (sequence,) = atpg.tests
        waveforms = two_pattern_input_waveforms(
            logic, tech, sequence[0], sequence[1], launch_time, t_stop=t_stop
        )

        # Fault-free reference.
        expanded_ref = expand_to_transistors(logic, tech, input_waveforms=waveforms)
        record = list(logic.primary_inputs) + ["SUM", gate.output]
        ref_result = transient(expanded_ref.circuit, t_stop, dt, record_nodes=record)
        ref_measurement = _launch_measurement(
            ref_result, logic, sequence, tech, launch_time, capture_window
        )

        # Defective circuit.
        expanded = expand_to_transistors(logic, tech, input_waveforms=waveforms)
        inject_into_cell(expanded.circuit, expanded.cell(gate.name), fault.as_defect(stage))
        result = transient(expanded.circuit, t_stop, dt, record_nodes=record)
        measurement = _launch_measurement(
            result, logic, sequence, tech, launch_time, capture_window
        )

        cases[site] = Fig9Case(
            site=site,
            stage=stage,
            sequence=sequence,
            measurement=measurement,
            sum_waveform=result.waveform("SUM"),
            fault_free_measurement=ref_measurement,
        )

    return Fig9Result(tech_name=tech.name, target_gate=target_gate, cases=cases)
