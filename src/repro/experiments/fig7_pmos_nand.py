"""Experiment E4: Figure 7 -- input-specific detection of PMOS OBD defects.

Two rising-output sequences, two PMOS defect sites: the defect in the
transistor driven by input A only slows the output when A is the switching
input (and B is held at 1), and symmetrically for B.  The result is the 2x2
delay matrix whose diagonal is degraded and whose off-diagonal equals the
fault-free delay -- the structural reason OBD testing is input specific.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.delay import TransitionMeasurement
from ..cells.technology import Technology, default_technology
from ..core.breakdown import BreakdownStage
from ..core.excitation import format_sequence
from .common import DEFAULT_CAPTURE_WINDOW, DEFAULT_DT, measure_gate_obd_delays

#: (11,01): input A falls while B stays 1 -> PA is the sole charger.
SEQUENCE_A_SWITCHES = ((1, 1), (0, 1))
#: (11,10): input B falls while A stays 1 -> PB is the sole charger.
SEQUENCE_B_SWITCHES = ((1, 1), (1, 0))


@dataclass
class Fig7Result:
    """Delay matrix: defect site x input sequence."""

    tech_name: str
    stage: BreakdownStage
    fault_free: dict[str, TransitionMeasurement]
    matrix: dict[str, dict[str, TransitionMeasurement]]

    def rows(self) -> list[str]:
        lines = [f"=== Figure 7 reproduction: PMOS OBD input specificity ({self.stage.value}) ==="]
        seq_a = format_sequence(SEQUENCE_A_SWITCHES)
        seq_b = format_sequence(SEQUENCE_B_SWITCHES)
        lines.append(f"{'site':<6} {seq_a:>12} {seq_b:>12}")
        lines.append(
            f"{'none':<6} {self.fault_free[seq_a].table_entry():>12} "
            f"{self.fault_free[seq_b].table_entry():>12}"
        )
        for site, per_seq in self.matrix.items():
            lines.append(
                f"{site:<6} {per_seq[seq_a].table_entry():>12} {per_seq[seq_b].table_entry():>12}"
            )
        return lines

    def excited_delay(self, site: str) -> Optional[float]:
        """Delay of the defective gate under its exciting sequence."""
        key = format_sequence(SEQUENCE_A_SWITCHES if site == "PA" else SEQUENCE_B_SWITCHES)
        return self.matrix[site][key].delay

    def unexcited_delay(self, site: str) -> Optional[float]:
        """Delay of the defective gate under the non-exciting sequence."""
        key = format_sequence(SEQUENCE_B_SWITCHES if site == "PA" else SEQUENCE_A_SWITCHES)
        return self.matrix[site][key].delay

    def input_specific(self, tolerance: float = 0.15) -> bool:
        """True when only the exciting sequence shows significant degradation."""
        for site in self.matrix:
            excited = self.excited_delay(site)
            unexcited = self.unexcited_delay(site)
            seq_key = format_sequence(
                SEQUENCE_B_SWITCHES if site == "PA" else SEQUENCE_A_SWITCHES
            )
            nominal = self.fault_free[seq_key].delay
            if excited is None:
                # Stuck output under excitation still counts as degradation.
                excited_degraded = True
            else:
                excited_degraded = excited > (nominal or 0.0) * (1.0 + tolerance)
            unexcited_close = (
                unexcited is not None
                and nominal is not None
                and abs(unexcited - nominal) <= tolerance * nominal
            )
            if not (excited_degraded and unexcited_close):
                return False
        return True


def run_fig7(
    tech: Technology | None = None,
    stage: BreakdownStage = BreakdownStage.MBD2,
    dt: float = DEFAULT_DT,
    capture_window: float = DEFAULT_CAPTURE_WINDOW,
) -> Fig7Result:
    """Measure the 2x2 (site x sequence) PMOS OBD delay matrix."""
    tech = tech or default_technology()
    sequences = (SEQUENCE_A_SWITCHES, SEQUENCE_B_SWITCHES)
    sites = (None, "PA", "PB")
    requests = [(seq, site, stage if site else None) for site in sites for seq in sequences]
    entries = measure_gate_obd_delays(
        "NAND2", requests, tech=tech, dt=dt, capture_window=capture_window
    )
    measured: dict[Optional[str], dict[str, TransitionMeasurement]] = {}
    for (seq, site, _), entry in zip(requests, entries):
        measured.setdefault(site, {})[format_sequence(seq)] = entry.measurement
    fault_free = measured.pop(None)
    return Fig7Result(tech_name=tech.name, stage=stage, fault_free=fault_free, matrix=measured)
