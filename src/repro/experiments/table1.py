"""Experiment E1: reproduce Table 1 (NMOS and PMOS OBD progression).

For the Figure-5 NAND harness, measure the output transition delay for every
(breakdown stage, input sequence, defect site) combination the paper
tabulates:

* falling-output sequences (01,11) and (10,11) with NMOS defects NA / NB,
  stages Fault-Free, MBD1, MBD2, MBD3, HBD;
* rising-output sequences (11,10) and (11,01) with PMOS defects PA / PB,
  stages Fault-Free, MBD1, MBD2, MBD3.

Absolute picoseconds differ from the paper's HSPICE technology; the shape
checks are (a) NMOS delay grows monotonically with stage and is roughly
independent of which input switches, (b) PMOS delay grows only in the
sequence that makes the defective transistor the sole charger, and (c) the
late stages degrade into stuck-at-like behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..cells.technology import Technology, default_technology
from ..core.breakdown import TABLE1_NMOS_STAGES, TABLE1_PMOS_STAGES, BreakdownStage
from ..core.excitation import format_sequence
from .common import DEFAULT_CAPTURE_WINDOW, DEFAULT_DT, GateDelayEntry, measure_gate_obd_delays

#: The falling-output (NMOS) sequences of Table 1: (01,11) and (10,11).
NMOS_SEQUENCES = (((0, 1), (1, 1)), ((1, 0), (1, 1)))
#: The rising-output (PMOS) sequences of Table 1: (11,10) and (11,01).
PMOS_SEQUENCES = (((1, 1), (1, 0)), ((1, 1), (0, 1)))

NMOS_SITES = ("NA", "NB")
PMOS_SITES = ("PA", "PB")

#: Paper-reported entries (picoseconds or stuck classification), used by the
#: benchmark report for side-by-side comparison.
PAPER_TABLE1_NMOS = {
    BreakdownStage.FAULT_FREE: {"(01,11)": {"NA": "96ps", "NB": "96ps"}, "(10,11)": {"NA": "96ps", "NB": "96ps"}},
    BreakdownStage.MBD1: {"(01,11)": {"NA": "118ps", "NB": "118ps"}, "(10,11)": {"NA": "118ps", "NB": "118ps"}},
    BreakdownStage.MBD2: {"(01,11)": {"NA": "156ps", "NB": "143ps"}, "(10,11)": {"NA": "144ps", "NB": "156ps"}},
    BreakdownStage.MBD3: {"(01,11)": {"NA": "190ps", "NB": "228ps"}, "(10,11)": {"NA": "230ps", "NB": "190ps"}},
    BreakdownStage.HBD: {"(01,11)": {"NA": "sa-1", "NB": "sa-1"}, "(10,11)": {"NA": "sa-1", "NB": "sa-1"}},
}
PAPER_TABLE1_PMOS = {
    BreakdownStage.FAULT_FREE: {"(11,10)": {"PA": "110ps", "PB": "110ps"}, "(11,01)": {"PA": "110ps", "PB": "110ps"}},
    BreakdownStage.MBD1: {"(11,10)": {"PA": "110ps", "PB": "360ps"}, "(11,01)": {"PA": "360ps", "PB": "110ps"}},
    BreakdownStage.MBD2: {"(11,10)": {"PA": "110ps", "PB": "736ps"}, "(11,01)": {"PA": "740ps", "PB": "110ps"}},
    BreakdownStage.MBD3: {"(11,10)": {"PA": "110ps", "PB": "sa-0"}, "(11,01)": {"PA": "sa-0", "PB": "110ps"}},
}


@dataclass
class Table1Result:
    """Measured reproduction of Table 1."""

    tech_name: str
    #: entries[stage][sequence string][site] -> GateDelayEntry
    nmos: dict[BreakdownStage, dict[str, dict[str, GateDelayEntry]]]
    pmos: dict[BreakdownStage, dict[str, dict[str, GateDelayEntry]]]

    def rows(self) -> list[str]:
        """Table rows formatted in the paper's layout."""
        lines = ["=== Table 1 reproduction (measured) ==="]
        header = "stage      | " + " | ".join(
            f"{format_sequence(seq)} {site}" for seq in NMOS_SEQUENCES for site in NMOS_SITES
        )
        lines.append("NMOS OBD   | " + header)
        for stage, per_seq in self.nmos.items():
            cells = []
            for seq in NMOS_SEQUENCES:
                key = format_sequence(seq)
                for site in NMOS_SITES:
                    cells.append(per_seq[key][site].table_entry)
            lines.append(f"{stage.value:<10} | " + " | ".join(f"{c:>9}" for c in cells))
        header_p = " | ".join(
            f"{format_sequence(seq)} {site}" for seq in PMOS_SEQUENCES for site in PMOS_SITES
        )
        lines.append("PMOS OBD   | " + header_p)
        for stage, per_seq in self.pmos.items():
            cells = []
            for seq in PMOS_SEQUENCES:
                key = format_sequence(seq)
                for site in PMOS_SITES:
                    cells.append(per_seq[key][site].table_entry)
            lines.append(f"{stage.value:<10} | " + " | ".join(f"{c:>9}" for c in cells))
        return lines

    def nmos_delays(self, sequence_key: str, site: str) -> list[Optional[float]]:
        """Delays (seconds) down one NMOS column, in stage order."""
        return [
            self.nmos[stage][sequence_key][site].measurement.delay
            for stage in self.nmos
        ]

    def pmos_delays(self, sequence_key: str, site: str) -> list[Optional[float]]:
        return [
            self.pmos[stage][sequence_key][site].measurement.delay
            for stage in self.pmos
        ]


def run_table1(
    tech: Technology | None = None,
    nmos_stages: Sequence[BreakdownStage] = TABLE1_NMOS_STAGES,
    pmos_stages: Sequence[BreakdownStage] = TABLE1_PMOS_STAGES,
    nmos_sites: Sequence[str] = NMOS_SITES,
    pmos_sites: Sequence[str] = PMOS_SITES,
    dt: float = DEFAULT_DT,
    capture_window: float = DEFAULT_CAPTURE_WINDOW,
) -> Table1Result:
    """Run the Table-1 characterization (optionally on a reduced stage set).

    Every entry's harness is simulated in one
    :func:`~repro.experiments.common.measure_gate_obd_delays` call.
    """
    tech = tech or default_technology()
    layout = [
        (table, stage, seq, site)
        for table, stages, sequences, sites in (
            ("nmos", nmos_stages, NMOS_SEQUENCES, nmos_sites),
            ("pmos", pmos_stages, PMOS_SEQUENCES, pmos_sites),
        )
        for stage in stages
        for seq in sequences
        for site in sites
    ]
    requests = [
        (seq, None, None) if stage == BreakdownStage.FAULT_FREE else (seq, site, stage)
        for _, stage, seq, site in layout
    ]
    entries = measure_gate_obd_delays(
        "NAND2", requests, tech=tech, dt=dt, capture_window=capture_window
    )
    tables: dict[str, dict[BreakdownStage, dict[str, dict[str, GateDelayEntry]]]] = {
        "nmos": {}, "pmos": {}
    }
    for (table, stage, seq, site), entry in zip(layout, entries):
        per_seq = tables[table].setdefault(stage, {})
        per_seq.setdefault(format_sequence(seq), {})[site] = entry
    return Table1Result(tech_name=tech.name, nmos=tables["nmos"], pmos=tables["pmos"])
